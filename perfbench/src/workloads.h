// The benchmark's workloads and the helpers they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "ged/ged.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "harness.h"
#include "reason/validation.h"

namespace perfbench {

Outcome RunValidateMatch(const Options& o);
Outcome RunValidateReport(const Options& o);
Outcome RunIngest(const Options& o);
Outcome RunRecover(const Options& o);
Outcome RunResolve(const Options& o);
Outcome RunAnalysis(const Options& o);

// op_ms_p75 (and, as context, the median, p90, rate and sample count) from
// per-operation latencies in ms.
void SetLatencyMetrics(Outcome* r, const std::vector<double>& ms);

// Writes the span log next to the work files and records its path.
void WriteTrace(const Options& o, const SpanLog& log, Outcome* r);

// Replays out(u) ∩ out(v) for every CSR edge (u, l, v) over the l-labeled
// neighbor columns through the resolved intersection kernel; returns the
// number of emitted common neighbors.
uint64_t ReplayIntersect2(const ged::FrozenGraph& g);

// The validation layers of one full Validate, replayed call by call on the
// same inputs (spans: graph.freeze, plan.compile, match.enumerate per
// bucket, reason.scan per bucket, reason.validate_with_plan,
// reason.report_sort, kernel.intersect2).
struct LayerProbe {
  uint64_t steps = 0;    // EnumerateMatches search-tree nodes
  uint64_t matches = 0;  // EnumerateMatches matches
  uint64_t scan_checked = 0;
  uint64_t checked = 0;  // ValidateWithPlan matches_checked
  uint64_t violations = 0;
  uint64_t emitted = 0;  // kernel replay output
  bool sorted_matches_report = false;
  bool agrees_with(const ged::ValidationReport& rep) const;
};
LayerProbe ProbeValidationLayers(const ged::Graph& g,
                                 const std::vector<ged::Ged>& sigma,
                                 SpanLog* log);
// Freeze + compile + ValidateWithPlan(FrozenGraph): the probe's account of
// one Validate(Graph), in ms (medians over the logged probes).
double ValidationLayerSumMs(const SpanLog& log);
// graph.*, plan.*, match.*, kernel.* and reason.* (validation) metrics.
void SetValidationLayerMetrics(const SpanLog& log, const LayerProbe& first,
                               Outcome* r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
