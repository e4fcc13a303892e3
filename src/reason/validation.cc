#include "reason/validation.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "graph/overlay.h"
#include "graph/view.h"

namespace ged {

namespace {

MatchOptions BaseMatchOptions(const ValidationOptions& vopts) {
  MatchOptions mopts;
  mopts.semantics = vopts.semantics;
  mopts.degree_filter = vopts.degree_filter;
  mopts.smart_order = vopts.smart_order;
  mopts.join = vopts.policy.join;
  mopts.kernel_backend = vopts.policy.kernel;
  mopts.max_steps = vopts.max_steps_per_scan;
  mopts.obs = vopts.obs;
  return mopts;
}

// Per-worker accumulator threaded through every scan flavor: the violation
// buffer, the (match, rule) counter, and the GED indices whose scan hit the
// per-scan step budget.
struct WorkerState {
  std::vector<Violation> violations;
  uint64_t checked = 0;
  std::vector<size_t> aborted;
};

// Short human-readable pattern shape for profile rows.
std::string PatternDesc(const Pattern& q) {
  return "vars=" + std::to_string(q.NumVars()) +
         ",edges=" + std::to_string(q.edges().size());
}

// Per-scan-task observability, shared by every scan flavor: opens the
// "Match" trace span, wires the profiler's MatchProfile sink into the
// MatchOptions (one profile per task — pinned sub-runs accumulate into it),
// and on Finish() hands profile + wall time to the collector / metrics.
// All clock reads are skipped when nothing listens.
class ScanObs {
 public:
  ScanObs(const ValidationOptions& vopts, size_t bucket_id, MatchOptions* mopts)
      : profiler_(vopts.obs.Profiler()),
        metrics_(vopts.obs.Metrics()),
        recorder_(vopts.obs.Recorder()),
        logger_(vopts.obs.Log()),
        bucket_id_(bucket_id),
        span_(vopts.obs.Trace(), "Match",
              vopts.obs.Trace() == nullptr
                  ? std::string{}
                  : "bucket=" + std::to_string(bucket_id)) {
    // The flight recorder needs the profile too — it is the evidence a
    // slow-scan capture serializes.
    if (profiler_ != nullptr || recorder_ != nullptr) mopts->profile = &prof_;
    if (profiler_ != nullptr || metrics_ != nullptr || recorder_ != nullptr) {
      start_ns_ = MonotonicNowNs();
      timed_ = true;
    }
  }

  ProfileCollector* profiler() const { return profiler_; }

  void Finish() {
    if (!timed_) return;
    int64_t wall = std::max<int64_t>(0, MonotonicNowNs() - start_ns_);
    if (metrics_ != nullptr) {
      metrics_->Observe(EngineMetric::kScanWallNs,
                        static_cast<uint64_t>(wall));
    }
    if (profiler_ != nullptr) profiler_->AddScan(bucket_id_, prof_, wall);
    if (recorder_ != nullptr &&
        recorder_->ShouldCapture(FlightRecorder::Kind::kScan, wall)) {
      std::string arg = "bucket=" + std::to_string(bucket_id_);
      recorder_->Record(FlightRecorder::Kind::kScan, arg, wall,
                        MatchProfileToJson(prof_));
      if (logger_ != nullptr) {
        logger_->Log(LogLevel::kWarn, "slow_scan",
                     {{"scan", arg},
                      {"wall_ns", wall},
                      {"steps", prof_.steps},
                      {"matches", prof_.matches}});
      }
    }
  }

 private:
  ProfileCollector* profiler_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  StructuredLogger* logger_;
  size_t bucket_id_;
  ScopedSpan span_;
  MatchProfile prof_;
  bool timed_ = false;
  int64_t start_ns_ = 0;
};

// Sorts, applies the deterministic per-GED cap, dedups the aborted-GED
// list, and sets `satisfied` — under the "ViolationEmit" span.
void FinalizeReport(ValidationReport* report,
                    const ValidationOptions& options) {
  ScopedSpan span(options.obs.Trace(), "ViolationEmit");
  ProfileCollector* profiler = options.obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();
  SortViolationList(&report->violations);
  TruncateViolationsPerGed(&report->violations,
                           options.max_violations_per_ged);
  std::sort(report->aborted_geds.begin(), report->aborted_geds.end());
  report->aborted_geds.erase(
      std::unique(report->aborted_geds.begin(), report->aborted_geds.end()),
      report->aborted_geds.end());
  report->satisfied = report->violations.empty();
  if (profiler != nullptr) profiler->AddEmitNs(MonotonicNowNs() - start_ns);
}

// Converts an accumulated WorkerState into the final sorted report.
ValidationReport ReportFromWorker(WorkerState ws,
                                  const ValidationOptions& options) {
  ValidationReport report;
  report.violations = std::move(ws.violations);
  report.matches_checked = ws.checked;
  report.aborted_geds = std::move(ws.aborted);
  FinalizeReport(&report, options);
  return report;
}

// ----- compiled bucket scans (plan/ScanBucket wrappers) ---------------------

// Post-scan accounting shared by the bucket scan flavors: a step-budget
// abort taints every member rule, and the profiler gets per-rule checked
// counts (= enumerated matches — every match checks every member rule) plus
// the violations this scan appended at [viol_start..).
void AccountBucketScan(const PlanBucket& bucket, size_t bucket_id,
                       const MatchStats& stats, WorkerState* ws,
                       size_t viol_start, ProfileCollector* profiler) {
  if (stats.aborted) {
    for (const PlanRule& r : bucket.rules) ws->aborted.push_back(r.ged_index);
  }
  if (profiler == nullptr) return;
  profiler->DeclareBucket(bucket_id, PatternDesc(bucket.pattern));
  // One pass over the appended rows: (ged_index, member position) sorted by
  // ged_index maps each row to its rule's counter.
  std::vector<std::pair<size_t, size_t>> slot;
  slot.reserve(bucket.rules.size());
  for (size_t k = 0; k < bucket.rules.size(); ++k) {
    slot.emplace_back(bucket.rules[k].ged_index, k);
  }
  std::sort(slot.begin(), slot.end());
  std::vector<uint64_t> viols(bucket.rules.size(), 0);
  for (size_t i = viol_start; i < ws->violations.size(); ++i) {
    auto it = std::lower_bound(
        slot.begin(), slot.end(),
        std::make_pair(ws->violations[i].ged_index, size_t{0}));
    ++viols[it->second];
  }
  for (size_t k = 0; k < bucket.rules.size(); ++k) {
    const PlanRule& r = bucket.rules[k];
    profiler->DeclareRule(r.ged_index, r.name, bucket_id);
    profiler->AddRuleCounts(r.ged_index, stats.matches, viols[k],
                            stats.aborted);
  }
}

// One scan task of one bucket: an unpinned full run when `pins` is empty,
// otherwise one pinned run per pin (all under one scan-task profile/span).
template <GraphView GView>
void ScanBucketInto(const GView& g, const PlanBucket& bucket,
                    size_t bucket_id, const ValidationOptions& vopts,
                    VarId pin_var, const std::vector<NodeId>& pins,
                    WorkerState* ws) {
  MatchOptions mopts = BaseMatchOptions(vopts);
  ScanObs obs(vopts, bucket_id, &mopts);
  size_t viol_start = ws->violations.size();
  auto on_violation = [&](size_t ged_index, const Match& rule_match) {
    ws->violations.push_back(Violation{ged_index, rule_match});
    return true;
  };
  MatchStats stats;
  auto run = [&]() {
    MatchStats s = ScanBucket(g, bucket, mopts, &ws->checked, on_violation);
    stats.matches += s.matches;
    stats.steps += s.steps;
    stats.aborted |= s.aborted;
  };
  if (pins.empty()) {
    run();
  } else {
    mopts.pinned.resize(1);
    for (NodeId pin : pins) {
      mopts.pinned[0] = {pin_var, pin};
      run();
    }
  }
  AccountBucketScan(bucket, bucket_id, stats, ws, viol_start,
                    obs.profiler());
  obs.Finish();
}

// One touching run (x, pins) of one bucket: variable x restricted to the
// label-compatible nodes of `pins` (one batched search), and matches where
// an earlier variable binds a touched node suppressed in-search — the
// canonical-run dedup of EnumerateMatchesTouching, each match owned by the
// run of its smallest touched variable. Every member rule is checked per
// match. `touched` must outlive the enumeration.
void ScanBucketTouching(const OverlayView& g, const PlanBucket& bucket,
                        size_t bucket_id, const ValidationOptions& vopts,
                        VarId x, const std::vector<NodeId>& pins,
                        const std::vector<NodeId>& touched, WorkerState* ws) {
  std::vector<NodeId> allowed;
  for (NodeId pin : pins) {
    if (LabelMatches(bucket.pattern.label(x), g.label(pin))) {
      allowed.push_back(pin);
    }
  }
  if (allowed.empty()) return;
  MatchOptions mopts = BaseMatchOptions(vopts);
  mopts.restricted.emplace_back(x, std::move(allowed));
  mopts.exclude_before_var = x;
  mopts.exclude_nodes = &touched;
  ScanObs obs(vopts, bucket_id, &mopts);
  size_t viol_start = ws->violations.size();
  MatchStats stats =
      ScanBucket(g, bucket, mopts, &ws->checked,
                 [&](size_t ged_index, const Match& rule_match) {
                   ws->violations.push_back(Violation{ged_index, rule_match});
                   return true;
                 });
  AccountBucketScan(bucket, bucket_id, stats, ws, viol_start,
                    obs.profiler());
  obs.Finish();
}

// ----- parallel driver ------------------------------------------------------

// Drains `num_items` indexed work items across options.num_threads workers.
// Each worker accumulates into a local WorkerState merged under one mutex.
// `scan(item, ws)` performs one item's scan. Deterministic: items partition
// the match space exactly, and the merged report is sorted (and
// cap-truncated to the smallest) afterwards.
ValidationReport RunParallelScan(
    size_t num_items, const ValidationOptions& options,
    const std::function<void(size_t, WorkerState*)>& scan) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  WorkerState merged;

  auto worker = [&]() {
    WorkerState local;
    while (true) {
      size_t k = next.fetch_add(1);
      if (k >= num_items) break;
      scan(k, &local);
    }
    std::lock_guard<std::mutex> lock(mu);
    merged.violations.insert(merged.violations.end(),
                             std::make_move_iterator(local.violations.begin()),
                             std::make_move_iterator(local.violations.end()));
    merged.checked += local.checked;
    merged.aborted.insert(merged.aborted.end(), local.aborted.begin(),
                          local.aborted.end());
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < options.num_threads; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) t.join();

  return ReportFromWorker(std::move(merged), options);
}

// Candidate nodes for pinning variable `pin` of `q` in `g`.
template <GraphView GView>
std::vector<NodeId> PinCandidates(const Pattern& q, VarId pin,
                                  const GView& g) {
  Label l = q.label(pin);
  if (l != kWildcard) {
    auto nodes = g.NodesWithLabel(l);
    return std::vector<NodeId>(nodes.begin(), nodes.end());
  }
  std::vector<NodeId> candidates(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) candidates[v] = v;
  return candidates;
}

// ----- compiled Validate ----------------------------------------------------

template <GraphView GView>
ValidationReport ValidateSerialPlan(const GView& g, const RulesetPlan& plan,
                                    const ValidationOptions& options) {
  WorkerState ws;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    ScanBucketInto(g, plan.buckets[b], b, options, 0, {}, &ws);
  }
  return ReportFromWorker(std::move(ws), options);
}

template <GraphView GView>
ValidationReport ValidateParallelPlan(const GView& g, const RulesetPlan& plan,
                                      const ValidationOptions& options) {
  // Work items: (bucket, chunk of candidates for the bucket's most selective
  // variable). Pinning one variable partitions the bucket's match space
  // exactly, so any item partition is race-free and deterministic.
  struct WorkItem {
    const PlanBucket* bucket;
    size_t bucket_id;
    VarId pin_var;
    std::vector<NodeId> pins;  // empty = single run without pinning
  };
  std::vector<WorkItem> items;
  size_t chunks_per_bucket = std::max<size_t>(1, 8 * options.num_threads);
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    if (bucket.pattern.NumVars() == 0) {
      items.push_back(WorkItem{&bucket, b, 0, {}});  // single empty match
      continue;
    }
    VarId pin_var = SelectPinVariable(bucket.pattern, g);
    std::vector<NodeId> candidates = PinCandidates(bucket.pattern, pin_var, g);
    size_t chunk = std::max<size_t>(1, candidates.size() / chunks_per_bucket);
    for (size_t begin = 0; begin < candidates.size(); begin += chunk) {
      size_t end = std::min(candidates.size(), begin + chunk);
      items.push_back(
          WorkItem{&bucket, b, pin_var,
                   std::vector<NodeId>(candidates.begin() + begin,
                                       candidates.begin() + end)});
    }
  }

  return RunParallelScan(items.size(), options,
                         [&](size_t k, WorkerState* ws) {
                           const WorkItem& item = items[k];
                           ScanBucketInto(g, *item.bucket, item.bucket_id,
                                          options, item.pin_var, item.pins,
                                          ws);
                         });
}

// ----- seeded-scan restriction builder --------------------------------------

// Computes the seed-compatible endpoint restrictions of one pattern edge:
// h(pe.src) may be any compatible seed source, h(pe.dst) any compatible seed
// target. Returns false when no seed is compatible (skip the run). This
// over-approximates the per-seed pairing (h(src) and h(dst) may come from
// different seeds when a pre-existing edge connects them), which only widens
// the re-checked region — the caller's set-difference reconciliation absorbs
// it — while amortizing matcher setup across all seeds.
bool SeedEndpointRestrictions(const OverlayView& g, const Pattern& q,
                              const Pattern::PEdge& pe,
                              const std::vector<EdgeTriple>& seeds,
                              std::vector<NodeId>* srcs,
                              std::vector<NodeId>* dsts) {
  srcs->clear();
  dsts->clear();
  for (const EdgeTriple& seed : seeds) {
    if (!LabelMatches(pe.label, seed.label)) continue;
    if (!LabelMatches(q.label(pe.src), g.label(seed.src))) continue;
    if (!LabelMatches(q.label(pe.dst), g.label(seed.dst))) continue;
    if (pe.src == pe.dst && seed.src != seed.dst) continue;
    srcs->push_back(seed.src);
    dsts->push_back(seed.dst);
  }
  if (srcs->empty()) return false;
  auto sort_unique = [](std::vector<NodeId>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  sort_unique(srcs);
  sort_unique(dsts);
  return true;
}

}  // namespace

// ----- public API -----------------------------------------------------------

namespace {

// RulesetPlan::Compile under the "PlanCompile" span, with plan-shape
// metrics and the profiler's compile wall time.
RulesetPlan CompileWithObs(const std::vector<Ged>& sigma,
                           const ValidationOptions& options) {
  ScopedSpan span(options.obs.Trace(), "PlanCompile");
  ProfileCollector* profiler = options.obs.Profiler();
  int64_t start_ns = profiler == nullptr ? 0 : MonotonicNowNs();
  RulesetPlan plan = RulesetPlan::Compile(sigma);
  if (MetricsRegistry* metrics = options.obs.Metrics()) {
    metrics->Inc(EngineMetric::kPlanCompiles);
    metrics->Inc(EngineMetric::kPlanBuckets, plan.buckets.size());
    metrics->Inc(EngineMetric::kPlanRules, plan.num_rules);
  }
  if (profiler != nullptr) {
    profiler->AddPlanCompileNs(MonotonicNowNs() - start_ns);
  }
  return plan;
}

// Dispatch bodies of the public entries, without the run-level "Validate"
// span — the public overloads chain (Graph → FrozenGraph, Validate →
// ValidateWithPlan), so the span and run metrics are opened exactly once at
// the outermost public call and the chain runs through these. Instantiated
// for the two read backends only.
template <GraphView GView>
ValidationReport ValidateWithPlanNoObs(const GView& g, const RulesetPlan& plan,
                                       const ValidationOptions& options) {
  if (options.num_threads <= 1) return ValidateSerialPlan(g, plan, options);
  return ValidateParallelPlan(g, plan, options);
}

template <GraphView GView>
ValidationReport ValidateNoObs(const GView& g, const std::vector<Ged>& sigma,
                               const ValidationOptions& options) {
  return ValidateWithPlanNoObs(g, CompileWithObs(sigma, options), options);
}

// Run-level observability of one public Validate / ValidateWithPlan call:
// the "Validate" trace span, the validate.* run counters, the graph-size
// gauges, and the wall-time histogram. Observe(report) flushes the report's
// totals before the scope closes.
class ValidateObsScope {
 public:
  ValidateObsScope(const ValidationOptions& options, size_t nodes,
                   size_t edges)
      : metrics_(options.obs.Metrics()),
        span_(options.obs.Trace(), "Validate"),
        lat_(options.obs.Metrics(), EngineMetric::kValidateWallNs) {
    if (metrics_ != nullptr) {
      metrics_->Inc(EngineMetric::kValidateRuns);
      metrics_->Set(EngineMetric::kGraphNodes, nodes);
      metrics_->Set(EngineMetric::kGraphEdges, edges);
    }
  }

  void Observe(const ValidationReport& report) {
    if (metrics_ == nullptr) return;
    metrics_->Inc(EngineMetric::kValidateMatchesChecked,
                  report.matches_checked);
    metrics_->Inc(EngineMetric::kValidateViolations,
                  report.violations.size());
    metrics_->Inc(EngineMetric::kValidateAbortedGeds,
                  report.aborted_geds.size());
  }

 private:
  MetricsRegistry* metrics_;
  ScopedSpan span_;
  ScopedLatency lat_;
};

}  // namespace

// Freeze once; serial and parallel workers all scan the CSR arrays.
ValidationReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report =
      ValidateNoObs(FrozenGraph::Freeze(g, options.obs), sigma, options);
  scope.Observe(report);
  return report;
}

ValidationReport Validate(const FrozenGraph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report = ValidateNoObs(g, sigma, options);
  scope.Observe(report);
  return report;
}

ValidationReport ValidateWithPlan(const Graph& g, const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report =
      ValidateWithPlanNoObs(FrozenGraph::Freeze(g, options.obs), plan, options);
  scope.Observe(report);
  return report;
}

ValidationReport ValidateWithPlan(const FrozenGraph& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report = ValidateWithPlanNoObs(g, plan, options);
  scope.Observe(report);
  return report;
}

// Overlay overloads: the base is already CSR — scan the overlay directly.
ValidationReport Validate(const OverlayView& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report = ValidateNoObs(g, sigma, options);
  scope.Observe(report);
  return report;
}

ValidationReport ValidateWithPlan(const OverlayView& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options) {
  ValidateObsScope scope(options, g.NumNodes(), g.NumEdges());
  ValidationReport report = ValidateWithPlanNoObs(g, plan, options);
  scope.Observe(report);
  return report;
}

namespace {

constexpr unsigned kDigitBits = 16;
constexpr uint64_t kDigitMax = (uint64_t{1} << kDigitBits) - 1;

// One 16-bit digit of a row's sort key: key(row) >> shift, masked. `max_key`
// bounds key over the list, so the pass needs min(max_key >> shift,
// kDigitMax) + 1 counters.
struct DigitPass {
  size_t column;  // key = column's id + 1, or 0 past the row's end;
                  // kGedColumn: key = ged_index
  unsigned shift;
  uint64_t max_key;

  size_t Counters() const {
    return static_cast<size_t>(std::min(max_key >> shift, kDigitMax)) + 1;
  }
};
constexpr size_t kGedColumn = ~size_t{0};

inline uint64_t RowKey(const Violation& v, size_t column) {
  if (column == kGedColumn) return v.ged_index;
  return column < v.match.size() ? uint64_t{v.match[column]} + 1 : 0;
}

// Appends the passes of one key, least significant digit first; a key whose
// maximum fits one digit takes one pass.
void AddKeyPasses(size_t column, uint64_t max_key,
                  std::vector<DigitPass>* passes) {
  unsigned shift = 0;
  do {
    passes->push_back(DigitPass{column, shift, max_key});
    shift += kDigitBits;
  } while (shift < 64 && (max_key >> shift) != 0);
}

// One stable counting pass: reorders `perm` (row indices) by the pass's
// digit. The digits are read off the rows in storage order — a sequential
// scan that also yields the histogram — so the reorder gathers from the
// small `digits` array, not from the rows. Skipped when every row shares
// the digit.
void CountingPass(const std::vector<Violation>& rows, const DigitPass& pass,
                  std::vector<uint32_t>* perm, std::vector<uint32_t>* next,
                  std::vector<uint16_t>* digits,
                  std::vector<uint32_t>* counts) {
  const size_t n = rows.size();
  counts->assign(pass.Counters() + 1, 0);
  uint32_t* count = counts->data();
  uint16_t* digit = digits->data();
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = RowKey(rows[i], pass.column);
    digit[i] = static_cast<uint16_t>((key >> pass.shift) & kDigitMax);
    ++count[digit[i] + 1];
  }
  if (count[digit[0] + 1] == n) return;
  for (size_t d = 1; d < counts->size(); ++d) count[d] += count[d - 1];
  const uint32_t* from = perm->data();
  uint32_t* to = next->data();
  for (size_t i = 0; i < n; ++i) to[count[digit[from[i]]]++] = from[i];
  perm->swap(*next);
}

// Moves rows so that rows[i] becomes the old rows[perm[i]], one cycle of
// the permutation at a time: one row is held aside per cycle, never a
// second copy of the list. Consumes `perm`.
void ApplyPermutation(std::vector<uint32_t>* perm,
                      std::vector<Violation>* rows) {
  uint32_t* p = perm->data();
  const uint32_t n = static_cast<uint32_t>(perm->size());
  for (uint32_t i = 0; i < n; ++i) {
    if (p[i] == i) continue;
    Violation held = std::move((*rows)[i]);
    uint32_t j = i;
    while (p[j] != i) {
      uint32_t src = p[j];
      (*rows)[j] = std::move((*rows)[src]);
      p[j] = j;
      j = src;
    }
    (*rows)[j] = std::move(held);
    p[j] = j;
  }
}

}  // namespace

void SortViolationList(std::vector<Violation>* violations) {
  const size_t n = violations->size();
  size_t arity = 0;
  uint64_t max_id_key = 0;
  size_t min_ged = std::numeric_limits<size_t>::max();
  size_t max_ged = 0;
  for (const Violation& v : *violations) {
    arity = std::max(arity, v.match.size());
    min_ged = std::min(min_ged, v.ged_index);
    max_ged = std::max(max_ged, v.ged_index);
    for (NodeId id : v.match) max_id_key = std::max<uint64_t>(max_id_key, id);
  }
  if (arity > 0) ++max_id_key;  // keys are id + 1

  // Least significant key first: the last column, ..., column 0, then
  // ged_index (unless every row shares it). Every column's key range is the
  // list-wide one.
  std::vector<DigitPass> passes;
  for (size_t c = arity; c-- > 0;) AddKeyPasses(c, max_id_key, &passes);
  if (min_ged != max_ged) AddKeyPasses(kGedColumn, max_ged, &passes);
  if (passes.empty()) return;  // no columns, one GED: all rows are equal
  size_t counters = 0;
  for (const DigitPass& pass : passes) {
    counters = std::max(counters, pass.Counters());
  }
  if (counters > kViolationRadixMaxCountersPerRow * n ||
      n > std::numeric_limits<uint32_t>::max()) {
    std::sort(violations->begin(), violations->end(), ViolationLess);
    return;
  }

  std::vector<uint32_t> perm(n), next(n), counts;
  std::vector<uint16_t> digits(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (const DigitPass& pass : passes) {
    CountingPass(*violations, pass, &perm, &next, &digits, &counts);
  }
  next = {};  // only perm is needed from here: release the scratch first
  digits = {};
  ApplyPermutation(&perm, violations);
}

void TruncateViolationsPerGed(std::vector<Violation>* violations,
                              uint64_t cap) {
  if (cap == 0 || violations->empty()) return;
  std::vector<Violation>& v = *violations;
  size_t write = 0;
  uint64_t run = 0;
  for (size_t read = 0; read < v.size(); ++read) {
    if (read > 0 && v[read].ged_index != v[read - 1].ged_index) run = 0;
    if (run++ >= cap) continue;
    if (write != read) v[write] = std::move(v[read]);
    ++write;
  }
  v.erase(v.begin() + write, v.end());
}

size_t EraseViolationsTouching(std::vector<Violation>* violations,
                               const std::vector<NodeId>& touched) {
  if (touched.empty()) return 0;
  auto binds_touched = [&](const Violation& v) {
    for (NodeId n : v.match) {
      if (std::binary_search(touched.begin(), touched.end(), n)) return true;
    }
    return false;
  };
  size_t before = violations->size();
  violations->erase(
      std::remove_if(violations->begin(), violations->end(), binds_touched),
      violations->end());
  return before - violations->size();
}

void MergeViolations(std::vector<Violation>* violations,
                     std::vector<Violation> fresh) {
  // Merge from the back into the grown list: rows before the first
  // insertion point never move, and no buffer the size of the report is
  // allocated (std::inplace_merge takes one). Ties keep `violations` first.
  std::vector<Violation>& v = *violations;
  size_t i = v.size(), j = fresh.size();
  v.resize(i + j);
  for (size_t k = v.size(); j > 0;) {
    if (i > 0 && ViolationLess(fresh[j - 1], v[i - 1])) {
      v[--k] = std::move(v[--i]);
    } else {
      v[--k] = std::move(fresh[--j]);
    }
  }
}

ValidationReport ValidateTouchingWithPlan(const OverlayView& g,
                                          const RulesetPlan& plan,
                                          const std::vector<NodeId>& touched,
                                          const ValidationOptions& options) {
  ValidationReport report;
  if (touched.empty()) return report;

  if (options.num_threads <= 1) {
    WorkerState ws;
    for (size_t b = 0; b < plan.buckets.size(); ++b) {
      const PlanBucket& bucket = plan.buckets[b];
      for (VarId x = 0; x < bucket.pattern.NumVars(); ++x) {
        ScanBucketTouching(g, bucket, b, options, x, touched, touched, &ws);
      }
    }
    return ReportFromWorker(std::move(ws), options);
  }

  // Parallel: one work item per (bucket, pin variable, touched-node chunk);
  // pinned runs are independent, so any partition is race-free.
  struct WorkItem {
    const PlanBucket* bucket;
    size_t bucket_id;
    VarId var;
    std::vector<NodeId> pins;
  };
  std::vector<WorkItem> items;
  size_t chunk = std::max<size_t>(
      1, touched.size() / std::max<size_t>(1, 4 * options.num_threads));
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    for (VarId x = 0; x < bucket.pattern.NumVars(); ++x) {
      for (size_t begin = 0; begin < touched.size(); begin += chunk) {
        size_t end = std::min(touched.size(), begin + chunk);
        items.push_back(WorkItem{
            &bucket, b, x,
            std::vector<NodeId>(touched.begin() + begin,
                                touched.begin() + end)});
      }
    }
  }

  return RunParallelScan(
      items.size(), options, [&](size_t k, WorkerState* ws) {
        const WorkItem& item = items[k];
        ScanBucketTouching(g, *item.bucket, item.bucket_id, options, item.var,
                           item.pins, touched, ws);
      });
}

std::vector<Violation> FindViolationsSeededByEdgesWithPlan(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked) {
  WorkerState ws;
  MatchOptions base = BaseMatchOptions(options);
  // A truncated seeded re-scan would break the set-difference reconciliation
  // that keeps incremental maintenance exact — the step budget never applies
  // here.
  base.max_steps = 0;
  std::vector<NodeId> srcs, dsts;
  for (size_t b = 0; b < plan.buckets.size(); ++b) {
    const PlanBucket& bucket = plan.buckets[b];
    const Pattern& q = bucket.pattern;
    for (const Pattern::PEdge& pe : q.edges()) {
      if (!SeedEndpointRestrictions(g, q, pe, seeds, &srcs, &dsts)) continue;
      MatchOptions mopts = base;
      mopts.restricted = {{pe.src, srcs}, {pe.dst, dsts}};
      ScanObs obs(options, b, &mopts);
      size_t viol_start = ws.violations.size();
      MatchStats stats =
          ScanBucket(g, bucket, mopts, &ws.checked,
                     [&](size_t ged_index, const Match& rule_match) {
                       ws.violations.push_back(Violation{ged_index, rule_match});
                       return true;
                     });
      AccountBucketScan(bucket, b, stats, &ws, viol_start, obs.profiler());
      obs.Finish();
    }
  }
  *checked += ws.checked;
  std::vector<Violation> out = std::move(ws.violations);
  SortViolationList(&out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ged
