// Matcher ablation (DESIGN.md design-choice bench): the homomorphism
// matcher's candidate filtering and variable-ordering optimizations toggled
// independently on the spam workload (Q5 is the largest Fig. 1 pattern) and
// on a dense random graph, against the FrozenGraph CSR snapshot (built
// outside the timed loop). The *_frozen row names date from when a mutable
// Graph backend was ablated next to the snapshot.
//
// BM_DensePattern is the worst-case-optimal candidate-generation gate: the
// clique patterns of the dense community scenario (gen/scenarios.h) against
// the frozen backend, k-way leapfrog intersection vs the legacy
// pick-smallest-list path (MatchOptions::join = kPickSmallest). The
// acceptance bar is intersection ≥ 1.5× legacy on the 4-clique; the CI
// compare step tracks both series in BENCH_matcher.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "match/kernels/kernel.h"
#include "match/kernels/registry.h"
#include "match/matcher.h"
#include "obs/exporter.h"
#include "obs/obs.h"
#include "reason/validation.h"

namespace {

using namespace ged;

void BM_Ablation_Q5(benchmark::State& state, bool degree, bool smart,
                    bool intersection = true) {
  SocialParams params;
  params.num_accounts = 200;
  params.num_blogs = 400;
  params.spam_pairs = 5;
  SocialInstance net = GenSocialNetwork(params);
  FrozenGraph snapshot = FrozenGraph::Freeze(net.graph);
  Ged phi5 = SpamGed(2, Value("peculiar"));
  MatchOptions opts;
  opts.degree_filter = degree;
  opts.smart_order = smart;
  opts.join =
      intersection ? JoinStrategy::kAuto : JoinStrategy::kPickSmallest;
  uint64_t steps = 0;
  auto cb = [](const Match&) { return true; };
  for (auto _ : state) {
    MatchStats stats = EnumerateMatches(phi5.pattern(), snapshot, opts, cb);
    steps = stats.steps;
    benchmark::DoNotOptimize(stats.matches);
  }
  state.counters["search_steps"] = static_cast<double>(steps);
}

void BM_Ablation_RandomGraph(benchmark::State& state, bool degree,
                             bool smart, bool intersection = true) {
  RandomGraphParams gp;
  gp.num_nodes = 300;
  gp.avg_out_degree = 4;
  gp.num_node_labels = 4;
  gp.num_edge_labels = 2;
  Graph g = RandomPropertyGraph(gp);
  FrozenGraph snapshot = FrozenGraph::Freeze(g);
  Pattern q;
  VarId a = q.AddVar("a", GenNodeLabel(0));
  VarId b = q.AddVar("b", kWildcard);
  VarId c = q.AddVar("c", GenNodeLabel(1));
  VarId d = q.AddVar("d", kWildcard);
  q.AddEdge(a, GenEdgeLabel(0), b);
  q.AddEdge(b, GenEdgeLabel(1), c);
  q.AddEdge(c, GenEdgeLabel(0), d);
  MatchOptions opts;
  opts.degree_filter = degree;
  opts.smart_order = smart;
  opts.join =
      intersection ? JoinStrategy::kAuto : JoinStrategy::kPickSmallest;
  uint64_t steps = 0;
  auto cb = [](const Match&) { return true; };
  for (auto _ : state) {
    MatchStats stats = EnumerateMatches(q, snapshot, opts, cb);
    steps = stats.steps;
    benchmark::DoNotOptimize(stats.matches);
  }
  state.counters["search_steps"] = static_cast<double>(steps);
}

// Intersection-vs-legacy ablation on the dense community scenario's clique
// patterns.
// pattern_index: 0 = triangle, 1 = 4-clique.
void BM_DensePattern(benchmark::State& state, size_t pattern_index,
                     bool intersection) {
  DenseParams params;
  params.num_members = static_cast<size_t>(state.range(0));
  DenseInstance inst = GenDenseCommunity(params);
  FrozenGraph snapshot = FrozenGraph::Freeze(inst.graph);
  Pattern q = DenseCliqueGeds()[pattern_index].pattern();
  // The committed counter baselines for this series (lf_seeks / lf_fanin)
  // predate the SIMD kernel backends; pin the scalar kernel — an exact port
  // of the original leapfrog — so the counters stay bit-identical on every
  // host. The per-backend story lives in BM_KernelAblation below.
  ScopedKernelOverride pin(KernelBackend::kScalar);
  MatchOptions opts;
  opts.join =
      intersection ? JoinStrategy::kAuto : JoinStrategy::kPickSmallest;
  uint64_t matches = 0, steps = 0;
  auto cb = [](const Match&) { return true; };
  for (auto _ : state) {
    MatchStats stats = EnumerateMatches(q, snapshot, opts, cb);
    matches = stats.matches;
    steps = stats.steps;
    benchmark::DoNotOptimize(stats.matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["search_steps"] = static_cast<double>(steps);
  state.counters["edges"] = static_cast<double>(inst.graph.NumEdges());
  // One untimed profiled run for the kernel-shape counters: galloping seeks
  // and summed fan-in are deterministic, so the CI compare step diffs them
  // against the baseline like search_steps (a silent regression to linear
  // scans would show as lf_seeks collapsing to 0).
  MatchOptions popts = opts;
  MatchProfile prof;
  popts.obs.enabled = true;
  popts.profile = &prof;
  EnumerateMatches(q, snapshot, popts, cb);
  DepthStats totals = prof.Totals();
  state.counters["lf_seeks"] = static_cast<double>(totals.lf_seeks);
  state.counters["lf_fanin"] = static_cast<double>(totals.lf_fanin);
  state.counters["lf_rounds"] = static_cast<double>(totals.lf_rounds);
}

// Per-backend kernel ablation (match/kernels/ acceptance gate): the raw
// intersection kernels head to head on the dense community's real CSR
// neighbor spans, outside the matcher so nothing but the kernel differs
// between series. One series per backend available in this binary on this
// host, registered at static init (below) — the CI perf-smoke job gates
// avx2 ≥ 1.5× scalar on intersect2 whenever the avx2 series exists in the
// JSON. lf_rounds / lf_seeks / matches are deterministic per backend.
void BM_KernelAblation2(benchmark::State& state, KernelBackend backend) {
  DenseParams params;
  DenseInstance inst = GenDenseCommunity(params);
  FrozenGraph snapshot = FrozenGraph::Freeze(inst.graph);
  Label follows = Sym("follows");
  std::vector<std::span<const NodeId>> spans;
  for (NodeId v = 0; v < snapshot.NumNodes(); ++v) {
    std::span<const NodeId> s = snapshot.OutNeighborsLabeled(v, follows);
    if (s.size() >= 2) spans.push_back(s);
  }
  const IntersectionKernel& kernel = *GetKernel(backend);
  auto emit = [](void* ctx, NodeId) {
    ++*static_cast<uint64_t*>(ctx);
    return true;
  };
  uint64_t hits = 0, seeks = 0, rounds = 0;
  for (auto _ : state) {
    hits = seeks = rounds = 0;
    for (size_t i = 0; i + 1 < spans.size(); ++i) {
      kernel.intersect2(spans[i], spans[i + 1], emit, &hits, &seeks);
      ++rounds;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["matches"] = static_cast<double>(hits);
  state.counters["lf_seeks"] = static_cast<double>(seeks);
  state.counters["lf_rounds"] = static_cast<double>(rounds);
}

void BM_KernelAblationK(benchmark::State& state, KernelBackend backend) {
  DenseParams params;
  DenseInstance inst = GenDenseCommunity(params);
  FrozenGraph snapshot = FrozenGraph::Freeze(inst.graph);
  Label follows = Sym("follows");
  std::vector<std::span<const NodeId>> spans;
  for (NodeId v = 0; v < snapshot.NumNodes(); ++v) {
    std::span<const NodeId> s = snapshot.OutNeighborsLabeled(v, follows);
    if (s.size() >= 2) spans.push_back(s);
  }
  const IntersectionKernel& kernel = *GetKernel(backend);
  auto emit = [](void* ctx, NodeId) {
    ++*static_cast<uint64_t*>(ctx);
    return true;
  };
  uint64_t hits = 0, seeks = 0, rounds = 0;
  for (auto _ : state) {
    hits = seeks = rounds = 0;
    for (size_t i = 0; i + 2 < spans.size(); ++i) {
      // IntersectK reorders its list array in place; rebuild per round.
      std::span<const NodeId> lists[3] = {spans[i], spans[i + 1],
                                          spans[i + 2]};
      kernel.intersect_k({lists, 3}, emit, &hits, &seeks);
      ++rounds;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["matches"] = static_cast<double>(hits);
  state.counters["lf_seeks"] = static_cast<double>(seeks);
  state.counters["lf_rounds"] = static_cast<double>(rounds);
}

// Register one BM_KernelAblation series per available backend. Names are
// stable ("BM_KernelAblation/intersect2_<backend>") so the CI gate can
// address them; backends absent from this binary/host simply produce no
// series (the gate is conditional on presence).
int RegisterKernelAblation() {
  for (KernelBackend b : AvailableKernelBackends()) {
    std::string name2 =
        std::string("BM_KernelAblation/intersect2_") + KernelBackendName(b);
    benchmark::RegisterBenchmark(
        name2.c_str(),
        [b](benchmark::State& state) { BM_KernelAblation2(state, b); })
        ->Unit(benchmark::kMillisecond);
    std::string namek =
        std::string("BM_KernelAblation/intersectk_") + KernelBackendName(b);
    benchmark::RegisterBenchmark(
        namek.c_str(),
        [b](benchmark::State& state) { BM_KernelAblationK(state, b); })
        ->Unit(benchmark::kMillisecond);
  }
  return 0;
}
const int kKernelAblationRegistered = RegisterKernelAblation();

// The same toggle end to end through validation (freeze + compiled plan +
// X→Y checks included): what the leapfrog join buys a full Validate call on
// the dense workload.
void BM_DenseValidation(benchmark::State& state, bool intersection) {
  DenseParams params;
  params.num_members = static_cast<size_t>(state.range(0));
  DenseInstance inst = GenDenseCommunity(params);
  FrozenGraph snapshot = FrozenGraph::Freeze(inst.graph);
  std::vector<Ged> sigma = DenseCliqueGeds();
  ValidationOptions opts;
  opts.policy.join =
      intersection ? JoinStrategy::kAuto : JoinStrategy::kPickSmallest;
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(snapshot, sigma, opts);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["violations"] = static_cast<double>(violations);
}

// The observability overhead gate (obs/ tentpole acceptance): full
// Validate on the dense workload with
//   mode 0 — a default ObsOptions (no sinks; the pre-obs baseline),
//   mode 1 — sinks constructed and wired but enabled=false (the production
//            "compiled in, switched off" path the ≤2% CI gate covers),
//   mode 2 — a live ObsSession (metrics + spans + profiler all recording),
//   mode 3 — mode 2 plus the serving-telemetry layer running: a
//            MetricsExporter ticking in the background and a debug-level
//            StructuredLogger wired in (flight recorder present but with
//            default never-fire thresholds — its steady-state cost).
// CI runs tools/compare_bench.py --overhead obs_disabled vs obs_baseline
// (≤2%) and telemetry_enabled vs obs_baseline (≤5%); obs_enabled is
// informational (it prices the instrumentation itself).
void BM_ObsValidation(benchmark::State& state, int mode) {
  DenseParams params;
  params.num_members = static_cast<size_t>(state.range(0));
  DenseInstance inst = GenDenseCommunity(params);
  FrozenGraph snapshot = FrozenGraph::Freeze(inst.graph);
  std::vector<Ged> sigma = DenseCliqueGeds();
  ObsSession session;
  ValidationOptions opts;
  if (mode >= 1) {
    opts.obs = session.Options();
    opts.obs.enabled = mode >= 2;
  }
  std::unique_ptr<MetricsExporter> exporter;
  if (mode == 3) {
    LoggerOptions lopts;
    lopts.min_level = LogLevel::kDebug;
    lopts.sink = [](const std::string&) {};  // count, don't spend I/O
    session.Log().Configure(std::move(lopts));
    ExporterOptions eopts;
    eopts.interval_ns = 50'000'000;  // 20 Hz: well above any real deploy
    eopts.prometheus_path = "/tmp/gedlib_bench_telemetry.prom";
    eopts.jsonl_path = "/tmp/gedlib_bench_telemetry.jsonl";
    eopts.logger = &session.Log();
    exporter =
        std::make_unique<MetricsExporter>(&session.Metrics(), std::move(eopts));
    std::remove("/tmp/gedlib_bench_telemetry.jsonl");
    exporter->Start();
  }
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(snapshot, sigma, opts);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  if (exporter != nullptr) exporter->Stop();
  state.counters["violations"] = static_cast<double>(violations);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Ablation_Q5, baseline_none_frozen, false, false);
BENCHMARK_CAPTURE(BM_Ablation_Q5, degree_only_frozen, true, false);
BENCHMARK_CAPTURE(BM_Ablation_Q5, order_only_frozen, false, true);
BENCHMARK_CAPTURE(BM_Ablation_Q5, both_frozen, true, true);
BENCHMARK_CAPTURE(BM_Ablation_Q5, both_frozen_legacy_cands, true, true, false);
BENCHMARK_CAPTURE(BM_Ablation_RandomGraph, baseline_none_frozen, false,
                  false);
BENCHMARK_CAPTURE(BM_Ablation_RandomGraph, degree_only_frozen, true, false);
BENCHMARK_CAPTURE(BM_Ablation_RandomGraph, order_only_frozen, false, true);
BENCHMARK_CAPTURE(BM_Ablation_RandomGraph, both_frozen, true, true);
BENCHMARK_CAPTURE(BM_Ablation_RandomGraph, both_frozen_legacy_cands, true,
                  true, false);
BENCHMARK_CAPTURE(BM_DensePattern, triangle_legacy, 0, false)
    ->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DensePattern, triangle_intersection, 0, true)
    ->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DensePattern, clique4_legacy, 1, false)
    ->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DensePattern, clique4_intersection, 1, true)
    ->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DenseValidation, legacy, false)
    ->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DenseValidation, intersection, true)
    ->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObsValidation, obs_baseline, 0)
    ->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObsValidation, obs_disabled, 1)
    ->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObsValidation, obs_enabled, 2)
    ->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ObsValidation, telemetry_enabled, 3)
    ->Arg(256)->Unit(benchmark::kMillisecond);
