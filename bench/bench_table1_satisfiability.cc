// Table 1, satisfiability row: coNP-complete for GEDs / GFDs / GKeys /
// GEDxs, O(1) for GFDxs.
//
// Series regenerated:
//  * per-class cost on random Σ, sweeping the number of rules — GFDx stays
//    flat (its chase can never conflict) while classes with constants or id
//    literals pay for the canonical-graph chase;
//  * the Theorem 3 hardness core: ColoringSatisfiabilityGfds(H) on random H
//    with growing node count — worst-case cost climbs steeply because the
//    chase must find a homomorphism H → K3.
//
// Every row reports the chase's deterministic work counters `rounds` and
// `matches_checked` from one untimed run (a chase repeats them exactly).

#include <benchmark/benchmark.h>

#include "chase_counters.h"
#include "gen/hardness.h"
#include "gen/random_gen.h"
#include "reason/satisfiability.h"

namespace {

using namespace ged;
using ged_bench::SetChaseCounters;

RandomGedParams ClassParams(GedClassKind kind, unsigned seed) {
  RandomGedParams p;
  p.kind = kind;
  p.pattern_vars = 3;
  p.pattern_edges = 2;
  p.num_x_literals = 1;
  p.num_y_literals = 2;
  p.num_node_labels = 3;
  p.num_edge_labels = 2;
  p.num_attrs = 3;
  p.num_values = 4;
  p.seed = seed;
  return p;
}

void BM_Satisfiability_Class(benchmark::State& state, GedClassKind kind) {
  size_t num_rules = static_cast<size_t>(state.range(0));
  std::vector<Ged> sigma = RandomGeds(num_rules, ClassParams(kind, 42));
  size_t satisfiable = 0;
  for (auto _ : state) {
    SatisfiabilityResult res = CheckSatisfiability(sigma);
    benchmark::DoNotOptimize(res.satisfiable);
    satisfiable += res.satisfiable;
  }
  SetChaseCounters(state, CheckSatisfiability(sigma).chase);
  state.counters["rules"] = static_cast<double>(num_rules);
  state.counters["satisfiable"] =
      static_cast<double>(satisfiable > 0 ? 1 : 0);
}

void BM_Satisfiability_HardnessGfd(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UGraph h = RandomUGraph(n, 0.6, 7);
  std::vector<Ged> sigma = ColoringSatisfiabilityGfds(h);
  bool sat = false;
  for (auto _ : state) {
    sat = IsSatisfiable(sigma);
    benchmark::DoNotOptimize(sat);
  }
  SetChaseCounters(state, CheckSatisfiability(sigma).chase);
  state.counters["H_nodes"] = static_cast<double>(n);
  state.counters["satisfiable"] = sat ? 1 : 0;  // = H not 3-colorable
}

void BM_Satisfiability_HardnessGedx(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UGraph h = RandomUGraph(n, 0.6, 7);
  std::vector<Ged> sigma = ColoringSatisfiabilityGedx(h);
  bool sat = false;
  for (auto _ : state) {
    sat = IsSatisfiable(sigma);
    benchmark::DoNotOptimize(sat);
  }
  SetChaseCounters(state, CheckSatisfiability(sigma).chase);
  state.counters["H_nodes"] = static_cast<double>(n);
  state.counters["satisfiable"] = sat ? 1 : 0;
}

}  // namespace

BENCHMARK_CAPTURE(BM_Satisfiability_Class, GFDx, GedClassKind::kGfdx)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_Satisfiability_Class, GFD, GedClassKind::kGfd)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_Satisfiability_Class, GEDx, GedClassKind::kGedx)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_Satisfiability_Class, GED, GedClassKind::kGed)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK_CAPTURE(BM_Satisfiability_Class, GKey, GedClassKind::kGkey)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_Satisfiability_HardnessGfd)->DenseRange(4, 8, 1);
BENCHMARK(BM_Satisfiability_HardnessGedx)->DenseRange(4, 7, 1);
