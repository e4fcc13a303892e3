// Table 1, implication row: NP-complete for all five classes — including
// GFDxs (no constants, no ids), because deciding whether Y is deduced
// requires examining homomorphic embeddings of Σ's patterns in G_Q.
//
// Series regenerated:
//  * per-class cost of CheckImplication on random (Σ, φ);
//  * the Theorem 5 hardness core: the single-GFDx (and GKey-style) family
//    ColoringImplicationGfdx(H) — Σ ⊨ φ iff H is 3-colorable — sweeping H.
//
// The rows that run CheckImplication directly report the chase's
// deterministic work counters `rounds` and `matches_checked` (summed over
// the row's implication queries) from one untimed run; a chase repeats
// them exactly.

#include <benchmark/benchmark.h>

#include "chase_counters.h"
#include "gen/hardness.h"
#include "gen/random_gen.h"
#include "reason/implication.h"

namespace {

using namespace ged;

// Chase counters of CheckImplication(sigma, phi) summed over `phis`.
void SetChaseCounters(benchmark::State& state, const std::vector<Ged>& sigma,
                      const std::vector<Ged>& phis) {
  uint64_t rounds = 0;
  uint64_t checked = 0;
  for (const Ged& phi : phis) {
    ImplicationResult res = CheckImplication(sigma, phi);
    rounds += res.chase.rounds;
    checked += res.chase.matches_checked;
  }
  ged_bench::SetChaseCounters(state, rounds, checked);
}

RandomGedParams ClassParams(GedClassKind kind, unsigned seed) {
  RandomGedParams p;
  p.kind = kind;
  p.pattern_vars = 3;
  p.pattern_edges = 2;
  p.num_x_literals = 1;
  p.num_y_literals = 1;
  p.num_node_labels = 3;
  p.num_edge_labels = 2;
  p.num_attrs = 3;
  p.num_values = 4;
  p.seed = seed;
  return p;
}

void BM_Implication_Class(benchmark::State& state, GedClassKind kind) {
  size_t num_rules = static_cast<size_t>(state.range(0));
  std::vector<Ged> sigma = RandomGeds(num_rules, ClassParams(kind, 9));
  std::vector<Ged> phis = RandomGeds(4, ClassParams(kind, 77));
  size_t implied = 0;
  for (auto _ : state) {
    for (const Ged& phi : phis) {
      implied += Implies(sigma, phi);
    }
  }
  SetChaseCounters(state, sigma, phis);
  state.counters["rules"] = static_cast<double>(num_rules);
  state.counters["implied_of_4"] =
      static_cast<double>(implied) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}

void BM_Implication_HardnessGfdx(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UGraph h = RandomUGraph(n, 0.55, 11);
  ImplicationInstance inst = ColoringImplicationGfdx(h);
  bool implied = false;
  for (auto _ : state) {
    implied = Implies(inst.sigma, inst.phi);
    benchmark::DoNotOptimize(implied);
  }
  SetChaseCounters(state, inst.sigma, {inst.phi});
  state.counters["H_nodes"] = static_cast<double>(n);
  state.counters["implied"] = implied ? 1 : 0;  // = H 3-colorable
}

void BM_Implication_HardnessGkey(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UGraph h = RandomUGraph(n, 0.55, 11);
  ImplicationInstance inst = ColoringImplicationGkey(h);
  bool implied = false;
  for (auto _ : state) {
    implied = Implies(inst.sigma, inst.phi);
    benchmark::DoNotOptimize(implied);
  }
  SetChaseCounters(state, inst.sigma, {inst.phi});
  state.counters["H_nodes"] = static_cast<double>(n);
  state.counters["implied"] = implied ? 1 : 0;
}

void BM_Implication_MinimizeCover(benchmark::State& state) {
  size_t num_rules = static_cast<size_t>(state.range(0));
  std::vector<Ged> sigma =
      RandomGeds(num_rules, ClassParams(GedClassKind::kGed, 5));
  size_t kept = 0;
  for (auto _ : state) {
    kept = MinimizeCover(sigma).size();
    benchmark::DoNotOptimize(kept);
  }
  state.counters["rules"] = static_cast<double>(num_rules);
  state.counters["kept"] = static_cast<double>(kept);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Implication_Class, GFDx, GedClassKind::kGfdx)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_Implication_Class, GFD, GedClassKind::kGfd)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_Implication_Class, GEDx, GedClassKind::kGedx)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_Implication_Class, GED, GedClassKind::kGed)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_Implication_Class, GKey, GedClassKind::kGkey)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_Implication_HardnessGfdx)->DenseRange(4, 9, 1);
BENCHMARK(BM_Implication_HardnessGkey)->DenseRange(4, 8, 1);
BENCHMARK(BM_Implication_MinimizeCover)->Arg(4)->Arg(8);
