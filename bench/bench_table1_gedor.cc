// Table 1, GED∨ row (§7.2): satisfiability Σp2-complete, implication
// Πp2-complete, validation still coNP.
//
// Series regenerated:
//  * validation of disjunctive domain constraints (flat, like GEDs);
//  * disjunctive-chase satisfiability, sweeping the number of disjuncts and
//    of constrained attributes — branch counts grow multiplicatively, the
//    empirically visible face of the Σp2 jump;
//  * implication across branches.

#include <benchmark/benchmark.h>

#include <sstream>

#include "ext/gedor.h"
#include "gen/scenarios.h"

namespace {

using namespace ged;

// x.A0 ∈ {0..d-1}, ..., x.A{n-1} ∈ {0..d-1} over one τ node each.
std::vector<GedOr> DomainSigma(size_t n_attrs, size_t n_disjuncts) {
  std::vector<GedOr> out;
  for (size_t i = 0; i < n_attrs; ++i) {
    Pattern q;
    q.AddVar("x", "tau");
    AttrId a = Sym("A" + std::to_string(i));
    std::vector<Literal> y;
    for (size_t d = 0; d < n_disjuncts; ++d) {
      y.push_back(Literal::Const(0, a, Value(static_cast<int64_t>(d))));
    }
    out.emplace_back("dom" + std::to_string(i), q, std::vector<Literal>{},
                     std::move(y));
  }
  return out;
}

void BM_GedOr_Validation(benchmark::State& state) {
  KbParams params;
  params.num_products = static_cast<size_t>(state.range(0));
  KbInstance kb = GenKnowledgeBase(params);
  auto sigma = ParseGedOrs(R"(
    ged product_type {
      match (x:product)
      then x.type = "video game" or x.type = "book"
    })");
  bool ok = false;
  for (auto _ : state) {
    ok = ValidateGedOrs(FrozenGraph::Freeze(kb.graph), sigma.value());
    benchmark::DoNotOptimize(ok);
  }
  state.counters["nodes"] = static_cast<double>(kb.graph.NumNodes());
  state.counters["satisfied"] = ok ? 1 : 0;
}

void BM_GedOr_SatisfiabilityDisjuncts(benchmark::State& state) {
  std::vector<GedOr> sigma =
      DomainSigma(2, static_cast<size_t>(state.range(0)));
  Decision d = Decision::kUnknown;
  for (auto _ : state) {
    d = CheckGedOrSatisfiability(sigma).decision;
    benchmark::DoNotOptimize(d);
  }
  state.counters["disjuncts"] = static_cast<double>(state.range(0));
  state.counters["satisfiable"] = d == Decision::kYes ? 1 : 0;
}

void BM_GedOr_SatisfiabilityAttrs(benchmark::State& state) {
  std::vector<GedOr> sigma =
      DomainSigma(static_cast<size_t>(state.range(0)), 2);
  Decision d = Decision::kUnknown;
  uint64_t states_explored = 0;
  for (auto _ : state) {
    Graph canonical;
    for (const GedOr& psi : sigma) {
      canonical.DisjointUnion(psi.pattern().ToGraph());
    }
    DisjChaseResult chase = DisjunctiveChase(canonical, sigma);
    states_explored = chase.states;
    d = chase.valid_leaves.empty() ? Decision::kNo : Decision::kYes;
    benchmark::DoNotOptimize(d);
  }
  state.counters["attrs"] = static_cast<double>(state.range(0));
  state.counters["chase_states"] = static_cast<double>(states_explored);
}

void BM_GedOr_Implication(benchmark::State& state) {
  size_t disjuncts = static_cast<size_t>(state.range(0));
  std::vector<GedOr> sigma = DomainSigma(1, disjuncts);
  // φ: the same domain widened by one value — implied across all branches.
  Pattern q;
  q.AddVar("x", "tau");
  std::vector<Literal> y;
  for (size_t d = 0; d <= disjuncts; ++d) {
    y.push_back(Literal::Const(0, Sym("A0"), Value(static_cast<int64_t>(d))));
  }
  GedOr phi("wider", q, {}, std::move(y));
  Decision d = Decision::kUnknown;
  for (auto _ : state) {
    d = CheckGedOrImplication(sigma, phi).decision;
    benchmark::DoNotOptimize(d);
  }
  state.counters["disjuncts"] = static_cast<double>(disjuncts);
  state.counters["implied"] = d == Decision::kYes ? 1 : 0;
}

}  // namespace

BENCHMARK(BM_GedOr_Validation)->Arg(50)->Arg(200)->Arg(800);
BENCHMARK(BM_GedOr_SatisfiabilityDisjuncts)->DenseRange(1, 5, 1);
BENCHMARK(BM_GedOr_SatisfiabilityAttrs)->DenseRange(1, 5, 1);
BENCHMARK(BM_GedOr_Implication)->DenseRange(1, 4, 1);
