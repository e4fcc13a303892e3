// Table 1, GDC row (§7.1): satisfiability Σp2-complete, implication
// Πp2-complete, validation still coNP.
//
// Series regenerated:
//  * validation cost of denial constraints (stays comparable to GEDs);
//  * satisfiability of domain-constraint sets, sweeping the number of
//    attributes — the region search is the Σp2 part and its cost grows
//    multiplicatively while plain-GED satisfiability stays chase-only;
//  * implication with order entailment (≤ chains).

#include <benchmark/benchmark.h>

#include "ext/gdc.h"
#include "ext/gdc_reason.h"
#include "gen/scenarios.h"

namespace {

using namespace ged;

// Domain constraints for `n_attrs` attributes: each must exist and lie in
// {0, 1} (Example 9 replicated per attribute).
std::vector<Gdc> DomainSigma(size_t n_attrs) {
  std::vector<Gdc> out;
  for (size_t i = 0; i < n_attrs; ++i) {
    AttrId a = Sym("A" + std::to_string(i));
    Pattern q1;
    q1.AddVar("x", "tau");
    out.emplace_back("exists" + std::to_string(i), q1,
                     std::vector<GdcLiteral>{},
                     std::vector<GdcLiteral>{GdcLiteral::VarPred(
                         0, a, Pred::kEq, 0, a)});
    Pattern q2;
    q2.AddVar("x", "tau");
    out.emplace_back(
        "domain" + std::to_string(i), q2,
        std::vector<GdcLiteral>{
            GdcLiteral::ConstPred(0, a, Pred::kNe, Value(int64_t{0})),
            GdcLiteral::ConstPred(0, a, Pred::kNe, Value(int64_t{1}))},
        std::vector<GdcLiteral>{}, /*y_is_false=*/true);
  }
  return out;
}

void BM_Gdc_Validation(benchmark::State& state) {
  KbParams params;
  params.num_products = static_cast<size_t>(state.range(0));
  KbInstance kb = GenKnowledgeBase(params);
  // Denial constraint: no product created by a person whose type differs
  // from "programmer" when the product is a video game — as a GDC.
  auto sigma = ParseGdcs(R"(
    gdc wrong_creator {
      match (y:person)-[create]->(x:product)
      where x.type = "video game", y.type != "programmer"
      then false
    })");
  bool ok = false;
  for (auto _ : state) {
    ok = ValidateGdcs(FrozenGraph::Freeze(kb.graph), sigma.value());
    benchmark::DoNotOptimize(ok);
  }
  state.counters["nodes"] = static_cast<double>(kb.graph.NumNodes());
  state.counters["violating"] = ok ? 0 : 1;
}

void BM_Gdc_SatisfiabilityDomain(benchmark::State& state) {
  std::vector<Gdc> sigma = DomainSigma(static_cast<size_t>(state.range(0)));
  Decision d = Decision::kUnknown;
  for (auto _ : state) {
    d = CheckGdcSatisfiability(sigma).decision;
    benchmark::DoNotOptimize(d);
  }
  state.counters["attrs"] = static_cast<double>(state.range(0));
  state.counters["satisfiable"] = d == Decision::kYes ? 1 : 0;
}

void BM_Gdc_SatisfiabilityConflict(benchmark::State& state) {
  // Contradictory bounds: chase refutes without any search.
  auto sigma = ParseGdcs(R"(
    gdc low { match (x:t) then x.v < 5 }
    gdc high { match (x:t) then x.v > 7 })");
  Decision d = Decision::kUnknown;
  for (auto _ : state) {
    d = CheckGdcSatisfiability(sigma.value()).decision;
    benchmark::DoNotOptimize(d);
  }
  state.counters["satisfiable"] = d == Decision::kYes ? 1 : 0;
}

void BM_Gdc_ImplicationOrderChain(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  // σ: adjacent monotonicity; φ: end-to-end monotonicity over a chain.
  auto sigma = ParseGdcs(R"(
    gdc mono { match (x:t)-[e]->(y:t) then x.v <= y.v })");
  Pattern q;
  for (size_t i = 0; i < len; ++i) q.AddVar("x" + std::to_string(i), "t");
  for (size_t i = 0; i + 1 < len; ++i) {
    q.AddEdge(static_cast<VarId>(i), "e", static_cast<VarId>(i + 1));
  }
  Gdc phi("endtoend", q, {},
          {GdcLiteral::VarPred(0, Sym("v"), Pred::kLe,
                               static_cast<VarId>(len - 1), Sym("v"))});
  Decision d = Decision::kUnknown;
  for (auto _ : state) {
    d = CheckGdcImplication(sigma.value(), phi).decision;
    benchmark::DoNotOptimize(d);
  }
  state.counters["chain"] = static_cast<double>(len);
  state.counters["implied"] = d == Decision::kYes ? 1 : 0;
}

}  // namespace

BENCHMARK(BM_Gdc_Validation)->Arg(50)->Arg(200)->Arg(800);
BENCHMARK(BM_Gdc_SatisfiabilityDomain)->DenseRange(1, 4, 1);
BENCHMARK(BM_Gdc_SatisfiabilityConflict);
BENCHMARK(BM_Gdc_ImplicationOrderChain)->DenseRange(2, 6, 1);
