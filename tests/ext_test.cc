// Tests for the extensions (§7): GDCs with built-in predicates and GED∨s
// with disjunction, including Examples 9 and 10 (domain constraints).

#include <gtest/gtest.h>

#include "ext/gdc.h"
#include "ext/gdc_reason.h"
#include "ext/gedor.h"
#include "gen/scenarios.h"
#include "reason/validation.h"

namespace ged {
namespace {

// ----- GDC basics -------------------------------------------------------------

TEST(Gdc, PredicateEvaluation) {
  EXPECT_TRUE(EvalPred(Pred::kLt, Value(1), Value(2)));
  EXPECT_FALSE(EvalPred(Pred::kLt, Value(2), Value(2)));
  EXPECT_TRUE(EvalPred(Pred::kLe, Value(2), Value(2)));
  EXPECT_TRUE(EvalPred(Pred::kNe, Value(1), Value("1")));
  EXPECT_TRUE(EvalPred(Pred::kGe, Value(2.5), Value(2)));
  EXPECT_TRUE(EvalPred(Pred::kEq, Value(1), Value(1.0)));
}

TEST(Gdc, ParsesPredicates) {
  auto r = ParseGdcs(R"(
    gdc age_bounds {
      match (x:person)
      where x.age < 0
      then false
    }
    gdc salary_order {
      match (x:emp)-[boss]->(y:emp)
      then x.salary <= y.salary
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(r.value()[0].is_forbidding());
  EXPECT_EQ(r.value()[1].Y()[0].op, Pred::kLe);
}

TEST(Gdc, ValidationFindsRangeViolations) {
  auto sigma = ParseGdcs(R"(
    gdc no_negative_age {
      match (x:person)
      where x.age < 0
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  NodeId a = g.AddNode("person");
  g.SetAttr(a, "age", Value(30));
  EXPECT_TRUE(ValidateGdcs(FrozenGraph::Freeze(g), sigma.value()));
  NodeId b = g.AddNode("person");
  g.SetAttr(b, "age", Value(-1));
  EXPECT_FALSE(ValidateGdcs(FrozenGraph::Freeze(g), sigma.value()));
  auto violations = FindGdcViolations(FrozenGraph::Freeze(g), sigma.value()[0]);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0][0], b);
}

TEST(Gdc, MissingAttributeMakesPredicateUnsatisfied) {
  auto sigma = ParseGdcs(R"(
    gdc r {
      match (x:n)
      where x.v != 0
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  g.AddNode("n");  // no v attribute: X cannot hold
  EXPECT_TRUE(ValidateGdcs(FrozenGraph::Freeze(g), sigma.value()));
}

TEST(Gdc, OrderComparisonAcrossNodes) {
  auto sigma = ParseGdcs(R"(
    gdc monotone {
      match (x:emp)-[boss]->(y:emp)
      then x.salary <= y.salary
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  NodeId a = g.AddNode("emp");
  g.SetAttr(a, "salary", Value(100));
  NodeId b = g.AddNode("emp");
  g.SetAttr(b, "salary", Value(90));
  g.AddEdge(a, "boss", b);
  EXPECT_FALSE(ValidateGdcs(FrozenGraph::Freeze(g), sigma.value()));
  g.SetAttr(b, "salary", Value(150));
  EXPECT_TRUE(ValidateGdcs(FrozenGraph::Freeze(g), sigma.value()));
}

TEST(Gdc, FromGedLiftsExactly) {
  auto geds = Example1Geds();
  Gdc lifted = Gdc::FromGed(geds[0]);
  KbInstance kb = GenKnowledgeBase({});
  size_t ged_violations = Validate(kb.graph, {geds[0]}).violations.size();
  size_t gdc_violations =
      FindGdcViolations(FrozenGraph::Freeze(kb.graph), lifted).size();
  EXPECT_EQ(ged_violations, gdc_violations);
}

// ----- GDC reasoning (Example 9) -----------------------------------------------

TEST(GdcReason, DomainConstraintPairIsSatisfiable) {
  // Example 9: φ1 forces an A attribute, φ2 confines it to {0, 1}.
  auto sigma = ParseGdcs(R"(
    gdc phi1 {
      match (x:tau)
      then x.A = x.A
    }
    gdc phi2 {
      match (x:tau)
      where x.A != 0, x.A != 1
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  GdcDecision d = CheckGdcSatisfiability(sigma.value());
  EXPECT_EQ(d.decision, Decision::kYes) << d.detail;
  ASSERT_TRUE(d.has_witness);
  EXPECT_TRUE(ValidateGdcs(FrozenGraph::Freeze(d.witness), sigma.value()));
}

TEST(GdcReason, ContradictoryBoundsAreUnsat) {
  auto sigma = ParseGdcs(R"(
    gdc low {
      match (x:t)
      then x.v < 5
    }
    gdc high {
      match (x:t)
      then x.v > 7
    })");
  ASSERT_TRUE(sigma.ok());
  GdcDecision d = CheckGdcSatisfiability(sigma.value());
  EXPECT_EQ(d.decision, Decision::kNo) << d.detail;
}

TEST(GdcReason, StrictCycleIsUnsat) {
  auto sigma = ParseGdcs(R"(
    gdc cyc {
      match (x:t)-[e]->(y:t), (y)-[e]->(x)
      then x.v < y.v
    })");
  ASSERT_TRUE(sigma.ok());
  // The canonical graph has x -> y -> x, so v < v is forced on some match.
  GdcDecision d = CheckGdcSatisfiability(sigma.value());
  EXPECT_EQ(d.decision, Decision::kNo) << d.detail;
}

TEST(GdcReason, NeConflictIsUnsat) {
  auto sigma = ParseGdcs(R"(
    gdc eq {
      match (x:t)
      then x.v = 3
    }
    gdc ne {
      match (x:t)
      then x.v != 3
    })");
  ASSERT_TRUE(sigma.ok());
  EXPECT_EQ(CheckGdcSatisfiability(sigma.value()).decision, Decision::kNo);
}

TEST(GdcReason, OrderEntailmentInImplication) {
  auto sigma = ParseGdcs(R"(
    gdc chain {
      match (x:t)-[e]->(y:t)
      then x.v <= y.v
    })");
  ASSERT_TRUE(sigma.ok());
  // x <= y and y <= z entail x <= z over a 3-chain.
  auto phi = ParseGdcs(R"(
    gdc trans {
      match (x:t)-[e]->(y:t), (y)-[e]->(z:t)
      then x.v <= z.v
    })");
  ASSERT_TRUE(phi.ok());
  GdcDecision d = CheckGdcImplication(sigma.value(), phi.value()[0]);
  EXPECT_EQ(d.decision, Decision::kYes) << d.detail;
  // Strict version is not implied (all-equal values are a counter-model).
  auto strict = ParseGdcs(R"(
    gdc strict {
      match (x:t)-[e]->(y:t), (y)-[e]->(z:t)
      then x.v < z.v
    })");
  ASSERT_TRUE(strict.ok());
  GdcDecision d2 = CheckGdcImplication(sigma.value(), strict.value()[0]);
  EXPECT_EQ(d2.decision, Decision::kNo) << d2.detail;
  EXPECT_TRUE(d2.has_witness);
}

TEST(GdcReason, MutualLeForcesEquality) {
  auto sigma = ParseGdcs(R"(
    gdc both {
      match (x:t)-[e]->(y:t)
      then x.v <= y.v, y.v <= x.v
    })");
  ASSERT_TRUE(sigma.ok());
  auto phi = ParseGdcs(R"(
    gdc equal {
      match (x:t)-[e]->(y:t)
      then x.v = y.v
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_EQ(CheckGdcImplication(sigma.value(), phi.value()[0]).decision,
            Decision::kYes);
}

// ----- GED∨ (Example 10) ---------------------------------------------------------

TEST(GedOr, ParsesDisjunction) {
  auto r = ParseGedOrs(R"(
    ged dom {
      match (x:tau)
      then x.A = 0 or x.A = 1
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].Y().size(), 2u);
  EXPECT_FALSE(r.value()[0].is_forbidding());
}

TEST(GedOr, ValidationUsesDisjunctiveSemantics) {
  auto r = ParseGedOrs(R"(
    ged dom {
      match (x:tau)
      then x.A = 0 or x.A = 1
    })");
  ASSERT_TRUE(r.ok());
  Graph g;
  NodeId a = g.AddNode("tau");
  g.SetAttr(a, "A", Value(1));
  EXPECT_TRUE(ValidateGedOrs(FrozenGraph::Freeze(g), r.value()));
  NodeId b = g.AddNode("tau");
  g.SetAttr(b, "A", Value(2));
  EXPECT_FALSE(ValidateGedOrs(FrozenGraph::Freeze(g), r.value()));
  auto violations = FindGedOrViolations(FrozenGraph::Freeze(g), r.value()[0]);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0][0], b);
}

TEST(GedOr, MissingAttributeViolatesDomainConstraint) {
  // Example 10: ψ requires the A attribute to exist AND be 0/1.
  auto r = ParseGedOrs(R"(
    ged dom {
      match (x:tau)
      then x.A = 0 or x.A = 1
    })");
  ASSERT_TRUE(r.ok());
  Graph g;
  g.AddNode("tau");  // no A
  EXPECT_FALSE(ValidateGedOrs(FrozenGraph::Freeze(g), r.value()));
}

TEST(GedOr, FromGedSplitsConjunction) {
  auto ged = ParseGed(R"(
    ged two {
      match (x:n)
      then x.a = 1, x.b = 2
    })");
  ASSERT_TRUE(ged.ok());
  auto ors = GedOr::FromGed(ged.value());
  ASSERT_EQ(ors.size(), 2u);
  EXPECT_EQ(ors[0].Y().size(), 1u);
}

TEST(GedOr, SatisfiabilityBranches) {
  // Domain constraint alone: satisfiable (pick either branch).
  auto sigma = ParseGedOrs(R"(
    ged dom {
      match (x:tau)
      then x.A = 0 or x.A = 1
    })");
  ASSERT_TRUE(sigma.ok());
  GdcDecision d = CheckGedOrSatisfiability(sigma.value());
  EXPECT_EQ(d.decision, Decision::kYes) << d.detail;
  ASSERT_TRUE(d.has_witness);
  EXPECT_TRUE(ValidateGedOrs(FrozenGraph::Freeze(d.witness), sigma.value()));
}

TEST(GedOr, SatisfiabilityAllBranchesDie) {
  // Both branches conflict with pinned constants: unsatisfiable.
  auto sigma = ParseGedOrs(R"(
    ged pin {
      match (x:tau)
      then x.A = 7
    }
    ged dom {
      match (x:tau)
      then x.A = 0 or x.A = 1
    })");
  ASSERT_TRUE(sigma.ok());
  GdcDecision d = CheckGedOrSatisfiability(sigma.value());
  EXPECT_EQ(d.decision, Decision::kNo) << d.detail;
}

TEST(GedOr, ForbiddingEmptyDisjunction) {
  auto sigma = ParseGedOrs(R"(
    ged forbid {
      match (x:tau)
      where x.A = 1
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  EXPECT_TRUE(sigma.value()[0].is_forbidding());
  // Satisfiable: the model simply avoids A = 1.
  EXPECT_EQ(CheckGedOrSatisfiability(sigma.value()).decision, Decision::kYes);
  // With a rule forcing A = 1 it becomes unsatisfiable.
  auto sigma2 = ParseGedOrs(R"(
    ged force {
      match (x:tau)
      then x.A = 1
    }
    ged forbid {
      match (x:tau)
      where x.A = 1
      then false
    })");
  ASSERT_TRUE(sigma2.ok());
  EXPECT_EQ(CheckGedOrSatisfiability(sigma2.value()).decision, Decision::kNo);
}

TEST(GedOr, ImplicationAcrossBranches) {
  // Σ: x.A = 0 or x.A = 1; φ: x.A = 0 or x.A = 1 or x.A = 2 — implied
  // (every leaf satisfies one of the first two disjuncts).
  auto sigma = ParseGedOrs(R"(
    ged dom {
      match (x:tau)
      then x.A = 0 or x.A = 1
    })");
  ASSERT_TRUE(sigma.ok());
  auto phi = ParseGedOrs(R"(
    ged wider {
      match (x:tau)
      then x.A = 0 or x.A = 1 or x.A = 2
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_EQ(CheckGedOrImplication(sigma.value(), phi.value()[0]).decision,
            Decision::kYes);
  // The narrower φ': x.A = 0 is NOT implied (the A = 1 leaf refutes it).
  auto phi2 = ParseGedOrs(R"(
    ged narrow {
      match (x:tau)
      then x.A = 0
    })");
  ASSERT_TRUE(phi2.ok());
  GdcDecision d = CheckGedOrImplication(sigma.value(), phi2.value()[0]);
  EXPECT_EQ(d.decision, Decision::kNo) << d.detail;
}

TEST(GedOr, PlainGedsEmbedIntoGedOrReasoning) {
  // A conjunctive GED split into GED∨s keeps its consequences.
  auto sigma_ged = ParseGeds(R"(
    ged key {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma_ged.ok());
  std::vector<GedOr> sigma;
  for (const Ged& g : sigma_ged.value()) {
    auto split = GedOr::FromGed(g);
    sigma.insert(sigma.end(), split.begin(), split.end());
  }
  auto phi = ParseGedOrs(R"(
    ged weaker {
      match (x:n), (y:n)
      where x.a = y.a, x.b = y.b
      then  x.id = y.id
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_EQ(CheckGedOrImplication(sigma, phi.value()[0]).decision,
            Decision::kYes);
}

}  // namespace
}  // namespace ged
