// Property-based suites (parameterized over random seeds):
//  * Church–Rosser: every application order reaches the reference chase's
//    result (Theorem 1);
//  * chase bounds: |Eq| ≤ 4·|G|·|Σ| (Theorem 1 proof);
//  * satisfiability ⇔ verified model construction (Theorem 2);
//  * chase result satisfies Σ (Theorem 1, G_Eq ⊨ Σ);
//  * implication ⇔ checkable symbolic proof (Theorem 7);
//  * parallel validation ≡ serial validation.

#include <gtest/gtest.h>

#include "axiom/checker.h"
#include "axiom/generator.h"
#include "gen/random_gen.h"
#include "reason/implication.h"
#include "reason/satisfiability.h"
#include "reason/validation.h"
#include "reference/reference_chase.h"

namespace ged {
namespace {

RandomGedParams SmallRules(GedClassKind kind, unsigned seed) {
  RandomGedParams p;
  p.kind = kind;
  p.pattern_vars = 2;
  p.pattern_edges = 1;
  p.num_x_literals = 1;
  p.num_y_literals = 1;
  p.num_node_labels = 2;
  p.num_edge_labels = 2;
  p.num_attrs = 2;
  p.num_values = 3;
  p.seed = seed;
  return p;
}

// A mutable copy of a snapshot (same ids, labels, edges and attributes):
// what re-chasing a chase result needs as its base graph.
Graph ToGraph(const FrozenGraph& f) {
  Graph g;
  for (NodeId v = 0; v < f.NumNodes(); ++v) {
    g.AddNode(f.label(v));
    for (size_t i = 0; i < f.AttrNames(v).size(); ++i) {
      g.SetAttr(v, f.AttrNames(v)[i], f.AttrValues(v)[i]);
    }
  }
  for (NodeId v = 0; v < f.NumNodes(); ++v) {
    for (const Edge& e : f.out(v)) g.AddEdge(v, e.label, e.other);
  }
  return g;
}

RandomGraphParams SmallGraph(unsigned seed) {
  RandomGraphParams p;
  p.num_nodes = 8;
  p.avg_out_degree = 2.0;
  p.num_node_labels = 2;
  p.num_edge_labels = 2;
  p.num_attrs = 2;
  p.num_values = 3;
  p.seed = seed;
  return p;
}

class SeededProperty : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty, ::testing::Range(1u, 13u));

TEST_P(SeededProperty, ChurchRosserOnRandomInputs) {
  // Every application order reaches the naive reference chase's result.
  unsigned seed = GetParam();
  Graph g = RandomPropertyGraph(SmallGraph(seed));
  for (GedClassKind kind :
       {GedClassKind::kGfdx, GedClassKind::kGfd, GedClassKind::kGedx,
        GedClassKind::kGed}) {
    std::vector<Ged> sigma = RandomGeds(3, SmallRules(kind, seed));
    reference::RefChaseResult reference = reference::Chase(g, sigma);
    for (unsigned order_seed : {0u, 3u, 17u, 91u}) {
      ChaseOptions opts;
      opts.order_seed = order_seed;
      ChaseResult res = Chase(g, sigma, nullptr, opts);
      ASSERT_EQ(res.consistent, reference.consistent)
          << "seed " << seed << " order " << order_seed;
      if (res.consistent) {
        EXPECT_EQ(res.eq.CanonicalSignature(),
                  reference.eq.CanonicalSignature())
            << "seed " << seed << " order " << order_seed;
      }
    }
  }
}

TEST_P(SeededProperty, ChaseRespectsSizeBound) {
  unsigned seed = GetParam();
  Graph g = RandomPropertyGraph(SmallGraph(seed));
  std::vector<Ged> sigma = RandomGeds(3, SmallRules(GedClassKind::kGed, seed));
  ChaseResult res = Chase(g, sigma);
  size_t bound = 4 * g.Size() * SigmaSize(sigma);
  EXPECT_LE(res.eq.SizeMeasure(), bound) << "seed " << seed;
}

TEST_P(SeededProperty, ChaseResultSatisfiesSigma) {
  // Theorem 1: when the chase is valid, G_Eq ⊨ Σ. Instantiated, the model
  // must pass validation.
  unsigned seed = GetParam();
  Graph g = RandomPropertyGraph(SmallGraph(seed));
  std::vector<Ged> sigma =
      RandomGeds(2, SmallRules(GedClassKind::kGed, seed + 100));
  ChaseResult res = Chase(g, sigma);
  if (!res.consistent) return;  // ⊥ results carry no model claim
  Graph model = InstantiateModel(res.eq);
  ValidationReport report = Validate(model, sigma);
  EXPECT_TRUE(report.satisfied)
      << "seed " << seed << ": " << report.violations.size()
      << " violations in the chase result";
}

TEST_P(SeededProperty, SatisfiabilityMatchesModelConstruction) {
  unsigned seed = GetParam();
  for (GedClassKind kind : {GedClassKind::kGfd, GedClassKind::kGed}) {
    std::vector<Ged> sigma = RandomGeds(3, SmallRules(kind, seed + 37));
    SatisfiabilityResult sat = CheckSatisfiability(sigma);
    auto model = BuildModel(sigma);
    EXPECT_EQ(model.ok(), sat.satisfiable) << "seed " << seed;
    if (model.ok()) {
      ValidationReport report = Validate(model.value(), sigma);
      EXPECT_TRUE(report.satisfied) << "seed " << seed;
      for (const Ged& phi : sigma) {
        EXPECT_TRUE(
            HasMatch(phi.pattern(), FrozenGraph::Freeze(model.value())))
            << "strong satisfiability: every pattern matched";
      }
    }
  }
}

TEST_P(SeededProperty, GfdxSatisfiabilityIsTrivial) {
  // Theorem 3: every GFDx set has a model.
  unsigned seed = GetParam();
  std::vector<Ged> sigma =
      RandomGeds(4, SmallRules(GedClassKind::kGfdx, seed));
  EXPECT_TRUE(IsSatisfiable(sigma)) << "seed " << seed;
}

TEST_P(SeededProperty, ImplicationIffCheckableProof) {
  unsigned seed = GetParam();
  std::vector<Ged> sigma = RandomGeds(2, SmallRules(GedClassKind::kGed, seed));
  std::vector<Ged> candidates =
      RandomGeds(3, SmallRules(GedClassKind::kGed, seed + 1000));
  for (const Ged& phi : candidates) {
    bool implied = Implies(sigma, phi);
    auto proof = GenerateImplicationProof(sigma, phi);
    ASSERT_EQ(proof.ok(), implied) << "seed " << seed << " " << phi.ToString();
    if (implied) {
      Status check = VerifyProofOf(sigma, phi, proof.value());
      EXPECT_TRUE(check.ok()) << check.ToString() << "\nseed " << seed;
    }
  }
}

TEST_P(SeededProperty, ParallelValidationEqualsSerial) {
  unsigned seed = GetParam();
  RandomGraphParams gp = SmallGraph(seed);
  gp.num_nodes = 40;
  Graph g = RandomPropertyGraph(gp);
  std::vector<Ged> sigma = RandomGeds(3, SmallRules(GedClassKind::kGfd, seed));
  ValidationReport serial = Validate(g, sigma);
  ValidationOptions opts;
  opts.num_threads = 3;
  ValidationReport parallel = Validate(g, sigma, opts);
  EXPECT_EQ(parallel.violations, serial.violations) << "seed " << seed;
}

TEST_P(SeededProperty, HomomorphismMatchesSuperseteIsomorphism) {
  // Every isomorphic match is a homomorphic match.
  unsigned seed = GetParam();
  Graph g = RandomPropertyGraph(SmallGraph(seed));
  std::vector<Ged> sigma = RandomGeds(2, SmallRules(GedClassKind::kGfd, seed));
  const FrozenGraph f = FrozenGraph::Freeze(g);
  for (const Ged& phi : sigma) {
    MatchOptions iso;
    iso.semantics = MatchSemantics::kIsomorphism;
    EXPECT_LE(CountMatches(phi.pattern(), f, iso),
              CountMatches(phi.pattern(), f))
        << "seed " << seed;
  }
}

TEST_P(SeededProperty, GkeyChaseIdempotent) {
  // Chasing an already-chased (resolved) graph changes nothing.
  unsigned seed = GetParam();
  Graph g = RandomPropertyGraph(SmallGraph(seed));
  std::vector<Ged> sigma =
      RandomGeds(2, SmallRules(GedClassKind::kGkey, seed));
  ChaseResult first = Chase(g, sigma);
  if (!first.consistent) return;
  ChaseResult second = Chase(ToGraph(first.coercion.graph), sigma);
  ASSERT_TRUE(second.consistent) << "seed " << seed;
  EXPECT_EQ(second.coercion.graph.NumNodes(),
            first.coercion.graph.NumNodes())
      << "seed " << seed;
  EXPECT_EQ(second.num_steps, 0u)
      << "no enforcement should remain after a terminal chase, seed "
      << seed;
}

}  // namespace
}  // namespace ged
