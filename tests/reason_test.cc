// Tests for satisfiability (Theorem 2, Examples 5–6), implication
// (Theorem 4, Example 7) and validation (Theorem 6) — plus the parallel
// validator and the bounded-pattern tractable case of §5.3.

#include <gtest/gtest.h>

#include <set>

#include "ged/parser.h"
#include "gen/scenarios.h"
#include "reason/implication.h"
#include "reason/satisfiability.h"
#include "reason/validation.h"

namespace ged {
namespace {

// ----- Example 5 / 6: satisfiability -----------------------------------------

// Σ1 of Example 5: φ1 = Q1[x,y,z](x.A = x.B → y.id = z.id) with y, z of
// different labels; φ2 = Q2 (two disjoint copies of Q1's shape) forcing
// x.A = x.B. Each alone is satisfiable; together they are not.
std::vector<Ged> Example5Sigma1() {
  auto r = ParseGeds(R"(
    ged phi1 {
      match (x:a)-[e]->(y:b), (x)-[e]->(z:c)
      where x.A = x.B
      then  y.id = z.id
    }
    ged phi2 {
      match (x1:a)-[e]->(y1:b), (x1)-[e]->(z1:c),
            (x2:a)-[e]->(y2:b), (x2)-[e]->(z2:c)
      then  x1.A = x1.B
    })");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.Take();
}

TEST(Satisfiability, Example5EachAloneSatisfiable) {
  auto sigma = Example5Sigma1();
  EXPECT_TRUE(IsSatisfiable({sigma[0]}));
  EXPECT_TRUE(IsSatisfiable({sigma[1]}));
}

TEST(Satisfiability, Example5TogetherUnsatisfiable) {
  auto sigma = Example5Sigma1();
  SatisfiabilityResult res = CheckSatisfiability(sigma);
  EXPECT_FALSE(res.satisfiable);
  EXPECT_NE(res.reason.find("label conflict"), std::string::npos);
}

TEST(Satisfiability, Example5Part2DisconnectedComponentStillInteracts) {
  // Σ2 of Example 5: φ2' adds a connected component C2 to Q2's pattern; the
  // patterns are not homomorphic to each other yet Σ2 is still unsat.
  auto r = ParseGeds(R"(
    ged phi1 {
      match (x:a)-[e]->(y:b), (x)-[e]->(z:c)
      where x.A = x.B
      then  y.id = z.id
    }
    ged phi2p {
      match (x1:a)-[e]->(y1:b), (x1)-[e]->(z1:c),
            (c1:d)-[g]->(c2:d)
      then  x1.A = x1.B
    })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(IsSatisfiable(r.value()));
}

TEST(Satisfiability, EmptySigmaHasModel) {
  EXPECT_TRUE(IsSatisfiable({}));
  auto model = BuildModel({});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model.value().NumNodes(), 0u);
}

TEST(Satisfiability, UoEGkeyNeedsHomomorphism) {
  // §3: ϕ = Q[x,y](∅ → x.id = y.id) with two isolated "UoE" nodes — a model
  // exists under homomorphism semantics (both variables map to one node).
  auto r = ParseGed(R"(
    ged uoe {
      match (x:UoE), (y:UoE)
      then  x.id = y.id
    })");
  ASSERT_TRUE(r.ok());
  SatisfiabilityResult res = CheckSatisfiability({r.value()});
  EXPECT_TRUE(res.satisfiable);
  auto model = BuildModel({r.value()});
  ASSERT_TRUE(model.ok());
  // The model collapses the two pattern nodes into one.
  EXPECT_EQ(FrozenGraph::Freeze(model.value()).CandidateCount(Sym("UoE")), 1u);
}

TEST(Satisfiability, GfdxAlwaysSatisfiable) {
  // Theorem 3: O(1) for GFDxs — no constants, no ids, no conflicts.
  auto r = ParseGeds(R"(
    ged g1 {
      match (x:n)-[e]->(y:n)
      then x.a = y.a
    }
    ged g2 {
      match (x:n)
      then x.b = x.b
    })");
  ASSERT_TRUE(r.ok());
  for (const Ged& g : r.value()) EXPECT_TRUE(g.IsGfdx());
  EXPECT_TRUE(IsSatisfiable(r.value()));
}

TEST(Satisfiability, ConstantConflict) {
  auto r = ParseGeds(R"(
    ged c1 {
      match (x:n)
      then x.a = 1
    }
    ged c2 {
      match (x:n)
      then x.a = 2
    })");
  ASSERT_TRUE(r.ok());
  SatisfiabilityResult res = CheckSatisfiability(r.value());
  EXPECT_FALSE(res.satisfiable);
  EXPECT_NE(res.reason.find("attribute conflict"), std::string::npos);
}

TEST(Satisfiability, ForbiddingGedOnItsOwnPatternIsUnsat) {
  // The model must match every pattern, so Q(∅ → false) can never have one.
  auto r = ParseGed(R"(
    ged f {
      match (x:n)
      then false
    })");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsSatisfiable({r.value()}));
}

TEST(Satisfiability, BuildModelIsVerifiedModel) {
  auto sigma = ParseGeds(R"(
    ged r1 {
      match (x:person)-[knows]->(y:person)
      then x.social = 1
    }
    ged r2 {
      match (x:person)
      where x.social = 1
      then x.kind = x.level
    })");
  ASSERT_TRUE(sigma.ok());
  auto model = BuildModel(sigma.value());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // The model satisfies Σ...
  ValidationReport report = Validate(model.value(), sigma.value());
  EXPECT_TRUE(report.satisfied);
  // ...and matches every pattern (strong satisfiability).
  for (const Ged& g : sigma.value()) {
    EXPECT_TRUE(HasMatch(g.pattern(), FrozenGraph::Freeze(model.value())))
        << g.ToString();
  }
}

// ----- Example 7: implication -------------------------------------------------

struct Example7 {
  std::vector<Ged> sigma;
  Ged phi;
};

Example7 BuildExample7() {
  // Q: x1:'_' -e-> x2:'_', x3:a -e-> x4:b with x1-e->x4... Fig. 4 gives Q
  // with four nodes; we reconstruct the essence: φ1 merges equal-A nodes,
  // φ2 equates A and B attributes given equal B.
  auto sigma = ParseGeds(R"(
    ged phi1 {
      match (x1:_)-[e]->(x2:_)
      where x1.A = x2.A
      then  x1.id = x2.id
    }
    ged phi2 {
      match (x1:_)-[e]->(x2:_)
      where x1.B = x2.B
      then  x1.A = x1.B
    })");
  EXPECT_TRUE(sigma.ok()) << sigma.status().ToString();
  auto phi = ParseGed(R"(
    ged phi {
      match (x1:_)-[e]->(x2:_), (x3:a)-[e]->(x4:b), (x1)-[e]->(x4)
      where x1.A = x3.A, x2.B = x4.B
      then  x1.A = x3.A
    })");
  EXPECT_TRUE(phi.ok()) << phi.status().ToString();
  return {sigma.Take(), phi.Take()};
}

TEST(Implication, TrivialYFromX) {
  Example7 ex = BuildExample7();
  EXPECT_TRUE(Implies(ex.sigma, ex.phi));
}

TEST(Implication, ChaseDeducesThroughRules) {
  // Σ = {key on a} implies a weaker key with extra premise.
  auto sigma = ParseGeds(R"(
    ged key {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma.ok());
  auto phi = ParseGed(R"(
    ged weaker {
      match (x:n), (y:n)
      where x.a = y.a, x.b = y.b
      then  x.id = y.id
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_TRUE(Implies(sigma.value(), phi.value()));
  // And the id literal propagates attribute equality (rule (d)).
  auto phi2 = ParseGed(R"(
    ged attr_eq {
      match (x:n), (y:n)
      where x.a = y.a, x.c = x.c, y.c = y.c
      then  x.c = y.c
    })");
  ASSERT_TRUE(phi2.ok());
  EXPECT_TRUE(Implies(sigma.value(), phi2.value()));
}

TEST(Implication, NotImpliedWithoutSupport) {
  auto sigma = ParseGeds(R"(
    ged key {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma.ok());
  auto phi = ParseGed(R"(
    ged unrelated {
      match (x:n), (y:n)
      where x.b = y.b
      then  x.id = y.id
    })");
  ASSERT_TRUE(phi.ok());
  ImplicationResult res = CheckImplication(sigma.value(), phi.value());
  EXPECT_FALSE(res.implied);
  EXPECT_FALSE(res.missing.empty());
}

TEST(Implication, InconsistentXImpliesEverything) {
  auto phi = ParseGed(R"(
    ged contradiction {
      match (x:n)
      where x.a = 1, x.a = 2
      then  x.b = 3
    })");
  ASSERT_TRUE(phi.ok());
  ImplicationResult res = CheckImplication({}, phi.value());
  EXPECT_TRUE(res.implied);
  EXPECT_TRUE(res.via_inconsistency);
}

TEST(Implication, ForbiddingPhiOnlyViaInconsistency) {
  auto sigma = ParseGeds(R"(
    ged no_selfloop {
      match (x:n)-[e]->(y:n)
      where x.k = y.k
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  // φ: a more specific forbidding GED — follows because the chase hits the
  // forbidding σ.
  auto phi = ParseGed(R"(
    ged specific {
      match (x:n)-[e]->(y:n)
      where x.k = 1, y.k = 1
      then false
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_TRUE(Implies(sigma.value(), phi.value()));
  // Not implied when the premise doesn't trigger σ.
  auto phi2 = ParseGed(R"(
    ged weaker {
      match (x:n)-[e]->(y:n)
      then false
    })");
  ASSERT_TRUE(phi2.ok());
  EXPECT_FALSE(Implies(sigma.value(), phi2.value()));
}

TEST(Implication, EmptyYIsAlwaysImplied) {
  auto phi = ParseGed(R"(
    ged empty {
      match (x:n)
      where x.a = 1
      then x.a = 1
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_TRUE(Implies({}, phi.value()));
}

TEST(Implication, ReflexivityAndAugmentationHold) {
  // Armstrong-style sanity: X -> X, and X ∪ Z -> Y for X -> Y.
  auto base = ParseGed(R"(
    ged base {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.b = y.b
    })");
  ASSERT_TRUE(base.ok());
  auto augmented = ParseGed(R"(
    ged augmented {
      match (x:n), (y:n)
      where x.a = y.a, x.c = y.c
      then  x.b = y.b, x.c = y.c
    })");
  ASSERT_TRUE(augmented.ok());
  EXPECT_TRUE(Implies({base.value()}, augmented.value()));
}

TEST(Implication, MinimizeCoverDropsRedundantRules) {
  auto sigma = ParseGeds(R"(
    ged strong {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    }
    ged weak {
      match (x:n), (y:n)
      where x.a = y.a, x.b = y.b
      then  x.id = y.id
    }
    ged independent {
      match (x:m), (y:m)
      where x.k = y.k
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma.ok());
  std::vector<size_t> kept = MinimizeCover(sigma.value());
  EXPECT_EQ(kept, (std::vector<size_t>{0, 2}));
}

// ----- validation -------------------------------------------------------------

TEST(Validation, KnowledgeBaseGroundTruth) {
  KbParams params;
  KbInstance kb = GenKnowledgeBase(params);
  auto sigma = Example1Geds();
  ValidationReport report = Validate(kb.graph, sigma);
  EXPECT_FALSE(report.satisfied);
  size_t by_rule[4] = {0, 0, 0, 0};
  for (const Violation& v : report.violations) ++by_rule[v.ged_index];
  EXPECT_EQ(by_rule[0], kb.expected_wrong_creator);
  EXPECT_EQ(by_rule[1], kb.expected_double_capital);
  EXPECT_EQ(by_rule[2], kb.expected_flightless);
  EXPECT_EQ(by_rule[3], kb.expected_child_parent);
}

TEST(Validation, CleanKbSatisfies) {
  KbParams params;
  params.wrong_creator = 0;
  params.double_capital = 0;
  params.flightless = 0;
  params.child_parent = 0;
  KbInstance kb = GenKnowledgeBase(params);
  EXPECT_TRUE(Validate(kb.graph, Example1Geds()).satisfied);
}

TEST(Validation, ParallelMatchesSerial) {
  KbParams params;
  params.num_products = 60;
  KbInstance kb = GenKnowledgeBase(params);
  auto sigma = Example1Geds();
  ValidationReport serial = Validate(kb.graph, sigma);
  for (unsigned threads : {2u, 4u}) {
    ValidationOptions opts;
    opts.num_threads = threads;
    ValidationReport parallel = Validate(kb.graph, sigma, opts);
    EXPECT_EQ(parallel.satisfied, serial.satisfied);
    EXPECT_EQ(parallel.violations, serial.violations) << threads
                                                      << " threads";
  }
}

TEST(Validation, MaxViolationsCap) {
  KbParams params;
  params.wrong_creator = 5;
  KbInstance kb = GenKnowledgeBase(params);
  ValidationOptions opts;
  opts.max_violations_per_ged = 2;
  ValidationReport report = Validate(kb.graph, {Example1Geds()[0]}, opts);
  EXPECT_EQ(report.violations.size(), 2u);
}

TEST(Validation, SpamDetection) {
  SocialParams params;
  SocialInstance net = GenSocialNetwork(params);
  Ged phi5 = SpamGed(params.k, Value("peculiar"));
  ValidationReport report = Validate(net.graph, {phi5});
  // Collect distinct x's from violations.
  std::set<NodeId> caught;
  for (const Violation& v : report.violations) caught.insert(v.match[0]);
  std::set<NodeId> expected(net.expected_spam.begin(),
                            net.expected_spam.end());
  EXPECT_EQ(caught, expected);
}

TEST(Validation, MusicKeysFindDuplicates) {
  MusicParams params;
  MusicInstance music = GenMusicBase(params);
  ValidationReport report = Validate(music.graph, MusicKeys());
  EXPECT_FALSE(report.satisfied) << "duplicates must violate the keys";
}

TEST(Validation, EntityResolutionViaChase) {
  // Chasing the music base with ψ1–ψ3 merges exactly the duplicates,
  // including the recursive artist→album cases.
  MusicParams params;
  MusicInstance music = GenMusicBase(params);
  ChaseResult res = Chase(music.graph, MusicKeys());
  ASSERT_TRUE(res.consistent);
  EXPECT_EQ(res.coercion.graph.NumNodes(), music.true_entities);
  // The resolved graph satisfies the keys.
  EXPECT_TRUE(Validate(res.coercion.graph, MusicKeys()).satisfied);
}

TEST(Validation, BoundedPatternSizeIsCheap) {
  // §5.3: with pattern size ≤ k fixed, validation stays polynomial; this
  // sanity-checks that a k = 2 pattern on a larger graph is exact.
  KbParams params;
  params.num_products = 100;
  KbInstance kb = GenKnowledgeBase(params);
  ValidationReport report = Validate(kb.graph, {Example1Geds()[0]});
  size_t expected = kb.expected_wrong_creator;
  EXPECT_EQ(report.violations.size(), expected);
}

}  // namespace
}  // namespace ged
