// Edge-case suites: empty patterns, self-referential literals, chase
// corner cases, wildcard-heavy inputs, and cross-feature interactions that
// the per-module suites do not reach.

#include <random>

#include <gtest/gtest.h>

#include "axiom/checker.h"
#include "axiom/generator.h"
#include "ext/gedor.h"
#include "ged/parser.h"
#include "graph/io.h"
#include "reason/implication.h"
#include "reason/satisfiability.h"
#include "reason/validation.h"

namespace ged {
namespace {

TEST(EdgeCase, EmptyGraphSatisfiesEverything) {
  Graph g;
  auto sigma = ParseGeds(R"(
    ged any {
      match (x:n)
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  EXPECT_TRUE(Validate(g, sigma.value()).satisfied);
}

TEST(EdgeCase, EmptySigmaAlwaysSatisfied) {
  Graph g;
  g.AddNode("n");
  EXPECT_TRUE(Validate(g, {}).satisfied);
}

TEST(EdgeCase, SelfIdLiteralIsTrivial) {
  // x.id = x.id holds for every match.
  auto phi = ParseGed(R"(
    ged trivial {
      match (x:n)
      then x.id = x.id
    })");
  ASSERT_TRUE(phi.ok());
  Graph g;
  g.AddNode("n");
  EXPECT_TRUE(Validate(g, {phi.value()}).satisfied);
  EXPECT_TRUE(Implies({}, phi.value()));
}

TEST(EdgeCase, SelfVarLiteralIsAttributeExistence) {
  auto phi = ParseGed(R"(
    ged exists {
      match (x:n)
      then x.a = x.a
    })");
  ASSERT_TRUE(phi.ok());
  // Not implied by nothing: a node may lack the attribute.
  EXPECT_FALSE(Implies({}, phi.value()));
}

TEST(EdgeCase, WildcardOnlyPatternMatchesEverything) {
  auto sigma = ParseGeds(R"(
    ged all_nodes {
      match (x:_)
      then x.seen = 1
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  g.AddNode("a");
  g.AddNode("b");
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  EXPECT_EQ(res.num_steps, 2u);  // attribute generated on both nodes
}

TEST(EdgeCase, ChaseWithEmptySigmaIsIdentity) {
  Graph g;
  NodeId a = g.AddNode("n");
  g.SetAttr(a, "k", Value(1));
  g.AddNode("n");
  ChaseResult res = Chase(g, {});
  ASSERT_TRUE(res.consistent);
  EXPECT_EQ(res.num_steps, 0u);
  EXPECT_EQ(res.coercion.graph.NumNodes(), 2u);
}

TEST(EdgeCase, MergingNodeWithItselfIsNoOp) {
  Graph g;
  NodeId a = g.AddNode("n");
  EqRel eq(g);
  eq.MergeNodes(a, a);
  EXPECT_FALSE(eq.inconsistent());
  EXPECT_EQ(eq.ClassMembers(a).size(), 1u);
}

TEST(EdgeCase, SameConstantTwiceIsConsistent) {
  Graph g;
  NodeId a = g.AddNode("n");
  EqRel eq(g);
  TermId t = eq.GetOrCreateTerm(a, Sym("k"));
  eq.BindConst(t, Value("v"));
  eq.BindConst(t, Value("v"));
  EXPECT_FALSE(eq.inconsistent());
}

TEST(EdgeCase, NumericEqualityAcrossIntAndDouble) {
  // Value(1) == Value(1.0): binding both must not conflict.
  Graph g;
  NodeId a = g.AddNode("n");
  EqRel eq(g);
  TermId t = eq.GetOrCreateTerm(a, Sym("k"));
  eq.BindConst(t, Value(1));
  eq.BindConst(t, Value(1.0));
  EXPECT_FALSE(eq.inconsistent());
}

TEST(EdgeCase, GkeyOverSingleNodePattern) {
  // The "UoE" key: doubled single-node pattern, Y = id literal.
  Pattern half;
  half.AddVar("x", "UoE");
  Ged key = MakeGkey("uoe", half, 0,
                     [](VarId) { return std::vector<Literal>{}; });
  EXPECT_TRUE(key.IsGkey());
  // On a graph with three UoE nodes, the chase merges them all.
  Graph g;
  g.AddNode("UoE");
  g.AddNode("UoE");
  g.AddNode("UoE");
  ChaseResult res = Chase(g, {key});
  ASSERT_TRUE(res.consistent);
  EXPECT_EQ(res.coercion.graph.NumNodes(), 1u);
}

TEST(EdgeCase, ImplicationOfSigmaMember) {
  // Σ ⊨ σ for every σ ∈ Σ (and the proof generator handles it).
  auto sigma = ParseGeds(R"(
    ged r {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma.ok());
  EXPECT_TRUE(Implies(sigma.value(), sigma.value()[0]));
  auto proof = GenerateImplicationProof(sigma.value(), sigma.value()[0]);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_TRUE(
      VerifyProofOf(sigma.value(), sigma.value()[0], proof.value()).ok());
}

TEST(EdgeCase, ChaseConflictFromXContradictionInData) {
  // A graph node carrying a value contradicting an enforced constant.
  auto sigma = ParseGeds(R"(
    ged force {
      match (x:n)
      then x.a = 1
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  NodeId v = g.AddNode("n");
  g.SetAttr(v, "a", Value(2));
  ChaseResult res = Chase(g, sigma.value());
  EXPECT_FALSE(res.consistent);
}

TEST(EdgeCase, DisjunctiveChaseWithNoRulesIsOneLeaf) {
  Graph g;
  g.AddNode("n");
  DisjChaseResult res = DisjunctiveChase(g, {});
  EXPECT_EQ(res.valid_leaves.size(), 1u);
  EXPECT_FALSE(res.capped);
}

TEST(EdgeCase, GedOrSingleDisjunctBehavesLikeGed) {
  auto as_ged = ParseGeds(R"(
    ged r {
      match (x:n)
      where x.a = 1
      then x.b = 2
    })");
  ASSERT_TRUE(as_ged.ok());
  std::vector<GedOr> as_or = GedOr::FromGed(as_ged.value()[0]);
  Graph good;
  NodeId v = good.AddNode("n");
  good.SetAttr(v, "a", Value(1));
  good.SetAttr(v, "b", Value(2));
  Graph bad2;
  NodeId w = bad2.AddNode("n");
  bad2.SetAttr(w, "a", Value(1));
  bad2.SetAttr(w, "b", Value(3));
  EXPECT_EQ(Validate(good, as_ged.value()).satisfied,
            ValidateGedOrs(FrozenGraph::Freeze(good), as_or));
  EXPECT_EQ(Validate(bad2, as_ged.value()).satisfied,
            ValidateGedOrs(FrozenGraph::Freeze(bad2), as_or));
}

TEST(EdgeCase, ValidationReportsAllLiteralFailures) {
  // A GED with multiple Y literals: violated if any fails.
  auto sigma = ParseGeds(R"(
    ged multi {
      match (x:n)
      then x.a = 1, x.b = 2
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  NodeId v = g.AddNode("n");
  g.SetAttr(v, "a", Value(1));  // b missing
  EXPECT_FALSE(Validate(g, sigma.value()).satisfied);
  g.SetAttr(v, "b", Value(2));
  EXPECT_TRUE(Validate(g, sigma.value()).satisfied);
}

TEST(EdgeCase, PatternLargerThanGraphNeverMatches) {
  // Under isomorphism a 3-variable pattern cannot match a 2-node graph;
  // under homomorphism it can (by collapsing).
  Pattern q;
  VarId a = q.AddVar("a", "n");
  VarId b = q.AddVar("b", "n");
  VarId c = q.AddVar("c", "n");
  q.AddEdge(a, "e", b);
  q.AddEdge(b, "e", c);
  Graph g;
  NodeId u = g.AddNode("n");
  NodeId v = g.AddNode("n");
  g.AddEdge(u, "e", v);
  g.AddEdge(v, "e", u);
  const FrozenGraph f = FrozenGraph::Freeze(g);
  EXPECT_GT(CountMatches(q, f), 0u);
  MatchOptions iso;
  iso.semantics = MatchSemantics::kIsomorphism;
  EXPECT_EQ(CountMatches(q, f, iso), 0u);
}

TEST(EdgeCase, ForbiddingGedNeverImpliedByEmptySigma) {
  auto phi = ParseGed(R"(
    ged f {
      match (x:n)
      then false
    })");
  ASSERT_TRUE(phi.ok());
  EXPECT_FALSE(Implies({}, phi.value()));
  EXPECT_FALSE(GenerateImplicationProof({}, phi.value()).ok());
}

TEST(EdgeCase, SatisfiabilityWithDuplicateRules) {
  // Duplicated rules must not change the verdict.
  auto sigma = ParseGeds(R"(
    ged r {
      match (x:n)
      then x.a = 1
    }
    ged r_again {
      match (x:n)
      then x.a = 1
    })");
  ASSERT_TRUE(sigma.ok());
  EXPECT_TRUE(IsSatisfiable(sigma.value()));
}

// ----- adversarial graph-text parsing ---------------------------------------
// Every malformed input must come back as an InvalidArgument Status; none
// may reach UB (out-of-range indexing, unchecked conversions). The ASan CI
// job runs this suite, so "no crash" here means no heap errors either.

TEST(EdgeCase, ParseGraphRejectsHostileNodeIds) {
  for (const char* text : {
           "node 4294967296 n",           // > uint32 max
           "node 99999999999999999999 n", // > uint64 max
           "node -1 n",                   // negative
           "node 0x10 n",                 // partial parse: trailing garbage
           "node 1e3 n",                  // not an integer token
           "node  n",                     // id missing entirely
           "node 1 n",                    // ids must start at 0
           "node 0 n\nnode 2 n",          // gap
           "node 0 n\nnode 0 n",          // duplicate
           "edge 0 e 0",                  // edge before any node
           "node 0 n\nedge 0 e 7",        // dst out of range
           "node 0 n\nedge 7 e 0",        // src out of range
       }) {
    auto g = ParseGraph(text);
    ASSERT_FALSE(g.ok()) << "accepted: " << text;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(EdgeCase, ParseGraphRejectsMalformedAttrsAndLines) {
  for (const char* text : {
           "node 0 n =5",                  // empty attribute name
           "node 0 n a=",                  // empty value
           "node 0 n a",                   // no '='
           "node 0",                       // label missing
           "node",                         // everything missing
           "edge 0 e",                     // dst missing
           "vertex 0 n",                   // unknown directive
           "node 0 n a=\"unterminated",    // quote never closes
           "node 0 n a=\"bad\\x\"",        // unsupported escape
           "node 0 n a=\"dangling\\",      // escape at end of input
           "node 0 n a=\"two\" \"quotes\"",// second bare token also quoted
           "node 0 n a=12garbage",         // number with trailing junk
           "node 0 n a=1e999",             // double overflow
           "node 0 n a=92233720368547758079", // int64 overflow
           "node 0 n a=tru",               // almost a boolean
       }) {
    auto g = ParseGraph(text);
    ASSERT_FALSE(g.ok()) << "accepted: " << text;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(EdgeCase, ParseValueStrictness) {
  EXPECT_TRUE(ParseValue("42").ok());
  EXPECT_TRUE(ParseValue("-7").ok());
  EXPECT_TRUE(ParseValue("3.5").ok());
  EXPECT_TRUE(ParseValue("true").ok());
  EXPECT_TRUE(ParseValue("\"a \\\"b\\\" \\\\c\"").ok());
  for (const char* token : {"", "\"", "\"\\\"", "1e999", "0.0.0", "nanx",
                            "12 ", " 12", "\"inner\"tail", "+ ", "--3"}) {
    auto v = ParseValue(token);
    EXPECT_FALSE(v.ok()) << "accepted: [" << token << "]";
  }
}

TEST(EdgeCase, ParseGraphFuzzNeverCrashes) {
  // Deterministic byte-soup fuzzing: mutate a valid serialized graph with
  // truncations, byte flips and splices. Outcomes may be ok (some mutations
  // are harmless) but must never be UB; errors must be InvalidArgument.
  Graph g;
  for (int i = 0; i < 6; ++i) {
    NodeId v = g.AddNode("n" + std::to_string(i % 2));
    g.SetAttr(v, "a", Value(int64_t{i}));
    g.SetAttr(v, "s", Value("str \"q\" \\ " + std::to_string(i)));
    if (i > 0) g.AddEdge(v - 1, "e", v);
  }
  const std::string base = SerializeGraph(g);
  ASSERT_TRUE(ParseGraph(base).ok());

  std::mt19937 rng(1234);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = base;
    switch (round % 4) {
      case 0:  // truncate anywhere
        mutated.resize(rng() % (base.size() + 1));
        break;
      case 1:  // flip a byte to any value
        if (!mutated.empty()) {
          mutated[rng() % mutated.size()] =
              static_cast<char>(rng() % 256);
        }
        break;
      case 2:  // splice a random chunk over a random position
        if (!mutated.empty()) {
          size_t pos = rng() % mutated.size();
          for (size_t i = pos; i < mutated.size() && i < pos + 8; ++i) {
            mutated[i] = static_cast<char>(rng() % 256);
          }
        }
        break;
      case 3:  // duplicate a random line somewhere
        mutated += "\n" + base.substr(rng() % base.size());
        break;
    }
    auto parsed = ParseGraph(mutated);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace ged
