// Self-test of the reference validator (tests/reference/) against answers
// counted by hand on graphs small enough to enumerate on paper. The engine
// is checked against this oracle elsewhere (plan_diff_test and friends), so
// the oracle itself is checked here against nothing but arithmetic.

#include <gtest/gtest.h>

#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"
#include "reference/reference_validator.h"

namespace ged::reference {
namespace {

constexpr bool kHom = false;
constexpr bool kIso = true;

// A forbidding rule over `q`: every match is a violation, so the violation
// list is the match set and matches_checked its size.
Ged Forbid(Pattern q) {
  return Ged("forbid", std::move(q), {}, {}, /*y_is_false=*/true);
}

// K3: three "n" nodes, a directed edge "e" between every ordered pair of
// distinct nodes, no self-loops.
Graph K3() {
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 0; b < 3; ++b) {
      if (a != b) g.AddEdge(a, "e", b);
    }
  }
  return g;
}

TEST(ReferenceValidator, TriangleOnK3UnderHomAndIso) {
  Graph g = K3();
  // x→y, y→z, z→x: no self-loops force pairwise distinct nodes, so both
  // semantics see the 3! = 6 rotations and reflections.
  Pattern tri;
  VarId x = tri.AddVar("x", "n");
  VarId y = tri.AddVar("y", "n");
  VarId z = tri.AddVar("z", "n");
  tri.AddEdge(x, "e", y);
  tri.AddEdge(y, "e", z);
  tri.AddEdge(z, "e", x);
  std::vector<Ged> sigma = {Forbid(tri)};
  EXPECT_EQ(Validate(g, sigma, kHom).matches_checked, 6u);
  EXPECT_EQ(Validate(g, sigma, kIso).matches_checked, 6u);

  // The open path x→y→z may fold x onto z under homomorphism:
  // 3 · 2 · 2 = 12 homomorphisms, of which 3 · 2 · 1 = 6 are injective.
  Pattern path;
  x = path.AddVar("x", "n");
  y = path.AddVar("y", "n");
  z = path.AddVar("z", "n");
  path.AddEdge(x, "e", y);
  path.AddEdge(y, "e", z);
  sigma = {Forbid(path)};
  RefReport hom = Validate(g, sigma, kHom);
  RefReport iso = Validate(g, sigma, kIso);
  EXPECT_EQ(hom.matches_checked, 12u);
  EXPECT_EQ(hom.violations.size(), 12u);
  EXPECT_EQ(iso.matches_checked, 6u);
  EXPECT_EQ(iso.violations.size(), 6u);
  EXPECT_EQ(hom.violations.front(), (RefViolation{0, {0, 1, 0}}));
  EXPECT_EQ(iso.violations.front(), (RefViolation{0, {0, 1, 2}}));
}

TEST(ReferenceValidator, WildcardNodeAndEdgeLabels) {
  // a:p -e-> b:q, a:p -f-> c:p, b:q -e-> c:p.
  Graph g;
  NodeId a = g.AddNode("p");
  NodeId b = g.AddNode("q");
  NodeId c = g.AddNode("p");
  g.AddEdge(a, "e", b);
  g.AddEdge(a, "f", c);
  g.AddEdge(b, "e", c);

  Pattern any_edge;  // (x:p) -_-> (y:_): a's two out-edges; c has none.
  any_edge.AddVar("x", "p");
  any_edge.AddVar("y", kWildcard);
  any_edge.AddEdge(0, kWildcard, 1);
  RefReport r = Validate(g, {Forbid(any_edge)}, kHom);
  EXPECT_EQ(r.violations, (std::vector<RefViolation>{{0, {a, b}},
                                                     {0, {a, c}}}));

  Pattern any_node;  // (x:_) -e-> (y:_): the two e-edges.
  any_node.AddVar("x", kWildcard);
  any_node.AddVar("y", kWildcard);
  any_node.AddEdge(0, "e", 1);
  r = Validate(g, {Forbid(any_node)}, kHom);
  EXPECT_EQ(r.violations, (std::vector<RefViolation>{{0, {a, b}},
                                                     {0, {b, c}}}));

  Pattern concrete;  // (x:p) -e-> (y:q): only a→b.
  concrete.AddVar("x", "p");
  concrete.AddVar("y", "q");
  concrete.AddEdge(0, "e", 1);
  EXPECT_EQ(Validate(g, {Forbid(concrete)}, kHom).matches_checked, 1u);

  Pattern lone;  // a lone wildcard variable matches every node
  lone.AddVar("x", kWildcard);
  EXPECT_EQ(Validate(g, {Forbid(lone)}, kHom).matches_checked, 3u);
}

TEST(ReferenceValidator, SelfLoopPatternEdge) {
  // Loops 0 -e-> 0 and 1 -f-> 1, plus 0 -e-> 1.
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  g.AddEdge(0, "e", 0);
  g.AddEdge(1, "f", 1);
  g.AddEdge(0, "e", 1);

  Pattern loop_e;  // x -e-> x: only node 0
  loop_e.AddVar("x", "n");
  loop_e.AddEdge(0, "e", 0);
  EXPECT_EQ(Validate(g, {Forbid(loop_e)}, kHom).violations,
            (std::vector<RefViolation>{{0, {0}}}));

  Pattern loop_any;  // x -_-> x: nodes 0 and 1
  loop_any.AddVar("x", "n");
  loop_any.AddEdge(0, kWildcard, 0);
  EXPECT_EQ(Validate(g, {Forbid(loop_any)}, kHom).violations,
            (std::vector<RefViolation>{{0, {0}}, {0, {1}}}));

  // x -e-> y with a loop on x: (0, 0) and (0, 1) under homomorphism, only
  // (0, 1) under isomorphism.
  Pattern loop_then_edge;
  loop_then_edge.AddVar("x", "n");
  loop_then_edge.AddVar("y", "n");
  loop_then_edge.AddEdge(0, "e", 0);
  loop_then_edge.AddEdge(0, "e", 1);
  EXPECT_EQ(Validate(g, {Forbid(loop_then_edge)}, kHom).matches_checked, 2u);
  EXPECT_EQ(Validate(g, {Forbid(loop_then_edge)}, kIso).violations,
            (std::vector<RefViolation>{{0, {0, 1}}}));
}

TEST(ReferenceValidator, IdLiteral) {
  // Two unconnected variables over three nodes, Y = (x.id = y.id): every
  // pair of distinct nodes violates. Homomorphism: 9 matches, 6 violate;
  // isomorphism: the 6 injective matches, all violating.
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  Pattern q;
  q.AddVar("x", "n");
  q.AddVar("y", "n");
  std::vector<Ged> sigma = {Ged("same", q, {}, {Literal::Id(0, 1)})};
  RefReport hom = Validate(g, sigma, kHom);
  EXPECT_EQ(hom.matches_checked, 9u);
  EXPECT_EQ(hom.violations.size(), 6u);
  RefReport iso = Validate(g, sigma, kIso);
  EXPECT_EQ(iso.matches_checked, 6u);
  EXPECT_EQ(iso.violations.size(), 6u);
  for (const RefViolation& v : hom.violations) {
    EXPECT_NE(v.match[0], v.match[1]);
  }

  // As a premise: X = (x.id = y.id) keeps the 3 diagonal matches, and a
  // forbidding Y reports exactly those.
  sigma = {Ged("diag", q, {Literal::Id(0, 1)}, {}, /*y_is_false=*/true)};
  EXPECT_EQ(Validate(g, sigma, kHom).violations,
            (std::vector<RefViolation>{{0, {0, 0}}, {0, {1, 1}}, {0, {2, 2}}}));
  EXPECT_TRUE(Validate(g, sigma, kIso).violations.empty());
}

TEST(ReferenceValidator, ForbiddingRuleWithPremise) {
  // Y = false: exactly the X-matches violate. Nodes 0 and 2 carry a = 1.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode("n");
  const AttrId a = Sym("a");
  g.SetAttr(0, a, Value(int64_t{1}));
  g.SetAttr(1, a, Value(int64_t{2}));
  g.SetAttr(2, a, Value(int64_t{1}));
  Pattern q;
  q.AddVar("x", "n");
  std::vector<Ged> sigma = {
      Ged("no_ones", q, {Literal::Const(0, a, Value(int64_t{1}))}, {},
          /*y_is_false=*/true)};
  RefReport r = Validate(g, sigma, kHom);
  EXPECT_EQ(r.matches_checked, 4u);
  EXPECT_EQ(r.violations, (std::vector<RefViolation>{{0, {0}}, {0, {2}}}));
}

TEST(ReferenceValidator, VariableFreePatternHasOneEmptyMatch) {
  Graph g;
  g.AddNode("n");
  std::vector<Ged> sigma = {Forbid(Pattern{})};
  for (bool injective : {kHom, kIso}) {
    RefReport r = Validate(g, sigma, injective);
    EXPECT_EQ(r.matches_checked, 1u);
    EXPECT_EQ(r.violations, (std::vector<RefViolation>{{0, {}}}));
  }
  // Its empty match binds no node, so no touched set reaches it.
  RefReport touching = ValidateTouching(g, sigma, {0}, kHom);
  EXPECT_EQ(touching.matches_checked, 0u);
  EXPECT_TRUE(touching.violations.empty());
  // Even on an empty graph.
  EXPECT_EQ(Validate(Graph{}, sigma, kHom).violations.size(), 1u);
}

TEST(ReferenceValidator, MissingAttributeLiterals) {
  // Node 0 has a = 5 and b = 5; node 1 has a = 5 only; node 2 has neither.
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  const AttrId a = Sym("a"), b = Sym("b");
  g.SetAttr(0, a, Value(int64_t{5}));
  g.SetAttr(0, b, Value(int64_t{5}));
  g.SetAttr(1, a, Value(int64_t{5}));
  Pattern q;
  q.AddVar("x", "n");

  // In Y, a missing attribute fails the literal: x.a = x.b holds on node 0
  // only (node 2's two missing values are not equal to each other).
  std::vector<Ged> sigma = {Ged("ab", q, {}, {Literal::Var(0, a, 0, b)})};
  EXPECT_EQ(Validate(g, sigma, kHom).violations,
            (std::vector<RefViolation>{{0, {1}}, {0, {2}}}));

  // In X, a missing attribute fails the premise: only node 0 has b, and it
  // also satisfies Y, so nothing violates — yet all 3 matches are checked.
  sigma = {Ged("b_then_a", q, {Literal::Const(0, b, Value(int64_t{5}))},
               {Literal::Const(0, a, Value(int64_t{5}))})};
  RefReport r = Validate(g, sigma, kHom);
  EXPECT_EQ(r.matches_checked, 3u);
  EXPECT_TRUE(r.violations.empty());

  // A constant Y literal on a missing attribute fails.
  sigma = {Ged("has_b", q, {}, {Literal::Const(0, b, Value(int64_t{5}))})};
  EXPECT_EQ(Validate(g, sigma, kHom).violations,
            (std::vector<RefViolation>{{0, {1}}, {0, {2}}}));
}

TEST(ReferenceValidator, RestrictedRunsAndCap) {
  Graph g = K3();
  Pattern edge;
  edge.AddVar("x", "n");
  edge.AddVar("y", "n");
  edge.AddEdge(0, "e", 1);
  std::vector<Ged> sigma = {Forbid(edge), Forbid(edge)};

  // Touching {2}: the 4 of K3's 6 edges with an endpoint at 2, per rule.
  RefReport touching = ValidateTouching(g, sigma, {2}, kHom);
  EXPECT_EQ(touching.matches_checked, 8u);
  EXPECT_EQ(touching.violations.size(), 8u);

  // Seeded by the edge 0→1: only that match, per rule.
  RefReport seeded =
      ValidateSeededByEdges(g, sigma, {EdgeTriple{0, Sym("e"), 1}}, kHom);
  EXPECT_EQ(seeded.violations,
            (std::vector<RefViolation>{{0, {0, 1}}, {1, {0, 1}}}));
  // A seed whose label the pattern edge does not accept selects nothing.
  EXPECT_TRUE(
      ValidateSeededByEdges(g, sigma, {EdgeTriple{0, Sym("f"), 1}}, kHom)
          .violations.empty());

  // The cap keeps the smallest rows of each rule.
  RefReport all = Validate(g, sigma, kHom);
  ASSERT_EQ(all.violations.size(), 12u);
  EXPECT_EQ(CapPerGed(all.violations, 2),
            (std::vector<RefViolation>{
                {0, {0, 1}}, {0, {0, 2}}, {1, {0, 1}}, {1, {0, 2}}}));
  EXPECT_EQ(CapPerGed(all.violations, 0), all.violations);
}

}  // namespace
}  // namespace ged::reference
