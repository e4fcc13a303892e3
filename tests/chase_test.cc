// Unit tests for the equivalence relations and the revised chase (§4),
// including the paper's Example 4 and the Theorem 1 bounds.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "ged/parser.h"
#include "reference/reference_chase.h"

namespace ged {
namespace {

// The Fig. 2 graph: v1, v2 labeled "account" with A = 1 attributes and
// satellites v1', v2' with distinct labels, plus f-edges.
Graph Fig2Graph() {
  Graph g;
  NodeId v1 = g.AddNode("account");
  g.SetAttr(v1, "A", Value(1));
  NodeId v2 = g.AddNode("account");
  g.SetAttr(v2, "A", Value(1));
  NodeId v1p = g.AddNode("address");
  NodeId v2p = g.AddNode("phone");
  g.AddEdge(v1, "f", v1p);
  g.AddEdge(v2, "f", v2p);
  return g;
}

TEST(EqRel, Eq0GroupsAttributesByConstant) {
  // Example 4: [v1.A]_Eq0 = {v1.A, v2.A, 1} — same constant, one class.
  Graph g = Fig2Graph();
  EqRel eq(g);
  TermId t1 = eq.FindTerm(0, Sym("A"));
  TermId t2 = eq.FindTerm(1, Sym("A"));
  ASSERT_NE(t1, kNoTerm);
  ASSERT_NE(t2, kNoTerm);
  EXPECT_TRUE(eq.SameTerm(t1, t2));
  EXPECT_EQ(*eq.TermConst(t1), Value(1));
}

TEST(EqRel, MergeNodesMergesAttributeClasses) {
  Graph g;
  NodeId a = g.AddNode("n");
  g.SetAttr(a, "k", Value(1));
  NodeId b = g.AddNode("n");
  g.SetAttr(b, "k", Value(2));
  EqRel eq(g);
  EXPECT_FALSE(eq.inconsistent());
  eq.MergeNodes(a, b);
  // Rule (d): same node => same attributes; k = 1 vs k = 2 conflicts.
  EXPECT_TRUE(eq.inconsistent());
}

TEST(EqRel, LabelConflictOnMerge) {
  Graph g;
  NodeId a = g.AddNode("city");
  NodeId b = g.AddNode("country");
  EqRel eq(g);
  eq.MergeNodes(a, b);
  EXPECT_TRUE(eq.inconsistent());
  EXPECT_NE(eq.conflict_reason().find("label conflict"), std::string::npos);
}

TEST(EqRel, WildcardLabelNeverConflicts) {
  Graph g;
  NodeId a = g.AddNode(kWildcard);
  NodeId b = g.AddNode("country");
  EqRel eq(g);
  eq.MergeNodes(a, b);
  EXPECT_FALSE(eq.inconsistent());
  EXPECT_EQ(eq.ClassLabel(a), Sym("country"));  // resolved label
}

TEST(EqRel, BindConstMergesClassesSharingConstant) {
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  EqRel eq(g);
  TermId ta = eq.GetOrCreateTerm(a, Sym("k"));
  TermId tb = eq.GetOrCreateTerm(b, Sym("k"));
  EXPECT_FALSE(eq.SameTerm(ta, tb));
  eq.BindConst(ta, Value("x"));
  eq.BindConst(tb, Value("x"));
  EXPECT_TRUE(eq.SameTerm(ta, tb));  // closure rule (b)
}

TEST(EqRel, AttributeConflictOnDistinctConstants) {
  Graph g;
  NodeId a = g.AddNode("n");
  EqRel eq(g);
  TermId t = eq.GetOrCreateTerm(a, Sym("k"));
  eq.BindConst(t, Value(1));
  eq.BindConst(t, Value(2));
  EXPECT_TRUE(eq.inconsistent());
}

TEST(EqRel, AttributeGeneration) {
  Graph g;
  g.AddNode("n");
  EqRel eq(g);
  EXPECT_FALSE(eq.HasAttr(0, Sym("fresh")));
  eq.GetOrCreateTerm(0, Sym("fresh"));
  EXPECT_TRUE(eq.HasAttr(0, Sym("fresh")));
}

TEST(EqRel, CanonicalSignatureStableAcrossMergeOrder) {
  auto build = [](bool reverse) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.AddNode("n");
    EqRel eq(g);
    if (reverse) {
      eq.MergeNodes(2, 3);
      eq.MergeNodes(0, 1);
      eq.MergeNodes(1, 3);
    } else {
      eq.MergeNodes(0, 1);
      eq.MergeNodes(2, 3);
      eq.MergeNodes(0, 2);
    }
    return eq.CanonicalSignature();
  };
  EXPECT_EQ(build(false), build(true));
}

// ----- Example 4 -------------------------------------------------------------

TEST(Chase, Example4Part1MergesAccounts) {
  Graph g = Fig2Graph();
  // φ1 = Q1[x, y](x.A = y.A → x.id = y.id), accounts x, y.
  auto phi1 = ParseGed(R"(
    ged ex4_phi1 {
      match (x:account), (y:account)
      where x.A = y.A
      then  x.id = y.id
    })");
  ASSERT_TRUE(phi1.ok()) << phi1.status().ToString();
  ChaseResult res = Chase(g, {phi1.value()});
  ASSERT_TRUE(res.consistent);
  EXPECT_TRUE(res.eq.SameNode(0, 1));          // v1, v2 merged
  EXPECT_FALSE(res.eq.SameNode(2, 3));         // satellites untouched
  EXPECT_EQ(res.coercion.graph.NumNodes(), 3u);
  // The merged node keeps both f edges (attributes and edges merged).
  NodeId merged = res.coercion.node_map[0];
  EXPECT_EQ(res.coercion.graph.OutDegree(merged), 2u);
}

TEST(Chase, Example4Part2ConflictsOnLabels) {
  Graph g = Fig2Graph();
  auto sigma = ParseGeds(R"(
    ged ex4_phi1 {
      match (x:account), (y:account)
      where x.A = y.A
      then  x.id = y.id
    }
    ged ex4_phi2 {
      match (x:account)-[f]->(y:_), (x)-[f]->(z:_)
      then  y.id = z.id
    })");
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  ChaseResult res = Chase(g, sigma.value());
  // Merging v1' (address) with v2' (phone) is a label conflict: result ⊥.
  EXPECT_FALSE(res.consistent);
  EXPECT_NE(res.conflict_reason.find("label conflict"), std::string::npos);
}

TEST(Chase, ForbiddingGedInvalidatesSequence) {
  auto sigma = ParseGeds(R"(
    ged forbid {
      match (x:n)
      where x.bad = 1
      then false
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  NodeId v = g.AddNode("n");
  g.SetAttr(v, "bad", Value(1));
  ChaseResult res = Chase(g, sigma.value());
  EXPECT_FALSE(res.consistent);
  EXPECT_NE(res.conflict_reason.find("forbid"), std::string::npos);
  // Without the trigger the chase is valid.
  Graph g2;
  g2.AddNode("n");
  EXPECT_TRUE(Chase(g2, sigma.value()).consistent);
}

TEST(Chase, GeneratesAttributes) {
  auto sigma = ParseGeds(R"(
    ged gen_attr {
      match (x:n)
      then x.a = 5
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  g.AddNode("n");
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  TermId t = res.eq.FindTerm(0, Sym("a"));
  ASSERT_NE(t, kNoTerm);
  EXPECT_EQ(*res.eq.TermConst(t), Value(5));
  // The generated attribute is materialized in the coercion.
  EXPECT_EQ(*res.coercion.graph.attr(0, Sym("a")), Value(5));
}

TEST(Chase, CascadingMerges) {
  // A chain: equal a-attributes merge nodes; merging exposes equal
  // b-attributes; those merge further nodes.
  auto sigma = ParseGeds(R"(
    ged key_a {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  NodeId v0 = g.AddNode("n");
  g.SetAttr(v0, "a", Value(1));
  NodeId v1 = g.AddNode("n");
  g.SetAttr(v1, "a", Value(1));
  NodeId v2 = g.AddNode("n");
  g.SetAttr(v2, "a", Value(2));
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  EXPECT_TRUE(res.eq.SameNode(v0, v1));
  EXPECT_FALSE(res.eq.SameNode(v0, v2));
}

TEST(Chase, ChurchRosserAcrossSeeds) {
  // Theorem 1: terminal chasing sequences agree regardless of order, with
  // the naive reference chase too.
  auto sigma = ParseGeds(R"(
    ged r1 {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    }
    ged r2 {
      match (x:n)
      where x.a = 1
      then  x.b = 2
    }
    ged r3 {
      match (x:n), (y:n)
      where x.b = y.b
      then  x.c = y.c
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  for (int i = 0; i < 4; ++i) {
    NodeId v = g.AddNode("n");
    g.SetAttr(v, "a", Value(i % 2 == 0 ? 1 : i));
  }
  reference::RefChaseResult reference = reference::Chase(g, sigma.value());
  ASSERT_TRUE(reference.consistent);
  std::string ref_sig = reference.eq.CanonicalSignature();
  for (unsigned seed = 0; seed <= 12; ++seed) {
    ChaseOptions opts;
    opts.order_seed = seed;
    ChaseResult res = Chase(g, sigma.value(), nullptr, opts);
    ASSERT_TRUE(res.consistent);
    EXPECT_EQ(res.eq.CanonicalSignature(), ref_sig) << "seed " << seed;
  }
}

TEST(Chase, ChurchRosserOnInvalidSequences) {
  // All orders must agree with the reference on ⊥ too.
  Graph g = Fig2Graph();
  auto sigma = ParseGeds(R"(
    ged m1 {
      match (x:account), (y:account)
      where x.A = y.A
      then  x.id = y.id
    }
    ged m2 {
      match (x:account)-[f]->(y:_), (x)-[f]->(z:_)
      then  y.id = z.id
    })");
  ASSERT_TRUE(sigma.ok());
  ASSERT_FALSE(reference::Chase(g, sigma.value()).consistent);
  for (unsigned seed = 0; seed <= 8; ++seed) {
    ChaseOptions opts;
    opts.order_seed = seed;
    EXPECT_FALSE(Chase(g, sigma.value(), nullptr, opts).consistent)
        << "seed " << seed;
  }
}

TEST(Chase, RespectsTheoremOneBounds) {
  // |Eq| ≤ 4·|G|·|Σ| and chase length ≤ 8·|G|·|Σ|.
  auto sigma = ParseGeds(R"(
    ged r1 {
      match (x:n), (y:n)
      where x.a = y.a
      then  x.id = y.id
    }
    ged r2 {
      match (x:n)
      then  x.b = x.a
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  for (int i = 0; i < 6; ++i) {
    NodeId v = g.AddNode("n");
    g.SetAttr(v, "a", Value(i / 2));
  }
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  size_t bound = 4 * g.Size() * SigmaSize(sigma.value());
  EXPECT_LE(res.eq.SizeMeasure(), bound);
  EXPECT_LE(res.num_steps, 2 * bound);
}

TEST(Chase, MaxStepsCapReported) {
  auto sigma = ParseGeds(R"(
    ged r {
      match (x:n), (y:n)
      then  x.id = y.id
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  for (int i = 0; i < 10; ++i) g.AddNode("n");
  ChaseOptions opts;
  opts.max_steps = 1;
  ChaseResult res = Chase(g, sigma.value(), nullptr, opts);
  EXPECT_TRUE(res.capped);
}

TEST(Chase, BuildEqXInconsistentUpFront) {
  Pattern q;
  q.AddVar("x", "n");
  Graph gq = q.ToGraph();
  EqRel eqx = BuildEqX(gq, {Literal::Const(0, Sym("a"), Value(1)),
                            Literal::Const(0, Sym("a"), Value(2))});
  EXPECT_TRUE(eqx.inconsistent());
  // Chase from an inconsistent start is ⊥ (§4.1 case (b)).
  ChaseResult res = Chase(gq, {}, &eqx);
  EXPECT_FALSE(res.consistent);
}

TEST(Chase, CoercionDeduplicatesEdges) {
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  NodeId c = g.AddNode("m");
  g.AddEdge(a, "e", c);
  g.AddEdge(b, "e", c);
  EqRel eq(g);
  eq.MergeNodes(a, b);
  Coercion co = BuildCoercion(eq);
  EXPECT_EQ(co.graph.NumNodes(), 2u);
  EXPECT_EQ(co.graph.NumEdges(), 1u);  // parallel edges collapse
}

TEST(Chase, JournalRecordsAppliedSteps) {
  auto sigma = ParseGeds(R"(
    ged r {
      match (x:n)
      then x.a = 1, x.b = 2
    })");
  ASSERT_TRUE(sigma.ok());
  Graph g;
  g.AddNode("n");
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  ASSERT_EQ(res.journal.size(), 2u);
  EXPECT_EQ(res.journal[0].ged_index, 0u);
  EXPECT_EQ(res.journal[0].literal, Literal::Const(0, Sym("a"), Value(1)));
}

TEST(Chase, WildcardTreatedAsSpecialLabelWhenChasingPatterns) {
  // §4: when chasing a pattern as a graph, '_' is a special label compared
  // with ≼; merging '_' with a concrete label resolves to the concrete one.
  Pattern q;
  q.AddVar("x", kWildcard);
  q.AddVar("y", "city");
  Graph gq = q.ToGraph();
  EqRel eqx = BuildEqX(gq, {Literal::Id(0, 1)});
  EXPECT_FALSE(eqx.inconsistent());
  Coercion co = BuildCoercion(eqx);
  EXPECT_EQ(co.graph.NumNodes(), 1u);
  EXPECT_EQ(co.graph.label(0), Sym("city"));
}

}  // namespace
}  // namespace ged
