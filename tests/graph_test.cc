// Unit tests for the property-graph substrate and its text format.

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/pattern.h"

namespace ged {
namespace {

TEST(Graph, NodesCarryLabelsAndAttrs) {
  Graph g;
  NodeId v = g.AddNode("person");
  g.SetAttr(v, "name", Value("Tony"));
  g.SetAttr(v, "age", Value(42));
  EXPECT_EQ(g.label(v), Sym("person"));
  EXPECT_EQ(*g.attr(v, Sym("name")), Value("Tony"));
  EXPECT_EQ(*g.attr(v, Sym("age")), Value(42));
  EXPECT_FALSE(g.attr(v, Sym("ghost")).has_value());
}

TEST(Graph, SetAttrOverwrites) {
  Graph g;
  NodeId v = g.AddNode("n");
  g.SetAttr(v, "a", Value(1));
  g.SetAttr(v, "a", Value(2));
  EXPECT_EQ(*g.attr(v, Sym("a")), Value(2));
  EXPECT_EQ(g.attrs(v).size(), 1u);
}

TEST(Graph, EdgesAreASet) {
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n");
  EXPECT_TRUE(g.AddEdge(a, "e", b));
  EXPECT_FALSE(g.AddEdge(a, "e", b));  // duplicate triple ignored
  EXPECT_TRUE(g.AddEdge(a, "f", b));   // different label is a new edge
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(Graph, AdjacencyIsIndexed) {
  Graph g;
  NodeId a = g.AddNode("n"), b = g.AddNode("n"), c = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.AddEdge(a, "e", c);
  g.AddEdge(b, "f", a);
  EXPECT_EQ(g.OutDegree(a), 2u);
  EXPECT_EQ(g.InDegree(a), 1u);
  EXPECT_TRUE(g.HasEdge(a, Sym("e"), b));
  EXPECT_FALSE(g.HasEdge(b, Sym("e"), a));
  EXPECT_TRUE(g.HasEdge(b, kWildcard, a));  // wildcard = any label
}

TEST(Graph, DisjointUnionOffsetsIds) {
  Graph g1;
  NodeId a = g1.AddNode("x");
  g1.SetAttr(a, "k", Value(1));
  Graph g2;
  NodeId b = g2.AddNode("y");
  NodeId c = g2.AddNode("y");
  g2.AddEdge(b, "e", c);
  NodeId offset = g1.DisjointUnion(g2);
  EXPECT_EQ(offset, 1u);
  EXPECT_EQ(g1.NumNodes(), 3u);
  EXPECT_TRUE(g1.HasEdge(offset + b, Sym("e"), offset + c));
}

TEST(Graph, SetAttrReportsChange) {
  Graph g;
  NodeId v = g.AddNode("n");
  EXPECT_TRUE(g.SetAttr(v, "a", Value(1)));   // new attribute
  EXPECT_FALSE(g.SetAttr(v, "a", Value(1)));  // no-op rewrite
  EXPECT_TRUE(g.SetAttr(v, "a", Value(2)));   // actual change
}

TEST(LabelMatches, WildcardIsAsymmetric) {
  Label tau = Sym("tau");
  EXPECT_TRUE(LabelMatches(kWildcard, tau));
  EXPECT_FALSE(LabelMatches(tau, kWildcard));  // concrete does not match '_'
  EXPECT_TRUE(LabelMatches(tau, tau));
  EXPECT_TRUE(LabelMatches(kWildcard, kWildcard));
}

TEST(Pattern, BuildsAndPrints) {
  Pattern q;
  VarId x = q.AddVar("x", "person");
  VarId y = q.AddVar("y", "product");
  q.AddEdge(x, "create", y);
  EXPECT_EQ(q.NumVars(), 2u);
  EXPECT_EQ(q.FindVar("y"), y);
  EXPECT_EQ(q.FindVar("zzz"), Pattern::kNoVar);
  EXPECT_NE(q.ToString().find("create"), std::string::npos);
}

TEST(Pattern, ToGraphKeepsWildcard) {
  Pattern q;
  q.AddVar("x", kWildcard);
  q.AddVar("y", "t");
  Graph g = q.ToGraph();
  EXPECT_EQ(g.label(0), kWildcard);
  EXPECT_EQ(g.label(1), Sym("t"));
  EXPECT_TRUE(g.attrs(0).empty());  // F_A empty in canonical graphs
}

TEST(Pattern, ComponentIds) {
  Pattern q;
  VarId a = q.AddVar("a", "t");
  VarId b = q.AddVar("b", "t");
  VarId c = q.AddVar("c", "t");
  q.AddEdge(a, "e", b);
  EXPECT_TRUE(q.SameComponent(a, b));
  EXPECT_FALSE(q.SameComponent(a, c));
}

TEST(Pattern, TwoCopyLayoutDetected) {
  Pattern half;
  VarId x = half.AddVar("x", "album");
  VarId y = half.AddVar("x'", "artist");
  half.AddEdge(x, "by", y);
  Pattern doubled = half;
  doubled.DisjointUnion(half, "2");
  EXPECT_TRUE(doubled.IsTwoCopyLayout());
  EXPECT_FALSE(half.IsTwoCopyLayout());
  // Cross edges break the layout.
  Pattern crossed = doubled;
  crossed.AddEdge(0, "e", 2);
  EXPECT_FALSE(crossed.IsTwoCopyLayout());
}

TEST(GraphIo, RoundTrip) {
  Graph g;
  NodeId a = g.AddNode("person");
  g.SetAttr(a, "name", Value("Ann \"A\""));
  g.SetAttr(a, "age", Value(30));
  g.SetAttr(a, "score", Value(1.5));
  g.SetAttr(a, "vip", Value(true));
  NodeId b = g.AddNode("person");
  g.AddEdge(a, "knows", b);
  auto parsed = ParseGraph(SerializeGraph(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), g);
}

TEST(GraphIo, ParsesComments) {
  auto g = ParseGraph("# header\nnode 0 n a=1 # trailing\nnode 1 n\n"
                      "edge 0 e 1\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumNodes(), 2u);
  EXPECT_EQ(g.value().NumEdges(), 1u);
}

TEST(GraphIo, RejectsBadInput) {
  EXPECT_FALSE(ParseGraph("node 5 n\n").ok());       // non-dense id
  EXPECT_FALSE(ParseGraph("edge 0 e 1\n").ok());     // endpoint out of range
  EXPECT_FALSE(ParseGraph("blob x\n").ok());         // unknown directive
  EXPECT_FALSE(ParseGraph("node 0 n a=\"x\n").ok()); // unterminated string
}

TEST(GraphIo, ParseValueForms) {
  EXPECT_EQ(ParseValue("42").value(), Value(42));
  EXPECT_EQ(ParseValue("-3").value(), Value(-3));
  EXPECT_EQ(ParseValue("2.5").value(), Value(2.5));
  EXPECT_EQ(ParseValue("true").value(), Value(true));
  EXPECT_EQ(ParseValue("\"hi\"").value(), Value("hi"));
  EXPECT_FALSE(ParseValue("12abc").ok());
}

}  // namespace
}  // namespace ged
