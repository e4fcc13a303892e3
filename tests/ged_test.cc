// Unit tests for the GED core: literals, satisfaction, classification
// (GFD / GKey / GEDx / GFDx), violations, canonical graphs.

#include <gtest/gtest.h>

#include "ged/canonical.h"
#include "ged/ged.h"
#include "ged/parser.h"
#include "gen/scenarios.h"
#include "reason/validation.h"

namespace ged {
namespace {

Graph CreatorGraph(const char* product_type, const char* person_type) {
  Graph g;
  NodeId product = g.AddNode("product");
  g.SetAttr(product, "type", Value(product_type));
  NodeId person = g.AddNode("person");
  g.SetAttr(person, "type", Value(person_type));
  g.AddEdge(person, "create", product);
  return g;
}

Ged Phi1() { return Example1Geds()[0]; }

TEST(Literal, Factories) {
  Literal c = Literal::Const(0, Sym("a"), Value(5));
  EXPECT_EQ(c.kind, LiteralKind::kConst);
  Literal v = Literal::Var(0, Sym("a"), 1, Sym("b"));
  EXPECT_EQ(v.kind, LiteralKind::kVar);
  Literal i = Literal::Id(0, 1);
  EXPECT_EQ(i.kind, LiteralKind::kId);
  EXPECT_NE(c, v);
  EXPECT_EQ(i, Literal::Id(0, 1));
  EXPECT_NE(i, Literal::Id(1, 0));
}

TEST(Literal, SatisfactionOnGraph) {
  Graph g;
  NodeId a = g.AddNode("n");
  g.SetAttr(a, "k", Value(5));
  NodeId b = g.AddNode("n");
  g.SetAttr(b, "m", Value(5));
  const FrozenGraph f = FrozenGraph::Freeze(g);
  Match h = {a, b};
  EXPECT_TRUE(SatisfiesLiteral(f, h, Literal::Const(0, Sym("k"), Value(5))));
  EXPECT_FALSE(SatisfiesLiteral(f, h, Literal::Const(0, Sym("k"), Value(6))));
  // Missing attribute: not satisfied.
  EXPECT_FALSE(SatisfiesLiteral(f, h, Literal::Const(1, Sym("k"), Value(5))));
  EXPECT_TRUE(
      SatisfiesLiteral(f, h, Literal::Var(0, Sym("k"), 1, Sym("m"))));
  EXPECT_FALSE(
      SatisfiesLiteral(f, h, Literal::Var(0, Sym("k"), 1, Sym("zz"))));
  EXPECT_FALSE(SatisfiesLiteral(f, h, Literal::Id(0, 1)));
  EXPECT_TRUE(SatisfiesLiteral(f, {a, a}, Literal::Id(0, 1)));
}

TEST(Ged, Phi1DetectsWrongCreator) {
  Graph bad = CreatorGraph("video game", "psychologist");
  Graph good = CreatorGraph("video game", "programmer");
  Graph other = CreatorGraph("book", "psychologist");  // X not satisfied
  Ged phi1 = Phi1();
  EXPECT_FALSE(Validate(bad, {phi1}).satisfied);
  EXPECT_TRUE(Validate(good, {phi1}).satisfied);
  EXPECT_TRUE(Validate(other, {phi1}).satisfied);
  EXPECT_EQ(Validate(bad, {phi1}).violations.size(), 1u);
}

TEST(Ged, MissingAttributeInXMeansTriviallySatisfied) {
  // Paper §3 "Existence of attributes": if h(x) has no A-attribute and
  // x.A = c is in X, the match trivially satisfies X -> Y.
  Graph g = CreatorGraph("video game", "psychologist");
  Graph no_type = g;
  // Build a product without type.
  Graph g2;
  NodeId product = g2.AddNode("product");
  NodeId person = g2.AddNode("person");
  g2.AddEdge(person, "create", product);
  EXPECT_TRUE(Validate(g2, {Phi1()}).satisfied);
  (void)no_type;
}

TEST(Ged, MissingAttributeInYMeansViolation) {
  // If x.A = c is in Y, h(x) must *have* the attribute.
  auto r = ParseGed(R"(
    ged need_attr {
      match (x:t)
      then x.a = x.a
    })");
  ASSERT_TRUE(r.ok());
  Graph g;
  g.AddNode("t");
  EXPECT_FALSE(Validate(g, {r.value()}).satisfied);  // attribute absent
  Graph g2;
  NodeId v = g2.AddNode("t");
  g2.SetAttr(v, "a", Value(1));
  EXPECT_TRUE(Validate(g2, {r.value()}).satisfied);
}

TEST(Ged, ForbiddingGedViolatedByAnyMatchSatisfyingX) {
  Ged phi4 = Example1Geds()[3];
  Graph g;
  NodeId a = g.AddNode("person");
  NodeId b = g.AddNode("person");
  g.AddEdge(a, "child", b);
  EXPECT_TRUE(Validate(g, {phi4}).satisfied);
  g.AddEdge(a, "parent", b);
  EXPECT_FALSE(Validate(g, {phi4}).satisfied);
}

TEST(Ged, ClassificationFlags) {
  auto geds = Example1Geds();
  // φ1 carries constants, no ids: GFD but not GFDx.
  EXPECT_TRUE(geds[0].IsGfd());
  EXPECT_FALSE(geds[0].IsGfdx());
  EXPECT_FALSE(geds[0].IsGedx());
  // φ2 has only variable literals: GFDx.
  EXPECT_TRUE(geds[1].IsGfdx());
  EXPECT_TRUE(geds[1].IsGedx());
  // φ3 likewise.
  EXPECT_TRUE(geds[2].IsGfdx());
  // φ4 is forbidding.
  EXPECT_TRUE(geds[3].Classify().is_forbidding);
}

TEST(Ged, MusicKeysAreGkeys) {
  for (const Ged& key : MusicKeys()) {
    EXPECT_TRUE(key.IsGkey()) << key.ToString();
    EXPECT_TRUE(key.IsGedx()) << "keys carry no constants";
    EXPECT_FALSE(key.IsGfd()) << "keys carry id literals";
  }
}

TEST(Ged, MakeGkeyDoublesPattern) {
  Pattern half;
  VarId x = half.AddVar("x", "album");
  VarId xp = half.AddVar("x'", "artist");
  half.AddEdge(x, "by", xp);
  Ged key = MakeGkey("k", half, x, [&](VarId f) {
    return std::vector<Literal>{Literal::Var(x, Sym("t"), f + x, Sym("t"))};
  });
  EXPECT_EQ(key.pattern().NumVars(), 4u);
  EXPECT_EQ(key.pattern().NumEdges(), 2u);
  ASSERT_EQ(key.Y().size(), 1u);
  EXPECT_EQ(key.Y()[0], Literal::Id(0, 2));
}

TEST(Ged, ValidateRejectsBadLiterals) {
  Pattern q;
  q.AddVar("x", "t");
  Ged out_of_range("bad", q, {}, {Literal::Var(0, Sym("a"), 5, Sym("b"))});
  EXPECT_FALSE(out_of_range.Validate().ok());
  Ged id_attr("bad2", q, {}, {Literal::Const(0, Sym("id"), Value(1))});
  EXPECT_FALSE(id_attr.Validate().ok());
  Ged good("ok", q, {}, {Literal::Const(0, Sym("a"), Value(1))});
  EXPECT_TRUE(good.Validate().ok());
}

TEST(Ged, GkeyViaIsomorphismIsVacuous) {
  // The paper's §3 argument: under subgraph isomorphism ψ3-style keys catch
  // nothing because x and y cannot map to one node.
  auto keys = MusicKeys();
  const Ged& psi1 = keys[0];
  // Duplicate albums by the *same* artist node.
  Graph g;
  NodeId artist = g.AddNode("artist");
  g.SetAttr(artist, "name", Value("Bleach"));
  NodeId a1 = g.AddNode("album");
  g.SetAttr(a1, "title", Value("Bleach"));
  NodeId a2 = g.AddNode("album");
  g.SetAttr(a2, "title", Value("Bleach"));
  g.AddEdge(a1, "by", artist);
  g.AddEdge(a2, "by", artist);
  // Homomorphism: x' and y' can both map to the artist — violation found.
  EXPECT_FALSE(Validate(g, {psi1}).satisfied);
  // Isomorphism: x' ≠ y' forced, X (x'.id = y'.id) never satisfied.
  ValidationOptions iso;
  iso.semantics = MatchSemantics::kIsomorphism;
  EXPECT_TRUE(Validate(g, {psi1}, iso).satisfied);
}

TEST(Canonical, UnionOfPatternsWithOffsets) {
  auto geds = Example1Geds();
  CanonicalGraph cg = BuildCanonicalGraph(geds);
  size_t total_vars = 0;
  for (const Ged& g : geds) total_vars += g.pattern().NumVars();
  EXPECT_EQ(cg.graph.NumNodes(), total_vars);
  ASSERT_EQ(cg.offsets.size(), geds.size());
  EXPECT_EQ(cg.offsets[0], 0u);
  // F_A is empty everywhere.
  for (NodeId v = 0; v < cg.graph.NumNodes(); ++v) {
    EXPECT_TRUE(cg.graph.attrs(v).empty());
  }
}

TEST(Ged, ToStringIsReadable) {
  Ged phi1 = Phi1();
  std::string s = phi1.ToString();
  EXPECT_NE(s.find("phi1"), std::string::npos);
  EXPECT_NE(s.find("video game"), std::string::npos);
  EXPECT_NE(s.find("->"), std::string::npos);
}

}  // namespace
}  // namespace ged
