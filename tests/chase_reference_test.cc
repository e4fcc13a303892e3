// The engine's chase against the naive reference chase (tests/reference/).
//
// Theorem 1: every terminal chasing sequence of G by Σ yields the same
// result, so the semi-naive, plan-bucketed Chase must agree with the naive
// full-rescan oracle under any application order — on validity, on the
// final Eq (CanonicalSignature) and on the size of the quotient G_Eq. Each
// input runs under order_seed 0 (deterministic) and three shuffled orders.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "axiom/checker.h"
#include "axiom/generator.h"
#include "chase/chase.h"
#include "ged/canonical.h"
#include "ged/parser.h"
#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "reason/implication.h"
#include "reference/reference_chase.h"

namespace ged {
namespace {

constexpr unsigned kOrderSeeds[] = {0, 3, 17, 91};

void ExpectAgreesWithReference(const Graph& g, const std::vector<Ged>& sigma,
                               const EqRel* init, const std::string& what) {
  reference::RefChaseResult ref = reference::Chase(g, sigma, init);
  for (unsigned order_seed : kOrderSeeds) {
    ChaseOptions opts;
    opts.order_seed = order_seed;
    ChaseResult res = Chase(g, sigma, init, opts);
    ASSERT_EQ(res.consistent, ref.consistent)
        << what << ", order_seed " << order_seed << ": "
        << res.conflict_reason;
    if (!res.consistent) continue;  // ⊥ carries no Eq claim
    EXPECT_EQ(res.eq.CanonicalSignature(), ref.eq.CanonicalSignature())
        << what << ", order_seed " << order_seed;
    EXPECT_EQ(res.coercion.graph.NumNodes(), ref.quotient_size)
        << what << ", order_seed " << order_seed;
    // The result's coercion is the one of its final Eq.
    Coercion built = BuildCoercion(res.eq);
    EXPECT_EQ(res.coercion.node_map, built.node_map) << what;
    EXPECT_EQ(res.coercion.rep, built.rep) << what;
    EXPECT_EQ(res.coercion.graph.NumEdges(), built.graph.NumEdges()) << what;
    for (NodeId q = 0; q < built.graph.NumNodes(); ++q) {
      EXPECT_EQ(res.coercion.graph.label(q), built.graph.label(q)) << what;
      auto names = [](const FrozenGraph& f, NodeId v) {
        return std::vector<AttrId>(f.AttrNames(v).begin(),
                                   f.AttrNames(v).end());
      };
      auto values = [](const FrozenGraph& f, NodeId v) {
        return std::vector<Value>(f.AttrValues(v).begin(),
                                  f.AttrValues(v).end());
      };
      EXPECT_EQ(names(res.coercion.graph, q), names(built.graph, q)) << what;
      EXPECT_EQ(values(res.coercion.graph, q), values(built.graph, q))
          << what;
    }
  }
}

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

RandomGraphParams SmallGraph(unsigned seed) {
  RandomGraphParams p;
  p.num_nodes = 10;
  p.avg_out_degree = 2.0;
  p.num_node_labels = 2;
  p.num_edge_labels = 2;
  p.num_attrs = 2;
  p.num_values = 3;
  p.seed = seed;
  return p;
}

constexpr GedClassKind kClasses[] = {GedClassKind::kGfdx, GedClassKind::kGfd,
                                     GedClassKind::kGedx, GedClassKind::kGed};

// n copies of the Fig. 2 gadget: two accounts with A = 1, each with an
// f-edge to a satellite (address / phone).
Graph Fig2Scaled(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    NodeId v1 = g.AddNode("account");
    g.SetAttr(v1, "A", Value(1));
    NodeId v2 = g.AddNode("account");
    g.SetAttr(v2, "A", Value(1));
    g.AddEdge(v1, "f", g.AddNode("address"));
    g.AddEdge(v2, "f", g.AddNode("phone"));
  }
  return g;
}

TEST(ChaseReference, MusicKeysInstances) {
  std::vector<Ged> keys = MusicKeys();
  for (unsigned seed : {1u, 2u, 3u, 4u}) {
    MusicParams p;
    p.num_artists = 10;
    p.dup_albums = 4;
    p.dup_artists = 3;
    p.seed = seed;
    MusicInstance music = GenMusicBase(p);
    ExpectAgreesWithReference(music.graph, keys, nullptr,
                              "music seed " + std::to_string(seed));
    EXPECT_EQ(Chase(music.graph, keys).coercion.graph.NumNodes(),
              music.true_entities)
        << "music seed " << seed;
  }
}

TEST(ChaseReference, Fig2Scaled) {
  auto merge = ParseGeds(R"(
    ged phi1 {
      match (x:account), (y:account)
      where x.A = y.A
      then  x.id = y.id
    })");
  auto conflict = ParseGeds(R"(
    ged phi1 {
      match (x:account), (y:account)
      where x.A = y.A
      then  x.id = y.id
    }
    ged phi2 {
      match (x:account)-[f]->(y:_), (z:account)-[f]->(w:_)
      where x.A = z.A
      then  y.id = w.id
    })");
  ASSERT_TRUE(merge.ok() && conflict.ok());
  for (size_t n : {1u, 2u, 5u}) {
    Graph g = Fig2Scaled(n);
    ExpectAgreesWithReference(g, merge.value(), nullptr,
                              "fig2 merge x" + std::to_string(n));
    ExpectAgreesWithReference(g, conflict.value(), nullptr,
                              "fig2 conflict x" + std::to_string(n));
  }
}

TEST(ChaseReference, TermClassMergeAloneIsAChange) {
  // Round 1 creates k on p1, q, p2 (one class) and the a-classes
  // {p0.a, p1.a}, {p3.a, p2.a}. Round 2 merges p1 with p2, which merges the
  // two a-classes: p0's and p3's classes change only in a term root. Round
  // 3 must still re-check (p0, p3) for `same_a`, whose pattern binds
  // neither merged node.
  auto sigma = ParseGeds(R"(
    ged same_a {
      match (x:s), (y:s)
      where x.a = y.a
      then  x.id = y.id
    }
    ged same_k {
      match (x:n)-[f]->(z:m), (y:n)-[f]->(z)
      where x.k = y.k
      then  x.id = y.id
    }
    ged share_k {
      match (x:n)-[f]->(z:m)
      then  x.k = z.k
    }
    ged share_a {
      match (x:s)-[e]->(y:n)
      then  x.a = y.a
    })");
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  Graph g;
  NodeId p0 = g.AddNode("s");
  NodeId p1 = g.AddNode("n");
  NodeId p2 = g.AddNode("n");
  NodeId p3 = g.AddNode("s");
  NodeId q = g.AddNode("m");
  g.AddEdge(p0, "e", p1);
  g.AddEdge(p3, "e", p2);
  g.AddEdge(p1, "f", q);
  g.AddEdge(p2, "f", q);
  ExpectAgreesWithReference(g, sigma.value(), nullptr, "term-class merge");
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  EXPECT_TRUE(res.eq.SameNode(p0, p3));
  EXPECT_GE(res.rounds, 3u);
}

TEST(ChaseReference, ConstantBindingAloneIsAChange) {
  // Round 1 creates the unbound class {p.a, r.a} and binds r.k = 1. Round 2
  // checks (p, q) for `use` before `bind` binds 5 to p.a's class, whose
  // term root stays put: p's class changes only in a bound constant. Round
  // 3 must still re-check (p, q).
  auto sigma = ParseGeds(R"(
    ged use {
      match (x:s), (y:t)
      where x.a = 5
      then  y.b = 1
    }
    ged bind {
      match (x:s)-[e]->(z:u)
      where z.k = 1
      then  x.a = 5
    }
    ged make_a {
      match (x:s)-[e]->(z:u)
      then  x.a = z.a
    }
    ged make_k {
      match (z:u)
      then  z.k = 1
    })");
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  Graph g;
  NodeId p = g.AddNode("s");
  NodeId q = g.AddNode("t");
  NodeId r = g.AddNode("u");
  g.AddEdge(p, "e", r);
  ExpectAgreesWithReference(g, sigma.value(), nullptr, "constant binding");
  ChaseResult res = Chase(g, sigma.value());
  ASSERT_TRUE(res.consistent);
  TermId b = res.eq.FindTerm(q, Sym("b"));
  ASSERT_NE(b, kNoTerm);
  EXPECT_EQ(*res.eq.TermConst(b), Value(1));
  EXPECT_GE(res.rounds, 3u);
}

TEST(ChaseReference, RandomGraphsAllClasses) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    Graph g = RandomPropertyGraph(SmallGraph(seed));
    for (GedClassKind kind : kClasses) {
      std::vector<Ged> sigma = RandomGeds(3, SmallRules(kind, seed));
      ExpectAgreesWithReference(
          g, sigma, nullptr,
          "seed " + std::to_string(seed) + " class " +
              std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(ChaseReference, SatisfiabilityCanonicalGraphs) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    for (GedClassKind kind : kClasses) {
      std::vector<Ged> sigma = RandomGeds(3, SmallRules(kind, seed + 37));
      CanonicalGraph canonical = BuildCanonicalGraph(sigma);
      ExpectAgreesWithReference(
          canonical.graph, sigma, nullptr,
          "G_Sigma seed " + std::to_string(seed) + " class " +
              std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(ChaseReference, ImplicationFromEqX) {
  size_t implied = 0;
  for (unsigned seed = 1; seed <= 12; ++seed) {
    std::vector<Ged> sigma =
        RandomGeds(2, SmallRules(GedClassKind::kGed, seed));
    for (const Ged& phi :
         RandomGeds(3, SmallRules(GedClassKind::kGed, seed + 1000))) {
      Graph gq = phi.pattern().ToGraph();
      EqRel eqx = BuildEqX(gq, phi.X());
      ExpectAgreesWithReference(gq, sigma, &eqx,
                                "G_Q seed " + std::to_string(seed) + " " +
                                    phi.ToString());
      // The proof generator replays the new chase's journal; the checker
      // must accept what it builds.
      if (!Implies(sigma, phi)) continue;
      ++implied;
      Result<Proof> proof = GenerateImplicationProof(sigma, phi);
      ASSERT_TRUE(proof.ok()) << proof.status().ToString();
      EXPECT_TRUE(CheckProof(sigma, proof.value()).ok());
      Status verified = VerifyProofOf(sigma, phi, proof.value());
      EXPECT_TRUE(verified.ok()) << verified.ToString();
    }
  }
  EXPECT_GT(implied, 0u) << "no implied case: the proof half checks nothing";
}

TEST(ChaseReference, CountersRepeatForASeed) {
  MusicParams p;
  p.num_artists = 10;
  p.seed = 7;
  MusicInstance music = GenMusicBase(p);
  std::vector<Ged> keys = MusicKeys();
  for (unsigned order_seed : kOrderSeeds) {
    ChaseOptions opts;
    opts.order_seed = order_seed;
    ChaseResult a = Chase(music.graph, keys, nullptr, opts);
    ChaseResult b = Chase(music.graph, keys, nullptr, opts);
    EXPECT_EQ(a.num_steps, b.num_steps) << "order_seed " << order_seed;
    EXPECT_EQ(a.rounds, b.rounds) << "order_seed " << order_seed;
    EXPECT_EQ(a.matches_checked, b.matches_checked)
        << "order_seed " << order_seed;
    EXPECT_GE(a.rounds, 2u) << "a merging chase ends with a quiet round";
  }
}

}  // namespace
}  // namespace ged
