// Tests for the incremental validation engine (src/incr/): GraphDelta
// commit semantics, the multi-pin enumeration helper, violation-set
// maintenance, and the core exactness property — the incrementally
// maintained report equals a from-scratch Validate() after every commit.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "match/matcher.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "reason/validation.h"
#include "reference_compare.h"

namespace ged {
namespace {

void ExpectReportsEqual(const ValidationReport& incr,
                        const ValidationReport& full) {
  EXPECT_EQ(incr.satisfied, full.satisfied);
  ASSERT_EQ(incr.violations.size(), full.violations.size());
  EXPECT_EQ(incr.violations, full.violations);
}

// ----- GraphDelta -----------------------------------------------------------

TEST(GraphDelta, ProvisionalIdsExtendTheBase) {
  Graph g;
  NodeId a = g.AddNode("n");
  GraphDelta d(g);
  NodeId b = d.AddNode("n");
  NodeId c = d.AddNode("m");
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  d.AddEdge(a, "e", b);
  d.AddEdge(b, "e", c);
  auto applied = d.Apply(&g);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_TRUE(g.HasEdge(a, Sym("e"), b));
  EXPECT_TRUE(g.HasEdge(b, Sym("e"), c));
  EXPECT_EQ(applied.value().nodes_added, 2u);
  EXPECT_EQ(applied.value().edges_added, 2u);
  EXPECT_EQ(applied.value().touched, (std::vector<NodeId>{0, 1, 2}));
}

TEST(GraphDelta, RejectsStaleBase) {
  Graph g;
  g.AddNode("n");
  GraphDelta d(g);
  g.AddNode("n");  // out-of-band mutation: the delta's base is now stale
  EXPECT_FALSE(d.Check(g).ok());
  Graph before = g;
  auto applied = d.Apply(&g);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(g, before);
}

TEST(GraphDelta, RejectsOutOfRangeIdsWithoutApplyingAnything) {
  Graph g;
  NodeId a = g.AddNode("n");
  GraphDelta d(g);
  NodeId b = d.AddNode("n");
  d.AddEdge(a, "e", b);
  d.AddEdge(a, "e", 99);  // beyond base + provisional range
  Graph before = g;
  auto applied = d.Apply(&g);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g, before);  // atomic: the valid ops did not land either
}

TEST(GraphDelta, TouchedExcludesNoOps) {
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  g.AddEdge(a, "e", b);
  g.SetAttr(a, "k", Value(1));
  GraphDelta d(g);
  d.AddEdge(a, "e", b);           // already present: no-op
  d.SetAttr(a, "k", Value(1));    // equal value: no-op
  d.SetAttr(b, "k", Value(2));    // real change
  auto applied = d.Apply(&g);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value().edges_added, 0u);
  EXPECT_EQ(applied.value().attrs_changed, 1u);
  EXPECT_EQ(applied.value().touched, (std::vector<NodeId>{b}));
}

TEST(GraphDelta, ClassifiesChangesForIncrementalRescan) {
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  g.SetAttr(a, "k", Value(1));
  GraphDelta d(g);
  NodeId c = d.AddNode("n");
  d.AddEdge(a, "e", b);       // new edge between pre-existing nodes
  d.AddEdge(b, "e", c);       // new edge into a new node: not a cross edge
  d.SetAttr(a, "k", Value(2));  // changed pre-existing node
  d.SetAttr(c, "k", Value(3));  // attr on a new node: covered by new_nodes
  auto applied = d.Apply(&g);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value().new_nodes, (std::vector<NodeId>{c}));
  EXPECT_EQ(applied.value().changed_nodes, (std::vector<NodeId>{a}));
  ASSERT_EQ(applied.value().cross_edges.size(), 1u);
  EXPECT_EQ(applied.value().cross_edges[0], (EdgeTriple{a, Sym("e"), b}));
  EXPECT_EQ(applied.value().touched, (std::vector<NodeId>{a, b, c}));
}

TEST(IncrementalValidator, ParallelEdgeDoesNotDuplicateViolations) {
  // A forbidding GED over a wildcard-labeled edge: the violation exists via
  // the first edge; inserting a parallel edge with another label creates no
  // new match, and the edge-seeded re-scan must not double-list it.
  Graph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  g.AddEdge(a, "e", b);
  Pattern q;
  VarId x = q.AddVar("x", "n");
  VarId y = q.AddVar("y", "n");
  q.AddEdge(x, kWildcard, y);
  std::vector<Ged> sigma;
  sigma.emplace_back("forbid", std::move(q), std::vector<Literal>{},
                     std::vector<Literal>{}, /*y_is_false=*/true);
  IncrementalValidator v(g, sigma);
  ASSERT_EQ(v.report().violations.size(), 1u);
  GraphDelta d = v.NewDelta();
  d.AddEdge(a, "f", b);  // parallel edge between the same old nodes
  ASSERT_TRUE(v.Commit(d).ok());
  EXPECT_EQ(v.report().violations.size(), 1u);
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

TEST(IncrementalValidator, CrossEdgeCreatesViolation) {
  // φ4's shape: the forbidden child+parent cycle materializes only when the
  // second (cross) edge between two old nodes arrives.
  Graph g;
  NodeId x = g.AddNode("person");
  NodeId y = g.AddNode("person");
  g.AddEdge(x, "child", y);
  IncrementalValidator v(g, Example1Geds());
  EXPECT_TRUE(v.report().satisfied);
  GraphDelta d = v.NewDelta();
  d.AddEdge(x, "parent", y);
  ASSERT_TRUE(v.Commit(d).ok());
  EXPECT_FALSE(v.report().satisfied);
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

TEST(GraphDelta, DeduplicatesEdgesWithinTheBatch) {
  GraphDelta d(size_t{2});
  EXPECT_TRUE(d.AddEdge(0, "e", 1));
  EXPECT_FALSE(d.AddEdge(0, "e", 1));
  EXPECT_EQ(d.NumNewEdges(), 1u);
}

TEST(GraphDelta, LastAttrWriteWins) {
  Graph g;
  NodeId a = g.AddNode("n");
  GraphDelta d(g);
  d.SetAttr(a, "k", Value(1));
  d.SetAttr(a, "k", Value(2));
  ASSERT_TRUE(d.Apply(&g).ok());
  EXPECT_EQ(*g.attr(a, Sym("k")), Value(2));
}

// ----- EnumerateMatchesTouching ---------------------------------------------

// Oracle: matches of q binding at least one touched node, via the reference
// validator's full enumeration plus filter.
std::vector<Match> TouchingOracle(const Pattern& q, const Graph& g,
                                  const std::vector<NodeId>& touched) {
  std::vector<Match> all;
  reference::ForEachMatch(q, g, /*injective=*/false,
                          [&](const std::vector<NodeId>& h) {
                            all.push_back(h);
                          });
  std::vector<Match> out;
  for (const Match& h : all) {
    bool touches = false;
    for (NodeId v : h) {
      if (std::binary_search(touched.begin(), touched.end(), v)) {
        touches = true;
        break;
      }
    }
    if (touches) out.push_back(h);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EnumerateMatchesTouching, EqualsFilteredFullEnumeration) {
  RandomGraphParams gp;
  gp.num_nodes = 60;
  gp.seed = 5;
  Graph g = RandomPropertyGraph(gp);
  Pattern q;
  VarId x = q.AddVar("x", GenNodeLabel(0));
  VarId y = q.AddVar("y", kWildcard);
  VarId z = q.AddVar("z", GenNodeLabel(1));
  q.AddEdge(x, GenEdgeLabel(0), y);
  q.AddEdge(y, GenEdgeLabel(1), z);
  const FrozenGraph f = FrozenGraph::Freeze(g);

  std::mt19937 rng(17);
  for (int round = 0; round < 10; ++round) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng() % 5 == 0) touched.push_back(v);
    }
    std::vector<Match> got;
    EnumerateMatchesTouching(q, f, touched, {}, [&](const Match& h) {
      got.push_back(h);
      return true;
    });
    // Exactly-once delivery: no duplicates before sorting.
    std::vector<Match> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    EXPECT_EQ(sorted, TouchingOracle(q, g, touched));
  }
}

TEST(EnumerateMatchesTouching, EmptyTouchedOrPatternYieldsNothing) {
  Graph g;
  g.AddNode("n");
  Pattern q;
  q.AddVar("x", "n");
  uint64_t calls = 0;
  auto count = [&](const Match&) {
    ++calls;
    return true;
  };
  const FrozenGraph f = FrozenGraph::Freeze(g);
  EnumerateMatchesTouching(q, f, {}, {}, count);
  EXPECT_EQ(calls, 0u);
  Pattern empty;
  EnumerateMatchesTouching(empty, f, {0}, {}, count);
  EXPECT_EQ(calls, 0u);
}

TEST(EnumerateMatchesTouching, HonorsMaxMatchesOnDeliveredMatches) {
  Graph g;
  for (int i = 0; i < 10; ++i) g.AddNode("n");
  Pattern q;
  q.AddVar("x", "n");
  std::vector<NodeId> touched{0, 1, 2, 3, 4};
  MatchOptions opts;
  opts.max_matches = 3;
  uint64_t calls = 0;
  MatchStats stats = EnumerateMatchesTouching(q, FrozenGraph::Freeze(g),
                                              touched, opts,
                                              [&](const Match&) {
                                                ++calls;
                                                return true;
                                              });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(stats.matches, 3u);
}

// ----- violation-set maintenance helpers ------------------------------------

TEST(ViolationMaintenance, EraseAndMergeKeepTheSortedInvariant) {
  std::vector<Violation> base = {
      {0, {1, 2}}, {0, {5, 6}}, {1, {2, 3}}, {2, {9, 9}}};
  std::vector<NodeId> touched = {2, 9};
  EXPECT_EQ(EraseViolationsTouching(&base, touched), 3u);
  ASSERT_EQ(base.size(), 1u);
  EXPECT_EQ(base[0], (Violation{0, {5, 6}}));
  MergeViolations(&base, {{0, {2, 7}}, {1, {2, 3}}, {2, {9, 9}}});
  std::vector<Violation> sorted = base;
  SortViolationList(&sorted);
  EXPECT_EQ(base, sorted);
  EXPECT_EQ(base.size(), 4u);
}

// ----- IncrementalValidator: exactness property -----------------------------

// Appends a random append-only batch shaped like the generator's universe.
GraphDelta RandomDelta(const Graph& g, std::mt19937* rng, size_t num_ops,
                       const RandomGraphParams& gp) {
  GraphDelta d(g);
  auto pick_node = [&](size_t extent) {
    return static_cast<NodeId>((*rng)() % extent);
  };
  size_t extent = g.NumNodes();
  for (size_t i = 0; i < num_ops; ++i) {
    switch ((*rng)() % 10) {
      case 0:
      case 1:
      case 2: {  // new node, sometimes with an attribute
        NodeId v = d.AddNode(GenNodeLabel((*rng)() % gp.num_node_labels));
        extent = v + 1;
        if ((*rng)() % 2 == 0) {
          d.SetAttr(v, GenAttr((*rng)() % gp.num_attrs),
                    Value(static_cast<int64_t>((*rng)() % gp.num_values)));
        }
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6: {  // new edge among base + pending nodes
        d.AddEdge(pick_node(extent),
                  GenEdgeLabel((*rng)() % gp.num_edge_labels),
                  pick_node(extent));
        break;
      }
      default: {  // attribute write (sometimes a no-op rewrite)
        d.SetAttr(pick_node(extent), GenAttr((*rng)() % gp.num_attrs),
                  Value(static_cast<int64_t>((*rng)() % gp.num_values)));
        break;
      }
    }
  }
  return d;
}

void RunPropertyStream(unsigned num_threads, unsigned seed,
                       MatchSemantics semantics) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.avg_out_degree = 3.0;
  gp.seed = seed;
  RandomGedParams rp;
  rp.kind = GedClassKind::kGed;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = seed + 1;
  ValidationOptions opts;
  opts.num_threads = num_threads;
  opts.semantics = semantics;
  IncrementalValidator v(RandomPropertyGraph(gp), RandomGeds(4, rp), opts);
  // The live report equals both the engine's from-scratch report and the
  // reference validator's.
  auto expect_live_report_exact = [&]() {
    ExpectReportsEqual(v.report(), v.RevalidateFull());
    EXPECT_EQ(RefRows(v.report().violations),
              reference::Validate(v.graph(), v.sigma(), Injective(semantics))
                  .violations);
  };
  expect_live_report_exact();

  std::mt19937 rng(seed + 2);
  for (int commit = 0; commit < 8; ++commit) {
    GraphDelta d = RandomDelta(v.graph(), &rng, 12, gp);
    auto applied = v.Commit(d);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    expect_live_report_exact();
  }
}

TEST(IncrementalValidator, MatchesFullValidationAfterEveryCommitSerial) {
  RunPropertyStream(/*num_threads=*/1, /*seed=*/21,
                    MatchSemantics::kHomomorphism);
  RunPropertyStream(/*num_threads=*/1, /*seed=*/22,
                    MatchSemantics::kHomomorphism);
}

TEST(IncrementalValidator, MatchesFullValidationAfterEveryCommitParallel) {
  RunPropertyStream(/*num_threads=*/4, /*seed=*/23,
                    MatchSemantics::kHomomorphism);
}

TEST(IncrementalValidator, MatchesFullValidationUnderIsomorphismSerial) {
  RunPropertyStream(/*num_threads=*/1, /*seed=*/24,
                    MatchSemantics::kIsomorphism);
  RunPropertyStream(/*num_threads=*/1, /*seed=*/25,
                    MatchSemantics::kIsomorphism);
}

TEST(IncrementalValidator, MatchesFullValidationUnderIsomorphismParallel) {
  RunPropertyStream(/*num_threads=*/4, /*seed=*/26,
                    MatchSemantics::kIsomorphism);
}

TEST(IncrementalValidator, MaintainsScenarioReportsUnderIsomorphism) {
  // The music base is the scenario where the two semantics genuinely
  // diverge (ψ1/ψ3 are near-vacuous under isomorphism, §3): the maintained
  // report must still track the from-scratch oracle exactly.
  MusicInstance music = GenMusicBase(MusicParams{});
  ValidationOptions opts;
  opts.semantics = MatchSemantics::kIsomorphism;
  IncrementalValidator v(music.graph, MusicKeys(), opts);
  ExpectReportsEqual(v.report(), v.RevalidateFull());

  GraphDelta d = v.NewDelta();
  NodeId album = d.AddNode("album");
  d.SetAttr(album, "title", Value("Dup Title"));
  NodeId artist = d.AddNode("artist");
  d.SetAttr(artist, "name", Value("Dup Artist"));
  d.AddEdge(album, "by", artist);
  ASSERT_TRUE(v.Commit(d).ok());
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

TEST(IncrementalValidator, MaintainsScenarioReports) {
  // Knowledge base with seeded inconsistencies, then a stream of deltas that
  // both cures a violation (attribute fix) and plants a new one.
  KbInstance kb = GenKnowledgeBase(KbParams{});
  IncrementalValidator v(kb.graph, Example1Geds());
  EXPECT_FALSE(v.report().satisfied);
  ExpectReportsEqual(v.report(), v.RevalidateFull());

  // Plant a fresh wrong-creator violation: a video game created by a
  // psychologist (the Example 1 shape).
  GraphDelta d = v.NewDelta();
  NodeId game = d.AddNode("product");
  d.SetAttr(game, "type", Value("video game"));
  d.SetAttr(game, "title", Value("Another Blaster"));
  NodeId person = d.AddNode("person");
  d.SetAttr(person, "type", Value("psychologist"));
  d.SetAttr(person, "name", Value("Not A Programmer"));
  d.AddEdge(person, "create", game);
  size_t before = v.report().violations.size();
  ASSERT_TRUE(v.Commit(d).ok());
  EXPECT_GT(v.report().violations.size(), before);
  ExpectReportsEqual(v.report(), v.RevalidateFull());

  // Cure it: the creator turns out to be a programmer after all.
  GraphDelta fix = v.NewDelta();
  fix.SetAttr(person, "type", Value("programmer"));
  ASSERT_TRUE(v.Commit(fix).ok());
  ExpectReportsEqual(v.report(), v.RevalidateFull());
  EXPECT_EQ(v.last_commit().retracted, 1u);
}

TEST(IncrementalValidator, RejectsStaleDeltaWithoutChangingReport) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  IncrementalValidator v(kb.graph, Example1Geds());
  ValidationReport before = v.report();
  GraphDelta stale(v.graph().NumNodes() + 5);
  stale.AddNode("product");
  EXPECT_FALSE(v.Commit(stale).ok());
  ExpectReportsEqual(v.report(), before);
  EXPECT_EQ(v.graph().NumNodes(), kb.graph.NumNodes());
}

TEST(IncrementalValidator, SpamScenarioCatchesStreamedSpammer) {
  SocialParams sp;
  sp.spam_pairs = 0;  // start clean
  SocialInstance social = GenSocialNetwork(sp);
  IncrementalValidator v(social.graph, {SpamGed(sp.k, Value("free money"))});
  EXPECT_TRUE(v.report().satisfied);

  // Stream in a fake-account pair sharing k blogs, both posting the
  // telltale keyword; the unflagged half is the φ5 violation.
  GraphDelta d = v.NewDelta();
  NodeId spammer = d.AddNode("account");
  d.SetAttr(spammer, "is_fake", Value(int64_t{0}));
  NodeId shill = d.AddNode("account");
  d.SetAttr(shill, "is_fake", Value(int64_t{1}));
  NodeId z1 = d.AddNode("blog");
  d.SetAttr(z1, "keyword", Value("free money"));
  NodeId z2 = d.AddNode("blog");
  d.SetAttr(z2, "keyword", Value("free money"));
  d.AddEdge(spammer, "post", z1);
  d.AddEdge(shill, "post", z2);
  for (size_t i = 0; i < sp.k; ++i) {
    NodeId blog = d.AddNode("blog");
    d.AddEdge(spammer, "like", blog);
    d.AddEdge(shill, "like", blog);
  }
  ASSERT_TRUE(v.Commit(d).ok());
  EXPECT_FALSE(v.report().satisfied);
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

// ----- commit-epoch discipline ----------------------------------------------

TEST(IncrementalValidator, RejectsDeltaRecordedBeforeAnEdgeOnlyCommit) {
  // Regression: an edge-only commit preserves NumNodes, so the legacy
  // node-count precondition cannot see it — a delta recorded *before* that
  // commit would apply against a different graph than it was recorded on.
  // The epoch stamp minted by NewDelta() must reject it cleanly.
  KbInstance kb = GenKnowledgeBase(KbParams{});
  IncrementalValidator v(kb.graph, Example1Geds());
  std::vector<NodeId> people, products;
  for (NodeId n = 0; n < v.graph().NumNodes(); ++n) {
    if (v.graph().label(n) == Sym("person")) people.push_back(n);
    if (v.graph().label(n) == Sym("product")) products.push_back(n);
  }
  ASSERT_GE(people.size(), 2u);
  ASSERT_GE(products.size(), 2u);
  // A creator pair the generator did not wire up (person 0 did not create
  // the last product, nor person 1 the second-to-last).
  NodeId pa = people[0], qa = products[products.size() - 1];
  NodeId pb = people[1], qb = products[products.size() - 2];
  ASSERT_FALSE(v.graph().HasEdge(pa, Sym("create"), qa));
  ASSERT_FALSE(v.graph().HasEdge(pb, Sym("create"), qb));

  GraphDelta stale = v.NewDelta();  // recorded at epoch E
  stale.AddEdge(pa, "create", qa);

  GraphDelta edge_only = v.NewDelta();  // also epoch E; commits first
  edge_only.AddEdge(pb, "create", qb);
  ASSERT_TRUE(v.Commit(edge_only).ok());
  EXPECT_EQ(v.commit_epoch(), 1u);

  // Same node count, different graph: only the epoch stamp catches it.
  ValidationReport before = v.report();
  size_t nodes_before = v.graph().NumNodes();
  auto applied = v.Commit(stale);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v.graph().NumNodes(), nodes_before);
  EXPECT_FALSE(v.graph().HasEdge(pa, Sym("create"), qa));
  ExpectReportsEqual(v.report(), before);
  EXPECT_EQ(v.commit_epoch(), 1u);  // a rejected commit does not advance it

  // A fresh delta with the same content sails through.
  GraphDelta retry = v.NewDelta();
  retry.AddEdge(pa, "create", qa);
  ASSERT_TRUE(v.Commit(retry).ok());
  EXPECT_EQ(v.commit_epoch(), 2u);
}

TEST(IncrementalValidator, UnstampedDeltasKeepTheLegacyCheck) {
  // Standalone GraphDelta usage (no NewDelta) stays commit-able as long as
  // the node count lines up — the pre-epoch contract.
  KbInstance kb = GenKnowledgeBase(KbParams{});
  IncrementalValidator v(kb.graph, Example1Geds());
  GraphDelta d(v.graph());
  NodeId p = d.AddNode("product");
  d.SetAttr(p, "type", Value("book"));
  EXPECT_FALSE(d.bound_epoch().has_value());
  ASSERT_TRUE(v.Commit(d).ok());
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

// ----- commit-stats accounting ----------------------------------------------

TEST(IncrementalValidator, AddedEqualsReportGrowthPlusRetracted) {
  // stats_.added counts genuinely novel violations on every commit path —
  // the reconcile (sort/unique/set-difference against the live report) runs
  // whether or not the delta carried cross edges, so the identity
  //   added == (report growth) + retracted
  // holds on each commit of a mixed random stream.
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.avg_out_degree = 3.0;
  gp.seed = 77;
  RandomGedParams rp;
  rp.kind = GedClassKind::kGed;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 78;
  IncrementalValidator v(RandomPropertyGraph(gp), RandomGeds(4, rp));
  std::mt19937 rng(79);
  for (int commit = 0; commit < 10; ++commit) {
    size_t size_before = v.report().violations.size();
    GraphDelta d = RandomDelta(v.graph(), &rng, 12, gp);
    ASSERT_TRUE(v.Commit(d).ok());
    size_t growth = v.report().violations.size() - size_before +
                    v.last_commit().retracted;
    EXPECT_EQ(v.last_commit().added, growth) << "commit " << commit;
    ExpectReportsEqual(v.report(), v.RevalidateFull());
  }
}

// ----- the leapfrog join engages on the overlay (ablation) ------------------

TEST(IncrementalValidator, IntersectionEngagesOnOverlayCommits) {
  // Commit re-scans run on the overlay's CSR spans, so the leapfrog kernel
  // must actually fire on a dense commit: lf_rounds strictly grows.
  DenseParams dp;
  dp.num_members = 128;
  dp.community_size = 32;
  dp.follows_per_member = 12;
  ObsSession session;
  ValidationOptions opts;
  opts.obs = session.Options();
  DenseInstance dense = GenDenseCommunity(dp);
  IncrementalValidator v(dense.graph, DenseCliqueGeds(), opts);
  auto lf_rounds = [&session]() {
    return session.Metrics()
        .Snapshot()
        .metrics[static_cast<size_t>(EngineMetric::kMatchLfRounds)]
        .value;
  };
  uint64_t rounds_before = lf_rounds();
  GraphDelta d = v.NewDelta();
  std::mt19937 rng(5);
  for (int i = 0; i < 24; ++i) {  // a dense intra-community burst
    d.AddEdge(static_cast<NodeId>(rng() % 32), "follows",
              static_cast<NodeId>(rng() % 32));
  }
  ASSERT_TRUE(v.Commit(d).ok());
  EXPECT_GT(lf_rounds(), rounds_before)
      << "leapfrog never engaged on an overlay commit";
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

TEST(IncrementalValidator, InertLeapfrogPolicyIsRejected) {
  // A forced kernel backend under join=pick_smallest can never run: the
  // pick-smallest generator never dispatches an intersection kernel.
  // Create() rejects the inert combination before any work starts.
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ValidationOptions opts;
  opts.policy.join = JoinStrategy::kPickSmallest;
  opts.policy.kernel = KernelBackend::kScalar;
  auto rejected = IncrementalValidator::Create(kb.graph, Example1Geds(), opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("join=pick_smallest"),
            std::string::npos)
      << rejected.status().message();

  // The same kernel under join=auto is honored as stated.
  opts.policy.join = JoinStrategy::kAuto;
  auto accepted = IncrementalValidator::Create(kb.graph, Example1Geds(), opts);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted.value()->policy().kernel, KernelBackend::kScalar);
  EXPECT_EQ(accepted.value()->policy().join, JoinStrategy::kAuto);

  // The plain constructor cannot report failure, so it degrades the
  // invalid policy to the nearest valid one and says so through the
  // structured log.
  ObsSession session;
  std::vector<std::string> lines;
  LoggerOptions lopts;
  lopts.min_level = LogLevel::kError;
  lopts.sink = [&lines](const std::string& line) { lines.push_back(line); };
  session.Log().Configure(std::move(lopts));
  opts.obs = session.Options();
  opts.policy.join = JoinStrategy::kPickSmallest;
  IncrementalValidator degraded(kb.graph, Example1Geds(), opts);
  EXPECT_EQ(degraded.policy().join, JoinStrategy::kAuto);
  EXPECT_EQ(degraded.policy().kernel, KernelBackend::kAuto);
  bool logged = false;
  for (const std::string& line : lines) {
    if (line.find("invalid_execution_policy") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
  ExpectReportsEqual(degraded.report(), degraded.RevalidateFull());
}

TEST(IncrementalValidator, DestructorJoinsInFlightRefreeze) {
  // Destroying the validator immediately after a cutoff-triggering commit
  // must join the background re-freeze worker, never detach it: a detached
  // worker would race the destructor over the overlay and (under TSan,
  // which covers this suite) report the window. Loop to widen the race.
  KbInstance kb = GenKnowledgeBase(KbParams{});
  for (int round = 0; round < 8; ++round) {
    ValidationOptions opts;
    opts.overlay_refreeze_cutoff = 1;
    auto v = std::make_unique<IncrementalValidator>(kb.graph, Example1Geds(),
                                                    opts);
    GraphDelta d = v->NewDelta();
    NodeId p = d.AddNode("person");
    d.SetAttr(p, "round", Value(static_cast<int64_t>(round)));
    ASSERT_TRUE(v->Commit(d).ok());
    // The worker is (very likely) still freezing; destruction must block
    // on it rather than leave it running against freed state.
    v.reset();
  }
}

}  // namespace
}  // namespace ged
