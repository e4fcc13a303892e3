// Snapshot-equivalence harness: every search layer run on the FrozenGraph
// CSR snapshot of a mutable Graph must produce what the reference validator
// of tests/reference/ computes from the Graph itself — match sets
// (matcher, under every candidate generator), violation reports and
// matches_checked (validation, through both the Graph entry point, which
// freezes, and a caller-held snapshot), under both homomorphism and
// isomorphism semantics, serial and parallel. The paper's scenarios
// (knowledge base, social network, music base) and random graph/Σ sweeps
// drive the comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/validation.h"
#include "reference_compare.h"

namespace ged {
namespace {

struct SemanticsCase {
  MatchSemantics semantics;
  const char* name;
};

const SemanticsCase kSemantics[] = {
    {MatchSemantics::kHomomorphism, "homomorphism"},
    {MatchSemantics::kIsomorphism, "isomorphism"},
};

// Sorted engine match set of q in the snapshot f.
std::vector<Match> SortedMatches(const Pattern& q, const FrozenGraph& f,
                                 const MatchOptions& opts) {
  std::vector<Match> ms = AllMatches(q, f, opts);
  std::sort(ms.begin(), ms.end());
  return ms;
}

// Sorted reference match set of q in g; with `touched`, only the matches
// binding one of its nodes.
std::vector<Match> ReferenceMatches(const Pattern& q, const Graph& g,
                                    MatchSemantics semantics,
                                    const std::vector<NodeId>* touched =
                                        nullptr) {
  std::vector<Match> ms;
  reference::ForEachMatch(q, g, Injective(semantics),
                          [&](const std::vector<NodeId>& h) {
                            if (touched != nullptr &&
                                std::none_of(h.begin(), h.end(),
                                             [&](NodeId v) {
                                               return std::binary_search(
                                                   touched->begin(),
                                                   touched->end(), v);
                                             })) {
                              return;
                            }
                            ms.push_back(h);
                          });
  std::sort(ms.begin(), ms.end());
  return ms;
}

void ExpectSameMatches(const Pattern& q, const Graph& g,
                       const std::string& what) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const SemanticsCase& sem : kSemantics) {
    const std::vector<Match> ref = ReferenceMatches(q, g, sem.semantics);
    MatchOptions opts;
    opts.semantics = sem.semantics;
    EXPECT_EQ(SortedMatches(q, f, opts), ref)
        << what << " [" << sem.name << "]";
    // The pick-smallest generator and the toggled-off configurations
    // exercise different candidate-generation code paths.
    opts.join = JoinStrategy::kPickSmallest;
    EXPECT_EQ(SortedMatches(q, f, opts), ref)
        << what << " pick-smallest [" << sem.name << "]";
    opts.degree_filter = false;
    opts.smart_order = false;
    EXPECT_EQ(SortedMatches(q, f, opts), ref)
        << what << " unoptimized [" << sem.name << "]";
  }
}

// Validation reports through the Graph entry point and a caller-held
// snapshot, serial and parallel, each equal to the reference validator's.
void ExpectSameReports(const Graph& g, const std::vector<Ged>& sigma,
                       const std::string& what) {
  FrozenGraph f = FrozenGraph::Freeze(g);
  for (const SemanticsCase& sem : kSemantics) {
    reference::RefReport ref =
        reference::Validate(g, sigma, Injective(sem.semantics));
    for (unsigned threads : {1u, 4u}) {
      ValidationOptions opts;
      opts.semantics = sem.semantics;
      opts.num_threads = threads;
      ValidationReport base = Validate(g, sigma, opts);
      ValidationReport snap = Validate(f, sigma, opts);
      std::string ctx = what + " [" + sem.name +
                        ", threads=" + std::to_string(threads) + "]";
      EXPECT_EQ(base.satisfied, snap.satisfied) << ctx;
      EXPECT_EQ(base.violations, snap.violations) << ctx;
      EXPECT_EQ(base.matches_checked, snap.matches_checked) << ctx;
      EXPECT_EQ(RefRows(snap.violations), ref.violations) << ctx;
      EXPECT_EQ(snap.matches_checked, ref.matches_checked) << ctx;
    }
  }
}

TEST(FrozenEquivalence, KnowledgeBaseScenario) {
  KbParams params;
  params.num_products = 60;
  params.num_countries = 15;
  params.num_species = 15;
  params.num_families = 15;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  ExpectSameReports(kb.graph, sigma, "knowledge base");
  for (const Ged& phi : sigma) {
    ExpectSameMatches(phi.pattern(), kb.graph,
                      "KB pattern " + phi.name());
  }
}

TEST(FrozenEquivalence, SocialNetworkScenario) {
  SocialParams params;
  params.num_accounts = 40;
  params.num_blogs = 80;
  SocialInstance net = GenSocialNetwork(params);
  Ged phi5 = SpamGed(2, Value("peculiar"));
  ExpectSameReports(net.graph, {phi5}, "social network");
  ExpectSameMatches(phi5.pattern(), net.graph, "Q5");
}

TEST(FrozenEquivalence, MusicBaseScenario) {
  MusicParams params;
  params.num_artists = 12;
  MusicInstance music = GenMusicBase(params);
  std::vector<Ged> sigma = MusicKeys();
  ExpectSameReports(music.graph, sigma, "music base");
  for (const Ged& psi : sigma) {
    ExpectSameMatches(psi.pattern(), music.graph,
                      "music key " + psi.name());
  }
}

TEST(FrozenEquivalence, RandomGraphsAndRulesets) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    RandomGraphParams gp;
    gp.num_nodes = 120;
    gp.avg_out_degree = 4.0;
    gp.num_node_labels = 3;
    gp.num_edge_labels = 2;
    gp.seed = seed;
    Graph g = RandomPropertyGraph(gp);
    RandomGedParams rp;
    rp.kind = GedClassKind::kGed;
    rp.pattern_vars = 3;
    rp.pattern_edges = 3;
    rp.num_node_labels = 3;
    rp.num_edge_labels = 2;
    rp.seed = seed;
    std::vector<Ged> sigma = RandomGeds(4, rp);
    ExpectSameReports(g, sigma, "random seed " + std::to_string(seed));
    for (const Ged& phi : sigma) {
      ExpectSameMatches(phi.pattern(), g,
                        "random pattern seed " + std::to_string(seed));
    }
  }
}

TEST(FrozenEquivalence, CappedReportsAreIdentical) {
  // max_violations_per_ged truncation is deterministic (ViolationLess-
  // smallest): both entry points keep the reference's survivors.
  KbParams params;
  params.num_products = 60;
  params.wrong_creator = 6;
  KbInstance kb = GenKnowledgeBase(params);
  std::vector<Ged> sigma = Example1Geds();
  FrozenGraph f = FrozenGraph::Freeze(kb.graph);
  ValidationOptions opts;
  opts.max_violations_per_ged = 2;
  ValidationReport base = Validate(kb.graph, sigma, opts);
  ValidationReport snap = Validate(f, sigma, opts);
  EXPECT_EQ(base.violations, snap.violations);
  reference::RefReport ref =
      reference::Validate(kb.graph, sigma, /*injective=*/false);
  EXPECT_EQ(RefRows(snap.violations), reference::CapPerGed(ref.violations, 2));
}

TEST(FrozenEquivalence, TouchingEnumerationAgrees) {
  RandomGraphParams gp;
  gp.num_nodes = 80;
  gp.avg_out_degree = 4.0;
  gp.num_node_labels = 2;
  gp.num_edge_labels = 2;
  gp.seed = 9;
  Graph g = RandomPropertyGraph(gp);
  FrozenGraph f = FrozenGraph::Freeze(g);
  Pattern q;
  VarId a = q.AddVar("a", GenNodeLabel(0));
  VarId b = q.AddVar("b", kWildcard);
  q.AddEdge(a, GenEdgeLabel(0), b);
  q.AddEdge(b, GenEdgeLabel(1), a);
  std::vector<NodeId> touched = {3, 7, 20, 21, 55};
  for (const SemanticsCase& sem : kSemantics) {
    MatchOptions opts;
    opts.semantics = sem.semantics;
    std::vector<Match> snap;
    EnumerateMatchesTouching(q, f, touched, opts, [&](const Match& h) {
      snap.push_back(h);
      return true;
    });
    std::sort(snap.begin(), snap.end());
    EXPECT_EQ(snap, ReferenceMatches(q, g, sem.semantics, &touched))
        << sem.name;
  }
}

}  // namespace
}  // namespace ged
