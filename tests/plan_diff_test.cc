// Differential harness for the validation engine: every report the engine
// builds through its compiled ruleset plan (src/plan/) must equal the naive
// reference validator's (tests/reference/) — same sorted violations, same
// matches_checked — on every generator scenario, random GED set, capped
// report, touching set, spilled-row case and delta stream, at 1 and 4
// threads, under both semantics, on the mutable Graph and on its frozen and
// overlay snapshots. The reference shares no matcher, plan or literal code
// with the engine, so the two cannot be wrong the same way. Plus unit
// coverage for pattern canonicalization and bucketing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <random>
#include <string>

#include "ged/canonical.h"
#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "graph/overlay.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "plan/plan.h"
#include "reason/validation.h"
#include "reference_compare.h"

namespace ged {
namespace {

// ----- canonicalization -----------------------------------------------------

// `phi` with its pattern variables renamed by the permutation "old variable
// x becomes new variable perm[x]" — an isomorphic rule with identical
// semantics, used to exercise bucketing across variable orders.
Ged PermuteGed(const Ged& phi, const std::vector<VarId>& perm) {
  const Pattern& q = phi.pattern();
  size_t n = q.NumVars();
  std::vector<VarId> inv(n);
  for (VarId x = 0; x < n; ++x) inv[perm[x]] = x;
  Pattern p;
  for (size_t i = 0; i < n; ++i) {
    p.AddVar(q.var_name(inv[i]) + "_p", q.label(inv[i]));
  }
  for (const Pattern::PEdge& e : q.edges()) {
    p.AddEdge(perm[e.src], e.label, perm[e.dst]);
  }
  auto remap = [&](std::vector<Literal> ls) {
    for (Literal& l : ls) {
      l.x = perm[l.x];
      if (l.kind != LiteralKind::kConst) l.y = perm[l.y];
    }
    return ls;
  };
  return Ged(phi.name() + "_p", std::move(p), remap(phi.X()), remap(phi.Y()),
             phi.is_forbidding());
}

TEST(CanonicalizePattern, IsomorphicPatternsShareOneKey) {
  Pattern q;
  VarId x = q.AddVar("x", "person");
  VarId y = q.AddVar("y", "product");
  VarId z = q.AddVar("z", kWildcard);
  q.AddEdge(x, "create", y);
  q.AddEdge(z, "like", y);

  PatternCanonicalForm base = CanonicalizePattern(q);
  EXPECT_TRUE(base.exact);
  ASSERT_EQ(base.to_canonical.size(), 3u);

  // Every renaming of the variables canonicalizes to the same key.
  std::vector<VarId> perm = {0, 1, 2};
  Ged phi("t", q, {}, {}, /*y_is_false=*/true);
  do {
    Ged permuted = PermuteGed(phi, perm);
    PatternCanonicalForm form = CanonicalizePattern(permuted.pattern());
    EXPECT_EQ(form.key, base.key);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(CanonicalizePattern, NonIsomorphicPatternsSeparate) {
  Pattern chain;  // x -> y -> z
  VarId a = chain.AddVar("x", "n");
  VarId b = chain.AddVar("y", "n");
  VarId c = chain.AddVar("z", "n");
  chain.AddEdge(a, "e", b);
  chain.AddEdge(b, "e", c);

  Pattern fork;  // x -> y, x -> z: same labels and sizes, different shape
  VarId d = fork.AddVar("x", "n");
  VarId e = fork.AddVar("y", "n");
  VarId f = fork.AddVar("z", "n");
  fork.AddEdge(d, "e", e);
  fork.AddEdge(d, "e", f);

  EXPECT_NE(CanonicalizePattern(chain).key, CanonicalizePattern(fork).key);

  Pattern other;  // same shape as chain, one node label differs
  other.AddVar("x", "n");
  other.AddVar("y", "m");
  other.AddVar("z", "n");
  other.AddEdge(0, "e", 1);
  other.AddEdge(1, "e", 2);
  EXPECT_NE(CanonicalizePattern(chain).key, CanonicalizePattern(other).key);
}

TEST(CanonicalizePattern, IsTheMinimumOverAllPermutations) {
  // The canonical form is defined as the lexicographically smallest
  // encoding over all variable permutations, ties to the first such
  // permutation in lexicographic order; the pruned search must find exactly
  // that. Random patterns with few labels, wildcards, self-loops and
  // two-copy (GKey-style) layouts keep ties and symmetry common.
  auto encode = [](const Pattern& q, const std::vector<VarId>& perm) {
    std::vector<VarId> pos(q.NumVars());
    for (VarId i = 0; i < q.NumVars(); ++i) pos[perm[i]] = i;
    std::vector<uint64_t> key;
    key.push_back(q.NumVars());
    for (VarId x : perm) key.push_back(q.label(x));
    key.push_back(q.NumEdges());
    std::vector<std::array<uint64_t, 3>> edges;
    for (const Pattern::PEdge& e : q.edges()) {
      edges.push_back({pos[e.src], e.label, pos[e.dst]});
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& e : edges) key.insert(key.end(), e.begin(), e.end());
    return key;
  };
  std::mt19937 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    Pattern q;
    size_t half = rng() % 5;
    size_t labels = 1 + rng() % 3;
    for (size_t i = 0; i < half; ++i) {
      q.AddVar("x" + std::to_string(i),
               rng() % 4 == 0 ? kWildcard
                              : Sym("L" + std::to_string(rng() % labels)));
    }
    size_t edges = half == 0 ? 0 : rng() % (2 * half + 1);
    for (size_t j = 0; j < edges; ++j) {
      q.AddEdge(rng() % half, Sym(rng() % 2 ? "e" : "f"), rng() % half);
    }
    if (rng() % 2 == 0) q.DisjointUnion(Pattern(q), "'");

    std::vector<VarId> perm(q.NumVars());
    std::iota(perm.begin(), perm.end(), 0);
    std::vector<uint64_t> best_key = encode(q, perm);
    std::vector<VarId> best_perm = perm;
    while (std::next_permutation(perm.begin(), perm.end())) {
      std::vector<uint64_t> key = encode(q, perm);
      if (key < best_key) {
        best_key = std::move(key);
        best_perm = perm;
      }
    }
    PatternCanonicalForm form = CanonicalizePattern(q);
    ASSERT_EQ(form.key, best_key) << "trial " << trial << ": " << q.ToString();
    for (VarId i = 0; i < q.NumVars(); ++i) {
      EXPECT_EQ(form.to_canonical[best_perm[i]], i) << "trial " << trial;
    }
  }
}

TEST(RulesetPlan, BucketsIsomorphicRulesTogether) {
  // 8 rules over 3 shapes: 3 creator-style, 3 chain-style (permuted vars),
  // 2 forbidding self-shape.
  std::vector<Ged> sigma = Example1Geds();  // 4 distinct shapes
  ASSERT_EQ(sigma.size(), 4u);
  std::vector<Ged> big;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Ged& phi : sigma) {
      size_t n = phi.pattern().NumVars();
      std::vector<VarId> perm(n);
      for (VarId x = 0; x < n; ++x) {
        perm[x] = copy == 0 ? x : static_cast<VarId>(n - 1 - x);
      }
      big.push_back(PermuteGed(phi, perm));
    }
  }
  RulesetPlan plan = RulesetPlan::Compile(big);
  EXPECT_EQ(plan.num_rules, 8u);
  EXPECT_EQ(plan.buckets.size(), 4u);  // each shape shared by its 2 copies
  EXPECT_EQ(plan.NumSharedRules(), 8u);
  for (const PlanBucket& bucket : plan.buckets) {
    ASSERT_EQ(bucket.rules.size(), 2u);
    EXPECT_EQ(bucket.rules[0].x_plan.size(), bucket.rules[1].x_plan.size());
  }
}

TEST(RulesetPlan, EmptySigmaAndEmptyPattern) {
  RulesetPlan empty = RulesetPlan::Compile({});
  EXPECT_TRUE(empty.buckets.empty());
  Graph g;
  g.AddNode("n");
  ValidationReport r = ValidateWithPlan(g, empty);
  EXPECT_TRUE(r.satisfied);

  // A variable-free pattern has exactly one (empty) match.
  std::vector<Ged> sigma;
  sigma.emplace_back("forbid_nothing", Pattern{}, std::vector<Literal>{},
                     std::vector<Literal>{}, /*y_is_false=*/true);
  ValidationReport forbidden = Validate(g, sigma);
  ASSERT_EQ(forbidden.violations.size(), 1u);
  EXPECT_TRUE(forbidden.violations[0].match.empty());
}

// ----- differential: engine vs reference ------------------------------------

// The engine's report on `g` (a mutable graph or a snapshot of it) against
// the reference's report `ref` on the same graph.
template <typename GView>
void ExpectMatchesReference(const GView& g, const std::vector<Ged>& sigma,
                            const ValidationOptions& opts,
                            const reference::RefReport& ref) {
  ValidationReport report = Validate(g, sigma, opts);
  std::vector<reference::RefViolation> want =
      reference::CapPerGed(ref.violations, opts.max_violations_per_ged);
  EXPECT_EQ(report.satisfied, want.empty());
  EXPECT_EQ(RefRows(report.violations), want);
  EXPECT_EQ(report.matches_checked, ref.matches_checked);
}

// Mutable graph and frozen snapshot, at 1 and 4 threads, capped or not.
void ExpectEngineMatchesReference(const Graph& g,
                                  const std::vector<Ged>& sigma,
                                  MatchSemantics sem, uint64_t cap = 0) {
  reference::RefReport ref =
      reference::Validate(g, sigma, Injective(sem));
  const FrozenGraph frozen = FrozenGraph::Freeze(g);
  for (unsigned threads : {1u, 4u}) {
    ValidationOptions opts;
    opts.semantics = sem;
    opts.num_threads = threads;
    opts.max_violations_per_ged = cap;
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " cap=" + std::to_string(cap));
    ExpectMatchesReference(g, sigma, opts, ref);
    ExpectMatchesReference(frozen, sigma, opts, ref);
  }
}

void ExpectEngineMatchesReferenceAllModes(const Graph& g,
                                          const std::vector<Ged>& sigma) {
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    SCOPED_TRACE(sem == MatchSemantics::kHomomorphism ? "hom" : "iso");
    ExpectEngineMatchesReference(g, sigma, sem);
  }
}

TEST(PlanDifferential, KnowledgeBaseScenario) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ExpectEngineMatchesReferenceAllModes(kb.graph, Example1Geds());
}

TEST(PlanDifferential, SocialNetworkScenario) {
  SocialParams sp;
  SocialInstance social = GenSocialNetwork(sp);
  ExpectEngineMatchesReferenceAllModes(social.graph,
                                       {SpamGed(sp.k, Value("free money"))});
}

TEST(PlanDifferential, MusicBaseScenario) {
  MusicInstance music = GenMusicBase(MusicParams{});
  ExpectEngineMatchesReferenceAllModes(music.graph, MusicKeys());
}

TEST(PlanDifferential, RandomGedSetsAcrossClasses) {
  RandomGraphParams gp;
  gp.num_nodes = 60;
  for (GedClassKind kind : {GedClassKind::kGfdx, GedClassKind::kGfd,
                            GedClassKind::kGedx, GedClassKind::kGed,
                            GedClassKind::kGkey}) {
    gp.seed = static_cast<unsigned>(31 + static_cast<int>(kind));
    Graph g = RandomPropertyGraph(gp);
    RandomGedParams rp;
    rp.kind = kind;
    rp.pattern_vars = 3;
    rp.pattern_edges = 2;
    rp.seed = gp.seed + 1;
    std::vector<Ged> sigma = RandomGeds(5, rp);
    // Append variable-permuted copies so buckets actually merge.
    size_t base = sigma.size();
    for (size_t i = 0; i < base; ++i) {
      size_t n = sigma[i].pattern().NumVars();
      std::vector<VarId> perm(n);
      for (VarId x = 0; x < n; ++x) perm[x] = static_cast<VarId>(n - 1 - x);
      sigma.push_back(PermuteGed(sigma[i], perm));
    }
    EXPECT_GT(RulesetPlan::Compile(sigma).NumSharedRules(), 0u);
    ExpectEngineMatchesReferenceAllModes(g, sigma);
  }
}

TEST(PlanDifferential, CappedReportsAgree) {
  KbParams params;
  params.wrong_creator = 6;
  params.double_capital = 3;
  KbInstance kb = GenKnowledgeBase(params);
  ExpectEngineMatchesReference(kb.graph, Example1Geds(),
                               MatchSemantics::kHomomorphism, /*cap=*/2);
}

TEST(PlanDifferential, ValidateTouchingAgrees) {
  RandomGraphParams gp;
  gp.num_nodes = 70;
  gp.seed = 41;
  Graph g = RandomPropertyGraph(gp);
  const OverlayView overlay(
      std::make_shared<const FrozenGraph>(FrozenGraph::Freeze(g)));
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 42;
  std::vector<Ged> sigma = RandomGeds(6, rp);
  const RulesetPlan plan = RulesetPlan::Compile(sigma);
  std::mt19937 rng(43);
  for (int round = 0; round < 6; ++round) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng() % 4 == 0) touched.push_back(v);
    }
    for (MatchSemantics sem :
         {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
      reference::RefReport ref =
          reference::ValidateTouching(g, sigma, touched, Injective(sem));
      for (unsigned threads : {1u, 4u}) {
        ValidationOptions opts;
        opts.semantics = sem;
        opts.num_threads = threads;
        ValidationReport report =
            ValidateTouchingWithPlan(overlay, plan, touched, opts);
        EXPECT_EQ(RefRows(report.violations), ref.violations);
        EXPECT_EQ(report.matches_checked, ref.matches_checked);
      }
    }
  }
}

// The seeded scan may over-approximate (see validation.h), so it is pinned
// between two reference sets: it must find every violation among the
// matches that map a pattern edge onto a seed, and nothing that is not a
// violation at all. Seeds are a sample of existing edges (what a
// cross-edge delta reports). Returns the size of the lower bound.
size_t ExpectSeededScanBracketed(const RandomGraphParams& gp,
                                 const RandomGedParams& rp) {
  Graph g = RandomPropertyGraph(gp);
  const OverlayView overlay(
      std::make_shared<const FrozenGraph>(FrozenGraph::Freeze(g)));
  std::vector<Ged> sigma = RandomGeds(6, rp);
  const RulesetPlan plan = RulesetPlan::Compile(sigma);
  std::vector<EdgeTriple> seeds;
  for (NodeId v = 0; v < g.NumNodes(); v += 5) {
    for (const Edge& e : g.out(v)) {
      seeds.push_back({v, e.label, e.other});
      break;
    }
  }
  EXPECT_FALSE(seeds.empty());
  size_t lower_bound = 0;
  for (MatchSemantics sem :
       {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
    ValidationOptions opts;
    opts.semantics = sem;
    uint64_t checked = 0;
    std::vector<reference::RefViolation> found = RefRows(
        FindViolationsSeededByEdgesWithPlan(overlay, plan, seeds, opts,
                                            &checked));
    reference::RefReport seeded =
        reference::ValidateSeededByEdges(g, sigma, seeds, Injective(sem));
    reference::RefReport all = reference::Validate(g, sigma, Injective(sem));
    EXPECT_TRUE(std::is_sorted(found.begin(), found.end()));
    EXPECT_EQ(std::adjacent_find(found.begin(), found.end()), found.end());
    EXPECT_TRUE(std::includes(found.begin(), found.end(),
                              seeded.violations.begin(),
                              seeded.violations.end()));
    EXPECT_TRUE(std::includes(all.violations.begin(), all.violations.end(),
                              found.begin(), found.end()));
    EXPECT_GE(checked, seeded.matches_checked);
    lower_bound += seeded.violations.size();
  }
  return lower_bound;
}

TEST(PlanDifferential, SeededByEdgesAgrees) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.seed = 51;
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 3;
  rp.seed = 52;
  ExpectSeededScanBracketed(gp, rp);

  // Few labels and values: seeds complete many matches, some violating.
  gp.seed = 53;
  gp.avg_out_degree = 4.0;
  gp.num_node_labels = rp.num_node_labels = 2;
  gp.num_edge_labels = rp.num_edge_labels = 1;
  gp.num_values = rp.num_values = 3;
  rp.seed = 54;
  EXPECT_GT(ExpectSeededScanBracketed(gp, rp), 0u);
}

// Report rows wider than MatchRow::kInlineCapacity spill to the heap. A 7-
// and an 8-variable rule (plus a variable-reversed copy of the 8-variable
// one, so a bucket permutes spilled rows back into rule order) next to a
// 3-variable rule: the reports mix inline and spilled rows, and must equal
// the reference on the mutable Graph and its FrozenGraph snapshot, at 1
// and 4 threads, capped or not.
TEST(PlanDifferential, SpilledRowsAgree) {
  Graph g;
  const size_t n = 36;
  for (size_t i = 0; i < n; ++i) {
    NodeId v = g.AddNode("n");
    g.SetAttr(v, "a", Value(static_cast<int64_t>(i % 3)));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t step : {1u, 5u}) {
      g.AddEdge(static_cast<NodeId>(i), "e",
                static_cast<NodeId>((i + step) % n));
    }
  }
  auto path_rule = [](const std::string& name, size_t vars) {
    Pattern q;
    for (size_t i = 0; i < vars; ++i) q.AddVar("x" + std::to_string(i), "n");
    for (size_t i = 0; i + 1 < vars; ++i) {
      q.AddEdge(static_cast<VarId>(i), "e", static_cast<VarId>(i + 1));
    }
    const AttrId a = Sym("a");
    return Ged(name, std::move(q), {},
               {Literal::Var(0, a, static_cast<VarId>(vars - 1), a)});
  };
  std::vector<Ged> sigma = {path_rule("path7", 7), path_rule("path3", 3),
                            path_rule("path8", 8)};
  std::vector<VarId> reverse(8);
  for (VarId x = 0; x < 8; ++x) reverse[x] = static_cast<VarId>(7 - x);
  sigma.push_back(PermuteGed(sigma[2], reverse));
  ASSERT_GT(sigma[0].pattern().NumVars(), MatchRow::kInlineCapacity);

  for (uint64_t cap : {uint64_t{0}, uint64_t{5}}) {
    ExpectEngineMatchesReference(g, sigma, MatchSemantics::kHomomorphism, cap);
    ValidationOptions opts;
    opts.max_violations_per_ged = cap;
    ValidationReport report = Validate(g, sigma, opts);
    size_t spilled = 0;
    for (const Violation& v : report.violations) {
      if (v.match.size() > MatchRow::kInlineCapacity) ++spilled;
    }
    EXPECT_GT(spilled, 0u);
    EXPECT_LT(spilled, report.violations.size());
  }
}

// ----- differential: random delta streams (incr_test stream machinery) -----

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

// The incremental validator must track the reference across a random
// delta stream — the end-to-end differential: full validation, the
// touching re-scan and the edge-seeded re-scan all feed the live report.
void RunDifferentialStream(MatchSemantics sem, unsigned threads,
                           unsigned seed) {
  RandomGraphParams gp;
  gp.num_nodes = 50;
  gp.avg_out_degree = 3.0;
  gp.seed = seed;
  RandomGedParams rp;
  rp.kind = GedClassKind::kGed;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = seed + 1;
  std::vector<Ged> sigma = RandomGeds(4, rp);
  ValidationOptions opts;
  opts.semantics = sem;
  opts.num_threads = threads;
  IncrementalValidator v(RandomPropertyGraph(gp), sigma, opts);

  auto expect_matches_reference = [&]() {
    reference::RefReport ref =
        reference::Validate(v.graph(), v.sigma(), Injective(sem));
    EXPECT_EQ(v.report().satisfied, ref.violations.empty());
    EXPECT_EQ(RefRows(v.report().violations), ref.violations);
    EXPECT_EQ(v.RevalidateFull().matches_checked, ref.matches_checked);
  };
  expect_matches_reference();

  std::mt19937 rng(seed + 2);
  for (int commit = 0; commit < 8; ++commit) {
    GraphDelta d = RandomDelta(v.graph(), &rng, 12, gp);
    auto applied = v.Commit(d);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    expect_matches_reference();
  }
}

TEST(PlanDifferential, DeltaStreamHomomorphismSerial) {
  RunDifferentialStream(MatchSemantics::kHomomorphism, 1, 61);
}

TEST(PlanDifferential, DeltaStreamHomomorphismParallel) {
  RunDifferentialStream(MatchSemantics::kHomomorphism, 4, 62);
}

TEST(PlanDifferential, DeltaStreamIsomorphismSerial) {
  RunDifferentialStream(MatchSemantics::kIsomorphism, 1, 63);
}

TEST(PlanDifferential, DeltaStreamIsomorphismParallel) {
  RunDifferentialStream(MatchSemantics::kIsomorphism, 4, 64);
}

}  // namespace
}  // namespace ged
