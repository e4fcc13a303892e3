// Parallel-validation determinism: Validate() must produce the identical
// sorted report for any thread count, on all three generator scenarios and
// on random graph/rule workloads; ValidateTouchingWithPlan inherits the
// guarantee.

#include <gtest/gtest.h>

#include <memory>

#include "gen/random_gen.h"
#include "gen/scenarios.h"
#include "graph/frozen.h"
#include "graph/overlay.h"
#include "plan/plan.h"
#include "reason/validation.h"

namespace ged {
namespace {

void ExpectDeterministicAcrossThreads(const Graph& g,
                                      const std::vector<Ged>& sigma) {
  ValidationOptions opts;
  opts.num_threads = 1;
  ValidationReport serial = Validate(g, sigma, opts);
  for (unsigned threads : {2u, 8u}) {
    opts.num_threads = threads;
    ValidationReport parallel = Validate(g, sigma, opts);
    EXPECT_EQ(parallel.satisfied, serial.satisfied) << threads << " threads";
    EXPECT_EQ(parallel.violations, serial.violations) << threads << " threads";
    EXPECT_EQ(parallel.matches_checked, serial.matches_checked)
        << threads << " threads";
  }
}

TEST(ValidationDeterminism, KnowledgeBaseScenario) {
  KbInstance kb = GenKnowledgeBase(KbParams{});
  ExpectDeterministicAcrossThreads(kb.graph, Example1Geds());
}

TEST(ValidationDeterminism, SocialNetworkScenario) {
  SocialParams sp;
  SocialInstance social = GenSocialNetwork(sp);
  ExpectDeterministicAcrossThreads(social.graph,
                                   {SpamGed(sp.k, Value("free money"))});
}

TEST(ValidationDeterminism, MusicBaseScenario) {
  MusicInstance music = GenMusicBase(MusicParams{});
  ExpectDeterministicAcrossThreads(music.graph, MusicKeys());
}

TEST(ValidationDeterminism, RandomWorkload) {
  RandomGraphParams gp;
  gp.num_nodes = 80;
  gp.seed = 3;
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 4;
  ExpectDeterministicAcrossThreads(RandomPropertyGraph(gp), RandomGeds(5, rp));
}

TEST(ValidationDeterminism, CapKeepsTheSmallestViolationsDeterministically) {
  // max_violations_per_ged keeps the ViolationLess-smallest violations per
  // GED — the same report for any thread count.
  KbParams params;
  params.wrong_creator = 6;
  params.double_capital = 3;
  KbInstance kb = GenKnowledgeBase(params);
  auto sigma = Example1Geds();

  ValidationOptions full_opts;
  ValidationReport full = Validate(kb.graph, sigma, full_opts);
  ASSERT_GT(full.violations.size(), 4u);

  constexpr uint64_t kCap = 2;
  // Expected: first kCap violations of each GED in the sorted full report.
  std::vector<Violation> expected;
  size_t run = 0;
  for (size_t i = 0; i < full.violations.size(); ++i) {
    if (i > 0 &&
        full.violations[i].ged_index != full.violations[i - 1].ged_index) {
      run = 0;
    }
    if (run < kCap) expected.push_back(full.violations[i]);
    ++run;
  }
  ASSERT_LT(expected.size(), full.violations.size());

  for (unsigned threads : {1u, 2u, 8u}) {
    ValidationOptions opts;
    opts.max_violations_per_ged = kCap;
    opts.num_threads = threads;
    ValidationReport capped = Validate(kb.graph, sigma, opts);
    EXPECT_EQ(capped.violations, expected) << threads << " threads";
    EXPECT_FALSE(capped.satisfied);
  }
}

TEST(ValidationDeterminism, ValidateTouchingAcrossThreads) {
  RandomGraphParams gp;
  gp.num_nodes = 80;
  gp.seed = 9;
  Graph g = RandomPropertyGraph(gp);
  RandomGedParams rp;
  rp.pattern_vars = 3;
  rp.pattern_edges = 2;
  rp.seed = 10;
  const RulesetPlan plan = RulesetPlan::Compile(RandomGeds(5, rp));
  const OverlayView overlay(
      std::make_shared<const FrozenGraph>(FrozenGraph::Freeze(g)));
  std::vector<NodeId> touched;
  for (NodeId v = 0; v < g.NumNodes(); v += 7) touched.push_back(v);

  ValidationOptions opts;
  opts.num_threads = 1;
  ValidationReport serial =
      ValidateTouchingWithPlan(overlay, plan, touched, opts);
  for (unsigned threads : {2u, 8u}) {
    opts.num_threads = threads;
    ValidationReport parallel =
        ValidateTouchingWithPlan(overlay, plan, touched, opts);
    EXPECT_EQ(parallel.violations, serial.violations) << threads << " threads";
    EXPECT_EQ(parallel.matches_checked, serial.matches_checked)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace ged
