// Figure 1 + Examples 1/3: the seven motivating patterns Q1–Q7 exercised on
// the scenario graphs — matching cost, violation detection per rule, and
// the homomorphism-vs-isomorphism comparison that motivates the paper's
// semantics choice (§3).

#include <benchmark/benchmark.h>

#include "gen/scenarios.h"
#include "match/matcher.h"
#include "reason/validation.h"

namespace {

using namespace ged;

// Q1–Q4 on the knowledge base (φ1–φ4).
void BM_Fig1_KbRule(benchmark::State& state, size_t rule_index) {
  KbParams params;
  params.num_products = 200;
  params.num_countries = 50;
  params.num_species = 50;
  params.num_families = 50;
  KbInstance kb = GenKnowledgeBase(params);
  Ged phi = Example1Geds()[rule_index];
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(kb.graph, {phi});
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["violations"] = static_cast<double>(violations);
}

// Q5 on the social graph (φ5), sweeping k (the number of shared blogs).
void BM_Fig1_Q5Spam(benchmark::State& state) {
  SocialParams params;
  params.k = static_cast<size_t>(state.range(0));
  params.num_accounts = 150;
  params.num_blogs = 300;
  params.spam_pairs = 5;
  SocialInstance net = GenSocialNetwork(params);
  Ged phi5 = SpamGed(params.k, Value("peculiar"));
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(net.graph, {phi5});
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["k"] = static_cast<double>(params.k);
  state.counters["violations"] = static_cast<double>(violations);
}

// Q6/Q7 keys (ψ1–ψ3) under both matching semantics: homomorphism detects
// the duplicates, isomorphism leaves ψ1/ψ3 vacuous.
void BM_Fig1_Keys(benchmark::State& state, MatchSemantics sem) {
  MusicParams params;
  params.num_artists = 30;
  params.dup_albums = 6;
  params.dup_artists = 3;
  MusicInstance music = GenMusicBase(params);
  ValidationOptions opts;
  opts.semantics = sem;
  size_t violations = 0;
  for (auto _ : state) {
    ValidationReport report = Validate(music.graph, MusicKeys(), opts);
    violations = report.violations.size();
    benchmark::DoNotOptimize(report.satisfied);
  }
  state.counters["violations"] = static_cast<double>(violations);
}

// Raw match enumeration for each Fig. 1 pattern shape.
void BM_Fig1_MatchEnumeration(benchmark::State& state) {
  SocialParams params;
  params.num_accounts = 150;
  params.num_blogs = 300;
  SocialInstance net = GenSocialNetwork(params);
  Ged phi5 = SpamGed(2, Value("peculiar"));
  const FrozenGraph frozen = FrozenGraph::Freeze(net.graph);
  uint64_t matches = 0;
  for (auto _ : state) {
    matches = CountMatches(phi5.pattern(), frozen);
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Fig1_KbRule, Q1_wrong_creator, 0);
BENCHMARK_CAPTURE(BM_Fig1_KbRule, Q2_double_capital, 1);
BENCHMARK_CAPTURE(BM_Fig1_KbRule, Q3_inheritance, 2);
BENCHMARK_CAPTURE(BM_Fig1_KbRule, Q4_child_parent, 3);
BENCHMARK(BM_Fig1_Q5Spam)->DenseRange(1, 4, 1);
BENCHMARK_CAPTURE(BM_Fig1_Keys, homomorphism, MatchSemantics::kHomomorphism);
BENCHMARK_CAPTURE(BM_Fig1_Keys, isomorphism, MatchSemantics::kIsomorphism);
BENCHMARK(BM_Fig1_MatchEnumeration);
