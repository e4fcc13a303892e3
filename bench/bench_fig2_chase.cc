// Figure 2 / Example 4 + Theorem 1: chase mechanics at scale — the Fig. 2
// account-merge scenario replicated n times, entity resolution on the music
// base, step counts against the 8·|G|·|Σ| bound, and Church–Rosser
// order-shuffling overhead. Every row reports the chase's deterministic
// work counters `rounds` and `matches_checked` ((rule, match) pairs whose X
// was evaluated), from one untimed run: a chase repeats them exactly.

#include <benchmark/benchmark.h>

#include "chase_counters.h"
#include "chase/chase.h"
#include "ged/parser.h"
#include "gen/scenarios.h"

namespace {

using namespace ged;
using ged_bench::SetChaseCounters;

// n copies of the Fig. 2 gadget: all 2n accounts share A = 1, so the chase
// merges them into a single account with 2n satellites.
Graph Fig2Scaled(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    NodeId v1 = g.AddNode("account");
    g.SetAttr(v1, "A", Value(1));
    NodeId v2 = g.AddNode("account");
    g.SetAttr(v2, "A", Value(1));
    NodeId s1 = g.AddNode("address");
    NodeId s2 = g.AddNode("phone");
    g.AddEdge(v1, "f", s1);
    g.AddEdge(v2, "f", s2);
  }
  return g;
}

std::vector<Ged> Fig2Sigma() {
  auto r = ParseGeds(R"(
    ged phi1 {
      match (x:account), (y:account)
      where x.A = y.A
      then  x.id = y.id
    })");
  return r.Take();
}

void BM_Fig2_ChaseMerges(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = Fig2Scaled(n);
  std::vector<Ged> sigma = Fig2Sigma();
  uint64_t steps = 0;
  size_t entities = 0;
  for (auto _ : state) {
    ChaseResult res = Chase(g, sigma);
    steps = res.num_steps;
    entities = res.coercion.graph.NumNodes();
    benchmark::DoNotOptimize(res.consistent);
  }
  double bound = 8.0 * static_cast<double>(g.Size()) *
                 static_cast<double>(SigmaSize(sigma));
  SetChaseCounters(state, Chase(g, sigma));
  state.counters["copies"] = static_cast<double>(n);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["bound_8GS"] = bound;
  state.counters["entities"] = static_cast<double>(entities);
}

void BM_Fig2_EntityResolution(benchmark::State& state) {
  MusicParams params;
  params.num_artists = static_cast<size_t>(state.range(0));
  params.dup_albums = params.num_artists / 3;
  params.dup_artists = params.num_artists / 5;
  MusicInstance music = GenMusicBase(params);
  std::vector<Ged> keys = MusicKeys();
  uint64_t steps = 0;
  for (auto _ : state) {
    ChaseResult res = Chase(music.graph, keys);
    steps = res.num_steps;
    benchmark::DoNotOptimize(res.consistent);
  }
  SetChaseCounters(state, Chase(music.graph, keys));
  state.counters["nodes"] = static_cast<double>(music.graph.NumNodes());
  state.counters["steps"] = static_cast<double>(steps);
}

void BM_Fig2_ChurchRosserShuffle(benchmark::State& state) {
  // Shuffled application order (seed != 0) must produce the same result;
  // this measures the overhead of randomized scheduling.
  Graph g = Fig2Scaled(8);
  std::vector<Ged> sigma = Fig2Sigma();
  ChaseOptions opts;
  opts.order_seed = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    ChaseResult res = Chase(g, sigma, nullptr, opts);
    benchmark::DoNotOptimize(res.consistent);
  }
  SetChaseCounters(state, Chase(g, sigma, nullptr, opts));
  state.counters["order_seed"] = static_cast<double>(state.range(0));
}

void BM_Fig2_InvalidSequence(benchmark::State& state) {
  // Example 4(2): adding φ2 makes the chase invalid (label conflict);
  // conflict detection cost.
  Graph g = Fig2Scaled(static_cast<size_t>(state.range(0)));
  // Distinct satellite labels per copy to trigger the conflict.
  auto sigma = ParseGeds(R"(
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
  std::vector<Ged> rules = sigma.Take();
  bool consistent = true;
  for (auto _ : state) {
    ChaseResult res = Chase(g, rules);
    consistent = res.consistent;
    benchmark::DoNotOptimize(res.consistent);
  }
  SetChaseCounters(state, Chase(g, rules));
  state.counters["copies"] = static_cast<double>(state.range(0));
  state.counters["consistent"] = consistent ? 1 : 0;
}

}  // namespace

BENCHMARK(BM_Fig2_ChaseMerges)->Arg(2)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_Fig2_EntityResolution)->Arg(10)->Arg(20)->Arg(40);
BENCHMARK(BM_Fig2_ChurchRosserShuffle)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Fig2_InvalidSequence)->Arg(2)->Arg(8);
