// The chase's deterministic work counters on a benchmark row, shared by the
// reasoning benches (bench_fig2_chase, bench_table1_satisfiability,
// bench_table1_implication). Rows take them from one untimed run: a chase
// repeats them exactly, so tools/compare_bench.py gates them
// (bench/baselines/BENCH_reasoning.json).

#ifndef GEDLIB_BENCH_CHASE_COUNTERS_H_
#define GEDLIB_BENCH_CHASE_COUNTERS_H_

#include <benchmark/benchmark.h>

#include <cstdint>

#include "chase/chase.h"

namespace ged_bench {

/// Sets `rounds` and `matches_checked` ((rule, match) pairs whose X was
/// evaluated) on the row.
inline void SetChaseCounters(benchmark::State& state, uint64_t rounds,
                             uint64_t matches_checked) {
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["matches_checked"] = static_cast<double>(matches_checked);
}

inline void SetChaseCounters(benchmark::State& state,
                             const ged::ChaseResult& res) {
  SetChaseCounters(state, res.rounds, res.matches_checked);
}

}  // namespace ged_bench

#endif  // GEDLIB_BENCH_CHASE_COUNTERS_H_
