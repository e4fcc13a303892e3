#!/usr/bin/env python3
"""Perf-regression gate over Google Benchmark JSON.

Two modes:

1. Baseline diff (default): compare a fresh BENCH_*.json against a committed
   baseline and fail on regression.

     compare_bench.py baseline.json fresh.json [--threshold 0.15]

   * Wall-clock (real_time) regressions beyond --threshold fail the run —
     but only when baseline and fresh come from a comparable host (same CPU
     count, clock within 10%); across different hosts wall-clock is
     advisory (warnings), because a slower runner is not a slower program.
   * Deterministic user counters (search_steps, matches, matches_checked,
     violations, rounds, ...) must match the baseline almost exactly (1%
     slack for counter rounding) on *any* host: they measure algorithmic
     work, not hardware. An increase fails, a decrease just prints (improvement —
     refresh the baseline to lock it in).
   * Benchmarks present on one side only are reported but do not fail (new
     benchmarks need a baseline refresh, retired ones a cleanup).

2. Speedup gate (--speedup): assert one benchmark beats another by a factor
   inside a single JSON file — same process, same machine, so the ratio is
   robust on any runner. Used by the PR perf smoke job to pin the k-way
   intersection acceptance bar (intersection ≥ 1.5× legacy):

     compare_bench.py --speedup fresh.json \
         --faster  'BM_DensePattern/clique4_intersection/512' \
         --slower  'BM_DensePattern/clique4_legacy/512' \
         --min-ratio 1.5

   --skip-missing turns an absent --faster/--slower series into a pass
   with a note instead of an error; the per-backend kernel-ablation
   series (BM_KernelAblation/intersect2_avx2, ...) are registered only on
   hosts whose CPU carries the backend, so their gates must not fail on
   scalar-only runners.

3. Overhead gate (--overhead): assert benchmarks are at most a small
   fraction slower than a baseline inside a single JSON file. --test /
   --max-overhead repeat to gate several series against the same --base in
   one invocation (when there are fewer --max-overhead values than --test
   names, the last one carries over). Used by the PR perf smoke job to pin
   the observability acceptance bars (obs-disabled ≤ 2%, the full serving
   telemetry stack ≤ 5% over the no-sinks baseline):

     compare_bench.py --overhead fresh.json \
         --base 'BM_ObsValidation/obs_baseline/256' \
         --test 'BM_ObsValidation/obs_disabled/256'      --max-overhead 0.02 \
         --test 'BM_ObsValidation/telemetry_enabled/256' --max-overhead 0.05

Input files are Google Benchmark JSON, optionally stamped with a top-level
"gedlib_bench_schema" version (bench/baselines are stamped when refreshed;
unstamped files are treated as version 1). A file from a newer schema than
this tool knows is a hard error — upgrade the tool, don't mis-gate.

Exit status: 0 ok, 1 gate failed, 2 usage/input error.
"""

import argparse
import json
import sys

# Counters that measure deterministic algorithmic work (identical run to
# run); everything else (rates, sizes) is informational. lf_seeks / lf_fanin
# come from an untimed profiled pass in bench_matcher_ablation — they pin
# the leapfrog kernel's shape, not just its wall time. rounds (with
# matches_checked) is the chase's work on the reasoning benches.
DETERMINISTIC_COUNTERS = ("search_steps", "matches", "matches_checked",
                          "violations", "lf_seeks", "lf_fanin", "lf_rounds",
                          "rounds")
COUNTER_SLACK = 0.01

# Highest BENCH_*.json schema this tool understands (absent field = 1).
KNOWN_BENCH_SCHEMA = 2


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    schema = doc.get("gedlib_bench_schema", 1)
    if not isinstance(schema, int) or schema > KNOWN_BENCH_SCHEMA:
        sys.exit(f"error: {path} has gedlib_bench_schema={schema!r}; this "
                 f"tool understands <= {KNOWN_BENCH_SCHEMA} — update "
                 "tools/compare_bench.py before gating on it")
    benches = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        benches[b["name"]] = b
    return doc.get("context", {}), benches


TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def real_seconds(bench):
    return bench["real_time"] * TIME_UNITS.get(bench.get("time_unit", "ns"))


def comparable_hosts(ctx_a, ctx_b):
    if ctx_a.get("num_cpus") != ctx_b.get("num_cpus"):
        return False
    mhz_a, mhz_b = ctx_a.get("mhz_per_cpu"), ctx_b.get("mhz_per_cpu")
    if not mhz_a or not mhz_b:
        return False
    return abs(mhz_a - mhz_b) / max(mhz_a, mhz_b) <= 0.10


def diff_mode(args):
    base_ctx, base = load(args.baseline)
    fresh_ctx, fresh = load(args.fresh)
    same_host = comparable_hosts(base_ctx, fresh_ctx)
    if args.counters_only:
        # Short / noisy runs (the PR smoke job): wall-clock is advisory
        # even on a comparable host; only the deterministic counters gate.
        same_host = False
    if not same_host:
        print("note: wall-clock regressions are advisory "
              "(different host contexts or --counters-only) — "
              "deterministic counters still gate")

    failures = []
    for name in sorted(base):
        if name not in fresh:
            print(f"  [gone]     {name} (baseline only — refresh baselines?)")
            continue
        b, f = base[name], fresh[name]
        bt, ft = real_seconds(b), real_seconds(f)
        ratio = ft / bt if bt > 0 else float("inf")
        verdict = "ok"
        if ratio > 1 + args.threshold:
            verdict = "SLOWER"
            msg = (f"{name}: real_time {bt * 1e3:.3f}ms -> {ft * 1e3:.3f}ms "
                   f"({ratio:.2f}x, threshold {1 + args.threshold:.2f}x)")
            if same_host:
                failures.append(msg)
            else:
                verdict = "slower (advisory)"
        for counter in DETERMINISTIC_COUNTERS:
            if counter not in b and counter not in f:
                continue
            if counter not in f:
                # A counter the baseline gates on vanished — that silences
                # the gate for this series, so it is itself a failure.
                failures.append(
                    f"{name}: counter {counter} present in baseline but "
                    "missing from fresh run — deterministic gate silenced")
                verdict = "LOST COUNTER"
                continue
            if counter not in b:
                print(f"  [note]     {name}: new counter {counter} has no "
                      "baseline — refresh baselines to gate it")
                continue
            bc, fc = b[counter], f[counter]
            if fc > bc * (1 + COUNTER_SLACK):  # includes bc == 0, fc > 0
                failures.append(
                    f"{name}: counter {counter} {bc:.0f} -> {fc:.0f} "
                    "(deterministic — algorithmic regression)")
                verdict = "MORE WORK"
            elif fc < bc * (1 - COUNTER_SLACK):
                verdict += f" [{counter} improved {bc:.0f}->{fc:.0f}]"
        print(f"  [{verdict:>8}] {name}: {ratio:.2f}x")
    for name in sorted(set(fresh) - set(base)):
        print(f"  [new]      {name} (no baseline — refresh baselines)")

    if failures:
        print(f"\n{len(failures)} perf regression(s) vs {args.baseline}:")
        for msg in failures:
            print(f"  FAIL: {msg}")
        return 1
    print(f"\nno regressions vs {args.baseline}")
    return 0


def speedup_mode(args):
    _, benches = load(args.fresh)
    if args.skip_missing:
        missing = [n for n in (args.faster, args.slower) if n not in benches]
        if missing:
            print(f"skip: {', '.join(missing)} not in {args.fresh} "
                  "(backend not available on this host); gate passes")
            return 0
    try:
        fast, slow = benches[args.faster], benches[args.slower]
    except KeyError as e:
        sys.exit(f"error: benchmark {e} not in {args.fresh}")
    ratio = real_seconds(slow) / real_seconds(fast)
    ok = ratio >= args.min_ratio
    print(f"{args.faster} vs {args.slower}: {ratio:.2f}x "
          f"(required >= {args.min_ratio:.2f}x) -> "
          f"{'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def overhead_mode(args):
    _, benches = load(args.fresh)
    try:
        base = benches[args.base]
    except KeyError as e:
        sys.exit(f"error: benchmark {e} not in {args.fresh}")
    base_s = real_seconds(base)
    limits = args.max_overhead or [0.02]
    failed = False
    for i, test_name in enumerate(args.test):
        try:
            test = benches[test_name]
        except KeyError as e:
            sys.exit(f"error: benchmark {e} not in {args.fresh}")
        limit = limits[min(i, len(limits) - 1)]
        overhead = (real_seconds(test) / base_s - 1.0 if base_s > 0
                    else float("inf"))
        ok = overhead <= limit
        failed |= not ok
        print(f"{test_name} vs {args.base}: {overhead * 100:+.2f}% "
              f"(allowed <= {limit * 100:.2f}%) -> "
              f"{'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?",
                    help="baseline JSON (diff mode)")
    ap.add_argument("fresh", help="fresh benchmark JSON")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="fractional real_time regression that fails "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--counters-only", action="store_true",
                    help="diff mode: gate only the deterministic work "
                         "counters; wall-clock is always advisory (for "
                         "short, noisy smoke runs)")
    ap.add_argument("--speedup", action="store_true",
                    help="speedup-gate mode (single JSON)")
    ap.add_argument("--faster", help="benchmark name expected to be faster")
    ap.add_argument("--slower", help="benchmark name expected to be slower")
    ap.add_argument("--min-ratio", type=float, default=1.5,
                    help="required slower/faster time ratio (default 1.5)")
    ap.add_argument("--skip-missing", action="store_true",
                    help="speedup mode: pass with a note when --faster or "
                         "--slower is absent from the JSON (per-backend "
                         "series only exist on hosts that carry the "
                         "backend)")
    ap.add_argument("--overhead", action="store_true",
                    help="overhead-gate mode (single JSON)")
    ap.add_argument("--base", help="overhead mode: baseline benchmark name")
    ap.add_argument("--test", action="append",
                    help="overhead mode: benchmark that must stay within "
                         "its --max-overhead of --base (repeatable)")
    ap.add_argument("--max-overhead", action="append", type=float,
                    help="allowed fractional slowdown of the matching --test "
                         "over --base (repeatable, pairs up positionally; "
                         "the last value carries over; default 0.02 = 2%%)")
    args = ap.parse_args()

    if args.speedup and args.overhead:
        ap.error("--speedup and --overhead are mutually exclusive")
    if args.speedup:
        if not (args.faster and args.slower):
            ap.error("--speedup requires --faster and --slower")
        sys.exit(speedup_mode(args))
    if args.overhead:
        if not (args.base and args.test):
            ap.error("--overhead requires --base and --test")
        sys.exit(overhead_mode(args))
    if args.baseline is None:
        ap.error("diff mode requires baseline and fresh JSON paths")
    sys.exit(diff_mode(args))


if __name__ == "__main__":
    main()
