#!/usr/bin/env python3
"""End-to-end benchmark of gedlib: one command, six seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library from src/
and the perfbench binary into .bench_build/perfbench (Release). The binary
runs one workload in a closed loop on one caller thread for S seconds,
checks every output, and reports:

  --trace 0  every end-to-end metric named in BENCHMARK.json;
  --trace 1  every per-layer metric, from spans the binary records around
             its calls into the library (also written to
             .bench_build/perfbench-traces/ as JSON lines).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give the run context (nproc, the
effective-parallelism probe, kernel backend, fsync policy, WAL
filesystem), the error rate and the counts that must repeat for a seed.
A failed or wrong operation makes the command exit with status 1.

Extra option for the smoke tests: --scale tiny shrinks every input.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the perfbench binary; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.exists(BINARY):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def golden_violations(workload, seed, scale):
    if workload != "validate-match" or scale != "full":
        return None
    with open(os.path.join(HERE, "seeds.json")) as f:
        golden = json.load(f)["validate_match_violations"]
    return golden.get(str(seed))


def self_times(spans):
    """Per span name: count, total ms, self ms (minus child-covered time)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        dur = s["end_ns"] - s["start_ns"]
        row[0] += 1
        row[1] += dur / 1e6
        row[2] += (dur - child_ns[i]) / 1e6
    return table


def print_trace_summary(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    print("span                            count    total_ms     self_ms")
    for name, (count, total, own) in sorted(self_times(spans).items()):
        print(f"{name:30s} {count:6d} {total:11.3f} {own:11.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not build():
        return 2
    declared = declared_metrics(args.trace)

    work = os.path.join(BUILD_ROOT, "perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--scale", args.scale]
    expect = golden_violations(args.workload, args.seed, args.scale)
    if expect is not None:
        cmd += ["--expect", str(expect)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"{args.workload}: perfbench exited with {proc.returncode}")
        shutil.rmtree(work, ignore_errors=True)
        return 2
    raw = json.loads(lines[-1])

    trace_file = raw["context"].pop("trace_file", None)
    if trace_file:
        os.makedirs(TRACE_DIR, exist_ok=True)
        kept = os.path.join(TRACE_DIR, os.path.basename(trace_file))
        shutil.move(trace_file, kept)
        raw["context"]["trace_file"] = os.path.relpath(kept, ROOT)
    shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"{args.workload}: metric {m['name']} missing or in the wrong unit")
            return 2
        metrics[m["name"]] = got
    attempted, failed = raw["attempted"], raw["failed"]

    print(json.dumps({"context": raw["context"]}, sort_keys=True))
    print(json.dumps({"deterministic": raw["deterministic"]}, sort_keys=True))
    print(f"error_rate {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} operations and checks failed)")
    for err in raw["errors"]:
        print("error: " + err)
    if args.trace and "trace_file" in raw["context"]:
        print_trace_summary(os.path.join(ROOT, raw["context"]["trace_file"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
