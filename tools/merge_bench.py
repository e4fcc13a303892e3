#!/usr/bin/env python3
"""Merges Google Benchmark JSON files into one, for a single baseline.

    merge_bench.py out.json in1.json in2.json ...

The output keeps the first input's "context" and concatenates every
input's "benchmarks" in argument order, stamped with the gedlib bench
schema version compare_bench.py reads (KNOWN_BENCH_SCHEMA there). Used to
build bench/baselines/BENCH_reasoning.json and the CI runs gated against it
from bench_fig2_chase, bench_table1_satisfiability and
bench_table1_implication.
"""

import json
import sys

BENCH_SCHEMA = 2


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    out_path, inputs = sys.argv[1], sys.argv[2:]
    merged = None
    for path in inputs:
        with open(path) as f:
            doc = json.load(f)
        if merged is None:
            merged = {"context": doc.get("context", {}), "benchmarks": []}
        merged["benchmarks"].extend(doc.get("benchmarks", []))
    merged["gedlib_bench_schema"] = BENCH_SCHEMA
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
