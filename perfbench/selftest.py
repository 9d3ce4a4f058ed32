#!/usr/bin/env python3
"""Self-test of the dcache benchmark.

Run from the repository root:  python3 perfbench/selftest.py

Checks, on short fixed-op-count runs:
  1. one seed yields an identical op stream (the ledger's stream_hash) on
     every workload, and another seed a different one;
  2. on the single-threaded workloads (warm-lookup, cold-scan) every count
     in the ledger repeats exactly across two runs of a seed, and so do the
     count-based per-layer metrics such as storage.block_reads_per_op and
     walk.slow_comps_per_op;
  3. every run is correct (no failed op, clean audit);
  4. the metric names a run prints are exactly BENCHMARK.json's end_to_end
     (--trace 0) and per_layer (--trace 1) names, with the same units.
Exits nonzero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (the build step is shared with the benchmark)

# Counts per-layer metrics are built from, which repeat exactly with one
# thread and a fixed op count.
COUNT_METRICS = ["storage.block_reads_per_op", "storage.block_writes_per_op",
                 "walk.slow_comps_per_op", "walk.fast_hit_ratio",
                 "governor.shrinks_per_tick", "dcache.dentries"]


def drive(exe, workload, seed, ops, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", "60",
         "--trace", str(trace), "--ops", str(ops)],
        check=False, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr}")
    ledger = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "ledger":
            ledger[parts[1]] = int(parts[2])
    return ledger, json.loads(lines[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    exe = run.build(run.build_dir())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    plan = [("cold-scan", 40000, True), ("warm-lookup", 200000, True),
            ("mail-serve", 3000, False)]
    for workload, ops, single_threaded in plan:
        a_led, a = drive(exe, workload, 7, ops, 1)
        b_led, b = drive(exe, workload, 7, ops, 0)
        c_led, _ = drive(exe, workload, 8, ops, 0)
        check(a["correct"] and b["correct"], f"{workload}: runs are correct")
        check(a_led["stream_hash"] == b_led["stream_hash"],
              f"{workload}: seed 7 gives the same op stream twice")
        check(a_led["stream_hash"] != c_led["stream_hash"],
              f"{workload}: seed 8 gives a different op stream")
        names = {k: v["unit"] for k, v in a["metrics"].items()}
        check(names == layer, f"{workload}: --trace 1 prints BENCHMARK.json "
              "per_layer metrics")
        names = {k: v["unit"] for k, v in b["metrics"].items()}
        check(names == e2e, f"{workload}: --trace 0 prints BENCHMARK.json "
              "end_to_end metrics")
        if not single_threaded:
            continue
        a2_led, a2 = drive(exe, workload, 7, ops, 1)
        diff = [k for k in a_led if k.startswith("probe.") is False
                and a_led[k] != a2_led.get(k)]
        check(not diff, f"{workload}: every ledger count repeats exactly "
              f"({len(a_led)} counts; differing: {diff})")
        same = all(a["metrics"][m]["value"] == a2["metrics"][m]["value"]
                   for m in COUNT_METRICS)
        check(same, f"{workload}: {', '.join(COUNT_METRICS)} repeat exactly")
    print("selftest passed")


if __name__ == "__main__":
    main()
