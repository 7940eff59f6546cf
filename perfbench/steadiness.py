"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steadiness.py

It runs every workload of BENCHMARK.json at its run_seconds, in two
sets of ten seeds: 1-10, then 11-20, which the first set did not use.
For every set, workload and end-to-end metric it prints the median, the
quartiles and the spread
(third minus first quartile, as a share of the median), the share of
failed operations, and the reference figures kept in the result files:
raw wall-time medians and calibration factors.  It also prints how far
each median of the second set lies from the first.  Then it makes two
traced runs of seed 1 and prints the per-layer metrics, the tracing
overhead, the bare interpreter start and whether the count metrics
repeat exactly.  Runs are made one at a time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SECONDS = BENCH["run_seconds"]
SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = (1, 1)


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"result-{workload}-{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        result["detail"] = json.load(fh)["detail"]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report_set(label, workload, results):
    print(f"\n### {label}: {workload}, seeds {[r['seed'] for r in results]}\n")
    print("| metric | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|")
    for name in results[0]["metrics"]:
        med, q1, q3, s = spread([r["metrics"][name]["value"] for r in results])
        print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {100 * s:.1f}% |")
    failed = sorted({(r["failed"], r["attempted"]) for r in results})
    correct = all(r["correct"] for r in results)
    raw = statistics.median(r["detail"]["raw_p50_ms"] for r in results)
    factor = statistics.median(r["detail"]["calibration_factor_p50"] for r in results)
    ops = sorted({r["detail"]["operations"] for r in results})
    tail = sorted({r["detail"]["tail_percentile"] for r in results})
    print(f"\ncorrect: {correct}; failed/attempted: {failed}; operations per run: {ops}; "
          f"tail percentile: p{tail}; raw p50 median: {raw:.4g} ms; calibration factor median: {factor:.3f}")


def main():
    medians = {}
    for s in range(SETS):
        for workload in WORKLOADS:
            results = []
            for seed in SEEDS:
                r = run(workload, seed + s * len(SEEDS), SECONDS, 0)
                r["seed"] = seed + s * len(SEEDS)
                results.append(r)
            report_set(f"set {s + 1}", workload, results)
            for name in results[0]["metrics"]:
                medians.setdefault((workload, name), []).append(
                    statistics.median(r["metrics"][name]["value"] for r in results))
    print("\n### later sets against the first: median / first median - 1\n")
    print("| workload | metric | " + " | ".join(f"set {s + 1}" for s in range(1, SETS)) + " |")
    print("|---|---|" + "---|" * (SETS - 1))
    for (workload, name), meds in medians.items():
        print(f"| {workload} | {name} | " + " | ".join(f"{100 * (m / meds[0] - 1):+.1f}%" for m in meds[1:]) + " |")
    traced = [run(WORKLOADS[0], seed, SECONDS, 1) for seed in TRACED_SEEDS]
    print("\n### traced runs\n")
    print("| metric | unit | " + " | ".join(f"seed {seed}" for seed in TRACED_SEEDS) + " |")
    print("|---|---|" + "---|" * len(traced))
    for name, entry in traced[0]["metrics"].items():
        values = " | ".join(f"{t['metrics'][name]['value']:.4g}" for t in traced)
        print(f"| {name} | {entry['unit']} | {values} |")
    bare = [f"{t['detail']['bare_interpreter_ms']:.1f}" for t in traced]
    print(f"\nbare interpreter start (calibrated ms): {', '.join(bare)}")
    counts = [n for n, e in traced[0]["metrics"].items() if e["unit"] in ("count", "bits")]
    same = all(len({t["metrics"][n]["value"] for t in traced}) == 1 for n in counts)
    print(f"count metrics repeat exactly: {same}")


if __name__ == "__main__":
    main()
