"""Benchmark of trilocal: three workloads, calibrated against machine speed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; trilocal is imported from its
src/ directory.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end metrics of the named workload; with
--trace 1 they are the per-layer metrics of all three workloads, from
one traced pass over each.  perfbench/README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from calibration import LOOP, SPAWN, Calibrated, pin_to_one_cpu
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = {
    "normal-forms": "wl_normal_forms",
    "module-localization": "wl_module_localization",
    "cli-session": "wl_cli_session",
}
SETUP_PROBES = 5
IMPORT_PROBES = 7


def rounds_for(mod, seconds):
    """Rounds of the workload's fixed list: a function of --seconds only."""
    return max(mod.MIN_ROUNDS, round(seconds / mod.ROUND_SECONDS))


class Pass:
    """Calibrated times and kept outputs of one pass over a list of operations."""

    def __init__(self):
        self.seconds = []  # calibrated, one per operation that did not fail
        self.raw = []
        self.factors = []
        self.kept = []  # (operation, kept output)
        self.positions = []  # index in the list of each operation that did not fail
        self.errors = []


def measure(wl, ops, run=None, tracer=None, kernel=LOOP):
    run = run or wl.run
    out = Pass()
    for k, i in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op = k
        with Calibrated(kernel) as c:
            try:
                result = run(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
        if isinstance(result, Exception):
            out.errors.append(f"operation {i}: {type(result).__name__}: {result}")
            continue
        out.seconds.append(c.seconds)
        out.raw.append(c.raw_s)
        out.factors.append(c.factor)
        out.kept.append((i, wl.keep(i, result)))
        out.positions.append(k)
    return out


def close(wl):
    """Stop the processes a workload keeps for its operations, if any."""
    if hasattr(wl, "close"):
        wl.close()


def tail_percentile(n):
    """The highest whole percentile with at least ten operations beyond it."""
    p = 99
    while p > 1 and n - 1 - math.floor((n - 1) * p / 100) < 10:
        p -= 1
    return p


def percentile(values, p):
    """The p-th percentile, interpolated between the two nearest operations."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def probe_setup(name, seed, seconds, kernel):
    """Calibrated time from a fresh process to its first timed operation."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--probe-setup"]
    with Calibrated(kernel, runs=5) as c:
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - c.start
            proc.stdout.read()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe of {name} failed with exit code {code}")
    return elapsed * c.factor


def measured_run(args):
    mod = importlib.import_module(WORKLOADS[args.workload])
    rounds = rounds_for(mod, args.seconds)
    clock = [time.perf_counter()]
    setups = [probe_setup(args.workload, args.seed, args.seconds, mod.KERNEL) for _ in range(SETUP_PROBES)]
    wl = mod.Workload(args.seed, rounds, ROOT, OUT)
    try:
        wl.warm_up()
        ops = wl.operations()
        clock.append(time.perf_counter())
        run = measure(wl, ops, kernel=mod.KERNEL)
        clock.append(time.perf_counter())
    finally:
        close(wl)
    if hasattr(wl, "peak_rss_kib"):  # work done in child processes
        rss_kib = wl.peak_rss_kib(run.kept)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = wl.check(run.kept)
    clock.append(time.perf_counter())
    p = tail_percentile(len(run.seconds))
    metrics = {
        "throughput_ops_s": (len(run.seconds) / sum(run.seconds), "ops/s"),
        "latency_p50_ms": (1000 * statistics.median(run.seconds), "ms"),
        "latency_tail_ms": (1000 * percentile(run.seconds, p), "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {
        "operations": len(ops),
        "rounds": rounds,
        "tail_percentile": p,
        "raw_p50_ms": 1000 * statistics.median(run.raw),
        "raw_total_s": sum(run.raw),
        "calibration_factor_p50": statistics.median(run.factors),
        "calibration_factor_range": [min(run.factors), max(run.factors)],
        "setup_samples_s": setups,
        "wall_s": {"set_up": clock[1] - clock[0], "measure": clock[2] - clock[1], "check": clock[3] - clock[2]},
        "operation_seconds": [[i, round(t, 6)] for (i, _), t in zip(run.kept, run.seconds)],
    }
    return len(ops), run.errors, problems, metrics, detail


def traced_run(args):
    """One untraced and one traced pass over every workload's traced list.

    Everything runs in this process, cli-session's commands too, so every
    pass is calibrated by the loop kernel."""
    attempted, errors, problems, metrics, detail = 0, [], [], {}, {}
    for name, modname in WORKLOADS.items():
        mod = importlib.import_module(modname)
        wl = mod.Workload(args.seed, mod.TRACE_ROUNDS, ROOT, OUT)
        wl.warm_up()
        close(wl)  # every pass runs in this process
        ops = wl.operations()
        run = getattr(wl, "run_in_process", wl.run)
        plain = measure(wl, ops, run)
        tracer = Tracer()
        mod.instrument(tracer)
        try:
            traced = measure(wl, ops, run, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(OUT, f"trace-{name}-{args.seed}.jsonl"))
        attempted += 2 * len(ops)
        errors += plain.errors + traced.errors
        problems += wl.check(plain.kept + traced.kept)
        metrics.update(mod.layer_metrics(wl, ops, traced, tracer))
        overhead = 100 * (sum(traced.seconds) / sum(plain.seconds) - 1)
        metrics[f"trace.overhead_pct.{name}"] = (overhead, "%")
        detail[name] = {"untraced_s": sum(plain.seconds), "traced_s": sum(traced.seconds)}
    bare, imported = import_probe()
    metrics["cli.import_ms"] = (1000 * (imported - bare), "ms")
    detail["bare_interpreter_ms"] = 1000 * bare
    return attempted, errors, problems, metrics, detail


def import_probe():
    """Median calibrated start of a bare interpreter and of one importing trilocal.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = {"pass": [], "import trilocal.cli": []}
    for _ in range(IMPORT_PROBES):
        for code, acc in samples.items():
            with Calibrated(SPAWN) as c:
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            acc.append(c.seconds)
    return statistics.median(samples["pass"]), statistics.median(samples["import trilocal.cli"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: set the workload up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trilocal", "__init__.py")):
        print(f"perfbench: no trilocal sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.probe_setup:
        mod = importlib.import_module(WORKLOADS[args.workload])
        wl = mod.Workload(args.seed, rounds_for(mod, args.seconds), ROOT, OUT)
        try:
            wl.warm_up()
            print("ready", flush=True)
        finally:
            close(wl)
        return 0

    pin_to_one_cpu()
    # compile once up front, so that no set-up probe pays for the .pyc files
    compileall.compile_dir(os.path.join(SRC, "trilocal"), quiet=1)
    os.makedirs(OUT, exist_ok=True)
    import trilocal

    if not os.path.abspath(trilocal.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported trilocal from {trilocal.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    attempted, errors, problems, metrics, detail = (traced_run if args.trace else measured_run)(args)
    for line in (errors + problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, detail=detail, errors=errors[:100], problems=problems[:100]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
