"""pwlannulus benchmark: one workload, one process, one thread, closed loop.

    python3 pwlbench/run.py --workload {scan,pointwise,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
The run draws one pass of inputs from the seed, runs one untimed warm-up pass
and checks every output of it against independent computations, then times a
whole number of passes (`PASSES_PER_SECOND` times S, sized so a pass takes
about 1/PASSES_PER_SECOND seconds here).  Every timed output must repeat the
checked one.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pwlbench")

WORKLOADS = ("scan", "pointwise", "cli")
PASSES_PER_SECOND = {"scan": 0.75, "pointwise": 6.0, "cli": 0.25}
MIN_PASS_OPS = 100        # so that at least ten samples of a pass lie beyond its p90
MIN_PASSES = 3
SETUP_PROBES = 7          # fresh processes whose set-up time gives setup_s
TRACE_PASSES = 2          # traced passes, each preceded by an untraced one


def _fail(message: str) -> None:
    print(f"pwlbench: {message}", file=sys.stderr)
    sys.exit(2)


def _raised(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def run_pass(ops, latencies=None):
    """One closed-loop pass; returns (wall seconds, outputs)."""
    clock = time.perf_counter
    outs = []
    start = clock()
    for fn, arg in ops:
        t0 = clock()
        try:
            out = fn(arg)
        except Exception as exc:  # an operation that raises is a failed operation
            out = _raised(exc)
        if latencies is not None:
            latencies.append(clock() - t0)
        outs.append(out)
    return clock() - start, outs


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to the end of its set-up."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(WORK, f"probe-{os.getpid()}-{i}")
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, probe, workload, str(seed), workdir],
                              capture_output=True, text=True, timeout=120, check=False)
        shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "pwlannulus", "__init__.py")):
        _fail(f"no pwlannulus sources under {SRC}; run from a source checkout")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    sys.path.insert(0, SRC)
    import workloads
    import pwlannulus
    if not os.path.abspath(pwlannulus.__file__).startswith(SRC + os.sep):
        _fail(f"pwlannulus was imported from {pwlannulus.__file__}, not from {SRC}")

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        w = workloads.setup(args.workload, args.seed, workdir)
        result = measure(w, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


def check_outputs(w, outs) -> list:
    """Error text per op (None when the output passed), outside any timing."""
    errors = []
    for inp, out in zip(w.inputs, outs):
        if isinstance(out, str) and out.startswith("raised "):
            errors.append(out)
            continue
        try:
            errors.append(w.check(inp, out))
        except Exception as exc:  # a check that cannot read the output fails it
            errors.append("check " + _raised(exc))
    return errors


class Tally:
    """Attempted and failed timed operations.  An operation fails when its
    checked warm-up output failed, or when a timed output differs from it."""

    def __init__(self, w, reference_outs, errors):
        self.reference_outs = reference_outs
        self.errors = errors
        self.known_faulty = w.known_faulty
        self.attempted = self.failed = 0
        self.unexpected = False

    def add(self, outs) -> None:
        self.attempted += len(outs)
        for i, (out, want) in enumerate(zip(outs, self.reference_outs)):
            if self.errors[i] is not None or out != want:
                self.failed += 1
                self.unexpected |= i not in self.known_faulty

    def result(self, metrics) -> dict:
        return {"correct": not self.unexpected, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(w, args) -> dict:
    _, reference_outs = run_pass(w.ops)            # warm-up pass
    errors = check_outputs(w, reference_outs)
    for i, err in enumerate(errors):
        if err is not None and i not in w.known_faulty:
            print(f"pwlbench: {w.name} op {i} failed: {err}", file=sys.stderr)
    n = len(w.ops)
    if n < MIN_PASS_OPS:
        _fail(f"a {w.name} pass has {n} operations; p90 needs {MIN_PASS_OPS}")
    tally = Tally(w, reference_outs, errors)
    if args.trace:
        return measure_traced(w, tally)

    # Each figure is taken per pass and reported as the median over passes:
    # the host's speed drifts by tens of percent within seconds, and a pass
    # caught in a slow spell then moves no figure.
    rates, p50s, p90s = [], [], []
    for _ in range(max(round(args.seconds * PASSES_PER_SECOND[w.name]), MIN_PASSES)):
        gc.collect()
        latencies = []
        wall, outs = run_pass(w.ops, latencies)
        tally.add(outs)
        rates.append(n / wall)
        p50s.append(statistics.median(latencies) * 1e3)
        p90s.append(statistics.quantiles(latencies, n=10)[8] * 1e3)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tally.result({
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(p50s), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.median(p90s), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    })


def measure_traced(w, tally) -> dict:
    """Alternate untraced and traced passes; per-layer figures from the spans."""
    import tracing
    tracer = tracing.Tracer()
    traced_ops = [(tracer.wrap("op", fn), arg) for fn, arg in w.ops]
    rates, traced_rates = [], []
    for _ in range(TRACE_PASSES):
        gc.collect()
        wall, outs = run_pass(w.ops)
        tally.add(outs)
        rates.append(len(outs) / wall)
        gc.collect()
        tracer.install()
        try:
            wall, outs = run_pass(traced_ops)
        finally:
            tracer.uninstall()
        tally.add(outs)
        traced_rates.append(len(outs) / wall)
    overhead = statistics.median(rates) / statistics.median(traced_rates)
    metrics = tracing.per_layer_metrics(tracer.spans, overhead)
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"trace-{w.name}.jsonl"))
    return tally.result(metrics)


if __name__ == "__main__":
    sys.exit(main())
