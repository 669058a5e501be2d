#!/usr/bin/env python3
"""The heatjets benchmark: `heatinv compute` on seeded workloads.

Usage:
  python3 perfbench/run.py --workload {symbolic,dense,curvature,sphere}
                           --seed N --seconds S --trace {0,1}

Run from the repository root.  The load is a closed loop with one client:
each request is a fresh worker process (``worker.py``) that imports
``heatjets.cli`` from ``src/`` and calls ``main([compute, ..., --format
json])`` once, and the next request starts only after it has ended.  New
requests start until S seconds have passed, so the last one may run past S.
Every returned a_n is checked exactly against ``oracles.references``, which
is computed before the loop and never from the timed route.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: solve_s (median
wall time of one main() call), setup_s (median import time over every worker
of the run, including SETUP_SAMPLES import-only ones) and peak_rss_mb
(median ru_maxrss of the request workers).  --trace 1 runs one untraced
request and then traced ones (``tracer.py``), and reports the per-layer
metrics (low medians over the traced requests) and trace.overhead_s.

Human-readable lines come first; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}, where attempted and
failed count coefficients a_n.  Without ``src/heatjets`` the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

#: Import-only workers per untraced run, so setup_s is a median of several.
SETUP_SAMPLES = 5
#: Every worker has ended by this many seconds after the run started.
DEADLINE_S = 170.0


def spawn(argv, trace, deadline):
    """Run one worker; its report, or None if it failed or timed out."""
    cmd = [sys.executable, "-I", str(BENCH_DIR / "worker.py"), str(SRC),
           "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def tail_summary(samples):
    """Median, count and the highest percentile with >= 10 samples beyond."""
    text = f"median {statistics.median(samples):.6f} s over {len(samples)}"
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (100 - p) / 100 >= 10:
            idx = math.ceil(p / 100 * len(ordered)) - 1
            return text + f", p{p:g} {ordered[idx]:.6f} s"
    return text + " (too few samples for a tail percentile)"


class Run:
    """One benchmark invocation: its request, limits and failure tally.

    `check(exit_code, stdout)` counts the failed coefficients of one reply.
    """

    def __init__(self, ns, check, seconds, deadline):
        self.ns = ns
        self.check = check
        self.seconds = seconds
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def send(self, argv, trace):
        """One request; returns its worker report (None if it died)."""
        report = spawn(argv, trace, self.deadline)
        self.attempted += len(self.ns)
        if report is None:
            self.failed += len(self.ns)
        else:
            self.failed += self.check(report["exit"], report["stdout"])
        return report


def measure(run, argv, trace, start):
    """Closed loop: requests until run.seconds have passed since `start`
    (at least one); returns the reports of those that completed."""
    reports = []
    while True:
        report = run.send(argv, trace)
        if report is not None:
            reports.append(report)
        if time.monotonic() - start >= run.seconds:
            return reports


def end_to_end(run, argv):
    setup = []
    for _ in range(SETUP_SAMPLES):
        report = spawn([], False, run.deadline)
        if report is None:
            raise SystemExit("import-only worker failed")
        setup.append(report["setup_s"])
    reports = measure(run, argv, False, time.monotonic())
    if not reports:
        return {}
    solve = [r["solve_s"] for r in reports]
    setup += [r["setup_s"] for r in reports]
    print(f"solve_s: {tail_summary(solve)}")
    print(f"setup_s: median {statistics.median(setup):.6f} s over "
          f"{len(setup)} workers")
    return {
        "solve_s": statistics.median(solve),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(run, argv):
    start = time.monotonic()
    baseline = run.send(argv, trace=False)
    traced = measure(run, argv, True, start)
    if baseline is None or not traced:
        return {}
    # The low median is one request's own figure, so counts stay whole.
    metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    solve = [r["solve_s"] for r in traced]
    metrics["trace.overhead_s"] = statistics.median(solve) - baseline["solve_s"]
    print(f"traced solve_s: {tail_summary(solve)}; untraced "
          f"{baseline['solve_s']:.6f} s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("symbolic", "dense", "curvature", "sphere"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "heatjets" / "cli.py").is_file():
        print(f"error: no heatjets sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # Bytecode as an installed package has it, so workers time a warm import.
    compileall.compile_dir(SRC / "heatjets", quiet=1)
    sys.path.insert(0, str(SRC))
    import oracles
    import workloads

    request = workloads.make_request(args.workload, args.seed)
    check = functools.partial(oracles.count_failures, request.ns,
                              oracles.references(request))
    run = Run(request.ns, check, args.seconds, deadline)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        metric_file = Path(tmp) / "metric.json"
        if request.metric is not None:
            metric_file.write_text(json.dumps(request.metric))
        cli_argv = request.argv(metric_file)
        if args.trace:
            values = per_layer(run, cli_argv)
        else:
            values = end_to_end(run, cli_argv)
    if not values:
        print("error: no request completed", file=sys.stderr)
        return 1
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    print(f"workload {args.workload}, seed {args.seed}: failed_ratio "
          f"{run.failed}/{run.attempted} coefficients")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
