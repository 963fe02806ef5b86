"""Fixed-work benchmark of the mqap solver and scorer.

Run from the repository root:

    python3 perfbench/run.py --workload memetic-n40 --seed 1 --seconds 35 --trace 0

One process runs one workload in a closed loop (one client; the next
operation starts when the previous one ends).  Set-up writes the inputs,
one untimed warm-up operation follows, then whole cycles (every case
once) run until the next cycle would end past ``--seconds``.  Every
operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any failed operation makes the exit code 1.
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
import traceback
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import mqap; print(time.perf_counter() - t)"


# Nominal seconds of ``reference_loop``, near its median on the 2-core host of
# baseline.json; it fixes only the scale of the reported times.
REFERENCE_S = 0.008
_REF_MATRIX = np.arange(40 * 40, dtype=np.int64).reshape(40, 40) % 97
_REF_POINTS = [(i * 7 % 31, i * 11 % 37, i * 13 % 41) for i in range(80)]


def reference_loop() -> float:
    """Seconds a fixed loop takes now, a gauge of the host's current speed.

    The shared host's speed drifts by up to a half over minutes, in CPU
    time as much as in wall time, and no run is long enough to average
    that out.  Array code and interpreter code drift by different
    amounts, so the loop spends about equal time on each, as mqap does:
    int64 matrix products of instance size, and Python dominance tests
    over tuples.  It touches nothing of mqap, so no change to the program
    moves it.
    """
    start = time.perf_counter()
    a = _REF_MATRIX
    for _ in range(60):
        a @ a.T
    for _ in range(8):
        sum(1 for p in _REF_POINTS for q in _REF_POINTS
            if p[0] <= q[0] and p[1] <= q[1] and p[2] <= q[2])
    return time.perf_counter() - start


class Ledger:
    """Attempted and failed operations, with the timings and hypervolumes of the rest."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.reference: list[float] = []  # reference_loop before every operation

    def op(self, case) -> tuple[float, float] | None:
        """Run and check one operation; (seconds, hypervolume) if it passed."""
        self.reference.append(reference_loop())
        self.attempted += 1
        gc.collect()  # no operation pays for garbage the previous one left
        start = time.perf_counter()
        try:
            result = self.workload.run(case)
            seconds = time.perf_counter() - start
            problems, hv = self.workload.check(case, result)
        except Exception:
            traceback.print_exc()
            problems, hv = ["operation raised"], 0.0
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload.name}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return seconds, hv

    def cycle(self, seconds: list[list[float]], hvs: list[float]) -> None:
        """Run every case once; ``seconds[k]`` collects case k's timings."""
        for k, case in enumerate(self.cases):
            outcome = self.op(case)
            if outcome is not None:
                seconds[k].append(outcome[0])
                hvs.append(outcome[1])


def timed_setup(workload, seed: int, workdir: Path):
    """Median import and input-writing times over SETUP_REPEATS set-ups.

    Returns the cases, the set-up wall time and the median time of the
    ``reference_loop`` run before each import and each write.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, writes, reference = [], [], []
    for _ in range(SETUP_REPEATS):
        reference.append(reference_loop())
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        imports.append(float(probe.stdout.strip()))
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        reference.append(reference_loop())
        start = time.perf_counter()
        cases = workload.setup(seed, workdir)
        writes.append(time.perf_counter() - start)
    setup = statistics.median(imports) + statistics.median(writes)
    return cases, setup, statistics.median(reference)


def run_cycles(ledger: Ledger, seconds: float, trace: bool):
    """Closed loop of whole cycles; traced runs alternate untraced and traced cycles."""
    tracer = tracing.Tracer()
    untraced = [[] for _ in ledger.cases]
    traced = [[] for _ in ledger.cases]
    hvs, unmeasured = [], []
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < (2 if trace else 1) or time.perf_counter() - start + last <= seconds:
        cycle_start = time.perf_counter()
        if trace and done % 2 == 1:
            installed = tracing.install(tracer)
            try:
                ledger.cycle(traced, [])
            finally:
                installed.uninstall()
            unmeasured = installed.unmeasured + sorted(tracer.broken)
        else:
            ledger.cycle(untraced, hvs)
        last = time.perf_counter() - cycle_start
        done += 1
    return untraced, traced, hvs, tracer.snapshot(), unmeasured


def layer_metrics(totals, ops: int, overhead: float, unmeasured: list[str]) -> dict:
    """Per-operation layer figures from the traced cycles."""
    calls, total, own, counters = totals.calls, totals.total, totals.self_time, totals.counters

    def per_op(value):
        return value / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    scans = calls["evaluation.delta_scan"]
    accepts = counters["localsearch.accepts"]
    inserts = calls["archive.insert"]
    island_wall = total["island"]
    island_cpu = counters["island.cpu_s"]
    values = {
        "evaluation.delta_scans": (per_op(scans), "count"),
        "evaluation.delta_scan_s": (per_op(total["evaluation.delta_scan"]), "s"),
        "evaluation.us_per_delta_scan": (1e6 * ratio(total["evaluation.delta_scan"], scans), "us"),
        "evaluation.full_evals": (per_op(calls["evaluation.full_eval"]), "count"),
        "evaluation.full_eval_s": (per_op(total["evaluation.full_eval"]), "s"),
        "localsearch.calls": (per_op(calls["localsearch"]), "count"),
        "localsearch.self_s": (per_op(own["localsearch"]), "s"),
        "localsearch.accepts": (per_op(accepts), "count"),
        "localsearch.accept_ratio": (ratio(accepts, scans), "ratio"),
        "localsearch.unfinished": (per_op(counters["localsearch.unfinished"]), "count"),
        "ranking.calls": (per_op(calls["ranking"]), "count"),
        "ranking.points": (per_op(counters["ranking.points"]), "count"),
        "ranking.s": (per_op(total["ranking"]), "s"),
        "archive.inserts": (per_op(inserts), "count"),
        "archive.admitted": (per_op(counters["archive.admitted"]), "count"),
        "archive.admit_ratio": (ratio(counters["archive.admitted"], inserts), "ratio"),
        "archive.s": (per_op(total["archive.insert"]), "s"),
        "archive.merge_s": (per_op(total["archive.merge"]), "s"),
        "genetics.crossovers": (per_op(counters["genetics.crossovers"]), "count"),
        "genetics.s": (per_op(total["genetics"]), "s"),
        "island.generations": (per_op(counters["island.generations"]), "count"),
        "island.self_s": (per_op(own["island"]), "s"),
        "island.cpu_s": (per_op(island_cpu), "s"),
        "island.wait_s": (per_op(island_wall - island_cpu), "s"),
        "island.migrants_sent": (per_op(counters["island.migrants_sent"]), "count"),
        "island.migrants_received": (per_op(counters["island.migrants_received"]), "count"),
        "island.migration_s": (per_op(total["island.migration"]), "s"),
        "metrics.hv_calls": (per_op(calls["metrics.hv"]), "count"),
        "metrics.hv_points": (per_op(counters["metrics.hv_points"]), "count"),
        "metrics.hv_s": (per_op(total["metrics.hv"]), "s"),
        "metrics.nondominated_s": (per_op(total["metrics.nondominated"]), "s"),
        "metrics.ranksum_s": (per_op(total["metrics.ranksum"]), "s"),
        "runner.front_io_s": (per_op(total["runner.front_io"]), "s"),
        "runner.self_s": (
            per_op(own["runner.experiment"] + own["runner.load"] + own["runner.compare"]),
            "s",
        ),
        "trace.overhead_s": (overhead, "s"),
        "trace.unmeasured": (len(unmeasured), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def op_time(samples: list[list[float]]) -> float:
    """Mean over cases of each case's median operation time.

    Cases differ in work, so a median over all operations would jump
    between the cases' clusters; per-case medians do not.
    """
    medians = [statistics.median(times) for times in samples if times]
    return statistics.fmean(medians) if medians else 0.0


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, warm up and measure one workload.

    Returns the ledger, the metrics for the JSON line and extra report lines.
    """
    try:
        cases, setup, setup_host = timed_setup(workload, seed, workdir)
        workload.prepare(cases)
        ledger = Ledger(workload, cases)
        ledger.op(cases[0])  # warm-up: checked, not timed
        untraced, traced, hvs, totals, unmeasured = run_cycles(ledger, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = op_time(untraced)
    host = statistics.median(ledger.reference)
    if trace:
        overhead = op_time(traced) - wall
        ops = sum(map(len, traced))
        notes = [f"unmeasured {name}" for name in unmeasured]
        metrics = layer_metrics(totals, ops, overhead, unmeasured)
        metrics["host.reference_ms"] = {"value": 1e3 * host, "unit": "ms"}
        metrics["runner.op_wall_s"] = {"value": wall, "unit": "s"}
        return ledger, metrics, notes
    metrics = {
        # Wall times at the host speed of REFERENCE_S; see reference_loop.
        "op_s": {"value": wall * REFERENCE_S / host, "unit": "s"},
        "hv": {"value": statistics.fmean(hvs) if hvs else 0.0, "unit": "1"},
        "setup_s": {"value": setup * REFERENCE_S / setup_host, "unit": "s"},
        "rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
            "unit": "MB",
        },
    }
    ops = sum(map(len, untraced))
    return ledger, metrics, [
        f"op_s over {ops} operations of {len(untraced)} cases",
        f"op wall time {wall:.6g} s, reference loop {1e3 * host:.6g} ms",
        f"set-up wall time {setup:.6g} s, reference loop {1e3 * setup_host:.6g} ms",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The thread cap would change the fleet's concurrency; runs use the default.
    os.environ.pop("MQAP_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        import mqap
    except ImportError as exc:
        print(f"error: cannot import mqap from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(mqap.__file__).resolve().parent.parent != SRC:
        # An installed copy would be measured instead of this checkout's code.
        print(f"error: mqap was imported from {mqap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        ledger, metrics, notes = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # absent, or another run still uses it

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"error_rate {ledger.failed / ledger.attempted:.4f} ratio "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
