"""Self-tests of the benchmark: tracer arithmetic, output gate, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mqap.localsearch
import oracle
import run
import tracing
from mqap import metrics
from workloads import ScoreWorkload, SolverWorkload

BENCH = Path(__file__).resolve().parents[1]

SMOKE = {
    "memetic-n40": SolverWorkload(
        "memetic-smoke", "memetic", n=12, m=2, islands=1, generations=2, population=6, cases=2
    ),
    "nsga2-fleet": SolverWorkload(
        "nsga2-smoke", "nsga2", n=10, m=3, islands=2, generations=6, population=10, cases=2
    ),
    "score-hv": ScoreWorkload("score-smoke", shapes=((3, 12), (4, 8)), trials=3, cases=2),
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    for at, action in [
        (0, "root"), (1, "a"), (2, "leaf"), (3, None), (4, None), (5, "b"), (9, None), (10, None)
    ]:
        clock.now = at
        if action:
            tracer.enter(action)
        else:
            tracer.exit()
    totals = tracer.snapshot()
    assert dict(totals.total) == {"root": 10, "a": 3, "leaf": 1, "b": 4}
    assert dict(totals.self_time) == {"root": 3, "a": 2, "leaf": 1, "b": 4}
    assert dict(totals.calls) == {"root": 1, "a": 1, "leaf": 1, "b": 1}


def test_spans_on_another_thread_are_not_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("main")
    clock.now = 2

    def worker():
        tracer.enter("island")
        clock.now = 5
        tracer.exit()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 6
    tracer.exit()
    totals = tracer.snapshot()
    assert totals.self_time["main"] == 6
    assert totals.self_time["island"] == 3


def test_op_time_averages_per_case_medians():
    assert run.op_time([[1.0, 1.0, 9.0], [3.0], []]) == 2.0
    assert run.op_time([[], []]) == 0.0


def test_install_rebinds_and_restores_and_reports_missing_names():
    original = mqap.localsearch.swap_delta_matrix
    probes = tracing.PROBES + (
        tracing.Probe("mqap.island:entry_point_that_was_removed", "gone"),
        tracing.Probe("mqap.module_that_was_removed:f", "gone"),
    )
    installed = tracing.install(tracing.Tracer(), probes)
    try:
        assert mqap.localsearch.swap_delta_matrix is not original
    finally:
        installed.uninstall()
    assert mqap.localsearch.swap_delta_matrix is original
    assert installed.unmeasured == [
        "mqap.island:entry_point_that_was_removed",
        "mqap.module_that_was_removed:f",
    ]


def _valid_front(tmp_path):
    rng = np.random.default_rng(3)
    n = 7
    distances = rng.integers(0, 20, (n, n))
    flows = (rng.integers(0, 20, (n, n)), rng.integers(0, 20, (n, n)))
    perms = np.array([rng.permutation(n) for _ in range(60)])
    perms = np.unique(perms, axis=0)
    objs = oracle.objectives(distances, flows, perms)
    keep = ~oracle.dominated_mask(objs)
    return distances, flows, perms[keep], objs[keep], perms[~keep], objs[~keep]


def _write_front(path: Path, perms, objs):
    lines = ["! instance=test"] + [
        " ".join(map(str, p)) + " | " + " ".join(map(str, o)) for p, o in zip(perms, objs)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_objectives_match_the_naive_sum():
    distances, flows, perms, objs, _, _ = _valid_front(None)
    for perm, obj in zip(perms, objs):
        naive = [
            sum(int(distances[i, j]) * int(f[perm[i], perm[j]]) for i in range(7) for j in range(7))
            for f in flows
        ]
        assert naive == obj.tolist()


def test_gate_accepts_a_true_front(tmp_path):
    distances, flows, perms, objs, _, _ = _valid_front(tmp_path)
    _write_front(tmp_path / "f.front", perms, objs)
    read_perms, read_objs = oracle.read_front(tmp_path / "f.front")
    assert oracle.check_front(distances, flows, read_perms, read_objs) == []


def test_gate_rejects_one_corrupted_objective(tmp_path):
    distances, flows, perms, objs, _, _ = _valid_front(tmp_path)
    objs = objs.copy()
    objs[len(objs) // 2, 1] -= 1
    _write_front(tmp_path / "f.front", perms, objs)
    problems = oracle.check_front(distances, flows, *oracle.read_front(tmp_path / "f.front"))
    assert any("differ from recomputation" in p for p in problems)


def test_gate_rejects_a_dominated_point(tmp_path):
    distances, flows, perms, objs, dominated_perms, dominated_objs = _valid_front(tmp_path)
    perms = np.vstack([perms, dominated_perms[:1]])
    objs = np.vstack([objs, dominated_objs[:1]])
    _write_front(tmp_path / "f.front", perms, objs)
    problems = oracle.check_front(distances, flows, *oracle.read_front(tmp_path / "f.front"))
    assert problems == [f"rows [{len(perms) - 1}] are dominated"]


def test_gate_rejects_repeats_and_non_permutations():
    distances, flows, perms, objs, _, _ = _valid_front(None)
    twice = oracle.check_front(distances, flows, np.vstack([perms, perms[:1]]),
                               np.vstack([objs, objs[:1]]))
    assert "front repeats a permutation" in twice
    broken = perms.copy()
    broken[0, 0] = broken[0, 1]
    assert "not permutations" in oracle.check_front(distances, flows, broken, objs)[0]


@pytest.mark.parametrize("m,points", [(2, 30), (3, 25), (4, 15)])
def test_grid_hypervolume_matches_mqap(m, points):
    rng = random.Random(m)
    front = [tuple(rng.random() for _ in range(m)) for _ in range(points)]
    ref = (1.05,) * m
    expected = metrics.hypervolume(front, ref)
    assert oracle.hypervolume(front, ref) == pytest.approx(expected, rel=1e-12)


def test_cost_bounds_bracket_every_assignment():
    rng = np.random.default_rng(5)
    n = 5
    distances = rng.integers(0, 9, (n, n))
    flows = (rng.integers(0, 9, (n, n)), rng.integers(0, 9, (n, n)))
    perms = np.array(list(itertools.permutations(range(n))))
    costs = oracle.objectives(distances, flows, perms)
    low, high = oracle.cost_bounds(distances, flows)
    assert (costs >= low).all() and (costs <= high).all()


def _smoke(name, tmp_path, trace):
    return run.run_workload(SMOKE[name], seed=7, seconds=0, trace=trace, workdir=tmp_path / name)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_the_gate(name, tmp_path):
    ledger, result, _ = _smoke(name, tmp_path, trace=False)
    assert ledger.failed == 0
    assert ledger.attempted == 1 + len(ledger.cases)
    assert set(result) == {"op_s", "hv", "setup_s", "rss_mb"}
    assert all(metric["value"] > 0 for metric in result.values())


def test_times_are_wall_times_at_the_reference_speed(tmp_path, monkeypatch):
    # The reference loop runs in half its nominal time: the host is twice
    # as fast as the reference host, so the reported times are twice the
    # wall times.
    monkeypatch.setattr(run, "reference_loop", lambda: run.REFERENCE_S / 2)
    ledger, result, notes = _smoke("score-hv", tmp_path, trace=False)
    op_wall, setup_wall = (float(line.split()[3]) for line in notes[1:3])
    assert result["op_s"]["value"] == pytest.approx(2 * op_wall, rel=1e-5)
    assert result["setup_s"]["value"] == pytest.approx(2 * setup_wall, rel=1e-5)
    assert len(ledger.reference) == ledger.attempted


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_traced_run_reports_every_layer(name, tmp_path):
    ledger, result, notes = _smoke(name, tmp_path, trace=True)
    assert ledger.failed == 0
    assert notes == []
    assert result["trace.unmeasured"]["value"] == 0
    assert result["localsearch.unfinished"]["value"] == 0
    if name == "memetic-n40":
        assert result["evaluation.delta_scans"]["value"] > 0
        assert result["island.migrants_received"]["value"] == 0
    if name == "nsga2-fleet":
        assert result["evaluation.delta_scans"]["value"] == 0
        assert result["island.migrants_received"]["value"] > 0
    if name == "score-hv":
        assert result["metrics.hv_calls"]["value"] == 12
        assert result["metrics.ranksum_s"]["value"] > 0


def test_single_island_counts_repeat_exactly(tmp_path):
    counts = [
        "evaluation.delta_scans", "localsearch.accepts", "evaluation.full_evals",
        "archive.inserts", "ranking.points",
    ]
    first = _smoke("memetic-n40", tmp_path / "a", trace=True)[1]
    second = _smoke("memetic-n40", tmp_path / "b", trace=True)[1]
    assert [first[c]["value"] for c in counts] == [second[c]["value"] for c in counts]


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "memetic-n40",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
