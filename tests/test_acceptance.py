"""Acceptance suite: one test per exit criterion.

Each test prints a single verdict line (visible with ``pytest -s`` or in
the captured output) and asserts the criterion at its stated tolerance.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mqap.island
from mqap import (
    Archive,
    IslandConfig,
    Solution,
    cycle_crossover,
    dominates,
    evaluate_full,
    hypervolume,
    make_solution,
    normalize_fronts,
    pareto_ranks,
    reference_point,
    run_island,
    swap_delta_matrix,
    wilcoxon_rank_sum,
)
from mqap.instance import InstanceSpec, generate_uniform
from mqap.island import run_fleet
from mqap.metrics import non_dominated
from mqap.runner import ExperimentConfig, enumerate_front, island_seed, run_experiment, trial_seed

from conftest import random_instance, repeated_filter_ranks


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


def test_criterion_1_delta_exactness():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    cases = 0
    for _ in range(1000):
        n = int(rng.integers(2, 26))
        m = int(rng.integers(1, 5))
        inst = random_instance(rng, n, m, hi=100)
        sol = make_solution(inst, rng.permutation(n))
        i, j = int(rng.integers(n)), int(rng.integers(n))
        delta = tuple(int(x) for x in swap_delta_matrix(inst, sol.perm)[:, i, j])
        swapped = sol.perm.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        after = evaluate_full(inst, swapped)
        assert after == tuple(o + d for o, d in zip(sol.objectives, delta)), (n, m, i, j)
        cases += 1
    elapsed = time.monotonic() - start
    ok = cases == 1000 and elapsed < 5.0
    _verdict(1, "delta-evaluation exactness", ok, f"{cases} cases exact, {elapsed:.2f}s")
    assert ok


def test_criterion_2_cycle_crossover_figure():
    c1, c2 = cycle_crossover([8, 4, 7, 3, 6, 2, 5, 1, 9, 0], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    ok = c1.tolist() == [8, 1, 2, 3, 4, 5, 6, 7, 9, 0] and c2.tolist() == [0, 4, 7, 3, 6, 2, 5, 1, 8, 9]
    _verdict(2, "cycle-crossover figure reproduction", ok, f"c1={c1.tolist()} c2={c2.tolist()}")
    assert ok


def test_criterion_3_ranking_oracle_equivalence():
    rng = random.Random(303)
    start = time.monotonic()
    checked = 0
    for _ in range(200):
        size = rng.randrange(2, 31)
        m = rng.choice([2, 3, 4])
        objs = [tuple(rng.randrange(0, 12) for _ in range(m)) for _ in range(size)]
        assert pareto_ranks(objs).tolist() == repeated_filter_ranks(objs)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 200 and elapsed < 5.0
    _verdict(3, "ranking oracle equivalence", ok, f"{checked} populations, {elapsed:.2f}s")
    assert ok


def _monte_carlo_hv(points: np.ndarray, ref: np.ndarray, samples: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    covered = np.zeros(samples, dtype=bool)
    draw = rng.random((samples, points.shape[1])) * ref
    for p in points:
        covered |= np.all(draw >= p, axis=1)
    return float(covered.mean() * np.prod(ref))


def test_criterion_4_hypervolume_accuracy():
    start = time.monotonic()
    hand = hypervolume([(0.25, 0.75), (0.5, 0.5)], (1.0, 1.0))
    assert hand == pytest.approx(0.3125, abs=1e-12)

    rng = np.random.default_rng(404)
    worst_gap = 0.0
    for case in range(50):
        m = (2, 3, 4)[case % 3]
        count = int(rng.integers(1, 21))
        points = rng.random((count, m))
        ref = np.ones(m)
        exact = hypervolume([tuple(p) for p in points], tuple(ref))
        approx = _monte_carlo_hv(points, ref, samples=1_000_000, seed=1000 + case)
        worst_gap = max(worst_gap, abs(exact - approx))
        assert abs(exact - approx) < 1e-2, (case, m, exact, approx)
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _verdict(
        4,
        "hypervolume accuracy",
        ok,
        f"hand case exact, 50 fronts vs 1e6-sample MC, worst gap {worst_gap:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_small_instance_optimality():
    start = time.monotonic()
    per_instance = []
    for inst_seed in range(1, 6):
        inst = generate_uniform(InstanceSpec(n=7, m=2, correlation=0.0, seed=inst_seed))
        exact = [tuple(float(v) for v in s.objectives) for s in enumerate_front(inst)]
        passes = 0
        for trial in range(10):
            config = IslandConfig(
                island_id=0,
                population_size=20,
                g_max=50,
                ls_secs=0.5,
                seed=island_seed(trial_seed(100 + inst_seed, trial), 0),
            )
            result = run_island(config, inst)
            mine = [tuple(float(v) for v in s.objectives) for s in result.archive.members]
            (norm_exact, norm_mine), _ = normalize_fronts([exact, mine])
            ref = reference_point(non_dominated(norm_exact + norm_mine))
            ratio = hypervolume(norm_mine, ref) / hypervolume(norm_exact, ref)
            if ratio >= 0.95:
                passes += 1
        per_instance.append(passes)
    elapsed = time.monotonic() - start
    ok = all(p >= 9 for p in per_instance) and elapsed < 600.0
    _verdict(
        5,
        "small-instance optimality",
        ok,
        f"passes per instance {per_instance} (need >=9/10 each), {elapsed:.1f}s",
    )
    assert ok


def _true_front_2d(objectives: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Sweep-based non-dominated oracle, independent of the archive code."""
    by_first: dict[int, list[tuple[int, int]]] = {}
    for obj in objectives:
        by_first.setdefault(obj[0], []).append(obj)
    front: set[tuple[int, int]] = set()
    prefix_min = None
    for key in sorted(by_first):
        group = by_first[key]
        group_min = min(o[1] for o in group)
        for obj in group:
            dominated = (prefix_min is not None and prefix_min <= obj[1]) or obj[1] > group_min
            if not dominated:
                front.add(obj)
        prefix_min = group_min if prefix_min is None else min(prefix_min, group_min)
    return front


def test_criterion_6_archive_invariants():
    start = time.monotonic()
    rng = random.Random(606)
    archive = Archive(capacity=50, track_evictions=True)
    stream: list[tuple[int, int]] = []
    n = 8
    for step in range(10_000):
        a = rng.randrange(0, 2000)
        b = 3000 - a + rng.randrange(-300, 300)
        objectives = (a, b)
        stream.append(objectives)
        perm = np.array(rng.sample(range(n), n), dtype=np.int64)
        archive.insert_one(Solution(perm=perm, objectives=objectives))
        assert len(archive) <= 50
        if step % 250 == 0:
            for x in archive.members:
                for y in archive.members:
                    if x is not y:
                        assert not dominates(x.objectives, y.objectives)
    for x in archive.members:
        for y in archive.members:
            if x is not y:
                assert not dominates(x.objectives, y.objectives)

    true_front = _true_front_2d(stream)
    strays = 0
    for member in archive.members:
        if member.objectives in true_front:
            continue
        assert any(dominates(e.objectives, member.objectives) for e in archive.evictions)
        strays += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    _verdict(
        6,
        "archive invariants",
        ok,
        f"10k inserts, |archive|={len(archive)}, evictions={len(archive.evictions)}, "
        f"{strays} members explained by evictions, {elapsed:.1f}s",
    )
    assert ok


def _stall_config(island_id):
    return IslandConfig(
        island_id=island_id,
        population_size=15,
        epoch=5,
        migrants=2,
        g_max=20,
        ls_secs=0.05,
        seed=7000 + island_id,
    )


def _stall_instance():
    return generate_uniform(InstanceSpec(n=20, m=2, correlation=0.0, seed=9))


def _islands_on_threads(inst, count, stalled=None, stall_secs=0.0, timeout=45.0):
    """Run ``count`` islands with queue.SimpleQueue inboxes, one thread each."""
    inboxes = [queue.SimpleQueue() for _ in range(count)]
    results: dict[int, object] = {}

    def island_thread(island_id):
        if island_id == stalled:
            time.sleep(stall_secs)
        results[island_id] = run_island(_stall_config(island_id), inst, inboxes)

    threads = [threading.Thread(target=island_thread, args=(i,), daemon=True) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    stuck = any(t.is_alive() for t in threads)
    assert not stuck, "islands failed to terminate alongside a stalled peer"
    return results


def test_criterion_7_asynchrony_under_stall():
    # run_island driven directly on threads; the process fleet has its own test below.
    start = time.monotonic()
    inst = _stall_instance()
    baseline = _islands_on_threads(inst, 3)
    baseline_wall = max(r.stats.wall_time for r in baseline.values())
    results = _islands_on_threads(inst, 4, stalled=3, stall_secs=10.0)

    unstalled_walls = [results[i].stats.wall_time for i in range(3)]
    all_complete = all(results[i].stats.generations == 20 for i in range(3))
    ratio = max(unstalled_walls) / baseline_wall
    elapsed = time.monotonic() - start
    ok = all_complete and ratio <= 2.0 and elapsed < 60.0
    _verdict(
        7,
        "asynchrony under stall",
        ok,
        f"threads: unstalled walls {[f'{w:.2f}' for w in unstalled_walls]} vs baseline "
        f"{baseline_wall:.2f}s (ratio {ratio:.2f}, limit 2.0), total {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_asynchrony_under_stall_in_fleet_processes(monkeypatch):
    start = time.monotonic()
    inst = _stall_instance()
    baseline = run_fleet(inst, [_stall_config(i) for i in range(3)])
    baseline_wall = max(r.stats.wall_time for r in baseline.islands)

    original = mqap.island.run_island

    def stalling_run_island(config, *args):
        if config.island_id == 2:  # runs in island 2's forked child
            time.sleep(3.0)
        return original(config, *args)

    monkeypatch.setattr(mqap.island, "run_island", stalling_run_island)
    fleet = run_fleet(inst, [_stall_config(i) for i in range(3)])

    unstalled_walls = [fleet.islands[i].stats.wall_time for i in range(2)]
    all_complete = all(r.stats.generations == 20 for r in fleet.islands)
    ratio = max(unstalled_walls) / baseline_wall
    elapsed = time.monotonic() - start
    ok = all_complete and ratio <= 2.0 and fleet.wall_time >= 3.0 and elapsed < 60.0
    _verdict(
        7,
        "asynchrony under stall",
        ok,
        f"processes: unstalled walls {[f'{w:.2f}' for w in unstalled_walls]} vs baseline "
        f"{baseline_wall:.2f}s (ratio {ratio:.2f}, limit 2.0), fleet {fleet.wall_time:.2f}s, "
        f"total {elapsed:.1f}s",
    )
    assert ok
    assert multiprocessing.active_children() == []


def test_criterion_8_directional_comparison_reported():
    start = time.monotonic()
    inst = generate_uniform(InstanceSpec(n=30, m=2, correlation=0.0, seed=77))

    def fleet(algorithm, pair_seed):
        configs = [
            IslandConfig(
                island_id=i,
                population_size=25,
                epoch=5,
                migrants=2,
                g_max=30,
                ls_secs=1.0,
                algorithm=algorithm,
                seed=island_seed(trial_seed(500, pair_seed), i),
            )
            for i in range(4)
        ]
        return run_fleet(inst, configs)

    def paired(pair_seed):
        memetic = fleet("memetic", pair_seed)
        baseline = fleet("nsga2", pair_seed)
        return (
            [tuple(float(v) for v in s.objectives) for s in memetic.front],
            [tuple(float(v) for v in s.objectives) for s in baseline.front],
        )

    with ThreadPoolExecutor(max_workers=3) as pool:
        pairs = list(pool.map(paired, range(10)))

    all_fronts = [front for pair in pairs for front in pair]
    normalized, _ = normalize_fronts(all_fronts)
    ref = reference_point(non_dominated([p for front in normalized for p in front]))
    hv_memetic = [hypervolume(normalized[2 * k], ref) for k in range(10)]
    hv_baseline = [hypervolume(normalized[2 * k + 1], ref) for k in range(10)]
    mean_memetic = sum(hv_memetic) / 10
    mean_baseline = sum(hv_baseline) / 10
    _, p_one_sided = wilcoxon_rank_sum(hv_memetic, hv_baseline, alternative="greater")

    elapsed = time.monotonic() - start
    direction = "memetic >= baseline" if mean_memetic >= mean_baseline else "baseline ahead"
    # Soft criterion: the comparison is reported, not gated.
    print(
        f"ACCEPTANCE 8 directional desk-scale comparison: REPORTED "
        f"(mean HV memetic {mean_memetic:.4f} vs nsga2 {mean_baseline:.4f}, "
        f"{direction}, one-sided rank-sum p={p_one_sided:.4f}, {elapsed:.1f}s)"
    )
    assert len(hv_memetic) == 10 and len(hv_baseline) == 10
    assert all(0.0 <= v <= 1.2 for v in hv_memetic + hv_baseline)


def test_criterion_9_single_island_determinism(tmp_path):
    start = time.monotonic()

    def run(out_dir):
        config = ExperimentConfig(
            gen_spec=InstanceSpec(n=12, m=2, correlation=0.0, seed=21),
            algorithm="memetic",
            island_count=1,
            trials=2,
            base_seed=31,
            generations=8,
            time_budget=None,
            ls_secs=5.0,
            population=15,
            output_dir=str(out_dir),
        )
        return run_experiment(config)

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    identical = all(
        (tmp_path / "a" / rec.front_file).read_bytes()
        == (tmp_path / "b" / rec.front_file).read_bytes()
        for rec in first.trials
    )
    elapsed = time.monotonic() - start
    ok = identical and len(first.trials) == len(second.trials) == 2 and elapsed < 30.0
    _verdict(
        9,
        "single-island determinism",
        ok,
        f"2 trials byte-identical across executions, {elapsed:.1f}s",
    )
    assert ok
