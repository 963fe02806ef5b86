import itertools
import time

import numpy as np

import mqap.localsearch
from mqap import (
    Archive,
    Rng,
    dominance_based_local_search,
    evaluate_full,
    make_solution,
)
from mqap.localsearch import first_dominating_swap

from conftest import dominates, evaluate_delta, ordered_swap_neighborhood, random_instance


def _record_scans(monkeypatch):
    """Wrap the neighbourhood scan; returns the list of scanned solutions."""
    scanned = []

    def counting(instance, sol):
        scanned.append(sol)
        return first_dominating_swap(instance, sol)

    monkeypatch.setattr(mqap.localsearch, "first_dominating_swap", counting)
    return scanned


def test_neighborhood_order_n3():
    assert list(ordered_swap_neighborhood(3)) == [(0, 1), (0, 2), (1, 2)]


def test_neighborhood_order_n2():
    assert list(ordered_swap_neighborhood(2)) == [(0, 1)]


def test_neighborhood_count_and_order_n10():
    pairs = list(ordered_swap_neighborhood(10))
    assert len(pairs) == 45
    assert pairs == sorted(pairs)
    assert all(i < j for i, j in pairs)


def _scan_oracle(inst, sol):
    """Reference first-improving scan via per-pair deltas in stated order."""
    for i, j in ordered_swap_neighborhood(inst.n):
        delta = evaluate_delta(inst, sol, i, j)
        candidate = tuple(o + d for o, d in zip(sol.objectives, delta))
        if dominates(candidate, sol.objectives):
            return i, j, delta
    return None


def test_first_dominating_swap_matches_reference_scan(np_rng):
    for _ in range(30):
        n = int(np_rng.integers(3, 10))
        inst = random_instance(np_rng, n, int(np_rng.integers(1, 4)))
        sol = make_solution(inst, np_rng.permutation(n))
        assert first_dominating_swap(inst, sol) == _scan_oracle(inst, sol)


def test_accepts_lowest_pair_in_scan_order(np_rng):
    # n=6, m=2: enumerate all 15 swaps with the full-evaluation oracle and
    # check the search accepted exactly the first dominating one.
    inst = random_instance(np_rng, 6, 2)
    found = None
    for seed in range(50):
        sol = make_solution(inst, np_rng.permutation(6))
        oracle = _scan_oracle(inst, sol)
        if oracle is None:
            continue
        found = True
        archive = Archive(capacity=10)
        archive.insert([sol])
        result = dominance_based_local_search(
            archive, 5.0, inst, Rng(seed)
        )
        i, j, _ = oracle
        expected_perm = sol.perm.copy()
        expected_perm[i], expected_perm[j] = expected_perm[j], expected_perm[i]
        accepted = result[1]
        assert np.array_equal(accepted.perm, expected_perm)
        assert accepted.objectives == evaluate_full(inst, accepted.perm)
        break
    assert found, "no improvable start solution found"


def test_locally_optimal_solution_returned_unchanged(np_rng, monkeypatch):
    inst = random_instance(np_rng, 5, 2)
    # Walk to a local optimum first.
    sol = make_solution(inst, np_rng.permutation(5))
    while True:
        step = first_dominating_swap(inst, sol)
        if step is None:
            break
        i, j, delta = step
        perm = sol.perm.copy()
        perm[i], perm[j] = perm[j], perm[i]
        sol = make_solution(inst, perm)
    archive = Archive(capacity=10)
    archive.insert([sol])
    scanned = _record_scans(monkeypatch)
    result = dominance_based_local_search(archive, 5.0, inst, Rng(1))
    assert result == [sol]
    assert scanned == [sol]


def test_tiny_budget_returns_archive_contents(np_rng):
    inst = random_instance(np_rng, 8, 2)
    archive = Archive(capacity=50)
    archive.insert([make_solution(inst, np_rng.permutation(8)) for _ in range(40)])
    start = time.monotonic()
    result = dominance_based_local_search(
        archive, 1e-9, inst, Rng(0)
    )
    assert time.monotonic() - start < 1.0
    assert set(map(id, archive.members)) <= set(map(id, result))


def test_budget_respected_with_logical_clock(np_rng, monkeypatch):
    inst = random_instance(np_rng, 10, 2)
    archive = Archive(capacity=100)
    archive.insert([make_solution(inst, np_rng.permutation(10)) for _ in range(60)])

    ticks = iter(float(t) for t in itertools.count())
    clock = lambda: next(ticks)  # noqa: E731 - 1s per observation
    scanned = _record_scans(monkeypatch)
    dominance_based_local_search(
        archive, 5.0, inst, Rng(3), clock=clock
    )
    # Loop head sees elapsed 1, 2, ... so at most 5 solutions get scanned.
    assert len(scanned) <= 5


def test_accepted_neighbors_dominate_a_one_swap_origin(np_rng):
    inst = random_instance(np_rng, 7, 2)
    archive = Archive(capacity=30)
    archive.insert([make_solution(inst, np_rng.permutation(7)) for _ in range(10)])
    initial = len(archive.members)
    result = dominance_based_local_search(archive, 5.0, inst, Rng(9))
    for added in result[initial:]:
        assert added.objectives == evaluate_full(inst, added.perm)
        origins = [
            other
            for other in result
            if int((other.perm != added.perm).sum()) == 2
            and dominates(added.objectives, other.objectives)
        ]
        assert origins, "accepted neighbor lacks a dominated one-swap origin"


def test_all_members_visited_on_exhaustion(np_rng, monkeypatch):
    inst = random_instance(np_rng, 6, 2)
    archive = Archive(capacity=20)
    archive.insert([make_solution(inst, np_rng.permutation(6)) for _ in range(8)])
    scanned = _record_scans(monkeypatch)
    result = dominance_based_local_search(archive, 10.0, inst, Rng(2))
    # Each member is scanned exactly once.
    assert len(scanned) == len(result)
    assert set(map(id, scanned)) == set(map(id, result))
