import itertools
import time

import numpy as np

import mqap.localsearch
from mqap import Archive, Rng, Rows, dominance_based_local_search, evaluate_batch
from mqap.localsearch import first_dominating_swap

from conftest import dominates, evaluate_delta, ordered_swap_neighborhood, random_instance


def _record_scans(monkeypatch):
    """Wrap the neighbourhood scan; returns the list of scanned permutations."""
    scanned = []

    def counting(instance, perm):
        scanned.append(perm.tolist())
        return first_dominating_swap(instance, perm)

    monkeypatch.setattr(mqap.localsearch, "first_dominating_swap", counting)
    return scanned


def _filled_archive(inst, np_rng, count, capacity):
    perms = np.array([np_rng.permutation(inst.n) for _ in range(count)], dtype=np.int64)
    archive = Archive(capacity=capacity)
    archive.insert(perms, evaluate_batch(inst, perms))
    return archive


def test_neighborhood_order_n3():
    assert list(ordered_swap_neighborhood(3)) == [(0, 1), (0, 2), (1, 2)]


def test_neighborhood_order_n2():
    assert list(ordered_swap_neighborhood(2)) == [(0, 1)]


def test_neighborhood_count_and_order_n10():
    pairs = list(ordered_swap_neighborhood(10))
    assert len(pairs) == 45
    assert pairs == sorted(pairs)
    assert all(i < j for i, j in pairs)


def _scan_oracle(inst, perm):
    """Reference first-improving scan via per-pair deltas in stated order."""
    objectives = tuple(evaluate_batch(inst, [perm])[0].tolist())
    for i, j in ordered_swap_neighborhood(inst.n):
        delta = evaluate_delta(inst, perm, i, j)
        candidate = tuple(o + d for o, d in zip(objectives, delta))
        if dominates(candidate, objectives):
            return i, j, delta
    return None


def _scan(inst, perm):
    """``first_dominating_swap`` with its deltas as a tuple of ints."""
    found = first_dominating_swap(inst, perm)
    if found is None:
        return None
    i, j, delta = found
    assert delta.dtype == np.int64
    return i, j, tuple(delta.tolist())


def test_first_dominating_swap_matches_reference_scan(np_rng):
    for _ in range(30):
        n = int(np_rng.integers(3, 10))
        inst = random_instance(np_rng, n, int(np_rng.integers(1, 4)))
        perm = np_rng.permutation(n)
        assert _scan(inst, perm) == _scan_oracle(inst, perm)


def test_accepts_lowest_pair_in_scan_order(np_rng):
    # n=6, m=2: enumerate all 15 swaps with the full-evaluation oracle and
    # check the search accepted exactly the first dominating one.
    inst = random_instance(np_rng, 6, 2)
    found = None
    for seed in range(50):
        perm = np_rng.permutation(6)
        oracle = _scan_oracle(inst, perm)
        if oracle is None:
            continue
        found = True
        rows = Rows(np.array([perm]), evaluate_batch(inst, [perm]))
        perms, objs = dominance_based_local_search(rows, 5.0, inst, Rng(seed))
        i, j, _ = oracle
        expected_perm = perm.copy()
        expected_perm[i], expected_perm[j] = expected_perm[j], expected_perm[i]
        assert np.array_equal(perms[1], expected_perm)
        assert np.array_equal(objs[1], evaluate_batch(inst, [expected_perm])[0])
        break
    assert found, "no improvable start solution found"


def test_locally_optimal_solution_returned_unchanged(np_rng, monkeypatch):
    inst = random_instance(np_rng, 5, 2)
    # Walk to a local optimum first.
    perm = np_rng.permutation(5)
    while True:
        step = first_dominating_swap(inst, perm)
        if step is None:
            break
        i, j, delta = step
        perm = perm.copy()
        perm[i], perm[j] = perm[j], perm[i]
    rows = Rows(np.array([perm]), evaluate_batch(inst, [perm]))
    scanned = _record_scans(monkeypatch)
    perms, objs = dominance_based_local_search(rows, 5.0, inst, Rng(1))
    assert perms.tolist() == [perm.tolist()] and np.array_equal(objs, rows.objs)
    assert scanned == [perm.tolist()]


def test_tiny_budget_returns_archive_contents(np_rng):
    inst = random_instance(np_rng, 8, 2)
    archive = _filled_archive(inst, np_rng, 40, capacity=50)
    rows = Rows(archive.perms, archive.objs)
    start = time.monotonic()
    perms, objs = dominance_based_local_search(rows, 1e-9, inst, Rng(0))
    assert time.monotonic() - start < 1.0
    assert np.array_equal(perms[: len(archive)], archive.perms)
    assert np.array_equal(objs[: len(archive)], archive.objs)


def test_budget_respected_with_logical_clock(np_rng, monkeypatch):
    inst = random_instance(np_rng, 10, 2)
    archive = _filled_archive(inst, np_rng, 60, capacity=100)

    ticks = iter(float(t) for t in itertools.count())
    clock = lambda: next(ticks)  # noqa: E731 - 1s per observation
    scanned = _record_scans(monkeypatch)
    dominance_based_local_search(Rows(archive.perms, archive.objs), 5.0, inst, Rng(3), clock=clock)
    # Loop head sees elapsed 1, 2, ... so at most 5 solutions get scanned.
    assert len(scanned) <= 5


# Entry tops that put the kernel bound 4(n+1) * max_d * max_f at n=7 in each dtype's range.
KERNEL_TOPS = [(50, np.float32), (10**4, np.float64), (10**8, np.int64)]


def test_accepted_neighbors_dominate_a_one_swap_origin(np_rng):
    for hi, dtype in KERNEL_TOPS:
        inst = random_instance(np_rng, 7, 2, hi=hi)
        assert inst.swap_operands.dtype == dtype
        archive = _filled_archive(inst, np_rng, 10, capacity=30)
        initial = len(archive)
        rows = Rows(archive.perms, archive.objs)
        perms, objs = dominance_based_local_search(rows, 5.0, inst, Rng(9))
        # Every returned row is exact: no float step touches an objective.
        assert perms.dtype == objs.dtype == np.int64
        assert np.array_equal(objs, evaluate_batch(inst, perms)), dtype
        assert len(perms) > initial, f"no neighbour accepted at {dtype}"
        rows = list(zip(perms, map(tuple, objs.tolist())))
        for perm, added in rows[initial:]:
            origins = [
                other
                for other_perm, other in rows
                if int((other_perm != perm).sum()) == 2 and dominates(added, other)
            ]
            assert origins, "accepted neighbor lacks a dominated one-swap origin"


def test_all_members_visited_on_exhaustion(np_rng, monkeypatch):
    inst = random_instance(np_rng, 6, 2)
    archive = _filled_archive(inst, np_rng, 8, capacity=20)
    scanned = _record_scans(monkeypatch)
    perms, _ = dominance_based_local_search(Rows(archive.perms, archive.objs), 10.0, inst, Rng(2))
    # Each row of the working set is scanned exactly once.
    assert sorted(scanned) == sorted(perms.tolist())


def test_working_set_holds_the_offspring_the_archive_did_not_keep():
    # The island offers its offspring to the archive, then starts local
    # search from the archive plus every offspring row that is not a member;
    # the search keeps that working set in order.
    inst = random_instance(np.random.default_rng(8), 5, 2)
    perms = np.array([[0, 1, 2, 3, 4], [1, 0, 2, 3, 4]], dtype=np.int64)
    objs = np.array([[10, 30], [30, 10]], dtype=np.int64)
    archive = Archive(capacity=10)
    archive.insert(perms, objs)
    offspring = Rows(
        np.array(
            [
                [1, 0, 2, 3, 4],  # an archive row: rejected as a duplicate
                [2, 1, 0, 3, 4],  # admitted
                [3, 1, 2, 0, 4],  # dominated: rejected
                [3, 1, 2, 0, 4],  # its copy: rejected as well, and kept twice
                [4, 1, 2, 3, 0],  # admitted
            ],
            dtype=np.int64,
        ),
        np.array([[30, 10], [20, 20], [40, 40], [40, 40], [15, 25]], dtype=np.int64),
    )
    kept = archive.insert(*offspring)
    assert kept.tolist() == [False, True, False, False, True]
    working = Rows.concat(Rows(archive.perms, archive.objs), offspring.take(~kept))
    clock = iter([0.0, 1.0]).__next__  # the budget is spent before the first scan
    perms, objs = dominance_based_local_search(working, 0.5, inst, Rng(0), clock)
    expected = [0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [2, 1, 0, 3, 4], [4, 1, 2, 3, 0]
    expected += [1, 0, 2, 3, 4], [3, 1, 2, 0, 4], [3, 1, 2, 0, 4]
    assert perms.tolist() == list(expected)
    assert objs.tolist() == [[10, 30], [30, 10], [20, 20], [15, 25], [30, 10], [40, 40], [40, 40]]
