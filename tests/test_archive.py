import random

import numpy as np
import pytest

from mqap import Archive, Solution, archive_merge

from conftest import brute_force_non_dominated, dominates, insert_one


def _sol(objectives, perm):
    return Solution(perm=np.array(perm, dtype=np.int64), objectives=tuple(objectives))


def _fresh(rng, n=6, m=2, hi=20):
    perm = np.array(rng.sample(range(n), n), dtype=np.int64)
    return Solution(perm=perm, objectives=tuple(rng.randrange(hi) for _ in range(m)))


def test_dominated_candidate_rejected():
    archive = Archive(capacity=10)
    archive.insert([_sol((1, 1), [0, 1, 2, 3])])
    archive.insert([_sol((2, 2), [1, 0, 2, 3])])
    assert [s.objectives for s in archive.members] == [(1, 1)]


def test_dominating_candidate_sweeps_members():
    archive = Archive(capacity=10)
    archive.insert([_sol((3, 5), [0, 1, 2, 3]), _sol((4, 4), [1, 0, 2, 3]), _sol((5, 3), [2, 0, 1, 3])])
    assert len(archive) == 3
    archive.insert([_sol((1, 1), [3, 0, 1, 2])])
    assert [s.objectives for s in archive.members] == [(1, 1)]


def test_permutation_duplicate_rejected():
    archive = Archive(capacity=10)
    first = _sol((2, 2), [0, 1, 2, 3])
    archive.insert([first, _sol((2, 2), [0, 1, 2, 3])])
    assert archive.members == [first]


def test_objective_tie_with_distinct_permutation_kept():
    archive = Archive(capacity=10)
    archive.insert([_sol((2, 2), [0, 1, 2, 3]), _sol((2, 2), [1, 0, 2, 3])])
    assert len(archive) == 2


def test_insert_idempotent():
    rng = random.Random(0)
    archive = Archive(capacity=10)
    sols = [_fresh(rng) for _ in range(8)]
    archive.insert(sols)
    before = [(s.objectives, s.perm_key()) for s in archive.members]
    archive.insert(list(archive.members))
    assert [(s.objectives, s.perm_key()) for s in archive.members] == before


def test_dominating_candidate_never_rejected_by_filter():
    rng = random.Random(4)
    archive = Archive(capacity=5)
    archive.insert([_fresh(rng) for _ in range(30)])
    target = archive.members[0]
    better = _sol(tuple(v - 1 for v in target.objectives), rng.sample(range(6), 6))
    archive.insert([better])
    assert any(member is better for member in archive.members)


def test_capacity_truncation_keeps_bound():
    rng = random.Random(11)
    archive = Archive(capacity=6)
    # A single long anti-chain forces crowding-based eviction.
    archive.insert([_sol((k, 40 - k), [k % 4, (k + 1) % 4, (k + 2) % 4, (k + 3) % 4]) for k in range(40)])
    assert len(archive) <= 6
    _assert_mutually_non_dominated(archive.members)


def _assert_mutually_non_dominated(members):
    for a in members:
        for b in members:
            if a is not b:
                assert not dominates(a.objectives, b.objectives)


def test_stream_stress_with_eviction_audit():
    rng = random.Random(99)
    archive = Archive(capacity=50, track_evictions=True)
    stream = [_fresh(rng, n=7, m=2, hi=60) for _ in range(200)]
    for sol in stream:
        archive.insert([sol])
        assert len(archive) <= 50
    _assert_mutually_non_dominated(archive.members)

    true_front = brute_force_non_dominated([s.objectives for s in stream])
    evicted = archive.evictions
    for member in archive.members:
        if member.objectives in true_front:
            continue
        assert any(dominates(e.objectives, member.objectives) for e in evicted)


def test_merge_idempotent():
    rng = random.Random(1)
    archive = Archive(capacity=20)
    archive.insert([_fresh(rng) for _ in range(15)])
    merged = archive_merge([archive, archive])
    assert sorted(s.objectives for s in merged) == sorted(s.objectives for s in archive.members)


def test_merge_with_empty_archive():
    rng = random.Random(2)
    full = Archive(capacity=20)
    full.insert([_fresh(rng) for _ in range(10)])
    empty = Archive(capacity=20)
    merged = archive_merge([full, empty])
    assert sorted(s.objectives for s in merged) == sorted(s.objectives for s in full.members)


def test_merge_keeps_only_global_survivors():
    rng = random.Random(3)
    a, b = Archive(capacity=30), Archive(capacity=30)
    a.insert([_fresh(rng, hi=40) for _ in range(25)])
    b.insert([_fresh(rng, hi=40) for _ in range(25)])
    merged = archive_merge([a, b])
    pool = a.members + b.members
    expected = brute_force_non_dominated([s.objectives for s in pool])
    assert {s.objectives for s in merged} == expected
    _assert_mutually_non_dominated(merged)


def test_merge_deduplicates_shared_permutations():
    shared = _sol((5, 5), [0, 1, 2, 3])
    a, b = Archive(capacity=5), Archive(capacity=5)
    a.insert([shared])
    b.insert([shared.copy()])
    assert len(archive_merge([a, b])) == 1


def test_merge_keeps_ties_and_shared_permutations_in_first_occurrence_order():
    a, b = Archive(capacity=5), Archive(capacity=5)
    a.insert([_sol((4, 4), [0, 1, 2, 3]), _sol((2, 6), [1, 0, 2, 3])])
    a.insert([_sol((7, 0), [0, 2, 1, 3])])
    b.insert(
        [
            _sol((2, 6), [2, 1, 0, 3]),  # a's objectives, another permutation
            _sol((4, 4), [0, 1, 2, 3]),  # a permutation both archives hold
            _sol((8, 1), [3, 1, 2, 0]),  # dominated by a member of a only
            _sol((3, 5), [0, 3, 2, 1]),
        ]
    )
    assert len(b) == 4
    merged = archive_merge([a, b])
    assert [(s.objectives, s.perm.tolist()) for s in merged] == [
        ((4, 4), [0, 1, 2, 3]),
        ((2, 6), [1, 0, 2, 3]),
        ((7, 0), [0, 2, 1, 3]),
        ((2, 6), [2, 1, 0, 3]),
        ((3, 5), [0, 3, 2, 1]),
    ]
    assert merged[:3] == a.members


def test_capacity_validation():
    with pytest.raises(ValueError):
        Archive(capacity=0)


def _batches(rng, m, hi, base):
    """Batches of solutions over 6-element permutations, each with one objective vector.

    Every vector starts as a point of coordinate sum ``hi``.  Such points
    never dominate one another, so fronts grow long enough to fill archives
    of capacity 100.  Half of them move up by a random offset, which makes
    them dominated or dominating.  Every coordinate is offset by ``base``.
    """
    objectives_of = {}

    def draw():
        perm = tuple(rng.sample(range(6), 6))
        if perm not in objectives_of:
            cuts = sorted(rng.randrange(hi + 1) for _ in range(m - 1))
            point = [b - a for a, b in zip([0, *cuts], [*cuts, hi])]
            if rng.random() < 0.5:
                point = [v + rng.randrange(hi) for v in point]
            objectives_of[perm] = tuple(base + v for v in point)
        return _sol(objectives_of[perm], perm)

    return [[draw() for _ in range(rng.randrange(60))] for _ in range(rng.randrange(1, 8))]


def _state(archive):
    """Members and evictions by identity, in order, and the permutation key set."""
    return (
        [id(sol) for sol in archive.members],
        archive._perm_keys,
        [id(sol) for sol in archive.evictions],
    )


# Near 2^62 a float cast merges neighbouring values and a sum of objectives overflows.
BASES = [0, 2**62 - 1000]


@pytest.mark.parametrize("fixed_base", [None, 0])
def test_batch_insert_matches_insert_one(fixed_base):
    # With no fixed base the objective offset alternates over BASES, case by case.
    bases = BASES if fixed_base is None else [fixed_base]
    rng = random.Random(17)
    filled = set()
    for case in range(300):
        m, hi = case % 4 + 1, rng.choice([3, 8, 200])
        base = bases[case // 4 % len(bases)]
        capacity = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 100])
        batched = Archive(capacity, track_evictions=True)
        reference = Archive(capacity, track_evictions=True)
        batches = _batches(rng, m, hi, base)
        for batch in batches:
            batched.insert(batch)
            for sol in batch:
                insert_one(reference, sol)
            assert _state(batched) == _state(reference), (case, m, hi, base, capacity)
        assert batched.offered == sum(map(len, batches))
        assert batched.evicted == len(batched.evictions)
        if capacity == 100 and len(reference) == 100:
            filled.add(base)
    assert filled == set(bases), "no archive of capacity 100 filled at some scale"
