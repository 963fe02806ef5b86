import random

import numpy as np
import pytest

from mqap import Archive, archive_merge

from conftest import brute_force_non_dominated, dominates, insert_one


def _rows(*pairs):
    """(perms, objs) int64 arrays from (objectives, permutation) pairs."""
    return (
        np.array([perm for _, perm in pairs], dtype=np.int64),
        np.array([objs for objs, _ in pairs], dtype=np.int64),
    )


def _fresh(rng, count, n=6, m=2, hi=20):
    return _rows(
        *[
            (tuple(rng.randrange(hi) for _ in range(m)), rng.sample(range(n), n))
            for _ in range(count)
        ]
    )


def _objectives(archive):
    return [tuple(o) for o in archive.objs.tolist()]


def test_dominated_candidate_rejected():
    archive = Archive(capacity=10)
    assert archive.insert(*_rows(((1, 1), [0, 1, 2, 3]))).tolist() == [True]
    assert archive.insert(*_rows(((2, 2), [1, 0, 2, 3]))).tolist() == [False]
    assert _objectives(archive) == [(1, 1)]


def test_dominating_candidate_sweeps_members():
    archive = Archive(capacity=10)
    archive.insert(*_rows(((3, 5), [0, 1, 2, 3]), ((4, 4), [1, 0, 2, 3]), ((5, 3), [2, 0, 1, 3])))
    assert len(archive) == 3
    archive.insert(*_rows(((1, 1), [3, 0, 1, 2])))
    assert _objectives(archive) == [(1, 1)]


def test_permutation_duplicate_rejected():
    archive = Archive(capacity=10)
    joined = archive.insert(*_rows(((2, 2), [0, 1, 2, 3]), ((2, 2), [0, 1, 2, 3])))
    assert joined.tolist() == [True, False]
    assert archive.perms.tolist() == [[0, 1, 2, 3]] and _objectives(archive) == [(2, 2)]


def test_objective_tie_with_distinct_permutation_kept():
    archive = Archive(capacity=10)
    archive.insert(*_rows(((2, 2), [0, 1, 2, 3]), ((2, 2), [1, 0, 2, 3])))
    assert len(archive) == 2


def test_insert_idempotent():
    rng = random.Random(0)
    archive = Archive(capacity=10)
    archive.insert(*_fresh(rng, 8))
    before = (archive.perms.copy(), archive.objs.copy())
    assert not archive.insert(archive.perms, archive.objs).any()
    assert np.array_equal(archive.perms, before[0]) and np.array_equal(archive.objs, before[1])


def test_dominating_candidate_never_rejected_by_filter():
    rng = random.Random(4)
    archive = Archive(capacity=5)
    archive.insert(*_fresh(rng, 30))
    better = _rows((tuple(v - 1 for v in archive.objs[0].tolist()), rng.sample(range(6), 6)))
    assert archive.insert(*better).tolist() == [True]
    assert better[0].tolist()[0] in archive.perms.tolist()


def test_capacity_truncation_keeps_bound():
    # A single long anti-chain forces crowding-based eviction.
    archive = Archive(capacity=6)
    archive.insert(
        *_rows(*[((k, 40 - k), [k % 4, (k + 1) % 4, (k + 2) % 4, (k + 3) % 4]) for k in range(40)])
    )
    assert len(archive) <= 6
    _assert_mutually_non_dominated(_objectives(archive))


def _assert_mutually_non_dominated(objectives):
    for a in objectives:
        for b in objectives:
            assert not dominates(a, b)


def test_stream_stress_with_eviction_audit(eviction_log):
    rng = random.Random(99)
    archive = Archive(capacity=50)
    perms, objs = _fresh(rng, 200, n=7, m=2, hi=60)
    for row in range(len(perms)):
        archive.insert(perms[row : row + 1], objs[row : row + 1])
        assert len(archive) <= 50
    _assert_mutually_non_dominated(_objectives(archive))

    true_front = brute_force_non_dominated([tuple(o) for o in objs.tolist()])
    for member in _objectives(archive):
        if member in true_front:
            continue
        assert any(dominates(e, member) for e in eviction_log)


def _merged_objectives(archives):
    return [tuple(o) for o in archive_merge(archives)[1].tolist()]


def test_merge_idempotent():
    rng = random.Random(1)
    archive = Archive(capacity=20)
    archive.insert(*_fresh(rng, 15))
    assert sorted(_merged_objectives([archive, archive])) == sorted(_objectives(archive))


def test_merge_with_empty_archive():
    rng = random.Random(2)
    full = Archive(capacity=20)
    full.insert(*_fresh(rng, 10))
    empty = Archive(capacity=20)
    assert sorted(_merged_objectives([full, empty])) == sorted(_objectives(full))
    assert sorted(_merged_objectives([empty, full])) == sorted(_objectives(full))


def test_merge_keeps_only_global_survivors():
    rng = random.Random(3)
    a, b = Archive(capacity=30), Archive(capacity=30)
    a.insert(*_fresh(rng, 25, hi=40))
    b.insert(*_fresh(rng, 25, hi=40))
    merged = _merged_objectives([a, b])
    expected = brute_force_non_dominated(_objectives(a) + _objectives(b))
    assert set(merged) == expected
    _assert_mutually_non_dominated(merged)


def test_merge_deduplicates_shared_permutations():
    a, b = Archive(capacity=5), Archive(capacity=5)
    a.insert(*_rows(((5, 5), [0, 1, 2, 3])))
    b.insert(*_rows(((5, 5), [0, 1, 2, 3])))
    assert len(archive_merge([a, b])[0]) == 1


def test_merge_keeps_ties_and_shared_permutations_in_first_occurrence_order():
    a, b = Archive(capacity=5), Archive(capacity=5)
    a.insert(*_rows(((4, 4), [0, 1, 2, 3]), ((2, 6), [1, 0, 2, 3])))
    a.insert(*_rows(((7, 0), [0, 2, 1, 3])))
    b.insert(
        *_rows(
            ((2, 6), [2, 1, 0, 3]),  # a's objectives, another permutation
            ((4, 4), [0, 1, 2, 3]),  # a permutation both archives hold
            ((8, 1), [3, 1, 2, 0]),  # dominated by a member of a only
            ((3, 5), [0, 3, 2, 1]),
        )
    )
    assert len(b) == 4
    perms, objs = archive_merge([a, b])
    assert list(zip(objs.tolist(), perms.tolist())) == [
        ([4, 4], [0, 1, 2, 3]),
        ([2, 6], [1, 0, 2, 3]),
        ([7, 0], [0, 2, 1, 3]),
        ([2, 6], [2, 1, 0, 3]),
        ([3, 5], [0, 3, 2, 1]),
    ]
    assert np.array_equal(perms[:3], a.perms) and np.array_equal(objs[:3], a.objs)


def test_capacity_validation():
    with pytest.raises(ValueError):
        Archive(capacity=0)


def _batches(rng, m, hi, base):
    """Batches of rows over 6-element permutations, each with one objective vector.

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
        return objectives_of[perm], perm

    return [
        [draw() for _ in range(rng.randrange(60))] for _ in range(rng.randrange(1, 8))
    ]


def _state(archive, evicted):
    """Member rows, the permutation key set, and the evicted objectives in order."""
    return (
        archive.perms.tolist() if len(archive) else [],
        archive.objs.tolist() if len(archive) else [],
        archive._keys,
        archive.evicted,
        evicted,
    )


# Near 2^62 a float cast merges neighbouring values and a sum of objectives overflows.
BASES = [0, 2**62 - 1000]


@pytest.mark.parametrize("fixed_base", [None, 0])
def test_batch_insert_matches_insert_one(fixed_base, eviction_log):
    # With no fixed base the objective offset alternates over BASES, case by case.
    bases = BASES if fixed_base is None else [fixed_base]
    rng = random.Random(17)
    filled = set()
    for case in range(300):
        m, hi = case % 4 + 1, rng.choice([3, 8, 200])
        base = bases[case // 4 % len(bases)]
        capacity = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 100])
        batched, reference = Archive(capacity), Archive(capacity)
        eviction_log.clear()
        reference_log = []
        batches = _batches(rng, m, hi, base)
        for batch in batches:
            joined = batched.insert(*_rows(*batch)) if batch else batched.insert([], [])
            expected = [insert_one(reference, perm, objs, reference_log) for objs, perm in batch]
            assert _state(batched, eviction_log) == _state(reference, reference_log), (
                case, m, hi, base, capacity
            )
            # A member on return is the last row of its permutation that joined.
            members = {tuple(p) for p in reference.perms.tolist()}
            kept = [False] * len(batch)
            for row in reversed(range(len(batch))):
                perm = tuple(batch[row][1])
                if expected[row] and perm in members:
                    kept[row] = True
                    members.discard(perm)
            assert joined.tolist() == kept, (case, m, hi, base, capacity)
        assert batched.offered == sum(map(len, batches))
        assert batched.evicted == len(eviction_log)
        if capacity == 100 and len(reference) == 100:
            filled.add(base)
    assert filled == set(bases), "no archive of capacity 100 filled at some scale"
