import math
import random

import numpy as np
import pytest

from mqap import elitist_integration, front_crowding, pareto_ranks
from mqap.ranking import crowding_by_front, non_dominated_mask, rank_and_crowd, weakly_dominates

from conftest import (
    crowding_oracle,
    dominates,
    per_front_rank_and_crowd,
    repeated_filter_ranks,
)

INF = float("inf")


def _fronts(objs):
    """Row indices of each front, in row order."""
    ranks = pareto_ranks(objs)
    return [np.flatnonzero(ranks == r).tolist() for r in range(int(ranks.max()) + 1)]


def test_dominates_basics():
    assert dominates((1, 2), (2, 3))
    assert not dominates((1, 2), (1, 2))
    assert not dominates((1, 3), (2, 2))
    assert not dominates((2, 2), (1, 3))


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates((1, 2), (1, 2, 3))


def _mask_oracle(objs):
    rows = [tuple(r) for r in objs.tolist()]
    return [not any(dominates(other, row) for other in rows) for row in rows]


@pytest.mark.parametrize("cells", [1 << 22, 30 * 30, 7])
def test_non_dominated_mask_matches_strict_dominance(monkeypatch, cells):
    # Up to sqrt(cells) rows one strict-dominance matrix decides; beyond it
    # the rows are peeled.  With 30 * 30 cells both sides of the boundary are
    # drawn; with 7 cells a block holds one column once N >= 4: many blocks.
    monkeypatch.setattr("mqap.ranking._MASK_CELLS", cells)
    rng = np.random.default_rng(cells)
    for case in range(400):
        m, size = case % 4 + 1, int(rng.integers(0, 41))
        objs = rng.integers(0, 5, (size, m))
        if size and case % 2:
            objs = objs[rng.integers(0, size, size)]  # repeated rows
        assert non_dominated_mask(objs).tolist() == _mask_oracle(objs), (case, objs)


def test_weakly_dominates_is_less_or_equal_everywhere():
    a = np.array([[1, 2], [2, 2], [3, 0]])
    b = np.array([[2, 2], [1, 3]])
    assert weakly_dominates(a, b).tolist() == [[True, True], [True, False], [False, False]]


def test_all_non_dominated_rank_zero():
    assert pareto_ranks([(0, 3), (1, 2), (2, 1), (3, 0)]).tolist() == [0, 0, 0, 0]


def test_chain_ranks():
    assert pareto_ranks([(3, 3), (1, 1), (2, 2)]).tolist() == [2, 0, 1]


def test_rank_oracle_equivalence():
    rng = random.Random(5)
    for _ in range(40):
        size = rng.randrange(2, 25)
        m = rng.choice([2, 3, 4])
        objs = [tuple(rng.randrange(0, 8) for _ in range(m)) for _ in range(size)]
        assert pareto_ranks(objs).tolist() == repeated_filter_ranks(objs)


def test_rank_monotone_under_dominance():
    rng = random.Random(9)
    objs = [tuple(rng.randrange(0, 6) for _ in range(3)) for _ in range(30)]
    ranks = pareto_ranks(objs)
    for a in range(len(objs)):
        for b in range(len(objs)):
            if dominates(objs[a], objs[b]):
                assert ranks[a] < ranks[b]


def test_rank_order_insensitive():
    rng = random.Random(3)
    objs = [tuple(rng.randrange(0, 5) for _ in range(2)) for _ in range(20)]
    ranks = pareto_ranks(objs)
    order = list(range(len(objs)))
    rng.shuffle(order)
    shuffled = pareto_ranks([objs[i] for i in order])
    assert [int(shuffled[k]) for k in range(len(order))] == [int(ranks[i]) for i in order]


def test_front_partition_structure():
    rng = random.Random(12)
    objs = [tuple(rng.randrange(0, 5) for _ in range(2)) for _ in range(25)]
    fronts = _fronts(objs)
    seen = 0
    for depth, front in enumerate(fronts):
        assert front
        seen += len(front)
        later = [i for f in fronts[depth:] for i in f]
        for i in front:
            assert not any(dominates(objs[o], objs[i]) for o in later)
    assert seen == len(objs)


def test_empty_population():
    assert pareto_ranks(np.empty((0, 2), dtype=np.int64)).tolist() == []
    assert front_crowding(np.empty((0, 2), dtype=np.int64)).tolist() == []
    assert rank_and_crowd([]) == []
    assert rank_and_crowd(np.empty((0, 2), dtype=np.int64)) == []


def test_crowding_pair_front_is_infinite():
    assert front_crowding([(0, 1), (1, 0)]).tolist() == [INF, INF]


def test_crowding_hand_case():
    crowding = front_crowding([(0, 4), (1, 2), (4, 0)])
    assert crowding[0] == INF and crowding[2] == INF
    assert crowding[1] == pytest.approx(2.0)


def test_crowding_identical_objectives():
    crowding = front_crowding([(2, 2)] * 4)
    finite = [v for v in crowding if not math.isinf(v)]
    assert finite and all(v == 0.0 for v in finite)


def test_crowding_boundary_rule_random():
    rng = random.Random(31)
    objs = [tuple(rng.randrange(0, 40) for _ in range(3)) for _ in range(25)]
    fitness = rank_and_crowd(np.array(objs))
    for front in _fronts(objs):
        for r in range(3):
            lo = min(objs[i][r] for i in front)
            hi = max(objs[i][r] for i in front)
            # With ties at an extreme, the stable-sort end member carries
            # the infinity; at least one extreme member must have it.
            assert any(objs[i][r] == lo and fitness[i][1] == -INF for i in front)
            assert any(objs[i][r] == hi and fitness[i][1] == -INF for i in front)


def test_crowding_matches_oracle_per_front():
    rng = random.Random(77)
    objs = [tuple(rng.randrange(0, 25) for _ in range(2)) for _ in range(30)]
    fitness = rank_and_crowd(np.array(objs))
    ranks = pareto_ranks(objs)
    for front in _fronts(objs):
        expected = crowding_oracle([objs[i] for i in front])
        assert [-fitness[i][1] for i in front] == pytest.approx(expected)
        assert all(fitness[i][0] == ranks[i] for i in front)


def _objective_sets(seed):
    """Seeded objective sets with ties, constant columns and fronts of one or two."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        size = int(rng.integers(1, 40))
        m = int(rng.integers(1, 5))
        objs = rng.integers(0, int(rng.choice([2, 4, 30, 10**6])), (size, m))
        if rng.random() < 0.3:
            objs[:, rng.integers(m)] = rng.integers(100)  # one constant objective
        yield objs
    yield np.array([[3, 3]])  # a single front of one
    yield np.array([[0, 1], [1, 0]])  # a single front of two
    yield np.array([[0, 0], [1, 1], [2, 2], [3, 3]])  # four fronts of one
    yield np.array([[0, 3], [3, 0], [1, 4], [4, 1], [5, 5]])  # fronts of two, two and one
    yield np.array([[2, 2]] * 5)  # identical rows


def _bits(keys):
    return np.array([c for _, c in keys]).tobytes(), [r for r, _ in keys]


def test_one_pass_crowding_matches_per_front_oracle():
    for objs in _objective_sets(4242):
        assert _bits(rank_and_crowd(objs)) == _bits(per_front_rank_and_crowd(objs))
        single = np.zeros(len(objs), dtype=np.int64)
        assert crowding_by_front(objs, single).tobytes() == front_crowding(objs).tobytes()


def test_fitness_key_order():
    # Lower rank wins, then higher crowding; equal keys tie.
    fitness = rank_and_crowd(np.array([(0, 4), (1, 2), (4, 0), (5, 5), (2, 6)]))
    assert fitness == [(0, -INF), (0, -2.0), (0, -INF), (1, -INF), (1, -INF)]
    assert fitness[0] < fitness[1] < fitness[3]
    assert not fitness[0] < fitness[2] and not fitness[2] < fitness[0]


def test_elitist_integration_keeps_residents_against_dominated_immigrants():
    # Rows 0-2 are residents, rows 3-4 immigrants.
    union = np.array([(0, 3), (1, 2), (3, 0), (5, 5), (4, 6)])
    kept, _ = elitist_integration(union, capacity=3)
    assert sorted(kept.tolist()) == [0, 1, 2]


def test_elitist_integration_admits_dominating_immigrant():
    union = np.array([(4, 4), (5, 3), (3, 5), (0, 0)])
    kept, _ = elitist_integration(union, capacity=3)
    assert 3 in kept.tolist()


def test_elitist_integration_matches_sort_oracle():
    rng = random.Random(8)
    current = [tuple(rng.randrange(0, 9) for _ in range(2)) for _ in range(12)]
    immigrants = [tuple(rng.randrange(0, 9) for _ in range(2)) for _ in range(8)]
    kept, fitness = elitist_integration(np.array(current + immigrants), capacity=10)

    # Oracle: ranks from peeling, crowding per front, stable comparator sort.
    union = current + immigrants
    objs = union
    ranks = repeated_filter_ranks(objs)
    crowding = [0.0] * len(union)
    for depth in set(ranks):
        front = [i for i in range(len(union)) if ranks[i] == depth]
        for i, value in zip(front, crowding_oracle([objs[i] for i in front])):
            crowding[i] = value
    expected = sorted(range(len(union)), key=lambda i: (ranks[i], -crowding[i]))[:10]
    assert kept.tolist() == expected
    assert fitness == [(ranks[i], -crowding[i]) for i in expected]
    assert len(kept) == 10


def test_bounded_peeling_matches_unbounded_ranking():
    rng = np.random.default_rng(1417)
    for case in range(300):
        size, m = int(rng.integers(1, 60)), int(rng.integers(1, 4))
        objs = rng.integers(0, int(rng.choice([3, 10, 1000])), (size, m))
        if case % 2:
            objs = objs[rng.integers(0, size, size)]  # repeated rows
        full = pareto_ranks(objs)
        keys = rank_and_crowd(objs)
        for limit in (1, 2, int(rng.integers(1, size + 1)), size, size + 5):
            # The first ``cut`` fronts hold at least ``limit`` rows (or all);
            # they keep their index, and every row behind them gets ``cut``.
            cut = next(c for c in range(size + 1) if (full < c).sum() >= min(limit, size))
            assert np.array_equal(pareto_ranks(objs, limit), np.minimum(full, cut)), (case, limit)
            kept, fitness = elitist_integration(objs, limit)
            expected = sorted(range(size), key=keys.__getitem__)[:limit]
            assert kept.tolist() == expected, (case, limit)
            assert _bits(fitness) == _bits([keys[i] for i in expected])


def test_elitist_integration_small_union_kept_whole():
    kept, fitness = elitist_integration(np.array([(0, 1)]), capacity=10)
    assert len(kept) == 1 and len(fitness) == 1


def test_elitism_preserves_non_dominated_when_capacity_allows():
    rng = random.Random(21)
    union = [tuple(rng.randrange(0, 10) for _ in range(2)) for _ in range(20)]
    nd = [i for i, s in enumerate(union) if not any(dominates(o, s) for o in union)]
    kept, _ = elitist_integration(np.array(union), capacity=max(len(nd), 10))
    assert set(nd) <= set(kept.tolist())
