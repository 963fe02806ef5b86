"""Pareto ranking machinery: dominance tests, dominance depth, crowding, and survival.

Every dominance test in the package lives here: ``weakly_dominates`` for
ranking and the archive's inserts, ``non_dominated_mask`` for enumeration,
the fleet merge and compare's pooled front.

Everything here works on (N, m) objective arrays, one row per solution.
Fitness is the dominance depth (front index) of a row; diversity is the
front-local crowding value.  Both are returned aligned with the ranked
rows.  ``rank_and_crowd`` packs them into one ``(rank, -crowding)`` key
per row, so the natural tuple order prefers lower depth and, on ties,
higher crowding.
"""

from __future__ import annotations

import numpy as np

Fitness = tuple[int, float]

# Cells of one boolean mask in non_dominated_mask: 4 MB whatever the front size.
_MASK_CELLS = 1 << 22


def weakly_dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) bool: entry [i, j] holds when row a_i <= row b_j in every objective."""
    a, b = np.asarray(a), np.asarray(b)
    weak = np.ones((len(a), len(b)), dtype=bool)
    for col_a, col_b in zip(a.T, b.T):
        weak &= col_a[:, None] <= col_b
    return weak


def pareto_ranks(objs: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Front index of every row of an (N, m) objective array, 0 = non-dominated.

    ``dominated[i, j]`` holds when row i dominates row j; fronts are peeled
    by removing the rows that nothing remaining dominates.  With a
    ``limit``, peeling stops once at least ``limit`` rows are ranked, and
    every row left gets the next front index.
    """
    weak = weakly_dominates(objs, objs)
    dominated = weak & ~weak.T
    dominator_count = dominated.sum(axis=0)
    size = len(dominated)
    stop = size if limit is None else min(limit, size)
    ranks = np.full(size, -1, dtype=np.int64)
    rank = ranked = 0
    while ranked < stop:
        front = (ranks < 0) & (dominator_count == 0)
        ranks[front] = rank
        ranked += np.count_nonzero(front)
        dominator_count -= dominated[front].sum(axis=0)
        rank += 1
    ranks[ranks < 0] = rank
    return ranks


def non_dominated_mask(objs: np.ndarray) -> np.ndarray:
    """True for every row of an (N, m) array that no other row dominates.

    Equal rows never dominate each other, so every copy of a surviving row
    survives.  When the whole (N, N) mask fits in ``_MASK_CELLS``, one
    strict-dominance matrix ``weak & ~weak.T`` decides every row.  Otherwise
    the rows are peeled: after one lexicographic sort, every row that
    dominates a row lies in an earlier run of equal rows, and by transitivity
    a dominated row is dominated by a non-dominated one.  Of the first
    ``step`` rows still left, those that no earlier-run row among them
    dominates are kept, and they sweep out every later row they dominate.
    No sums are formed, and with ``step`` rows per block each mask stays
    within ``_MASK_CELLS``.
    """
    objs = np.asarray(objs)
    size = len(objs)
    if size * size <= _MASK_CELLS:
        weak = weakly_dominates(objs, objs)
        return ~(weak > weak.T).any(axis=0)
    # Lexicographic order, last column first: only the later passes need a stable sort.
    order = np.argsort(objs[:, -1])
    for col in objs.T[-2::-1]:
        order = order[np.argsort(col[order], kind="stable")]
    objs = objs[order]
    # run_start[i]: the sorted index of the first row equal to sorted row i.
    repeat = np.append(False, (objs[1:] == objs[:-1]).all(axis=1))
    run_start = np.maximum.accumulate(np.where(repeat, 0, np.arange(size)))
    kept = np.zeros(size, dtype=bool)
    left = np.arange(size)  # sorted indices neither kept nor swept out
    step = max(1, _MASK_CELLS // size)
    while len(left):
        block, left = left[:step], left[step:]
        rows = objs[block]
        beaten = weakly_dominates(rows, rows) & (block[:, None] < run_start[block])
        block = block[~beaten.any(axis=0)]
        kept[block] = True
        swept = weakly_dominates(objs[block], objs[left]) & (block[:, None] < run_start[left])
        left = left[~swept.any(axis=0)]
    keep = np.empty(size, dtype=bool)
    keep[order] = kept
    return keep


def front_crowding(objs: np.ndarray) -> np.ndarray:
    """Crowding of the rows of one front, in row order.

    Per objective, the stable-sort end rows get infinity and interior rows
    accumulate the gap between their two neighbours over the front's span
    (nothing when the objective is constant across the front).
    """
    objs = np.asarray(objs)
    crowding = np.zeros(len(objs))
    if len(objs) == 0:
        return crowding
    for col in objs.T:
        order = np.argsort(col, kind="stable")
        crowding[order[[0, -1]]] = np.inf
        span = col[order[-1]] - col[order[0]]
        if span > 0:
            crowding[order[1:-1]] += (col[order[2:]] - col[order[:-2]]) / span
    return crowding


def crowding_by_front(objs: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """``front_crowding`` of every front at once, for the rows of an (N, m) array.

    Rows sharing a rank form one front.  Per objective, one stable sort by
    (rank, value) lays the fronts out one after another, each in the order
    sorting it alone would give, and the same float terms are added in the
    same objective order, so every value matches ``front_crowding``.
    """
    objs = np.asarray(objs)
    ranks = np.asarray(ranks)
    size = len(objs)
    crowding = np.zeros(size)
    if size == 0:
        return crowding
    # Every per-objective order puts each front in the same run of slots, so
    # the first and last slot of each front are found once.
    sorted_ranks = np.sort(ranks)
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_ranks[1:], sorted_ranks[:-1], out=first[1:])
    last = np.empty(size, dtype=bool)
    last[:-1] = first[1:]
    last[-1] = True
    starts, stops = np.flatnonzero(first), np.flatnonzero(last)
    ends = np.flatnonzero(first | last)
    inner = np.flatnonzero(~(first | last))
    front = np.cumsum(first)[inner] - 1
    for col in objs.T:
        order = np.lexsort((col, ranks))
        c = col[order]
        crowding[order[ends]] = np.inf
        span = (c[stops] - c[starts])[front]
        spread = span > 0
        at = inner[spread]
        crowding[order[at]] += (c[at + 1] - c[at - 1]) / span[spread]
    return crowding


def rank_and_crowd(objs, limit: int | None = None) -> list[Fitness]:
    """One ``(rank, -crowding)`` fitness key per row of an (N, m) array; smaller is better.

    ``limit`` bounds the peeling as in ``pareto_ranks``: the keys of the
    fronts ranked are exact, and every row left shares the worst rank.
    """
    if not len(objs):
        return []
    ranks = pareto_ranks(objs, limit)
    return list(zip(ranks.tolist(), (-crowding_by_front(objs, ranks)).tolist()))


def elitist_integration(objs, capacity: int) -> tuple[np.ndarray, list[Fitness]]:
    """The fitness-best ``capacity`` rows of an (N, m) array: residents, then immigrants.

    Fitness is ranked on all rows and the sort is stable, so earlier rows
    (residents) precede later ones (immigrants) on exact ties.  Returns the
    kept row indices, best first, with their fitness keys from that ranking.
    Only the fronts that fill ``capacity`` are peeled: the rows left rank
    behind them all, so they are never kept.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    fitness = rank_and_crowd(objs, limit=capacity)
    kept = sorted(range(len(fitness)), key=fitness.__getitem__)[:capacity]
    return np.array(kept, dtype=np.int64), [fitness[i] for i in kept]
