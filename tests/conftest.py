"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import mqap.archive
from mqap import Archive, Instance
from mqap.metrics import _hv2, _hv3
from mqap.ranking import front_crowding, non_dominated_mask, pareto_ranks


def dominates(a, b) -> bool:
    """Minimization Pareto dominance of two objective vectors: a <= b everywhere and a != b."""
    if len(a) != len(b):
        raise ValueError(f"objective dimensions differ: {len(a)} vs {len(b)}")
    not_worse = True
    strictly_better = False
    for x, y in zip(a, b):
        if x > y:
            not_worse = False
            break
        if x < y:
            strictly_better = True
    return not_worse and strictly_better


def insert_one(archive: Archive, perm, objs, evicted: list | None = None) -> bool:
    """Archive insert oracle: one candidate row, scalar dominance tests; True if it joined.

    A present permutation or a dominating member rejects the candidate;
    otherwise the members it dominates leave, it joins at the end, and the
    least crowded members are evicted while the archive is over capacity.
    ``evicted``, if given, collects the objectives of each evicted member.
    """
    perm = np.asarray(perm, dtype=np.int64)
    obj = tuple(int(v) for v in objs)
    key = perm.tobytes()
    if key in archive._keys:
        return False
    members = [(p, tuple(o)) for p, o in zip(archive.perms, archive.objs.tolist())]
    for _, member in members:
        if dominates(member, obj):
            return False

    survivors = []
    for p, member in members:
        if dominates(obj, member):
            archive._keys.discard(p.tobytes())
        else:
            survivors.append((p, member))
    survivors.append((perm, obj))
    archive._keys.add(key)
    while len(survivors) > archive.capacity:
        _evict_most_crowded(archive, survivors, evicted)
    archive.perms = np.array([p for p, _ in survivors], dtype=np.int64)
    archive.objs = np.array([o for _, o in survivors], dtype=np.int64)
    return True


def _evict_most_crowded(archive: Archive, members: list, evicted: list | None) -> None:
    # Members form a single front, so crowding is computed directly.
    crowding = front_crowding(np.array([o for _, o in members], dtype=np.int64))
    perm, obj = members.pop(int(np.argmin(crowding)))
    archive._keys.discard(perm.tobytes())
    archive.evicted += 1
    if evicted is not None:
        evicted.append(obj)


def random_instance(rng: np.random.Generator, n: int, m: int, hi: int = 50) -> Instance:
    distances = rng.integers(0, hi + 1, (n, n))
    flows = tuple(rng.integers(0, hi + 1, (n, n)) for _ in range(m))
    return Instance(n=n, distances=distances, flows=flows)


def naive_objectives(instance: Instance, perm) -> tuple[int, ...]:
    """Triple-loop cost sums, independent of the numpy evaluation path."""
    out = []
    for f in instance.flows:
        total = 0
        for i in range(instance.n):
            for j in range(instance.n):
                total += int(instance.distances[i, j]) * int(f[perm[i], perm[j]])
        out.append(total)
    return tuple(out)


def evaluate_delta(instance: Instance, perm, i: int, j: int) -> tuple[int, ...]:
    """Per-pair swap delta oracle in O(m*n), with Python-int diagonal and cross terms.

    Evaluating the swapped permutation equals the objectives of ``perm``
    plus ``delta`` componentwise; non-zero diagonals and asymmetric
    matrices are handled.
    """
    n = instance.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"swap positions ({i}, {j}) out of range for n={n}")
    if i == j:
        return (0,) * instance.m
    d = instance.distances
    p = np.asarray(perm, dtype=np.int64)
    pi, pj = int(p[i]), int(p[j])
    out = []
    for f in instance.flows:
        diag = (int(d[i, i]) - int(d[j, j])) * (int(f[pj, pj]) - int(f[pi, pi]))
        cross = (int(d[i, j]) - int(d[j, i])) * (int(f[pj, pi]) - int(f[pi, pj]))
        col = (d[:, i] - d[:, j]) * (f[p, pj] - f[p, pi])
        row = (d[i, :] - d[j, :]) * (f[pj, p] - f[pi, p])
        both = col + row
        rest = int(both.sum()) - int(both[i]) - int(both[j])
        out.append(diag + cross + rest)
    return tuple(out)


def ordered_swap_neighborhood(n: int):
    """Location pairs in scan order: (0,1), (0,2), ..., (n-2,n-1)."""
    for i in range(n - 1):
        for j in range(i + 1, n):
            yield (i, j)


def repeated_filter_ranks(objectives: list[tuple[int, ...]]) -> list[int]:
    """Rank oracle: peel non-dominated subsets one front at a time."""
    remaining = set(range(len(objectives)))
    ranks = [0] * len(objectives)
    rank = 0
    while remaining:
        front = {
            i
            for i in remaining
            if not any(dominates(objectives[j], objectives[i]) for j in remaining if j != i)
        }
        for i in front:
            ranks[i] = rank
        remaining -= front
        rank += 1
    return ranks


def brute_force_non_dominated(objectives: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    return {
        obj
        for obj in objectives
        if not any(dominates(other, obj) for other in objectives)
    }


def non_dominated(points) -> np.ndarray:
    """Rows no other row dominates (minimization), each distinct row once, in input order."""
    points = np.asarray(points, dtype=np.float64)
    if not points.size:
        return points.reshape(0, 0)
    _, first = np.unique(points, axis=0, return_index=True)
    distinct = points[np.sort(first)]
    return distinct[non_dominated_mask(distinct)]


def pairwise_non_dominated(points):
    """Non-dominated filter oracle: one kept list, first occurrences in input order."""
    kept = []
    for p in points:
        if any(dominates(q, p) or q == p for q in kept):
            continue
        kept = [q for q in kept if not dominates(p, q)]
        kept.append(p)
    return kept


def recursive_hypervolume(front, ref) -> float:
    """Hypervolume oracle: slice along the first objective down to one dimension."""
    inside = [tuple(p) for p in front if all(x < r for x, r in zip(p, ref))]
    return _hv_recursive(inside, tuple(ref))


def _hv_recursive(points, ref) -> float:
    if not points:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(p[0] for p in points)
    front = sorted(pairwise_non_dominated(points))
    volume = 0.0
    for idx, p in enumerate(front):
        upper = front[idx + 1][0] if idx + 1 < len(front) else ref[0]
        width = upper - p[0]
        if width <= 0:
            continue
        slab = [q[1:] for q in front[: idx + 1]]
        volume += width * _hv_recursive(slab, ref[1:])
    return volume


def resorting_hypervolume(front, ref) -> float:
    """Slicing oracle for m >= 3: every slab's prefix is sorted again by its
    last coordinate, down to mqap's 3-D sweep on points sorted by z."""
    inside = [tuple(p) for p in front if all(x < r for x, r in zip(p, ref))]
    return _hv_resorting(inside, tuple(ref)) if inside else 0.0


def _hv_resorting(points, ref) -> float:
    points = sorted(points, key=lambda p: p[-1])
    if len(ref) == 3:
        return _hv3(points, ref)
    heads = [p[:-1] for p in points]
    uppers = [p[-1] for p in points[1:]] + [ref[-1]]
    volume = 0.0
    for count, (p, upper) in enumerate(zip(points, uppers), start=1):
        if upper > p[-1]:
            volume += (upper - p[-1]) * _hv_resorting(heads[:count], ref[:-1])
    return volume


def tuple_normalize_fronts(fronts):
    """Normalisation oracle, point by point on tuples: min/max over the union of fronts."""
    union = [p for front in fronts for p in front]
    if not union:
        raise ValueError("no points to normalize")
    m = len(union[0])
    mins = tuple(min(p[r] for p in union) for r in range(m))
    maxs = tuple(max(p[r] for p in union) for r in range(m))

    def scale(p):
        return tuple(
            0.0 if maxs[r] == mins[r] else (p[r] - mins[r]) / (maxs[r] - mins[r])
            for r in range(m)
        )

    return [[scale(p) for p in front] for front in fronts]


def tuple_hypervolume(front, ref) -> float:
    """Hypervolume on tuples: a per-point filter against the reference, then
    mqap's 2-D sweep or the re-sorting slicer."""
    inside = [tuple(p) for p in front if all(x < r for x, r in zip(p, ref))]
    if not inside:
        return 0.0
    if len(ref) == 2:
        return _hv2(np.asarray(inside, dtype=float), ref)
    return _hv_resorting(inside, tuple(ref))


def tuple_compare_hypervolumes(fronts_per_set, offset: float = 0.01) -> list[list[float]]:
    """Per-trial normalised hypervolumes of ``compare`` on one instance, by the tuple path.

    ``fronts_per_set`` holds, per result set, one list of integer objective
    tuples per trial.  All fronts share the normalisation, and the reference
    point is the maximum of their pooled non-dominated set plus ``offset``.
    """
    flat = [
        [tuple(float(v) for v in p) for p in front] for fronts in fronts_per_set for front in fronts
    ]
    normalized = tuple_normalize_fronts(flat)
    pooled = pairwise_non_dominated([p for front in normalized for p in front])
    ref = tuple(max(p[r] for p in pooled) + offset for r in range(len(pooled[0])))
    per_trial, cursor = [], 0
    for fronts in fronts_per_set:
        trials = normalized[cursor : cursor + len(fronts)]
        per_trial.append([tuple_hypervolume(f, ref) for f in trials])
        cursor += len(fronts)
    return per_trial


def crowding_oracle(front_objs: list[tuple[int, ...]]) -> list[float]:
    """Straightforward crowding re-implementation for cross-checking."""
    size = len(front_objs)
    values = [0.0] * size
    if size == 0:
        return values
    m = len(front_objs[0])
    for r in range(m):
        order = sorted(range(size), key=lambda i: front_objs[i][r])
        values[order[0]] = float("inf")
        values[order[-1]] = float("inf")
        span = front_objs[order[-1]][r] - front_objs[order[0]][r]
        if span <= 0:
            continue
        for pos in range(1, size - 1):
            i = order[pos]
            if values[i] == float("inf"):
                continue
            values[i] += (front_objs[order[pos + 1]][r] - front_objs[order[pos - 1]][r]) / span
    return values


def per_front_rank_and_crowd(objs) -> list[tuple[int, float]]:
    """Fitness-key oracle: rank all rows, then ``front_crowding`` each front on its own."""
    objs = np.asarray(objs, dtype=np.int64)
    if not len(objs):
        return []
    ranks = pareto_ranks(objs)
    crowding = np.empty(len(objs))
    for rank in range(int(ranks.max()) + 1):
        members = np.flatnonzero(ranks == rank)
        crowding[members] = front_crowding(objs[members])
    return list(zip(ranks.tolist(), (-crowding).tolist()))


def scalar_cycle_crossover(p1, p2):
    """Cycle crossover oracle: the cycle walk over numpy arrays, element by element."""
    p1 = np.asarray(p1, dtype=np.int64)
    p2 = np.asarray(p2, dtype=np.int64)
    if len(p1) != len(p2):
        raise ValueError("parents must have equal length")
    n = len(p1)
    pos_in_p1 = np.empty(n, dtype=np.int64)
    pos_in_p1[p1] = np.arange(n)

    c1 = np.empty(n, dtype=np.int64)
    c2 = np.empty(n, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    from_p1 = True
    for start in range(n):
        if assigned[start]:
            continue
        pos = start
        while not assigned[pos]:
            assigned[pos] = True
            if from_p1:
                c1[pos], c2[pos] = p1[pos], p2[pos]
            else:
                c1[pos], c2[pos] = p2[pos], p1[pos]
            pos = int(pos_in_p1[p2[pos]])
        from_p1 = not from_p1
    return c1, c2


@pytest.fixture
def eviction_log(monkeypatch) -> list[tuple[int, ...]]:
    """The objectives of every member ``Archive.insert`` evicts, in order.

    ``Archive.insert`` computes crowding once per eviction and evicts the
    member of least crowding, so a wrapper of its ``front_crowding`` sees each.
    """
    log = []

    def crowding(objs):
        values = front_crowding(objs)
        log.append(tuple(objs[int(np.argmin(values))].tolist()))
        return values

    monkeypatch.setattr(mqap.archive, "front_crowding", crowding)
    return log


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
