"""Quality assessment: normalized hypervolume and the rank-sum test.

Fronts are plain sequences of equally sized objective tuples.  Hypervolume
is computed exactly by dimension-recursive slicing, which is cheap for the
2 to 4 objectives this solver targets.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .ranking import dominates

Point = tuple[float, ...]


class EmptyUnionError(ValueError):
    pass


class DegenerateSampleError(ValueError):
    pass


def normalize_fronts(
    fronts: Sequence[Sequence[Point]],
) -> tuple[list[list[Point]], tuple[Point, Point]]:
    """Map every coordinate to [0, 1] using min/max over the union of fronts.

    Returns the rescaled fronts plus the (mins, maxs) bounds used, so the
    same mapping can be reused.  A dimension that is constant across the
    union maps to 0 everywhere.
    """
    union = [p for front in fronts for p in front]
    if not union:
        raise EmptyUnionError("no points to normalize")
    m = len(union[0])
    mins = tuple(min(p[r] for p in union) for r in range(m))
    maxs = tuple(max(p[r] for p in union) for r in range(m))

    def scale(p: Point) -> Point:
        return tuple(
            0.0 if maxs[r] == mins[r] else (p[r] - mins[r]) / (maxs[r] - mins[r])
            for r in range(m)
        )

    return [[scale(p) for p in front] for front in fronts], (mins, maxs)


def reference_point(global_front: Sequence[Point], offset: float = 0.01) -> Point:
    """Componentwise maximum of the global front plus a small offset."""
    if not global_front:
        raise EmptyUnionError("cannot place a reference point on an empty front")
    m = len(global_front[0])
    return tuple(max(p[r] for p in global_front) + offset for r in range(m))


def non_dominated(points: Sequence[Point]) -> list[Point]:
    """Minimization non-dominated filter keeping first occurrences."""
    kept: list[Point] = []
    for p in points:
        if any(dominates(q, p) or q == p for q in kept):
            continue
        kept = [q for q in kept if not dominates(p, q)]
        kept.append(p)
    return kept


def hypervolume(front: Sequence[Point], ref: Point) -> float:
    """Exact volume dominated by the front and bounded by ``ref``.

    Points with any coordinate at or beyond the reference are discarded
    first; dominated points do not change the result.
    """
    m = len(ref)
    for p in front:
        if len(p) != m:
            raise ValueError(f"point dimension {len(p)} does not match reference {m}")
    inside = [tuple(p) for p in front if all(x < r for x, r in zip(p, ref))]
    return _hv_recursive(inside, ref)


def _hv_recursive(points: list[Point], ref: Point) -> float:
    if not points:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(p[0] for p in points)
    front = sorted(non_dominated(points))
    volume = 0.0
    for idx, p in enumerate(front):
        upper = front[idx + 1][0] if idx + 1 < len(front) else ref[0]
        width = upper - p[0]
        if width <= 0:
            continue
        slab = [q[1:] for q in front[: idx + 1]]
        volume += width * _hv_recursive(slab, ref[1:])
    return volume


def _rank(values: Sequence[float]) -> list[float]:
    """Average ranks, 1-based, with ties sharing the mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def wilcoxon_rank_sum(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alternative: str = "two-sided",
) -> tuple[float, float]:
    """Rank-sum test; returns the standardized statistic and the p-value.

    Small samples (both below 10) are handled by exact enumeration of rank
    assignments; larger ones use the normal approximation with the standard
    tie correction.  ``alternative`` is ``two-sided``, ``greater`` (sample_a
    shifted above sample_b) or ``less``.
    """
    n1, n2 = len(sample_a), len(sample_b)
    if n1 < 3 or n2 < 3:
        raise ValueError("both samples need at least 3 observations")
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    combined = list(sample_a) + list(sample_b)
    if len(set(combined)) == 1:
        raise DegenerateSampleError("all observations identical; ranks carry no signal")

    ranks = _rank(combined)
    w = sum(ranks[:n1])
    n = n1 + n2
    mean_w = n1 * (n + 1) / 2

    counts = {}
    for r in ranks:
        counts[r] = counts.get(r, 0) + 1
    tie_term = sum(c**3 - c for c in counts.values())
    variance = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    sd = math.sqrt(variance)
    statistic = (w - mean_w) / sd

    if n1 < 10 and n2 < 10:
        p_le, p_ge = _exact_rank_sum_tails(ranks, n1, w)
    else:
        z = statistic
        p_le = _norm_cdf(z)
        p_ge = 1.0 - _norm_cdf(z)

    if alternative == "greater":
        p = p_ge
    elif alternative == "less":
        p = p_le
    else:
        p = min(1.0, 2.0 * min(p_le, p_ge))
    return statistic, p


def _exact_rank_sum_tails(ranks: list[float], n1: int, w: float) -> tuple[float, float]:
    """P(W <= w) and P(W >= w) over all equally likely rank assignments."""
    # Average ranks are multiples of 0.5; doubling keeps the sums exact.
    doubled = [round(2 * r) for r in ranks]
    target = round(2 * w)
    le = ge = total = 0
    for combo in itertools.combinations(doubled, n1):
        s = sum(combo)
        total += 1
        if s <= target:
            le += 1
        if s >= target:
            ge += 1
    return le / total, ge / total


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
