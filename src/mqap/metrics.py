"""Quality assessment: normalized hypervolume and the rank-sum test.

A front is one (k, m) float64 array, a row per point; the functions also
take anything ``np.asarray`` turns into one, such as a list of tuples.
Hypervolume is exact: a sort and running minimum for 2 objectives, the
3-D dimension sweep of Beume, Fonseca, Lopez-Ibanez, Paquete & Vahrenhold
(IEEE TEC 13(5), 2009) for 3, and slicing along the last objective down
to that sweep for 4 or more (Fonseca, Paquete & Lopez-Ibanez, CEC 2006).
The points are sorted once, by the last objective.  Each slicing level
keeps the points below its slab in the order the level beneath sweeps
them, inserting each after its equal keys, so no slab sorts again and the
float operations run in the order per-slab stable sorts would give.
"""

from __future__ import annotations

import bisect
import itertools
import math
from operator import itemgetter
from typing import Sequence

import numpy as np

Point = tuple[float, ...]

# Added to the global front's maxima to place the reference point.
REFERENCE_OFFSET = 0.01


def normalize_fronts(fronts) -> list[np.ndarray]:
    """Map every coordinate to [0, 1] using min/max over the union of fronts.

    Returns the rescaled (k, m) arrays.  A dimension that is constant across
    the union maps to 0 everywhere; an empty front stays empty.
    """
    arrays = [np.asarray(front, dtype=np.float64) for front in fronts]
    filled = [a for a in arrays if a.size]
    if not filled:
        raise ValueError("no points to normalize")
    union = np.concatenate(filled)
    lo, hi = union.min(axis=0), union.max(axis=0)
    # A constant column has f - lo == 0 everywhere, and 0 / 1 is 0.
    span = np.where(hi > lo, hi - lo, 1.0)
    m = union.shape[1]
    return [(a.reshape(-1, m) - lo) / span for a in arrays]


def reference_point(global_front, offset: float = REFERENCE_OFFSET) -> Point:
    """Componentwise maximum of the global front plus a small offset."""
    points = np.asarray(global_front, dtype=np.float64)
    if not points.size:
        raise ValueError("cannot place a reference point on an empty front")
    return tuple((points.max(axis=0) + offset).tolist())


def hypervolume(front, ref: Point) -> float:
    """Exact volume dominated by the front and bounded by ``ref``.

    Points with any coordinate at or beyond the reference are discarded
    first; dominated points do not change the result.
    """
    m = len(ref)
    if m < 1:
        raise ValueError("the reference point needs at least one coordinate")
    points = np.asarray(front, dtype=np.float64)
    if not points.size:
        return 0.0
    if points.ndim != 2 or points.shape[1] != m:
        raise ValueError(f"points of shape {points.shape} do not match a {m}-coordinate reference")
    ref = tuple(map(float, ref))
    inside = points[(points < ref).all(axis=1)]
    if not len(inside):
        return 0.0
    if m == 1:
        return ref[0] - float(inside.min())
    if m == 2:
        return _hv2(inside, ref)
    # The sweeps run on Python floats: the same float64 values, cheaper one
    # at a time.  They take the points in one stable sort by the last coordinate.
    return _hv_sliced(sorted(inside.tolist(), key=itemgetter(-1)), ref)


def _hv2(points: np.ndarray, ref: Point) -> float:
    """Area of the staircase: sort by x, keep each point that lowers the running minimum y."""
    points = points[np.lexsort((points[:, 1], points[:, 0]))]
    y = points[:, 1]
    lowers = np.ones(len(y), dtype=bool)
    lowers[1:] = y[1:] < np.minimum.accumulate(y)[:-1]
    steps = points[lowers]
    widths = np.diff(steps[:, 0], append=ref[0])
    return float(widths @ (ref[1] - steps[:, 1]))


def _hv3(points: list[Point], ref: Point) -> float:
    """Sweep z upwards over the 2-D staircase of the points seen so far.

    The points arrive ascending in z.  ``xs`` ascends and ``ys`` descends;
    the sentinels (-inf, ref_y) and (ref_x, -inf) bound it, so no lookup
    runs off either end.  ``area`` is the staircase's area inside the
    reference box; each new point adds only the strips between it and the
    steps it removes.
    """
    ref_x, ref_y, ref_z = ref
    xs, ys = [-math.inf, ref_x], [ref_y, -math.inf]
    area = volume = 0.0
    z_prev = points[0][2]
    for x, y, z in points:
        volume += area * (z - z_prev)
        z_prev = z
        lo = hi = bisect.bisect_left(xs, x)
        # No x appears twice in xs, so the last step at or left of x is lo or lo - 1.
        if ys[lo if xs[lo] == x else lo - 1] <= y:
            continue  # weakly dominated in (x, y) by a step already there
        left, height = x, ys[lo - 1]
        while ys[hi] >= y:
            area += (xs[hi] - left) * (height - y)
            left, height = xs[hi], ys[hi]
            hi += 1
        area += (xs[hi] - left) * (height - y)
        xs[lo:hi] = (x,)
        ys[lo:hi] = (y,)
    return volume + area * (ref_z - z_prev)


def _hv_sliced(points: list[Point], ref: Point) -> float:
    """Sum, over slabs between consecutive last coordinates, of width times the
    (m-1)-dimensional volume of the points below the slab.

    The points arrive ascending in their last coordinate.  The heads of the
    points below the slab are kept ascending in their own last coordinate,
    each inserted after its equal keys: the order a stable sort of the
    prefix gives, so the level below sweeps them as they stand.
    """
    if len(ref) == 3:
        return _hv3(points, ref)
    heads: list[Point] = []
    keys: list[float] = []
    uppers = [p[-1] for p in points[1:]] + [ref[-1]]
    below = ref[:-1]
    volume = 0.0
    for p, upper in zip(points, uppers):
        at = bisect.bisect_right(keys, p[-2])
        keys.insert(at, p[-2])
        heads.insert(at, p[:-1])
        if upper > p[-1]:
            volume += (upper - p[-1]) * _hv_sliced(heads, below)
    return volume


def wilcoxon_rank_sum(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alternative: str = "two-sided",
) -> tuple[float, float]:
    """Rank-sum test; returns the standardized statistic and the p-value.

    Small samples (both below 10) are handled by exact enumeration of rank
    assignments; larger ones use the normal approximation with the standard
    tie correction.  ``alternative`` is ``two-sided``, ``greater`` (sample_a
    shifted above sample_b) or ``less``.  A sample of all-tied observations
    gives ``(0.0, 1.0)``.
    """
    n1, n2 = len(sample_a), len(sample_b)
    if n1 < 3 or n2 < 3:
        raise ValueError("both samples need at least 3 observations")
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    combined = list(sample_a) + list(sample_b)
    if len(set(combined)) == 1:
        # Every rank assignment has the same sum, so both tails are 1.
        return 0.0, 1.0

    # Each value's tie group spans positions [lo, hi) of the sorted sample:
    # its average 1-based rank is (lo + hi + 1) / 2, and a group of c ties
    # adds c^3 - c to the tie term, c^2 - 1 per member.
    ordered = sorted(combined)
    spans = [(bisect.bisect_left(ordered, v), bisect.bisect_right(ordered, v)) for v in combined]
    ranks = [(lo + hi + 1) / 2 for lo, hi in spans]
    w = sum(ranks[:n1])
    n = n1 + n2
    mean_w = n1 * (n + 1) / 2

    tie_term = sum((hi - lo) ** 2 - 1 for lo, hi in spans)
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
