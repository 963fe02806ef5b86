"""Independent checks of solver and scorer outputs.

Nothing here calls into ``mqap``: objectives, dominance and hypervolume
are recomputed from the raw matrices and points, so the benchmark can
judge the program's outputs without trusting the code under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def read_front(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a front file into (perms, objectives) integer arrays.

    Lines whose first non-blank character is not a digit are comments; a
    data line is ``perm values | objective values``.
    """
    perms, objs = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or not stripped[0].isdigit():
            continue
        perm_part, sep, obj_part = stripped.partition("|")
        if not sep:
            raise ValueError(f"{path}: data line without '|': {stripped!r}")
        perms.append([int(v) for v in perm_part.split()])
        objs.append([int(v) for v in obj_part.split()])
    if not perms:
        return np.empty((0, 0), dtype=np.int64), np.empty((0, 0), dtype=np.int64)
    return np.array(perms, dtype=np.int64), np.array(objs, dtype=np.int64)


def objectives(distances: np.ndarray, flows, perms: np.ndarray) -> np.ndarray:
    """Cost vectors of a batch of permutations, shape (k, m), exact int64.

    ``perms[s, i]`` is the facility at location i; cost r sums
    ``distances[i, j] * flows[r][perm[i], perm[j]]`` over all i, j.
    """
    rows = perms[:, :, None]
    cols = perms[:, None, :]
    return np.stack(
        [(distances[None, :, :] * f[rows, cols]).sum(axis=(1, 2)) for f in flows], axis=1
    )


def dominated_mask(objs: np.ndarray) -> np.ndarray:
    """True for every row that some other row Pareto-dominates (minimisation)."""
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    return (le & lt).any(axis=0)


def check_front(
    distances: np.ndarray, flows, perms: np.ndarray, objs: np.ndarray
) -> list[str]:
    """Problems with a solver front; an empty list means it passed.

    Checks that every row is a permutation of 0..n-1, that the stated
    objectives match a recomputation, that no permutation repeats and
    that no point is dominated by another.
    """
    n = distances.shape[0]
    m = len(flows)
    if perms.shape[0] == 0:
        return ["front is empty"]
    problems = []
    if perms.shape[1] != n or objs.shape[1] != m:
        return [f"front rows have shape {perms.shape[1]}|{objs.shape[1]}, expected {n}|{m}"]
    bad = [s for s in range(perms.shape[0]) if sorted(perms[s].tolist()) != list(range(n))]
    if bad:
        return [f"rows {bad[:5]} are not permutations of 0..{n - 1}"]
    mismatch = np.flatnonzero((objectives(distances, flows, perms) != objs).any(axis=1))
    if mismatch.size:
        problems.append(f"objectives of rows {mismatch[:5].tolist()} differ from recomputation")
    if len({p.tobytes() for p in perms}) != perms.shape[0]:
        problems.append("front repeats a permutation")
    dominated = np.flatnonzero(dominated_mask(objs))
    if dominated.size:
        problems.append(f"rows {dominated[:5].tolist()} are dominated")
    return problems


def cost_bounds(distances: np.ndarray, flows) -> tuple[np.ndarray, np.ndarray]:
    """Per-objective lower and upper bounds on the cost of any assignment.

    An assignment pairs the diagonal distances with the diagonal flows and
    the off-diagonal entries with each other one-to-one, so pairing sorted
    distances against reverse-sorted (or sorted) flows bounds every cost
    from below (or above).  The bounds depend on the instance alone, so
    hypervolumes normalised by them compare across commits.
    """
    n = distances.shape[0]
    off = ~np.eye(n, dtype=bool)
    d_diag, d_off = np.sort(np.diagonal(distances)), np.sort(distances[off])
    lows, highs = [], []
    for f in flows:
        f_diag, f_off = np.sort(np.diagonal(f)), np.sort(f[off])
        lows.append(int(d_diag @ f_diag[::-1]) + int(d_off @ f_off[::-1]))
        highs.append(int(d_diag @ f_diag) + int(d_off @ f_off))
    return np.array(lows, dtype=float), np.array(highs, dtype=float)


def normalised_hypervolume(objs: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
    """Hypervolume of ``(objs - low) / (high - low)`` against the all-ones point."""
    return hypervolume((objs - low) / (high - low), np.ones(len(low)))


def hypervolume(points, ref) -> float:
    """Exact dominated volume (minimisation) bounded by ``ref``.

    Coordinates are compressed to the grid the points and the reference
    induce; a cell counts when some point is <= its lower corner, found by
    a running maximum of point markers along every axis.  From three
    objectives on, the last axis is swept slab by slab, so memory stays at
    one (m-1)-dimensional grid and the benchmark's own footprint stays
    small next to the program's.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, len(ref))
    ref = np.asarray(ref, dtype=float)
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    m = pts.shape[1]
    grids = [np.unique(np.append(pts[:, r], ref[r])) for r in range(m)]
    index = np.stack([np.searchsorted(grids[r], pts[:, r]) for r in range(m)], axis=1)
    widths = [np.diff(g) for g in grids]
    if m <= 2:
        return _grid_volume(index, widths)
    volume = 0.0
    for k, width in enumerate(widths[-1]):
        active = index[index[:, -1] <= k, :-1]
        if active.shape[0]:
            volume += width * _grid_volume(active, widths[:-1])
    return volume


def _grid_volume(index: np.ndarray, widths: list[np.ndarray]) -> float:
    marks = np.zeros(tuple(len(w) for w in widths), dtype=np.int8)
    marks[tuple(index.T)] = 1
    for axis in range(len(widths)):
        np.maximum.accumulate(marks, axis=axis, out=marks)
    volume = marks.astype(float)
    for w in reversed(widths):
        volume = volume @ w
    return float(volume)
