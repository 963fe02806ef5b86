"""Dominance-based local search over the ordered swap neighborhood.

The neighborhood of a permutation is every location pair (i, j) with
i < j, scanned in row-major order: (0,1), (0,2), ..., (n-2,n-1).

The working set starts as the rows the caller passes, in their order; its
unvisited rows are drawn at random.  The first neighbor that
Pareto-dominates the drawn row is accepted and joins the working set
unvisited; its objective row is the drawn row's plus the swap delta, in
int64, never a re-evaluation.  The search stops when its wall-clock budget
runs out or no unvisited rows remain.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .evaluation import Rows, swap_delta_matrix
from .genetics import Rng
from .instance import Instance

Clock = Callable[[], float]


def first_dominating_swap(
    instance: Instance, perm: np.ndarray
) -> tuple[int, int, np.ndarray] | None:
    """First pair in scan order whose swap strictly improves all-around, with its int64 deltas.

    A neighbor dominates iff its delta is <= 0 in every objective and < 0 in
    at least one, so the whole neighborhood is screened on the batched delta
    matrix.  The kernel holds exact integers, so the cast to int64 is exact.
    """
    deltas = swap_delta_matrix(instance, perm)
    improving = (deltas <= 0).all(axis=0) & (deltas < 0).any(axis=0)
    # argmax gives the first True (i, j) in row-major order.  The deltas are
    # symmetric with a zero diagonal, so i < j: were j < i, the mirror (j, i)
    # would be True in an earlier row.  That is the first pair in scan order.
    first = int(improving.argmax())
    if not improving.flat[first]:
        return None
    i, j = divmod(first, instance.n)
    return i, j, deltas[:, i, j].astype(np.int64)


def dominance_based_local_search(
    rows: Rows,
    t_max: float,
    instance: Instance,
    rng: Rng,
    clock: Clock = time.monotonic,
) -> Rows:
    """Improve ``rows`` by accepting dominating swap neighbors.

    Returns the working set: ``rows`` unchanged and in order, then every
    accepted dominating neighbor.  Elapsed time is checked at the loop head
    only, so one neighborhood scan may overshoot the ``t_max``-second budget.
    """
    perms, objs = list(rows.perms), list(rows.objs)
    start = clock()
    # Unscanned rows in working-set order: the drawn one leaves, an
    # accepted neighbour joins at the end.
    unvisited = list(range(len(perms)))
    while unvisited and clock() - start < t_max:
        row = unvisited.pop(rng.randrange(len(unvisited)))
        found = first_dominating_swap(instance, perms[row])
        if found is not None:
            i, j, delta = found
            neighbor = perms[row].copy()
            neighbor[i], neighbor[j] = neighbor[j], neighbor[i]
            unvisited.append(len(perms))
            perms.append(neighbor)
            objs.append(objs[row] + delta)
    return Rows(np.array(perms, dtype=np.int64), np.array(objs, dtype=np.int64))
