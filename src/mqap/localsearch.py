"""Dominance-based local search over the ordered swap neighborhood.

The neighborhood of a permutation is every location pair (i, j) with
i < j, scanned in row-major order: (0,1), (0,2), ..., (n-2,n-1).

Starting from the archive contents, unvisited solutions are drawn at
random; the first neighbor that Pareto-dominates the current solution is
accepted (its objectives come from the swap delta, never a re-evaluation)
and joins the working population unvisited.  The search stops when its
wall-clock budget runs out or no unvisited solutions remain.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from .archive import Archive
from .evaluation import Solution, apply_swap, swap_delta_matrix
from .genetics import Rng
from .instance import Instance

Clock = Callable[[], float]


def first_dominating_swap(
    instance: Instance, sol: Solution
) -> tuple[int, int, tuple[int, ...]] | None:
    """First pair in scan order whose swap strictly improves all-around.

    A neighbor dominates iff its delta is <= 0 in every objective and < 0 in
    at least one, so the whole neighborhood is screened on the batched delta
    matrix and only the winning pair's deltas become Python ints.
    """
    deltas = swap_delta_matrix(instance, sol.perm)
    improving = (deltas <= 0).all(axis=0) & (deltas < 0).any(axis=0)
    # argmax gives the first True (i, j) in row-major order.  The deltas are
    # symmetric with a zero diagonal, so i < j: were j < i, the mirror (j, i)
    # would be True in an earlier row.  That is the first pair in scan order.
    first = int(improving.argmax())
    if not improving.flat[first]:
        return None
    i, j = divmod(first, instance.n)
    return i, j, tuple(int(x) for x in deltas[:, i, j])


def dominance_based_local_search(
    archive: Archive,
    t_max: float,
    instance: Instance,
    rng: Rng,
    clock: Clock = time.monotonic,
    extra: Sequence[Solution] = (),
) -> list[Solution]:
    """Improve archive members in place of the island population.

    Returns the working population: the archive contents (plus any
    ``extra`` seeds, typically the generation's offspring, which get
    improved on the same terms) and every accepted dominating neighbor.
    Elapsed time is checked at the loop head only, so one neighborhood scan
    may overshoot the ``t_max``-second budget.
    """
    population = list(archive.members)
    member_ids = set(map(id, population))
    population.extend(s for s in extra if id(s) not in member_ids)
    start = clock()
    # Unscanned members in population order: the drawn one leaves, an
    # accepted neighbour joins at the end.
    unvisited = list(population)
    while unvisited and clock() - start < t_max:
        sol = unvisited.pop(rng.randrange(len(unvisited)))
        found = first_dominating_swap(instance, sol)
        if found is not None:
            neighbor = apply_swap(sol, *found)
            population.append(neighbor)
            unvisited.append(neighbor)
    return population
