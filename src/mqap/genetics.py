"""Variation and selection operators on permutations.

All randomness flows through an explicit ``random.Random`` so operator
outputs are reproducible per island.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

Rng = random.Random


def random_permutations(n: int, count: int, rng: Rng) -> np.ndarray:
    """``count`` uniform random permutations of 0..n-1 as a (count, n) int64 array."""
    perms = [rng.sample(range(n), n) for _ in range(count)]
    return np.array(perms, dtype=np.int64).reshape(count, n)


def cycle_crossover(p1: list[int], p2: list[int]) -> tuple[list[int], list[int]]:
    """Cycle crossover producing two children, as new lists.

    Positions are partitioned into cycles (closed position loops traced by
    matching values across the two parents).  Cycles are copied alternately:
    the cycle containing position 0 goes parent1 -> child1, the next
    unassigned cycle parent2 -> child1, and so on, so every child position
    keeps the value one parent held there.  The parents are lists: the walk
    indexes them element by element, where numpy scalar reads cost far more
    at this size.
    """
    if len(p1) != len(p2):
        raise ValueError("parents must have equal length")
    n = len(p1)
    pos_in_p1 = [0] * n
    for pos, value in enumerate(p1):
        pos_in_p1[value] = pos

    c1, c2 = list(p1), list(p2)
    assigned = [False] * n
    from_p1 = True
    for start in range(n):
        if assigned[start]:
            continue
        pos = start
        while not assigned[pos]:
            assigned[pos] = True
            if not from_p1:
                c1[pos], c2[pos] = p2[pos], p1[pos]
            pos = pos_in_p1[p2[pos]]
        from_p1 = not from_p1
    return c1, c2


def random_swap(perm: list[int], rng: Rng) -> list[int]:
    """Copy of ``perm`` with two distinct random positions exchanged."""
    n = len(perm)
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    out = perm.copy()
    out[i], out[j] = out[j], out[i]
    return out


def swap_mutation(perm: list[int], pb_m: float, rng: Rng) -> list[int]:
    """With probability pb_m exchange two distinct random positions."""
    if rng.random() >= pb_m or len(perm) < 2:
        return perm
    return random_swap(perm, rng)


def tournament_select(fitness: Sequence, rng: Rng) -> int:
    """Binary tournament: two entrants drawn with replacement, the better wins.

    ``fitness[i]`` is the key of pool row i, smaller is better; the second
    entrant wins only when its key is strictly smaller.  Returns the
    winner's row index.
    """
    if not len(fitness):
        raise ValueError("tournament pool is empty")
    first = rng.randrange(len(fitness))
    second = rng.randrange(len(fitness))
    return second if fitness[second] < fitness[first] else first
