"""Objective evaluation: full cost sums and incremental swap deltas.

Costs are exact 64-bit integers.  For a permutation ``perm`` mapping each
location to the facility placed there, the r-th cost is

    sum_ij distances[i, j] * flows[r][perm[i], perm[j]]

Exchanging the facilities at two locations changes each cost by a closed
form that only touches the two swapped rows and columns, which is what
makes neighborhood scans affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance

ObjectiveVector = tuple[int, ...]


class DimensionMismatchError(ValueError):
    pass


@dataclass(eq=False)
class Solution:
    """A permutation with its cached objective vector."""

    perm: np.ndarray
    objectives: ObjectiveVector

    def perm_key(self) -> bytes:
        return self.perm.tobytes()

    def copy(self) -> "Solution":
        return Solution(perm=self.perm.copy(), objectives=self.objectives)


def evaluate_full(instance: Instance, perm: np.ndarray) -> ObjectiveVector:
    """Evaluate all m costs of a permutation by the full double sum."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (instance.n,):
        raise DimensionMismatchError(
            f"permutation length {perm.shape} does not match n={instance.n}"
        )
    d = instance.distances
    return tuple(int((d * f[perm][:, perm]).sum()) for f in instance.flows)


def make_solution(instance: Instance, perm) -> Solution:
    perm = np.asarray(perm, dtype=np.int64)
    return Solution(perm=perm, objectives=evaluate_full(instance, perm))


def random_solution(instance: Instance, rng) -> Solution:
    perm = np.array(rng.sample(range(instance.n), instance.n), dtype=np.int64)
    return Solution(perm=perm, objectives=evaluate_full(instance, perm))


def evaluate_delta(instance: Instance, sol: Solution, i: int, j: int) -> ObjectiveVector:
    """Objective change from exchanging the facilities at locations i and j.

    Returns delta such that evaluating the swapped permutation equals
    ``sol.objectives + delta`` componentwise, in O(m*n) time.  Diagonal and
    cross terms are kept so non-zero diagonals and asymmetric matrices are
    handled exactly.
    """
    n = instance.n
    if not (0 <= i < n and 0 <= j < n):
        raise DimensionMismatchError(f"swap positions ({i}, {j}) out of range for n={n}")
    if i == j:
        return (0,) * instance.m

    d = instance.distances
    p = sol.perm
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


def swap_delta_matrix(instance: Instance, perm: np.ndarray) -> np.ndarray:
    """Deltas for every location pair at once, shape (m, n, n).

    Entry [r, i, j] equals ``evaluate_delta(instance, sol, i, j)[r]``; built
    from two matrix products plus broadcast corrections for the k in {i, j}
    terms, so a whole neighborhood costs O(m*n^2) array work instead of
    n^2/2 separate O(m*n) calls.
    """
    d = instance.distances
    p = np.asarray(perm, dtype=np.int64)
    n = instance.n
    dd = np.diagonal(d)
    out = np.empty((instance.m, n, n), dtype=np.int64)
    for r, f in enumerate(instance.flows):
        fp = f[p][:, p]
        fd = np.diagonal(fp)
        a = d.T @ fp
        b = d @ fp.T
        ad = np.diagonal(a)
        bd = np.diagonal(b)
        t0 = (dd[:, None] - dd[None, :]) * (fd[None, :] - fd[:, None])
        t1 = (d - d.T) * (fp.T - fp)
        sum_col = a + a.T - ad[:, None] - ad[None, :]
        sum_row = b + b.T - bd[:, None] - bd[None, :]
        # k = i and k = j contributions included in the products above.
        g_i = (dd[:, None] - d) * (fp - fd[:, None])
        g_j = (d.T - dd[None, :]) * (fd[None, :] - fp.T)
        h_i = (dd[:, None] - d.T) * (fp.T - fd[:, None])
        h_j = (d - dd[None, :]) * (fd[None, :] - fp)
        out[r] = t0 + t1 + sum_col + sum_row - g_i - g_j - h_i - h_j
    return out


def apply_swap(sol: Solution, i: int, j: int, delta: ObjectiveVector) -> Solution:
    """Build the neighbor solution for a swap whose delta is already known."""
    perm = sol.perm.copy()
    perm[i], perm[j] = perm[j], perm[i]
    objectives = tuple(o + d for o, d in zip(sol.objectives, delta))
    return Solution(perm=perm, objectives=objectives)
