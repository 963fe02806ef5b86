"""Objective evaluation: full cost sums and whole-neighbourhood swap deltas.

Costs are exact 64-bit integers.  For a permutation ``perm`` mapping each
location to the facility placed there, with d = distances and
F = flows[r][perm][:, perm], the r-th cost is sum_ij d[i, j] * F[i, j].
Exchanging the facilities at locations i and j changes it by

    S[i, j] + S[j, i] - S[i, i] - S[j, j] + E[i, j] * G[i, j]

where S = d^T F + d F^T pairs location i's distances with the flows of the
facility at j over every k, and E[i, j] = d_ii + d_jj - d_ij - d_ji times
G[i, j] = F_ii + F_jj - F_ij - F_ji corrects the k in {i, j} terms exactly.
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
    return make_solution(instance, rng.sample(range(instance.n), instance.n))


def swap_delta_matrix(instance: Instance, perm: np.ndarray) -> np.ndarray:
    """Deltas for every location pair at once, shape (m, n, n).

    Entry [r, i, j] is the change of cost r when the facilities at locations
    i and j are exchanged: symmetric, with a zero diagonal.  S for all m
    objectives is one (n, 2n) @ (m, 2n, n) product of
    ``[d^T | d]`` and ``[F; F^T]`` in the dtype ``Instance.swap_operands``
    proved exact, cast straight back to int64.
    """
    ops = instance.swap_operands
    p = np.asarray(perm, dtype=np.int64)
    f = ops.flows.take(p, axis=1).take(p, axis=2)  # C-contiguous, unlike [:, p][:, :, p]
    stacked = np.concatenate((f, f.transpose(0, 2, 1)), axis=1, dtype=ops.d_cat.dtype)
    s = (ops.d_cat @ stacked).astype(np.int64, copy=False)
    sd = np.diagonal(s, axis1=1, axis2=2)
    fd = np.diagonal(f, axis1=1, axis2=2)
    # E and G are symmetric, so W + W^T is the closed form above.
    w = s - sd[:, :, None] + ops.e * (fd[:, :, None] - f)
    return w + w.transpose(0, 2, 1)


def apply_swap(sol: Solution, i: int, j: int, delta: ObjectiveVector) -> Solution:
    """Build the neighbor solution for a swap whose delta is already known."""
    perm = sol.perm.copy()
    perm[i], perm[j] = perm[j], perm[i]
    objectives = tuple(o + d for o, d in zip(sol.objectives, delta))
    return Solution(perm=perm, objectives=objectives)
