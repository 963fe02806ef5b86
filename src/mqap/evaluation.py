"""Objective evaluation: full cost sums and whole-neighbourhood swap deltas.

A solution is a row: a permutation in a (P, n) int64 array and its m costs
in the same row of a (P, m) int64 array, the pair held as ``Rows``.

Costs are exact 64-bit integers.  For a permutation ``perm`` mapping each
location to the facility placed there, with d = distances and
F = flows[r][perm][:, perm], the r-th cost is sum_ij d[i, j] * F[i, j].
Summed over facilities a, b instead, it is sum_ab d[inv[a], inv[b]] *
flows[r][a, b] with inv the inverse permutation, so a batch of P
permutations needs one gather of d per row and one (P, n^2) @ (n^2, m)
product for all m costs.
Exchanging the facilities at locations i and j changes it by

    S[i, j] + S[j, i] - S[i, i] - S[j, j] + E[i, j] * G[i, j]

where S = d^T F + d F^T pairs location i's distances with the flows of the
facility at j over every k, and E[i, j] = d_ii + d_jj - d_ij - d_ji times
G[i, j] = F_ii + F_jj - F_ij - F_ji corrects the k in {i, j} terms exactly.

Both kernels run in one dtype per instance, picked by
``instance.exact_dtype``: float32 when every value the kernel forms stays
below 2^24 in magnitude, float64 below 2^53, int64 otherwise.  Each holds
every integer up to its limit, so costs and deltas are exact integers in
all three.  ``evaluate_batch`` bounds its values by n^2 * max_d * max_f
(``Instance.flow_columns``), the swap kernel by 4(n+1) * max_d * max_f
(``Instance.swap_operands``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .instance import Instance


class Rows(NamedTuple):
    """A batch of solutions as rows: (P, n) int64 permutations, (P, m) int64 objectives."""

    perms: np.ndarray
    objs: np.ndarray

    def take(self, index) -> Rows:
        return Rows(self.perms[index], self.objs[index])

    @staticmethod
    def concat(*parts: Rows) -> Rows:
        perms, objs = zip(*parts)
        return Rows(np.concatenate(perms), np.concatenate(objs))


# Bytes of the int64 gather index per block of the batch product, the
# larger of the block's two buffers: about 18 rows at n = 30.
_GATHER_BYTES = 128 * 1024


def evaluate_batch(instance: Instance, perms) -> np.ndarray:
    """Objectives of every row of a (P, n) permutation array, shape (P, m) int64.

    Each row's inverse gathers the distances facility by facility, and one
    product with ``Instance.flow_columns`` sums all m costs.  Gather and
    product run in the instance's evaluation dtype, where every partial
    sum, a non-negative part of one cost, is exact, so the cast to int64
    is exact too.
    """
    n = instance.n
    if len(perms) == 0:
        return np.empty((0, instance.m), dtype=np.int64)
    perms = np.asarray(perms, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != n:
        raise ValueError(f"permutation length {perms.shape[1:]} does not match n={n}")
    # An entry outside 0..n-1 would wrap around or overrun the inverse.
    inv = np.full_like(perms, -1)
    if perms.min() >= 0 and perms.max() < n:
        np.put_along_axis(inv, perms, np.arange(n), axis=1)
    if inv.min() < 0:
        raise ValueError(f"rows must be permutations of 0..{n - 1}")
    flat_d = instance.flat_distances
    flows = instance.flow_columns
    out = np.empty((len(perms), instance.m), dtype=np.int64)
    rows = max(1, _GATHER_BYTES // (8 * n * n))
    for start in range(0, len(perms), rows):
        block = inv[start : start + rows]
        gathered = flat_d.take((block * n)[:, :, None] + block[:, None, :])
        out[start : start + rows] = gathered.reshape(len(block), n * n) @ flows
    return out


def evaluate(instance: Instance, perms) -> Rows:
    """The rows of a (P, n) permutation array with their objectives."""
    perms = np.asarray(perms, dtype=np.int64)
    return Rows(perms, evaluate_batch(instance, perms))


def swap_delta_matrix(instance: Instance, perm: np.ndarray) -> np.ndarray:
    """Deltas for every location pair at once, shape (m, n, n).

    Entry [r, i, j] is the change of cost r when the facilities at locations
    i and j are exchanged: symmetric, with a zero diagonal.  S for all m
    objectives is one (n, 2n) @ (m, 2n, n) product of ``[d^T | d]`` and
    ``[F; F^T]``.  The gather, the product and the closed form all run in
    the kernel dtype of ``Instance.swap_operands``, and the result comes
    back in it: exact integer values, stored as float32, float64 or int64.
    """
    ops = instance.swap_operands
    p = np.asarray(perm, dtype=np.int64)
    f = ops.flows.take(p, axis=1).take(p, axis=2)  # C-contiguous, unlike [:, p][:, :, p]
    stacked = np.concatenate((f, f.transpose(0, 2, 1)), axis=1)
    s = ops.d_cat @ stacked
    sd = np.diagonal(s, axis1=1, axis2=2)
    fd = np.diagonal(f, axis1=1, axis2=2)
    # E and G are symmetric, so W + W^T is the closed form above.
    w = s - sd[:, :, None] + ops.e * (fd[:, :, None] - f)
    return w + w.transpose(0, 2, 1)

