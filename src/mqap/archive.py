"""Bounded archive of mutually non-dominated solutions.

Each island owns one archive for the whole run; ``island.archive_merge``
joins a fleet's archives at the end.  The members are rows: ``perms`` is
an (A, n) int64 array and ``objs`` the (A, m) int64 array of their costs,
in member order.  Inserts keep mutual non-dominance and reject permutation
duplicates; when the archive outgrows its capacity the least crowded
member is evicted.

``insert`` decides a batch exactly as inserting its rows one at a time
would.  A candidate is rejected when its permutation is present or a
current member dominates it; otherwise the members it dominates leave,
it joins at the end, and if the archive is then over capacity the member
of least crowding is evicted.  So a candidate's fate depends only on the
members present when it arrives.  One pair of dominance matrices over
members plus candidates gives, for each candidate, the rows that dominate
it and the rows it dominates; a walk in batch order keeps the set of rows
that are members right now, evictions included, and tests each candidate
against that set.  A permutation's objectives must be a function of it,
as they are wherever solutions are evaluated.
"""

from __future__ import annotations

import numpy as np

from .ranking import front_crowding, weakly_dominates


class Archive:
    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        self.capacity = capacity
        # Members as rows; both arrays take their widths from the first insert.
        self.perms = np.empty((0, 0), dtype=np.int64)
        self.objs = np.empty((0, 0), dtype=np.int64)
        self._keys: set[bytes] = set()
        # Work counters: candidates offered to insert, members evicted.
        self.offered = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self.perms)

    def insert(self, perms, objs) -> np.ndarray:
        """Insert the rows in batch order, as one-at-a-time inserts would.

        Returns a bool mask over the batch: the rows that are members when
        the call returns.
        """
        perms = np.asarray(perms, dtype=np.int64)
        objs = np.asarray(objs, dtype=np.int64)
        count = len(perms)
        self.offered += count
        if not count:
            return np.zeros(0, dtype=bool)
        size = len(self)
        if size:
            perms = np.concatenate((self.perms, perms))
            objs = np.concatenate((self.objs, objs))
        # above[i, r]: pool row r <= candidate i; below[i, r]: candidate i <= pool row r.
        # The candidate block of ``below`` is a block of the first matrix.
        weak = weakly_dominates(objs, objs[size:])
        above = np.ascontiguousarray(weak.T)
        below = np.hstack((weakly_dominates(objs[size:], objs[:size]), weak[size:]))
        # Row i of each packed matrix is one integer whose bit r is pool row r:
        # the rows that strictly dominate candidate i, and the rows it strictly dominates.
        width = (len(perms) + 7) // 8
        beaten_by = np.packbits(above & ~below, axis=1, bitorder="little").tobytes()
        beats = np.packbits(below & ~above, axis=1, bitorder="little").tobytes()
        current = (1 << size) - 1  # the pool rows that are members right now
        for i in range(count):
            row = slice(i * width, (i + 1) * width)
            if int.from_bytes(beaten_by[row], "little") & current:
                continue
            key = perms[size + i].tobytes()
            if key in self._keys:
                continue
            gone = int.from_bytes(beats[row], "little") & current
            current ^= gone
            while gone:
                low = gone & -gone
                self._keys.discard(perms[low.bit_length() - 1].tobytes())
                gone ^= low
            current |= 1 << (size + i)
            self._keys.add(key)
            if current.bit_count() > self.capacity:
                rows = _rows(current, width)
                evicted = int(rows[np.argmin(front_crowding(objs[rows]))])
                current ^= 1 << evicted
                self._keys.discard(perms[evicted].tobytes())
                self.evicted += 1
        rows = _rows(current, width)
        self.perms, self.objs = perms[rows], objs[rows]
        joined = np.zeros(count, dtype=bool)
        joined[rows[rows >= size] - size] = True
        return joined


def _rows(mask: int, width: int) -> np.ndarray:
    """The positions of the set bits of ``mask``, ascending; ``width`` bytes hold them all."""
    bits = np.frombuffer(mask.to_bytes(width, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(bits, bitorder="little"))
