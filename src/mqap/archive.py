"""Bounded archive of mutually non-dominated solutions.

Each island owns one archive for the whole run; ``island.archive_merge``
joins a fleet's archives at the end.  Inserts keep mutual non-dominance
and reject permutation duplicates; when the archive outgrows its capacity
the least crowded member is evicted.

``insert`` decides a batch exactly as inserting its candidates one at a
time would.  A candidate is rejected when its permutation is present or
a current member dominates it; otherwise the members it dominates leave,
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

from typing import Iterable

import numpy as np

from .evaluation import Solution
from .ranking import front_crowding, weakly_dominates


class Archive:
    def __init__(self, capacity: int = 100, track_evictions: bool = False):
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        self.capacity = capacity
        self.members: list[Solution] = []
        self._perm_keys: set[bytes] = set()
        # Work counters: candidates offered to insert, members evicted.
        self.offered = 0
        self.evicted = 0
        # Eviction log is opt-in; stress tests use it to audit truncation.
        self.evictions: list[Solution] | None = [] if track_evictions else None

    def __len__(self) -> int:
        return len(self.members)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Members as (A, n) int64 permutations and (A, m) int64 objectives."""
        perms = np.array([m.perm for m in self.members], dtype=np.int64)
        return perms, self.objectives()

    def objectives(self) -> np.ndarray:
        """Member objectives as an (A, m) int64 array, in member order."""
        return np.array([m.objectives for m in self.members], dtype=np.int64)

    @classmethod
    def from_arrays(cls, capacity: int, perms: np.ndarray, objectives: np.ndarray) -> "Archive":
        """Rebuild an archive from ``to_arrays`` output, in the same member order.

        The rows are taken as they are, without dominance checks: they must
        already be distinct and mutually non-dominated, as an archive's are.
        """
        archive = cls(capacity)
        archive.members = [
            Solution(perm=perm, objectives=tuple(obj))
            for perm, obj in zip(perms, objectives.tolist())
        ]
        archive._perm_keys = {member.perm_key() for member in archive.members}
        return archive

    def insert(self, candidates: Iterable[Solution]) -> None:
        """Insert the candidates in batch order, as one-at-a-time inserts would."""
        candidates = list(candidates)
        self.offered += len(candidates)
        if not candidates:
            return
        pool = self.members + candidates
        objs = np.array([sol.objectives for sol in pool], dtype=np.int64)
        size = len(self.members)
        # above[i, r]: pool row r <= candidate i; below[i, r]: candidate i <= pool row r.
        # The candidate block of ``below`` is a block of the first matrix.
        weak = weakly_dominates(objs, objs[size:])
        above = np.ascontiguousarray(weak.T)
        below = np.hstack((weakly_dominates(objs[size:], objs[:size]), weak[size:]))
        # Row i of each packed matrix is one integer whose bit r is pool row r:
        # the rows that strictly dominate candidate i, and the rows it strictly dominates.
        width = (len(pool) + 7) // 8
        beaten_by = np.packbits(above & ~below, axis=1, bitorder="little").tobytes()
        beats = np.packbits(below & ~above, axis=1, bitorder="little").tobytes()
        current = (1 << size) - 1  # the pool rows that are members right now
        for i, candidate in enumerate(candidates):
            row = slice(i * width, (i + 1) * width)
            if int.from_bytes(beaten_by[row], "little") & current:
                continue
            key = candidate.perm_key()
            if key in self._perm_keys:
                continue
            gone = int.from_bytes(beats[row], "little") & current
            current ^= gone
            while gone:
                low = gone & -gone
                self._perm_keys.discard(pool[low.bit_length() - 1].perm_key())
                gone ^= low
            current |= 1 << (size + i)
            self._perm_keys.add(key)
            if current.bit_count() > self.capacity:
                rows = _rows(current, width)
                evicted = int(rows[np.argmin(front_crowding(objs[rows]))])
                current ^= 1 << evicted
                self._perm_keys.discard(pool[evicted].perm_key())
                self.evicted += 1
                if self.evictions is not None:
                    self.evictions.append(pool[evicted])
        self.members = [pool[r] for r in _rows(current, width).tolist()]


def _rows(mask: int, width: int) -> np.ndarray:
    """The positions of the set bits of ``mask``, ascending; ``width`` bytes hold them all."""
    bits = np.frombuffer(mask.to_bytes(width, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(bits, bitorder="little"))
