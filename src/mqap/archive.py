"""Bounded archive of mutually non-dominated solutions.

Each island owns one archive for the whole run.  Inserts keep mutual
non-dominance and reject permutation duplicates; when the archive outgrows
its capacity the least crowded members are evicted first.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .evaluation import Solution
from .ranking import dominates, front_crowding


class Archive:
    def __init__(self, capacity: int = 100, track_evictions: bool = False):
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        self.capacity = capacity
        self.members: list[Solution] = []
        self._perm_keys: set[bytes] = set()
        # Eviction log is opt-in; stress tests use it to audit truncation.
        self.evictions: list[Solution] | None = [] if track_evictions else None

    def __len__(self) -> int:
        return len(self.members)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Members as (A, n) int64 permutations and (A, m) int64 objectives."""
        perms = np.array([m.perm for m in self.members], dtype=np.int64)
        return perms, np.array([m.objectives for m in self.members], dtype=np.int64)

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
        for candidate in candidates:
            self.insert_one(candidate)

    def insert_one(self, candidate: Solution) -> bool:
        """Insert one candidate; returns True if it joined the archive."""
        key = candidate.perm_key()
        if key in self._perm_keys:
            return False
        obj = candidate.objectives
        for member in self.members:
            if dominates(member.objectives, obj):
                return False

        survivors = []
        for member in self.members:
            if dominates(obj, member.objectives):
                self._perm_keys.discard(member.perm_key())
            else:
                survivors.append(member)
        survivors.append(candidate)
        self._perm_keys.add(key)
        self.members = survivors
        while len(self.members) > self.capacity:
            self._evict_most_crowded()
        return True

    def _evict_most_crowded(self) -> None:
        # Members form a single front, so crowding is computed directly.
        crowding = front_crowding(np.array([m.objectives for m in self.members]))
        evicted = self.members.pop(int(np.argmin(crowding)))
        self._perm_keys.discard(evicted.perm_key())
        if self.evictions is not None:
            self.evictions.append(evicted)


def archive_merge(archives: Sequence[Archive]) -> list[Solution]:
    """Union of archives filtered to the global non-dominated, de-duplicated set."""
    merged = Archive(capacity=max(1, sum(len(archive) for archive in archives)))
    for archive in archives:
        merged.insert(archive.members)
    return merged.members
