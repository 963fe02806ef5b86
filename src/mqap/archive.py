"""Bounded archive of mutually non-dominated solutions.

Each island owns one archive for the whole run; ``island.archive_merge``
joins a fleet's archives at the end.  Inserts keep mutual non-dominance
and reject permutation duplicates; when the archive outgrows its capacity
the least crowded members are evicted first.

``insert_one`` is the reference: one candidate at a time, scalar dominance
tests.  ``insert`` takes a batch and leaves the archive exactly as
``insert_one`` on each candidate in turn would, with the same members in
the same order.  Batches of fewer than ``_BATCH_PAIRS`` member-candidate
pairs go through ``insert_one``; larger ones are decided with numpy
arrays while they fit in the free room, and through ``insert_one`` from
the point the archive is full, because an eviction can readmit what the
evicted member dominated.  A permutation's objectives must be a function
of it, as they are wherever solutions are evaluated.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .evaluation import Solution
from .ranking import dominates, front_crowding, non_dominated_mask, weakly_dominates

# Below this many member-candidate pairs insert_one beats numpy's fixed cost
# of about 100 us per batch.
_BATCH_PAIRS = 1000


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
        """Insert the candidates in order, as ``insert_one`` on each would."""
        candidates = list(candidates)
        self.offered += len(candidates)
        done = 0
        if len(self.members) * len(candidates) >= _BATCH_PAIRS:
            done = self._insert_while_room(candidates)
        for candidate in candidates[done:]:
            self.insert_one(candidate)

    def _insert_while_room(self, candidates: list[Solution]) -> int:
        """Decide candidates with arrays until the archive is full; return how many were decided.

        While nothing is evicted, dominance is transitive: ``insert_one``
        rejects exactly the candidates that share a permutation with a
        member or an earlier candidate, or that a member or another
        candidate dominates, and a member leaves exactly when a candidate
        dominates it.  Candidates are therefore filtered against the
        members once, then admitted in chunks that fit in the free room,
        each by one non-dominated mask over members and chunk.
        """
        if len(self.members) >= self.capacity:
            return 0
        seen = set(self._perm_keys)
        fresh = []  # indices of the candidates whose permutation is new
        for i, candidate in enumerate(candidates):
            key = candidate.perm_key()
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if not fresh:
            return len(candidates)
        m = len(candidates[fresh[0]].objectives)
        objs = self.objectives().reshape(-1, m)
        fresh_objs = np.array([candidates[i].objectives for i in fresh], dtype=np.int64)
        # Members never dominate one another, so none dominates a candidate
        # equal to a member; any other candidate that a member weakly
        # dominates, it strictly dominates.
        member_vectors = {member.objectives for member in self.members}
        alive = ~weakly_dominates(objs, fresh_objs).any(axis=0)
        alive |= [candidates[i].objectives in member_vectors for i in fresh]
        fresh = list(itertools.compress(fresh, alive))
        fresh_objs = fresh_objs[alive]

        start = 0
        while start < len(fresh):
            room = self.capacity - len(self.members)
            if room == 0:  # from here on, insert_one may evict
                return fresh[start - 1] + 1
            stop = min(start + room, len(fresh))
            pooled = np.concatenate((objs, fresh_objs[start:stop]))
            keep = non_dominated_mask(pooled)
            size = len(self.members)
            for member in itertools.compress(self.members, ~keep[:size]):
                self._perm_keys.discard(member.perm_key())
            kept = [candidates[i] for i in itertools.compress(fresh[start:stop], keep[size:])]
            self._perm_keys.update(sol.perm_key() for sol in kept)
            self.members = list(itertools.compress(self.members, keep[:size])) + kept
            objs = pooled[keep]
            start = stop
        return len(candidates)

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
        crowding = front_crowding(self.objectives())
        evicted = self.members.pop(int(np.argmin(crowding)))
        self._perm_keys.discard(evicted.perm_key())
        self.evicted += 1
        if self.evictions is not None:
            self.evictions.append(evicted)
