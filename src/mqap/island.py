"""The island generation loop and the asynchronous migration fabric.

Each island is a sequential generation loop owning its population, archive
and RNG.  Islands never share mutable state: every island has one unbounded
inbox queue that all its neighbours put migrant batches on.  Sends are
buffered copies and an island drains whatever its inbox holds without ever
blocking, so a stalled island cannot hold up its neighbours.

A fleet runs in processes: island 0 in the calling process and every other
island in a child forked from it (Linux ``fork``), with one
``multiprocessing`` queue as each island's inbox.  A child sends its
archive back as arrays.  A lone island runs inline and forks nothing.
"""

from __future__ import annotations

import itertools
import math
import queue
import time
import traceback
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .archive import Archive
from .evaluation import Solution, make_solutions, random_solutions
from .genetics import Rng, cycle_crossover, random_swap, swap_mutation, tournament_select
from .instance import Instance
from .localsearch import dominance_based_local_search
from .ranking import (
    Fitness,
    elitist_integration,
    front_crowding,
    non_dominated_mask,
    rank_and_crowd,
)

MEMETIC = "memetic"
NSGA2 = "nsga2"


@dataclass(kw_only=True)
class IslandConfig:
    """Settings every island of a fleet shares, named as in ``mqap run``; islands differ by seed."""

    algorithm: str = MEMETIC
    population: int = 20
    generations: int = 100
    time_budget: float | None = None  # seconds; None, 0 or less: no budget
    epoch: int = 5
    migrants: int = 2
    pb_c: float = 0.9
    pb_m: float = 0.01
    ls_secs: float = 5.0
    archive_capacity: int = 100
    tournament_k: int = 2

    def __post_init__(self):
        for name, low in (
            ("population", 2),
            ("generations", 0),
            ("epoch", 1),
            ("migrants", 1),
            ("archive_capacity", 1),
            ("tournament_k", 1),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.migrants > self.archive_capacity:
            raise ValueError(
                f"migrants ({self.migrants}) may not exceed archive_capacity ({self.archive_capacity})"
            )
        for name in ("pb_c", "pb_m"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not self.ls_secs > 0:  # NaN too: it would switch local search off
            raise ValueError(f"ls_secs must be positive, got {self.ls_secs}")
        if self.time_budget is not None:
            if math.isnan(self.time_budget):  # no clock reading is >= NaN
                raise ValueError("time_budget_secs must be a number, got nan")
            if self.time_budget <= 0:
                self.time_budget = None
        if self.algorithm not in (MEMETIC, NSGA2):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


class Inbox(Protocol):
    """An island's migrant queue: a ``queue.SimpleQueue`` or a ``multiprocessing`` queue."""

    def put(self, batch: list[Solution]) -> None: ...

    def get_nowait(self) -> list[Solution]: ...  # raises queue.Empty


class IslandError(RuntimeError):
    """An island of a fleet failed; the message names the island."""


def check_migrants(inbox: Inbox) -> list[Solution]:
    """Drain every batch queued on ``inbox`` without blocking."""
    migrants: list[Solution] = []
    while True:
        try:
            migrants.extend(inbox.get_nowait())
        except queue.Empty:
            return migrants


def send_migrants(neighbours: Sequence[Inbox], solutions: list[Solution]) -> int:
    """Put fresh copies of ``solutions`` on every neighbour's inbox; return the count sent."""
    for inbox in neighbours:
        inbox.put([s.copy() for s in solutions])
    return len(solutions) * len(neighbours)


@dataclass
class IslandStats:
    island_id: int
    generations: int = 0
    migrants_sent: int = 0
    migrants_received: int = 0
    send_events: int = 0
    archive_candidates: int = 0  # solutions offered to the archive
    archive_evictions: int = 0
    wall_time: float = 0.0


@dataclass
class IslandResult:
    archive: Archive
    stats: IslandStats


def _make_offspring(
    instance: Instance,
    population: list[Solution],
    fitness: list[Fitness],
    config: IslandConfig,
    rng: Rng,
) -> list[Solution]:
    """One generation of variation: tournament parents, crossover, mutation.

    Children that merely clone a parent are kicked one swap away, and
    duplicate children are redrawn (within an attempt bound), so the batch
    spends its evaluations on distinct candidates.  Without this the loop
    saturates with copies at small instance sizes and recombination stalls.
    The kept children are evaluated together in one batch.
    """
    children: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    max_attempts = 3 * config.population
    while len(children) < config.population:
        attempts += 1
        p1 = tournament_select(population, config.tournament_k, fitness, rng)
        p2 = tournament_select(population, config.tournament_k, fitness, rng)
        for _ in range(5):
            if p2 is not p1:
                break
            p2 = tournament_select(population, config.tournament_k, fitness, rng)
        if rng.random() < config.pb_c:
            c1, c2 = cycle_crossover(p1.perm, p2.perm)
        else:
            c1, c2 = p1.perm.copy(), p2.perm.copy()
        parent_keys = (p1.perm_key(), p2.perm_key())
        for child in (c1, c2):
            child = swap_mutation(child, config.pb_m, rng)
            key = child.tobytes()
            if key in parent_keys:
                child = random_swap(child, rng)
                key = child.tobytes()
            if key in seen and attempts < max_attempts:
                continue
            seen.add(key)
            children.append(child)
    return make_solutions(instance, children[: config.population])


def _distinct_permutations(solutions: list[Solution]) -> list[Solution]:
    seen: set[bytes] = set()
    out = []
    for sol in solutions:
        key = sol.perm_key()
        if key not in seen:
            seen.add(key)
            out.append(sol)
    return out


def archive_merge(archives: Sequence[Archive]) -> list[Solution]:
    """The non-dominated members of all archives, each permutation once, in first-occurrence order.

    Members with equal objective vectors but distinct permutations all stay.
    """
    pool = _distinct_permutations([sol for archive in archives for sol in archive.members])
    objectives = np.array([sol.objectives for sol in pool], dtype=np.int64)
    return list(itertools.compress(pool, non_dominated_mask(objectives)))


def _select_migrants(archive: Archive, config: IslandConfig, rng: Rng) -> list[Solution]:
    """Tournament over the archive members, ranked among themselves.

    Members are mutually non-dominated, so all share rank 0 and the keys
    are ``rank_and_crowd``'s without its ranking.
    """
    fitness = [(0, -c) for c in front_crowding(archive.objectives()).tolist()]
    return [
        tournament_select(archive.members, config.tournament_k, fitness, rng)
        for _ in range(config.migrants)
    ]


def run_island(
    config: IslandConfig,
    instance: Instance,
    seed: int,
    island_id: int = 0,
    inboxes: Sequence[Inbox] = (),
) -> IslandResult:
    """Generation loop of one island, memetic or NSGA-II.

    Per generation: breed offspring into the archive, improve them into a
    survival pool, drain migrants into the archive, ship tournament-selected
    migrants every ``epoch`` generations, then keep the fitness-best
    ``population`` of pool plus migrants and refill with random
    solutions.  The population's fitness keys travel with it into the next
    tournament; a refill re-ranks the whole population.  The algorithms
    differ only in the improvement step: the memetic island runs the local
    search over the archive plus the offspring and archives its working set
    as the pool; the NSGA-II island pools population and offspring
    unchanged ((mu+lambda) survival).

    ``inboxes`` holds one queue per island of the fleet, indexed by island
    id; the island drains its own and sends to all others.  Without
    inboxes the island runs alone and draws no migrant tournament.
    """
    inbox = inboxes[island_id] if inboxes else queue.SimpleQueue()
    neighbours = [q for q in inboxes if q is not inbox]
    rng = Rng(seed)
    stats = IslandStats(island_id=island_id)
    start = time.monotonic()
    archive = Archive(capacity=config.archive_capacity)

    population = random_solutions(instance, rng, config.population)
    archive.insert(population)
    fitness = rank_and_crowd(population)

    generation = 1
    while generation <= config.generations:
        if config.time_budget is not None and time.monotonic() - start >= config.time_budget:
            break
        offspring = _make_offspring(instance, population, fitness, config, rng)
        archive.insert(offspring)
        if config.algorithm == MEMETIC:
            improved = dominance_based_local_search(
                archive, config.ls_secs, instance, rng, extra=offspring
            )
            pool = _distinct_permutations(improved)
            archive.insert(pool)
        else:
            pool = _distinct_permutations(population + offspring)

        migrants = check_migrants(inbox)
        stats.migrants_received += len(migrants)
        archive.insert(migrants)

        if neighbours and generation % config.epoch == 0:
            selected = _select_migrants(archive, config, rng)
            stats.migrants_sent += send_migrants(neighbours, selected)
            stats.send_events += 1

        population, fitness = elitist_integration(pool, migrants, config.population)
        refill = config.population - len(population)
        if refill:
            fresh = random_solutions(instance, rng, refill)
            archive.insert(fresh)
            population.extend(fresh)
            fitness = rank_and_crowd(population)
        stats.generations = generation
        generation += 1

    stats.archive_candidates = archive.offered
    stats.archive_evictions = archive.evicted
    stats.wall_time = time.monotonic() - start
    return IslandResult(archive=archive, stats=stats)


@dataclass
class FleetResult:
    front: list[Solution]
    islands: list[IslandResult]
    wall_time: float


def run_fleet(instance: Instance, config: IslandConfig, seeds: Sequence[int]) -> FleetResult:
    """Run one island per seed on the complete migration graph, join, and merge archives.

    Island ``i`` runs ``seeds[i]``.  A lone island runs inline.  In a larger
    fleet island 0 runs in this process and every other island in one
    forked child, all at once; an island that fails raises ``IslandError``
    naming it, after every child has been stopped.  ``islands`` lists the
    results in island-id order.
    """
    start = time.monotonic()
    if not seeds:
        raise ValueError("a fleet needs at least one island seed")
    if len(seeds) == 1:
        results = [run_island(config, instance, seeds[0])]
    else:
        results = _run_forked(instance, config, seeds)
    front = archive_merge([r.archive for r in results])
    return FleetResult(front=front, islands=results, wall_time=time.monotonic() - start)


def _run_forked(
    instance: Instance, config: IslandConfig, seeds: Sequence[int]
) -> list[IslandResult]:
    import multiprocessing  # only fleets pay for its import

    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in seeds]
    children = []
    try:
        for island_id, seed in enumerate(seeds[1:], start=1):
            here, there = ctx.Pipe()
            args = (config, instance, seed, island_id, inboxes, there, here)
            child = ctx.Process(target=_island_child, args=args, daemon=True)
            child.start()
            there.close()  # so a child that dies unheard gives EOFError, not a hang
            children.append((island_id, child, here))
        try:
            results = [run_island(config, instance, seeds[0], 0, inboxes)]
        except Exception as exc:
            raise IslandError(f"island 0 failed: {exc!r}") from exc
        results += [_receive(config, island_id, child, conn) for island_id, child, conn in children]
        # Every island is done and every child still alive: read away the
        # batches nobody drained, so that every queue feeder thread, here
        # and in the children, can flush and exit, then release the children.
        for inbox in inboxes:
            _discard_unread(inbox)
        for _, _, conn in children:
            conn.send(None)
    except BaseException:
        # A killed child can die holding a queue's write lock; a feeder
        # thread here that then waits on it stays blocked, but never joined.
        for _, child, _ in children:
            child.terminate()
        raise
    finally:
        for _, child, conn in children:
            child.join()
            # With fleets on several threads, another thread's Process.start may have
            # reaped the child and not yet stored its exit code; close() would then raise.
            if child.exitcode is not None:
                child.close()
            conn.close()
        for inbox in inboxes:
            inbox.cancel_join_thread()
            inbox.close()
    return results


def _island_child(config, instance, seed, island_id, inboxes, conn, callers_end) -> None:
    """A forked island: send back its archive arrays and stats, or its traceback.

    The child then waits for the caller's word to exit, so that its queue
    feeder threads can finish writing while the caller drains the inboxes.
    If the caller dies, the wait ends with EOF: the child closes its copy of
    the caller's end, and a sibling forked later drops its copy on exit.
    """
    callers_end.close()
    for inbox in inboxes:
        inbox.cancel_join_thread()  # an orphan must not wait on pipes nobody reads
    try:
        result = run_island(config, instance, seed, island_id, inboxes)
        message = (*result.archive.to_arrays(), result.stats)
    except Exception:
        message = traceback.format_exc()
    try:
        conn.send(message)
        conn.recv()
    except (EOFError, OSError):
        pass  # the caller is gone


def _receive(config: IslandConfig, island_id: int, child, conn) -> IslandResult:
    try:
        message = conn.recv()
    except EOFError:
        child.join()
        raise IslandError(
            f"island {island_id} exited with code {child.exitcode} before sending its result"
        ) from None
    if isinstance(message, str):
        raise IslandError(f"island {island_id} failed:\n{message}")
    perms, objectives, stats = message
    return IslandResult(Archive.from_arrays(config.archive_capacity, perms, objectives), stats)


def _discard_unread(inbox) -> None:
    """Read every batch still counted on ``inbox``; its writers have all stopped putting.

    Each batch is counted from its ``put``, so one still in a feeder
    thread's buffer is waited for; a wait that long means a writer died.
    """
    while inbox.qsize() > 0:
        try:
            inbox.get(timeout=5.0)
        except queue.Empty:
            return
