"""The island generation loop and the asynchronous migration fabric.

Each island is a sequential generation loop owning its population, archive
and RNG.  Islands never share mutable state: every island has one unbounded
inbox queue that all its neighbours put migrant batches on.  Sends are
buffered copies and an island drains whatever its inbox holds without ever
blocking, so a stalled island cannot hold up its neighbours.

Every solution is a row: the population, the offspring, the local
search's working set, each migrant batch and the fleet front are pairs of
a (P, n) int64 permutation array and a (P, m) int64 objective array.

A fleet runs in processes: island 0 in the calling process and every other
island in a child forked from it (Linux ``fork``), with one
``multiprocessing`` queue as each island's inbox.  A child ends with its
caller and sends its archive back as it stands, or its traceback.  A lone
island runs inline and forks nothing.
"""

from __future__ import annotations

import math
import os
import queue
import time
import traceback
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import MqapError
from .archive import Archive
from .evaluation import Rows, evaluate
from .genetics import (
    Rng, cycle_crossover, random_permutations, random_swap, swap_mutation, tournament_select
)
from .instance import Instance
from .localsearch import dominance_based_local_search
from .ranking import (
    Fitness, elitist_integration, front_crowding, non_dominated_mask, rank_and_crowd
)

MEMETIC = "memetic"
NSGA2 = "nsga2"


@dataclass(kw_only=True)
class IslandConfig:
    """Settings every island of a fleet shares; islands differ by seed.

    Each is the ``mqap run`` option of the same name, except ``pb_c``,
    ``pb_m`` and ``time_budget``: ``--pc``, ``--pm`` and ``--time-budget-secs``.
    """

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

    def __post_init__(self):
        for name, low in (
            ("population", 2),
            ("generations", 0),
            ("epoch", 1),
            ("migrants", 1),
            ("archive_capacity", 1),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.migrants > self.archive_capacity:
            raise ValueError(
                f"migrants ({self.migrants}) may not exceed archive_capacity ({self.archive_capacity})"
            )
        for name, value in (("pc", self.pb_c), ("pm", self.pb_m)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
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

    def put(self, batch: tuple[np.ndarray, np.ndarray]) -> None: ...

    def get_nowait(self) -> tuple[np.ndarray, np.ndarray]: ...  # raises queue.Empty


def check_migrants(inbox: Inbox, n: int, m: int) -> Rows:
    """Drain every batch queued on ``inbox`` without blocking, in queue order.

    ``n`` and ``m`` are the widths of the rows when the inbox is empty.
    """
    batches = [Rows(np.empty((0, n), dtype=np.int64), np.empty((0, m), dtype=np.int64))]
    while True:
        try:
            batches.append(Rows(*inbox.get_nowait()))
        except queue.Empty:
            return Rows.concat(*batches)


def send_migrants(neighbours: Sequence[Inbox], migrants: Rows) -> int:
    """Put fresh copies of the rows on every neighbour's inbox; return the count sent."""
    for inbox in neighbours:
        inbox.put((migrants.perms.copy(), migrants.objs.copy()))
    return len(migrants.perms) * len(neighbours)


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
    perms: np.ndarray,
    fitness: list[Fitness],
    config: IslandConfig,
    rng: Rng,
) -> Rows:
    """One generation of variation: tournament parents, crossover, mutation.

    Children that merely clone a parent are kicked one swap away, and
    duplicate children are redrawn (within an attempt bound), so the batch
    spends its evaluations on distinct candidates.  Without this the loop
    saturates with copies at small instance sizes and recombination stalls.
    The kept children are evaluated together in one batch.
    """
    # Breeding walks Python lists; the kept children become one array.
    rows = perms.tolist()
    children: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    max_attempts = 3 * config.population
    while len(children) < config.population:
        attempts += 1
        p1 = tournament_select(fitness, rng)
        p2 = tournament_select(fitness, rng)
        for _ in range(5):
            if p2 != p1:
                break
            p2 = tournament_select(fitness, rng)
        if rng.random() < config.pb_c:
            c1, c2 = cycle_crossover(rows[p1], rows[p2])
        else:
            c1, c2 = rows[p1], rows[p2]  # never mutated: a swap copies
        parent_keys = (tuple(rows[p1]), tuple(rows[p2]))
        for child in (c1, c2):
            child = swap_mutation(child, config.pb_m, rng)
            key = tuple(child)
            if key in parent_keys:
                child = random_swap(child, rng)
                key = tuple(child)
            if key in seen and attempts < max_attempts:
                continue
            seen.add(key)
            children.append(child)
    return evaluate(instance, np.array(children[: config.population], dtype=np.int64))


def _first_occurrences(rows: Rows) -> Rows:
    """The rows of each permutation's first occurrence, in row order."""
    # One opaque key per row: np.unique(axis=0) would cost about ten times more.
    perms = rows.perms
    keys = perms.view(np.dtype((np.void, perms.itemsize * perms.shape[1]))).ravel()
    return rows.take(np.sort(np.unique(keys, return_index=True)[1]))


def archive_merge(archives: Sequence[Archive]) -> Rows:
    """The non-dominated members of all archives, each permutation once, in first-occurrence order.

    Members with equal objective vectors but distinct permutations all stay.
    At least one archive must hold members.
    """
    pool = _first_occurrences(Rows.concat(*[Rows(a.perms, a.objs) for a in archives if len(a)]))
    return pool.take(non_dominated_mask(pool.objs))


def _select_migrants(archive: Archive, config: IslandConfig, rng: Rng) -> Rows:
    """Tournament over the archive members, ranked among themselves.

    Members are mutually non-dominated, so all share rank 0 and the keys
    are ``rank_and_crowd``'s without its ranking.
    """
    fitness = [(0, -c) for c in front_crowding(archive.objs).tolist()]
    rows = [tournament_select(fitness, rng) for _ in range(config.migrants)]
    return Rows(archive.perms[rows], archive.objs[rows])


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
    search over the archive plus the offspring the archive did not keep and
    archives its working set as the pool; the NSGA-II island pools
    population and offspring unchanged ((mu+lambda) survival).

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

    population = evaluate(instance, random_permutations(instance.n, config.population, rng))
    archive.insert(*population)
    fitness = rank_and_crowd(population.objs)

    generation = 1
    while generation <= config.generations:
        if config.time_budget is not None and time.monotonic() - start >= config.time_budget:
            break
        offspring = _make_offspring(instance, population.perms, fitness, config, rng)
        kept = archive.insert(*offspring)
        if config.algorithm == MEMETIC:
            working = Rows.concat(Rows(archive.perms, archive.objs), offspring.take(~kept))
            improved = dominance_based_local_search(working, config.ls_secs, instance, rng)
            pool = _first_occurrences(improved)
            # The pool starts with the archive's own members: offer only the rows after them.
            archive.insert(*pool.take(slice(len(archive), None)))
        else:
            pool = _first_occurrences(Rows.concat(population, offspring))

        migrants = check_migrants(inbox, instance.n, instance.m)
        stats.migrants_received += len(migrants.perms)
        archive.insert(*migrants)

        if neighbours and generation % config.epoch == 0:
            stats.migrants_sent += send_migrants(neighbours, _select_migrants(archive, config, rng))
            stats.send_events += 1

        union = Rows.concat(pool, migrants)
        survivors, fitness = elitist_integration(union.objs, config.population)
        population = union.take(survivors)
        refill = config.population - len(survivors)
        if refill:
            fresh = evaluate(instance, random_permutations(instance.n, refill, rng))
            archive.insert(*fresh)
            population = Rows.concat(population, fresh)
            fitness = rank_and_crowd(population.objs)
        stats.generations = generation
        generation += 1

    stats.archive_candidates = archive.offered
    stats.archive_evictions = archive.evicted
    stats.wall_time = time.monotonic() - start
    return IslandResult(archive=archive, stats=stats)


@dataclass
class FleetResult:
    front: Rows
    islands: list[IslandResult]
    wall_time: float


def run_fleet(instance: Instance, config: IslandConfig, seeds: Sequence[int]) -> FleetResult:
    """Run one island per seed on the complete migration graph, join, and merge archives.

    Island ``i`` runs ``seeds[i]``.  A lone island runs inline.  In a larger
    fleet island 0 runs in this process and every other island in one
    forked child, all at once.  Every child is stopped before a failure
    propagates: island 0's exception as itself, a child's as a
    ``RuntimeError`` naming its island and seed and holding its traceback,
    and a child that exits before it reports as an ``MqapError``.
    ``islands`` lists the results in island-id order.
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
    import ctypes  # noqa: F401  imported once here, not in each child's _end_with_caller
    import multiprocessing  # only fleets pay for these imports

    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in seeds]
    children = []
    try:
        for island_id, seed in enumerate(seeds[1:], start=1):
            here, there = ctx.Pipe(duplex=False)
            args = (config, instance, seed, island_id, inboxes, there, os.getpid())
            child = ctx.Process(target=_island_child, args=args, daemon=True)
            child.start()
            there.close()  # so a child that dies unheard gives EOFError, not a hang
            children.append((island_id, seed, child, here))
        results = [run_island(config, instance, seeds[0], 0, inboxes)]
        results += [_receive(*entry) for entry in children]
        # Every island is done: read away the batches nobody drained, so that
        # every queue feeder thread, here and in the exiting children, can flush.
        for inbox in inboxes:
            _discard_unread(inbox)
    except BaseException:
        # A killed child can die holding a queue's write lock; a feeder
        # thread here that then waits on it stays blocked, but never joined.
        for _, _, child, _ in children:
            child.terminate()
        raise
    finally:
        for _, _, child, conn in children:
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


def _end_with_caller(caller: int) -> None:
    """Make this forked process get SIGTERM when the thread that forked it ends.

    ``caller`` is the forking process's pid.  If it is no longer this
    process's parent, the caller died before the signal was set, and this
    process exits at once.  Trial workers and island children call this first.
    """
    import ctypes
    import signal

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG, Linux only
    if os.getppid() != caller:
        os._exit(1)  # the caller died before the signal was set


def _island_child(config, instance, seed, island_id, inboxes, conn, caller) -> None:
    """A forked island: send back its result (archive as it stands, and stats), or its traceback.

    The child ends with the caller.  At its exit, its queue feeder threads
    finish writing while the caller drains the inboxes.
    """
    _end_with_caller(caller)
    try:
        message = run_island(config, instance, seed, island_id, inboxes)
    except Exception:
        message = traceback.format_exc()
    conn.send(message)


def _receive(island_id: int, seed: int, child, conn) -> IslandResult:
    try:
        message = conn.recv()
    except EOFError:
        child.join()
        raise MqapError(
            f"island {island_id} exited with code {child.exitcode} before sending its result"
        ) from None
    if isinstance(message, str):
        raise RuntimeError(f"island {island_id} (seed {seed}) failed:\n{message.rstrip()}")
    return message


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
