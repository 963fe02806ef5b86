"""The island generation loop and the asynchronous migration fabric.

Each island is a sequential generation loop owning its population, archive
and RNG.  Islands never share mutable state: migration goes through
unbounded per-edge queues, sends are buffered copies and receives drain
whatever is queued without ever blocking, so a stalled island cannot hold
up its neighbors.
"""

from __future__ import annotations

import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .archive import Archive, archive_merge
from .evaluation import Solution, make_solution, random_solution
from .genetics import (
    Rng,
    VariationParams,
    cycle_crossover,
    random_swap,
    swap_mutation,
    tournament_select,
)
from .instance import Instance
from .localsearch import Clock, LocalSearchParams, dominance_based_local_search
from .ranking import Fitness, elitist_integration, rank_and_crowd

MEMETIC = "memetic"
NSGA2 = "nsga2"

THREAD_CAP_ENV = "MQAP_THREADS"


@dataclass(frozen=True)
class IslandConfig:
    island_id: int = 0
    population_size: int = 20
    epoch: int = 5
    migrants: int = 2
    g_max: int = 100
    variation: VariationParams = field(default_factory=VariationParams)
    ls_params: LocalSearchParams = field(default_factory=LocalSearchParams)
    algorithm: str = MEMETIC
    seed: int = 0
    time_budget: float | None = None
    archive_capacity: int = 100
    tournament_k: int = 2

    def __post_init__(self):
        if self.population_size < 2 or self.epoch < 1 or self.migrants < 1:
            raise ValueError("invalid island configuration")
        if self.migrants > self.archive_capacity:
            raise ValueError("migrants may not exceed archive capacity")
        if self.g_max < 0:
            raise ValueError("g_max must be >= 0")
        if self.algorithm not in (MEMETIC, NSGA2):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class MigrantBatch:
    sender: int
    solutions: list[Solution]
    generation: int


class Inbox:
    """Receiving end of all channels pointing at one island."""

    def __init__(self, island_id: int, senders: tuple[int, ...]):
        self.island_id = island_id
        self.queues: dict[int, queue.SimpleQueue] = {s: queue.SimpleQueue() for s in senders}

    def drain(self) -> list[MigrantBatch]:
        batches = []
        for q in self.queues.values():
            while True:
                try:
                    batches.append(q.get_nowait())
                except queue.Empty:
                    break
        return batches


class Outboxes:
    """Sending ends from one island to each of its neighbors."""

    def __init__(self, channels: dict[int, queue.SimpleQueue]):
        self.channels = channels

    def send(self, sender: int, solutions: list[Solution], generation: int) -> int:
        """Fan a batch out to every neighbor; each receives its own copies."""
        for q in self.channels.values():
            q.put(MigrantBatch(sender, [s.copy() for s in solutions], generation))
        return len(solutions) * len(self.channels)


def build_channels(island_count: int) -> tuple[dict[int, Inbox], dict[int, Outboxes]]:
    """One unbounded queue per directed edge of the complete graph, wrapped per island."""
    if island_count < 1:
        raise ValueError("need at least one island")
    ids = range(island_count)
    inboxes = {i: Inbox(i, tuple(s for s in ids if s != i)) for i in ids}
    outboxes = {i: Outboxes({j: inboxes[j].queues[i] for j in ids if j != i}) for i in ids}
    return inboxes, outboxes


def check_migrants(inbox: Inbox | None) -> list[Solution]:
    """Drain every queued batch without blocking."""
    if inbox is None:
        return []
    migrants: list[Solution] = []
    for batch in inbox.drain():
        migrants.extend(batch.solutions)
    return migrants


@dataclass
class IslandStats:
    island_id: int
    generations: int = 0
    migrants_sent: int = 0
    migrants_received: int = 0
    send_events: int = 0
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
    """
    params = config.variation
    offspring: list[Solution] = []
    seen: set[bytes] = set()
    attempts = 0
    max_attempts = 3 * config.population_size
    while len(offspring) < config.population_size:
        attempts += 1
        p1 = tournament_select(population, config.tournament_k, fitness, rng)
        p2 = tournament_select(population, config.tournament_k, fitness, rng)
        for _ in range(5):
            if p2 is not p1:
                break
            p2 = tournament_select(population, config.tournament_k, fitness, rng)
        if rng.random() < params.pb_c:
            c1, c2 = cycle_crossover(p1.perm, p2.perm)
        else:
            c1, c2 = p1.perm.copy(), p2.perm.copy()
        for child in (c1, c2):
            child = swap_mutation(child, params.pb_m, rng)
            if np.array_equal(child, p1.perm) or np.array_equal(child, p2.perm):
                child = random_swap(child, rng)
            key = child.tobytes()
            if key in seen and attempts < max_attempts:
                continue
            seen.add(key)
            offspring.append(make_solution(instance, child))
    return offspring[: config.population_size]


def _distinct_permutations(solutions: list[Solution]) -> list[Solution]:
    seen: set[bytes] = set()
    out = []
    for sol in solutions:
        key = sol.perm_key()
        if key not in seen:
            seen.add(key)
            out.append(sol)
    return out


def _select_migrants(archive: Archive, config: IslandConfig, rng: Rng) -> list[Solution]:
    """Tournament over the archive members, ranked among themselves."""
    fitness = rank_and_crowd(archive.members)
    return [
        tournament_select(archive.members, config.tournament_k, fitness, rng)
        for _ in range(config.migrants)
    ]


def run_island(
    config: IslandConfig,
    instance: Instance,
    inbox: Inbox | None = None,
    outboxes: Outboxes | None = None,
    clock: Clock = time.monotonic,
) -> IslandResult:
    """Generation loop of one island, memetic or NSGA-II.

    Per generation: breed offspring into the archive, improve them into a
    survival pool, drain migrants into the archive, ship tournament-selected
    migrants every ``epoch`` generations, then keep the fitness-best
    ``population_size`` of pool plus migrants and refill with random
    solutions.  The population's fitness keys travel with it into the next
    tournament; a refill re-ranks the whole population.  The algorithms
    differ only in the improvement step: the memetic island runs the local
    search over the archive plus the offspring and archives its working set
    as the pool; the NSGA-II island pools population and offspring
    unchanged ((mu+lambda) survival).
    """
    rng = Rng(config.seed)
    stats = IslandStats(island_id=config.island_id)
    start = clock()
    archive = Archive(capacity=config.archive_capacity)

    population = [random_solution(instance, rng) for _ in range(config.population_size)]
    archive.insert(population)
    fitness = rank_and_crowd(population)

    generation = 1
    while generation <= config.g_max:
        if config.time_budget is not None and clock() - start >= config.time_budget:
            break
        offspring = _make_offspring(instance, population, fitness, config, rng)
        archive.insert(offspring)
        if config.algorithm == MEMETIC:
            improved = dominance_based_local_search(
                archive, config.ls_params, instance, rng, clock, extra=offspring
            )
            pool = _distinct_permutations(improved)
            archive.insert(pool)
        else:
            pool = _distinct_permutations(population + offspring)

        migrants = check_migrants(inbox)
        stats.migrants_received += len(migrants)
        archive.insert(migrants)

        if outboxes is not None and generation % config.epoch == 0:
            selected = _select_migrants(archive, config, rng)
            stats.migrants_sent += outboxes.send(config.island_id, selected, generation)
            stats.send_events += 1

        population, fitness = elitist_integration(pool, migrants, config.population_size)
        refill = config.population_size - len(population)
        for _ in range(refill):
            fresh = random_solution(instance, rng)
            archive.insert_one(fresh)
            population.append(fresh)
        if refill:
            fitness = rank_and_crowd(population)
        stats.generations = generation
        generation += 1

    stats.wall_time = clock() - start
    return IslandResult(archive=archive, stats=stats)


@dataclass
class FleetResult:
    front: list[Solution]
    islands: list[IslandResult]
    wall_time: float


def thread_cap(default: int) -> int:
    raw = os.environ.get(THREAD_CAP_ENV, "")
    try:
        cap = int(raw)
    except ValueError:
        return default
    return max(1, min(cap, default)) if cap > 0 else default


def run_fleet(
    instance: Instance,
    configs: list[IslandConfig],
    clock: Clock = time.monotonic,
) -> FleetResult:
    """Run one fleet on the complete migration graph, join, and merge archives."""
    start = clock()
    inboxes, outboxes = build_channels(len(configs))
    if sorted(cfg.island_id for cfg in configs) != list(inboxes):
        raise ValueError("island ids must be 0..N-1")
    results: list[IslandResult]
    if len(configs) == 1:
        results = [run_island(configs[0], instance, None, None, clock)]
    else:
        with ThreadPoolExecutor(max_workers=thread_cap(len(configs))) as pool:
            futures = [
                pool.submit(
                    run_island,
                    cfg,
                    instance,
                    inboxes[cfg.island_id],
                    outboxes[cfg.island_id],
                    clock,
                )
                for cfg in configs
            ]
            results = [f.result() for f in futures]
    front = archive_merge([r.archive for r in results])
    return FleetResult(front=front, islands=results, wall_time=clock() - start)
