"""Span tracing of mqap's layers from outside the package.

``install`` rebinds the names that mqap's own callers look up (module
globals, a class attribute, the entries of ``mqap.island.ISLAND_LOOPS``)
to wrappers that open a span around the original call.  Each thread keeps
its own span stack, so islands running on pool threads never count as
children of the main thread's spans.  A span's self time is its duration
minus the time its direct children on the same thread covered.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


class Totals:
    """Per-thread accumulators: span calls, total and self seconds, counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def merge(self, other: "Totals") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.total, other.total),
            (self.self_time, other.self_time),
            (self.counters, other.counters),
        ):
            for key, value in theirs.items():
                mine[key] += value


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[Totals] = []
        # Probes whose counting hook no longer fits the program's results.
        self.broken: set[str] = set()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.totals = Totals()
            with self._lock:
                self._tables.append(state.totals)
        return state

    def enter(self, name: str) -> None:
        # A frame is [name, start, seconds covered by direct children].
        self._state().stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        state = self._state()
        name, start, covered = state.stack.pop()
        duration = self.clock() - start
        state.totals.calls[name] += 1
        state.totals.total[name] += duration
        state.totals.self_time[name] += duration - covered
        if state.stack:
            state.stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self._state().totals.counters[name] += amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._state().stack)

    def snapshot(self) -> Totals:
        merged = Totals()
        with self._lock:
            for table in self._tables:
                merged.merge(table)
        return merged


# Counting hooks run after the wrapped call: (tracer, result, args) -> None.
Hook = Callable[[Tracer, object, tuple], None]


def _count_points(counter: str) -> Hook:
    def hook(tracer, result, args):
        tracer.count(counter, sum(len(a) for a in args if isinstance(a, (list, tuple))))

    return hook


def _archive_admitted(tracer, result, args):
    tracer.count("archive.admitted", 1 if result else 0)


def _ls_outcome(tracer, result, args):
    # Local search runs to exhaustion only if it marked every solution visited.
    if any(not sol.visited for sol in result):
        tracer.count("localsearch.unfinished")


def _hv_points(tracer, result, args):
    tracer.count("metrics.hv_points", len(args[0]))


def _island_outcome(tracer, result, args):
    stats = result.stats
    tracer.count("island.generations", stats.generations)
    tracer.count("island.migrants_sent", stats.migrants_sent)
    tracer.count("island.migrants_received", stats.migrants_received)


@dataclass(frozen=True)
class Probe:
    """One entry point: where its name is looked up and how to record it.

    ``target`` is ``module:attr[.attr]`` or ``module:DICT[]`` for every entry
    of a dict.  ``span`` None records counts only.  ``skip_inside`` passes
    calls straight through while a span of that name is open on the thread
    (recursive helpers of an already measured call).
    """

    target: str
    span: str | None
    counter: str | None = None
    hook: Hook | None = None
    thread_cpu: bool = False
    skip_inside: str | None = None


PROBES = (
    Probe("mqap.runner:run_experiment", "runner.experiment"),
    Probe("mqap.runner:load_result_set", "runner.load"),
    Probe("mqap.runner:compare_result_sets", "runner.compare"),
    Probe("mqap.runner:write_front_file", "runner.front_io"),
    Probe("mqap.runner:read_front_file", "runner.front_io"),
    Probe("mqap.runner:run_fleet", "island.fleet"),
    Probe("mqap.island:ISLAND_LOOPS[]", "island", hook=_island_outcome, thread_cpu=True),
    Probe("mqap.island:check_migrants", "island.migration"),
    Probe("mqap.island:Outboxes.send", "island.migration"),
    Probe("mqap.island:archive_merge", "archive.merge"),
    Probe("mqap.archive:Archive.insert_one", "archive.insert", hook=_archive_admitted),
    Probe("mqap.island:rank_and_crowd", "ranking", hook=_count_points("ranking.points")),
    Probe("mqap.island:elitist_integration", "ranking", hook=_count_points("ranking.points")),
    Probe("mqap.island:cycle_crossover", "genetics", counter="genetics.crossovers"),
    Probe("mqap.island:swap_mutation", "genetics"),
    Probe("mqap.island:tournament_select", "genetics"),
    Probe("mqap.island:dominance_based_local_search", "localsearch", hook=_ls_outcome),
    Probe("mqap.localsearch:apply_swap", None, counter="localsearch.accepts"),
    Probe("mqap.localsearch:swap_delta_matrix", "evaluation.delta_scan"),
    Probe("mqap.evaluation:evaluate_full", "evaluation.full_eval"),
    Probe("mqap.metrics:hypervolume", "metrics.hv", hook=_hv_points),
    Probe("mqap.metrics:non_dominated", "metrics.nondominated", skip_inside="metrics.hv"),
    Probe("mqap.metrics:wilcoxon_rank_sum", "metrics.ranksum"),
)


def wrap(tracer: Tracer, probe: Probe, fn):
    """A stand-in for ``fn`` that records ``probe`` on ``tracer``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if probe.skip_inside and tracer.inside(probe.skip_inside):
            return fn(*args, **kwargs)
        if probe.counter:
            tracer.count(probe.counter)
        if probe.span is None:
            result = fn(*args, **kwargs)
        else:
            cpu = time.thread_time() if probe.thread_cpu else 0.0
            tracer.enter(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                if probe.thread_cpu:
                    tracer.count(probe.span + ".cpu_s", time.thread_time() - cpu)
        if probe.hook:
            try:
                probe.hook(tracer, result, args)
            except (AttributeError, TypeError, IndexError):
                tracer.broken.add(probe.target)
        return result

    return traced


@dataclass
class Installed:
    """Rebound names and the originals to put back; missing entry points."""

    restore: list[tuple[object, str, object, bool]] = field(default_factory=list)
    unmeasured: list[str] = field(default_factory=list)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self.restore):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.restore.clear()


def _resolve(target: str):
    """(owner, key, is_item) for each name a target covers."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, last = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if last.endswith("[]"):
        table = getattr(owner, last[:-2])
        return [(table, key, True) for key in list(table)]
    getattr(owner, last)  # AttributeError once the name is gone
    return [(owner, last, False)]


def install(tracer: Tracer, probes=PROBES) -> Installed:
    """Rebind every probe's name; a name that no longer exists is unmeasured."""
    installed = Installed()
    for probe in probes:
        try:
            slots = _resolve(probe.target)
        except (ImportError, AttributeError):
            installed.unmeasured.append(probe.target)
            continue
        for owner, key, is_item in slots:
            original = owner[key] if is_item else getattr(owner, key)
            stand_in = wrap(tracer, probe, original)
            if is_item:
                owner[key] = stand_in
            else:
                setattr(owner, key, stand_in)
            installed.restore.append((owner, key, original, is_item))
    return installed
