"""Experiment orchestration: trials, output files, enumeration, comparison.

A run produces one front file per trial plus a manifest; a comparison
pools result directories on the same instance into shared normalization
bounds and reports mean normalized hypervolume and rank-sum p-values.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import MqapError, __version__, metrics
from .evaluation import Rows, evaluate
from .instance import (
    Instance,
    InstanceFormatError,
    InstanceSpec,
    _int64_values,
    generate_uniform,
    load_instance,
    text_lines,
)
from .island import IslandConfig, IslandStats, _end_with_caller, run_fleet
from .ranking import non_dominated_mask

MANIFEST_NAME = "manifest.json"
ENUMERATION_LIMIT = 10
ENUMERATION_CHUNK = 20000  # permutations evaluated per batch
# island_seed's step between trials; a trial of more islands would reuse the next trial's seeds.
ISLAND_SEED_STRIDE = 1000
# Between a row's permutation and its objectives in the files front_text writes.
_BAR = " | "
_DIGITS = str.maketrans("", "", "0123456789")


def load_instance_checked(path) -> Instance:
    try:
        return load_instance(path)
    except (OSError, InstanceFormatError, UnicodeDecodeError) as exc:
        raise MqapError(f"cannot load {path}: {exc}") from exc


def default_population(island_count: int) -> int:
    """Split a 100-individual budget across islands, floored at 13 for large fleets."""
    if island_count > 11:
        return 13
    return math.ceil(100 / island_count)


def trial_seed(base_seed: int, trial_index: int) -> int:
    return base_seed + trial_index


def island_seed(trial_seed: int, island_id: int) -> int:
    return trial_seed * ISLAND_SEED_STRIDE + island_id


@dataclass(kw_only=True)
class ExperimentConfig(IslandConfig):
    """One ``mqap run``: the shared island settings plus the experiment around them."""

    instance_path: str | None = None
    gen_spec: InstanceSpec | None = None
    island_count: int = 1
    trials: int = 30
    base_seed: int = 1
    output_dir: str = "results"
    parallel_trials: int = 1
    time_budget: float | None = 300.0
    population: int | None = None  # None: default_population(island_count)

    def __post_init__(self):
        for name, value, low in (
            ("trials", self.trials, 1),
            ("islands", self.island_count, 1),
            ("parallel_trials", self.parallel_trials, 1),
            # random.Random seeds with abs(), so seed -s would replay seed s.
            ("seed", self.base_seed, 0),
        ):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.island_count > ISLAND_SEED_STRIDE:
            raise ValueError(f"islands must be <= {ISLAND_SEED_STRIDE}, got {self.island_count}")
        if (self.instance_path is None) == (self.gen_spec is None):
            raise ValueError("exactly one of --instance and --gen-spec is required")
        if self.population is None:
            self.population = default_population(self.island_count)
        super().__post_init__()

    def resolve_instance(self) -> Instance:
        if self.instance_path is not None:
            return load_instance_checked(self.instance_path)
        return generate_uniform(self.gen_spec)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    front_file: str
    front_size: int
    wall_time: float
    islands: list[IslandStats]


@dataclass
class RunResult:
    instance_name: str
    trials: list[TrialRecord] = field(default_factory=list)


def front_text(perms: np.ndarray, objs: np.ndarray, header: dict[str, str]) -> str:
    """A front file: ``! key=value`` header lines, then one ``perm | objectives`` row per solution.

    Rows go in ascending order of objectives, then permutation.
    """
    rows = sorted(zip(np.asarray(objs).tolist(), np.asarray(perms).tolist()))
    lines = [f"! {key}={value}" for key, value in header.items()]
    lines.extend(
        " ".join(str(v) for v in perm) + _BAR + " ".join(str(v) for v in obj)
        for obj, perm in rows
    )
    return "\n".join(lines) + "\n"


def write_front_file(path, perms: np.ndarray, objs: np.ndarray, header: dict[str, str]) -> None:
    try:
        Path(path).write_text(front_text(perms, objs, header), encoding="utf-8")
    except OSError as exc:
        raise MqapError(f"cannot write {path}: {exc}") from exc


def read_front_file(path) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """Returns (header metadata, (k, n) int64 permutations, (k, m) int64 objectives).

    Lines follow ``instance.text_lines``' rule.  Every row must hold as
    many permutation entries and as many objectives as the first row.  A
    file without rows gives two (0, 0) arrays.  A file in the layout
    ``front_text`` writes is converted in one call; any other file goes
    through the per-line reader, which names the line of an error.
    """
    text = Path(path).read_text(encoding="utf-8")
    return _read_canonical(text) or _read_per_line(text)


def _read_canonical(text: str) -> tuple[dict[str, str], np.ndarray, np.ndarray] | None:
    """The arrays of a file in ``front_text``'s layout, or None for any other file.

    The layout: ``!`` header lines, then k rows of n unsigned tokens, `` | ``,
    m unsigned tokens and ``\\n``, with n and m taken from the first row.
    Without its digits the body must be k copies of the row skeleton.
    """
    start = 0
    while text.startswith("!", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    header, data, _ = text_lines(text[:start])
    if data:
        return None  # a row after a line break other than \n in a header line
    body = text[start:]
    if not body:
        return header, np.empty((0, 0), dtype=np.int64), np.empty((0, 0), dtype=np.int64)
    perm, bar, objs = body[: body.find("\n")].partition(_BAR)
    if not bar:
        return None
    n, m, k = perm.count(" ") + 1, objs.count(" ") + 1, body.count("\n")
    if body.translate(_DIGITS) != (" " * (n - 1) + _BAR + " " * (m - 1) + "\n") * k:
        return None
    try:
        values = _int64_values(body.replace(_BAR, " "))
    except InstanceFormatError:
        return None  # a value beyond int64 or a bar inside a token: the per-line reader decides
    if len(values) != k * (n + m):
        return None  # an empty token
    rows = values.reshape(k, n + m)
    return header, rows[:, :n], rows[:, n:]


def _read_per_line(text: str) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """Any front file, parsed line by line: blank lines and comments are skipped."""
    header, lines, numbers = text_lines(text)
    if not lines:
        return header, np.empty((0, 0), dtype=np.int64), np.empty((0, 0), dtype=np.int64)
    rows = [line.partition("|") for line in lines]
    perms = [row[0].split() for row in rows]
    objectives = [row[2].split() for row in rows]
    for number, perm, objs in zip(numbers, perms, objectives):
        if not objs:
            raise InstanceFormatError(f"line {number} holds no objectives")
        if len(objs) != len(objectives[0]):
            raise InstanceFormatError(
                f"line {number} holds {len(objs)} objectives, the first row {len(objectives[0])}"
            )
        if len(perm) != len(perms[0]):
            raise InstanceFormatError(
                f"line {number} holds a permutation of {len(perm)}, the first row {len(perms[0])}"
            )
    texts = [" ".join(perm + objs) for perm, objs in zip(perms, objectives)]
    try:
        values = _int64_values(" ".join(texts))
    except InstanceFormatError:
        # Convert row by row to find the line that fails.
        for number, row in zip(numbers, texts):
            try:
                _int64_values(row)
            except InstanceFormatError as exc:
                raise InstanceFormatError(f"line {number}: {exc}") from exc
        raise
    n = len(perms[0])
    values = values.reshape(len(lines), -1)
    return header, values[:, :n], values[:, n:]


def _run_trial(instance, config, out_dir, instance_name, index) -> TrialRecord:
    seed = trial_seed(config.base_seed, index)
    seeds = [island_seed(seed, i) for i in range(config.island_count)]
    try:
        fleet = run_fleet(instance, config, seeds)
    except MqapError as exc:
        raise MqapError(f"trial {index} (seed {seed}): {exc}") from exc
    name = f"trial_{index:04d}.front"
    write_front_file(
        out_dir / name,
        *fleet.front,
        {
            "instance": instance_name,
            "algorithm": config.algorithm,
            "islands": str(config.island_count),
            "seed": str(seed),
        },
    )
    return TrialRecord(
        trial=index,
        seed=seed,
        front_file=name,
        front_size=len(fleet.front.perms),
        wall_time=fleet.wall_time,
        islands=[r.stats for r in fleet.islands],
    )


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the trials, at most ``parallel_trials`` at once in forked worker processes.

    Each trial writes its front file, the run its manifest; trials come back in index order.
    """
    instance = config.resolve_instance()
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MqapError(f"cannot create {out_dir}: {exc}") from exc

    result = RunResult(instance_name=instance.name or "unnamed")
    trial = functools.partial(_run_trial, instance, config, out_dir, result.instance_name)
    workers = min(config.parallel_trials, config.trials)
    if workers > 1:
        # Only parallel trials pay for these imports.  This pool forks all its workers before it
        # starts its thread, and they are not daemonic, so each may fork its fleet's islands.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(
                workers, context, initializer=_end_with_caller, initargs=(os.getpid(),)
            ) as pool:
                result.trials = list(pool.map(trial, range(config.trials)))
        except BrokenProcessPool as exc:
            raise MqapError("a trial worker process died before it returned its trial") from exc
    else:
        result.trials = [trial(i) for i in range(config.trials)]

    manifest = {
        "instance": result.instance_name,
        "islands": config.island_count,
        # Which code and arithmetic produced the fronts.
        "mqap_version": __version__,
        "numpy_version": np.__version__,
        "swap_kernel_dtype": instance.swap_operands.dtype.name,
        "evaluation_dtype": instance.flow_columns.dtype.name,
        **asdict(config),
        "trial_records": [asdict(rec) for rec in result.trials],
    }
    try:
        (out_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise MqapError(f"cannot write manifest: {exc}") from exc
    return result


def enumerate_front(instance: Instance) -> Rows:
    """Exact non-dominated set by full permutation enumeration (n <= ENUMERATION_LIMIT)."""
    if instance.n > ENUMERATION_LIMIT:
        raise MqapError(f"enumeration of n={instance.n} exceeds the n<={ENUMERATION_LIMIT} guard")
    n = instance.n
    front = Rows(np.empty((0, n), dtype=np.int64), np.empty((0, instance.m), dtype=np.int64))
    # The permutations' entries one after another, read straight into each int64 batch.
    entries = itertools.chain.from_iterable(itertools.permutations(range(n)))
    total = math.factorial(n)
    for start in range(0, total, ENUMERATION_CHUNK):
        count = min(ENUMERATION_CHUNK, total - start)
        batch = np.fromiter(entries, dtype=np.int64, count=count * n).reshape(count, n)
        pool = Rows.concat(front, evaluate(instance, batch))
        front = pool.take(non_dominated_mask(pool.objs))
    return front


@dataclass
class ResultSet:
    label: str
    directory: str
    instance: str
    fronts: list[np.ndarray]  # one (k, m) float64 array per trial


@dataclass
class ComparisonRow:
    instance: str
    labels: list[str]
    means: list[float]
    per_trial: list[list[float]]
    best_index: int
    # (label_a, label_b, p_value or None when too few trials)
    pairwise: list[tuple[str, str, float | None]]


def load_result_set(directory) -> ResultSet:
    path = Path(directory)
    manifest_path = path / MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        records = manifest["trial_records"]
        result = ResultSet(
            label=f"{manifest['algorithm']}/{manifest['islands']}",
            directory=str(path),
            instance=manifest["instance"],
            fronts=[],
        )
        front_paths = [path / rec["front_file"] for rec in records]
    except FileNotFoundError:
        raise MqapError(f"{directory} has no {MANIFEST_NAME}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise MqapError(f"{manifest_path} is not a valid result manifest: {exc!r}") from exc
    if not front_paths:
        raise MqapError(f"{manifest_path} lists no trial records")
    for front_path in front_paths:
        try:
            _, _, objectives = read_front_file(front_path)
        except (InstanceFormatError, UnicodeDecodeError) as exc:
            raise MqapError(f"{front_path}: {exc}") from exc
        result.fronts.append(objectives.astype(np.float64))
    return result


def compare_result_sets(sets: list[ResultSet]) -> list[ComparisonRow]:
    """Hypervolume comparison rows, one per instance.

    All fronts of the same instance share normalization bounds and one
    reference point derived from the pooled global non-dominated set.
    """
    by_instance: dict[str, list[ResultSet]] = {}
    for rs in sets:
        by_instance.setdefault(rs.instance, []).append(rs)
    for instance_name, group in by_instance.items():
        if len(group) < 2:
            raise MqapError(
                f"instance {instance_name!r} appears in only one result set; "
                "nothing to compare it against"
            )
        if not any(len(front) for rs in group for front in rs.fronts):
            raise MqapError(f"instance {instance_name!r} has no points in any front")
        widths = {rs.directory: {f.shape[1] for f in rs.fronts if len(f)} for rs in group}
        if len(set().union(*widths.values())) > 1:
            listed = ", ".join(f"{d}: {sorted(w)}" for d, w in widths.items())
            raise MqapError(
                f"instance {instance_name!r} has fronts with different objective counts ({listed})"
            )

    rows = []
    for instance_name in sorted(by_instance):
        group = by_instance[instance_name]
        normalized = metrics.normalize_fronts([front for rs in group for front in rs.fronts])
        pooled = np.concatenate(normalized)
        # Repeated points are kept: they cannot change the reference point's maxima.
        ref = metrics.reference_point(pooled[non_dominated_mask(pooled)])

        per_trial: list[list[float]] = []
        cursor = 0
        for rs in group:
            count = len(rs.fronts)
            per_trial.append(
                [metrics.hypervolume(front, ref) for front in normalized[cursor : cursor + count]]
            )
            cursor += count

        means = [sum(hv) / len(hv) for hv in per_trial]
        labels = _disambiguated_labels(group)
        pairwise = []
        for a, b in itertools.combinations(range(len(group)), 2):
            if len(per_trial[a]) < 3 or len(per_trial[b]) < 3:
                p = None  # rank-sum needs at least 3 trials per side
            else:
                _, p = metrics.wilcoxon_rank_sum(per_trial[a], per_trial[b])
            pairwise.append((labels[a], labels[b], p))
        rows.append(
            ComparisonRow(
                instance=instance_name,
                labels=labels,
                means=means,
                per_trial=per_trial,
                best_index=max(range(len(means)), key=means.__getitem__),
                pairwise=pairwise,
            )
        )
    return rows


def _disambiguated_labels(group: list[ResultSet]) -> list[str]:
    labels = [rs.label for rs in group]
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        out.append(label if labels.count(label) == 1 else f"{label}#{seen[label]}")
    return out
