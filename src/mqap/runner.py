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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .evaluation import Solution, evaluate_batch
from .instance import Instance, InstanceFormatError, InstanceSpec, generate_uniform, load_instance
from .island import IslandConfig, IslandStats, run_fleet
from .ranking import weakly_dominates

MANIFEST_NAME = "manifest.json"
REFERENCE_OFFSET = 0.01
ENUMERATION_LIMIT = 10


class InstanceLoadError(ValueError):
    pass


class OutputWriteError(OSError):
    pass


class TooLargeError(ValueError):
    pass


class InstanceMismatchError(ValueError):
    pass


def load_instance_checked(path) -> Instance:
    try:
        return load_instance(path)
    except (OSError, InstanceFormatError) as exc:
        raise InstanceLoadError(f"cannot load {path}: {exc}") from exc


def default_population(island_count: int) -> int:
    """Split a 100-individual budget across islands, floored at 13 for large fleets."""
    if island_count > 11:
        return 13
    return math.ceil(100 / island_count)


def trial_seed(base_seed: int, trial_index: int) -> int:
    return base_seed + trial_index


def island_seed(trial_seed: int, island_id: int) -> int:
    return trial_seed * 1000 + island_id


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
            ("island_count", self.island_count, 1),
            ("parallel_trials", self.parallel_trials, 1),
            # random.Random seeds with abs(), so seed -s would replay seed s.
            ("seed", self.base_seed, 0),
        ):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.instance_path is None and self.gen_spec is None:
            raise ValueError("either an instance path or a generator spec is required")
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


def front_text(solutions: list[Solution], header: dict[str, str]) -> str:
    """A front file: ``! key=value`` header lines, then one ``perm | objectives`` row per solution."""
    rows = sorted(
        (tuple(sol.objectives), tuple(int(v) for v in sol.perm)) for sol in solutions
    )
    lines = [f"! {key}={value}" for key, value in header.items()]
    lines.extend(
        " ".join(str(v) for v in perm) + " | " + " ".join(str(v) for v in obj)
        for obj, perm in rows
    )
    return "\n".join(lines) + "\n"


def write_front_file(path, solutions: list[Solution], header: dict[str, str]) -> None:
    try:
        Path(path).write_text(front_text(solutions, header), encoding="utf-8")
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc}") from exc


def read_front_file(path) -> tuple[dict[str, str], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Returns (header metadata, [(perm, objectives), ...]).

    Every row must hold as many objectives as the first row.
    """
    header: dict[str, str] = {}
    rows = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped[0].isdigit():
            if stripped.startswith("!") and "=" in stripped:
                key, _, value = stripped[1:].strip().partition("=")
                header[key.strip()] = value.strip()
            continue
        perm_part, _, obj_part = stripped.partition("|")
        perm = tuple(int(v) for v in perm_part.split())
        objectives = tuple(int(v) for v in obj_part.split())
        if not objectives:
            raise ValueError(f"line {number} holds no objectives")
        if rows and len(objectives) != len(rows[0][1]):
            raise ValueError(
                f"line {number} holds {len(objectives)} objectives, the first row {len(rows[0][1])}"
            )
        rows.append((perm, objectives))
    return header, rows


def _run_trial(instance, config, out_dir, instance_name, index) -> TrialRecord:
    seed = trial_seed(config.base_seed, index)
    fleet = run_fleet(instance, config, [island_seed(seed, i) for i in range(config.island_count)])
    name = f"trial_{index:04d}.front"
    write_front_file(
        out_dir / name,
        fleet.front,
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
        front_size=len(fleet.front),
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
        raise OutputWriteError(f"cannot create {out_dir}: {exc}") from exc

    result = RunResult(instance_name=instance.name or "unnamed")
    trial = functools.partial(_run_trial, instance, config, out_dir, result.instance_name)
    workers = min(config.parallel_trials, config.trials)
    if workers > 1:
        # Only parallel trials pay for these imports.  This pool forks all its workers before it
        # starts its thread, and they are not daemonic, so each may fork its fleet's islands.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            result.trials = list(pool.map(trial, range(config.trials)))
    else:
        result.trials = [trial(i) for i in range(config.trials)]

    manifest = {
        "instance": result.instance_name,
        "islands": config.island_count,
        # Which code and arithmetic produced the fronts.
        "mqap_version": __version__,
        "numpy_version": np.__version__,
        "swap_kernel_dtype": instance.swap_operands.dtype.name,
        **asdict(config),
        "trial_records": [asdict(rec) for rec in result.trials],
    }
    try:
        (out_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise OutputWriteError(f"cannot write manifest: {exc}") from exc
    return result


def _nd_compress(objs: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop rows whose objective vector is strictly dominated (ties kept).

    In objective-sum order every dominating row comes first, and each kept
    row sweeps out the later rows it weakly dominates, except equal ones:
    those with the same sum.
    """
    sums = objs.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    objs, perms, sums = objs[order], perms[order], sums[order]
    i = 0
    while i < objs.shape[0]:
        keep = np.ones(objs.shape[0], dtype=bool)
        keep[i + 1 :] = ~weakly_dominates(objs[i : i + 1], objs[i + 1 :])[0]
        keep[i + 1 :] |= sums[i + 1 :] == sums[i]
        objs, perms, sums = objs[keep], perms[keep], sums[keep]
        i += 1
    return objs, perms


def enumerate_front(
    instance: Instance, limit: int = ENUMERATION_LIMIT, chunk: int = 20000
) -> list[Solution]:
    """Exact non-dominated set by full permutation enumeration (n <= limit)."""
    if instance.n > limit:
        raise TooLargeError(
            f"enumeration of n={instance.n} exceeds the n<={limit} guard"
        )
    best_objs = np.empty((0, instance.m), dtype=np.int64)
    best_perms = np.empty((0, instance.n), dtype=np.int64)
    perm_iter = itertools.permutations(range(instance.n))
    while True:
        batch = list(itertools.islice(perm_iter, chunk))
        if not batch:
            break
        perms = np.array(batch, dtype=np.int64)
        objs, perms = _nd_compress(evaluate_batch(instance, perms), perms)
        best_objs = np.concatenate([best_objs, objs])
        best_perms = np.concatenate([best_perms, perms])
        best_objs, best_perms = _nd_compress(best_objs, best_perms)
    return [
        Solution(perm=perm.copy(), objectives=tuple(int(v) for v in obj))
        for obj, perm in zip(best_objs, best_perms)
    ]


@dataclass
class ResultSet:
    label: str
    directory: str
    instance: str
    algorithm: str
    islands: int
    fronts: list[list[tuple[float, ...]]]
    seeds: list[int]


@dataclass
class ComparisonRow:
    instance: str
    labels: list[str]
    means: list[float]
    per_trial: list[list[float]]
    best_index: int
    # (label_a, label_b, p_value or None when too few trials, significant)
    pairwise: list[tuple[str, str, float | None, bool]]


def load_result_set(directory) -> ResultSet:
    path = Path(directory)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise InstanceLoadError(f"{directory} has no {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        fronts = []
        seeds = []
        for rec in manifest["trial_records"]:
            _, rows = read_front_file(path / rec["front_file"])
            fronts.append([tuple(float(v) for v in obj) for _, obj in rows])
            seeds.append(rec["seed"])
        return ResultSet(
            label=f"{manifest['algorithm']}/{manifest['islands']}",
            directory=str(path),
            instance=manifest["instance"],
            algorithm=manifest["algorithm"],
            islands=manifest["islands"],
            fronts=fronts,
            seeds=seeds,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise InstanceLoadError(f"{manifest_path} is not a valid result manifest: {exc!r}") from exc


def compare_result_sets(
    sets: list[ResultSet], alpha: float = 0.05
) -> list[ComparisonRow]:
    """Hypervolume comparison rows, one per instance.

    All fronts of the same instance share normalization bounds and one
    reference point derived from the pooled global non-dominated set.
    """
    by_instance: dict[str, list[ResultSet]] = {}
    for rs in sets:
        by_instance.setdefault(rs.instance, []).append(rs)
    for instance_name, group in by_instance.items():
        if len(group) < 2:
            raise InstanceMismatchError(
                f"instance {instance_name!r} appears in only one result set; "
                "nothing to compare it against"
            )
        if not any(front for rs in group for front in rs.fronts):
            raise InstanceMismatchError(f"instance {instance_name!r} has no points in any front")
        widths = {rs.directory: {len(p) for front in rs.fronts for p in front} for rs in group}
        if len(set().union(*widths.values())) > 1:
            listed = ", ".join(f"{d}: {sorted(w)}" for d, w in widths.items())
            raise InstanceMismatchError(
                f"instance {instance_name!r} has fronts with different objective counts ({listed})"
            )

    rows = []
    for instance_name in sorted(by_instance):
        group = by_instance[instance_name]
        flat_fronts = [front for rs in group for front in rs.fronts]
        normalized, _ = metrics.normalize_fronts(flat_fronts)
        global_front = metrics.non_dominated([p for front in normalized for p in front])
        ref = metrics.reference_point(global_front, REFERENCE_OFFSET)

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
                try:
                    _, p = metrics.wilcoxon_rank_sum(per_trial[a], per_trial[b])
                except metrics.DegenerateSampleError:
                    p = 1.0
            pairwise.append((labels[a], labels[b], p, p is not None and p < alpha))
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
