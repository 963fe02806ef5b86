"""The benchmark's workloads: inputs from a seed, one timed operation, its check.

Every solver operation is fixed work: one ``run_experiment`` call with one
trial, no time budget, a fixed generation count and a local-search budget
so large that local search always runs until nothing is left unvisited.
A workload is a list of cases built by ``setup``; a cycle runs each case
once, so every case weighs the same in a run's medians.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from mqap import InstanceSpec, generate_uniform, runner, save_instance

# Seconds; far beyond any scan, so local search ends only on exhaustion.
LS_SECS = 1e6


@dataclass
class SolverCase:
    config: runner.ExperimentConfig
    distances: np.ndarray
    flows: tuple
    low: np.ndarray | None = None
    high: np.ndarray | None = None


@dataclass(frozen=True)
class SolverWorkload:
    name: str
    algorithm: str
    n: int
    m: int
    islands: int
    generations: int
    population: int | None  # None: mqap's default split of 100 over the islands
    cases: int

    def setup(self, seed: int, workdir: Path) -> list[SolverCase]:
        """Write one generated instance per case; seeds derive from ``seed``."""
        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for k in range(self.cases):
            spec = InstanceSpec(n=self.n, m=self.m, correlation=0.0, seed=rng.randrange(2**31))
            instance = generate_uniform(spec)
            path = workdir / f"case{k}.qap"
            save_instance(instance, path)
            config = runner.ExperimentConfig(
                instance_path=str(path),
                algorithm=self.algorithm,
                island_count=self.islands,
                trials=1,
                base_seed=rng.randrange(1, 10**6),
                generations=self.generations,
                time_budget=None,
                ls_secs=LS_SECS,
                population=self.population,
                output_dir=str(workdir / f"case{k}.out"),
                parallel_trials=1,
            )
            cases.append(SolverCase(config, instance.distances, instance.flows))
        return cases

    def prepare(self, cases: list[SolverCase]) -> None:
        for case in cases:
            case.low, case.high = oracle.cost_bounds(case.distances, case.flows)

    def run(self, case: SolverCase):
        return runner.run_experiment(case.config)

    def check(self, case: SolverCase, result) -> tuple[list[str], float]:
        """Output gate problems and the normalised hypervolume of the front."""
        if len(result.trials) != 1:
            return [f"expected 1 trial record, got {len(result.trials)}"], 0.0
        record = result.trials[0]
        problems = [
            f"island {st.island_id} ran {st.generations} of {self.generations} generations"
            for st in record.islands
            if st.generations != self.generations
        ]
        if len(record.islands) != self.islands:
            problems.append(f"{len(record.islands)} island records, expected {self.islands}")
        perms, objs = oracle.read_front(Path(case.config.output_dir) / record.front_file)
        if perms.shape[0] != record.front_size:
            problems.append(
                f"front file has {perms.shape[0]} rows, record says {record.front_size}"
            )
        problems += oracle.check_front(case.distances, case.flows, perms, objs)
        if problems:
            return problems, 0.0
        return [], oracle.normalised_hypervolume(objs, case.low, case.high)


@dataclass
class ScoreCase:
    directories: list[Path]
    fronts: dict[str, list[list[np.ndarray]]]  # instance -> per set -> per trial
    expected: dict[str, list[list[float]]] | None = None


@dataclass(frozen=True)
class ScoreWorkload:
    """``mqap compare``: load result directories, then score them together."""

    name: str
    shapes: tuple[tuple[int, int], ...]  # (objectives, points per front) per instance
    trials: int
    cases: int

    def setup(self, seed: int, workdir: Path) -> list[ScoreCase]:
        """Write each case's result directories; seeds derive from ``seed``."""
        rng = random.Random(f"{self.name}/{seed}")
        return [
            self._write_case(np.random.default_rng(rng.randrange(2**63)), workdir / f"case{k}")
            for k in range(self.cases)
        ]

    def _write_case(self, rng, workdir: Path) -> ScoreCase:
        """Write two result directories per instance of synthetic fronts.

        Points are integers on the curved front ``S * (1 - u)`` for unit
        directions ``u``, with the second directory shifted outward, so the
        input never depends on solver code.
        """
        scale = 10**6
        directories, fronts = [], {}
        for m, points in self.shapes:
            instance = f"synthetic-m{m}"
            fronts[instance] = []
            for shift, algorithm in enumerate(("memetic", "nsga2")):
                directory = workdir / f"{instance}-{algorithm}"
                directory.mkdir(parents=True, exist_ok=True)
                records, per_trial = [], []
                for t in range(self.trials):
                    u = _spread_directions(rng, points, m)
                    objs = np.rint(scale * (1 + 0.05 * shift - u)).astype(np.int64)
                    name = f"trial_{t:04d}.front"
                    lines = [f"! instance={instance}", f"! algorithm={algorithm}"]
                    lines += [
                        " ".join(map(str, rng.permutation(m)))
                        + " | "
                        + " ".join(map(str, row))
                        for row in objs.tolist()
                    ]
                    (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
                    records.append({"trial": t, "seed": t, "front_file": name})
                    per_trial.append(objs)
                manifest = {
                    "instance": instance,
                    "algorithm": algorithm,
                    "islands": 1,
                    "trials": self.trials,
                    "trial_records": records,
                }
                (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
                directories.append(directory)
                fronts[instance].append(per_trial)
        return ScoreCase(directories, fronts)

    def prepare(self, cases: list[ScoreCase]) -> None:
        """Expected per-trial hypervolumes under compare's pooled normalisation.

        All fronts of an instance share min/max bounds; the reference point
        is the componentwise maximum of their pooled non-dominated set plus
        0.01.
        """
        for case in cases:
            case.expected = {}
            for instance, per_set in case.fronts.items():
                pooled = np.concatenate([f for trials in per_set for f in trials]).astype(float)
                low, high = pooled.min(axis=0), pooled.max(axis=0)
                scaled = (pooled - low) / (high - low)
                ref = scaled[~oracle.dominated_mask(scaled)].max(axis=0) + 0.01
                case.expected[instance] = [
                    [oracle.hypervolume((f - low) / (high - low), ref) for f in trials]
                    for trials in per_set
                ]

    def run(self, case: ScoreCase):
        sets = [runner.load_result_set(d) for d in case.directories]
        return runner.compare_result_sets(sets)

    def check(self, case: ScoreCase, rows) -> tuple[list[str], float]:
        """Compare each per-trial hypervolume with the independent value."""
        problems = []
        if sorted(row.instance for row in rows) != sorted(case.expected):
            return [f"rows for {[r.instance for r in rows]}, expected {sorted(case.expected)}"], 0.0
        values = []
        for row in rows:
            expected = case.expected[row.instance]
            got = [list(map(float, trials)) for trials in row.per_trial]
            if len(got) != len(expected) or any(
                len(g) != len(e) or not np.allclose(g, e, rtol=1e-9, atol=1e-12)
                for g, e in zip(got, expected)
            ):
                problems.append(f"{row.instance}: hypervolumes {got} differ from {expected}")
            for g, mean in zip(got, row.means):
                if not np.isclose(mean, sum(g) / len(g), rtol=1e-12):
                    problems.append(f"{row.instance}: mean {mean} is not the mean of {g}")
            values += [v for trials in got for v in trials]
        if problems:
            return problems, 0.0
        return [], float(np.mean(values))


def _spread_directions(rng, points: int, m: int) -> np.ndarray:
    """Unit vectors in the positive orthant, evenly spread.

    Farthest-point selection from random candidates keeps every front's
    hypervolume close to that of the underlying surface, so the scores
    vary little from seed to seed while the points themselves change.
    """
    candidates = np.abs(rng.standard_normal((8 * points, m)))
    candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
    chosen = [0]
    distance = np.linalg.norm(candidates - candidates[0], axis=1)
    for _ in range(points - 1):
        chosen.append(int(distance.argmax()))
        distance = np.minimum(distance, np.linalg.norm(candidates - candidates[chosen[-1]], axis=1))
    return candidates[chosen]


# The work of one case depends on its seeded input: a memetic trial's local
# search runs until its archive is exhausted, and a front's hypervolume
# time depends on its points, so single cases vary by about 10 to 15%.
# A run holds enough cases to average that out (a run's total work varies
# by about 3% between seeds) and repeats every case about fifteen times
# or more in 35 seconds, so each case's median is steady.
WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            "memetic-n40", "memetic", n=40, m=2, islands=1, generations=1, population=4, cases=12
        ),
        SolverWorkload(
            "nsga2-fleet", "nsga2", n=30, m=3, islands=2, generations=30, population=None, cases=2
        ),
        ScoreWorkload("score-hv", shapes=((3, 30), (4, 20)), trials=3, cases=8),
    )
}
