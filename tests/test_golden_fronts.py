"""Pinned fronts of seeded single-island runs.

Refactors of the ranking, archive, local search or island loop must leave
these 18 trials byte-identical: the SHA-256 of their concatenated front
files is fixed.  Capacity 8 forces archive evictions; with local search
budgets of 1e6 s and no time budget the runs are fixed work on any machine.
"""

import hashlib

from mqap.instance import InstanceSpec
from mqap.runner import ExperimentConfig, run_experiment

GOLDEN_SHA256 = "f31aa13b4ff134d3338280d36f0d9bdf7b8344862dad7f067deee49e51a01285"


def _cases():
    for algorithm, generations in (("memetic", 10), ("nsga2", 40)):
        for n in (12, 20, 30, 40):
            for m in (2, 3):
                yield algorithm, generations, n, m, 100
        yield algorithm, generations, 30, 3, 8


def test_single_island_fronts_match_golden_hash(tmp_path):
    digest = hashlib.sha256()
    for k, (algorithm, generations, n, m, capacity) in enumerate(_cases()):
        out = tmp_path / f"case{k:02d}"
        config = ExperimentConfig(
            gen_spec=InstanceSpec(n, m, correlation=0.0, seed=100 + k),
            algorithm=algorithm,
            island_count=1,
            trials=1,
            base_seed=7 + k,
            generations=generations,
            time_budget=None,
            ls_secs=1e6,
            population=10,
            archive_capacity=capacity,
            output_dir=str(out),
        )
        run_experiment(config)
        digest.update((out / "trial_0000.front").read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256
