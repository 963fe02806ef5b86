"""Asynchronous island-model memetic solver for the multi-objective QAP."""

# Set before the submodule imports: runner reads the version for the manifest,
# and the submodules raise the error.
__version__ = "0.1.0"


class MqapError(Exception):
    """A failure mqap reports as ``error: <message>`` with exit 2; anything else is a bug."""


from .archive import Archive
from .evaluation import Rows, evaluate, evaluate_batch, swap_delta_matrix
from .genetics import Rng, cycle_crossover, swap_mutation, tournament_select
from .instance import (
    Instance,
    InstanceSpec,
    generate_uniform,
    load_instance,
    parse_instance,
    save_instance,
    write_instance,
)
from .island import (
    IslandConfig,
    archive_merge,
    check_migrants,
    run_fleet,
    run_island,
    send_migrants,
)
from .localsearch import dominance_based_local_search
from .metrics import hypervolume, normalize_fronts, reference_point, wilcoxon_rank_sum
from .ranking import elitist_integration, front_crowding, pareto_ranks
from .runner import ExperimentConfig, enumerate_front, run_experiment
