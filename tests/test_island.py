import dataclasses
import functools
import json
import multiprocessing
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import mqap.island
from mqap import (
    Archive,
    IslandConfig,
    Rng,
    Solution,
    check_migrants,
    dominates,
    run_fleet,
    run_island,
)
from mqap.evaluation import random_solution, random_solutions
from mqap.genetics import tournament_select
from mqap.instance import InstanceSpec, generate_uniform
from mqap.island import IslandError, send_migrants
from mqap.metrics import hypervolume, non_dominated, normalize_fronts, reference_point
from mqap.ranking import rank_and_crowd
from mqap.runner import ExperimentConfig, run_experiment

from conftest import brute_force_non_dominated


SEED = 3  # of every test that runs one island


def _config(**overrides):
    base = dict(
        population=10,
        epoch=5,
        migrants=2,
        generations=5,
        pb_c=0.9,
        pb_m=0.05,
        ls_secs=0.05,
        archive_capacity=50,
    )
    base.update(overrides)
    return IslandConfig(**base)


def _instance(n=10, m=2, seed=1):
    return generate_uniform(InstanceSpec(n=n, m=m, correlation=0.0, seed=seed))


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_zero_generations_archives_non_dominated_initials(algorithm):
    inst = _instance()
    config = _config(generations=0, algorithm=algorithm)
    result = run_island(config, inst, SEED)
    rng = Rng(SEED)
    initial = [random_solution(inst, rng) for _ in range(config.population)]
    expected = brute_force_non_dominated([s.objectives for s in initial])
    assert {s.objectives for s in result.archive.members} == expected
    assert result.stats.generations == 0


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_archive_mutually_non_dominated(algorithm):
    result = run_island(_config(algorithm=algorithm), _instance(), SEED)
    members = result.archive.members
    assert members
    for a in members:
        assert not any(dominates(b.objectives, a.objectives) for b in members if b is not a)


def _inboxes(count):
    return [queue.SimpleQueue() for _ in range(count)]


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_send_event_count_matches_epoch(algorithm):
    # Wired inboxes but a sequential run: exactly floor(generations/epoch) sends.
    config = _config(algorithm=algorithm, generations=12, epoch=5)
    result = run_island(config, _instance(), SEED, 0, _inboxes(2))
    assert result.stats.send_events == 2
    assert result.stats.migrants_sent == 2 * 2 * 1  # migrants x events x neighbors


def test_migration_roundtrip_sequential():
    inst = _instance()
    inboxes = _inboxes(2)
    config = _config(epoch=1, generations=4)
    sender = run_island(config, inst, SEED, 0, inboxes)
    assert sender.stats.send_events == 4
    receiver = run_island(config, inst, 4, 1, inboxes)
    assert receiver.stats.migrants_received >= sender.stats.migrants_sent / 1
    # Receiver's sends stay queued for island 0; they never block anything.
    assert check_migrants(inboxes[0])


def test_check_migrants_drains_everything():
    inbox = queue.SimpleQueue()
    assert check_migrants(inbox) == []
    inst = _instance(n=6)
    rng = Rng(0)
    for _ in range(3):
        assert send_migrants([inbox], [random_solution(inst, rng) for _ in range(2)]) == 2
    assert len(check_migrants(inbox)) == 6
    assert check_migrants(inbox) == []


def test_one_drain_returns_every_senders_migrants():
    inst = _instance(n=6)
    inboxes = _inboxes(3)
    batches = {
        sender: [random_solution(inst, Rng(sender)) for _ in range(sender)] for sender in (1, 2)
    }
    for sender, solutions in batches.items():
        neighbours = [q for i, q in enumerate(inboxes) if i != sender]
        assert send_migrants(neighbours, solutions) == 2 * sender
    received = check_migrants(inboxes[0])
    expected = [s.objectives for sender in (1, 2) for s in batches[sender]]
    assert sorted(s.objectives for s in received) == sorted(expected)
    assert check_migrants(inboxes[0]) == []


def test_check_migrants_concurrent_with_sends():
    inst = _instance(n=6)
    inbox = queue.SimpleQueue()
    total = 400
    received = []

    def producer():
        rng = Rng(5)
        for _ in range(total):
            send_migrants([inbox], [random_solution(inst, rng)])

    thread = threading.Thread(target=producer)
    thread.start()
    deadline = time.monotonic() + 20
    while len(received) < total and time.monotonic() < deadline:
        received.extend(check_migrants(inbox))
    thread.join()
    received.extend(check_migrants(inbox))
    assert len(received) == total


def test_migrants_are_deep_copies():
    inst = _instance(n=6)
    inboxes = _inboxes(2)
    original = random_solution(inst, Rng(7))
    sent_objectives = original.objectives
    send_migrants(inboxes, [original])
    original.perm[0], original.perm[1] = original.perm[1], original.perm[0]
    first, second = (check_migrants(q)[0] for q in inboxes)
    assert first is not original and second is not original and first is not second
    assert first.perm is not second.perm
    for copy in (first, second):
        assert copy.objectives == sent_objectives
        assert not np.array_equal(copy.perm, original.perm)


def test_fleet_runs_and_merges():
    inst = _instance(n=8)
    fleet = run_fleet(inst, _config(generations=6, epoch=2, population=8), [100, 101, 102])
    assert len(fleet.islands) == 3
    assert fleet.front
    for sol in fleet.front:
        assert not any(
            dominates(other.objectives, sol.objectives) for other in fleet.front if other is not sol
        )
    received = sum(r.stats.migrants_received for r in fleet.islands)
    sent = sum(r.stats.migrants_sent for r in fleet.islands)
    assert sent > 0 and received <= sent


def test_fleet_without_seeds_is_rejected():
    with pytest.raises(ValueError):
        run_fleet(_instance(n=6), _config(), [])


def _failing_island(failing_id, how):
    original = mqap.island.run_island

    def run_island(config, instance, seed, island_id=0, *args):
        if island_id == failing_id:
            if how == "exit":
                os._exit(3)
            raise RuntimeError("injected island failure")
        return original(config, instance, seed, island_id, *args)

    return run_island


ISLAND_FAILURES = [
    (0, "raise", "island 0 failed: RuntimeError('injected island failure')"),
    (1, "raise", "RuntimeError: injected island failure"),
    (1, "exit", "island 1 exited with code 3 before sending its result"),
]


@pytest.mark.parametrize("failing_id, how, expected", ISLAND_FAILURES)
def test_fleet_failure_names_the_island_and_leaves_no_process(
    monkeypatch, failing_id, how, expected
):
    # Forked children inherit the patched module global.
    monkeypatch.setattr(mqap.island, "run_island", _failing_island(failing_id, how))
    config = _config(algorithm="nsga2", generations=30)
    with pytest.raises(IslandError) as excinfo:
        run_fleet(_instance(n=8), config, [40, 41, 42])
    assert f"island {failing_id}" in str(excinfo.value)
    assert expected in str(excinfo.value)
    assert multiprocessing.active_children() == []


def _feeder_threads():
    return {t for t in threading.enumerate() if t.name == "QueueFeederThread"}


@pytest.mark.parametrize("short_island", [0, 1])
def test_unread_inbox_of_a_finished_island_does_not_block_shutdown(short_island, monkeypatch):
    # One island stops after a generation while the other sends it 20
    # migrants a generation for 400 generations: megabytes, far beyond the
    # 64 KiB a pipe holds unread.
    original = mqap.island.run_island

    def one_short_island(config, instance, seed, island_id=0, *args):
        if island_id == short_island:
            config = dataclasses.replace(config, generations=1)
        return original(config, instance, seed, island_id, *args)

    monkeypatch.setattr(mqap.island, "run_island", one_short_island)
    config = _config(algorithm="nsga2", population=10, generations=400, epoch=1, migrants=20)
    feeders_before = _feeder_threads()
    done = []
    runner = threading.Thread(
        target=lambda: done.append(run_fleet(_instance(n=20), config, [60, 61])), daemon=True
    )
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run_fleet hung on an unread inbox"
    stats = [r.stats for r in done[0].islands]
    assert [st.generations for st in stats] == [1 if i == short_island else 400 for i in range(2)]
    assert stats[1 - short_island].migrants_sent == 400 * 20
    assert multiprocessing.active_children() == []
    # Island 0's queue feeder threads flush and exit once the fleet is closed.
    deadline = time.monotonic() + 10
    while _feeder_threads() - feeders_before:
        assert time.monotonic() < deadline, "a queue feeder thread is still blocked"
        time.sleep(0.01)


def _trial_config(tmp_path, **overrides):
    base = dict(
        gen_spec=InstanceSpec(n=8, m=2, correlation=0.0, seed=2),
        algorithm="nsga2",
        island_count=2,
        trials=3,
        generations=6,
        epoch=2,
        time_budget=None,
        output_dir=str(tmp_path),
        parallel_trials=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _gone(pid):
    """True once ``pid`` has exited: no such process, or a zombie nobody reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_gone(pids, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not all(_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)
            pytest.fail(f"processes {pids} outlived the run")
        time.sleep(0.02)


def _within(seconds, call):
    """``call()``'s result or exception; a call still running after ``seconds`` fails the test."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed to the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def test_parallel_trials_fork_fleets_from_pool_processes(tmp_path):
    result = run_experiment(_trial_config(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [rec["trial"] for rec in manifest["trial_records"]] == [0, 1, 2]
    for record in result.trials:
        assert len(record.islands) == 2
        assert all(st.generations == 6 for st in record.islands)
        rows = (tmp_path / record.front_file).read_text().splitlines()
        assert len([r for r in rows if not r.startswith("!")]) == record.front_size > 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("trials, parallel_trials", [(4, 2), (3, 5)])
def test_parallel_trials_write_the_sequential_fronts(tmp_path, trials, parallel_trials):
    fronts = {}
    for parallel in (1, parallel_trials):
        out = tmp_path / str(parallel)
        config = _trial_config(
            out,
            algorithm="memetic",
            island_count=1,
            trials=trials,
            generations=3,
            ls_secs=1e6,
            parallel_trials=parallel,
        )
        result = run_experiment(config)
        assert [rec.trial for rec in result.trials] == list(range(trials))
        fronts[parallel] = {p.name: p.read_bytes() for p in out.glob("*.front")}
    assert len(fronts[1]) == trials
    assert fronts[parallel_trials] == fronts[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing_id, how, expected", ISLAND_FAILURES)
def test_island_failure_in_a_pooled_trial_names_the_island(
    tmp_path, monkeypatch, failing_id, how, expected
):
    # Forked trial workers and their islands inherit the patched module global.
    monkeypatch.setattr(mqap.island, "run_island", _failing_island(failing_id, how))
    with pytest.raises(IslandError) as excinfo:
        _within(60, lambda: run_experiment(_trial_config(tmp_path, trials=2)))
    assert f"island {failing_id}" in str(excinfo.value)
    assert expected in str(excinfo.value)
    assert multiprocessing.active_children() == []


def test_dying_trial_process_ends_the_run_with_an_error(tmp_path, monkeypatch):
    # Island 0 runs in the trial worker itself: the worker dies while its
    # island 1 child runs, and that child holds the pool's view of the worker.
    original = mqap.island.run_island
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def dying_trial(config, instance, seed, island_id=0, *args):
        if island_id == 0:
            os._exit(3)
        (pid_dir / str(os.getpid())).touch()
        return original(config, instance, seed, island_id, *args)

    monkeypatch.setattr(mqap.island, "run_island", dying_trial)
    try:
        with pytest.raises(BrokenProcessPool):
            _within(30, lambda: run_experiment(_trial_config(tmp_path / "out", trials=2)))
    finally:  # a hung pool waits on these children
        _wait_gone([int(p.name) for p in pid_dir.iterdir()])
    assert multiprocessing.active_children() == []


_CALLER_DIES = """
import os, sys, time
import mqap.island
from mqap.instance import InstanceSpec, generate_uniform

original = mqap.island.run_island

def run_island(config, instance, seed, island_id=0, *args):
    result = original(config, instance, seed, island_id, *args)
    if island_id == 0:
        time.sleep(1.0)  # island 1 has sent its result and waits for word to exit
        os._exit(3)
    with open(sys.argv[1], "w") as handle:
        handle.write(str(os.getpid()))
    return result

mqap.island.run_island = run_island
instance = generate_uniform(InstanceSpec(n=8, m=2, seed=1))
mqap.island.run_fleet(instance, mqap.island.IslandConfig(algorithm="nsga2", generations=5), [1, 2])
"""


def test_island_child_exits_when_its_caller_dies(tmp_path):
    src = Path(mqap.island.__file__).resolve().parents[1]
    pid_file = tmp_path / "island1.pid"
    env = {**os.environ, "PYTHONPATH": str(src)}
    caller = subprocess.run(
        [sys.executable, "-c", _CALLER_DIES, str(pid_file)],
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=60,
    )
    assert caller.returncode == 3
    _wait_gone([int(pid_file.read_text())], seconds=5.0)


def test_fleet_ends_cleanly_when_another_thread_reaped_a_child(monkeypatch):
    # With parallel trials, another thread's Process.start polls and reaps
    # every finished child of the process: a join can then return before
    # that thread has stored the child's exit code.
    original_join = multiprocessing.process.BaseProcess.join
    reaped = []

    def join_after_another_thread_reaped(self, timeout=None):
        _, status = os.waitpid(self.pid, 0)
        reaped.append((self, status))
        original_join(self, timeout)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "join", join_after_another_thread_reaped
    )
    fleet = run_fleet(_instance(n=8), _config(algorithm="nsga2"), [90, 91])
    assert [r.stats.generations for r in fleet.islands] == [5, 5]
    assert len(reaped) == 1
    for child, status in reaped:  # what the reaping thread stores afterwards
        child._popen.returncode = os.waitstatus_to_exitcode(status)
    assert multiprocessing.active_children() == []


_ONE_TRIAL_RUN = """
import sys
from mqap.instance import InstanceSpec
from mqap.runner import ExperimentConfig, run_experiment

config = ExperimentConfig(
    gen_spec=InstanceSpec(n=8, m=2), trials=1, generations=3, output_dir=sys.argv[1]
)
run_experiment(config)
loaded = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
sys.exit(f"imported {sorted(loaded)}" if loaded else 0)
"""


def test_importing_mqap_does_not_import_multiprocessing(tmp_path):
    src = Path(mqap.island.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, mqap; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
    # Nor does a one-trial, one-island run.
    command = [sys.executable, "-c", _ONE_TRIAL_RUN, str(tmp_path)]
    assert subprocess.run(command, env=env).returncode == 0


def test_single_island_determinism_in_memory():
    inst = _instance(n=9)
    config = _config(generations=6, ls_secs=5.0)
    a = run_island(config, inst, SEED)
    b = run_island(config, inst, SEED)
    key = lambda r: sorted((s.objectives, tuple(s.perm.tolist())) for s in r.archive.members)  # noqa: E731
    assert key(a) == key(b)


def test_population_size_restored_every_generation():
    # Indirect check: a run long enough to exercise truncation both ways
    # still produces a healthy archive and completes all generations.
    result = run_island(_config(generations=8, population=6), _instance(n=8), SEED)
    assert result.stats.generations == 8


def test_time_budget_halts_early():
    config = _config(generations=10_000, time_budget=0.3, ls_secs=0.01)
    start = time.monotonic()
    result = run_island(config, _instance(n=12), SEED)
    assert time.monotonic() - start < 5.0
    assert 0 < result.stats.generations < 10_000


def _fleet_hv(front, bounds_fronts):
    normalized, _ = normalize_fronts(bounds_fronts)
    split = [normalized[i] for i in range(len(bounds_fronts))]
    global_front = non_dominated([p for fr in normalized for p in fr])
    ref = reference_point(global_front)
    return [hypervolume(fr, ref) for fr in split]


def test_memetic_beats_baseline_on_paired_seeds():
    inst = _instance(n=10, seed=42)
    wins = 0
    for seed in range(10):
        results = {}
        for algorithm in ("memetic", "nsga2"):
            config = _config(algorithm=algorithm, generations=15, population=12, ls_secs=0.1)
            results[algorithm] = run_island(config, inst, 1000 + seed)
        fronts = [
            [tuple(float(v) for v in s.objectives) for s in results[a].archive.members]
            for a in ("memetic", "nsga2")
        ]
        hv_memetic, hv_nsga2 = _fleet_hv(None, fronts)
        if hv_memetic >= hv_nsga2 - 1e-12:
            wins += 1
    assert wins >= 7, f"memetic won only {wins}/10 paired seeds"


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_refilled_population_is_ranked_before_its_tournaments(algorithm, monkeypatch):
    # n=4 has 24 permutations, so a population of 30 is refilled with random
    # solutions every generation, and a 2-member archive keeps evicting.
    config = _config(
        algorithm=algorithm,
        population=30,
        archive_capacity=2,
        generations=15,
        ls_secs=1e6,
    )
    checks = []
    draws = []

    def checking_tournament(pool, k, fitness, rng):
        if len(pool) == config.population:
            checks.append(list(fitness) == rank_and_crowd(pool))
        return tournament_select(pool, k, fitness, rng)

    def counting_random_solutions(instance, rng, count):
        draws.extend([1] * count)
        return random_solutions(instance, rng, count)

    monkeypatch.setattr(mqap.island, "tournament_select", checking_tournament)
    monkeypatch.setattr(mqap.island, "random_solutions", counting_random_solutions)
    run_island(config, _instance(n=4, m=3), SEED)
    assert len(draws) > config.population, "no refill happened"
    assert checks and all(checks)


@pytest.mark.parametrize("n", [4, 10])
def test_archive_candidates_count_every_offered_solution(n, monkeypatch):
    # A lone NSGA-II island offers its initial population, one population
    # of offspring per generation and every refill; n=4 has 24 permutations,
    # so a population of 30 is refilled every generation.
    draws = []

    def counting_random_solutions(instance, rng, count):
        draws.append(count)
        return random_solutions(instance, rng, count)

    monkeypatch.setattr(mqap.island, "random_solutions", counting_random_solutions)
    config = _config(algorithm="nsga2", population=30, generations=8)
    result = run_island(config, _instance(n=n, m=3), SEED)
    refills = sum(draws) - config.population
    assert (refills > 0) == (n == 4)
    assert result.stats.archive_candidates == config.population * (config.generations + 1) + refills


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_archive_evictions_match_the_eviction_log(algorithm, monkeypatch):
    monkeypatch.setattr(mqap.island, "Archive", functools.partial(Archive, track_evictions=True))
    config = _config(algorithm=algorithm, archive_capacity=3, generations=8)
    result = run_island(config, _instance(m=3), SEED)
    assert result.stats.archive_evictions == len(result.archive.evictions) > 0


def test_migrant_keys_are_rank_and_crowd_keys(monkeypatch):
    archive = Archive(capacity=10)
    archive.insert(
        [
            Solution(perm=np.array(perm), objectives=obj)
            for perm, obj in [
                ([0, 1, 2, 3], (2, 6)),
                ([1, 0, 2, 3], (4, 4)),
                ([2, 1, 0, 3], (2, 6)),  # equal objectives, another permutation
                ([3, 1, 2, 0], (6, 2)),
                ([0, 3, 2, 1], (4, 4)),
                ([0, 2, 1, 3], (5, 3)),
            ]
        ]
    )
    assert len(archive) == 6
    keys = []

    def recording_tournament(pool, k, fitness, rng):
        keys.append(list(fitness))
        return tournament_select(pool, k, fitness, rng)

    monkeypatch.setattr(mqap.island, "tournament_select", recording_tournament)
    mqap.island._select_migrants(archive, _config(migrants=2), Rng(0))
    assert keys == [rank_and_crowd(archive.members)] * 2
