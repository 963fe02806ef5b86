import dataclasses
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
    MqapError,
    Rng,
    check_migrants,
    evaluate,
    evaluate_batch,
    run_fleet,
    run_island,
)
from mqap.cli import main
from mqap.genetics import random_permutations, tournament_select
from mqap.instance import InstanceSpec, generate_uniform
from mqap.island import send_migrants
from mqap.metrics import hypervolume, normalize_fronts, reference_point
from mqap.ranking import rank_and_crowd
from mqap.runner import ExperimentConfig, island_seed, run_experiment

from conftest import brute_force_non_dominated, dominates, non_dominated


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


def _random_rows(inst, count, rng):
    return evaluate(inst, random_permutations(inst.n, count, rng))


def _objectives(objs):
    return [tuple(o) for o in objs.tolist()]


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_zero_generations_archives_non_dominated_initials(algorithm):
    inst = _instance()
    config = _config(generations=0, algorithm=algorithm)
    result = run_island(config, inst, SEED)
    _, initial = _random_rows(inst, config.population, Rng(SEED))
    expected = brute_force_non_dominated(_objectives(initial))
    assert set(_objectives(result.archive.objs)) == expected
    assert result.stats.generations == 0


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_archive_mutually_non_dominated(algorithm):
    result = run_island(_config(algorithm=algorithm), _instance(), SEED)
    members = _objectives(result.archive.objs)
    assert members
    for a in members:
        assert not any(dominates(b, a) for b in members)


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
    assert len(check_migrants(inboxes[0], inst.n, inst.m)[0])


def test_check_migrants_drains_everything():
    inbox = queue.SimpleQueue()
    perms, objs = check_migrants(inbox, 6, 2)
    assert perms.shape == (0, 6) and objs.shape == (0, 2)
    assert perms.dtype == objs.dtype == np.int64
    inst = _instance(n=6)
    rng = Rng(0)
    for _ in range(3):
        assert send_migrants([inbox], _random_rows(inst, 2, rng)) == 2
    perms, objs = check_migrants(inbox, inst.n, inst.m)
    assert perms.shape == (6, 6) and objs.shape == (6, 2)
    assert np.array_equal(objs, evaluate_batch(inst, perms))
    assert len(check_migrants(inbox, inst.n, inst.m)[0]) == 0


def test_one_drain_returns_every_senders_migrants():
    inst = _instance(n=6)
    inboxes = _inboxes(3)
    batches = {sender: _random_rows(inst, sender, Rng(sender)) for sender in (1, 2)}
    for sender, rows in batches.items():
        neighbours = [q for i, q in enumerate(inboxes) if i != sender]
        assert send_migrants(neighbours, rows) == 2 * sender
    perms, objs = check_migrants(inboxes[0], inst.n, inst.m)
    # Batches come out in the order they were put.
    assert np.array_equal(perms, np.concatenate([batches[1][0], batches[2][0]]))
    assert np.array_equal(objs, np.concatenate([batches[1][1], batches[2][1]]))
    assert len(check_migrants(inboxes[0], inst.n, inst.m)[0]) == 0


def test_check_migrants_concurrent_with_sends():
    inst = _instance(n=6)
    inbox = queue.SimpleQueue()
    total = 400
    received = 0

    def producer():
        rng = Rng(5)
        for _ in range(total):
            send_migrants([inbox], _random_rows(inst, 1, rng))

    thread = threading.Thread(target=producer)
    thread.start()
    deadline = time.monotonic() + 20
    while received < total and time.monotonic() < deadline:
        received += len(check_migrants(inbox, inst.n, inst.m)[0])
    thread.join()
    received += len(check_migrants(inbox, inst.n, inst.m)[0])
    assert received == total


def test_migrants_are_deep_copies():
    inst = _instance(n=6)
    inboxes = _inboxes(2)
    perms, objs = rows = _random_rows(inst, 1, Rng(7))
    sent = perms.copy(), objs.copy()
    send_migrants(inboxes, rows)
    perms[0, [0, 1]] = perms[0, [1, 0]]
    objs[0] += 1
    first, second = (check_migrants(q, inst.n, inst.m) for q in inboxes)
    assert not np.shares_memory(first[0], second[0])
    for copy in (first, second):
        assert not np.shares_memory(copy[0], perms) and not np.shares_memory(copy[1], objs)
        assert np.array_equal(copy[0], sent[0]) and np.array_equal(copy[1], sent[1])


def test_fleet_runs_and_merges():
    inst = _instance(n=8)
    fleet = run_fleet(inst, _config(generations=6, epoch=2, population=8), [100, 101, 102])
    assert len(fleet.islands) == 3
    perms, objs = fleet.front
    assert len(perms) == len(objs) > 0
    assert np.array_equal(objs, evaluate_batch(inst, perms))
    front = _objectives(objs)
    for point in front:
        assert not any(dominates(other, point) for other in front)
    received = sum(r.stats.migrants_received for r in fleet.islands)
    sent = sum(r.stats.migrants_sent for r in fleet.islands)
    assert sent > 0 and received <= sent


def test_fleet_without_seeds_is_rejected():
    with pytest.raises(ValueError):
        run_fleet(_instance(n=6), _config(), [])


def _failing_island(failing_id, how, trial_seed=None):
    """Island ``failing_id`` fails in every trial, or only in the trial seeded ``trial_seed``."""
    original = mqap.island.run_island

    def run_island(config, instance, seed, island_id=0, *args):
        fails = trial_seed is None or seed == island_seed(trial_seed, island_id)
        if island_id == failing_id and fails:
            if how == "exit":
                os._exit(3)
            raise RuntimeError("injected island failure")
        return original(config, instance, seed, island_id, *args)

    return run_island


ISLAND_FAILURES = [
    (0, "raise", "injected island failure"),
    (1, "raise", "RuntimeError: injected island failure"),
    (1, "exit", "island 1 exited with code 3 before sending its result"),
]


def _raises(how):
    """Only an island that exits is a failure mqap reports; one that raises is a bug."""
    return pytest.raises(MqapError if how == "exit" else RuntimeError)


def _assert_names_the_failure(message, failing_id, how, expected, seed):
    """Island 0's bug is itself; a child's names its island and seed and holds its traceback."""
    assert expected in message
    if how == "raise" and failing_id:
        assert f"island {failing_id} (seed {seed}) failed:\nTraceback" in message


@pytest.mark.parametrize("failing_id, how, expected", ISLAND_FAILURES)
def test_fleet_failure_names_the_island_and_leaves_no_process(
    monkeypatch, failing_id, how, expected
):
    # Forked children inherit the patched module global.
    monkeypatch.setattr(mqap.island, "run_island", _failing_island(failing_id, how))
    config = _config(algorithm="nsga2", generations=30)
    with _raises(how) as excinfo:
        run_fleet(_instance(n=8), config, [40, 41, 42])
    _assert_names_the_failure(str(excinfo.value), failing_id, how, expected, seed=40 + failing_id)
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
    with _raises(how) as excinfo:
        _within(60, lambda: run_experiment(_trial_config(tmp_path, trials=2)))
    message = str(excinfo.value)
    if how == "exit":
        assert message.startswith(f"trial 0 (seed 1): island {failing_id} ")
    _assert_names_the_failure(message, failing_id, how, expected, seed=island_seed(1, failing_id))
    assert multiprocessing.active_children() == []


def _dying_trial(pid_dir):
    """Island 0 runs in the trial worker itself: the worker dies while its
    island 1 child runs, and that child holds the pool's view of the worker.
    Each island 1 child leaves its pid in ``pid_dir``."""
    original = mqap.island.run_island

    def run_island(config, instance, seed, island_id=0, *args):
        if island_id == 0:
            os._exit(3)
        (pid_dir / str(os.getpid())).touch()
        return original(config, instance, seed, island_id, *args)

    return run_island


def test_dying_trial_process_ends_the_run_with_an_error(tmp_path, monkeypatch):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    monkeypatch.setattr(mqap.island, "run_island", _dying_trial(pid_dir))
    try:
        with pytest.raises(MqapError, match="a trial worker process died") as excinfo:
            _within(30, lambda: run_experiment(_trial_config(tmp_path / "out", trials=2)))
    finally:  # a hung pool waits on these children
        _wait_gone([int(p.name) for p in pid_dir.iterdir()])
    assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
    assert multiprocessing.active_children() == []


def _run_argv(out, parallel_trials):
    """``mqap run`` with the settings of ``_trial_config``."""
    return [
        "run", "--gen-spec", "n=8,m=2,seed=2", "--algorithm", "nsga2", "--islands", "2",
        "--trials", "2", "--generations", "6", "--epoch", "2", "--time-budget-secs", "0",
        "--parallel-trials", str(parallel_trials), "--out", str(out),
    ]


@pytest.mark.parametrize("parallel_trials", [1, 2])
@pytest.mark.parametrize("failing_id, how, expected", ISLAND_FAILURES)
def test_run_command_reports_a_failed_island(
    tmp_path, monkeypatch, capsys, failing_id, how, expected, parallel_trials
):
    # Of the trials seeded 7 and 8, only the second fails.
    monkeypatch.setattr(mqap.island, "run_island", _failing_island(failing_id, how, trial_seed=8))
    argv = _run_argv(tmp_path, parallel_trials) + ["--seed", "7"]
    if how == "raise":  # a bug: main passes it on, and the interpreter prints its traceback
        with _raises(how) as excinfo:
            _within(60, lambda: main(argv))
        seed = island_seed(8, failing_id)
        _assert_names_the_failure(str(excinfo.value), failing_id, how, expected, seed)
        assert "error:" not in capsys.readouterr().err
    else:
        assert _within(60, lambda: main(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: trial 1 (seed 8): island {failing_id} ") and expected in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
    assert multiprocessing.active_children() == []


def test_run_command_reports_a_dead_trial_worker(tmp_path, monkeypatch, capsys):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    monkeypatch.setattr(mqap.island, "run_island", _dying_trial(pid_dir))
    try:
        assert _within(30, lambda: main(_run_argv(tmp_path / "out", 2))) == 2
    finally:
        _wait_gone([int(p.name) for p in pid_dir.iterdir()])
    err = capsys.readouterr().err
    assert err == "error: a trial worker process died before it returned its trial\n"
    assert multiprocessing.active_children() == []


_CALLER_DIES = """
import os, sys, time
import mqap.island
from mqap.instance import InstanceSpec, generate_uniform

original = mqap.island.run_island

def run_island(config, instance, seed, island_id=0, *args):
    result = original(config, instance, seed, island_id, *args)
    if island_id == 0:
        time.sleep(1.0)  # island 1 has sent its result by now
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


_FLEET_CALLER = """
import os, sys
import mqap.island
from mqap.instance import InstanceSpec, generate_uniform

original = mqap.island.run_island

def run_island(config, instance, seed, island_id=0, *args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    return original(config, instance, seed, island_id, *args)

mqap.island.run_island = run_island
instance = generate_uniform(InstanceSpec(n=8, m=2, seed=1))
config = mqap.island.IslandConfig(algorithm="nsga2", generations=10**6, time_budget=20)
mqap.island.run_fleet(instance, config, [1, 2, 3])
"""


def test_island_children_end_with_a_killed_caller(tmp_path):
    src = Path(mqap.island.__file__).resolve().parents[1]
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    caller = subprocess.Popen(
        [sys.executable, "-c", _FLEET_CALLER, str(pid_dir)], env=env, stdout=subprocess.DEVNULL
    )
    try:
        deadline = time.monotonic() + 60
        while len(list(pid_dir.iterdir())) < 3:  # the caller runs island 0
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
    finally:
        caller.kill()
        caller.wait()
        _wait_gone([int(p.name) for p in pid_dir.iterdir()], seconds=5.0)


_POOL_CALLER = """
import os, sys, time
import mqap.island
from mqap.cli import main

def run_island(*args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

mqap.island.run_island = run_island
main(["run", "--gen-spec", "n=6,m=2,seed=1", "--trials", "4", "--parallel-trials", "2",
      "--out", sys.argv[2]])
"""


def test_trial_workers_exit_when_their_caller_dies(tmp_path):
    src = Path(mqap.island.__file__).resolve().parents[1]
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    caller = subprocess.Popen(
        [sys.executable, "-c", _POOL_CALLER, str(pid_dir), str(tmp_path / "out")],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while len(list(pid_dir.iterdir())) < 2:  # each worker runs one trial's island 0
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
    finally:
        caller.kill()
        caller.wait()
        _wait_gone([int(p.name) for p in pid_dir.iterdir()], seconds=5.0)


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
    assert np.array_equal(a.archive.perms, b.archive.perms)
    assert np.array_equal(a.archive.objs, b.archive.objs)


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
    normalized = normalize_fronts(bounds_fronts)
    split = [normalized[i] for i in range(len(bounds_fronts))]
    global_front = non_dominated(np.concatenate(normalized))
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
        fronts = [results[a].archive.objs.astype(float) for a in ("memetic", "nsga2")]
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
    inst = _instance(n=4, m=3)
    checks = []
    draws = []
    original = mqap.island._make_offspring

    def checking_offspring(instance, perms, fitness, config, rng):
        # The tournaments draw on these keys; they must rank this population.
        assert len(perms) == config.population
        checks.append(list(fitness) == rank_and_crowd(evaluate_batch(instance, perms)))
        return original(instance, perms, fitness, config, rng)

    def counting_random_permutations(n, count, rng):
        draws.extend([1] * count)
        return random_permutations(n, count, rng)

    monkeypatch.setattr(mqap.island, "_make_offspring", checking_offspring)
    monkeypatch.setattr(mqap.island, "random_permutations", counting_random_permutations)
    run_island(config, inst, SEED)
    assert len(draws) > config.population, "no refill happened"
    assert checks and all(checks)


@pytest.mark.parametrize("n", [4, 10])
def test_archive_candidates_count_every_offered_solution(n, monkeypatch):
    # A lone NSGA-II island offers its initial population, one population
    # of offspring per generation and every refill; n=4 has 24 permutations,
    # so a population of 30 is refilled every generation.
    draws = []

    def counting_random_permutations(n, count, rng):
        draws.append(count)
        return random_permutations(n, count, rng)

    monkeypatch.setattr(mqap.island, "random_permutations", counting_random_permutations)
    config = _config(algorithm="nsga2", population=30, generations=8)
    result = run_island(config, _instance(n=n, m=3), SEED)
    refills = sum(draws) - config.population
    assert (refills > 0) == (n == 4)
    assert result.stats.archive_candidates == config.population * (config.generations + 1) + refills


def test_memetic_island_does_not_offer_the_archive_its_own_members(monkeypatch):
    # The local search's working set starts with the archive's members; the
    # insert that follows the search must offer only the rows after them.
    overlaps, searched = [], []
    search, insert = mqap.island.dominance_based_local_search, Archive.insert

    def recording_search(rows, *args, **kwargs):
        searched.append(rows.perms.copy())
        return search(rows, *args, **kwargs)

    def recording_insert(archive, perms, objs):
        if searched:  # the first insert after a search
            assert np.array_equal(searched.pop()[: len(archive)], archive.perms)
            members = {perm.tobytes() for perm in archive.perms}
            overlaps.append(len(members & {perm.tobytes() for perm in perms}))
        return insert(archive, perms, objs)

    monkeypatch.setattr(mqap.island, "dominance_based_local_search", recording_search)
    monkeypatch.setattr(Archive, "insert", recording_insert)
    config = _config(algorithm="memetic", generations=5, ls_secs=1e6)
    run_island(config, _instance(), SEED)
    assert overlaps == [0] * config.generations


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_archive_evictions_match_the_eviction_log(algorithm, eviction_log):
    config = _config(algorithm=algorithm, archive_capacity=3, generations=8)
    result = run_island(config, _instance(m=3), SEED)
    assert result.stats.archive_evictions == len(eviction_log) > 0


def test_migrant_keys_are_rank_and_crowd_keys(monkeypatch):
    archive = Archive(capacity=10)
    archive.insert(
        [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0], [0, 3, 2, 1], [0, 2, 1, 3]],
        # Rows 0 and 2 share objectives with distinct permutations.
        [(2, 6), (4, 4), (2, 6), (6, 2), (4, 4), (5, 3)],
    )
    assert len(archive) == 6
    keys, winners = [], []

    def recording_tournament(fitness, rng):
        keys.append(list(fitness))
        winners.append(tournament_select(fitness, rng))
        return winners[-1]

    monkeypatch.setattr(mqap.island, "tournament_select", recording_tournament)
    perms, objs = mqap.island._select_migrants(archive, _config(migrants=2), Rng(0))
    assert keys == [rank_and_crowd(archive.objs)] * 2
    assert np.array_equal(perms, archive.perms[winners])
    assert np.array_equal(objs, archive.objs[winners])
