import json
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mqap.island
from mqap import (
    IslandConfig,
    Rng,
    check_migrants,
    dominates,
    run_fleet,
    run_island,
)
from mqap.evaluation import random_solution, random_solutions
from mqap.genetics import tournament_select
from mqap.instance import Instance, InstanceSpec, generate_uniform
from mqap.island import IslandError, send_migrants
from mqap.metrics import hypervolume, non_dominated, normalize_fronts, reference_point
from mqap.ranking import rank_and_crowd
from mqap.runner import ExperimentConfig, run_experiment

from conftest import brute_force_non_dominated


def _config(**overrides):
    base = dict(
        island_id=0,
        population_size=10,
        epoch=5,
        migrants=2,
        g_max=5,
        pb_c=0.9,
        pb_m=0.05,
        ls_secs=0.05,
        seed=3,
        archive_capacity=50,
    )
    base.update(overrides)
    return IslandConfig(**base)


def _instance(n=10, m=2, seed=1):
    return generate_uniform(InstanceSpec(n=n, m=m, correlation=0.0, seed=seed))


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_zero_generations_archives_non_dominated_initials(algorithm):
    inst = _instance()
    config = _config(g_max=0, algorithm=algorithm)
    result = run_island(config, inst)
    rng = Rng(config.seed)
    initial = [random_solution(inst, rng) for _ in range(config.population_size)]
    expected = brute_force_non_dominated([s.objectives for s in initial])
    assert {s.objectives for s in result.archive.members} == expected
    assert result.stats.generations == 0


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_archive_mutually_non_dominated(algorithm):
    result = run_island(_config(algorithm=algorithm), _instance())
    members = result.archive.members
    assert members
    for a in members:
        assert not any(dominates(b.objectives, a.objectives) for b in members if b is not a)


def _inboxes(count):
    return [queue.SimpleQueue() for _ in range(count)]


@pytest.mark.parametrize("algorithm", ["memetic", "nsga2"])
def test_send_event_count_matches_epoch(algorithm):
    # Wired inboxes but a sequential run: exactly floor(g_max/epoch) sends.
    result = run_island(_config(algorithm=algorithm, g_max=12, epoch=5), _instance(), _inboxes(2))
    assert result.stats.send_events == 2
    assert result.stats.migrants_sent == 2 * 2 * 1  # migrants x events x neighbors


def test_migration_roundtrip_sequential():
    inst = _instance()
    inboxes = _inboxes(2)
    sender = run_island(_config(island_id=0, epoch=1, g_max=4), inst, inboxes)
    assert sender.stats.send_events == 4
    receiver = run_island(_config(island_id=1, seed=4, epoch=1, g_max=4), inst, inboxes)
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
    configs = [
        _config(island_id=i, seed=100 + i, g_max=6, epoch=2, population_size=8)
        for i in range(3)
    ]
    fleet = run_fleet(inst, configs)
    assert len(fleet.islands) == 3
    assert fleet.front
    for sol in fleet.front:
        assert not any(
            dominates(other.objectives, sol.objectives) for other in fleet.front if other is not sol
        )
    received = sum(r.stats.migrants_received for r in fleet.islands)
    sent = sum(r.stats.migrants_sent for r in fleet.islands)
    assert sent > 0 and received <= sent


def test_fleet_rejects_bad_island_ids():
    inst = _instance(n=6)
    with pytest.raises(ValueError):
        run_fleet(inst, [_config(island_id=3)])
    with pytest.raises(ValueError):
        run_fleet(inst, [])


def _failing_island(failing_id, how):
    original = mqap.island.run_island

    def run_island(config, *args):
        if config.island_id == failing_id:
            if how == "exit":
                os._exit(3)
            raise RuntimeError("injected island failure")
        return original(config, *args)

    return run_island


@pytest.mark.parametrize(
    "failing_id, how, expected",
    [
        (0, "raise", "island 0 failed: RuntimeError('injected island failure')"),
        (1, "raise", "RuntimeError: injected island failure"),
        (1, "exit", "island 1 exited with code 3 before sending its result"),
    ],
)
def test_fleet_failure_names_the_island_and_leaves_no_process(
    monkeypatch, failing_id, how, expected
):
    # Forked children inherit the patched module global.
    monkeypatch.setattr(mqap.island, "run_island", _failing_island(failing_id, how))
    configs = [_config(island_id=i, seed=40 + i, algorithm="nsga2", g_max=30) for i in range(3)]
    with pytest.raises(IslandError) as excinfo:
        run_fleet(_instance(n=8), configs)
    assert f"island {failing_id}" in str(excinfo.value)
    assert expected in str(excinfo.value)
    assert multiprocessing.active_children() == []


def _feeder_threads():
    return {t for t in threading.enumerate() if t.name == "QueueFeederThread"}


@pytest.mark.parametrize("short_island", [0, 1])
def test_unread_inbox_of_a_finished_island_does_not_block_shutdown(short_island):
    # One island stops after a generation while the other sends it 20
    # migrants a generation for 400 generations: megabytes, far beyond the
    # 64 KiB a pipe holds unread.
    configs = [
        _config(
            island_id=i,
            seed=60 + i,
            algorithm="nsga2",
            population_size=10,
            g_max=1 if i == short_island else 400,
            epoch=1,
            migrants=20,
        )
        for i in range(2)
    ]
    feeders_before = _feeder_threads()
    done = []
    runner = threading.Thread(
        target=lambda: done.append(run_fleet(_instance(n=20), configs)), daemon=True
    )
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run_fleet hung on an unread inbox"
    stats = [r.stats for r in done[0].islands]
    assert [st.generations for st in stats] == [cfg.g_max for cfg in configs]
    assert stats[1 - short_island].migrants_sent == 400 * 20
    assert multiprocessing.active_children() == []
    # Island 0's queue feeder threads flush and exit once the fleet is closed.
    deadline = time.monotonic() + 10
    while _feeder_threads() - feeders_before:
        assert time.monotonic() < deadline, "a queue feeder thread is still blocked"
        time.sleep(0.01)


def test_parallel_trials_fork_fleets_from_pool_threads(tmp_path):
    config = ExperimentConfig(
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
    result = run_experiment(config)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [rec["trial"] for rec in manifest["trial_records"]] == [0, 1, 2]
    for record in result.trials:
        assert len(record.islands) == 2
        assert all(st.generations == 6 for st in record.islands)
        rows = (tmp_path / record.front_file).read_text().splitlines()
        assert len([r for r in rows if not r.startswith("!")]) == record.front_size > 0
    assert multiprocessing.active_children() == []


def test_fleet_forks_while_another_thread_computes_a_cached_instance_operand(monkeypatch):
    # A trial thread can fork its islands while another trial thread is in
    # the middle of a first use of an instance's cached operands.
    original = Instance.flow_columns.func
    busy, release = threading.Event(), threading.Event()

    def slow_flow_columns(instance):
        if threading.current_thread() is holder:
            busy.set()
            release.wait(60)
        return original(instance)

    monkeypatch.setattr(Instance.flow_columns, "func", slow_flow_columns)
    holder = threading.Thread(target=lambda: _instance(n=7).flow_columns, daemon=True)
    holder.start()
    assert busy.wait(10)
    configs = [_config(island_id=i, seed=80 + i, algorithm="nsga2") for i in range(2)]
    fleets = []
    runner = threading.Thread(
        target=lambda: fleets.append(run_fleet(_instance(n=8), configs)), daemon=True
    )
    runner.start()
    runner.join(timeout=60)
    release.set()
    holder.join(timeout=10)
    assert fleets, "a forked island waited on a lock another thread held at the fork"
    assert multiprocessing.active_children() == []


def test_importing_mqap_does_not_import_multiprocessing():
    src = Path(mqap.island.__file__).resolve().parents[1]
    probe = "import sys, mqap; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_single_island_determinism_in_memory():
    inst = _instance(n=9)
    config = _config(g_max=6, ls_secs=5.0)
    a = run_island(config, inst)
    b = run_island(config, inst)
    key = lambda r: sorted((s.objectives, tuple(s.perm.tolist())) for s in r.archive.members)  # noqa: E731
    assert key(a) == key(b)


def test_population_size_restored_every_generation():
    # Indirect check: a run long enough to exercise truncation both ways
    # still produces a healthy archive and completes all generations.
    result = run_island(_config(g_max=8, population_size=6), _instance(n=8))
    assert result.stats.generations == 8


def test_time_budget_halts_early():
    config = _config(g_max=10_000, time_budget=0.3, ls_secs=0.01)
    start = time.monotonic()
    result = run_island(config, _instance(n=12))
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
            config = _config(
                algorithm=algorithm,
                seed=1000 + seed,
                g_max=15,
                population_size=12,
                ls_secs=0.1,
            )
            results[algorithm] = run_island(config, inst)
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
        population_size=30,
        archive_capacity=2,
        g_max=15,
        ls_secs=1e6,
    )
    checks = []
    draws = []

    def checking_tournament(pool, k, fitness, rng):
        if len(pool) == config.population_size:
            checks.append(list(fitness) == rank_and_crowd(pool))
        return tournament_select(pool, k, fitness, rng)

    def counting_random_solutions(instance, rng, count):
        draws.extend([1] * count)
        return random_solutions(instance, rng, count)

    monkeypatch.setattr(mqap.island, "tournament_select", checking_tournament)
    monkeypatch.setattr(mqap.island, "random_solutions", counting_random_solutions)
    run_island(config, _instance(n=4, m=3))
    assert len(draws) > config.population_size, "no refill happened"
    assert checks and all(checks)
