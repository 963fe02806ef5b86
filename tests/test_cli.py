import importlib
import json
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mqap
from mqap import Instance, InstanceSpec, MqapError, evaluate_batch, load_instance
from mqap.cli import build_parser, main, parse_config_file, parse_gen_spec
from mqap.runner import (
    ISLAND_SEED_STRIDE,
    ExperimentConfig,
    default_population,
    enumerate_front,
    load_result_set,
    read_front_file,
    write_front_file,
)

from conftest import brute_force_non_dominated

REPO = Path(__file__).resolve().parent.parent


def _run(argv):
    return main([str(a) for a in argv])


def _gen_instance(tmp_path, n=7, seed=3, m=2):
    path = tmp_path / f"inst{n}.txt"
    assert _run(["gen", "--n", n, "--m", m, "--seed", seed, "--out", path]) == 0
    return path


def test_gen_round_trip(tmp_path):
    path = _gen_instance(tmp_path)
    inst = load_instance(path)
    assert inst.n == 7 and inst.m == 2
    assert inst.metadata["type"] == "uniform"


def test_run_single_trial_outputs(tmp_path, capsys):
    inst_path = _gen_instance(tmp_path)
    out = tmp_path / "results"
    code = _run(
        ["run", "--instance", inst_path, "--islands", 1, "--trials", 1, "--seed", 5,
         "--generations", 5, "--ls-secs", 0.2, "--out", out]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["trial_records"]) == 1
    front_file = out / manifest["trial_records"][0]["front_file"]
    assert front_file.exists()
    header, _, objectives = read_front_file(front_file)
    assert header["instance"] == manifest["instance"]
    assert len(objectives)
    objs = list(map(tuple, objectives.tolist()))
    assert set(objs) <= brute_force_non_dominated(objs)


def test_manifest_references_every_front_file_once(tmp_path):
    inst_path = _gen_instance(tmp_path)
    out = tmp_path / "results"
    _run(["run", "--instance", inst_path, "--islands", 2, "--trials", 3, "--seed", 1,
          "--generations", 4, "--ls-secs", 0.05, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    referenced = [rec["front_file"] for rec in manifest["trial_records"]]
    assert len(referenced) == len(set(referenced)) == 3
    on_disk = sorted(p.name for p in out.glob("*.front"))
    assert sorted(referenced) == on_disk


def test_trial_seed_derivation(tmp_path):
    inst_path = _gen_instance(tmp_path)
    out = tmp_path / "results"
    _run(["run", "--instance", inst_path, "--islands", 1, "--trials", 3, "--seed", 40,
          "--generations", 2, "--ls-secs", 0.05, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    assert [rec["seed"] for rec in manifest["trial_records"]] == [40, 41, 42]


def test_islands_beyond_the_seed_stride_are_rejected():
    # Island 1000 of trial t would take the seed of island 0 of trial t + 1.
    spec = InstanceSpec(n=6, m=2)
    assert ExperimentConfig(gen_spec=spec, island_count=ISLAND_SEED_STRIDE)
    with pytest.raises(ValueError, match=r"^islands must be <= 1000, got 1001$"):
        ExperimentConfig(gen_spec=spec, island_count=1001)


def test_migrant_counter_arithmetic(tmp_path):
    # 3 islands, epoch 2, 2 migrants, 6 generations: every island sends
    # 2 migrants to 2 neighbors on 3 occasions.
    inst_path = _gen_instance(tmp_path, n=8)
    out = tmp_path / "results"
    _run(["run", "--instance", inst_path, "--islands", 3, "--trials", 1, "--seed", 2,
          "--generations", 6, "--epoch", 2, "--migrants", 2, "--ls-secs", 0.05,
          "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    stats = manifest["trial_records"][0]["islands"]
    assert len(stats) == 3
    for st in stats:
        assert st["generations"] == 6
        assert st["send_events"] == 3
        assert st["migrants_sent"] == 2 * 2 * 3
        # Forked islands report their archive work too: the initial 34,
        # 34 offspring per generation and every migrant at least.
        assert st["archive_candidates"] >= 34 * 7 + st["migrants_received"]


def test_migrant_counters_eleven_islands(tmp_path):
    # Full complete-topology arithmetic: 2 migrants x 10 neighbors x g/5 sends.
    inst_path = _gen_instance(tmp_path, n=10)
    out = tmp_path / "results11"
    _run(["run", "--instance", inst_path, "--islands", 11, "--trials", 1, "--seed", 3,
          "--generations", 5, "--ls-secs", 0.02, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    stats = manifest["trial_records"][0]["islands"]
    assert len(stats) == 11
    for st in stats:
        assert st["generations"] == 5
        assert st["migrants_sent"] == 2 * 10 * 1


def test_default_population_sizing():
    assert [default_population(k) for k in (5, 8, 11, 16, 21)] == [20, 13, 10, 13, 13]
    assert default_population(1) == 100


def test_single_island_runs_are_reproducible(tmp_path):
    inst_path = _gen_instance(tmp_path, n=9)
    args = ["run", "--instance", inst_path, "--islands", 1, "--trials", 2, "--seed", 11,
            "--generations", 6, "--ls-secs", 5, "--population", 12]
    _run(args + ["--out", tmp_path / "a"])
    _run(args + ["--out", tmp_path / "b"])
    for name in ("trial_0000.front", "trial_0001.front"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_file_with_flag_overrides(tmp_path):
    inst_path = _gen_instance(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"instance={inst_path}\n"
        "islands=1\n"
        "trials=2   # overridden below\n"
        "generations=3\n"
        "ls_secs=0.05\n"
        f"out={tmp_path / 'cfgrun'}\n"
    )
    assert _run(["run", "--config", cfg, "--trials", 1]) == 0
    manifest = json.loads((tmp_path / "cfgrun" / "manifest.json").read_text())
    assert manifest["trials"] == 1
    assert manifest["generations"] == 3


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


def test_gen_spec_parsing():
    spec = parse_gen_spec("n=30,m=2,correlation=-0.3,seed=7,max_value=50")
    assert (spec.n, spec.m, spec.correlation, spec.seed, spec.max_value) == (30, 2, -0.3, 7, 50)


def test_run_with_generator_spec(tmp_path):
    out = tmp_path / "genrun"
    code = _run(["run", "--gen-spec", "n=8,m=2,seed=4", "--islands", 1, "--trials", 1,
                 "--generations", 3, "--ls-secs", 0.05, "--out", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["instance"].startswith("uniform-n8")


def test_enumerate_command(tmp_path, capsys):
    inst_path = tmp_path / "tiny.txt"
    inst_path.write_text("2\n0 1\n1 0\n0 3\n2 0\n")
    assert _run(["enumerate", "--instance", inst_path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert len(lines) in (1, 2)


def test_enumerate_guard():
    from mqap.instance import InstanceSpec, generate_uniform

    big = generate_uniform(InstanceSpec(n=11, m=2, correlation=0.0, seed=0))
    with pytest.raises(MqapError, match="exceeds the n<=10 guard"):
        enumerate_front(big)


# n=2, m=4 with entries near 2^30: every cost fits in int64, but the sum of
# the four costs of assignment 1 0 does not, and its exact front is row 0 1.
WRAP_AROUND = Instance(
    n=2,
    distances=[[775551898, 773194713], [823744496, 638135772]],
    flows=(
        [[803437962, 611596352], [725760348, 956663153]],
        [[575789219, 1060835418], [670835199, 642130130]],
        [[686021893, 760258456], [940154632, 951118317]],
        [[822784119, 583955701], [610098798, 833141700]],
    ),
)


def test_enumerate_front_matches_brute_force(np_rng):
    from conftest import random_instance
    import itertools

    for inst in (random_instance(np_rng, 5, 2), WRAP_AROUND):
        perms, objs = enumerate_front(inst)
        assert perms.dtype == objs.dtype == np.int64
        assert np.array_equal(objs, evaluate_batch(inst, perms))
        all_objs = evaluate_batch(inst, list(itertools.permutations(range(inst.n))))
        expected = brute_force_non_dominated([tuple(o) for o in all_objs.tolist()])
        assert {tuple(o) for o in objs.tolist()} == expected
    assert enumerate_front(WRAP_AROUND).perms.tolist() == [[0, 1]]


def test_hv_command(tmp_path, capsys):
    front_path = tmp_path / "f.front"
    write_front_file(front_path, [[0, 1], [1, 0]], [[25, 75], [50, 50]], {"instance": "demo"})
    assert _run(["hv", "--front", front_path, "--ref", "100,100"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(3125.0)


def _write_bad_inputs(directory):
    """Front and result-directory files that the bad-input cases point at."""
    write_front_file(directory / "two.front", [[0, 1]], [[25, 75]], {"instance": "demo"})
    write_front_file(directory / "empty.front", [], [], {"instance": "demo"})
    (directory / "malformed.front").write_text("0 1 | 3 x\n", encoding="utf-8")
    (directory / "ragged.front").write_text(
        "! instance=demo\n0 1 | 3 4\n1 0 | 5 6 7\n", encoding="utf-8"
    )
    # Tokens beyond int64, and a row whose permutation is longer than the first row's.
    for name, row in (
        ("huge", "1 0 | 5 99999999999999999999"),
        ("huge-perm", "99999999999999999999 0 | 5 6"),
        ("ragged-perm", "1 0 2 | 5 6"),
    ):
        text = f"! instance=demo\n0 1 | 3 4\n{row}\n"
        (directory / f"{name}.front").write_text(text, encoding="utf-8")
    (directory / "huge.qap").write_text("2\n0 1\n1 0\n0 3\n2 99999999999999999999\n", encoding="utf-8")
    # The second flow matrix's rows start with a sign: data, not comments.
    (directory / "signed.qap").write_text("2\n0 1\n1 0\n0 3\n2 0\n-1 4\n-2 0\n", encoding="utf-8")
    (directory / "latin1.qap").write_bytes("! name=café\n2\n0 1\n1 0\n0 3\n2 0\n".encode("latin-1"))
    (directory / "latin1.front").write_bytes("! instance=café\n0 1 | 3 4\n".encode("latin-1"))
    (directory / "tiny.qap").write_text("2\n0 1\n1 0\n0 3\n2 0\n", encoding="utf-8")
    for name, manifest in (
        ("not-json", "{trial_records"),
        ("no-records", '{"instance": "x"}'),
        ("empty-records",
         '{"instance": "demo", "algorithm": "memetic", "islands": 1, "trial_records": []}'),
    ):
        (directory / name).mkdir()
        (directory / name / "manifest.json").write_text(manifest, encoding="utf-8")
    # One-trial result directories: a valid one, one whose front holds no points, and three
    # whose fronts the reader rejects.
    for name, instance, front, encoding in (
        ("one-trial", "demo", "0 1 | 25 75\n", "utf-8"),
        ("no-points", "blank", "", "utf-8"),
        ("huge-trial", "demo", "0 1 | 25 75\n1 0 | 5 99999999999999999999\n", "utf-8"),
        ("ragged-trial", "demo", "0 1 | 25 75\n1 0 | 5 6 7\n", "utf-8"),
        ("latin1-trial", "café", "0 1 | 25 75\n", "latin-1"),
    ):
        (directory / name).mkdir()
        (directory / name / "trial_0000.front").write_text(
            f"! instance={instance}\n{front}", encoding=encoding
        )
        manifest = {"instance": instance, "algorithm": "memetic", "islands": 1,
                    "trial_records": [{"trial": 0, "seed": 0, "front_file": "trial_0000.front"}]}
        (directory / name / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


# (id, argv, the setting the error must name or None)
BAD_INPUTS = [
    ("zero-trials", ["run", "--gen-spec", "n=6,m=2", "--trials", 0], None),
    ("spec-without-n", ["run", "--gen-spec", "m=2"], None),
    ("spec-n1", ["run", "--gen-spec", "n=1,m=2"], "n"),
    ("spec-negative-seed", ["run", "--gen-spec", "n=8,m=2,seed=-3"], "seed"),
    ("spec-unknown-key",
     ["run", "--gen-spec", "n=6,m=2,corelation=0.9", "--trials", 1, "--generations", 1],
     "corelation"),
    ("spec-trailing-comma",
     ["run", "--gen-spec", "n=6,m=2,", "--trials", 1, "--generations", 1], None),
    ("spec-infeasible-correlation",
     ["run", "--gen-spec", "n=3,m=2,correlation=1", "--trials", 1, "--generations", 1],
     "correlation"),
    ("spec-max-value-beyond-int64",
     ["run", "--gen-spec", "n=5,m=2,max_value=100000000000000000000"], "max_value"),
    ("instance-entry-beyond-int64", ["run", "--instance", "huge.qap"], "99999999999999999999"),
    ("instance-not-utf8", ["run", "--instance", "latin1.qap"], "latin1.qap"),
    ("instance-row-starting-negative", ["run", "--instance", "signed.qap"], "non-negative"),
    ("enumerate-instance-not-utf8", ["enumerate", "--instance", "latin1.qap"], "latin1.qap"),
    ("migrants-over-capacity",
     ["run", "--gen-spec", "n=6,m=2", "--islands", 2, "--migrants", 500], None),
    ("population-0", ["run", "--gen-spec", "n=6,m=2", "--population", 0], None),
    ("parallel-trials-0",
     ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--parallel-trials", 0], None),
    ("parallel-trials-negative",
     ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--parallel-trials", -3], None),
    ("ls-secs-nan",
     ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--generations", 1, "--ls-secs", "nan"],
     None),
    ("negative-seed",
     ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--generations", 1, "--seed", -1], None),
    ("time-budget-nan",
     ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--generations", 1,
      "--time-budget-secs", "nan"], None),
    ("missing-front", ["hv", "--front", "missing.front"], None),
    ("gen-n1", ["gen", "--n", 1, "--m", 2, "--out", "results"], "n"),
    ("gen-m0", ["gen", "--n", 5, "--m", 0, "--out", "results"], "m"),
    ("gen-negative-seed", ["gen", "--n", 5, "--m", 2, "--seed", -3, "--out", "results"], "seed"),
    ("gen-correlation-2",
     ["gen", "--n", 5, "--m", 2, "--correlation", 2, "--out", "results"], "correlation"),
    ("gen-max-value-beyond-int64",
     ["gen", "--n", 5, "--m", 2, "--max-value", 10**20, "--out", "results"], "max_value"),
    ("hv-ref-not-a-number", ["hv", "--front", "two.front", "--ref", "1,abc"], "--ref"),
    ("hv-ref-wrong-dimension", ["hv", "--front", "two.front", "--ref", "100,100,100"], "--ref"),
    ("hv-ref-nan", ["hv", "--front", "two.front", "--ref", "nan,nan"], "--ref"),
    ("hv-ref-inf", ["hv", "--front", "two.front", "--ref", "inf,inf"], "--ref"),
    ("hv-offset-nan", ["hv", "--front", "two.front", "--offset", "nan"], "--offset"),
    ("hv-offset-zero", ["hv", "--front", "two.front", "--offset", "0"], "--offset"),
    ("hv-offset-negative", ["hv", "--front", "two.front", "--offset", "-0.5"], "--offset"),
    ("hv-empty-front", ["hv", "--front", "empty.front"], None),
    ("hv-malformed-front", ["hv", "--front", "malformed.front"], None),
    ("hv-ragged-front", ["hv", "--front", "ragged.front"], "line 3"),
    ("hv-ragged-permutation", ["hv", "--front", "ragged-perm.front"], "line 3"),
    ("hv-objective-beyond-int64", ["hv", "--front", "huge.front"], "line 3"),
    ("hv-permutation-beyond-int64", ["hv", "--front", "huge-perm.front"], "line 3"),
    ("compare-manifest-not-json", ["compare", "not-json", "not-json"], None),
    ("compare-manifest-without-records", ["compare", "no-records", "no-records"], None),
    ("compare-manifest-with-empty-records",
     ["compare", "empty-records", "one-trial"], "empty-records/manifest.json"),
    ("compare-alpha-2", ["compare", "one-trial", "one-trial", "--alpha", 2], "--alpha"),
    ("compare-alpha-1", ["compare", "one-trial", "one-trial", "--alpha", 1], "--alpha"),
    ("compare-alpha-0", ["compare", "one-trial", "one-trial", "--alpha", 0], "--alpha"),
    ("compare-alpha-negative", ["compare", "one-trial", "one-trial", "--alpha", -1], "--alpha"),
    ("compare-alpha-nan", ["compare", "one-trial", "one-trial", "--alpha", "nan"], "--alpha"),
    ("compare-no-points", ["compare", "no-points", "no-points"], "blank"),
    ("compare-objective-beyond-int64", ["compare", "huge-trial", "one-trial"], "line 3"),
    ("compare-ragged-front", ["compare", "one-trial", "ragged-trial"], "trial_0000.front: line 3"),
    ("instance-and-gen-spec",
     ["run", "--instance", "tiny.qap", "--gen-spec", "n=7,m=3", "--trials", 1, "--generations", 1],
     "--gen-spec"),
    ("run-out-under-a-file",
     ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--generations", 1, "--out", "two.front/r"],
     "two.front/r"),
    ("enumerate-out-in-missing-dir",
     ["enumerate", "--instance", "tiny.qap", "--out", "nodir/e.front"], "nodir/e.front"),
    ("gen-out-in-missing-dir", ["gen", "--n", 5, "--m", 2, "--out", "nodir/x.qap"], "nodir/x.qap"),
    ("compare-csv-in-missing-dir",
     ["compare", "one-trial", "one-trial", "--csv", "nodir/c.csv"], "nodir/c.csv"),
    ("hv-front-not-utf8", ["hv", "--front", "latin1.front"], "latin1.front"),
    ("compare-front-not-utf8", ["compare", "latin1-trial", "one-trial"], "trial_0000.front"),
]


@pytest.mark.parametrize(
    "argv, named", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    _write_bad_inputs(tmp_path)
    if argv[0] == "run" and "--out" not in argv:
        argv = argv + ["--out", "results"]
    assert _run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    if named is not None:
        assert re.search(rf"(?<![\w-]){re.escape(named)}\b", err), err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "setting, value",
    [("archive_capacity", 0), ("epoch", 0), ("migrants", 0), ("population", 1), ("parallel_trials", 0),
     ("generations", -1), ("seed", -1), ("time_budget_secs", "nan"), ("islands", 0), ("pc", 2),
     ("pm", -1)],
    ids=lambda v: str(v),
)
def test_bad_run_setting_is_named_in_the_error(tmp_path, capsys, setting, value):
    # One short trial, so a setting that slips through fails fast.
    flag = "--" + setting.replace("_", "-")
    argv = ["run", "--gen-spec", "n=6,m=2", "--trials", 1, "--generations", 1, flag, value,
            "--out", tmp_path / "results"]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    # As a whole word: population_size or g_max would name the island field.
    assert err.startswith("error: ") and re.search(rf"\b{setting}\b", err), err


def test_every_exception_class_is_an_mqap_error():
    # cli.main reports MqapError and OSError; any other class would end in a traceback.
    names = [info.name for info in pkgutil.iter_modules(mqap.__path__)]
    for module in [mqap] + [importlib.import_module(f"mqap.{name}") for name in names]:
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                assert issubclass(obj, MqapError), obj


def test_manifest_holds_every_resolved_setting(tmp_path):
    out = tmp_path / "results"
    _run(["run", "--gen-spec", "n=6,m=2,seed=4", "--islands", 2, "--trials", 1,
          "--generations", 2, "--pc", 0.7, "--ls-secs", 0.05, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    doc = (REPO / "docs" / "instance-format.md").read_text(encoding="utf-8")
    section = doc.split("## Manifests")[1].split("\n## ")[0]
    documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
    for setting in fields(ExperimentConfig):
        assert setting.name in manifest, setting.name
        assert setting.name in documented, setting.name
    # The section names top-level keys, trial record keys and island statistics.
    assert documented <= set(manifest) | set(manifest["trial_records"][0]["islands"][0])
    assert manifest["islands"] == manifest["island_count"] == 2
    assert manifest["population"] == default_population(2)
    assert (manifest["pb_c"], manifest["pb_m"], manifest["ls_secs"]) == (0.7, 0.01, 0.05)
    assert manifest["gen_spec"]["n"] == 6 and manifest["instance_path"] is None
    assert manifest["mqap_version"] == mqap.__version__
    assert manifest["numpy_version"] == np.__version__
    # Entries up to 100 at n=6: 4(n+1) * 100 * 100 is far below 2^24.
    assert manifest["swap_kernel_dtype"] == "float32"
    # n^2 * 100 * 100 bounds every cost sum, also far below 2^24.
    assert manifest["evaluation_dtype"] == "float32"
    stats = manifest["trial_records"][0]["islands"]
    assert [st["island_id"] for st in stats] == [0, 1]


def test_compare_set_with_itself(tmp_path, capsys):
    inst_path = _gen_instance(tmp_path)
    out = tmp_path / "res"
    _run(["run", "--instance", inst_path, "--islands", 1, "--trials", 4, "--seed", 9,
          "--generations", 4, "--ls-secs", 0.05, "--out", out])
    assert _run(["compare", out, out]) == 0
    text = capsys.readouterr().out
    assert "p=1.0000" in text


def _write_synthetic_result(directory, instance, label_seed, fronts):
    directory.mkdir(parents=True)
    records = []
    for idx, front in enumerate(fronts):
        name = f"trial_{idx:04d}.front"
        perms = [np.roll(np.arange(4), k) for k in range(len(front))]
        write_front_file(directory / name, perms, front, {"instance": instance, "seed": str(idx)})
        records.append(
            {"trial": idx, "seed": idx, "front_file": name, "front_size": len(front),
             "wall_time": 0.0, "islands": []}
        )
    (directory / "manifest.json").write_text(
        json.dumps(
            {"instance": instance, "algorithm": f"alg{label_seed}", "islands": 1,
             "trials": len(fronts), "base_seed": 0, "generations": 0, "epoch": 5,
             "migrants": 2, "trial_records": records}
        )
    )


def test_compare_detects_strict_domination(tmp_path, capsys):
    good = [[(10 + t, 30 - t), (12 + t, 25 - t)] for t in range(12)]
    bad = [[(40 + t, 60 - t), (45 + t, 55 - t)] for t in range(12)]
    _write_synthetic_result(tmp_path / "good", "synth", 1, good)
    _write_synthetic_result(tmp_path / "bad", "synth", 2, bad)
    assert _run(["compare", tmp_path / "good", tmp_path / "bad", "--alpha", 0.05]) == 0
    text = capsys.readouterr().out
    good_mean = float(text.split("alg1/1")[1].split()[0])
    bad_mean = float(text.split("alg2/1")[1].split()[0])
    assert good_mean > bad_mean
    assert "significant at 0.05" in text and "not significant" not in text


def test_compare_is_order_insensitive(tmp_path, capsys):
    a = [[(10 + t, 30 - t)] for t in range(5)]
    b = [[(12 + t, 33 - t)] for t in range(5)]
    _write_synthetic_result(tmp_path / "a", "synth", 1, a)
    _write_synthetic_result(tmp_path / "b", "synth", 2, b)
    _run(["compare", tmp_path / "a", tmp_path / "b"])
    first = capsys.readouterr().out
    _run(["compare", tmp_path / "b", tmp_path / "a"])
    second = capsys.readouterr().out

    def extract(text):
        means = {}
        p = None
        for line in text.splitlines():
            parts = line.split()
            if line.startswith("  alg"):
                means[parts[0]] = parts[1]
            if "rank-sum" in line:
                p = line.split("p=")[1].split()[0]
        return means, p

    assert extract(first) == extract(second)


def test_compare_instance_mismatch(tmp_path, capsys):
    _write_synthetic_result(tmp_path / "x", "inst-one", 1, [[(1, 2)]] * 3)
    _write_synthetic_result(tmp_path / "y", "inst-two", 2, [[(1, 2)]] * 3)
    sets = [load_result_set(tmp_path / "x"), load_result_set(tmp_path / "y")]
    from mqap.runner import compare_result_sets

    with pytest.raises(MqapError, match="appears in only one result set"):
        compare_result_sets(sets)
    # The CLI reports domain errors instead of dumping a traceback.
    assert _run(["compare", tmp_path / "x", tmp_path / "y"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_rejects_fronts_with_different_objective_counts(tmp_path, capsys):
    two = [[(10 + t, 30 - t), (12 + t, 25 - t)] for t in range(3)]
    three = [[(10 + t, 30 - t, 5), (12 + t, 25 - t, 7)] for t in range(3)]
    _write_synthetic_result(tmp_path / "two", "synth", 1, two)
    _write_synthetic_result(tmp_path / "three", "synth", 2, three)
    from mqap.runner import compare_result_sets

    sets = [load_result_set(tmp_path / "two"), load_result_set(tmp_path / "three")]
    with pytest.raises(MqapError, match="objective counts"):
        compare_result_sets(sets)
    assert _run(["compare", tmp_path / "two", tmp_path / "three"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_read_front_file_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.front"
    path.write_text("! instance=demo\n0 1 | 3 4\n\n1 0 | 5 6 7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4 holds 3 objectives, the first row 2"):
        read_front_file(path)
    path.write_text("0 1 | 3 4\n1 0 |\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2 holds no objectives"):
        read_front_file(path)


def test_compare_with_too_few_trials_reports_na(tmp_path, capsys):
    a = [[(10 + t, 30 - t)] for t in range(2)]
    b = [[(12 + t, 33 - t)] for t in range(2)]
    _write_synthetic_result(tmp_path / "na1", "synth", 1, a)
    _write_synthetic_result(tmp_path / "na2", "synth", 2, b)
    assert _run(["compare", tmp_path / "na1", tmp_path / "na2"]) == 0
    assert "p=n/a" in capsys.readouterr().out


def test_compare_on_tied_hypervolumes_is_not_significant(tmp_path, capsys):
    # Every trial holds the same one-point front, so every per-trial hypervolume ties.
    tied = [[(10, 30)]] * 3
    _write_synthetic_result(tmp_path / "t1", "synth", 1, tied)
    _write_synthetic_result(tmp_path / "t2", "synth", 2, tied)
    assert _run(["compare", tmp_path / "t1", tmp_path / "t2"]) == 0
    assert "p=1.0000 (not significant)" in capsys.readouterr().out


def test_compare_csv_output(tmp_path, capsys):
    a = [[(10 + t, 30 - t)] for t in range(4)]
    _write_synthetic_result(tmp_path / "c1", "synth", 1, a)
    _write_synthetic_result(tmp_path / "c2", "synth", 2, a)
    csv_path = tmp_path / "cmp.csv"
    _run(["compare", tmp_path / "c1", tmp_path / "c2", "--csv", csv_path])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "instance,label,trial,hypervolume"
    assert len(lines) == 1 + 8


def test_every_documented_flag_exists():
    parser = build_parser()
    run_parser = None
    for action in parser._subparsers._group_actions:
        run_parser = action.choices["run"]
    flags = {opt for a in run_parser._actions for opt in a.option_strings}
    for expected in ("--instance", "--islands", "--trials", "--seed", "--generations",
                     "--time-budget-secs", "--algorithm", "--epoch", "--migrants",
                     "--pc", "--pm", "--ls-secs", "--out"):
        assert expected in flags
