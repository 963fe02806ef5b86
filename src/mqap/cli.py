"""Command line front end.

Subcommands: ``run`` (multi-trial island experiments), ``compare``
(hypervolume and rank-sum report across result directories), ``enumerate``
(exact front of a small instance), ``gen`` (instance generation) and ``hv``
(standalone hypervolume of a front file).  Options may come from a
``key=value`` config file; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from . import MqapError, runner
from .instance import (
    InstanceSpec, generate_uniform, load_instance, parse_file, save_instance, write_file
)
from .island import MEMETIC, NSGA2
from .metrics import REFERENCE_OFFSET, hypervolume, normalize_fronts, reference_point
from .runner import (
    ExperimentConfig,
    compare_result_sets,
    enumerate_front,
    load_result_set,
    run_experiment,
    write_front_file,
)

# flag/config key -> (ExperimentConfig attribute, value type); the flag is
# "--" + key with dashes, e.g. time_budget_secs -> --time-budget-secs.
RUN_OPTIONS = {
    "instance": ("instance_path", str),
    "gen_spec": ("gen_spec", str),  # parsed by parse_gen_spec once merged
    "algorithm": ("algorithm", str),
    "islands": ("island_count", int),
    "trials": ("trials", int),
    "seed": ("base_seed", int),
    "generations": ("generations", int),
    "time_budget_secs": ("time_budget", float),
    "epoch": ("epoch", int),
    "migrants": ("migrants", int),
    "pc": ("pb_c", float),
    "pm": ("pb_m", float),
    "ls_secs": ("ls_secs", float),
    "population": ("population", int),
    "archive_capacity": ("archive_capacity", int),
    "parallel_trials": ("parallel_trials", int),
    "out": ("output_dir", str),
}


# --gen-spec key and `mqap gen` flag -> value type; the keys are InstanceSpec's
# fields, and InstanceSpec defaults every one but the required ones.
GEN_SPEC_KEYS = {"n": int, "m": int, "correlation": float, "seed": int, "max_value": int}
GEN_SPEC_REQUIRED = ("n", "m")


def parse_config_file(path) -> dict:
    """Line-oriented key=value options; '#' starts a comment."""
    options = {}
    for raw in parse_file(path, str.splitlines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in RUN_OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        options[key] = RUN_OPTIONS[key][1](value.strip())
    return options


def parse_gen_spec(text: str) -> InstanceSpec:
    """Comma-separated generator spec, e.g. 'n=30,m=2,correlation=0,seed=7'; absent keys default."""
    fields = {}
    for part in text.split(","):
        key, _, value = map(str.strip, part.partition("="))
        if key not in GEN_SPEC_KEYS:
            raise ValueError(
                f"generator spec {text!r} has unknown key {key!r}; allowed: {', '.join(GEN_SPEC_KEYS)}"
            )
        fields[key] = value
    missing = [key for key in GEN_SPEC_REQUIRED if key not in fields]
    if missing:
        raise ValueError(f"generator spec {text!r} lacks {', '.join(missing)}")
    try:
        return InstanceSpec(**{key: GEN_SPEC_KEYS[key](value) for key, value in fields.items()})
    except ValueError as exc:
        raise ValueError(f"generator spec {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mqap")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run a multi-trial island experiment",
        description="Every option is listed in docs/config-reference.md.",
    )
    run_p.add_argument("--config", help="key=value config file; flags override it")
    for key, (_, kind) in RUN_OPTIONS.items():
        choices = [MEMETIC, NSGA2] if key == "algorithm" else None
        run_p.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices)

    cmp_p = sub.add_parser("compare", help="compare result directories on one instance")
    cmp_p.add_argument("result_dirs", nargs="+")
    cmp_p.add_argument("--alpha", type=float, default=0.05)
    cmp_p.add_argument("--csv", help="write per-trial hypervolumes to this CSV file")

    enum_p = sub.add_parser("enumerate", help="exact front of a small instance")
    enum_p.add_argument("--instance", required=True)
    enum_p.add_argument("--out", help="front file to write (default: stdout)")

    gen_p = sub.add_parser("gen", help="generate a uniform instance file")
    for key, kind in GEN_SPEC_KEYS.items():
        flag = "--" + key.replace("_", "-")
        gen_p.add_argument(flag, type=kind, required=key in GEN_SPEC_REQUIRED)
    gen_p.add_argument("--out", required=True)

    hv_p = sub.add_parser("hv", help="hypervolume of one front file")
    hv_p.add_argument("--front", required=True)
    hv_p.add_argument("--ref", help="comma-separated reference point (default: normalize)")
    hv_p.add_argument("--offset", type=float, default=REFERENCE_OFFSET)
    return parser


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    options = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in RUN_OPTIONS}
    options.update((key, value) for key, value in flags.items() if value is not None)
    if "gen_spec" in options:
        options["gen_spec"] = parse_gen_spec(options["gen_spec"])
    return ExperimentConfig(**{RUN_OPTIONS[key][0]: value for key, value in options.items()})


def cmd_run(args) -> int:
    try:
        config = _experiment_config(args)
    except ValueError as exc:
        raise MqapError(f"invalid run configuration: {exc}") from exc
    result = run_experiment(config)
    print(
        f"instance {result.instance_name}: {len(result.trials)} trial(s), "
        f"{config.algorithm} x {config.island_count} island(s) -> {config.output_dir}"
    )
    for rec in result.trials:
        print(
            f"  trial {rec.trial} seed {rec.seed}: front {rec.front_size} "
            f"({rec.front_file}, {rec.wall_time:.2f}s)"
        )
    return 0


def cmd_compare(args) -> int:
    if not 0 < args.alpha < 1:  # NaN too
        raise MqapError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    sets = [load_result_set(d) for d in args.result_dirs]
    rows = compare_result_sets(sets)
    if args.csv:  # before the report, so that a path that cannot be written prints none
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["instance", "label", "trial", "hypervolume"])
        for row in rows:
            for label, hvs in zip(row.labels, row.per_trial):
                for trial, value in enumerate(hvs):
                    writer.writerow([row.instance, label, trial, f"{value:.6f}"])
        write_file(args.csv, table.getvalue())
    for row in rows:
        print(f"instance {row.instance} (mean normalized hypervolume)")
        for idx, (label, mean) in enumerate(zip(row.labels, row.means)):
            flag = " *" if idx == row.best_index else ""
            print(f"  {label:24s} {mean:.4f}{flag}")
        for a, b, p in row.pairwise:
            if p is None:
                print(f"  rank-sum {a} vs {b}: p=n/a (needs >=3 trials per side)")
                continue
            verdict = f"significant at {args.alpha:g}" if p < args.alpha else "not significant"
            print(f"  rank-sum {a} vs {b}: p={p:.4f} ({verdict})")
    if args.csv:
        print(f"per-trial hypervolumes written to {args.csv}")
    return 0


def cmd_enumerate(args) -> int:
    instance = load_instance(args.instance)
    perms, objs = enumerate_front(instance)
    header = {"instance": instance.name or "unnamed", "exact": "true"}
    if args.out:
        write_front_file(args.out, perms, objs, header)
        print(f"exact front of {len(perms)} solution(s) written to {args.out}")
    else:
        print(runner.front_text(perms, objs, header), end="")
    return 0


def cmd_gen(args) -> int:
    fields = {key: value for key in GEN_SPEC_KEYS if (value := getattr(args, key)) is not None}
    try:
        spec = InstanceSpec(**fields)
    except ValueError as exc:
        raise MqapError(f"invalid generator spec: {exc}") from exc
    instance = generate_uniform(spec)
    save_instance(instance, args.out)
    print(f"wrote {instance.name} to {args.out}")
    return 0


def cmd_hv(args) -> int:
    _, _, points = runner.read_front_file(args.front)
    if not len(points):
        raise MqapError(f"{args.front} holds no points")
    if not math.isfinite(args.offset):
        raise MqapError(f"--offset must be finite, got {args.offset}")
    if args.offset <= 0:
        # The front's extreme points would sit on or beyond the reference and count for nothing.
        raise MqapError(f"--offset must be positive, got {args.offset}")
    if args.ref:
        try:
            ref = tuple(float(v) for v in args.ref.split(","))
        except ValueError as exc:
            raise MqapError(f"invalid --ref {args.ref!r}: {exc}") from exc
        if not all(map(math.isfinite, ref)):
            raise MqapError(f"--ref must be finite, got {args.ref!r}")
        if len(ref) != points.shape[1]:
            raise MqapError(f"--ref has {len(ref)} coordinates, the front has {points.shape[1]}")
    else:
        (points,) = normalize_fronts([points])
        ref = reference_point(points, args.offset)
    print(f"{hypervolume(points, ref):.6f}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "enumerate": cmd_enumerate,
    "gen": cmd_gen,
    "hv": cmd_hv,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, MqapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
