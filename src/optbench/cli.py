"""Command-line front end.

Every command reads one JSON config (see the config module for the
schema), writes its results under an output directory, and is fully
deterministic: rerunning the same config and seed reproduces every output
byte for byte.  Every command runs in one process: the 2-D commands run
each batch of trials as one vectorized population and train-toy trains
its sampled configs as one population of networks, so --parallelism is
accepted for compatibility and has no effect.
Existing output files are never replaced unless --overwrite is passed.

Exit codes: 0 on success, 2 for malformed configs or refused overwrites,
3 when a tuning run diverged at every grid point.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .config import (
    ConfigError,
    RobustnessPlan,
    ScanPlan,
    TrainToyPlan,
    TrialPlan,
    TunePlan,
    check_work,
    load_plan,
    spec_to_dict,
    task_to_dict,
)
from .harness import ScoreStats, TrialRecord, evaluate_robustness, run_trial, surface_scan
from .nn import mean_std, train_sampled_configs
from .objectives import InvalidConfigError
from .optim import InvalidRateError
from .tuning import RATE_AXES, InvalidGridError, TuneResult, grid_search

OUTPUT_ROOT_ENV = "OPTBENCH_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_DIVERGED = 3


@dataclass
class RunManifest:
    """Resolved invocation: where outputs go and the fallback seed."""

    output_dir: Path
    seed: int


def _sci(x: float) -> str:
    """Scientific notation with 9 fractional digits (10 significant)."""
    return f"{x:.9e}"


def _lit(x: float) -> str:
    return repr(float(x))


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _finite_or_none(x: float) -> float | None:
    """JSON has no inf or NaN; such values are written as null."""
    return x if math.isfinite(x) else None


def _prepare_output(out_dir: Path, names: list[str], overwrite: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if overwrite:
        return
    for name in names:
        target = out_dir / name
        if target.exists():
            raise ConfigError("", f"{target} already exists; pass --overwrite to replace it")


# ------------------------------------------------------------------- writers

def write_leaderboard_csv(path: Path, result: TuneResult) -> None:
    columns = RATE_AXES[result.best_spec.update.kind]
    lines = [",".join([*columns, "final_distance", "diverged"])]
    for spec, distance in result.leaderboard:
        rates = [_lit(getattr(spec.update, c)) for c in columns]
        diverged = "true" if math.isinf(distance) else "false"
        lines.append(",".join([*rates, _sci(distance), diverged]))
    _write_text(path, "\n".join(lines) + "\n")


def write_trajectory_csv(path: Path, record: TrialRecord) -> None:
    lines = ["iteration,distance"]
    lines.extend(f"{i},{_sci(d)}" for i, d in enumerate(record.distances))
    _write_text(path, "\n".join(lines) + "\n")


def write_scores_csv(path: Path, stats: ScoreStats) -> None:
    lines = ["index,score,diverged"]
    for i, s in enumerate(stats.scores):
        lines.append(f"{i},{_sci(s)},{'true' if math.isinf(s) else 'false'}")
    _write_text(path, "\n".join(lines) + "\n")


def write_surface_csv(path: Path, grid) -> None:
    header = "x0," + ",".join(_lit(v) for v in grid.x1_axis)
    lines = [header]
    for i, a in enumerate(grid.x0_axis):
        row = ",".join(_sci(s) for s in grid.scores[i])
        lines.append(f"{_lit(a)},{row}")
    _write_text(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------------ commands

def cmd_tune(plan: TunePlan, manifest: RunManifest, overwrite: bool) -> int:
    _prepare_output(manifest.output_dir, ["leaderboard.csv", "best.json"], overwrite)
    result = grid_search(
        plan.task,
        plan.family,
        plan.update_kind,
        grids=plan.grids,
        mix=plan.mix,
    )
    n_diverged = sum(1 for _, d in result.leaderboard if math.isinf(d))
    write_leaderboard_csv(manifest.output_dir / "leaderboard.csv", result)
    _write_json(
        manifest.output_dir / "best.json",
        {
            "schema_version": 1,
            "command": "tune",
            "family": plan.family,
            "update_rule": plan.update_kind,
            "task": task_to_dict(plan.task),
            "optimizer": spec_to_dict(result.best_spec),
            "final_distance": _finite_or_none(result.best_final_distance),
            "grid_points": len(result.leaderboard),
            "n_diverged": n_diverged,
        },
    )
    if math.isinf(result.best_final_distance):
        print("tune: every grid point diverged", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    return EXIT_OK


def cmd_trial(plan: TrialPlan, manifest: RunManifest, overwrite: bool) -> int:
    _prepare_output(manifest.output_dir, ["trajectory.csv", "summary.json"], overwrite)
    record = run_trial(plan.task, plan.spec)
    write_trajectory_csv(manifest.output_dir / "trajectory.csv", record)
    _write_json(
        manifest.output_dir / "summary.json",
        {
            "schema_version": 1,
            "command": "trial",
            "task": task_to_dict(plan.task),
            "optimizer": spec_to_dict(plan.spec),
            "initial_distance": _finite_or_none(record.initial_distance),
            "final_distance": _finite_or_none(record.final_distance),
            "score": _finite_or_none(record.score),
            "diverged": record.diverged,
            "iterations_run": record.iterations_run,
        },
    )
    return EXIT_OK


def cmd_robustness(plan: RobustnessPlan, manifest: RunManifest, overwrite: bool) -> int:
    _prepare_output(manifest.output_dir, ["scores.csv", "stats.json"], overwrite)
    seed = plan.seed if plan.seed is not None else manifest.seed
    stats = evaluate_robustness(plan.distribution, plan.spec, plan.n, seed)
    write_scores_csv(manifest.output_dir / "scores.csv", stats)
    _write_json(
        manifest.output_dir / "stats.json",
        {
            "schema_version": 1,
            "command": "robustness",
            "optimizer": spec_to_dict(plan.spec),
            "seed": seed,
            "total_trials": plan.n,
            "mean_score": _finite_or_none(stats.mean),
            "std_score": _finite_or_none(stats.std),
            "n": stats.n,
            "n_diverged": stats.n_diverged,
            "std_estimator": "sample (ddof=1), 0 when n <= 1",
        },
    )
    return EXIT_OK


def cmd_scan(plan: ScanPlan, manifest: RunManifest, overwrite: bool) -> int:
    _prepare_output(manifest.output_dir, ["surface.csv"], overwrite)
    grid = surface_scan(
        plan.task,
        plan.spec,
        x0_range=plan.x0_range,
        x1_range=plan.x1_range,
        grid_size=plan.grid_size,
    )
    write_surface_csv(manifest.output_dir / "surface.csv", grid)
    return EXIT_OK


def cmd_train_toy(plan: TrainToyPlan, manifest: RunManifest, overwrite: bool) -> int:
    names = [f"run_{i:02d}.csv" for i in range(plan.n_configs)] + ["summary.json"]
    _prepare_output(manifest.output_dir, names, overwrite)
    master_seed = plan.master_seed if plan.master_seed is not None else manifest.seed
    configs, results = train_sampled_configs(
        plan.settings, plan.optimizer, plan.n_configs, master_seed
    )
    run_rows = []
    for i, (config, result) in enumerate(zip(configs, results)):
        lines = ["epoch,train_accuracy,val_accuracy,train_loss"]
        for m in result.metrics:
            lines.append(
                f"{m.epoch},{_lit(m.train_accuracy)},{_lit(m.val_accuracy)},{_lit(m.train_loss)}"
            )
        _write_text(manifest.output_dir / f"run_{i:02d}.csv", "\n".join(lines) + "\n")
        run_rows.append(
            {
                "index": i,
                "gain": config.gain,
                "epochs": config.epochs,
                "seed": config.seed,
                "epoch5_val_accuracy": result.at_epoch(5).val_accuracy,
                "final_val_accuracy": result.final().val_accuracy,
                "sign_flips": result.sign_flips,
                "diverged": result.diverged,
            }
        )
    e5_mean, e5_std = mean_std([r["epoch5_val_accuracy"] for r in run_rows])
    fin_mean, fin_std = mean_std([r["final_val_accuracy"] for r in run_rows])
    _write_json(
        manifest.output_dir / "summary.json",
        {
            "schema_version": 1,
            "command": "train-toy",
            "family": plan.family,
            "update_rule": plan.update_kind,
            "optimizer": spec_to_dict(plan.optimizer),
            "master_seed": master_seed,
            "n_runs": plan.n_configs,
            "epoch5": {"mean_val_accuracy": e5_mean, "std_val_accuracy": e5_std},
            "final": {"mean_val_accuracy": fin_mean, "std_val_accuracy": fin_std},
            "sign_flips_total": sum(r["sign_flips"] for r in run_rows),
            "n_diverged": sum(1 for r in run_rows if r["diverged"]),
            "runs": run_rows,
        },
    )
    return EXIT_OK


_COMMANDS = {
    "tune": (cmd_tune, "grid-search update-rule rates on a benchmark task"),
    "trial": (cmd_trial, "run a single optimization trial"),
    "robustness": (cmd_robustness, "score an optimizer on randomly drawn tasks"),
    "scan": (cmd_scan, "score an optimizer over a grid of starting points"),
    "train-toy": (cmd_train_toy, "train the toy classifier on sampled configurations"),
}


def _build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command, then the options every command takes."""
    commands = "\n".join(f"  {name:<12}{help_text}" for name, (_, help_text) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="optbench",
        description=__doc__,
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands listed below"
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUTPUT_ROOT_ENV}/<config stem> or ./runs/<config stem>)",
    )
    parser.add_argument("--seed", type=int, default=0, help="fallback seed when the config has none")
    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (everything runs in one process)",
    )
    parser.add_argument("--overwrite", action="store_true", help="replace existing output files")
    return parser


def _resolve_out(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    stem = Path(args.config).stem
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / stem
    return Path("runs") / stem


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _, plan = load_plan(args.config, expected_command=args.command)
        check_work(plan)
    except (ConfigError, InvalidConfigError, InvalidGridError, InvalidRateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.parallelism < 1:
        print("error: --parallelism must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_CONFIG
    manifest = RunManifest(output_dir=_resolve_out(args), seed=args.seed)
    try:
        return _COMMANDS[args.command][0](plan, manifest, args.overwrite)
    except (ConfigError, InvalidConfigError, InvalidGridError, InvalidRateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
