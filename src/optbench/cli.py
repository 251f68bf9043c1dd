"""Command-line front end.

Every command reads one JSON config (see the config module for the
schema), writes its results under an output directory, and is fully
deterministic: rerunning the same config and seed reproduces every output
byte for byte.  Every command runs in one process: the 2-D commands run
each batch of trials as one vectorized population and train-toy trains
its sampled configs as one population of networks, so --parallelism is
accepted for compatibility and has no effect.
Existing output files are never replaced unless --overwrite is passed.

Exit codes: 0 on success, 2 for malformed configs, refused overwrites or
an output path that cannot be written, 3 when a tuning run diverged at
every grid point.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    SCHEMA_VERSION,
    ConfigError,
    RobustnessPlan,
    ScanPlan,
    TrainToyPlan,
    TrialPlan,
    TunePlan,
    load_plan,
    to_json,
)

OUTPUT_ROOT_ENV = "OPTBENCH_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_DIVERGED = 3


def _sci(x: float) -> str:
    """Scientific notation with 9 fractional digits (10 significant)."""
    return f"{x:.9e}"


def _lit(x: float) -> str:
    return repr(float(x))


def _write_text(path: Path, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("", f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header line, then one line per row of formatted cells."""
    lines = [",".join(header), *map(",".join, rows)]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, command: str, payload: dict) -> None:
    document = {"schema_version": SCHEMA_VERSION, "command": command, **payload}
    _write_text(path, json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _finite_or_none(x: float) -> float | None:
    """JSON has no inf or NaN; such values are written as null."""
    return x if math.isfinite(x) else None


def _prepare_output(out_dir: Path, names: list[str], overwrite: bool) -> None:
    """Make out_dir, before anything is written, or refuse the run: when
    out_dir cannot be a directory, when a target exists and is not a
    regular file (every symlink included, so no write leaves out_dir), or,
    without overwrite, when a target exists."""
    for name in names:
        target = out_dir / name
        if not os.path.lexists(target):
            continue
        if target.is_symlink() or not target.is_file():
            raise ConfigError("", f"{target} exists and is not a regular file; it cannot be replaced")
        if not overwrite:
            raise ConfigError("", f"{target} already exists; pass --overwrite to replace it")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("", f"cannot use {out_dir} as the output directory: {exc.strerror}") from None


# ------------------------------------------------------------------- writers

def _repr_cells(column: np.ndarray) -> list[str]:
    """The repr of every value of a float column, worked out once per
    distinct value.  Values are told apart by their bits, so -0.0 keeps
    its own text."""
    distinct, index = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)
    return text[index].tolist()


def write_leaderboard_csv(path: Path, result: TuneResult) -> None:
    distances = result.distances.tolist()
    # A rate column repeats the few values of its grid axis.
    columns = [_repr_cells(column) for column in result.rates.T]
    columns.append([_sci(d) for d in distances])
    columns.append(["true" if math.isinf(d) else "false" for d in distances])
    _write_csv(path, [*result.axes, "final_distance", "diverged"], zip(*columns))


def write_trajectory_csv(path: Path, record: TrialRecord) -> None:
    rows = ((str(i), _sci(d)) for i, d in enumerate(record.distances))
    _write_csv(path, ["iteration", "distance"], rows)


def write_scores_csv(path: Path, stats: ScoreStats) -> None:
    rows = ((str(i), _sci(s), "true" if math.isinf(s) else "false") for i, s in enumerate(stats.scores))
    _write_csv(path, ["index", "score", "diverged"], rows)


def write_surface_csv(path: Path, grid) -> None:
    rows = ([_lit(a), *map(_sci, scores)] for a, scores in zip(grid.x0_axis, grid.scores))
    _write_csv(path, ["x0", *map(_lit, grid.x1_axis)], rows)


# ------------------------------------------------------------------ commands

def grid_search(*args, **kwargs) -> TuneResult:
    """tuning.grid_search, imported on the first tune; the benchmark's
    tracer wraps the name cli.grid_search."""
    from .tuning import grid_search

    return grid_search(*args, **kwargs)


def cmd_tune(plan: TunePlan, out_dir: Path, seed: int, overwrite: bool) -> int:
    _prepare_output(out_dir, ["leaderboard.csv", "best.json"], overwrite)
    result = grid_search(
        plan.task,
        plan.family,
        plan.update_kind,
        grids=plan.grids,
        mix=plan.mix,
    )
    write_leaderboard_csv(out_dir / "leaderboard.csv", result)
    _write_json(
        out_dir / "best.json",
        "tune",
        {
            "family": plan.family,
            "update_rule": plan.update_kind,
            "task": to_json(plan.task),
            "optimizer": to_json(result.best_spec),
            "final_distance": _finite_or_none(result.best_final_distance),
            "grid_points": len(result.distances),
            "n_diverged": int(np.isinf(result.distances).sum()),
        },
    )
    if math.isinf(result.best_final_distance):
        print("tune: every grid point diverged", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    return EXIT_OK


def cmd_trial(plan: TrialPlan, out_dir: Path, seed: int, overwrite: bool) -> int:
    from .harness import run_trial

    _prepare_output(out_dir, ["trajectory.csv", "summary.json"], overwrite)
    record = run_trial(plan.task, plan.spec)
    write_trajectory_csv(out_dir / "trajectory.csv", record)
    _write_json(
        out_dir / "summary.json",
        "trial",
        {
            "task": to_json(plan.task),
            "optimizer": to_json(plan.spec),
            "initial_distance": _finite_or_none(record.initial_distance),
            "final_distance": _finite_or_none(record.final_distance),
            "score": _finite_or_none(record.score),
            "diverged": record.diverged,
            "iterations_run": record.iterations_run,
        },
    )
    return EXIT_OK


def cmd_robustness(plan: RobustnessPlan, out_dir: Path, seed: int, overwrite: bool) -> int:
    from .harness import evaluate_robustness

    _prepare_output(out_dir, ["scores.csv", "stats.json"], overwrite)
    seed = plan.seed if plan.seed is not None else seed
    stats = evaluate_robustness(plan.distribution, plan.spec, plan.n, seed)
    write_scores_csv(out_dir / "scores.csv", stats)
    _write_json(
        out_dir / "stats.json",
        "robustness",
        {
            "optimizer": to_json(plan.spec),
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


def cmd_scan(plan: ScanPlan, out_dir: Path, seed: int, overwrite: bool) -> int:
    from .harness import surface_scan

    _prepare_output(out_dir, ["surface.csv"], overwrite)
    grid = surface_scan(
        plan.task,
        plan.spec,
        x0_range=plan.x0_range,
        x1_range=plan.x1_range,
        grid_size=plan.grid_size,
    )
    write_surface_csv(out_dir / "surface.csv", grid)
    return EXIT_OK


def cmd_train_toy(plan: TrainToyPlan, out_dir: Path, seed: int, overwrite: bool) -> int:
    from .nn import mean_std, train_sampled_configs

    names = [f"run_{i:02d}.csv" for i in range(plan.n_configs)] + ["summary.json"]
    _prepare_output(out_dir, names, overwrite)
    master_seed = plan.master_seed if plan.master_seed is not None else seed
    configs, results = train_sampled_configs(
        plan.settings, plan.optimizer, plan.n_configs, master_seed
    )
    run_rows = []
    for i, (config, result) in enumerate(zip(configs, results)):
        rows = [
            (str(m.epoch), _lit(m.train_accuracy), _lit(m.val_accuracy), _lit(m.train_loss))
            for m in result.metrics
        ]
        header = ["epoch", "train_accuracy", "val_accuracy", "train_loss"]
        _write_csv(out_dir / f"run_{i:02d}.csv", header, rows)
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
        out_dir / "summary.json",
        "train-toy",
        {
            "family": plan.family,
            "update_rule": plan.update_kind,
            "optimizer": to_json(plan.optimizer),
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command, then the options every command takes.
    It is built once per process; parsing leaves it unchanged."""
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
        if args.parallelism < 1:
            raise ConfigError("", "--parallelism must be >= 1")
        if args.seed < 0:
            raise ConfigError("", "--seed must be >= 0")
        return _COMMANDS[args.command][0](plan, _resolve_out(args), args.seed, args.overwrite)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
