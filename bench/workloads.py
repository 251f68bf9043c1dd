"""Workload definitions, seed rewriting and output checks.

A workload is a fixed list of bundled configs, each run as one CLI
command.  The benchmark seed only rewrites the top-level ``seed`` /
``master_seed`` fields of temporary copies; configs without such a field
(tune, scan) run unchanged at every seed.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

BUNDLED_SEED = 2024
SEED_FIELDS = ("seed", "master_seed")
TASKS = ("convex2d", "rosenbrock")
FAMILIES = ("sgd", "adagrad", "adam", "rmsprop")
SCAN_GRID = 25
# Acceptance-3 and acceptance-5 thresholds, checked only at BUNDLED_SEED.
ADAGRAD_HYBRID_BOWL_MAX = 1e-6
TRAIN_TOY_ACCURACY_SLACK = 0.02

WORKLOADS: dict[str, list[tuple[str, str]]] = {
    # The two 1,134-point hybrid grids (one plain-SGD family, one EMA
    # family, one per task) plus all 16 additive and multiplicative grids.
    "tune": [("tune", "convex2d-sgd-hybrid"), ("tune", "rosenbrock-adam-hybrid")]
    + [
        ("tune", f"{task}-{family}-{rule}")
        for task in TASKS
        for family in FAMILIES
        for rule in ("additive", "multiplicative")
    ],
    # Every robustness bundle (n = 100, ragged budgets) plus two 25 x 25 scans.
    "sample-scan": [
        ("robustness", f"{task}-{family}-{rule}")
        for task in TASKS
        for family in FAMILIES
        for rule in ("additive", "multiplicative", "hybrid")
    ]
    + [("scan", "convex2d-sgd-hybrid"), ("scan", "rosenbrock-sgd-additive")],
    # The classifier protocol for each update rule, 10 runs each.
    "train-toy": [("train-toy", f"sgd-{rule}") for rule in ("additive", "multiplicative", "hybrid")],
}


@dataclass
class Command:
    command: str
    name: str
    config: Path

    @property
    def label(self) -> str:
        return f"{self.command}/{self.name}"


@dataclass
class Outcome:
    """What one command invocation produced and whether it checked out."""

    ok: bool = True
    errored: bool = False
    problems: list[str] = field(default_factory=list)
    trials: int = 0
    digest: str = ""
    facts: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.ok = False
        self.problems.append(problem)


def prepare_configs(root: Path, work: Path, workload: str, seed: int) -> list[Command]:
    """Copy configs/ into work (so {"path": ...} references still resolve)
    and write the seed into every workload config that carries one."""
    shutil.copytree(root / "configs", work / "configs")
    commands = []
    for command, name in WORKLOADS[workload]:
        path = work / "configs" / command / f"{name}.json"
        cfg = json.loads(path.read_text())
        if any(k in cfg for k in SEED_FIELDS):
            for key in SEED_FIELDS:
                if key in cfg:
                    cfg[key] = seed
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        commands.append(Command(command, name, path))
    return commands


def _strict_json(path: Path):
    """Parse standard JSON only: NaN and Infinity are rejected."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _check_tune(cmd: Command, out: Path, root: Path, outcome: Outcome) -> None:
    best = out / "best.json"
    reference = root / "configs" / "tuned" / f"{cmd.name}.json"
    if best.read_bytes() != reference.read_bytes():
        outcome.fail(f"best.json differs from {reference.relative_to(root)}")
    doc = _strict_json(best)
    rows = (out / "leaderboard.csv").read_text().splitlines()[1:]
    if len(rows) != doc["grid_points"]:
        outcome.fail(f"leaderboard has {len(rows)} rows, best.json says {doc['grid_points']}")
    outcome.trials = doc["grid_points"]


def _check_robustness(cmd: Command, out: Path, root: Path, outcome: Outcome) -> None:
    stats = _strict_json(out / "stats.json")
    total = stats["total_trials"]
    if stats["n"] + stats["n_diverged"] != total:
        outcome.fail(f"n + n_diverged = {stats['n'] + stats['n_diverged']} != total_trials {total}")
    rows = (out / "scores.csv").read_text().splitlines()[1:]
    if len(rows) != total:
        outcome.fail(f"scores.csv has {len(rows)} rows, expected {total}")
    outcome.trials = total
    # stats.json writes null when every draw diverged.
    mean = stats["mean_score"]
    outcome.facts["mean_score"] = float("inf") if mean is None else mean


def _check_scan(cmd: Command, out: Path, root: Path, outcome: Outcome) -> None:
    # One header row and one x0 column around the score grid.
    rows = [line.split(",") for line in (out / "surface.csv").read_text().splitlines()]
    if len(rows) != SCAN_GRID + 1 or any(len(row) != SCAN_GRID + 1 for row in rows):
        outcome.fail(f"surface.csv is not {SCAN_GRID} x {SCAN_GRID}")
    for value in (v for row in rows[1:] for v in row):
        float(value)
    outcome.trials = SCAN_GRID * SCAN_GRID


def _check_train_toy(cmd: Command, out: Path, root: Path, outcome: Outcome) -> None:
    summary = _strict_json(out / "summary.json")
    n_runs = summary["n_runs"]
    if len(summary["runs"]) != n_runs:
        outcome.fail(f"summary lists {len(summary['runs'])} runs, expected {n_runs}")
    for i in range(n_runs):
        if not (out / f"run_{i:02d}.csv").is_file():
            outcome.fail(f"run_{i:02d}.csv missing")
    if summary["update_rule"] == "multiplicative" and summary["sign_flips_total"] != 0:
        outcome.fail(f"multiplicative rule flipped {summary['sign_flips_total']} signs")
    outcome.trials = n_runs
    outcome.facts["epoch5"] = summary["epoch5"]["mean_val_accuracy"]
    outcome.facts["final"] = summary["final"]["mean_val_accuracy"]


_CHECKS = {
    "tune": _check_tune,
    "robustness": _check_robustness,
    "scan": _check_scan,
    "train-toy": _check_train_toy,
}


def check_outputs(cmd: Command, out: Path, root: Path, outcome: Outcome) -> None:
    """Structural checks of one command's output directory."""
    try:
        _CHECKS[cmd.command](cmd, out, root, outcome)
        outcome.digest = _digest(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.fail(f"unreadable output: {exc!r}")


def check_acceptance(outcomes: dict[str, Outcome], seed: int) -> None:
    """Cross-command acceptance properties, at the bundled seed only.

    A violated property fails the hybrid command it is about.
    """
    if seed != BUNDLED_SEED:
        return

    def fact(label, key):
        o = outcomes.get(label)
        return None if o is None or not o.ok else o.facts.get(key)

    mean = fact("robustness/convex2d-adagrad-hybrid", "mean_score")
    if mean is not None and not mean <= ADAGRAD_HYBRID_BOWL_MAX:
        outcomes["robustness/convex2d-adagrad-hybrid"].fail(
            f"hybrid AdaGrad bowl mean {mean} > {ADAGRAD_HYBRID_BOWL_MAX}"
        )
    for task in TASKS:
        hybrid = fact(f"robustness/{task}-sgd-hybrid", "mean_score")
        additive = fact(f"robustness/{task}-sgd-additive", "mean_score")
        if hybrid is not None and additive is not None and not hybrid < additive:
            outcomes[f"robustness/{task}-sgd-hybrid"].fail(
                f"hybrid SGD mean {hybrid} does not beat additive {additive}"
            )
    for key in ("epoch5", "final"):
        hybrid = fact("train-toy/sgd-hybrid", key)
        additive = fact("train-toy/sgd-additive", key)
        if hybrid is not None and additive is not None:
            if not hybrid >= additive - TRAIN_TOY_ACCURACY_SLACK:
                outcomes["train-toy/sgd-hybrid"].fail(
                    f"hybrid {key} accuracy {hybrid} trails additive {additive} by more than "
                    f"{TRAIN_TOY_ACCURACY_SLACK}"
                )
