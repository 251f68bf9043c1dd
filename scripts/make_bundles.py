"""Regenerate the bundled configs under configs/.

Writes the full matrix of tune configs (two tasks x four optimizer
families x three update rules), runs each one to produce the frozen
tuned specs in configs/tuned/, and emits the robustness / scan /
train-toy configs that reference them.  Everything is deterministic, so
rerunning this script must reproduce the tree byte for byte.

Usage: python3 scripts/make_bundles.py [--check]

--check regenerates into a temporary directory and compares it with
configs/ byte for byte instead of writing there; it exits 1 and lists
every file that differs, is missing or is extra.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import shutil
import sys
import tempfile
from pathlib import Path

from optbench.cli import main as cli_main
from optbench.config import distribution_to_dict
from optbench.harness import default_eval_distribution
from optbench.optim import FAMILIES, UPDATE_KINDS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

ROBUSTNESS_SEED = 2024
TRAIN_TOY_MASTER_SEED = 2024

# The rosenbrock tasks are pinned at the harder curvature the stock
# evaluation distribution is centered on, so tuned rates remain usable
# under robustness sampling.
TASKS = {
    "convex2d": {
        "function": "convex2d",
        "alpha": 1.0,
        "beta": 20.0,
        "x0": [50.0, 50.0],
        "iterations": 100,
    },
    "rosenbrock": {
        "function": "rosenbrock",
        "alpha": 1.0,
        "beta": 60.0,
        "x0": [0.5, 3.0],
        "iterations": 100,
    },
}


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def tune_configs(configs: Path) -> list[Path]:
    paths = []
    for function, task in TASKS.items():
        for family in FAMILIES:
            for kind in UPDATE_KINDS:
                doc = {
                    "schema_version": 1,
                    "command": "tune",
                    "task": task,
                    "family": family,
                    "update_rule": kind,
                }
                path = configs / "tune" / f"{function}-{family}-{kind}.json"
                write_json(path, doc)
                paths.append(path)
    return paths


def tuned_specs(configs: Path, tune_paths: list[Path]) -> None:
    out_root = Path(tempfile.mkdtemp(prefix="optbench-tune-"))
    try:
        for config in tune_paths:
            out_dir = out_root / config.stem
            code = cli_main(["tune", "--config", str(config), "--out", str(out_dir)])
            if code != 0:
                raise SystemExit(f"tuning {config.name} failed with exit code {code}")
            target = configs / "tuned" / f"{config.stem}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out_dir / "best.json", target)
            print(f"tuned {config.stem}", file=sys.stderr)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def robustness_configs(configs: Path) -> None:
    for function in TASKS:
        dist = distribution_to_dict(default_eval_distribution(function))
        for family in FAMILIES:
            for kind in UPDATE_KINDS:
                name = f"{function}-{family}-{kind}"
                doc = {
                    "schema_version": 1,
                    "command": "robustness",
                    "distribution": dist,
                    "optimizer": {"path": f"../tuned/{name}.json"},
                    "n": 100,
                    "seed": ROBUSTNESS_SEED,
                }
                write_json(configs / "robustness" / f"{name}.json", doc)


def scan_configs(configs: Path) -> None:
    for function, task in TASKS.items():
        for kind in ("additive", "hybrid"):
            name = f"{function}-sgd-{kind}"
            doc = {
                "schema_version": 1,
                "command": "scan",
                "task": task,
                "optimizer": {"path": f"../tuned/{name}.json"},
                "grid_size": 25,
            }
            write_json(configs / "scan" / f"{name}.json", doc)


def train_toy_configs(configs: Path) -> None:
    for kind in UPDATE_KINDS:
        doc = {
            "schema_version": 1,
            "command": "train-toy",
            "family": "sgd",
            "update_rule": kind,
            "n_configs": 10,
            "master_seed": TRAIN_TOY_MASTER_SEED,
        }
        write_json(configs / "train-toy" / f"sgd-{kind}.json", doc)


def generate(configs: Path) -> None:
    tune_paths = tune_configs(configs)
    robustness_configs(configs)
    scan_configs(configs)
    train_toy_configs(configs)
    tuned_specs(configs, tune_paths)


def differences(expected: Path, actual: Path) -> list[str]:
    """Relative paths of files that differ between two trees, or exist in
    only one of them."""
    names = {
        str(p.relative_to(root)) for root in (expected, actual) for p in root.rglob("*") if p.is_file()
    }
    return sorted(
        name
        for name in names
        if not (expected / name).is_file()
        or not (actual / name).is_file()
        or not filecmp.cmp(expected / name, actual / name, shallow=False)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare a fresh regeneration with configs/ instead of writing"
    )
    args = parser.parse_args()
    if not args.check:
        generate(CONFIGS)
        print(f"wrote {len(list(CONFIGS.rglob('*.json')))} configs under {CONFIGS}", file=sys.stderr)
        return 0
    with tempfile.TemporaryDirectory(prefix="optbench-bundles-") as tmp:
        fresh = Path(tmp) / "configs"
        generate(fresh)
        diff = differences(CONFIGS, fresh)
    for name in diff:
        print(f"differs: configs/{name}", file=sys.stderr)
    print(f"{len(diff)} bundled config(s) differ from a fresh regeneration", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
