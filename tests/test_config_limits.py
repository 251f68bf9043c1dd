"""Configs that used to crash with a traceback or run without bound must
exit 2 quickly, naming the offending field."""
import json
import time
from pathlib import Path

import pytest

from optbench.cli import EXIT_CONFIG, main
from optbench.config import ConfigError, check_work, load_plan

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _bundled(group: str, name: str) -> dict:
    """A bundled config with its optimizer reference made absolute, so the
    copy can live anywhere."""
    doc = json.loads((CONFIGS / group / name).read_text())
    ref = doc.get("optimizer", {}).get("path")
    if ref is not None:
        doc["optimizer"]["path"] = str((CONFIGS / group / ref).resolve())
    return doc


def _edit(doc: dict, dotted: str, value) -> dict:
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return doc


CASES = [
    ("train-toy", "sgd-additive.json", "batch_size", 0, "batch_size"),
    ("train-toy", "sgd-additive.json", "batch_size", -3, "batch_size"),
    ("train-toy", "sgd-additive.json", "dataset.n", 2, "dataset.n"),
    ("train-toy", "sgd-additive.json", "dataset.noise", -1.0, "dataset.noise"),
    ("train-toy", "sgd-additive.json", "dataset.seed", -1, "dataset.seed"),
    ("train-toy", "sgd-additive.json", "master_seed", -1, "master_seed"),
    ("robustness", "convex2d-sgd-additive.json", "seed", -1, "seed"),
    ("robustness", "convex2d-sgd-additive.json", "n", 10**9, "n"),
    ("robustness", "convex2d-sgd-additive.json", "distribution.iterations", 1e12, "distribution.iterations"),
    (
        "robustness",
        "convex2d-sgd-additive.json",
        "distribution.iterations",
        {"mean": 100, "std": 1e300},
        "distribution.iterations",
    ),
    ("scan", "convex2d-sgd-additive.json", "grid_size", 10**8, "grid_size"),
    ("scan", "convex2d-sgd-additive.json", "task.iterations", 10**12, "task.iterations"),
    ("tune", "convex2d-sgd-additive.json", "task.iterations", 10**12, "task.iterations"),
    (
        "tune",
        "convex2d-sgd-hybrid.json",
        "grids.lr",
        {"lo": 1e-300, "hi": 1e300, "log10_step": 1e-6},
        "grids.lr",
    ),
    # 10**400 is past the float range.
    ("tune", "convex2d-sgd-additive.json", "grids.lr", {"lo": 1e-300, "hi": 1e300, "log10_step": 400.0}, "grids.lr"),
    # 18 x 7 x 901 points: each axis fits, their product does not.
    ("tune", "convex2d-sgd-hybrid.json", "grids.lr_outer", {"lo": 1e-9, "hi": 1.0, "log10_step": 0.01}, "grids"),
]


@pytest.mark.parametrize("group, name, field, value, path", CASES)
def test_bad_config_exits_2_naming_the_field(tmp_path, capsys, group, name, field, value, path):
    config = tmp_path / name
    config.write_text(json.dumps(_edit(_bundled(group, name), field, value)))
    out = tmp_path / "out"
    started = time.monotonic()
    assert main([group, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    err = capsys.readouterr().err
    assert f"error: {path}" in err
    assert "Traceback" not in err


# Each field within its own bound, the run's total work over MAX_TRIAL_STEPS
# (trials x iterations) or MAX_TRAIN_WORK (networks x parameters x samples).
WORK_CASES = [
    (
        "robustness",
        "convex2d-sgd-additive.json",
        {"n": 100_000, "distribution.iterations": 100_000},
        "distribution.iterations",
    ),
    (
        "tune",
        "convex2d-sgd-additive.json",
        {"grids.lr": [1e-6 * (i + 1) for i in range(100_000)], "task.iterations": 100_000},
        "task.iterations",
    ),
    ("scan", "convex2d-sgd-additive.json", {"grid_size": 316, "task.iterations": 100_000}, "task.iterations"),
    ("train-toy", "sgd-additive.json", {"hidden": [1_000_000]}, "hidden"),
    ("train-toy", "sgd-additive.json", {"n_configs": 100_000}, "hidden"),
    ("train-toy", "sgd-additive.json", {"dataset.n": 10**9}, "hidden"),
]


@pytest.mark.parametrize(
    "group, name, edits, path", WORK_CASES, ids=lambda v: "+".join(v) if isinstance(v, dict) else None
)
def test_over_the_work_bound_exits_2_naming_the_field(tmp_path, capsys, group, name, edits, path):
    doc = _bundled(group, name)
    for field, value in edits.items():
        _edit(doc, field, value)
    config = tmp_path / name
    config.write_text(json.dumps(doc))
    started = time.monotonic()
    assert main([group, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "is more than MAX_T" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_work_bounds_admit_every_bundled_config():
    configs = [p for g in ("tune", "robustness", "scan", "train-toy") for p in (CONFIGS / g).glob("*.json")]
    assert len(configs) == 55
    for path in configs:
        check_work(load_plan(path)[1])


def test_a_trial_over_the_iteration_bound_exits_2(tmp_path, capsys):
    doc = _bundled("scan", "convex2d-sgd-additive.json")
    doc = {"schema_version": 1, "command": "trial", "task": doc["task"], "optimizer": doc["optimizer"]}
    doc["task"]["iterations"] = 10**12
    config = tmp_path / "trial.json"
    config.write_text(json.dumps(doc))
    started = time.monotonic()
    assert main(["trial", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    assert "task.iterations" in capsys.readouterr().err


def test_negative_fallback_seed_exits_2(tmp_path, capsys):
    config = tmp_path / "rob.json"
    doc = _bundled("robustness", "convex2d-sgd-additive.json")
    del doc["seed"]
    config.write_text(json.dumps(doc))
    args = ["robustness", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "-1"]
    assert main(args) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_config_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["trial", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'{"schema_version": 1, "command": "trial", "note": "caf\xe9"}')
    assert main(["trial", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "latin1.json" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["dir", "latin1.json", "nul\x00.json"])
def test_unreadable_optimizer_reference_names_the_field(tmp_path, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"optimizer": "caf\xe9"}')
    doc = _bundled("robustness", "convex2d-sgd-additive.json")
    doc["optimizer"] = {"path": target}
    config = tmp_path / "rob.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_plan(config)
    assert err.value.field_path == "optimizer.path"


def test_referenced_spec_must_be_inline(tmp_path):
    # A reference to a file that itself holds a reference (here: itself)
    # is rejected instead of being followed.
    config = tmp_path / "rob.json"
    doc = _bundled("robustness", "convex2d-sgd-additive.json")
    doc["optimizer"] = {"path": "rob.json"}
    config.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_plan(config)
    assert err.value.field_path == "optimizer(rob.json).path"


def test_bounds_admit_their_limits(tmp_path):
    doc = _bundled("scan", "convex2d-sgd-additive.json")
    doc["grid_size"] = 316  # 316**2 <= MAX_TRIALS
    doc["task"]["iterations"] = 100_000  # MAX_ITERATIONS
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(doc))
    _, plan = load_plan(config)
    assert plan.grid_size == 316 and plan.task.iterations == 100_000
