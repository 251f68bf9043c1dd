"""Configs that used to crash with a traceback or run without bound must
exit 2 quickly, naming the offending field; the library's own checks
refuse NaN as the config reader does."""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from optbench.cli import EXIT_CONFIG, main
from optbench.config import ConfigError, load_plan
from optbench.harness import Sampler, default_eval_distribution, evaluate_robustness, surface_scan
from optbench.nn import MLP, EpochMetrics, TrainResult, make_dataset, mean_std, xavier_init
from optbench.objectives import InvalidConfigError, TaskConfig, convex2d, finite_difference_grad
from optbench.optim import UpdateRule, make_spec
from optbench.tuning import InvalidGridError, half_decade_grid

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
    # Below the int64 range: numpy holds it in an object column.
    ("tune", "convex2d-sgd-additive.json", "task.iterations", -(2**63) - 1, "task.iterations"),
    (
        "tune",
        "convex2d-sgd-hybrid.json",
        "grids.lr",
        {"lo": 1e-300, "hi": 1e300, "log10_step": 1e-6},
        "grids.lr",
    ),
    # 10**400 is past the float range.
    ("tune", "convex2d-sgd-additive.json", "grids.lr", {"lo": 1e-300, "hi": 1e300, "log10_step": 400.0}, "grids.lr"),
    # A grid axis must stay inside its rate's range: lr_outer is in (0, 1].
    (
        "tune",
        "convex2d-sgd-multiplicative.json",
        "grids.lr_outer",
        {"lo": 0.5, "hi": 5.0},
        "grids.lr_outer",
    ),
    ("tune", "convex2d-sgd-hybrid.json", "grids.lr_inner", [0.0, 1.0], "grids.lr_inner"),
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
    assert f"error: {path}: " in err
    assert "Traceback" not in err


def test_a_grid_over_max_trials_exits_2_with_the_grid_message(tmp_path, capsys):
    group, name, field, value, _ = CASES[-1]
    config = tmp_path / name
    config.write_text(json.dumps(_edit(_bundled(group, name), field, value)))
    assert main([group, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: grids: grid holds more than MAX_TRIALS = 100000 points\n"
    assert not (tmp_path / "out").exists()


# One refusal from each place a range is stated, through the CLI: the
# field's dotted path, ": " and the reason, on one line, before any output
# file is written.
LINES = [
    ("tune", "convex2d-sgd-additive.json", {"task.beta": -1.0}, "task.beta: must be finite and positive, got -1.0"),
    (
        "tune",
        "convex2d-sgd-additive.json",
        {"task.iterations": 0},
        "task.iterations: must be an integer in [1, 100000], got 0",
    ),
    (
        "tune",
        "convex2d-sgd-additive.json",
        {"task.iterations": 10**6},
        "task.iterations: must be an integer in [1, 100000], got 1000000",
    ),
    (
        "scan",
        "convex2d-sgd-additive.json",
        {
            "optimizer": {
                "momentum": {"kind": "identity"},
                "adaptive": {"kind": "identity"},
                "update": {"kind": "multiplicative", "lr_inner": 1.0, "lr_outer": 2.0},
            }
        },
        "optimizer.update.lr_outer: must be in (0, 1], got 2.0",
    ),
    (
        "robustness",
        "convex2d-sgd-additive.json",
        {"distribution.x0": [{"mean": 1.0, "std": -1.0}, 1.0]},
        "distribution.x0[0].std: must be non-negative, got -1.0",
    ),
    (
        "robustness",
        "convex2d-sgd-additive.json",
        {"distribution.alpha": {"mean": 1e308, "std": 1e308}},
        "distribution.alpha: must be finite, got inf (row 0)",
    ),
    (
        "tune",
        "convex2d-sgd-additive.json",
        {"grids.lr": {"lo": 0.1, "hi": 1.0, "log10_step": -1.0}},
        "grids.lr.log10_step: must be positive, got -1.0",
    ),
    ("tune", "convex2d-sgd-additive.json", {"grids.lr": [-1.0, 0.1]}, "grids.lr: must be in [0, inf), got -1.0"),
    ("tune", "convex2d-sgd-hybrid.json", {"mix": 2.0}, "mix: must be in [0, 1], got 2.0"),
    (
        "scan",
        "convex2d-sgd-additive.json",
        {"grid_size": 316, "task.iterations": 100_000},
        "task.iterations: 99856 trials x 100000 iterations = 9.9856e+09 trial steps"
        " is more than MAX_TRIAL_STEPS = 100000000",
    ),
    (
        "train-toy",
        "sgd-additive.json",
        {"n_configs": 100_000},
        "n_configs: 100000 networks x 82 parameters x 400 samples = 3280000000 is more than MAX_TRAIN_WORK = 50000000",
    ),
]


@pytest.mark.parametrize("group, name, edits, line", LINES, ids=[line.split(":")[0] for *_, line in LINES])
def test_each_refusal_prints_its_dotted_path_and_reason(tmp_path, capsys, group, name, edits, line):
    doc = _bundled(group, name)
    for field, value in edits.items():
        _edit(doc, field, value)
    config = tmp_path / name
    config.write_text(json.dumps(doc))
    assert main([group, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list((tmp_path / "out").glob("*")) == []


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
    # The bundled config leaves hidden out: the error names the factor
    # the plan makes large.
    ("train-toy", "sgd-additive.json", {"n_configs": 100_000}, "n_configs"),
    ("train-toy", "sgd-additive.json", {"dataset.n": 10**9}, "dataset.n"),
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
        load_plan(path)


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


# Each plan puts one field at its own bound and stays inside
# MAX_TRIAL_STEPS = 10**8 trial steps.
@pytest.mark.parametrize(
    "grid_size, iterations",
    [
        (316, 1_000),  # 316**2 <= MAX_TRIALS; 99,856,000 trial steps
        (31, 100_000),  # MAX_ITERATIONS; 96,100,000 trial steps
    ],
)
def test_bounds_admit_their_limits(tmp_path, grid_size, iterations):
    doc = _bundled("scan", "convex2d-sgd-additive.json")
    doc["grid_size"] = grid_size
    doc["task"]["iterations"] = iterations
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(doc))
    _, plan = load_plan(config)
    assert plan.grid_size == grid_size and plan.task.iterations == iterations


_SGD = make_spec("sgd", UpdateRule("additive", lr=1e-3))


def _robustness(n):
    return evaluate_robustness(default_eval_distribution("convex2d"), _SGD, n=n, seed=0)


def _scan(grid_size):
    return surface_scan(TaskConfig("convex2d", 1.0, 20.0, (50.0, 50.0), 5), _SGD, grid_size=grid_size)


def _at_epoch(epoch):
    """at_epoch of a three-epoch run."""
    metrics = [EpochMetrics(e, 0.5, 0.5, 1.0) for e in (1, 2, 3)]
    return TrainResult(metrics, sign_flips=0, diverged=False, epochs_run=3).at_epoch(epoch)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: xavier_init(2, 2, math.nan, np.random.default_rng(0)),
            ConfigError,
            "gain: expected a finite number, got nan",
        ),
        (lambda: make_dataset(8, noise=math.nan), ConfigError, "noise: expected a finite number, got nan"),
        (lambda: Sampler(1.0, std=math.nan), InvalidConfigError, "std: expected a finite number, got nan"),
        (
            lambda: finite_difference_grad(convex2d(1.0, 1.0), np.zeros(2), h=math.nan),
            ConfigError,
            "h: expected a finite number, got nan",
        ),
        (lambda: half_decade_grid(math.nan, 1.0), InvalidGridError, "lo: expected a finite number, got nan"),
        (
            lambda: xavier_init(2, 2, math.inf, np.random.default_rng(0)),
            ConfigError,
            "gain: expected a finite number, got inf",
        ),
        (lambda: make_dataset(8, noise=math.inf), ConfigError, "noise: expected a finite number, got inf"),
        (lambda: half_decade_grid(1.0, math.inf), InvalidGridError, "hi: expected a finite number, got inf"),
        (
            lambda: finite_difference_grad(convex2d(1.0, 1.0), np.zeros(2), h=math.inf),
            ConfigError,
            "h: expected a finite number, got inf",
        ),
        *(
            (lambda n=n: _robustness(n), InvalidConfigError, f"n: expected an integer, got {n!r}")
            for n in (2.5, math.nan, True)
        ),
        *(
            (lambda size=size: _scan(size), InvalidConfigError, f"grid_size: expected an integer, got {size!r}")
            for size in (2.5, math.nan, True)
        ),
        (lambda: _robustness(100_001), InvalidConfigError, "n: must be in [1, 100000], got 100001"),
        (
            lambda: _scan(317),
            InvalidConfigError,
            "grid_size: must be in [1, 316], got 317",
        ),
        *((lambda e=e: _at_epoch(e), ConfigError, f"epoch: must be >= 1, got {e}") for e in (0, -1)),
        *(
            (lambda e=e: _at_epoch(e), ConfigError, f"epoch: expected an integer, got {e!r}")
            for e in (2.5, math.nan, True)
        ),
        *(
            (lambda n=n: make_dataset(n), ConfigError, f"n: expected an integer, got {n!r}")
            for n in (2.5, 40.5, math.nan, True)
        ),
        (lambda: MLP([2, 2.5, 2]), ConfigError, "layer_sizes[1]: expected an integer, got 2.5"),
        *(
            (
                lambda sizes=sizes: MLP(sizes),
                ConfigError,
                f"layer_sizes[{i}]: must be in [1, 50000000], got {sizes[i]}",
            )
            for sizes, i in (([2, -1, 2], 1), ([2, 3, -2], 2), ([2, 0, 2], 1))
        ),
        (lambda: mean_std([]), ValueError, "mean_std needs at least one value"),
    ],
    ids=[
        "xavier_init",
        "make_dataset",
        "Sampler",
        "finite_difference_grad",
        "half_decade_grid",
        "xavier_init_inf",
        "make_dataset_inf",
        "half_decade_grid_inf",
        "finite_difference_grad_inf",
        "evaluate_robustness_n_2.5",
        "evaluate_robustness_n_nan",
        "evaluate_robustness_n_True",
        "surface_scan_grid_size_2.5",
        "surface_scan_grid_size_nan",
        "surface_scan_grid_size_True",
        "evaluate_robustness_n_100001",
        "surface_scan_grid_size_317",
        "at_epoch_0",
        "at_epoch_-1",
        "at_epoch_2.5",
        "at_epoch_nan",
        "at_epoch_True",
        "make_dataset_n_2.5",
        "make_dataset_n_40.5",
        "make_dataset_n_nan",
        "make_dataset_n_True",
        "MLP_layer_size_2.5",
        "MLP_layer_size_-1",
        "MLP_last_layer_size_-2",
        "MLP_layer_size_0",
        "mean_std_empty",
    ],
)
def test_library_checks_refuse_nan(call, error, message):
    # Each check is one of optim's, which load_plan's readers use too, and its
    # message is a config refusal's "<argument>: <reason>".  A number must be
    # finite, so NaN and +inf are refused, and a count must be an integer,
    # where range and linspace raised TypeError and True ran once.  The
    # harness refuses more than MAX_TRIALS trials in load_plan's words, and
    # at_epoch an epoch below 1, which indexed the run from its end.  MLP
    # refuses a layer size below 1, where numpy's errors named no field, and
    # mean_std refuses an empty list, where it divided by zero.
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
