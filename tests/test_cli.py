import json
import math
import re
import time

import pytest

from optbench.cli import _COMMANDS, EXIT_ALL_DIVERGED, EXIT_CONFIG, EXIT_OK, _build_parser, main
from optbench.config import SCHEMA_VERSION, distribution_to_dict, spec_to_dict
from optbench.harness import default_eval_distribution
from optbench.objectives import TaskConfig
from optbench.optim import AdaptiveRule, OptimizerSpec, UpdateRule, default_update_rule, make_spec
from optbench.tuning import RateGrids, grid_search


def _write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def _task_doc(iterations=100, x0=(50.0, 50.0)):
    return {
        "function": "convex2d",
        "alpha": 1.0,
        "beta": 20.0,
        "x0": list(x0),
        "iterations": iterations,
    }


def _trial_doc(lr=0.001, iterations=5):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "trial",
        "task": _task_doc(iterations=iterations),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=lr))),
    }


def _robustness_doc(n=6, lr=0.001, seed=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "robustness",
        "distribution": distribution_to_dict(default_eval_distribution("convex2d")),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=lr))),
        "n": n,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def test_trial_end_to_end(tmp_path):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    out = tmp_path / "out"
    assert main(["trial", "--config", str(config), "--out", str(out)]) == EXIT_OK

    raw = (out / "trajectory.csv").read_bytes()
    assert b"\r" not in raw  # newline-only line endings on every platform
    lines = raw.decode().splitlines()
    assert lines[0] == "iteration,distance"
    assert len(lines) == 7  # header + initial distance + 5 iterations
    assert lines[1] == "0,6.929646456e+01"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "trial"
    assert summary["diverged"] is False
    assert summary["iterations_run"] == 5
    assert summary["initial_distance"] == pytest.approx(49.0 * math.sqrt(2.0))
    assert summary["final_distance"] < summary["initial_distance"]
    assert summary["score"] == summary["final_distance"] / summary["initial_distance"]


def test_trial_diverged_summary_uses_nulls(tmp_path):
    config = _write_config(tmp_path, "boom.json", _trial_doc(lr=50.0, iterations=100))
    out = tmp_path / "out"
    assert main(["trial", "--config", str(config), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diverged"] is True
    assert summary["final_distance"] is None
    assert summary["score"] is None
    assert summary["iterations_run"] < 100


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_rate_is_rejected_with_path(tmp_path, capsys, constant):
    text = json.dumps(_trial_doc()).replace('"lr": 0.001', f'"lr": {constant}')
    assert constant in text
    config = tmp_path / "trial.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["trial", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "optimizer.update.lr" in capsys.readouterr().err
    assert not out.exists()


def _tune_doc(grids=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "tune",
        "task": _task_doc(),
        "family": "sgd",
        "update_rule": "additive",
    }
    if grids is not None:
        doc["grids"] = grids
    return doc


def test_tune_single_point_grid(tmp_path):
    config = _write_config(tmp_path, "tune.json", _tune_doc(grids={"lr": [0.001]}))
    out = tmp_path / "out"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == EXIT_OK

    lines = (out / "leaderboard.csv").read_text().splitlines()
    assert lines[0] == "lr,final_distance,diverged"
    assert len(lines) == 2
    assert re.fullmatch(r"0\.001,\d\.\d{9}e[+-]\d{2},false", lines[1])

    best = json.loads((out / "best.json").read_text())
    assert best["optimizer"]["update"] == {"kind": "additive", "lr": 0.001}
    assert best["grid_points"] == 1
    assert best["n_diverged"] == 0
    assert 0.5 <= best["final_distance"] <= 1.0


@pytest.mark.parametrize(
    "kind, grids",
    [
        ("additive", {"lr": [-0.0, 0.001, 0.01]}),
        ("hybrid", {"lr": [0.001, 0.01], "lr_inner": [0.5, 1.0, 3.0], "lr_outer": [0.01, 0.3]}),
    ],
)
def test_tune_leaderboard_writes_every_rate_as_its_repr(tmp_path, kind, grids):
    config = _write_config(tmp_path, "tune.json", dict(_tune_doc(grids=grids), update_rule=kind))
    out = tmp_path / "out"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == EXIT_OK

    task = TaskConfig(**dict(_task_doc(), x0=(50.0, 50.0)))
    result = grid_search(task, "sgd", kind, grids=RateGrids(**{k: tuple(v) for k, v in grids.items()}))
    rows = [
        ",".join([*map(repr, point), f"{d:.9e}", "true" if math.isinf(d) else "false"])
        for point, d in zip(result.rates.tolist(), result.distances.tolist())
    ]
    expected = ",".join([*result.axes, "final_distance", "diverged"]) + "\n" + "".join(f"{r}\n" for r in rows)
    assert (out / "leaderboard.csv").read_bytes() == expected.encode()
    if kind == "additive":
        assert sum(line.startswith("-0.0,") for line in expected.splitlines()) == 1


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_tune_rejects_mix_for_a_rule_without_one(tmp_path, capsys, kind):
    doc = dict(_tune_doc(), update_rule=kind, mix=0.3)
    config = _write_config(tmp_path, "tune.json", doc)
    out = tmp_path / "out"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert re.search(r"\bmix\b", capsys.readouterr().err)
    assert not out.exists()


def test_tune_all_diverged_exits_3(tmp_path, capsys):
    config = _write_config(tmp_path, "tune.json", _tune_doc(grids={"lr": [5.0]}))
    out = tmp_path / "out"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == EXIT_ALL_DIVERGED
    assert "diverged" in capsys.readouterr().err
    best = json.loads((out / "best.json").read_text())
    assert best["final_distance"] is None
    assert best["n_diverged"] == 1
    lines = (out / "leaderboard.csv").read_text().splitlines()
    assert lines[1] == "5.0,inf,true"


def test_malformed_config_names_field(tmp_path, capsys):
    doc = _trial_doc()
    del doc["task"]["beta"]
    config = _write_config(tmp_path, "bad.json", doc)
    assert main(["trial", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "task.beta" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["trial", "--config", str(missing), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{ not json }")
    assert main(["trial", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "line" in capsys.readouterr().err


def test_command_config_mismatch(tmp_path, capsys):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    assert main(["tune", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "command" in capsys.readouterr().err


def test_overwrite_protection(tmp_path, capsys):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    out = tmp_path / "out"
    args = ["trial", "--config", str(config), "--out", str(out)]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_CONFIG
    assert "--overwrite" in capsys.readouterr().err
    assert main([*args, "--overwrite"]) == EXIT_OK


def test_out_naming_a_file_exits_2_naming_it(tmp_path, capsys):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    out = tmp_path / "afile"
    out.write_text("kept")
    assert main(["trial", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert f"error: cannot use {out} as the output directory" in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_out_under_a_file_exits_2_naming_it(tmp_path, capsys):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    (tmp_path / "afile").write_text("kept")
    out = tmp_path / "afile" / "sub"
    assert main(["trial", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert f"error: cannot use {out} as the output directory" in capsys.readouterr().err


def test_overwrite_refuses_a_target_that_is_a_directory_before_writing(tmp_path, capsys):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    out = tmp_path / "o"
    (out / "summary.json").mkdir(parents=True)
    args = ["trial", "--config", str(config), "--out", str(out), "--overwrite"]
    assert main(args) == EXIT_CONFIG
    assert f"error: {out / 'summary.json'} exists and is not a regular file" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_parallelism_must_be_positive(tmp_path, capsys):
    config = _write_config(tmp_path, "trial.json", _trial_doc())
    args = ["trial", "--config", str(config), "--out", str(tmp_path / "o"), "--parallelism", "0"]
    assert main(args) == EXIT_CONFIG
    assert "--parallelism" in capsys.readouterr().err


def test_robustness_config_seed_wins(tmp_path):
    config = _write_config(tmp_path, "rob.json", _robustness_doc(seed=11))
    out = tmp_path / "a"
    assert main(["robustness", "--config", str(config), "--out", str(out), "--seed", "99"]) == EXIT_OK
    stats = json.loads((out / "stats.json").read_text())
    assert stats["seed"] == 11


def test_robustness_cli_seed_is_fallback(tmp_path):
    config = _write_config(tmp_path, "rob.json", _robustness_doc())
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["robustness", "--config", str(config)]
    assert main([*base, "--out", str(out_a), "--seed", "5"]) == EXIT_OK
    assert main([*base, "--out", str(out_b), "--seed", "5"]) == EXIT_OK
    assert main([*base, "--out", str(out_c), "--seed", "6"]) == EXIT_OK
    assert json.loads((out_a / "stats.json").read_text())["seed"] == 5
    a = (out_a / "scores.csv").read_bytes()
    assert a == (out_b / "scores.csv").read_bytes()
    assert a != (out_c / "scores.csv").read_bytes()


def test_fixed_nonpositive_beta_is_rejected_at_parse_time(tmp_path, capsys):
    doc = _robustness_doc()
    doc["distribution"]["beta"] = -1.0
    config = _write_config(tmp_path, "rob.json", doc)
    started = time.monotonic()
    assert main(["robustness", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    assert "distribution.beta" in capsys.readouterr().err


@pytest.mark.parametrize("mean", [-100.0, -1e6])
def test_beta_distribution_without_positive_draws_stops(tmp_path, capsys, mean):
    doc = _robustness_doc()
    doc["distribution"]["beta"] = {"mean": mean, "std": 1.0}
    config = _write_config(tmp_path, "rob.json", doc)
    out = tmp_path / "o"
    started = time.monotonic()
    assert main(["robustness", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    assert capsys.readouterr().err.splitlines() == [
        f"error: distribution.beta: no positive draw from Sampler(mean={mean!r}, std=1.0) in 1000 tries"
    ]
    assert not (out / "stats.json").exists()


def test_scores_csv_format(tmp_path):
    # lr=5e-3 on the rosenbrock distribution mixes finite and diverged runs
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "robustness",
        "distribution": distribution_to_dict(default_eval_distribution("rosenbrock")),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=5e-3))),
        "n": 10,
        "seed": 11,
    }
    config = _write_config(tmp_path, "rob.json", doc)
    out = tmp_path / "out"
    assert main(["robustness", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = (out / "scores.csv").read_text().splitlines()
    assert lines[0] == "index,score,diverged"
    assert len(lines) == 11
    finite = re.compile(r"\d+,\d\.\d{9}e[+-]\d{2},false")
    diverged = re.compile(r"\d+,inf,true")
    kinds = {bool(diverged.fullmatch(l)) for l in lines[1:]}
    assert all(finite.fullmatch(l) or diverged.fullmatch(l) for l in lines[1:])
    assert kinds == {True, False}  # both outcomes appear
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n"] + stats["n_diverged"] == 10
    assert stats["std_estimator"].startswith("sample")


def test_byte_identical_reruns_across_parallelism(tmp_path):
    config = _write_config(tmp_path, "rob.json", _robustness_doc(n=8, seed=3))
    outs = [tmp_path / f"o{i}" for i in range(3)]
    base = ["robustness", "--config", str(config)]
    assert main([*base, "--out", str(outs[0])]) == EXIT_OK
    assert main([*base, "--out", str(outs[1])]) == EXIT_OK
    assert main([*base, "--out", str(outs[2]), "--parallelism", "2"]) == EXIT_OK
    for name in ("scores.csv", "stats.json"):
        reference = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == reference
        assert (outs[2] / name).read_bytes() == reference


def test_scan_surface_layout(tmp_path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "task": _task_doc(iterations=10),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=0.001))),
        "grid_size": 3,
    }
    config = _write_config(tmp_path, "scan.json", doc)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = (out / "surface.csv").read_text().splitlines()
    assert lines[0] == "x0,40.0,50.0,60.0"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        assert cells[0] in ("40.0", "50.0", "60.0")


def _train_toy_doc(update_rule, n_configs=2):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "train-toy",
        "family": "sgd",
        "update_rule": update_rule,
        "n_configs": n_configs,
        "master_seed": 7,
    }


def test_train_toy_end_to_end(tmp_path):
    config = _write_config(tmp_path, "toy.json", _train_toy_doc("additive"))
    out = tmp_path / "out"
    assert main(["train-toy", "--config", str(config), "--out", str(out)]) == EXIT_OK
    for i in range(2):
        lines = (out / f"run_{i:02d}.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_accuracy,val_accuracy,train_loss"
        assert len(lines) >= 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["update_rule"] == "additive"
    assert summary["master_seed"] == 7
    assert summary["n_runs"] == 2
    assert len(summary["runs"]) == 2
    assert 0.0 <= summary["final"]["mean_val_accuracy"] <= 1.0
    assert {"index", "gain", "epochs", "seed", "epoch5_val_accuracy", "final_val_accuracy",
            "sign_flips", "diverged"} <= set(summary["runs"][0])


def test_train_toy_multiplicative_never_flips(tmp_path):
    config = _write_config(tmp_path, "toy.json", _train_toy_doc("multiplicative", n_configs=1))
    out = tmp_path / "out"
    assert main(["train-toy", "--config", str(config), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sign_flips_total"] == 0
    assert summary["n_diverged"] == 0


def _adagrad_with_eps(eps):
    spec = make_spec("adagrad", default_update_rule("adagrad", "additive"))
    return OptimizerSpec(spec.momentum, AdaptiveRule("accumulate", eps=eps), spec.update)


@pytest.mark.parametrize(
    "family, spec",
    [
        # adam's ema momentum (beta1 0.9) under the rmsprop label, whose beta1 is 0.
        ("rmsprop", make_spec("adam", default_update_rule("rmsprop", "additive"))),
        # The accumulating rule with an eps of its own under the adagrad label.
        ("adagrad", _adagrad_with_eps(1e-6)),
    ],
)
def test_train_toy_rejects_an_optimizer_with_other_rates_than_its_family(tmp_path, capsys, family, spec):
    doc = dict(_train_toy_doc("additive"), family=family, optimizer=spec_to_dict(spec))
    config = _write_config(tmp_path, "toy.json", doc)
    out = tmp_path / "out"
    assert main(["train-toy", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: optimizer: ")
    assert not out.exists()


def test_output_root_env_routing(tmp_path, monkeypatch):
    config = _write_config(tmp_path, "mytrial.json", _trial_doc())
    root = tmp_path / "results"
    monkeypatch.setenv("OPTBENCH_OUT", str(root))
    assert main(["trial", "--config", str(config)]) == EXIT_OK
    assert (root / "mytrial" / "summary.json").exists()


def test_default_output_under_runs(tmp_path, monkeypatch):
    config = _write_config(tmp_path, "mytrial.json", _trial_doc())
    monkeypatch.delenv("OPTBENCH_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["trial", "--config", str(config)]) == EXIT_OK
    assert (tmp_path / "runs" / "mytrial" / "trajectory.csv").exists()


# -------------------------------------------------------------- parser

@pytest.mark.parametrize("command", ["tune", "trial", "robustness", "scan", "train-toy"])
def test_every_command_parses_config_and_out(command):
    args = _build_parser().parse_args([command, "--config", "c.json", "--out", "o"])
    assert (args.command, args.config, args.out) == (command, "c.json", "o")
    assert (args.seed, args.parallelism, args.overwrite) == (0, 1, False)


@pytest.mark.parametrize(
    "argv", [["bogus", "--config", "c.json"], ["--config", "c.json", "--out", "o"], []]
)
def test_unknown_or_missing_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "command" in capsys.readouterr().err


def test_the_parser_is_built_once_and_answers_alike_on_every_call(tmp_path, capsys):
    assert _build_parser() is _build_parser()

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    first = [outcome([]), outcome(["--help"])]
    config = _write_config(tmp_path, "tune.json", _tune_doc(grids={"lr": [0.001, 0.01]}))
    assert outcome(["tune", "--config", str(config), "--out", str(tmp_path / "out")]) == (EXIT_OK, "", "")
    assert [outcome([]), outcome(["--help"])] == first
    assert [code for code, _, _ in first] == [2, 0]
    assert "command" in first[0][2] and "commands:" in first[1][1]
    assert _build_parser() is _build_parser()


def test_help_lists_every_command_with_its_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(_COMMANDS) == 5
    for name, (_, help_text) in _COMMANDS.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(help_text)}$", out, re.MULTILINE), name


# ------------------------------------------- draws and ranges past floats

@pytest.mark.parametrize("field", ["alpha", "x0[0]", "x0[1]"])
def test_overflowing_robustness_draw_names_its_field(tmp_path, capsys, field):
    doc = _robustness_doc(n=20, seed=1)
    huge = {"mean": 1e308, "std": 1e308}
    if field == "alpha":
        doc["distribution"]["alpha"] = huge
    else:
        doc["distribution"]["x0"][int(field[3])] = huge
    config = _write_config(tmp_path, "rob.json", doc)
    out = tmp_path / "o"
    started = time.monotonic()
    assert main(["robustness", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    err = capsys.readouterr().err
    assert f"error: distribution.{field} must be finite, got inf (row " in err
    assert not (out / "stats.json").exists()


@pytest.mark.parametrize("field", ["x0_range", "x1_range"])
def test_scan_range_wider_than_the_floats_names_its_field(tmp_path, capsys, field):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "task": _task_doc(iterations=10),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=0.001))),
        field: [-1e308, 1e308],
    }
    config = _write_config(tmp_path, "scan.json", doc)
    out = tmp_path / "o"
    started = time.monotonic()
    assert main(["scan", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert time.monotonic() - started < 5.0
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (out / "surface.csv").exists()
