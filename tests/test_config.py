import json

import pytest

from optbench.config import (
    SCHEMA_VERSION,
    ConfigError,
    TunePlan,
    distribution_to_dict,
    load_plan,
    parse_distribution,
    parse_grid_axis,
    parse_grids,
    parse_optimizer_spec,
    parse_sampler,
    parse_task,
    parse_update,
    spec_to_dict,
    task_to_dict,
)
from optbench.harness import Sampler, default_eval_distribution
from optbench.objectives import TaskConfig
from optbench.optim import UpdateRule, default_update_rule, make_spec
from optbench.tuning import build_grid, GridSpec


def _roundtrip(spec):
    return parse_optimizer_spec(spec_to_dict(spec), "optimizer")


@pytest.mark.parametrize("family", ["sgd", "adagrad", "adam", "rmsprop"])
@pytest.mark.parametrize("kind", ["additive", "multiplicative", "hybrid"])
def test_spec_roundtrip_all_families_and_kinds(family, kind):
    if family == "adam" and kind == "multiplicative":
        spec = make_spec(family, UpdateRule(kind, lr_inner=1.0, lr_outer=0.5))
    elif family == "adam" and kind == "hybrid":
        spec = make_spec(family, UpdateRule(kind, lr=0.001, lr_inner=1.0, lr_outer=0.5))
    else:
        spec = make_spec(family, default_update_rule(family, kind))
    assert _roundtrip(spec) == spec


def test_task_roundtrip():
    task = TaskConfig("rosenbrock", 1.0, 60.0, (0.5, 3.0), 100, seed=4)
    assert parse_task(task_to_dict(task), "task") == task


def test_distribution_roundtrip():
    dist = default_eval_distribution("convex2d")
    assert parse_distribution(distribution_to_dict(dist), "distribution") == dist
    # the pinned rosenbrock alpha serializes as a bare number
    rosen = distribution_to_dict(default_eval_distribution("rosenbrock"))
    assert rosen["alpha"] == 1.0


def test_unknown_key_reports_dotted_path():
    doc = {"kind": "additive", "lr": 0.01, "lr_inner": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_update(doc, "optimizer.update")
    assert err.value.field_path == "optimizer.update.lr_inner"


def test_missing_key_reports_dotted_path():
    doc = {"function": "convex2d", "alpha": 1.0, "x0": [50, 50], "iterations": 100}
    with pytest.raises(ConfigError) as err:
        parse_task(doc, "task")
    assert err.value.field_path == "task.beta"


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError) as err:
        parse_update({"kind": "additive", "lr": True}, "u")
    assert err.value.field_path == "u.lr"


def test_non_integer_iterations_rejected():
    doc = {"function": "convex2d", "alpha": 1.0, "beta": 20.0, "x0": [50, 50], "iterations": 1.5}
    with pytest.raises(ConfigError) as err:
        parse_task(doc, "task")
    assert err.value.field_path == "task.iterations"


def test_enum_violation_names_choices():
    with pytest.raises(ConfigError, match="must be one of"):
        parse_update({"kind": "blended"}, "u")


def test_out_of_range_rate_is_wrapped_with_path():
    with pytest.raises(ConfigError, match="lr_outer"):
        parse_update({"kind": "multiplicative", "lr_inner": 1.0, "lr_outer": 1.5}, "u")


def test_parse_sampler_forms():
    assert parse_sampler(3.0, "s") == Sampler(3.0)
    assert parse_sampler({"mean": 3.0, "std": 1.0}, "s") == Sampler(3.0, 1.0)
    assert parse_sampler({"mean": 3.0}, "s") == Sampler(3.0)
    with pytest.raises(ConfigError) as err:
        parse_sampler({"mean": 3.0, "var": 1.0}, "s")
    assert err.value.field_path == "s.var"
    with pytest.raises(ConfigError, match="std"):
        parse_sampler({"mean": 3.0, "std": -1.0}, "s")
    with pytest.raises(ConfigError):
        parse_sampler("wide", "s")


def test_parse_grid_axis_list_and_spec():
    assert parse_grid_axis([0.1, 0.2, 0.5], "g") == (0.1, 0.2, 0.5)
    spec_form = parse_grid_axis({"lo": 0.1, "hi": 50.0, "log10_step": 0.5}, "g")
    assert list(spec_form) == build_grid(GridSpec(0.1, 50.0, 0.5))
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_grid_axis([0.1, 0.1], "g")
    with pytest.raises(ConfigError, match="empty"):
        parse_grid_axis([], "g")
    with pytest.raises(ConfigError) as err:
        parse_grid_axis({"lo": 0.1, "hi": 1.0, "step": 2}, "g")
    assert err.value.field_path == "g.step"


def test_parse_grids_defaults_and_axis_filtering():
    grids = parse_grids(None, "grids", "hybrid")
    assert len(grids.lr) == 18 and len(grids.lr_inner) == 7 and len(grids.lr_outer) == 9
    override = parse_grids({"lr": [0.001, 0.01]}, "grids", "hybrid")
    assert override.lr == (0.001, 0.01)
    assert override.lr_inner == grids.lr_inner  # untouched axes fall back to defaults
    with pytest.raises(ConfigError) as err:
        parse_grids({"lr_inner": [1.0]}, "grids", "additive")
    assert err.value.field_path == "grids.lr_inner"


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _tune_doc(**over):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "tune",
        "task": {
            "function": "convex2d",
            "alpha": 1.0,
            "beta": 20.0,
            "x0": [50.0, 50.0],
            "iterations": 100,
        },
        "family": "sgd",
        "update_rule": "hybrid",
    }
    doc.update(over)
    return doc


def test_load_plan_tune_roundtrip(tmp_path):
    path = _write(tmp_path, "tune.json", _tune_doc(grids={"lr": [0.001, 0.01]}, mix=0.25))
    command, plan = load_plan(path)
    assert command == "tune"
    assert isinstance(plan, TunePlan)
    assert plan.family == "sgd"
    assert plan.update_kind == "hybrid"
    assert plan.mix == 0.25
    assert plan.grids.lr == (0.001, 0.01)
    assert plan.task.beta == 20.0


def test_load_plan_rejects_schema_version(tmp_path):
    path = _write(tmp_path, "t.json", _tune_doc(schema_version=2))
    with pytest.raises(ConfigError) as err:
        load_plan(path)
    assert err.value.field_path == "schema_version"


def test_load_plan_rejects_command_mismatch(tmp_path):
    path = _write(tmp_path, "t.json", _tune_doc())
    with pytest.raises(ConfigError) as err:
        load_plan(path, expected_command="trial")
    assert err.value.field_path == "command"


def test_load_plan_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_plan(p)


def test_load_plan_rejects_oversized_integer(tmp_path):
    # Python refuses to convert integer literals past 4,300 digits.
    p = tmp_path / "huge.json"
    p.write_text('{"schema_version": 1, "command": "trial", "n": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError, match="huge.json"):
        load_plan(p)


def test_load_plan_rejects_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="top level"):
        load_plan(p)


def test_optimizer_reference_resolves_relative_to_config(tmp_path):
    spec = make_spec("sgd", default_update_rule("sgd", "hybrid"))
    sub = tmp_path / "tuned"
    sub.mkdir()
    # a tuning run's best.json shape: the spec lives under "optimizer"
    _write(sub, "best.json", {"command": "tune", "optimizer": spec_to_dict(spec)})
    parsed = parse_optimizer_spec({"path": "tuned/best.json"}, "optimizer", base_dir=tmp_path)
    assert parsed == spec
    # a bare spec document also works
    _write(sub, "bare.json", spec_to_dict(spec))
    assert parse_optimizer_spec({"path": "tuned/bare.json"}, "optimizer", base_dir=tmp_path) == spec


def test_optimizer_reference_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_optimizer_spec({"path": "nope.json"}, "optimizer", base_dir=tmp_path)
    assert err.value.field_path == "optimizer.path"


def test_optimizer_reference_allows_no_extra_keys(tmp_path):
    with pytest.raises(ConfigError):
        parse_optimizer_spec({"path": "x.json", "update": {}}, "optimizer", base_dir=tmp_path)


def _train_toy_doc(**over):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "train-toy",
        "family": "sgd",
        "update_rule": "multiplicative",
        "n_configs": 2,
        "master_seed": 7,
    }
    doc.update(over)
    return doc


def test_load_plan_train_toy_defaults(tmp_path):
    path = _write(tmp_path, "toy.json", _train_toy_doc())
    _, plan = load_plan(path, expected_command="train-toy")
    assert plan.settings.dataset_n == 400
    assert plan.settings.hidden == (16,)
    assert plan.settings.batch_size == 32
    assert plan.optimizer == make_spec("sgd", default_update_rule("sgd", "multiplicative"))
    assert plan.master_seed == 7
    assert plan.n_configs == 2


def test_load_plan_train_toy_rejects_adam_rate_defaults(tmp_path):
    path = _write(tmp_path, "toy.json", _train_toy_doc(family="adam", update_rule="hybrid"))
    with pytest.raises(ConfigError) as err:
        load_plan(path)
    assert err.value.field_path == "update_rule"


def test_load_plan_train_toy_explicit_optimizer_wins(tmp_path):
    spec = make_spec("adam", UpdateRule("hybrid", lr=0.001, lr_inner=1.0, lr_outer=0.5))
    path = _write(
        tmp_path,
        "toy.json",
        _train_toy_doc(family="adam", update_rule="hybrid", optimizer=spec_to_dict(spec)),
    )
    _, plan = load_plan(path)
    assert plan.optimizer == spec


def test_load_plan_train_toy_validation(tmp_path):
    path = _write(tmp_path, "toy.json", _train_toy_doc(hidden=[0]))
    with pytest.raises(ConfigError, match="hidden"):
        load_plan(path)
    path = _write(tmp_path, "toy2.json", _train_toy_doc(fan_mode="mean"))
    with pytest.raises(ConfigError, match="fan_mode"):
        load_plan(path)
    path = _write(tmp_path, "toy3.json", _train_toy_doc(n_configs=0))
    with pytest.raises(ConfigError, match="n_configs"):
        load_plan(path)


def _robustness_doc(**over):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "robustness",
        "distribution": distribution_to_dict(default_eval_distribution("convex2d")),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=0.001))),
        "n": 10,
    }
    doc.update(over)
    return doc


def test_load_plan_robustness(tmp_path):
    path = _write(tmp_path, "rob.json", _robustness_doc(seed=99))
    _, plan = load_plan(path, expected_command="robustness")
    assert plan.n == 10
    assert plan.seed == 99
    assert plan.distribution == default_eval_distribution("convex2d")
    # seed is optional
    path = _write(tmp_path, "rob2.json", _robustness_doc())
    _, plan = load_plan(path)
    assert plan.seed is None
    path = _write(tmp_path, "rob3.json", _robustness_doc(n=0))
    with pytest.raises(ConfigError, match="n"):
        load_plan(path)


def test_load_plan_scan(tmp_path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "task": task_to_dict(TaskConfig("convex2d", 1.0, 20.0, (50.0, 50.0), 100)),
        "optimizer": spec_to_dict(make_spec("sgd", UpdateRule("additive", lr=0.001))),
        "x0_range": [40.0, 60.0],
        "grid_size": 5,
    }
    path = _write(tmp_path, "scan.json", doc)
    _, plan = load_plan(path, expected_command="scan")
    assert plan.x0_range == (40.0, 60.0)
    assert plan.x1_range is None
    assert plan.grid_size == 5
    bad = dict(doc, x0_range=[60.0, 40.0])
    path = _write(tmp_path, "scan2.json", bad)
    with pytest.raises(ConfigError, match="exceeds"):
        load_plan(path)
    bad = dict(doc, grid_size=0)
    path = _write(tmp_path, "scan3.json", bad)
    with pytest.raises(ConfigError, match="grid_size"):
        load_plan(path)
