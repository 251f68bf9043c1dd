"""Any trial, scan, tune or train-toy plan, run end to end through the
CLI, either writes strict outputs (exit 0, or 3 for a tune whose every
grid point diverged) or exits 2 with one line that names the offending
field by its dotted path; it never prints a traceback."""
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from optbench.cli import EXIT_ALL_DIVERGED, EXIT_CONFIG, EXIT_OK, main
from optbench.nn import ACTIVATIONS, FAN_MODES
from optbench.objectives import FUNCTIONS
from optbench.optim import FAMILIES, UPDATE_KINDS, AdaptiveRule, MomentumRule, UpdateRule
from optbench.tuning import RATE_AXES

TUNED = Path(__file__).resolve().parent.parent / "configs" / "tuned"

# Values that no field admits, or not every field: zero, negatives, the
# extremes and subnormals.
EDGES = st.sampled_from([0.0, -0.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324, 2.2250738585072014e-308])
NUMBERS = st.floats(-100.0, 100.0) | EDGES
RATES = {
    "beta1": st.floats(0.0, 0.99),
    "beta2": st.floats(0.0, 0.999),
    "eps": st.floats(1e-10, 1.0),
    "lr": st.floats(0.0, 0.5),
    "lr_inner": st.floats(1e-3, 10.0),
    "lr_outer": st.floats(1e-3, 1.0),
    "mix": st.floats(0.0, 1.0),
}
DEFAULTED = ("beta1", "beta2", "eps", "mix")


def _plans(value):
    """Trial and scan plans whose every field is value(admissible, other):
    value picks whether a field may also take other draws, which the field
    may refuse."""

    def rule(cls):
        def fields(kind):
            values = {name: value(RATES[name], NUMBERS) for name in cls.FIELDS[kind]}
            required = {name: values.pop(name) for name in cls.FIELDS[kind] if name not in DEFAULTED}
            return st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=values)

        return st.sampled_from(sorted(cls.FIELDS)).flatmap(fields)

    point = st.lists(value(st.floats(-10.0, 10.0), NUMBERS), min_size=2, max_size=2)
    common = {
        "schema_version": st.just(1),
        "task": _task(value, point, st.integers(1, 100)),
        "optimizer": st.fixed_dictionaries(
            {"momentum": rule(MomentumRule), "adaptive": rule(AdaptiveRule), "update": rule(UpdateRule)}
        ),
    }
    scan = {
        "x0_range": value(point.map(sorted), point),
        "x1_range": value(point.map(sorted), point),
        "grid_size": value(st.integers(1, 6), st.just(0)),
    }
    return st.fixed_dictionaries({**common, "command": st.just("trial")}) | st.fixed_dictionaries(
        {**common, "command": st.just("scan")}, optional=scan
    )


def _task(value, point, iterations):
    return st.fixed_dictionaries(
        {
            "function": st.sampled_from(FUNCTIONS),
            "alpha": value(st.floats(0.1, 10.0), NUMBERS),
            "beta": value(st.floats(0.1, 100.0), NUMBERS),
            "x0": point,
            "iterations": value(iterations, st.sampled_from([0, -1, 10**6])),
        },
        optional={"seed": value(st.integers(0, 2**40), st.just(-1))},
    )


def _tune_plans(value):
    """Tune plans with small explicit grids, most as value lists, some as
    {lo, hi, log10_step} specs, and budgets of at most 50 iterations, so
    that a run takes milliseconds."""

    def axis(name):
        listed = st.lists(RATES[name], min_size=1, max_size=3, unique=True).map(sorted)
        lo = st.floats(1e-3, 0.5)
        spec = st.fixed_dictionaries(
            {"lo": value(lo, NUMBERS), "hi": value(lo.map(lambda x: 2.0 * x), NUMBERS)},
            optional={"log10_step": value(st.floats(0.2, 2.0), NUMBERS)},
        )
        # other: an unsorted list, or one holding a value the rate refuses.
        return value(listed, st.lists(NUMBERS, min_size=1, max_size=3)) | spec

    point = st.lists(value(st.floats(-10.0, 10.0), NUMBERS), min_size=2, max_size=2)

    def plan(kind):
        optional = {"mix": value(RATES["mix"], NUMBERS)} if kind == "hybrid" else {}
        return st.fixed_dictionaries(
            {
                "schema_version": st.just(1),
                "command": st.just("tune"),
                "task": _task(value, point, st.integers(1, 50)),
                "family": st.sampled_from(FAMILIES),
                "update_rule": st.just(kind),
                "grids": st.fixed_dictionaries({name: axis(name) for name in RATE_AXES[kind]}),
            },
            optional=optional,
        )

    return st.sampled_from(UPDATE_KINDS).flatmap(plan)


def _train_toy_plans(value):
    """Train-toy plans of at most three small networks on at most 64
    samples, so that a run takes some tens of milliseconds; a value a field
    may refuse runs nothing."""
    optional = {
        "dataset": st.fixed_dictionaries(
            {},
            optional={
                "n": value(st.integers(4, 64), st.sampled_from([0, 3, 10**9])),
                "noise": value(st.floats(0.0, 0.5), NUMBERS),
                "seed": value(st.integers(0, 2**40), st.just(-1)),
            },
        ),
        "hidden": value(st.lists(st.integers(1, 8), min_size=1, max_size=2), st.sampled_from([[], [0], [10**7]])),
        "activation": value(st.sampled_from(ACTIVATIONS), st.just("sigmoid")),
        "batch_size": value(st.integers(4, 32), st.sampled_from([0, -1])),
        "fan_mode": value(st.sampled_from(sorted(FAN_MODES)), st.just("mean")),
        # A tuned spec whose family and kind may not be the plan's.
        "optimizer": st.sampled_from(sorted(TUNED.glob("*.json"))).map(lambda p: {"path": str(p)}),
        "n_configs": value(st.integers(1, 3), st.sampled_from([0, 10**6])),
        "master_seed": value(st.integers(0, 2**40), st.just(-1)),
    }
    return st.fixed_dictionaries(
        {
            "schema_version": st.just(1),
            "command": st.just("train-toy"),
            "family": st.sampled_from(FAMILIES),
            "update_rule": st.sampled_from(UPDATE_KINDS),
        },
        optional=optional,
    )


def _admissible(admissible, other):
    return admissible


# Half the plans are admissible throughout, so that most runs reach the
# kernel; the other half may hold a value that some field refuses.
PLANS = _plans(_admissible) | _plans(st.one_of)
TUNE_PLANS = _tune_plans(_admissible) | _tune_plans(st.one_of)
TRAIN_TOY_PLANS = _train_toy_plans(_admissible) | _train_toy_plans(st.one_of)
# "error: ", a dotted field path such as optimizer.update.lr or task.x0[1],
# then ": ".
ERROR_LINE = re.compile(r"error: (([A-Za-z_]\w*)(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*): ")


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _run(workdir, capsys, plan, codes=(EXIT_OK, EXIT_CONFIG)) -> int:
    """Run the plan; check that it exits with one of codes and prints no
    traceback, and that an exit 2 prints one line naming a key of the
    plan."""
    config, out = workdir / "config.json", workdir / "out"
    config.write_text(json.dumps(plan))
    code = main([plan["command"], "--config", str(config), "--out", str(out), "--overwrite"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in codes, err
    if code == EXIT_CONFIG:
        line = ERROR_LINE.match(err)
        assert err.count("\n") == 1 and line and line.group(2) in plan, err
    elif code == EXIT_OK:
        assert err == ""
    return code


def _json(path):
    return json.loads(path.read_text(), parse_constant=_strict)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=PLANS)
def test_any_trial_or_scan_plan_exits_0_with_strict_outputs_or_2_naming_its_field(workdir, capsys, plan):
    out = workdir / "out"
    if _run(workdir, capsys, plan) == EXIT_CONFIG:
        return
    if plan["command"] == "trial":
        summary = _json(out / "summary.json")
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert summary["command"] == "trial"
        assert rows[0] == "iteration,distance" and len(rows) == summary["iterations_run"] + 2
    else:
        rows = (out / "surface.csv").read_text().splitlines()
        assert len(rows) == plan.get("grid_size", 25) + 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=TUNE_PLANS)
def test_any_tune_plan_exits_0_or_3_with_strict_outputs_or_2_naming_its_field(workdir, capsys, plan):
    out = workdir / "out"
    code = _run(workdir, capsys, plan, codes=(EXIT_OK, EXIT_CONFIG, EXIT_ALL_DIVERGED))
    if code == EXIT_CONFIG:
        return
    best = _json(out / "best.json")
    rows = (out / "leaderboard.csv").read_text().splitlines()
    assert best["command"] == "tune" and len(rows) == best["grid_points"] + 1
    assert (best["final_distance"] is None) == (code == EXIT_ALL_DIVERGED)
    assert best["n_diverged"] == sum(row.endswith(",true") for row in rows[1:])


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=TRAIN_TOY_PLANS)
def test_any_train_toy_plan_exits_0_with_strict_outputs_or_2_naming_its_field(workdir, capsys, plan):
    out = workdir / "out"
    if _run(workdir, capsys, plan) == EXIT_CONFIG:
        return
    summary = _json(out / "summary.json")
    assert summary["n_runs"] == plan.get("n_configs", 10) == len(summary["runs"])
    for run in summary["runs"]:
        rows = (out / f"run_{run['index']:02d}.csv").read_text().splitlines()
        assert rows[0] == "epoch,train_accuracy,val_accuracy,train_loss" and len(rows) >= 2
