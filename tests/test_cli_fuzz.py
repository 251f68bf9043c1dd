"""Any trial or scan plan, run end to end through the CLI, either writes
strict outputs (exit 0) or exits 2 with one line that names the offending
field by its dotted path; it never prints a traceback."""
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from optbench.cli import EXIT_CONFIG, EXIT_OK, main
from optbench.objectives import FUNCTIONS
from optbench.optim import AdaptiveRule, MomentumRule, UpdateRule

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
        "task": st.fixed_dictionaries(
            {
                "function": st.sampled_from(FUNCTIONS),
                "alpha": value(st.floats(0.1, 10.0), NUMBERS),
                "beta": value(st.floats(0.1, 100.0), NUMBERS),
                "x0": point,
                "iterations": value(st.integers(1, 100), st.sampled_from([0, -1, 10**6])),
            },
            optional={"seed": value(st.integers(0, 2**40), st.just(-1))},
        ),
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


# Half the plans are admissible throughout, so that most runs reach the
# kernel; the other half may hold a value that some field refuses.
PLANS = _plans(lambda admissible, other: admissible) | _plans(st.one_of)
# "error: ", a dotted field path such as optimizer.update.lr or task.x0[1],
# then ": ".
ERROR_LINE = re.compile(r"error: (([A-Za-z_]\w*)(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*): ")


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=PLANS)
def test_any_trial_or_scan_plan_exits_0_with_strict_outputs_or_2_naming_its_field(workdir, capsys, plan):
    config, out = workdir / "config.json", workdir / "out"
    config.write_text(json.dumps(plan))
    command = plan["command"]
    code = main([command, "--config", str(config), "--out", str(out), "--overwrite"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (EXIT_OK, EXIT_CONFIG), err
    if code == EXIT_CONFIG:
        line = ERROR_LINE.match(err)
        assert err.count("\n") == 1 and line and line.group(2) in plan, err
        return
    assert err == ""
    if command == "trial":
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_strict)
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert summary["command"] == "trial"
        assert rows[0] == "iteration,distance" and len(rows) == summary["iterations_run"] + 2
    else:
        rows = (out / "surface.csv").read_text().splitlines()
        assert len(rows) == plan.get("grid_size", 25) + 1
