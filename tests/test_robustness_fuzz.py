"""Any robustness plan, run end to end through the CLI, either writes
strict, consistent outputs (exit 0) or exits 2 with one line that names
the offending field; it never prints a traceback."""
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from optbench.cli import EXIT_CONFIG, EXIT_OK, main

TUNED = Path(__file__).resolve().parent.parent / "configs" / "tuned"

# Zero, negatives, the extremes and subnormals, plus moderate values that
# keep budgets small enough to run in a few milliseconds.
NUMBERS = st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]
) | st.floats(-200.0, 200.0)
# A negative std is rejected at load time; most draws keep std >= 0 so that
# most plans run.
SAMPLERS = st.fixed_dictionaries({"mean": NUMBERS, "std": NUMBERS.map(abs) | NUMBERS})
PLANS = st.fixed_dictionaries(
    {
        "command": st.just("robustness"),
        "schema_version": st.just(1),
        "seed": st.integers(0, 2**70),
        "n": st.integers(1, 20),
        "distribution": st.fixed_dictionaries(
            {
                "function": st.sampled_from(["convex2d", "rosenbrock"]),
                "x0": st.lists(SAMPLERS, min_size=2, max_size=2),
                "alpha": SAMPLERS,
                "beta": SAMPLERS,
                "iterations": SAMPLERS,
            }
        ),
        "optimizer": st.sampled_from(sorted(TUNED.glob("*.json"))).map(lambda p: {"path": str(p)}),
    }
)
# "error: " then a dotted field path such as distribution.x0[1] or n.
ERROR_LINE = re.compile(r"error: (([A-Za-z_]\w*)(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*)[: ]")


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness-fuzz")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=PLANS)
def test_any_robustness_plan_exits_0_with_strict_outputs_or_2_naming_its_field(workdir, capsys, plan):
    config, out = workdir / "config.json", workdir / "out"
    config.write_text(json.dumps(plan))
    code = main(["robustness", "--config", str(config), "--out", str(out), "--overwrite"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (EXIT_OK, EXIT_CONFIG), err
    if code == EXIT_CONFIG:
        line = ERROR_LINE.match(err)
        assert err.count("\n") == 1 and line and line.group(2) in plan, err
        return
    assert err == ""
    stats = json.loads((out / "stats.json").read_text(), parse_constant=_strict)
    assert stats["total_trials"] == plan["n"]
    assert stats["n"] + stats["n_diverged"] == stats["total_trials"]
    rows = (out / "scores.csv").read_text().splitlines()
    assert rows[0] == "index,score,diverged" and len(rows) == plan["n"] + 1
