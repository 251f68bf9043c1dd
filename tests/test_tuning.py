import json
import math
import time
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optbench import tuning
from optbench.cli import EXIT_OK, main
from optbench.config import SCHEMA_VERSION, to_json
from optbench.harness import run_batch, run_trial
from optbench.objectives import TaskConfig
from optbench.optim import UpdateRule, make_spec
from optbench.tuning import (
    LR_INNER_RANGE,
    LR_OUTER_RANGE,
    LR_RANGE,
    RATE_AXES,
    GridSpec,
    InvalidGridError,
    RateGrids,
    build_grid,
    default_grids,
    grid_search,
    half_decade_grid,
)

CONVEX = TaskConfig("convex2d", alpha=1.0, beta=20.0, x0=(50.0, 50.0), iterations=100)
ROSENBROCK = TaskConfig("rosenbrock", alpha=1.0, beta=60.0, x0=(0.5, 3.0), iterations=100)


def test_build_grid_inner_range():
    grid = build_grid(GridSpec(*LR_INNER_RANGE))
    assert len(grid) == 7
    assert grid[0] == 0.1
    assert grid[-1] == 50.0
    assert_allclose(grid, [0.1, 0.31622777, 1.0, 3.16227766, 10.0, 31.6227766, 50.0], rtol=1e-7)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_build_grid_outer_range():
    grid = build_grid(GridSpec(*LR_OUTER_RANGE))
    assert len(grid) == 9
    assert grid[0] == 1e-4
    assert grid[-1] == 1.0


def test_build_grid_degenerate_and_invalid():
    assert build_grid(GridSpec(0.5, 0.5)) == [0.5]
    with pytest.raises(InvalidGridError):
        build_grid(GridSpec(0.0, 1.0))
    with pytest.raises(InvalidGridError):
        build_grid(GridSpec(2.0, 1.0))
    with pytest.raises(InvalidGridError):
        build_grid(GridSpec(0.1, 1.0, log10_step=0.0))
    # 300,001 and 3,000,000,001 points: counted and refused before any is made.
    for step in (1e-5, 1e-9):
        with pytest.raises(InvalidGridError, match="^grid holds more than MAX_TRIALS = 100000 points$"):
            build_grid(GridSpec(1e-3, 1.0, step))


@pytest.mark.parametrize("field", ["lo", "hi", "log10_step"])
def test_grid_spec_refuses_nan_naming_the_field(field):
    # A NaN step never reaches hi, so its grid would grow without end.
    with pytest.raises(InvalidGridError) as refusal:
        GridSpec(**{"lo": 1e-3, "hi": 1.0, "log10_step": 0.5, field: math.nan})
    assert refusal.value.field_path == field


def test_half_decade_grid_default_lr_axis():
    grid = half_decade_grid(*LR_RANGE)
    assert grid == [
        1e-06, 5e-06, 1e-05, 5e-05, 1e-4, 5e-4, 1e-3, 5e-3,
        0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
    ]


def test_half_decade_grid_interior_bounds():
    assert half_decade_grid(0.002, 0.04) == [0.005, 0.01]


def test_default_grids_axes_by_update_kind():
    add = default_grids("additive")
    assert len(add.lr) == 18 and add.lr_inner is None and add.lr_outer is None
    mult = default_grids("multiplicative")
    assert mult.lr is None and len(mult.lr_inner) == 7 and len(mult.lr_outer) == 9
    hybrid = default_grids("hybrid")
    assert len(hybrid.lr) == 18 and len(hybrid.lr_inner) == 7 and len(hybrid.lr_outer) == 9
    with pytest.raises(ValueError):
        default_grids("blended")


def test_grid_search_single_point_matches_run_trial():
    from optbench.optim import UpdateRule, make_spec
    from optbench.tuning import RateGrids

    result = grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[0.001]))
    assert len(result.leaderboard) == 1
    spec = make_spec("sgd", UpdateRule("additive", lr=0.001))
    record = run_trial(CONVEX, spec)
    assert result.best_final_distance == record.final_distance
    assert result.best_spec.update.lr == 0.001


def test_grid_search_full_cartesian_leaderboard():
    from optbench.tuning import RateGrids

    grids = RateGrids(lr=[0.001, 0.005], lr_inner=[1.0], lr_outer=[0.1, 0.5])
    result = grid_search(CONVEX, "sgd", "hybrid", grids=grids)
    assert len(result.leaderboard) == 4
    seen = {(s.update.lr, s.update.lr_inner, s.update.lr_outer) for s, _ in result.leaderboard}
    assert seen == {(0.001, 1.0, 0.1), (0.001, 1.0, 0.5), (0.005, 1.0, 0.1), (0.005, 1.0, 0.5)}
    distances = [d for _, d in result.leaderboard]
    assert distances == sorted(distances)


def test_grid_search_survives_unstable_rates():
    """Rates past the stability edge must rank below stable ones, not crash."""
    from optbench.tuning import RateGrids

    grid = [1e-4, 1e-3, 5e-3, 1e-2, 5e-1, 5.0]
    result = grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=grid))
    assert result.best_spec.update.lr == 1e-3
    assert math.isfinite(result.best_final_distance)
    by_lr = {s.update.lr: d for s, d in result.leaderboard}
    initial = math.hypot(49.0, 49.0)
    for lr in (5e-3, 1e-2, 5e-1):
        assert by_lr[lr] > initial * 0.5  # oscillating or exploding, not converging
    assert math.isinf(by_lr[5.0])
    assert result.leaderboard[-1][1] == math.inf


def test_grid_search_superset_never_loses():
    from optbench.tuning import RateGrids

    small = grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[1e-4, 1e-2]))
    big = grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[1e-4, 1e-3, 1e-2]))
    assert big.best_final_distance <= small.best_final_distance


def test_grid_search_is_reproducible():
    a = grid_search(CONVEX, "sgd", "hybrid")
    b = grid_search(CONVEX, "sgd", "hybrid")
    assert a.best_final_distance == b.best_final_distance
    assert a.best_spec == b.best_spec
    assert [(s.update, d) for s, d in a.leaderboard] == [(s.update, d) for s, d in b.leaderboard]


def test_grid_search_ties_broken_by_smaller_rates():
    from optbench.tuning import RateGrids

    result = grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[5.0, 50.0]))
    assert math.isinf(result.leaderboard[0][1])
    assert result.best_spec.update.lr == 5.0  # both diverge; smaller rate wins the tie
    assert result.leaderboard[1][0].update.lr == 50.0


def test_grid_search_stock_defaults_sgd():
    additive = grid_search(CONVEX, "sgd", "additive")
    assert 0.5 <= additive.best_final_distance <= 1.0
    assert len(additive.leaderboard) == 18

    mult = grid_search(CONVEX, "sgd", "multiplicative")
    assert mult.best_final_distance <= 1e-2
    assert len(mult.leaderboard) == 63


def test_grid_search_rejects_empty_axis():
    from optbench.tuning import RateGrids

    with pytest.raises(InvalidGridError):
        grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[]))


def test_grid_search_refuses_a_grid_over_max_trials_before_any_point_runs(monkeypatch):
    def run_tasks(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(tuning, "_run_tasks", run_tasks)
    # 100 x 100 x 11 = 110,000 points, each axis admissible on its own.
    grids = RateGrids(
        lr=tuple(1e-4 * (i + 1) for i in range(100)),
        lr_inner=tuple(0.1 * (i + 1) for i in range(100)),
        lr_outer=tuple(0.05 * (i + 1) for i in range(11)),
    )
    started = time.monotonic()
    with pytest.raises(InvalidGridError, match="^grid holds more than MAX_TRIALS = 100000 points$"):
        grid_search(CONVEX, "sgd", "hybrid", grids=grids)
    assert time.monotonic() - started < 1.0


def _per_point_tune(task, family, kind, grids, mix):
    """The reference tune: one UpdateRule and spec per grid point, run as
    (task, spec) pairs and sorted by (distance, lr, lr_inner, lr_outer)."""
    names = RATE_AXES[kind]
    fixed = {"mix": mix} if kind == "hybrid" else {}
    specs = [
        make_spec(family, UpdateRule(kind, **dict(zip(names, point)), **fixed))
        for point in product(*(getattr(grids, name) for name in names))
    ]
    finals = run_batch([(task, spec) for spec in specs]).final_distance.tolist()

    def key(entry):
        u = entry[0].update
        return (entry[1], u.lr or 0.0, u.lr_inner or 0.0, u.lr_outer or 0.0)

    return sorted(zip(specs, finals), key=key)


# Every grid has tied distances: points that all diverge, or rates a mix
# endpoint ignores.
ORACLE_CASES = [
    (CONVEX, "additive", RateGrids(lr=(1e-3, 1e-2, 0.1, 5.0, 50.0)), 0.5),
    (ROSENBROCK, "additive", RateGrids(lr=(1e-4, 1e-3, 5e-3, 0.1, 1.0)), 0.5),
    (CONVEX, "multiplicative", RateGrids(lr_inner=(0.1, 3.0, 1e300), lr_outer=(1e-4, 0.3, 1.0)), 0.5),
    (ROSENBROCK, "multiplicative", RateGrids(lr_inner=(0.1, 1e300), lr_outer=(1e-4, 0.3, 1.0)), 0.5),
    (CONVEX, "hybrid", RateGrids(lr=(1e-3, 5.0, 50.0), lr_inner=(1.0, 6.0), lr_outer=(0.1, 0.6)), 0.5),
    (CONVEX, "hybrid", RateGrids(lr=(1e-3, 5.0, 50.0), lr_inner=(1.0, 6.0), lr_outer=(0.1, 0.6)), 0.0),
    (ROSENBROCK, "hybrid", RateGrids(lr=(1e-3, 1.0, 50.0), lr_inner=(0.01, 1.0), lr_outer=(0.1, 1.0)), 1.0),
    (ROSENBROCK, "hybrid", RateGrids(lr=(1e-4, 1e-3, 0.1), lr_inner=(0.01, 1.0), lr_outer=(0.1, 1.0)), 0.0),
]


@pytest.mark.parametrize("task, kind, grids, mix", ORACLE_CASES)
def test_grid_search_equals_per_point_tune_bitwise(tmp_path, task, kind, grids, mix):
    reference = _per_point_tune(task, "sgd", kind, grids, mix)
    finals = [d for _, d in reference]
    assert len(set(finals)) < len(finals)  # the ranking breaks ties

    names = RATE_AXES[kind]
    rates = np.array([[getattr(spec.update, name) for name in names] for spec, _ in reference])
    result = grid_search(task, "sgd", kind, grids=grids, mix=mix)
    assert result.axes == names
    assert result.rates.tobytes() == rates.tobytes()
    assert result.distances.tobytes() == np.array(finals).tobytes()
    assert result.best_spec == reference[0][0]
    assert result.leaderboard == reference

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "tune",
        "task": to_json(task),
        "family": "sgd",
        "update_rule": kind,
        "grids": {name: list(values) for name, values in asdict(grids).items() if name in names},
    }
    if kind == "hybrid":  # the other kinds have no mix, and reject one
        doc["mix"] = mix
    config = tmp_path / "tune.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["tune", "--config", str(config), "--out", str(out)])
    assert code == (EXIT_OK if math.isfinite(finals[0]) else 3)

    best = json.loads((out / "best.json").read_text())
    assert best["optimizer"] == to_json(reference[0][0])
    assert best["final_distance"] == (finals[0] if math.isfinite(finals[0]) else None)
    assert best["grid_points"] == len(reference)
    assert best["n_diverged"] == sum(map(math.isinf, finals))
    lines = [",".join([*names, "final_distance", "diverged"])]
    for spec, distance in reference:
        rates = [repr(float(getattr(spec.update, name))) for name in names]
        lines.append(",".join([*rates, f"{distance:.9e}", "true" if math.isinf(distance) else "false"]))
    assert (out / "leaderboard.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
