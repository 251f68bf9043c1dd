"""Exhaustive grid search over update-rule rates.

A tune runs its whole grid as one column population: the grid is an
(N, k) block with one column per rate axis and one row per point, run
through the harness's trial kernel as per-row rates (optim.RateColumns)
over copies of one task, with no per-point rule or spec objects.  Each
candidate is scored by the final distance to the minimum after a
fixed-budget trial.  Diverged candidates score infinity and therefore
sort last; ties prefer the smallest lr, then lr_inner, then lr_outer, so
the winner is unique and reruns are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .harness import (
    MAX_TRIALS,
    _run_tasks,
    run_trials,  # noqa: F401  (kept importable: bench/tracer.py wraps tuning.run_trials)
)
from .objectives import TaskColumns, TaskConfig
from .optim import DEFAULT_MIX, ConfigError, OptimizerSpec, RateColumns, UpdateRule, check_number, check_rate, make_spec


class InvalidGridError(ConfigError):
    """Raised for empty, out-of-order or oversized rate grids."""


_TOO_MANY_POINTS = f"grid holds more than MAX_TRIALS = {MAX_TRIALS} points"


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced grid: lo * 10**(k * log10_step) for k = 0, 1, ... clipped
    at hi, with hi itself always included as the last point."""

    lo: float
    hi: float
    log10_step: float = 0.5

    def __post_init__(self):
        for name in ("lo", "hi", "log10_step"):
            if not check_number(getattr(self, name), name, error=InvalidGridError) > 0.0:
                raise InvalidGridError(name, f"must be positive, got {getattr(self, name)}")
        if self.lo > self.hi:
            raise InvalidGridError("lo", f"must not exceed hi = {self.hi}, got {self.lo}")


def build_grid(spec: GridSpec) -> list[float]:
    """Materialize a GridSpec as a strictly increasing list of rates; a grid
    of more than MAX_TRIALS points raises InvalidGridError, before any
    point is made."""
    if math.log10(spec.hi) - math.log10(spec.lo) > (MAX_TRIALS - 1) * spec.log10_step:
        raise InvalidGridError("", _TOO_MANY_POINTS)
    if spec.lo == spec.hi:
        return [spec.lo]
    values = []
    k = 0
    while True:
        try:
            v = spec.lo * 10.0 ** (k * spec.log10_step)
        except OverflowError:
            raise InvalidGridError(
                "", f"log10_step {spec.log10_step} leaves the float range before reaching {spec.hi}"
            ) from None
        # Stop once we reach hi (up to rounding); hi is appended exactly.
        if v >= spec.hi * (1.0 - 1e-12):
            break
        values.append(v)
        k += 1
    values.append(spec.hi)
    return values


def half_decade_grid(lo: float, hi: float) -> list[float]:
    """All values with mantissa 1 or 5 (1eK, 5eK, ...) inside [lo, hi].

    This is the grid family whose endpoints the stock tuning ranges are
    drawn from; both bounds are included.  lo and hi must make a GridSpec.
    """
    GridSpec(lo, hi)
    e_lo = math.floor(math.log10(lo) + 1e-12)
    e_hi = math.ceil(math.log10(hi) + 1e-12)
    values = []
    for e in range(e_lo, e_hi + 1):
        for mantissa in (1, 5):
            v = float(f"{mantissa}e{e}")
            if lo * (1.0 - 1e-12) <= v <= hi * (1.0 + 1e-12):
                values.append(v)
    if not values:
        raise InvalidGridError("", f"no half-decade values inside [{lo}, {hi}]")
    return values


# Stock tuning ranges for each rate.
LR_RANGE = (1e-6, 5e2)
LR_INNER_RANGE = (1e-1, 5e1)
LR_OUTER_RANGE = (1e-4, 1.0)

# The rate axes a tune grids for each update kind: every field the kind
# carries except mix, which one tune holds fixed.  The leaderboard has one
# column per axis.
RATE_AXES = {
    kind: tuple(name for name in fields if name != "mix") for kind, fields in UpdateRule.FIELDS.items()
}

# The additive lr axis uses the half-decade family (the family all the
# stock range endpoints belong to); the lr_inner/lr_outer axes use the
# denser sqrt(10)-ratio grid.
_STOCK_AXES = {
    "lr": tuple(half_decade_grid(*LR_RANGE)),
    "lr_inner": tuple(build_grid(GridSpec(*LR_INNER_RANGE))),
    "lr_outer": tuple(build_grid(GridSpec(*LR_OUTER_RANGE))),
}


def _axes(update_kind: str) -> tuple[str, ...]:
    try:
        return RATE_AXES[update_kind]
    except KeyError:
        raise ValueError(f"unknown update kind {update_kind!r}") from None


@dataclass(frozen=True)
class RateGrids:
    """Candidate values per rate axis; axes unused by the rule stay None."""

    lr: tuple[float, ...] | None = None
    lr_inner: tuple[float, ...] | None = None
    lr_outer: tuple[float, ...] | None = None


def default_grids(update_kind: str) -> RateGrids:
    """The stock grids for an update rule: the stock axis of each rate it
    grids.  The hybrid rule reuses the additive lr axis alongside the
    multiplicative axes."""
    return RateGrids(**{name: _STOCK_AXES[name] for name in _axes(update_kind)})


def grid_points(grids: RateGrids, update_kind: str) -> int:
    """The number of points of the update kind's grid, the product of its
    axes' sizes; a grid of more than MAX_TRIALS points raises
    InvalidGridError."""
    points = math.prod(len(getattr(grids, name)) for name in _axes(update_kind))
    if points > MAX_TRIALS:
        raise InvalidGridError("", _TOO_MANY_POINTS)
    return points


def check_axis(name: str, values) -> None:
    """Raise unless values is a non-empty axis of admissible name rates;
    each value is checked once.  The error names the field name."""
    if values is None or len(values) == 0:
        raise InvalidGridError(name, "must not be empty")
    for value in values:
        check_rate(name, value)


@dataclass(eq=False)
class TuneResult:
    """A grid ranked best-first.  rates is an (N, k) block with one column
    per name in axes and distances the (N,) final distances, inf where a
    point diverged.  best_spec is the first row's spec; a hybrid's mix is
    the same at every point."""

    best_spec: OptimizerSpec
    rates: np.ndarray
    distances: np.ndarray

    @property
    def axes(self) -> tuple[str, ...]:
        """The names of the rate columns: RATE_AXES of the update kind."""
        return RATE_AXES[self.best_spec.update.kind]

    @property
    def best_final_distance(self) -> float:
        return float(self.distances[0])

    @cached_property
    def leaderboard(self) -> list[tuple[OptimizerSpec, float]]:
        """The ranking as (spec, final distance) pairs, built on first use."""
        best = self.best_spec
        return [
            (replace(best, update=replace(best.update, **dict(zip(self.axes, point)))), distance)
            for point, distance in zip(self.rates.tolist(), self.distances.tolist())
        ]


def grid_search(
    task: TaskConfig,
    family: str,
    update_kind: str,
    grids: RateGrids | None = None,
    mix: float = DEFAULT_MIX,
) -> TuneResult:
    """Try every grid point and rank by final distance.

    The points, in itertools.product order of the kind's axes, run as one
    population of per-row rates; a hybrid's mix is one scalar shared by
    every row.  The ranking is a stable sort on (distance, lr, lr_inner,
    lr_outer), an axis the kind lacks counting as 0.0, and covers the full
    Cartesian grid: diverged points stay in it with distance = inf.  A
    grid of more than MAX_TRIALS points raises InvalidGridError before any
    point runs.
    """
    if grids is None:
        grids = default_grids(update_kind)
    names = _axes(update_kind)
    axes = [getattr(grids, name) for name in names]
    for name, values in zip(names, axes):
        check_axis(name, values)
    grid_points(grids, update_kind)
    shared = {}
    if "mix" in UpdateRule.FIELDS[update_kind]:
        check_rate("mix", mix)
        shared["mix"] = mix
    mesh = np.meshgrid(*(np.asarray(values, dtype=float) for values in axes), indexing="ij")
    block = np.stack(mesh, axis=-1).reshape(-1, len(names))
    spec = make_spec(family, RateColumns(update_kind, **dict(zip(names, block.T)), **shared))
    distances = _run_tasks(TaskColumns.repeat(task, len(block)), spec).final_distance
    # Every kind's axes run in (lr, lr_inner, lr_outer) order; lexsort ranks
    # by its last key first, so distance goes last and the axes in reverse.
    order = np.lexsort([*block.T[::-1], distances])
    rates, distances = block[order], distances[order]
    best = UpdateRule(update_kind, **dict(zip(names, rates[0].tolist())), **shared)
    return TuneResult(OptimizerSpec(spec.momentum, spec.adaptive, best), rates, distances)
