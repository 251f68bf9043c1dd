"""Exhaustive grid search over update-rule rates.

Each candidate is scored by the final distance to the minimum after a
fixed-budget trial.  Diverged candidates score infinity and therefore
sort last; ties prefer the smallest lr, then lr_inner, then lr_outer, so
the winner is unique and reruns are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .harness import (
    run_batch,
    run_trials,  # noqa: F401  (kept importable: bench/tracer.py wraps tuning.run_trials)
)
from .objectives import TaskConfig
from .optim import DEFAULT_MIX, OptimizerSpec, UpdateRule, make_spec


class InvalidGridError(ValueError):
    """Raised for empty or out-of-order rate grids."""


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced grid: lo * 10**(k * log10_step) for k = 0, 1, ... clipped
    at hi, with hi itself always included as the last point."""

    lo: float
    hi: float
    log10_step: float = 0.5

    def __post_init__(self):
        if self.lo <= 0.0 or self.hi <= 0.0:
            raise InvalidGridError(f"grid bounds must be positive, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise InvalidGridError(f"grid lower bound {self.lo} exceeds upper bound {self.hi}")
        if self.log10_step <= 0.0:
            raise InvalidGridError(f"log10_step must be positive, got {self.log10_step}")


def build_grid(spec: GridSpec) -> list[float]:
    """Materialize a GridSpec as a strictly increasing list of rates."""
    if spec.lo == spec.hi:
        return [spec.lo]
    values = []
    k = 0
    while True:
        try:
            v = spec.lo * 10.0 ** (k * spec.log10_step)
        except OverflowError:
            raise InvalidGridError(
                f"log10_step {spec.log10_step} leaves the float range before reaching {spec.hi}"
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
    drawn from; both bounds are included.
    """
    if lo <= 0.0 or hi <= 0.0 or lo > hi:
        raise InvalidGridError(f"bad grid bounds [{lo}, {hi}]")
    e_lo = math.floor(math.log10(lo) + 1e-12)
    e_hi = math.ceil(math.log10(hi) + 1e-12)
    values = []
    for e in range(e_lo, e_hi + 1):
        for mantissa in (1, 5):
            v = float(f"{mantissa}e{e}")
            if lo * (1.0 - 1e-12) <= v <= hi * (1.0 + 1e-12):
                values.append(v)
    if not values:
        raise InvalidGridError(f"no half-decade values inside [{lo}, {hi}]")
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


@dataclass
class TuneResult:
    """best_spec/best_final_distance plus the full (spec, final distance)
    leaderboard sorted best-first."""

    best_spec: OptimizerSpec
    best_final_distance: float
    leaderboard: list[tuple[OptimizerSpec, float]]


def _candidate_rules(update_kind: str, grids: RateGrids, mix: float) -> list[UpdateRule]:
    names = _axes(update_kind)
    for name in names:
        values = getattr(grids, name)
        if values is None or len(values) == 0:
            raise InvalidGridError(f"update kind {update_kind!r} needs a non-empty {name} grid")
    fixed = {"mix": mix} if "mix" in UpdateRule.FIELDS[update_kind] else {}
    return [
        UpdateRule(update_kind, **dict(zip(names, point)), **fixed)
        for point in product(*(getattr(grids, name) for name in names))
    ]


def _sort_key(entry: tuple[OptimizerSpec, float]):
    spec, distance = entry
    u = spec.update
    return (distance, u.lr or 0.0, u.lr_inner or 0.0, u.lr_outer or 0.0)


def grid_search(
    task: TaskConfig,
    family: str,
    update_kind: str,
    grids: RateGrids | None = None,
    mix: float = DEFAULT_MIX,
) -> TuneResult:
    """Try every grid point and rank by final distance.

    The leaderboard covers the full Cartesian grid, run as one vectorized
    population; diverged points stay in it with distance = inf.
    """
    if grids is None:
        grids = default_grids(update_kind)
    rules = _candidate_rules(update_kind, grids, mix)
    # Every candidate shares the family's momentum and adaptive rules.
    family_spec = make_spec(family, rules[0])
    specs = [OptimizerSpec(family_spec.momentum, family_spec.adaptive, rule) for rule in rules]
    finals = run_batch([(task, s) for s in specs]).final_distance.tolist()
    leaderboard = sorted(zip(specs, finals), key=_sort_key)
    best_spec, best_distance = leaderboard[0]
    return TuneResult(
        best_spec=best_spec, best_final_distance=best_distance, leaderboard=leaderboard
    )
