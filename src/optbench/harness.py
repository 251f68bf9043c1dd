"""Running optimizers against benchmark tasks.

A trial is one deterministic optimization run recorded as a distance
trajectory.  Trials run as populations: run_batch steps all trials that
share a function and optimizer rules as one (N, 2) array, with per-row
task parameters, start points, rates and iteration budgets, so a grid
search, a robustness evaluation or a surface scan is one vectorized loop
and a single trial is the N = 1 case of the same loop.  On top of that
this module provides randomized robustness evaluation (many trials with
task parameters drawn from per-field distributions) and a dense scan of
final scores over a grid of starting points.  Runs that blow up are
recorded with an infinite score instead of raising, so sweeps over
unstable configurations always complete.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .objectives import (
    OBJECTIVES,
    InvalidConfigError,
    TaskConfig,
    distance_to_minimum,
    make_objective,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.make_objective)
)
from .optim import (
    OptimizerSpec,
    OptimizerState,
    UpdateRule,
    advance,
    step,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.step)
)

# The largest iteration budget of one trial.  A run costs time in
# proportion to it, and a single trial keeps a trajectory of that length.
MAX_ITERATIONS = 100_000


@dataclass
class TrialRecord:
    """Distance-to-minimum trajectory of a single run.

    distances[0] is the starting distance; one entry is appended per
    completed step.  score = final/initial.  A diverged run keeps the
    finite prefix of its trajectory and reports an infinite final
    distance and score.
    """

    distances: list[float]
    initial_distance: float
    final_distance: float
    score: float
    diverged: bool
    iterations_run: int


@dataclass
class TrialBatch:
    """Outcomes of many trials as arrays, one row per (task, spec) pair in
    input order, with the same meaning as the TrialRecord fields.

    trajectories, when requested, has one row per trial and a column per
    step of the longest budget; row i holds the trial's distances in
    columns 0..iterations_run[i] and NaN after them.
    """

    initial_distance: np.ndarray
    final_distance: np.ndarray
    score: np.ndarray
    diverged: np.ndarray
    iterations_run: np.ndarray
    trajectories: np.ndarray | None


@dataclass(frozen=True)
class _RateColumns:
    """The rates of a group of same-kind UpdateRules as (N, 1) columns;
    apply_update reads it like an UpdateRule."""

    kind: str
    lr: np.ndarray | None = None
    lr_inner: np.ndarray | None = None
    lr_outer: np.ndarray | None = None
    mix: np.ndarray | None = None

    @classmethod
    def stack(cls, kind: str, rules) -> _RateColumns:
        return cls(
            kind,
            **{
                name: np.array([getattr(rule, name) for rule in rules], dtype=float)[:, None]
                for name in UpdateRule.FIELDS[kind]
            },
        )

    def take(self, keep: np.ndarray) -> _RateColumns:
        return _RateColumns(
            self.kind, **{name: getattr(self, name)[keep] for name in UpdateRule.FIELDS[self.kind]}
        )


def _run_population(
    function: str,
    spec: OptimizerSpec,
    tasks: list[TaskConfig],
    rows: np.ndarray,
    out: TrialBatch,
) -> None:
    """Run the trials of one group in lockstep and write their outcomes
    into rows of out.

    Every trial starts at t = 0, so all live rows share the step counter.
    A row stops after its own budget, or at the first step whose gradient
    or resulting distance is non-finite; that step does not count.  Rows
    that stop are dropped from the working arrays.
    """
    alpha = np.array([task.alpha for task in tasks])
    beta = np.array([task.beta for task in tasks])
    budget = np.array([task.iterations for task in tasks])
    theta = np.array([task.x0 for task in tasks])
    state = OptimizerState(t=0, m=np.zeros_like(theta), v=np.zeros_like(theta))
    objective = OBJECTIVES[function](alpha, beta)
    trajectories = out.trajectories
    d = distance_to_minimum(theta, objective)
    out.initial_distance[rows] = d
    if trajectories is not None:
        trajectories[rows, 0] = d
    for t in range(1, int(budget.max()) + 1):
        g = objective.gradient(theta)
        theta = advance(spec, state, theta, g)
        d = distance_to_minimum(theta, objective)
        # A non-finite parameter makes its distance non-finite, so these
        # two tests cover all three of the scalar step's divergence checks.
        ok = np.isfinite(d) & np.isfinite(g).all(axis=1)
        if trajectories is not None:
            trajectories[rows[ok], t] = d[ok]
        keep = ok & (budget > t)
        if keep.all():
            continue
        finished = ok & ~keep
        out.final_distance[rows[finished]] = d[finished]
        out.iterations_run[rows[finished]] = t
        out.diverged[rows[~ok]] = True
        out.iterations_run[rows[~ok]] = t - 1
        rows, budget = rows[keep], budget[keep]
        if rows.size == 0:
            return
        alpha, beta, theta = alpha[keep], beta[keep], theta[keep]
        state.m, state.v = state.m[keep], state.v[keep]
        spec = replace(spec, update=spec.update.take(keep))
        objective = OBJECTIVES[function](alpha, beta)


def run_batch(
    pairs: list[tuple[TaskConfig, OptimizerSpec]], trajectories: bool = False
) -> TrialBatch:
    """Run many (task, spec) trials as vectorized populations.

    Pairs are grouped by (function, momentum rule, adaptive rule, update
    kind); each group runs as one population with per-row task
    parameters, start points, budgets and rates.  Each row gets exactly
    the bits the trial would get on its own.  Set trajectories to keep
    every step's distance as well as the outcome.
    """
    n = len(pairs)
    longest = max((task.iterations for task, _ in pairs), default=0)
    out = TrialBatch(
        initial_distance=np.empty(n),
        final_distance=np.full(n, math.inf),
        score=np.empty(n),
        diverged=np.zeros(n, dtype=bool),
        iterations_run=np.zeros(n, dtype=int),
        trajectories=np.full((n, longest + 1), np.nan) if trajectories else None,
    )
    groups: dict[tuple, list[int]] = {}
    for i, (task, spec) in enumerate(pairs):
        key = (task.function, spec.momentum, spec.adaptive, spec.update.kind)
        groups.setdefault(key, []).append(i)
    with np.errstate(over="ignore", invalid="ignore"):
        for (function, mom, ada, kind), members in groups.items():
            rules = _RateColumns.stack(kind, [pairs[i][1].update for i in members])
            _run_population(
                function,
                OptimizerSpec(mom, ada, rules),
                [pairs[i][0] for i in members],
                np.array(members),
                out,
            )
    initial, final = out.initial_distance, out.final_distance
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = final / initial
    at_minimum = np.where(final == 0.0, 0.0, math.inf)
    out.score[:] = np.where(out.diverged, math.inf, np.where(initial > 0.0, ratio, at_minimum))
    return out


def run_trials(pairs: list[tuple[TaskConfig, OptimizerSpec]]) -> list[TrialRecord]:
    """Run many (task, spec) trials with full trajectories, preserving
    input order."""
    batch = run_batch(pairs, trajectories=True)
    return [
        TrialRecord(
            distances=batch.trajectories[i, : k + 1].tolist(),
            initial_distance=float(batch.initial_distance[i]),
            final_distance=float(batch.final_distance[i]),
            score=float(batch.score[i]),
            diverged=bool(batch.diverged[i]),
            iterations_run=k,
        )
        for i, k in enumerate(batch.iterations_run.tolist())
    ]


def run_trial(task: TaskConfig, spec: OptimizerSpec) -> TrialRecord:
    """Run one full-gradient optimization of the task's objective."""
    return run_trials([(task, spec)])[0]


@dataclass(frozen=True)
class Sampler:
    """Normal sampler for one task field; std = 0 means the value is fixed
    and no randomness is consumed."""

    mean: float
    std: float = 0.0

    def __post_init__(self):
        if self.std < 0.0:
            raise InvalidConfigError(f"std must be non-negative, got {self.std}")

    def draw(self, rng: np.random.Generator) -> float:
        if self.std == 0.0:
            return self.mean
        return float(rng.normal(self.mean, self.std))


@dataclass(frozen=True)
class EvalDistribution:
    """Per-field distributions from which robustness trials draw their tasks."""

    function: str
    x0: tuple[Sampler, Sampler]
    alpha: Sampler
    beta: Sampler
    iterations: Sampler


def default_eval_distribution(function: str) -> EvalDistribution:
    """The stock evaluation distributions for the two benchmark tasks."""
    if function == "convex2d":
        return EvalDistribution(
            function="convex2d",
            x0=(Sampler(50.0, 5.0), Sampler(50.0, 5.0)),
            alpha=Sampler(1.0, 1.0),
            beta=Sampler(20.0, 2.0),
            iterations=Sampler(100.0, 10.0),
        )
    if function == "rosenbrock":
        return EvalDistribution(
            function="rosenbrock",
            x0=(Sampler(0.5, 0.1), Sampler(3.0, 1.0)),
            alpha=Sampler(1.0),
            beta=Sampler(60.0, 6.0),
            iterations=Sampler(100.0, 10.0),
        )
    raise InvalidConfigError(f"unknown function {function!r}")


# Redraws allowed for a non-positive beta before the distribution is
# rejected; one with almost no mass above zero would otherwise loop forever.
MAX_BETA_DRAWS = 1000


def sample_eval_config(dist: EvalDistribution, seed: int, index: int) -> TaskConfig:
    """Draw one task from the distribution, deterministically per (seed, index).

    beta is redrawn until positive, at most MAX_BETA_DRAWS times; the
    iteration budget is rounded to the nearest integer and clamped to at
    least 1, and a draw above MAX_ITERATIONS is rejected.
    """
    rng = np.random.default_rng([seed, index])
    x0 = (dist.x0[0].draw(rng), dist.x0[1].draw(rng))
    alpha = dist.alpha.draw(rng)
    for _ in range(MAX_BETA_DRAWS):
        beta = dist.beta.draw(rng)
        if beta > 0.0:
            break
    else:
        raise InvalidConfigError(
            f"distribution.beta: no positive draw from {dist.beta} in {MAX_BETA_DRAWS} tries"
        )
    iterations = dist.iterations.draw(rng)
    if not iterations <= MAX_ITERATIONS:
        raise InvalidConfigError(
            f"distribution.iterations: draw {index} is {iterations}, above MAX_ITERATIONS = {MAX_ITERATIONS}"
        )
    iterations = max(1, int(round(iterations)))
    return TaskConfig(
        function=dist.function,
        alpha=alpha,
        beta=beta,
        x0=x0,
        iterations=iterations,
        seed=index,
    )


@dataclass
class ScoreStats:
    """Aggregate of a robustness evaluation.

    scores holds one entry per trial in draw order (inf for diverged
    runs); mean/std are computed over the n non-diverged trials only,
    with the sample (n-1) std estimator, std = 0 when n <= 1.
    """

    mean: float
    std: float
    n: int
    n_diverged: int
    scores: list[float]


def evaluate_robustness(dist: EvalDistribution, spec: OptimizerSpec, n: int, seed: int) -> ScoreStats:
    """Score the optimizer on n randomly drawn tasks."""
    if n < 1:
        raise InvalidConfigError(f"n must be >= 1, got {n}")
    tasks = [sample_eval_config(dist, seed, i) for i in range(n)]
    scores = run_batch([(t, spec) for t in tasks]).score
    included = scores[np.isfinite(scores)]
    if included.size == 0:
        mean, std = math.inf, 0.0
    elif included.size == 1:
        mean, std = float(included[0]), 0.0
    else:
        mean = float(np.mean(included))
        std = float(np.std(included, ddof=1))
    return ScoreStats(
        mean=mean, std=std, n=included.size, n_diverged=n - included.size, scores=scores.tolist()
    )


@dataclass
class ScoreGrid:
    """Final scores over a grid of starting points: scores[i, j] is the
    trial started at (x0_axis[i], x1_axis[j])."""

    x0_axis: np.ndarray
    x1_axis: np.ndarray
    scores: np.ndarray


def default_scan_ranges(task: TaskConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """Starting-point box spanning +/-20% around the task's own x0."""
    (a, b) = task.x0
    lo0, hi0 = sorted((0.8 * a, 1.2 * a))
    lo1, hi1 = sorted((0.8 * b, 1.2 * b))
    return (lo0, hi0), (lo1, hi1)


def surface_scan(
    task: TaskConfig,
    spec: OptimizerSpec,
    x0_range: tuple[float, float] | None = None,
    x1_range: tuple[float, float] | None = None,
    grid_size: int = 25,
) -> ScoreGrid:
    """Run one trial per starting point on a grid_size x grid_size lattice."""
    if grid_size < 1:
        raise InvalidConfigError(f"grid_size must be >= 1, got {grid_size}")
    default0, default1 = default_scan_ranges(task)
    x0_range = default0 if x0_range is None else x0_range
    x1_range = default1 if x1_range is None else x1_range
    for lo, hi in (x0_range, x1_range):
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise InvalidConfigError(f"bad scan range ({lo}, {hi})")
    x0_axis = np.linspace(x0_range[0], x0_range[1], grid_size)
    x1_axis = np.linspace(x1_range[0], x1_range[1], grid_size)
    pairs = [
        (replace(task, x0=(float(a), float(b))), spec)
        for a in x0_axis
        for b in x1_axis
    ]
    scores = run_batch(pairs).score.reshape(grid_size, grid_size)
    return ScoreGrid(x0_axis=x0_axis, x1_axis=x1_axis, scores=scores)
