"""Running optimizers against benchmark tasks.

A trial is one deterministic optimization run recorded as a distance
trajectory.  Trials run as populations: tasks that share a function and
optimizer rules step together as one (N, 2) array, with per-row task
parameters, start points, rates and iteration budgets held as columns,
so a grid search, a robustness evaluation or a surface scan is one
vectorized loop and a single trial is the N = 1 case of the same loop.

run_batch takes (TaskConfig, OptimizerSpec) pairs, as a grid search and
a single trial do, and turns each group into columns.  A robustness
evaluation and a surface scan build their columns directly, with no
per-trial objects.  A robustness evaluation (many trials with task
parameters drawn from per-field distributions) draws its tasks straight
into columns, one random stream per draw, and checks each column once.
A surface scan (final scores over a grid of starting points) lays its
start points out as one (N, 2) array around a single task.  Both share
one spec across the population, so its rates stay scalars.  Runs that
blow up are recorded with an infinite score instead of raising, so
sweeps over unstable configurations always complete.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import (
    InvalidConfigError,
    TaskColumns,
    TaskConfig,
    distance_to_minimum,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.distance_to_minimum)
    make_objective,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.make_objective)
    point_distance,
    population_objective,
)
from .optim import (
    OptimizerSpec,
    OptimizerState,
    UpdateRule,
    advance,
    blend_weights,
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


class _RateColumns:
    """The update rates of a population as (N, 1) column views of an
    (N, k) block, one column per field of the kind in UpdateRule.FIELDS
    order; apply_update reads it like an UpdateRule.  A hybrid rule's blend
    weights are worked out here, once per set of rows."""

    def __init__(self, kind: str, block: np.ndarray):
        self.kind = kind
        self.block = block
        for i, name in enumerate(UpdateRule.FIELDS[kind]):
            setattr(self, name, block[:, i : i + 1])
        if kind == "hybrid":
            self.blend = blend_weights(self.mix)

    @classmethod
    def stack(cls, kind: str, rules) -> _RateColumns:
        names = UpdateRule.FIELDS[kind]
        rates = [[getattr(rule, name) for name in names] for rule in rules]
        return cls(kind, np.array(rates, dtype=float))


def _live_rows(function: str, spec: OptimizerSpec, block: np.ndarray):
    """The gradient, minimizer and spec of the live rows of a population,
    from their block of per-row constants: alpha, beta, then any per-row
    rates."""
    objective = population_objective(function, block[:, 0], block[:, 1])
    update = spec.update
    if isinstance(update, _RateColumns):
        update = _RateColumns(update.kind, block[:, 2:])
    return (
        objective.gradient,
        np.stack(objective.minimum, axis=-1),
        OptimizerSpec(spec.momentum, spec.adaptive, update),
    )


def _run_population(tasks: TaskColumns, spec: OptimizerSpec, rows: np.ndarray, out: TrialBatch) -> None:
    """Run tasks that share a function and optimizer rules in lockstep and
    write their outcomes into rows of out.

    spec.update is either one UpdateRule for every row, whose scalar rates
    numpy applies faster than (N, 1) columns, or a _RateColumns of each
    row's own rates.  Every trial starts at t = 0, so all live rows share
    the step counter.  A row stops after its own budget, or at the first
    step whose gradient or resulting distance is non-finite; that step does
    not count.  Rows that stop are dropped from the working arrays: every
    per-row constant sits in one block, so that is one gather per array.
    """
    columns = [tasks.alpha, tasks.beta]
    if isinstance(spec.update, _RateColumns):
        columns.append(spec.update.block)
    block = np.column_stack(columns)
    budget, theta = tasks.iterations, tasks.x0
    state = OptimizerState(t=0, m=np.zeros_like(theta), v=np.zeros_like(theta))
    gradient, minimizer, live_spec = _live_rows(tasks.function, spec, block)
    stop = budget.min()
    trajectories = out.trajectories
    d = point_distance(theta, minimizer)
    out.initial_distance[rows] = d
    if trajectories is not None:
        trajectories[rows, 0] = d
    while True:
        g = gradient(theta)
        theta = advance(live_spec, state, theta, g)
        d = point_distance(theta, minimizer)
        t = state.t
        # A non-finite parameter makes its distance non-finite, so d and g
        # cover all three of the scalar step's divergence checks, and any
        # non-finite entry makes their sum non-finite: on almost every step
        # this one test shows that no row stops.
        if t < stop and math.isfinite(d.sum() + g.sum()):
            if trajectories is not None:
                trajectories[rows, t] = d
            continue
        ok = np.isfinite(d) & np.isfinite(g[:, 0]) & np.isfinite(g[:, 1])
        if trajectories is not None:
            trajectories[rows[ok], t] = d[ok]
        keep = ok & (budget > t)
        if keep.all():  # the sum overflowed, but every entry is finite
            continue
        finished = ok & ~keep
        out.final_distance[rows[finished]] = d[finished]
        out.iterations_run[rows[finished]] = t
        out.diverged[rows[~ok]] = True
        out.iterations_run[rows[~ok]] = t - 1
        live = np.flatnonzero(keep)
        if live.size == 0:
            return
        rows, budget, theta, block = (a.take(live, axis=0) for a in (rows, budget, theta, block))
        state.m, state.v = state.m.take(live, axis=0), state.v.take(live, axis=0)
        gradient, minimizer, live_spec = _live_rows(tasks.function, spec, block)
        stop = budget.min()


def _run_populations(n: int, populations: list, trajectories: bool) -> TrialBatch:
    """Run each (tasks, spec, rows) population into its rows of one batch
    of n trials and score them."""
    longest = max((int(tasks.iterations.max()) for tasks, _, _ in populations), default=0)
    out = TrialBatch(
        initial_distance=np.empty(n),
        final_distance=np.full(n, math.inf),
        score=np.empty(n),
        diverged=np.zeros(n, dtype=bool),
        iterations_run=np.zeros(n, dtype=int),
        trajectories=np.full((n, longest + 1), np.nan) if trajectories else None,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for tasks, spec, rows in populations:
            _run_population(tasks, spec, rows, out)
    initial, final = out.initial_distance, out.final_distance
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = final / initial
    at_minimum = np.where(final == 0.0, 0.0, math.inf)
    out.score[:] = np.where(out.diverged, math.inf, np.where(initial > 0.0, ratio, at_minimum))
    return out


def _run_tasks(tasks: TaskColumns, spec: OptimizerSpec) -> TrialBatch:
    """Run tasks that all use one spec as one population."""
    n = len(tasks.alpha)
    return _run_populations(n, [(tasks, spec, np.arange(n))], trajectories=False)


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
    groups: dict[tuple, list[int]] = {}
    for i, (task, spec) in enumerate(pairs):
        key = (task.function, spec.momentum, spec.adaptive, spec.update.kind)
        groups.setdefault(key, []).append(i)
    populations = [
        (
            TaskColumns.of([pairs[i][0] for i in members]),
            OptimizerSpec(mom, ada, _RateColumns.stack(kind, [pairs[i][1].update for i in members])),
            np.array(members),
        )
        for (_, mom, ada, kind), members in groups.items()
    ]
    return _run_populations(len(pairs), populations, trajectories)


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


def draw_tasks(dist: EvalDistribution, seed: int, indices) -> TaskColumns:
    """Draw one task per index from the distribution, as one row each of
    the returned columns, deterministically per (seed, index).

    Each index draws from its own default_rng([seed, index]) stream, in
    the order x0[0], x0[1], alpha, beta, iterations.  beta is redrawn
    until positive, at most MAX_BETA_DRAWS times; the iteration budget is
    rounded to the nearest integer and clamped to at least 1, and a draw
    above MAX_ITERATIONS is rejected.  The columns are then checked
    against the task rules, each once; an error names the distribution's
    field and the row of the first draw that breaks it.
    """
    x0a, x0b, alpha, beta, iterations = dist.x0[0], dist.x0[1], dist.alpha, dist.beta, dist.iterations
    draws = []
    for index in indices:
        rng = np.random.default_rng([seed, index])
        row = (x0a.draw(rng), x0b.draw(rng), alpha.draw(rng))
        for _ in range(MAX_BETA_DRAWS):
            b = beta.draw(rng)
            if b > 0.0:
                break
        else:
            raise InvalidConfigError(
                f"distribution.beta: no positive draw from {beta} in {MAX_BETA_DRAWS} tries"
            )
        draws.append((*row, b, iterations.draw(rng)))
    draws = np.array(draws)
    budget = draws[:, 4]
    within = budget <= MAX_ITERATIONS
    if not within.all():
        row = int(np.argmin(within))
        where = f" (row {row})" if budget.size > 1 else ""
        raise InvalidConfigError(
            f"distribution.iterations must be at most MAX_ITERATIONS = {MAX_ITERATIONS},"
            f" got {budget[row].item()!r}{where}"
        )
    tasks = TaskColumns(
        dist.function,
        draws[:, 2],
        draws[:, 3],
        draws[:, :2].copy(),
        # rint rounds half to even, as round() does; clamping first keeps -inf out.
        np.rint(np.maximum(budget, 1.0)).astype(int),
    )
    tasks.check("distribution.")
    return tasks


def sample_eval_config(dist: EvalDistribution, seed: int, index: int) -> TaskConfig:
    """Draw one task from the distribution: the one-row case of draw_tasks."""
    tasks = draw_tasks(dist, seed, [index])
    return TaskConfig(
        function=dist.function,
        alpha=tasks.alpha.item(),
        beta=tasks.beta.item(),
        x0=tuple(tasks.x0[0].tolist()),
        iterations=tasks.iterations.item(),
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
    scores = _run_tasks(draw_tasks(dist, seed, range(n)), spec).score
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
    axes = []
    for name, (lo, hi) in (("x0_range", x0_range), ("x1_range", x1_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise InvalidConfigError(f"{name}: bad scan range ({lo}, {hi})")
        # The width of a range beyond the largest float overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            axis = np.linspace(lo, hi, grid_size)
        if not np.isfinite(axis).all():
            raise InvalidConfigError(f"{name}: ({lo}, {hi}) is too wide; its axis is not finite")
        axes.append(axis)
    x0_axis, x1_axis = axes
    n = grid_size * grid_size
    # Row i * grid_size + j starts at (x0_axis[i], x1_axis[j]).
    x0 = np.stack(np.meshgrid(x0_axis, x1_axis, indexing="ij"), axis=-1).reshape(n, 2)
    tasks = TaskColumns(
        task.function, np.full(n, task.alpha), np.full(n, task.beta), x0, np.full(n, task.iterations)
    )
    scores = _run_tasks(tasks, spec).score.reshape(grid_size, grid_size)
    return ScoreGrid(x0_axis=x0_axis, x1_axis=x1_axis, scores=scores)
