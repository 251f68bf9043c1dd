"""Running optimizers against benchmark tasks.

A trial is one deterministic optimization run recorded as a distance
trajectory.  Trials that share a function and optimizer rules run as one
population.  A grid search, a robustness evaluation and a surface scan
build their task and rate columns directly, with no per-trial objects;
the last two share one spec across the population, so its rates stay
scalars.  Runs that blow up are recorded with an infinite score instead
of raising, so sweeps over unstable configurations always complete.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .objectives import (
    MAX_ITERATIONS,
    InvalidConfigError,
    TaskColumns,
    TaskConfig,
    check_column,
    distance_to_minimum,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.distance_to_minimum)
    make_objective,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.make_objective)
    point_distance,
    population_objective,
)
from .optim import (
    OptimizerSpec,
    Population,
    RateColumns,
    check_integer,
    check_number,
    check_range,
    check_seed,
    step,  # noqa: F401  (kept importable: bench/tracer.py wraps harness.step)
)

# The most trials one command runs as a population: robustness draws, tune
# grid points, and scan start points (grid_size squared).
MAX_TRIALS = 100_000


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


def _run_population(tasks: TaskColumns, spec: OptimizerSpec, rows: np.ndarray, out: TrialBatch) -> None:
    """Run tasks that share a function and optimizer rules in lockstep and
    write their outcomes into rows of out.

    Every trial starts at t = 0, so all rows share the step counter.  A
    row stops after its own budget, or at the first step whose gradient or
    resulting distance is non-finite; that step does not count.  The
    objective is built once: its per-row gradient constants and minimizer
    (the population's origin) are population columns, so they leave with
    their rows.

    The population orders its rows longest budget first, so its first n
    rows are live and the rest are riders, whose budget has ended.  A step
    that fails Population.step's finiteness test marks the live rows that
    fail it diverged and keeps the rest, dropping the riders.  Then every
    step writes the live rows' trajectory and the outcome of each row
    whose budget ends there, which rides along, reaching no output, until
    at most half of the rows are live and the riders leave as one slice.
    Distances are measured only where they are written, and on a step
    that fails the test.
    """
    gradient, constants, minimizer = population_objective(tasks.function, tasks.alpha, tasks.beta)
    pop = Population(spec, tasks.x0, minimizer, rows=rows, budget=tasks.iterations, constants=constants)
    pop.keep(np.argsort(-tasks.iterations, kind="stable"))
    n = len(pop.rows)
    trajectories = out.trajectories
    d = point_distance(pop.theta, pop.origin)
    out.initial_distance[pop.rows] = d
    if trajectories is not None:
        trajectories[pop.rows, 0] = d
    while True:
        gradient(*pop.constants, pop.theta, out=pop.grad)
        pop.theta, ok = pop.step()
        t = pop.t
        if ok is not None:
            ok = ok[:n] & np.isfinite(point_distance(pop.theta[:n], pop.origin[:n]))
            failed = pop.rows[:n][~ok]
            out.diverged[failed] = True
            out.iterations_run[failed] = t - 1
            pop.keep(ok)
            n = len(pop.rows)
            if not n:
                return
        if trajectories is not None:
            trajectories[pop.rows[:n], t] = point_distance(pop.theta[:n], pop.origin[:n])
        if t < pop.budget[n - 1]:
            continue
        ended, n = n, int(np.count_nonzero(pop.budget[:n] > t))
        out.final_distance[pop.rows[n:ended]] = point_distance(pop.theta[n:ended], pop.origin[n:ended])
        out.iterations_run[pop.rows[n:ended]] = t
        if not n:
            return
        if 2 * n <= len(pop.rows):
            pop.keep(slice(n))


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
            OptimizerSpec(mom, ada, RateColumns.stack(kind, [pairs[i][1].update for i in members])),
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
    """Normal distribution of one task field, drawn by draw_tasks; std = 0
    means the value is fixed and no randomness is consumed."""

    mean: float
    std: float = 0.0

    def __post_init__(self):
        std = check_number(self.std, "std", error=InvalidConfigError)
        check_range(std, "std", lambda s: s >= 0.0, "non-negative", InvalidConfigError)


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
    raise InvalidConfigError("function", f"unknown function {function!r}")


# Redraws allowed for a non-positive beta before the distribution is
# rejected; one with almost no mass above zero would otherwise loop forever.
MAX_BETA_DRAWS = 1000


def _entropy_words(n: int) -> list[int]:
    """The 32-bit words, least significant first, that np.random.SeedSequence
    makes of a non-negative integer: [0] for 0.  A negative integer raises
    ValueError, as SeedSequence does."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


# np.random.SeedSequence's hash constants and pool size, and PCG64's LCG
# multiplier, as numpy's bit generators define them.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hasher(h: int, mult: int):
    """SeedSequence's hash of a uint32 column, with its running constant
    starting at h and multiplied by mult at each call."""

    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * mult & _MASK32
        v *= h
        return v ^ (v >> 16)

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def _pcg64_states(entropy: list[list[int]]) -> list[dict]:
    """The PCG64 state that np.random.default_rng(words) builds, for each
    list of uint32 entropy words, worked out for all the lists at once.

    default_rng hashes the words into a four-word SeedSequence pool,
    draws eight uint32 words from it as PCG64's seed and increment, and
    takes two LCG steps.  The running hash constants depend only on the
    number of words, so the lists of one length hash together as (N,)
    uint32 columns, whose arithmetic wraps mod 2**32 as SeedSequence's
    does.  Returns one bit_generator.state dict per list, in order.
    """
    groups: dict[int, list[int]] = {}
    for row, words in enumerate(entropy):
        groups.setdefault(len(words), []).append(row)
    states = [None] * len(entropy)
    for k, rows in groups.items():
        columns = np.array([entropy[row] for row in rows], dtype=np.uint32).T
        hash_ = _hasher(_INIT_A, _MULT_A)
        zero = np.zeros(len(rows), dtype=np.uint32)
        pool = [hash_(columns[i] if i < k else zero) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hash_(pool[src]))
        for word in columns[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hash_(word))
        hash_ = _hasher(_INIT_B, _MULT_B)
        out = [hash_(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
        # generate_state(4, uint64) reads the words as little-endian pairs.
        seeds = [(out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2)]
        for row, s0, s1, i0, i1 in zip(rows, *seeds):
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            states[row] = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
    return states


def draw_tasks(dist: EvalDistribution, seed: int, indices) -> TaskColumns:
    """Draw one task per index from the distribution, as one row each of
    the returned columns, deterministically per (seed, index).

    Each index draws from its own default_rng([seed, index]) stream, in
    the order x0[0], x0[1], alpha, beta, iterations.  The streams are
    seeded in one vectorized pass: the PCG64 state default_rng would
    build from the uint32 entropy words of [seed, index] (the seed's
    words, worked out once, then the index's) is computed for every
    index at once, and one reused generator, set to each index's state,
    fills that index's row of standard normals with one call, one per
    field whose std is not 0, in field order.  A field with std = 0
    takes its mean and consumes no randomness.  beta is redrawn until
    positive, at most MAX_BETA_DRAWS times: each redraw shifts the draws
    after beta's down by one and draws the next into the last place,
    which is the order the stream gives them.  Each drawn column is then
    mean + std * z, the arithmetic numpy's normal(mean, std) does, so
    every value has the bits of a per-field draw.  The iteration budget
    is rounded to the nearest integer and clamped to at least 1, and a
    draw above MAX_ITERATIONS is rejected.  The columns are then checked
    against the task rules, each once; an error names the distribution's
    field and the row of the first draw that breaks it.
    """
    seed_words = _entropy_words(seed)
    states = _pcg64_states([seed_words + _entropy_words(index) for index in indices])
    fields = (*dist.x0, dist.alpha, dist.beta, dist.iterations)
    means, stds = np.array([(s.mean, s.std) for s in fields], dtype=float).T
    drawn = np.flatnonzero(stds)
    z = np.empty((len(states), drawn.size))
    beta = int(np.count_nonzero(drawn < 3))  # beta's column of z when it is drawn
    beta_mean, beta_std = dist.beta.mean, dist.beta.std
    # The reused generator's own seed is overwritten by every stream's state.
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator, standard_normal = rng.bit_generator, rng.standard_normal
    for row, state in zip(z, states):
        bit_generator.state = state
        standard_normal(out=row)
        for _ in range(MAX_BETA_DRAWS):
            if beta_mean + (beta_std and beta_std * row.item(beta)) > 0.0:
                break
            if beta_std:
                row[beta:-1] = row[beta + 1 :]
                row[-1] = standard_normal()
        else:
            raise InvalidConfigError(
                "distribution.beta", f"no positive draw from {dist.beta} in {MAX_BETA_DRAWS} tries"
            )
    draws = np.repeat(means[None], len(z), axis=0)
    # A draw may overflow to inf, as normal's does; the task rules reject it.
    with np.errstate(over="ignore", invalid="ignore"):
        draws[:, drawn] = means[drawn] + stds[drawn] * z
    budget = draws[:, 4]
    bound = f"at most MAX_ITERATIONS = {MAX_ITERATIONS}"
    check_column(budget, "distribution.iterations", budget <= MAX_ITERATIONS, bound)
    # rint rounds half to even, as round() does; clamping first keeps -inf out.
    budget = np.rint(np.maximum(budget, 1.0)).astype(int)
    tasks = TaskColumns(dist.function, draws[:, 2], draws[:, 3], draws[:, :2].copy(), budget)
    tasks.check("distribution.")
    return tasks


def sample_eval_config(dist: EvalDistribution, seed: int, index: int) -> TaskConfig:
    """Draw one task from the distribution: the one-row case of draw_tasks.
    Each call pays draw_tasks' fixed cost for its one row, so a caller
    drawing many tasks calls draw_tasks once instead."""
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
    """Score the optimizer on n randomly drawn tasks, at most MAX_TRIALS."""
    n = check_integer(n, "n", 1, MAX_TRIALS, InvalidConfigError)
    seed = check_seed(seed, "seed", InvalidConfigError)
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
    """Run one trial per starting point on a grid_size x grid_size lattice
    of at most MAX_TRIALS points."""
    grid_size = check_integer(grid_size, "grid_size", 1, math.isqrt(MAX_TRIALS), InvalidConfigError)
    axes = []
    # A range left out is the default around the task's start coordinate,
    # which an error then names.
    for i, (given, default) in enumerate(zip((x0_range, x1_range), default_scan_ranges(task))):
        name = f"task.x0[{i}]" if given is None else f"x{i}_range"
        lo, hi = default if given is None else (check_number(v, name, error=InvalidConfigError) for v in given)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise InvalidConfigError(name, f"bad scan range ({lo}, {hi})")
        # The width of a range beyond the largest float overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            axis = np.linspace(lo, hi, grid_size)
        if not np.isfinite(axis).all():
            raise InvalidConfigError(name, f"({lo}, {hi}) is too wide; its axis is not finite")
        axes.append(axis)
    x0_axis, x1_axis = axes
    n = grid_size * grid_size
    # Row i * grid_size + j starts at (x0_axis[i], x1_axis[j]).
    x0 = np.stack(np.meshgrid(x0_axis, x1_axis, indexing="ij"), axis=-1).reshape(n, 2)
    scores = _run_tasks(TaskColumns.repeat(task, n, x0), spec).score.reshape(grid_size, grid_size)
    return ScoreGrid(x0_axis=x0_axis, x1_axis=x1_axis, scores=scores)
