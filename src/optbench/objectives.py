"""Two-dimensional benchmark objectives with analytic gradients.

Both functions are parameterized by (alpha, beta): "convex2d" is an
axis-aligned quadratic bowl whose second coordinate is ten times stiffer
than the first, and "rosenbrock" is the classic banana-shaped valley.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .optim import ConfigError

FUNCTIONS = ("convex2d", "rosenbrock")

# The largest iteration budget of one trial.  A run costs time in
# proportion to it, and a single trial keeps a trajectory of that length.
MAX_ITERATIONS = 100_000


class InvalidConfigError(ConfigError):
    """Raised for out-of-range task parameters (e.g. beta <= 0)."""


@dataclass(frozen=True)
class TaskConfig:
    """A fully pinned single-trial setup: which function, its parameters,
    the starting point, and the iteration budget."""

    function: str
    alpha: float
    beta: float
    x0: tuple[float, float]
    iterations: int
    seed: int = 0

    def __post_init__(self):
        TaskColumns.of([self]).check()
        object.__setattr__(self, "x0", (float(self.x0[0]), float(self.x0[1])))


class TaskColumns(NamedTuple):
    """Many tasks of one function as per-row columns: alpha, beta and
    iterations are (N,) arrays and x0 is (N, 2).  This is the form the
    harness runs tasks in; a TaskConfig is the one-row case."""

    function: str
    alpha: np.ndarray
    beta: np.ndarray
    x0: np.ndarray
    iterations: np.ndarray

    @classmethod
    def of(cls, tasks) -> TaskColumns:
        """The columns of TaskConfigs that share the first one's function."""
        return cls(
            tasks[0].function,
            np.array([t.alpha for t in tasks], dtype=float),
            np.array([t.beta for t in tasks], dtype=float),
            np.array([t.x0 for t in tasks], dtype=float),
            np.array([t.iterations for t in tasks]),
        )

    @classmethod
    def repeat(cls, task: TaskConfig, n: int, x0: np.ndarray | None = None) -> TaskColumns:
        """n rows of one task, starting at its x0 or at the rows of x0."""
        return cls(
            task.function,
            np.full(n, task.alpha, dtype=float),
            np.full(n, task.beta, dtype=float),
            np.full((n, 2), task.x0, dtype=float) if x0 is None else x0,
            np.full(n, task.iterations),
        )

    def check(self, path: str = "") -> None:
        """The task rules, each tested once over its whole column: the
        function is known, alpha is finite, beta is finite and positive, x0
        is two finite reals and iterations is an integer in
        [1, MAX_ITERATIONS].

        The error names the field under the prefix path (e.g.
        "distribution.alpha") and, when there are several tasks, the row of
        the first that breaks the rule.
        """
        if self.function not in FUNCTIONS:
            raise InvalidConfigError(f"{path}function", f"unknown function {self.function!r}")
        if self.x0.ndim != 2 or self.x0.shape[1] != 2:
            raise InvalidConfigError(f"{path}x0", f"must be two reals, got shape {self.x0.shape[1:]}")
        iterations = self.iterations
        budget = np.issubdtype(iterations.dtype, np.integer) and (iterations >= 1) & (iterations <= MAX_ITERATIONS)
        for name, values, ok, rule in (
            ("alpha", self.alpha, np.isfinite(self.alpha), "finite"),
            ("beta", self.beta, np.isfinite(self.beta) & (self.beta > 0.0), "finite and positive"),
            ("x0[0]", self.x0[:, 0], np.isfinite(self.x0[:, 0]), "finite"),
            ("x0[1]", self.x0[:, 1], np.isfinite(self.x0[:, 1]), "finite"),
            ("iterations", iterations, budget, f"an integer in [1, {MAX_ITERATIONS}]"),
        ):
            if not np.all(ok):
                row = int(np.argmin(np.broadcast_to(ok, values.shape)))
                where = f" (row {row})" if values.size > 1 else ""
                # tolist, not item: an integer past int64 makes an object column.
                raise InvalidConfigError(path + name, f"must be {rule}, got {values.tolist()[row]!r}{where}")


@dataclass(frozen=True)
class Objective:
    """One benchmark function with fixed (alpha, beta).

    The parameters may also be (N,) arrays, one task per row: gradient
    then takes an (N, 2) population of points and minimum holds two (N,)
    arrays, which is how the harness runs many trials at once.  gradient
    is the function's gradient rule over its per-task constants, worked
    out once from (alpha, beta); population_objective hands out the rule
    and the constants apart, so the harness keeps the constants with
    their rows.  evaluate always takes a single point.
    """

    name: str
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    minimum: tuple[float, float]


def _check_beta(beta) -> None:
    if not np.all(np.isfinite(beta) & (beta > 0.0)):
        raise InvalidConfigError("beta", f"must be finite and positive, got {beta}")


# The builders below are unchecked.  Each works out the gradient's
# per-task constants once, when the objective is built, since a population
# calls the gradient every step; 2.0 * beta * d is (2.0 * beta) * d, so the
# bits are the same.  A gradient rule takes the constants, then the point,
# and writes into out when it is given.

def _convex2d_gradient(shift, slope, x, out=None):
    g = np.subtract(x, shift, out=out, dtype=float)
    g *= slope
    return g


def _convex2d(alpha, beta) -> Objective:
    # (..., 2) blocks of the point's shape, so the gradient is one subtract
    # and one multiply with operands of one shape.
    shift, slope = np.stack([alpha, alpha], axis=-1), np.stack([2.0 * beta, 20.0 * beta], axis=-1)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return float(beta * (x[0] - alpha) ** 2 + 10.0 * beta * (x[1] - alpha) ** 2)

    return Objective("convex2d", evaluate, partial(_convex2d_gradient, shift, slope), (alpha, alpha))


# The Rosenbrock gradient's constant factor and exponent, as 0-d arrays:
# numpy takes one faster than a Python float, for the same bits.
_MINUS_TWO, _TWO = np.array(-2.0), np.array(2.0)


def _rosenbrock_gradient(alpha, slope, curve, x, out=None):
    x = np.asarray(x, dtype=float)
    x0 = x[..., 0]
    # float_power squares through pow(), as a scalar ** 2 does; the
    # array ** 2 shortcut (x * x) can differ in the last bit.
    valley = x[..., 1] - np.float_power(x0, _TWO)
    g = np.empty_like(x) if out is None else out
    g0 = g[..., 0]
    np.subtract(alpha, x0, out=g0)
    g0 *= _MINUS_TWO
    g0 -= curve * x0 * valley
    np.multiply(slope, valley, out=g[..., 1])
    return g


def _rosenbrock(alpha, beta) -> Objective:
    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return float((alpha - x[0]) ** 2 + beta * (x[1] - x[0] ** 2) ** 2)

    gradient = partial(_rosenbrock_gradient, alpha, 2.0 * beta, 4.0 * beta)
    return Objective("rosenbrock", evaluate, gradient, (alpha, np.float_power(alpha, 2.0)))


def convex2d(alpha, beta) -> Objective:
    """beta*(x1-alpha)^2 + 10*beta*(x2-alpha)^2, minimized at (alpha, alpha)."""
    _check_beta(beta)
    return _convex2d(alpha, beta)


def rosenbrock(alpha, beta) -> Objective:
    """(alpha-x1)^2 + beta*(x2-x1^2)^2, minimized at (alpha, alpha^2)."""
    _check_beta(beta)
    return _rosenbrock(alpha, beta)


_BUILDERS = {"convex2d": _convex2d, "rosenbrock": _rosenbrock}


def make_objective(task: TaskConfig) -> Objective:
    """The task's objective; TaskConfig has already checked beta."""
    return _BUILDERS[task.function](task.alpha, task.beta)


def population_objective(function: str, alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """(rule, constants, minimizer) of the objective over per-row alpha and
    beta columns of tasks that TaskColumns.check (or TaskConfig) has
    passed; it checks nothing again.  rule(*constants, x, out=None) is the
    gradient at an (N, 2) population x, written into out when it is given,
    each constant is a per-row array, and
    minimizer holds each row's minimum as an (N, 2) array."""
    objective = _BUILDERS[function](alpha, beta)
    return objective.gradient.func, objective.gradient.args, np.stack(objective.minimum, axis=-1)


def point_distance(x: np.ndarray, point: np.ndarray) -> float | np.ndarray:
    """Euclidean distance from x to point, row by row for (N, 2) arrays.

    The dot product goes through matmul, which runs the same BLAS dot as
    np.linalg.norm, so a row of a population gets the same bits as the
    point on its own.  Callers: distance_to_minimum, and the trial kernel
    (harness._run_population) wherever it writes a distance.
    """
    d = x - point
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])


def distance_to_minimum(x: np.ndarray, objective: Objective) -> float | np.ndarray:
    """Euclidean distance from x to the objective's minimizer.

    x may be one point or an (N, 2) population against an objective with
    per-row parameters; a population gives an (N,) array.
    """
    return point_distance(np.asarray(x, dtype=float), np.stack(objective.minimum, axis=-1))


def finite_difference_grad(objective: Objective, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time."""
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if h == np.inf:
        raise ValueError(f"h must be finite, got {h}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        out[i] = (objective.evaluate(x + bump) - objective.evaluate(x - bump)) / (2.0 * h)
    return out
