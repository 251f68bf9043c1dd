"""Two-dimensional benchmark objectives with analytic gradients.

Both functions are parameterized by (alpha, beta): "convex2d" is an
axis-aligned quadratic bowl whose second coordinate is ten times stiffer
than the first, and "rosenbrock" is the classic banana-shaped valley.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

FUNCTIONS = ("convex2d", "rosenbrock")


class InvalidConfigError(ValueError):
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
        if self.function not in FUNCTIONS:
            raise InvalidConfigError(f"unknown function {self.function!r}")
        if not np.isfinite(self.beta) or self.beta <= 0.0:
            raise InvalidConfigError(f"beta must be positive, got {self.beta}")
        if not np.isfinite(self.alpha):
            raise InvalidConfigError(f"alpha must be finite, got {self.alpha}")
        if len(self.x0) != 2 or not all(np.isfinite(v) for v in self.x0):
            raise InvalidConfigError(f"x0 must be two finite reals, got {self.x0!r}")
        object.__setattr__(self, "x0", (float(self.x0[0]), float(self.x0[1])))
        if not isinstance(self.iterations, (int, np.integer)) or self.iterations < 1:
            raise InvalidConfigError(f"iterations must be a positive integer, got {self.iterations!r}")


@dataclass(frozen=True)
class Objective:
    """One benchmark function with fixed (alpha, beta).

    The parameters may also be (N,) arrays, one task per row: gradient
    then takes an (N, 2) population of points and minimum holds two (N,)
    arrays, which is how the harness runs many trials at once.  evaluate
    always takes a single point.
    """

    name: str
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    minimum: tuple[float, float]


def _check_beta(beta) -> None:
    if not np.all(beta > 0.0):
        raise InvalidConfigError(f"beta must be positive, got {beta}")


def convex2d(alpha, beta) -> Objective:
    """beta*(x1-alpha)^2 + 10*beta*(x2-alpha)^2, minimized at (alpha, alpha)."""
    _check_beta(beta)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return float(beta * (x[0] - alpha) ** 2 + 10.0 * beta * (x[1] - alpha) ** 2)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        g[..., 0] = 2.0 * beta * (x[..., 0] - alpha)
        g[..., 1] = 20.0 * beta * (x[..., 1] - alpha)
        return g

    return Objective("convex2d", evaluate, gradient, (alpha, alpha))


def rosenbrock(alpha, beta) -> Objective:
    """(alpha-x1)^2 + beta*(x2-x1^2)^2, minimized at (alpha, alpha^2)."""
    _check_beta(beta)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return float((alpha - x[0]) ** 2 + beta * (x[1] - x[0] ** 2) ** 2)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        # float_power squares through pow(), as a scalar ** 2 does; the
        # array ** 2 shortcut (x * x) can differ in the last bit.
        valley = x[..., 1] - np.float_power(x[..., 0], 2.0)
        g = np.empty_like(x)
        g[..., 0] = -2.0 * (alpha - x[..., 0]) - 4.0 * beta * x[..., 0] * valley
        g[..., 1] = 2.0 * beta * valley
        return g

    return Objective("rosenbrock", evaluate, gradient, (alpha, np.float_power(alpha, 2.0)))


OBJECTIVES = {"convex2d": convex2d, "rosenbrock": rosenbrock}


def make_objective(task: TaskConfig) -> Objective:
    return OBJECTIVES[task.function](task.alpha, task.beta)


def distance_to_minimum(x: np.ndarray, objective: Objective) -> float | np.ndarray:
    """Euclidean distance from x to the objective's minimizer.

    x may be one point or an (N, 2) population against an objective with
    per-row parameters; a population gives an (N,) array.  The dot product
    goes through matmul, which runs the same BLAS dot as np.linalg.norm, so
    a row of a population gets the same bits as the point on its own.
    """
    d = np.asarray(x, dtype=float) - np.stack(objective.minimum, axis=-1)
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])


def finite_difference_grad(objective: Objective, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time."""
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        out[i] = (objective.evaluate(x + bump) - objective.evaluate(x - bump)) / (2.0 * h)
    return out
