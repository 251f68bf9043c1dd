import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optbench.objectives import (
    MAX_ITERATIONS,
    InvalidConfigError,
    TaskConfig,
    convex2d,
    distance_to_minimum,
    finite_difference_grad,
    make_objective,
    population_objective,
    rosenbrock,
)


def test_convex2d_minimum_is_stationary():
    obj = convex2d(alpha=1.0, beta=20.0)
    assert obj.evaluate([1.0, 1.0]) == 0.0
    assert np.array_equal(obj.gradient([1.0, 1.0]), [0.0, 0.0])
    assert obj.minimum == (1.0, 1.0)


def test_convex2d_known_values():
    obj = convex2d(alpha=1.0, beta=20.0)
    assert obj.evaluate([50.0, 50.0]) == pytest.approx(528220.0, rel=1e-14)
    assert_allclose(obj.gradient([50.0, 50.0]), [1960.0, 19600.0], rtol=1e-14)
    assert_allclose(obj.gradient([2.0, 1.0]), [40.0, 0.0], atol=1e-14)


def test_rosenbrock_minimum_is_stationary():
    obj = rosenbrock(alpha=1.0, beta=20.0)
    assert obj.evaluate([1.0, 1.0]) == 0.0
    assert np.array_equal(obj.gradient([1.0, 1.0]), [0.0, 0.0])
    assert obj.minimum == (1.0, 1.0)


def test_rosenbrock_known_values():
    obj = rosenbrock(alpha=1.0, beta=20.0)
    assert obj.evaluate([0.5, 3.0]) == pytest.approx(151.5, rel=1e-14)
    assert_allclose(obj.gradient([0.5, 3.0]), [-111.0, 110.0], rtol=1e-14)


def test_rosenbrock_minimum_tracks_alpha_squared():
    obj = rosenbrock(alpha=2.0, beta=60.0)
    assert obj.minimum == (2.0, 4.0)
    assert obj.evaluate([2.0, 4.0]) == 0.0
    assert np.array_equal(obj.gradient([2.0, 4.0]), [0.0, 0.0])


@pytest.mark.parametrize(
    "beta, reason",
    [
        (math.inf, "expected a finite number, got inf"),
        (math.nan, "expected a finite number, got nan"),
        (0.0, "must be finite and positive, got 0.0"),
        (-1.0, "must be finite and positive, got -1.0"),
    ],
)
@pytest.mark.parametrize("factory", [convex2d, rosenbrock])
def test_beta_must_be_finite_and_positive(factory, beta, reason):
    # TaskConfig refuses the same values in the same words.
    for build in (lambda: factory(alpha=1.0, beta=beta), lambda: TaskConfig(factory.__name__, 1.0, beta, (0, 0), 1)):
        with pytest.raises(InvalidConfigError) as info:
            build()
        assert type(info.value) is InvalidConfigError
        assert str(info.value) == f"beta: {reason}"


def test_distance_to_minimum():
    obj = convex2d(alpha=1.0, beta=20.0)
    assert distance_to_minimum([1.0, 1.0], obj) == 0.0
    assert distance_to_minimum([50.0, 50.0], obj) == pytest.approx(49.0 * math.sqrt(2.0), rel=1e-14)
    assert distance_to_minimum([50.0, 50.0], obj) == pytest.approx(69.29646455628166)
    rosen = rosenbrock(alpha=1.0, beta=20.0)
    assert distance_to_minimum([0.5, 3.0], rosen) == pytest.approx(math.sqrt(4.25), rel=1e-14)


@pytest.mark.parametrize("factory", [convex2d, rosenbrock])
def test_population_rows_match_single_points_bitwise(factory):
    """Per-row (alpha, beta) with an (N, 2) population gives each row the
    bits of the one-point call, and the one-point distance is exactly
    np.linalg.norm.  population_objective's rule over its constants and
    its minimizer give each row the bits of that row's task objective."""
    rng = np.random.default_rng(5)
    n = 2_000
    alpha = rng.normal(1.0, 1.0, n)
    beta = rng.uniform(1.0, 100.0, n)
    x = rng.normal(0.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    population = factory(alpha, beta)
    grads = population.gradient(x)
    dists = distance_to_minimum(x, population)
    rule, constants, minimizer = population_objective(factory.__name__, alpha, beta)
    rows = rule(*constants, x)
    assert grads.shape == rows.shape == minimizer.shape == (n, 2) and dists.shape == (n,)
    for i in range(0, n, 7):
        one = factory(float(alpha[i]), float(beta[i]))
        assert np.array_equal(grads[i], one.gradient(x[i]))
        assert dists[i] == distance_to_minimum(x[i], one)
        assert dists[i] == np.linalg.norm(x[i] - np.array(one.minimum))
        task = make_objective(TaskConfig(factory.__name__, float(alpha[i]), float(beta[i]), (0.0, 0.0), 1))
        assert rows[i].tobytes() == task.gradient(x[i]).tobytes()
        assert minimizer[i].tobytes() == np.array(task.minimum, dtype=float).tobytes()


def test_rosenbrock_gradient_squares_like_a_scalar():
    # x ** 2 on an array multiplies, a numpy scalar ** 2 calls pow(); the
    # two differ in the last bit for some x, and the gradient follows pow().
    # At this x0 they differ, and with beta = 0.5 and x1 = 0 the second
    # gradient entry is -pow(x0, 2.0) exactly, for a point and for rows.
    x0 = -1.4394943995478604
    assert math.pow(x0, 2.0) == 2.0721441263296554 != x0 * x0 == 2.072144126329655
    pinned = rosenbrock(alpha=1.0, beta=0.5)
    assert pinned.gradient(np.array([x0, 0.0]))[1] == -2.0721441263296554
    assert (pinned.gradient(np.array([[x0, 0.0]] * 3))[:, 1] == -2.0721441263296554).all()
    rng = np.random.default_rng(8)
    obj = rosenbrock(alpha=1.0, beta=60.0)
    for x in rng.normal(0.0, 3.0, (20_000, 2)):
        valley = x[1] - x[0] ** 2
        expected = [-2.0 * (1.0 - x[0]) - 4.0 * 60.0 * x[0] * valley, 2.0 * 60.0 * valley]
        assert np.array_equal(obj.gradient(x), expected)


def test_task_config_validation():
    good = dict(function="convex2d", alpha=1.0, beta=20.0, x0=(50, 50), iterations=100)
    task = TaskConfig(**good)
    assert task.x0 == (50.0, 50.0)  # coerced to floats
    assert task.seed == 0
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "function": "ackley"})
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "beta": 0.0})
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "alpha": math.inf})
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "x0": (1.0, 2.0, 3.0)})
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "x0": (math.nan, 0.0)})
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "iterations": 0})
    with pytest.raises(InvalidConfigError):
        TaskConfig(**{**good, "iterations": 10.0})


def test_task_config_bounds_iterations_at_max_iterations():
    good = dict(function="convex2d", alpha=1.0, beta=20.0, x0=(50, 50))
    assert TaskConfig(**good, iterations=MAX_ITERATIONS).iterations == MAX_ITERATIONS
    for iterations in (0, MAX_ITERATIONS + 1):
        with pytest.raises(InvalidConfigError) as refusal:
            TaskConfig(**good, iterations=iterations)
        assert refusal.value.field_path == "iterations"
        assert refusal.value.reason == f"must be an integer in [1, {MAX_ITERATIONS}], got {iterations}"


def test_make_objective_dispatch():
    conv = make_objective(TaskConfig("convex2d", 1.0, 20.0, (0, 0), 1))
    rosen = make_objective(TaskConfig("rosenbrock", 1.0, 60.0, (0, 0), 1))
    assert conv.name == "convex2d"
    assert rosen.name == "rosenbrock"
    assert rosen.evaluate([0.0, 0.0]) == pytest.approx(1.0)  # (1-0)^2 + 60*0


def test_finite_difference_examples():
    conv = convex2d(1.0, 20.0)
    assert_allclose(finite_difference_grad(conv, [2.0, 1.0]), [40.0, 0.0], atol=1e-4)
    assert_allclose(finite_difference_grad(conv, [1.0, 1.0]), [0.0, 0.0], atol=1e-4)
    rosen = rosenbrock(1.0, 20.0)
    assert_allclose(finite_difference_grad(rosen, [0.5, 3.0]), [-111.0, 110.0], atol=1e-3)
    assert_allclose(finite_difference_grad(rosen, [1.0, 1.0]), [0.0, 0.0], atol=1e-4)


def test_finite_difference_step_must_be_positive():
    with pytest.raises(ValueError):
        finite_difference_grad(convex2d(1.0, 20.0), [0.0, 0.0], h=0.0)


@pytest.mark.parametrize("factory", [convex2d, rosenbrock])
def test_analytic_gradient_matches_finite_differences(factory):
    obj = factory(alpha=1.0, beta=20.0)
    rng = np.random.default_rng(42)
    points = rng.uniform(-10.0, 60.0, size=(1_000, 2))
    for x in points:
        fd = finite_difference_grad(obj, x, h=1e-6)
        assert_allclose(fd, obj.gradient(x), rtol=1e-5, atol=1e-4)


def test_convex2d_is_convex_along_random_chords():
    obj = convex2d(alpha=1.0, beta=20.0)
    rng = np.random.default_rng(7)
    for _ in range(1_000):
        x = rng.uniform(-10.0, 60.0, 2)
        y = rng.uniform(-10.0, 60.0, 2)
        lam = rng.uniform()
        lhs = obj.evaluate(lam * x + (1.0 - lam) * y)
        rhs = lam * obj.evaluate(x) + (1.0 - lam) * obj.evaluate(y)
        assert lhs <= rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("factory", [convex2d, rosenbrock])
def test_objectives_are_nonnegative_and_vanish_only_at_minimum(factory):
    obj = factory(alpha=1.0, beta=20.0)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = rng.uniform(-10.0, 60.0, 2)
        value = obj.evaluate(x)
        assert value >= 0.0
        if not np.allclose(x, obj.minimum):
            assert value > 0.0
