"""A numpy-free scalar oracle for the 2-D trial kernel.

The oracle runs one trial in Python floats: IEEE arithmetic, math.pow for
every power, math.sqrt, and numpy's tanh, its one numpy call.  np.tanh is
numpy's own implementation, which differs from libm's math.tanh in the
last bit on about three inputs in ten, so the multiplicative and hybrid
bits depend on it.  The oracle takes each formula in the order optim and
objectives state it and shares no code with them, so it states what the
2-D bits are: where it and the kernel agree bit for bit, the kernel's
batching, bound scalars and buffers changed nothing.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from test_harness import _oracle_pairs

from optbench import harness
from optbench.config import load_json, parse_optimizer_spec, parse_task
from optbench.objectives import TaskColumns, point_distance, population_objective
from optbench.optim import Population

TUNED = Path(__file__).resolve().parent.parent / "configs" / "tuned"


def _pow(x, y):
    """math.pow, with numpy's infinite result where it overflows."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _oracle(function, alpha, beta, x0, iterations, spec):
    """(parameters after the last good step, steps run, diverged) of one
    trial: it stops at the first step whose gradient, parameters or
    distance from the minimizer is not finite, and that step does not
    count."""
    momentum, adaptive, update = spec.momentum, spec.adaptive, spec.update
    minimum = (alpha, alpha) if function == "convex2d" else (alpha, _pow(alpha, 2.0))
    x, m, v = list(x0), [0.0, 0.0], [0.0, 0.0]
    for t in range(1, iterations + 1):
        if function == "convex2d":
            g = [(x[0] - alpha) * (2.0 * beta), (x[1] - alpha) * (20.0 * beta)]
        else:
            valley = x[1] - _pow(x[0], 2.0)
            g = [(alpha - x[0]) * -2.0 - 4.0 * beta * x[0] * valley, 2.0 * beta * valley]
        new = []
        for i in range(2):
            if momentum.kind == "ema":
                b1 = momentum.beta1
                m[i] = m[i] * b1 + (1.0 - b1) * g[i]
                direction = m[i] / (1.0 - _pow(b1, t))
            else:
                direction = g[i]
            if adaptive.kind == "identity":
                ml = direction
            else:
                if adaptive.kind == "accumulate":
                    v[i] = v[i] + g[i] * g[i]
                    root = math.sqrt(v[i])
                else:
                    b2 = adaptive.beta2
                    v[i] = v[i] * b2 + g[i] * g[i] * (1.0 - b2)
                    root = math.sqrt(v[i] / (1.0 - _pow(b2, t)))
                ml = direction * (1.0 / (root + adaptive.eps))
            add = mult = None
            if update.kind != "multiplicative":
                add = update.lr * ml
            if update.kind != "additive":
                mult = float(np.tanh(update.lr_inner * ml)) * abs(x[i]) * update.lr_outer
            if update.kind == "hybrid":
                mix = update.mix
                step = add if mix == 0.0 else mult if mix == 1.0 else mix * mult + (1.0 - mix) * add
            else:
                step = add if mult is None else mult
            new.append(x[i] - step)
        dx, dy = new[0] - minimum[0], new[1] - minimum[1]
        if not all(map(math.isfinite, [*g, *new, math.sqrt(dx * dx + dy * dy)])):
            return x, t - 1, True
        x = new
    return x, iterations, False


def _population_parameters(tasks: TaskColumns, spec, at: np.ndarray) -> np.ndarray:
    """Each row's parameters after step at[row] of a Population driven as
    the kernel drives it, by population_objective's gradient rule; every
    row steps to the last of them."""
    gradient, constants, minimizer = population_objective(tasks.function, tasks.alpha, tasks.beta)
    pop = Population(spec, tasks.x0.copy(), minimizer)
    found = tasks.x0.copy()
    for t in range(1, int(at.max()) + 1):
        gradient(*constants, pop.theta, out=pop.grad)
        pop.theta = pop.step()[0]
        found[at == t] = pop.theta[at == t]
    return found


def _cells():
    """(name, task, spec) of every tuned config."""
    for path in sorted(TUNED.glob("*.json")):
        doc = load_json(path)
        yield path.stem, parse_task(doc["task"], "task"), parse_optimizer_spec(doc["optimizer"], "optimizer")


def _rows(task, seed: int) -> TaskColumns:
    """The tuned task; eight tasks drawn around it with ragged budgets of
    1 to about 100 steps; a beta of 1e307, which overflows the first
    gradient on convex2d; and two starts far out, at 1e150, whose
    rosenbrock gradient overflows, and at 1e200, whose distance is
    infinite."""
    dist = replace(harness.default_eval_distribution(task.function), iterations=harness.Sampler(50.0, 25.0))
    drawn = harness.draw_tasks(dist, seed, range(8))
    return TaskColumns(
        task.function,
        np.concatenate([[task.alpha], drawn.alpha, [task.alpha] * 3]),
        np.concatenate([[task.beta], drawn.beta, [1e307, task.beta, task.beta]]),
        np.concatenate([[task.x0], drawn.x0, [task.x0, (1e150, 1e150), (1e200, 50.0)]]),
        np.concatenate([[task.iterations], drawn.iterations, [task.iterations] * 3]),
    )


def test_the_scalar_oracle_matches_the_kernel_bitwise_on_every_tuned_cell():
    cells = list(_cells())
    assert len(cells) == 24
    budgets, stops = set(), {True: 0, False: 0}
    for seed, (name, task, spec) in enumerate(cells):
        tasks = _rows(task, seed)
        batch = harness._run_tasks(tasks, spec)
        # The rows that diverge overflow on the way, as the kernel's do.
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, minimizer = population_objective(tasks.function, tasks.alpha, tasks.beta)
        outcomes = [
            _oracle(tasks.function, *row, spec)
            for row in zip(tasks.alpha.tolist(), tasks.beta.tolist(), tasks.x0.tolist(), tasks.iterations.tolist())
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            found = _population_parameters(tasks, spec, np.array([steps for _, steps, _ in outcomes]))
        for row, (x, steps, diverged) in enumerate(outcomes):
            where = f"{name}, row {row}"
            assert batch.iterations_run[row] == steps, where
            assert batch.diverged[row] == diverged, where
            assert found[row].tobytes() == np.array(x).tobytes(), where
            if not diverged:
                # The kernel's final distance is the distance of the oracle's
                # parameters, so its written outcome, riders and all, holds
                # the same parameters.
                distance = point_distance(np.array([x]), minimizer[row : row + 1])[0]
                assert batch.final_distance[row] == distance, where
            budgets.add(int(tasks.iterations[row]))
            stops[diverged] += 1
    assert len(budgets) > 40
    assert stops[True] == 50 and stops[False] == 238


def test_the_scalar_oracle_matches_the_kernel_on_random_rules_and_every_way_a_row_diverges():
    """The kernel reference's pairs: every function x family x update
    rule with random rates and ragged budgets, a row started at the
    minimum, and rows that diverge on the gradient, on the parameter and,
    after 506 steps, on the distance; six of them diverge after their
    first step.  run_batch gives each group of rules per-row rates.  Each finished row's final distance is the
    distance of the oracle's parameters."""
    pairs = _oracle_pairs()
    batch = harness.run_batch(pairs)
    mid_run = 0
    for i, (task, spec) in enumerate(pairs):
        with np.errstate(over="ignore"):
            x, steps, diverged = _oracle(task.function, task.alpha, task.beta, task.x0, task.iterations, spec)
            minimizer = np.stack(harness.make_objective(task).minimum)[None]
        where = f"row {i}: {task} {spec}"
        assert batch.iterations_run[i] == steps and batch.diverged[i] == diverged, where
        if not diverged:
            assert batch.final_distance[i] == point_distance(np.array([x]), minimizer)[0], where
        mid_run += diverged and steps > 0
    assert mid_run == 6
