"""Every numeric argument of the public library, given each value of
VALUES, either returns normally or raises a ValueError that names the
argument: a ConfigError whose field_path is the argument's name, or an
item's of it.  None of
the values is a non-number, so none may raise TypeError, and no call may
run past the alarm."""
import math
import signal

import numpy as np
import pytest

import optbench
from optbench import nn
from optbench.config import ConfigError
from optbench.harness import Sampler, default_eval_distribution, evaluate_robustness, surface_scan
from optbench.objectives import TaskConfig, convex2d, distance_to_minimum, finite_difference_grad, rosenbrock
from optbench.optim import (
    AdaptiveRule,
    MomentumRule,
    UpdateRule,
    additive_update,
    hybrid_update,
    init_state,
    make_spec,
    multiplicative_update,
)
from optbench.tuning import GridSpec, RateGrids, grid_search, half_decade_grid

VALUES = [math.nan, math.inf, -math.inf, -1, 0, 2.5, True, 10**400]
IDS = ["nan", "inf", "-inf", "-1", "0", "2.5", "True", "10**400"]

_SGD = make_spec("sgd", UpdateRule("additive", lr=1e-3))
_TASK = dict(function="convex2d", alpha=1.0, beta=20.0, x0=(50.0, 50.0), iterations=5)
_TINY = nn.ProtocolSettings(dataset_n=8, hidden=(2,), batch_size=4)
_HYBRID = dict(lr=0.1, lr_inner=1.0, lr_outer=0.5, mix=0.5)
_ONE = np.ones(1)
_DATASET = nn.make_dataset(8)


def _at_epoch(epoch):
    metrics = [nn.EpochMetrics(e, 0.5, 0.5, 1.0) for e in (1, 2, 3)]
    return nn.TrainResult(metrics, sign_flips=0, diverged=False, epochs_run=3).at_epoch(epoch)


def _config(**field):
    return nn.TrainingConfig(**{"gain": 1.0, "epochs": 1, "batch_size": 4, "seed": 0, **field})


# (callable, argument): the call puts the value in the named argument and
# admissible values in every other one.
CASES = {
    # harness
    "Sampler.mean": (lambda v: Sampler(v), "mean"),
    "Sampler.std": (lambda v: Sampler(0.0, v), "std"),
    "default_eval_distribution": (lambda v: default_eval_distribution(v), "function"),
    "evaluate_robustness.n": (lambda v: evaluate_robustness(default_eval_distribution("convex2d"), _SGD, v, 0), "n"),
    "evaluate_robustness.seed": (
        lambda v: evaluate_robustness(default_eval_distribution("convex2d"), _SGD, 2, v),
        "seed",
    ),
    "surface_scan.grid_size": (lambda v: surface_scan(TaskConfig(**_TASK), _SGD, grid_size=v), "grid_size"),
    "surface_scan.x0_range.lo": (
        lambda v: surface_scan(TaskConfig(**_TASK), _SGD, x0_range=(v, 1.0), grid_size=2),
        "x0_range",
    ),
    "surface_scan.x1_range.hi": (
        lambda v: surface_scan(TaskConfig(**_TASK), _SGD, x1_range=(-1.0, v), grid_size=2),
        "x1_range",
    ),
    # objectives
    "TaskConfig.alpha": (lambda v: TaskConfig(**{**_TASK, "alpha": v}), "alpha"),
    "TaskConfig.beta": (lambda v: TaskConfig(**{**_TASK, "beta": v}), "beta"),
    "TaskConfig.x0[0]": (lambda v: TaskConfig(**{**_TASK, "x0": (v, 0.0)}), "x0"),
    "TaskConfig.x0[1]": (lambda v: TaskConfig(**{**_TASK, "x0": (0.0, v)}), "x0"),
    "TaskConfig.iterations": (lambda v: TaskConfig(**{**_TASK, "iterations": v}), "iterations"),
    "TaskConfig.seed": (lambda v: TaskConfig(**{**_TASK, "seed": v}), "seed"),
    "convex2d.alpha": (lambda v: convex2d(v, 1.0), "alpha"),
    "convex2d.beta": (lambda v: convex2d(1.0, v), "beta"),
    "rosenbrock.alpha": (lambda v: rosenbrock(v, 1.0), "alpha"),
    "rosenbrock.beta": (lambda v: rosenbrock(1.0, v), "beta"),
    "Objective.evaluate": (lambda v: convex2d(1.0, 1.0).evaluate(v), "x"),
    "distance_to_minimum": (lambda v: distance_to_minimum(v, convex2d(1.0, 1.0)), "x"),
    "finite_difference_grad.h": (lambda v: finite_difference_grad(convex2d(1.0, 1.0), np.zeros(2), h=v), "h"),
    # optim
    "MomentumRule.beta1": (lambda v: MomentumRule("ema", beta1=v), "beta1"),
    "AdaptiveRule.beta2": (lambda v: AdaptiveRule("ema", beta2=v), "beta2"),
    "AdaptiveRule.eps": (lambda v: AdaptiveRule("ema", eps=v), "eps"),
    **{
        f"UpdateRule.{name}": (lambda v, name=name: UpdateRule("hybrid", **{**_HYBRID, name: v}), name)
        for name in _HYBRID
    },
    "additive_update.lr": (lambda v: additive_update(_ONE, _ONE, _ONE, v), "lr"),
    "multiplicative_update.lr_inner": (lambda v: multiplicative_update(_ONE, _ONE, _ONE, v, 0.5), "lr_inner"),
    "multiplicative_update.lr_outer": (lambda v: multiplicative_update(_ONE, _ONE, _ONE, 1.0, v), "lr_outer"),
    **{
        f"hybrid_update.{name}": (lambda v, name=name: hybrid_update(_ONE, _ONE, _ONE, **{**_HYBRID, name: v}), name)
        for name in _HYBRID
    },
    "init_state": (lambda v: init_state(v), "dim"),
    **{
        f"make_spec.{name}": (lambda v, name=name: make_spec("adam", _SGD.update, **{name: v}), name)
        for name in ("beta1", "beta2", "eps")
    },
    # tuning
    "GridSpec.lo": (lambda v: GridSpec(v, 1.0), "lo"),
    "GridSpec.hi": (lambda v: GridSpec(1.0, v), "hi"),
    "GridSpec.log10_step": (lambda v: GridSpec(1.0, 10.0, v), "log10_step"),
    "half_decade_grid.lo": (lambda v: half_decade_grid(v, 1.0), "lo"),
    "half_decade_grid.hi": (lambda v: half_decade_grid(1.0, v), "hi"),
    "grid_search.mix": (
        lambda v: grid_search(TaskConfig(**_TASK), "sgd", "hybrid", RateGrids((0.1,), (1.0,), (0.5,)), mix=v),
        "mix",
    ),
    "grid_search.grids.lr": (
        lambda v: grid_search(TaskConfig(**_TASK), "sgd", "additive", RateGrids(lr=(v,))),
        "lr",
    ),
    # nn
    "xavier_init.fan_in": (lambda v: nn.xavier_init(v, 2, 1.0, np.random.default_rng(0)), "fan_in"),
    "xavier_init.fan_out": (lambda v: nn.xavier_init(2, v, 1.0, np.random.default_rng(0)), "fan_out"),
    "xavier_init.gain": (lambda v: nn.xavier_init(2, 2, v, np.random.default_rng(0)), "gain"),
    "cross_entropy.labels": (lambda v: nn.cross_entropy(np.zeros((1, 2)), np.array([v])), "labels"),
    "MLP.layer_sizes": (lambda v: nn.MLP([2, v, 2]), "layer_sizes"),
    "MLP.gain": (lambda v: nn.MLP([2, 2], gain=v), "gain"),
    "make_dataset.n": (lambda v: nn.make_dataset(v), "n"),
    "make_dataset.noise": (lambda v: nn.make_dataset(8, noise=v), "noise"),
    "make_dataset.seed": (lambda v: nn.make_dataset(8, seed=v), "seed"),
    **{
        f"TrainingConfig.{name}": (lambda v, name=name: _config(**{name: v}), name)
        for name in ("gain", "epochs", "batch_size", "seed")
    },
    "sample_training_config.seed": (lambda v: nn.sample_training_config(v, 0), "seed"),
    "sample_training_config.index": (lambda v: nn.sample_training_config(0, v), "index"),
    "sample_training_config.batch_size": (lambda v: nn.sample_training_config(0, 0, v), "batch_size"),
    "TrainResult.at_epoch": (_at_epoch, "epoch"),
    "train.epochs": (lambda v: nn.train(nn.MLP([2, 2, 2]), _DATASET, _config(epochs=v, optimizer=_SGD)), "epochs"),
    "train_sampled_configs.n_configs": (lambda v: nn.train_sampled_configs(_TINY, _SGD, v, 0), "n_configs"),
    "train_sampled_configs.master_seed": (lambda v: nn.train_sampled_configs(_TINY, _SGD, 1, v), "master_seed"),
    "mean_std": (lambda v: nn.mean_std([v]), "values"),
    # Unchecked: a size's arithmetic, and settings that the protocol checks
    # where it uses them.
    "param_count": (lambda v: nn.param_count([2, v, 2]), "layer_sizes"),
    "ProtocolSettings": (lambda v: nn.ProtocolSettings(dataset_n=v), "dataset_n"),
}


def _timeout(signum, frame):
    raise TimeoutError("the call ran past its alarm")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize("case", CASES)
def test_a_number_is_refused_naming_its_argument_or_admitted(case, value):
    call, argument = CASES[case]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        call(value)
    except ValueError as exc:
        assert isinstance(exc, ConfigError), f"{type(exc).__name__}: {exc}"
        # The path is the argument's, or one of its items' such as "x0[0]".
        assert exc.field_path == argument or exc.field_path.startswith(f"{argument}[")
        assert str(exc) == f"{exc.field_path}: {exc.reason}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_the_table_covers_every_public_callable_that_takes_a_number():
    # The names left out take no number: result records, exceptions, and
    # callables whose arguments are rules, states, models, float arrays or
    # other objects.
    takes_none = {
        "DivergenceError", "EpochMetrics", "EvalDistribution", "NonFiniteGradientError",
        "OptimizerSpec", "OptimizerState", "RateGrids", "ScoreGrid", "ScoreStats", "SyntheticDataset",
        "TrialRecord", "TuneResult", "adaptive_rate", "apply_update", "build_grid", "default_grids",
        "default_update_rule", "make_objective", "momentum", "run_trial", "softmax", "step",
        "train_population",
    }
    public = set(optbench.__all__) | {
        name for name, value in vars(nn).items()
        if not name.startswith("_") and callable(value) and getattr(value, "__module__", "") == nn.__name__
    }
    covered = {case.split(".")[0] for case in CASES}
    assert public - takes_none == covered
