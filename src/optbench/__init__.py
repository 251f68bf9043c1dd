"""Composable optimizers with multiplicative and hybrid update rules,
benchmark objectives, a rate tuner, a robustness harness, and a toy
neural-network training protocol.

Each public name loads its module on first use (PEP 562), so
`import optbench` alone loads no submodule."""

import importlib

# The public names of each submodule; __all__ is derived from this table.
_EXPORTS = {
    "harness": "EvalDistribution Sampler ScoreGrid ScoreStats TrialRecord default_eval_distribution"
    " evaluate_robustness run_trial surface_scan",
    "objectives": "Objective TaskConfig convex2d distance_to_minimum finite_difference_grad make_objective rosenbrock",
    "optim": "AdaptiveRule DivergenceError MomentumRule NonFiniteGradientError OptimizerSpec OptimizerState"
    " UpdateRule additive_update adaptive_rate apply_update default_update_rule hybrid_update init_state"
    " make_spec momentum multiplicative_update step",
    "tuning": "GridSpec RateGrids TuneResult build_grid default_grids grid_search half_decade_grid",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
