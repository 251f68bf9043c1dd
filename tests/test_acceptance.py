"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises the package the way a user would (bundled configs,
CLI entry point, public API) and asserts the headline results at their
stated tolerances.  Heavier searches are cached per session so the six
tests share work.
"""
import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optbench.cli import EXIT_OK, main
from optbench.config import load_plan, parse_optimizer_spec
from optbench.harness import default_eval_distribution, evaluate_robustness
from optbench.nn import MLP, TrainingConfig, cross_entropy, make_dataset, train, train_sampled_configs
from optbench.objectives import TaskConfig, convex2d, finite_difference_grad, rosenbrock
from optbench.optim import (
    AdaptiveRule,
    MomentumRule,
    UpdateRule,
    additive_update,
    adaptive_rate,
    hybrid_update,
    init_state,
    make_spec,
    momentum,
    multiplicative_update,
    step,
)
from optbench.tuning import grid_search

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
WORKERS = 4


@functools.lru_cache(maxsize=None)
def _tuned(function: str, beta: float, family: str, kind: str):
    x0 = (50.0, 50.0) if function == "convex2d" else (0.5, 3.0)
    task = TaskConfig(function, alpha=1.0, beta=beta, x0=x0, iterations=100)
    return grid_search(task, family, kind)


def _bundled_spec(name: str):
    return parse_optimizer_spec({"path": f"tuned/{name}.json"}, "optimizer", base_dir=CONFIGS)


def _run_cli(argv, expect=EXIT_OK):
    code = main(argv)
    assert code == expect, f"CLI exited {code} for {argv}"


def test_01_tuned_single_run_separation(tmp_path):
    """After rate tuning, the three SGD update rules land in strictly
    separated accuracy bands on both benchmark tasks."""
    # Bowl task: drive the bundled tune configs through the CLI.
    finals = {}
    for kind in ("hybrid", "multiplicative", "additive"):
        started = time.monotonic()
        out = tmp_path / kind
        _run_cli(
            [
                "tune",
                "--config",
                str(CONFIGS / "tune" / f"convex2d-sgd-{kind}.json"),
                "--out",
                str(out),
                "--parallelism",
                str(WORKERS),
            ]
        )
        assert time.monotonic() - started <= 120.0
        finals[kind] = json.loads((out / "best.json").read_text())["final_distance"]
    assert finals["hybrid"] <= 1e-4
    assert finals["multiplicative"] <= 1e-2
    assert finals["additive"] >= 1e-2
    assert finals["hybrid"] < finals["multiplicative"] < finals["additive"]

    # Valley task at the same curvature the thresholds are stated for.
    started = time.monotonic()
    rosen_hybrid = _tuned("rosenbrock", 20.0, "sgd", "hybrid").best_final_distance
    assert time.monotonic() - started <= 120.0
    started = time.monotonic()
    rosen_additive = _tuned("rosenbrock", 20.0, "sgd", "additive").best_final_distance
    assert time.monotonic() - started <= 120.0
    assert rosen_hybrid <= 1e-1
    assert rosen_additive >= 5e-1
    assert rosen_hybrid < rosen_additive


@pytest.mark.parametrize("function", ["convex2d", "rosenbrock"])
@pytest.mark.parametrize("family", ["sgd", "adagrad", "adam", "rmsprop"])
def test_02_hybrid_never_loses_after_tuning(function, family):
    """With both rules tuned on their default grids, the hybrid update
    finishes at least as close to the minimum as the additive one, for
    every optimizer family on both tasks."""
    hybrid = _tuned(function, 20.0, family, "hybrid").best_final_distance
    additive = _tuned(function, 20.0, family, "additive").best_final_distance
    assert math.isfinite(hybrid)
    assert hybrid <= additive


def test_03_robustness_under_task_resampling():
    """Mean final-distance over 100 random task draws: the hybrid rule
    stays near the minimum where the additive rule scatters."""
    started = time.monotonic()
    seed, n = 2024, 100

    def _mean(function, name):
        dist = default_eval_distribution(function)
        spec = _bundled_spec(f"{function}-{name}")
        stats = evaluate_robustness(dist, spec, n=n, seed=seed)
        return stats.mean

    adagrad_hybrid = _mean("convex2d", "adagrad-hybrid")
    assert adagrad_hybrid <= 1e-6

    convex_hybrid = _mean("convex2d", "sgd-hybrid")
    convex_additive = _mean("convex2d", "sgd-additive")
    rosen_hybrid = _mean("rosenbrock", "sgd-hybrid")
    rosen_additive = _mean("rosenbrock", "sgd-additive")

    assert convex_hybrid < convex_additive
    assert rosen_hybrid < rosen_additive

    # Reference magnitudes, asserted loosely (within two orders).
    for measured, reference in (
        (convex_hybrid, 8.37e-4),
        (convex_additive, 1.48e-2),
        (rosen_hybrid, 7.42e-2),
        (rosen_additive, 5.88e-1),
    ):
        assert reference / 100.0 <= measured <= reference * 100.0

    assert time.monotonic() - started <= 300.0


def test_04_exact_update_rule_properties():
    """The magnitude-proportional rule's hard guarantees, checked exactly:
    no sign flips and per-step bound over 10,000 randomized steps and a
    full training run; hybrid endpoints identical to the pure rules;
    recursive averaging identical to closed-form sums; the beta1=0
    reduction exact; analytic gradients matching central differences."""
    # (a) randomized single-step audit: bound and sign preservation.
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        dim = 4
        theta = rng.uniform(-10.0, 10.0, dim)
        m = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 2.0), dim)
        l = np.abs(rng.normal(0.0, 1.0, dim))
        lr_inner = 10.0 ** rng.uniform(-3.0, 3.0)
        lr_outer = 1.0 - rng.uniform(0.0, 1.0)
        delta = multiplicative_update(theta, m, l, lr_inner, lr_outer)
        assert np.all(np.abs(delta) <= lr_outer * np.abs(theta))
        moved = theta - delta
        assert np.array_equal(np.sign(moved), np.sign(theta))

    # (a') one full training run of the toy classifier.
    dataset = make_dataset(400, 0.15, seed=0)
    mult_spec = make_spec("sgd", UpdateRule("multiplicative", lr_inner=3.0, lr_outer=0.3))
    model = MLP([2, 16, 2], gain=1.0, rng=np.random.default_rng(3))
    result = train(
        model, dataset, TrainingConfig(gain=1.0, epochs=10, batch_size=32, seed=3, optimizer=mult_spec)
    )
    assert not result.diverged
    assert result.sign_flips == 0

    # (b) per-tensor step bound during actual training steps.
    model = MLP([2, 16, 2], gain=1.0, rng=np.random.default_rng(3))
    params = model.parameters()
    states = [init_state(p.size) for p in params]
    x = dataset.features[dataset.train_idx]
    y = dataset.labels[dataset.train_idx]
    order = np.random.default_rng(3).permutation(len(y))
    for start in range(0, len(y), 32):
        batch = order[start : start + 32]
        _, cache = model.forward(x[batch])
        grads = model.backward(cache, y[batch])
        for p, g, st in zip(params, grads, states):
            before = p.ravel().copy()
            new_flat, _ = step(mult_spec, st, before, g.ravel())
            assert np.all(np.abs(new_flat - before) <= 0.3 * np.abs(before) * (1.0 + 1e-12))
            p[...] = new_flat.reshape(p.shape)

    # (c) hybrid endpoints reproduce the pure rules exactly.
    rng = np.random.default_rng(7)
    for _ in range(1_000):
        theta = rng.uniform(-5.0, 5.0, 3)
        m = rng.normal(0.0, 2.0, 3)
        l = np.abs(rng.normal(0.0, 1.0, 3))
        at_zero = hybrid_update(theta, m, l, lr=0.01, lr_inner=2.0, lr_outer=0.4, mix=0.0)
        assert np.array_equal(at_zero, additive_update(theta, m, l, lr=0.01))
        at_one = hybrid_update(theta, m, l, lr=0.01, lr_inner=2.0, lr_outer=0.4, mix=1.0)
        assert np.array_equal(at_one, multiplicative_update(theta, m, l, 2.0, 0.4))

    # (d) recursive EMA tracks equal their closed-form weighted sums.
    beta1, beta2, eps = 0.9, 0.99, 1e-8
    mom = MomentumRule("ema", beta1=beta1)
    ada = AdaptiveRule("ema", beta2=beta2, eps=eps)
    rng = np.random.default_rng(12345)
    for _ in range(100):
        gs = rng.normal(0.0, 2.0, size=(50, 3))
        state = init_state(3)
        for t, g in enumerate(gs, start=1):
            state.t = t
            m_rec = momentum(mom, state, g)
            l_rec = adaptive_rate(ada, state, g)
            weights1 = beta1 ** (t - 1 - np.arange(t))
            m_closed = (1.0 - beta1) * (weights1[:, None] * gs[:t]).sum(axis=0)
            m_closed /= 1.0 - beta1**t
            weights2 = beta2 ** (t - 1 - np.arange(t))
            v_closed = (1.0 - beta2) * (weights2[:, None] * gs[:t] ** 2).sum(axis=0)
            v_closed /= 1.0 - beta2**t
            l_closed = 1.0 / (np.sqrt(v_closed) + eps)
            assert_allclose(m_rec, m_closed, rtol=1e-12, atol=1e-15)
            assert_allclose(l_rec, l_closed, rtol=1e-12)

    # (e) the beta1=0 family reduction is bitwise exact.
    rule = UpdateRule("additive", lr=0.001)
    reduced = make_spec("rmsprop", rule)
    explicit = make_spec("adam", rule, beta1=0.0)
    assert reduced == explicit
    rng = np.random.default_rng(99)
    for _ in range(100):
        theta_a = rng.uniform(-3.0, 3.0, 4)
        theta_b = theta_a.copy()
        state_a, state_b = init_state(4), init_state(4)
        for _ in range(20):
            g = rng.normal(0.0, 1.0, 4)
            theta_a, state_a = step(reduced, state_a, theta_a, g)
            theta_b, state_b = step(explicit, state_b, theta_b, g)
            assert np.array_equal(theta_a, theta_b)

    # (f) analytic gradients agree with central finite differences.
    rng = np.random.default_rng(42)
    for objective in (convex2d(1.0, 20.0), rosenbrock(1.0, 20.0)):
        for x in rng.uniform(-10.0, 60.0, size=(200, 2)):
            fd = finite_difference_grad(objective, x, h=1e-6)
            assert_allclose(fd, objective.gradient(x), rtol=1e-5, atol=1e-4)
    for activation in ("relu", "tanh"):
        rng = np.random.default_rng(11)
        net = MLP([2, 8, 2], activation=activation, gain=1.0, rng=rng)
        xb = rng.normal(size=(16, 2))
        yb = rng.integers(0, 2, size=16)
        _, cache = net.forward(xb)
        grads = net.backward(cache, yb)

        def loss():
            logits, _ = net.forward(xb)
            return cross_entropy(logits, yb)

        h = 1e-5
        for p, g in zip(net.parameters(), grads):
            flat = p.ravel()
            fd = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                fd[i] = (up - down) / (2.0 * h)
            assert_allclose(fd, g.ravel(), rtol=1e-4, atol=1e-8)


def test_05_toy_classifier_protocol():
    """Randomized training protocol from the bundled configs: the hybrid
    rule's mean validation accuracy keeps pace with the additive rule
    (within two points) early and at the end, and the pure
    magnitude-proportional rule never flips a weight's sign."""
    started = time.monotonic()
    results = {}
    for kind in ("additive", "multiplicative", "hybrid"):
        _, plan = load_plan(CONFIGS / "train-toy" / f"sgd-{kind}.json", expected_command="train-toy")
        assert plan.master_seed is not None  # the seed ships in the repo
        assert plan.n_configs == 10
        _, runs = train_sampled_configs(plan.settings, plan.optimizer, plan.n_configs, plan.master_seed)
        results[kind] = runs

    def _means(runs):
        epoch5 = np.mean([r.at_epoch(5).val_accuracy for r in runs])
        final = np.mean([r.final().val_accuracy for r in runs])
        return epoch5, final

    add5, add_final = _means(results["additive"])
    hyb5, hyb_final = _means(results["hybrid"])
    assert hyb5 >= add5 - 0.02
    assert hyb_final >= add_final - 0.02
    assert sum(r.sign_flips for r in results["multiplicative"]) == 0
    assert time.monotonic() - started <= 180.0


def test_06_bundled_configs_are_byte_reproducible(tmp_path):
    """Every runnable bundled config, run twice at different parallelism
    levels, writes byte-identical outputs."""
    bundles = sorted(
        p
        for group in ("tune", "robustness", "scan", "train-toy")
        for p in (CONFIGS / group).glob("*.json")
    )
    assert len(bundles) == 55
    for config in bundles:
        out_a = tmp_path / config.parent.name / config.stem / "a"
        out_b = tmp_path / config.parent.name / config.stem / "b"
        command = config.parent.name if config.parent.name != "train-toy" else "train-toy"
        base = [command, "--config", str(config)]
        code_a = main([*base, "--out", str(out_a), "--parallelism", "1"])
        code_b = main([*base, "--out", str(out_b), "--parallelism", "2"])
        assert code_a == code_b == EXIT_OK, config.name
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a, config.name
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{config.name}: {name} differs between parallelism levels"
            )
