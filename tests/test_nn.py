import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from numpy.testing import assert_allclose

from optbench import nn
from optbench.nn import (
    ACTIVATIONS,
    BIAS_INIT,
    MLP,
    EpochMetrics,
    ProtocolSettings,
    TrainingConfig,
    TrainResult,
    cross_entropy,
    make_dataset,
    mean_std,
    sample_training_config,
    softmax,
    train,
    train_population,
    _accuracies,
    _backward,
    _views,
    param_count,
    _losses,
    train_sampled_configs,
    xavier_init,
)
from optbench.optim import (
    FAMILIES,
    UPDATE_KINDS,
    DivergenceError,
    NonFiniteGradientError,
    Population,
    UpdateRule,
    default_update_rule,
    init_state,
    make_spec,
    step,
)


def test_xavier_std_scales_with_gain():
    rng = np.random.default_rng(0)
    w = xavier_init(4, 4, gain=1e-12, rng=rng)
    assert np.abs(w).max() <= 1e-11


def test_xavier_std_matches_formula():
    rng = np.random.default_rng(1)
    draws = np.concatenate([xavier_init(4, 4, 1.0, rng).ravel() for _ in range(6_250)])
    assert draws.size == 100_000
    expected = math.sqrt(2.0 / 16.0)
    assert abs(draws.std() - expected) < 0.02 * expected
    assert abs(draws.mean()) < 0.01


def test_xavier_gain_is_a_pure_scale():
    a = xavier_init(3, 5, 1.0, np.random.default_rng(7))
    b = xavier_init(3, 5, 2.0, np.random.default_rng(7))
    assert_allclose(b, 2.0 * a, rtol=1e-12)


def test_xavier_sum_mode_denominator():
    a = xavier_init(4, 12, 1.0, np.random.default_rng(7), fan_mode="product")
    b = xavier_init(4, 12, 1.0, np.random.default_rng(7), fan_mode="sum")
    # same normal draws, different std: sqrt(2/48) vs sqrt(2/16)
    assert_allclose(b, a * math.sqrt(48.0 / 16.0), rtol=1e-12)


def test_xavier_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        xavier_init(0, 4, 1.0, rng)
    with pytest.raises(ValueError):
        xavier_init(4, 4, 0.0, rng)
    with pytest.raises(ValueError):
        xavier_init(4, 4, 1.0, rng, fan_mode="mean")


def test_forward_equal_logits_give_uniform_softmax():
    model = MLP([2, 4, 2], activation="relu", rng=np.random.default_rng(0))
    for w in model.weights:
        w[...] = 0.0
    x = np.random.default_rng(1).normal(size=(8, 2))
    logits, _ = model.forward(x)
    # zero weights leave only the shared bias, so both logits are equal
    assert_allclose(logits, np.full((8, 2), BIAS_INIT), rtol=0, atol=0)
    assert_allclose(softmax(logits), np.full((8, 2), 0.5), rtol=1e-15)


def test_forward_identity_single_layer():
    model = MLP([2, 2], rng=np.random.default_rng(0))
    model.weights[0][...] = np.eye(2)
    model.biases[0][...] = 0.0
    logits, cache = model.forward([[1.0, 2.0]])
    assert_allclose(logits, [[1.0, 2.0]], rtol=0, atol=0)
    assert len(cache[0]) == 1


def test_forward_hand_computed_tanh_chain():
    model = MLP([2, 2, 2], activation="tanh", rng=np.random.default_rng(0))
    model.weights[0][...] = np.eye(2)
    model.biases[0][...] = 0.0
    model.weights[1][...] = np.array([[1.0, 0.0], [0.0, -1.0]])
    model.biases[1][...] = np.array([0.5, 0.0])
    logits, cache = model.forward([[0.3, -0.7]])
    expected = [[math.tanh(0.3) + 0.5, -math.tanh(-0.7)]]
    assert_allclose(logits, expected, rtol=1e-15)
    assert_allclose(cache[0][1][0], [[math.tanh(0.3), math.tanh(-0.7)]], rtol=1e-15)


def test_forward_rejects_wrong_width():
    model = MLP([2, 2], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.forward([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        model.forward([1.0, 2.0])


def _loss_of(model, x, y):
    logits, _ = model.forward(x)
    return cross_entropy(logits, y)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(11)
    model = MLP([2, 8, 2], activation=activation, gain=1.0, rng=rng)
    x = rng.normal(size=(16, 2))
    y = rng.integers(0, 2, size=16)
    _, cache = model.forward(x)
    grads = model.backward(cache, y)
    h = 1e-5
    for p, g in zip(model.parameters(), grads):
        flat = p.ravel()
        fd = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _loss_of(model, x, y)
            flat[i] = orig - h
            down = _loss_of(model, x, y)
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        assert_allclose(fd, g.ravel(), rtol=1e-4, atol=1e-8)


def test_backward_saturated_logits_have_vanishing_gradient():
    model = MLP([2, 2], rng=np.random.default_rng(0))
    model.weights[0][...] = np.array([[100.0, -100.0], [0.0, 0.0]])
    _, cache = model.forward([[1.0, 0.0]])
    grads = model.backward(cache, np.array([0]))
    for g in grads:
        assert np.abs(g).max() < 1e-6


def test_backward_mean_reduction_is_duplication_invariant():
    rng = np.random.default_rng(5)
    model = MLP([2, 8, 2], activation="tanh", rng=rng)
    x = rng.normal(size=(8, 2))
    y = rng.integers(0, 2, size=8)
    _, cache1 = model.forward(x)
    grads1 = model.backward(cache1, y)
    _, cache2 = model.forward(np.vstack([x, x]))
    grads2 = model.backward(cache2, np.concatenate([y, y]))
    for a, b in zip(grads1, grads2):
        assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_backward_rejects_mismatched_cache_or_labels():
    rng = np.random.default_rng(0)
    model = MLP([2, 4, 2], rng=rng)
    other = MLP([2, 2], rng=rng)
    x = rng.normal(size=(4, 2))
    _, cache = model.forward(x)
    with pytest.raises(ValueError):
        other.backward(cache, np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        model.backward(cache, np.zeros(5, dtype=int))


def test_cross_entropy_is_finite_for_extreme_logits():
    logits = np.array([[1e8, -1e8], [-1e8, 1e8]])
    labels = np.array([0, 1])
    assert cross_entropy(logits, labels) == 0.0
    flipped = cross_entropy(logits, np.array([1, 0]))
    assert math.isfinite(flipped)
    assert flipped == pytest.approx(2e8)


@pytest.mark.parametrize(
    "labels, message",
    [([0, 1, 5], r"class indices in \[0, 2\), got 5"), ([-1, 0, 1], r"class indices in \[0, 2\), got -1"),
     ([1], r"shape \(3,\) for \(3, 2\) logits, got \(1,\)"),
     ([0.0, 1.5, 1.0], r"class indices in \[0, 2\), got 1.5")],
)
def test_cross_entropy_and_evaluate_refuse_labels_that_do_not_fit_the_logits(labels, message):
    logits = np.array([[0.5, -1.0], [2.0, 0.0], [-0.3, 0.3]])
    with pytest.raises(ValueError, match=message):
        cross_entropy(logits, np.array(labels))
    model = MLP([2, 2], rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        model.evaluate(logits, np.array(labels))
    _, cache = model.forward(logits)
    with pytest.raises(ValueError, match=message):
        model.backward(cache, np.array(labels))
    assert cross_entropy(logits, np.array([0, 1, 1])) == float(_losses(logits[None], np.array([0, 1, 1]))[0])
    # Integral float labels are class indices too.
    as_floats, as_ints = model.backward(cache, np.array([0.0, 1.0, 1.0])), model.backward(cache, np.array([0, 1, 1]))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(as_floats, as_ints))


def _edge_logits(shape, seed):
    """Normal logits with rows holding NaN, +-inf, +-0.0 and exact ties."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 3.0, size=shape)
    flat = logits.reshape(-1, 2)
    nan, inf = math.nan, math.inf
    edges = [(nan, 1.0), (1.0, nan), (nan, nan), (nan, inf), (inf, inf), (-inf, -inf), (inf, -inf),
             (-inf, 2.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (2.5, 2.5), (1e308, -1e308)]
    rows = rng.choice(flat.shape[0], size=len(edges), replace=False)
    flat[rows] = edges
    return logits


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("shape", [(10, 320, 2), (3, 7, 2), (64, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_head_columns_match_last_axis_reductions_bitwise(shape, seed):
    # The head folds over the class columns; numpy's last-axis max, sum and
    # argmax are the reference, NaN, infinities, signed zeros and ties
    # included.
    logits = _edge_logits(shape, seed)
    labels = np.random.default_rng(seed).integers(0, 2, size=shape[-2])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        want_softmax = e / e.sum(axis=-1, keepdims=True)
        want_log_softmax = shifted - np.log(e.sum(axis=-1, keepdims=True))
        got_softmax = softmax(logits)
        # A network of one sample has the negated log-probability of its
        # label as its loss, so these are the log-softmax class columns.
        one_each = logits.reshape(-1, 1, 2)
        got_log_softmax = np.stack([-_losses(one_each, np.array([k])) for k in (0, 1)], -1).reshape(shape)
        accuracies = _accuracies(logits, labels)
        stacked = logits.reshape(-1, *shape[-2:])
        losses = _losses(stacked, labels)
        entropies = [cross_entropy(net, labels) for net in stacked]
    assert np.isnan(logits).any() and np.isinf(logits).any()
    assert _same_bits(got_softmax, want_softmax)
    assert _same_bits(got_log_softmax, want_log_softmax)
    assert _same_bits(accuracies, (logits.argmax(axis=-1) == labels).mean(axis=-1))
    assert _same_bits(losses, entropies)
    want_entropies = [
        -log_probs[np.arange(len(labels)), labels].mean()
        for log_probs in want_log_softmax.reshape(stacked.shape)
    ]
    assert _same_bits(entropies, want_entropies)


@pytest.mark.parametrize("width", [1, 2, 3, 16])
def test_backward_bias_gradient_sums_the_batch_in_a_pinned_order(width):
    """_backward's bias gradient sums delta over the batch axis.  For a
    layer of width 1 a unit's batch entries are contiguous and numpy sums
    them pairwise, as a 1-D sum does; for widths of 2 and up it adds the
    batch rows left to right.  A rewrite of the batch sum must keep these
    orders to keep the bits.  The gradients are written both to arrays of
    their own and, as train_population writes them, to the views of one
    NaN-filled (C, P) buffer, which must hold no NaN after.  Targets are
    random, not one-hot, so that a width-1 delta is not all zeros."""
    rng = np.random.default_rng(width)
    differ = 0
    for _ in range(100):
        nets, batch, fan_in = (int(v) for v in rng.integers((1, 1, 1), (11, 400, 4)))
        sizes = [fan_in, width]
        x = rng.normal(size=(nets, batch, fan_in))
        logits = rng.normal(0.0, 3.0, size=(nets, batch, width))
        targets = rng.uniform(size=(nets, batch, width))
        w = rng.normal(size=(nets, fan_in, width))
        own = [np.empty((nets, fan_in, width))], [np.empty((nets, 1, width))]
        buffer = np.full((nets, param_count(sizes)), np.nan)
        for grad_w, grad_b in (own, _views(buffer, sizes)):
            _backward([w], [x], logits, targets, "relu", grad_w, grad_b)
        assert not np.isnan(buffer).any()
        delta = (softmax(logits) - targets) / batch
        sequential = functools.reduce(np.add, delta.swapaxes(0, 1))
        pairwise = np.array([[delta[k, :, j].copy().sum() for j in range(width)] for k in range(nets)])
        pinned, other = (pairwise, sequential) if width == 1 else (sequential, pairwise)
        assert _same_bits(own[1][0][:, 0], pinned)
        assert _same_bits(_views(buffer, sizes)[1][0][:, 0], pinned)
        assert _same_bits(_views(buffer, sizes)[0][0], own[0][0])
        differ += not _same_bits(pinned, other)
    # The two orders give other bits for most shapes, so the test tells them apart.
    assert differ > 50


def test_make_dataset_determinism_and_split():
    a = make_dataset(400, 0.15, seed=0)
    b = make_dataset(400, 0.15, seed=0)
    c = make_dataset(400, 0.15, seed=1)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.features, c.features)
    assert len(a.train_idx) == 320
    assert len(a.val_idx) == 80
    together = np.sort(np.concatenate([a.train_idx, a.val_idx]))
    assert np.array_equal(together, np.arange(400))
    assert a.labels.sum() == 200  # balanced classes


def test_make_dataset_tiny_and_invalid():
    tiny = make_dataset(4, 0.0, seed=0)
    assert len(tiny.train_idx) == 3
    assert len(tiny.val_idx) == 1
    with pytest.raises(ValueError):
        make_dataset(3)
    with pytest.raises(ValueError):
        make_dataset(10, noise=-0.1)


def test_numpy_integer_sizes_are_admitted_as_int_ones():
    assert np.array_equal(make_dataset(np.int64(40)).features, make_dataset(40).features)
    model = MLP([np.int64(2), np.int32(3), 2], rng=np.random.default_rng(0))
    assert np.array_equal(model.flat, MLP([2, 3, 2], rng=np.random.default_rng(0)).flat)


def test_make_dataset_zero_noise_is_seed_independent_geometry():
    a = make_dataset(100, 0.0, seed=0)
    b = make_dataset(100, 0.0, seed=99)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.train_idx, b.train_idx)  # split still reshuffles


def test_hidden_layer_separates_what_a_linear_probe_cannot():
    dataset = make_dataset(400, 0.0, seed=0)
    adam = make_spec("adam", UpdateRule("additive", lr=0.01))
    config = TrainingConfig(gain=1.0, epochs=200, batch_size=32, seed=5, optimizer=adam)
    probe = MLP([2, 2], activation="tanh", gain=1.0, rng=np.random.default_rng(5))
    probe_result = train(probe, dataset, config)
    deep = MLP([2, 16, 2], activation="tanh", gain=1.0, rng=np.random.default_rng(5))
    deep_result = train(deep, dataset, config)
    assert probe_result.final().train_accuracy < 0.95  # two moons are not linearly separable
    assert deep_result.final().train_accuracy > 0.99
    assert probe_result.final().train_accuracy < deep_result.final().train_accuracy


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(gain=0.0, epochs=10, batch_size=32, seed=0)
    with pytest.raises(ValueError):
        TrainingConfig(gain=1.0, epochs=0, batch_size=32, seed=0)
    with pytest.raises(ValueError):
        TrainingConfig(gain=1.0, epochs=10, batch_size=0, seed=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epochs", math.nan, "epochs must be an integer, got nan"),
        ("epochs", math.inf, "epochs must be an integer, got inf"),
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("gain", math.nan, "gain must be positive, got nan"),
        ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
        ("batch_size", math.nan, "batch_size must be an integer, got nan"),
        ("batch_size", True, "batch_size must be an integer, got True"),
    ],
)
def test_training_config_refuses_epochs_that_are_not_integers_and_a_nan_gain(field, value, message):
    # Admitted, an epoch count that no epoch number equals would never end
    # training, and a batch size that is not an integer would fail in train
    # or train at batch size 1.
    good = dict(gain=1.0, epochs=3, batch_size=8, seed=0)
    with pytest.raises(ValueError) as info:
        TrainingConfig(**{**good, field: value})
    assert str(info.value) == message


def test_train_requires_an_optimizer():
    dataset = make_dataset(40, 0.15, seed=0)
    model = MLP([2, 4, 2], rng=np.random.default_rng(0))
    config = TrainingConfig(gain=1.0, epochs=1, batch_size=8, seed=0)
    with pytest.raises(ValueError):
        train(model, dataset, config)


def test_train_is_reproducible():
    dataset = make_dataset(200, 0.15, seed=0)
    spec = make_spec("sgd", default_update_rule("sgd", "additive"))
    config = TrainingConfig(gain=1.0, epochs=5, batch_size=32, seed=7, optimizer=spec)
    results = []
    for _ in range(2):
        model = MLP([2, 16, 2], gain=1.0, rng=np.random.default_rng(7))
        results.append(train(model, dataset, config))
    assert results[0].metrics == results[1].metrics
    assert results[0].sign_flips == results[1].sign_flips


def test_multiplicative_training_never_flips_signs():
    dataset = make_dataset(400, 0.15, seed=0)
    spec = make_spec("sgd", default_update_rule("sgd", "multiplicative"))
    config = TrainingConfig(gain=1.0, epochs=10, batch_size=32, seed=3, optimizer=spec)
    model = MLP([2, 16, 2], activation="relu", gain=1.0, rng=np.random.default_rng(3))
    result = train(model, dataset, config)
    assert not result.diverged
    assert result.epochs_run == 10
    assert result.sign_flips == 0
    assert result.final().val_accuracy > 0.8  # it still actually learns


def test_sgd_rules_reach_good_validation_accuracy():
    dataset = make_dataset(400, 0.15, seed=0)
    for kind in ("additive", "hybrid"):
        spec = make_spec("sgd", default_update_rule("sgd", kind))
        config = TrainingConfig(gain=1.0, epochs=60, batch_size=32, seed=9, optimizer=spec)
        model = MLP([2, 16, 2], activation="relu", gain=1.0, rng=np.random.default_rng(9))
        result = train(model, dataset, config)
        assert not result.diverged
        assert result.final().val_accuracy >= 0.85


def test_multiplicative_update_bound_holds_at_network_scale():
    dataset = make_dataset(200, 0.15, seed=0)
    spec = make_spec("sgd", default_update_rule("sgd", "multiplicative"))
    lr_outer = spec.update.lr_outer
    model = MLP([2, 16, 2], gain=1.0, rng=np.random.default_rng(3))
    params = model.parameters()
    states = [init_state(p.size) for p in params]
    x = dataset.features[dataset.train_idx]
    y = dataset.labels[dataset.train_idx]
    rng = np.random.default_rng(3)
    for _ in range(3):
        order = rng.permutation(len(y))
        for start in range(0, len(y), 32):
            batch = order[start : start + 32]
            _, cache = model.forward(x[batch])
            grads = model.backward(cache, y[batch])
            for p, g, st in zip(params, grads, states):
                before = p.ravel().copy()
                new_flat, _ = step(spec, st, before, g.ravel())
                bound = lr_outer * np.abs(before) * (1.0 + 1e-12)
                assert np.all(np.abs(new_flat - before) <= bound)
                p[...] = new_flat.reshape(p.shape)


def test_train_result_epoch_lookup():
    dataset = make_dataset(100, 0.15, seed=0)
    spec = make_spec("sgd", default_update_rule("sgd", "additive"))
    config = TrainingConfig(gain=1.0, epochs=8, batch_size=32, seed=1, optimizer=spec)
    model = MLP([2, 8, 2], rng=np.random.default_rng(1))
    result = train(model, dataset, config)
    assert [m.epoch for m in result.metrics] == list(range(1, 9))
    assert result.at_epoch(5) == result.metrics[4]
    assert result.at_epoch(100) == result.metrics[-1]
    assert result.final() == result.metrics[-1]


def test_sample_training_config_determinism_and_ranges():
    a = sample_training_config(seed=7, index=3)
    b = sample_training_config(seed=7, index=3)
    assert a == b
    assert a != sample_training_config(seed=7, index=4)
    for i in range(500):
        cfg = sample_training_config(seed=7, index=i)
        assert cfg.gain >= 1e-3
        assert cfg.epochs >= 1
        assert 0 <= cfg.seed < 2**31 - 1
        assert cfg.optimizer is None


def test_sample_training_config_gain_distribution():
    gains = [sample_training_config(seed=7, index=i).gain for i in range(20_000)]
    assert abs(np.mean(gains) - 2.5) <= 0.05  # Gamma(1, 2.5) has mean 2.5


def test_train_sampled_configs_pairs_draws_across_optimizers():
    settings = ProtocolSettings()
    additive = make_spec("sgd", default_update_rule("sgd", "additive"))
    mult = make_spec("sgd", default_update_rule("sgd", "multiplicative"))
    cfg_a, _ = train_sampled_configs(settings, additive, n_configs=3, master_seed=77)
    cfg_m, _ = train_sampled_configs(settings, mult, n_configs=3, master_seed=77)
    assert [(c.gain, c.epochs, c.seed) for c in cfg_a] == [
        (c.gain, c.epochs, c.seed) for c in cfg_m
    ]
    assert all(c.optimizer == additive for c in cfg_a)
    assert all(c.optimizer == mult for c in cfg_m)


# ------------------------------------------------- population trainer oracle


def _reference_train(layer_sizes, activation, dataset, config, fan_mode="product"):
    """The per-tensor training loop the population trainer replaced: 2-D
    forward and backward passes and one OptimizerState and step() per
    weight matrix and bias vector.  Returns (TrainResult, parameters)."""
    rng = np.random.default_rng(config.seed)
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    weights = [xavier_init(n_in, n_out, config.gain, rng, fan_mode) for n_in, n_out in pairs]
    biases = [np.full(n_out, BIAS_INIT) for _, n_out in pairs]
    params = [p for wb in zip(weights, biases) for p in wb]

    def forward(x):
        a, inputs, pre = x, [x], []
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w + b
            pre.append(z)
            if i < len(weights) - 1:
                a = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
                inputs.append(a)
        return inputs, pre

    def backward(inputs, pre, labels):
        n = len(labels)
        shifted = pre[-1] - pre[-1].max(axis=1, keepdims=True)
        e = np.exp(shifted)
        delta = e / e.sum(axis=1, keepdims=True)
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        grads = [None] * len(params)
        for i in range(len(weights) - 1, -1, -1):
            grads[2 * i] = inputs[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                da = delta @ weights[i].T
                if activation == "relu":
                    delta = da * (pre[i - 1] > 0.0)
                else:
                    delta = da * (1.0 - inputs[i] ** 2)
        return grads

    def evaluate(x, labels):
        logits = forward(x)[1][-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-log_probs[np.arange(len(labels)), labels].mean())
        return loss, float((logits.argmax(axis=1) == labels).mean())

    x_train, y_train = dataset.features[dataset.train_idx], dataset.labels[dataset.train_idx]
    x_val, y_val = dataset.features[dataset.val_idx], dataset.labels[dataset.val_idx]
    states = [init_state(p.size) for p in params]
    initial_signs = [np.sign(p) for p in params]
    shuffle = np.random.default_rng(config.seed)
    metrics, sign_flips, diverged = [], 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = shuffle.permutation(len(y_train))
            for start in range(0, len(y_train), config.batch_size):
                batch = order[start : start + config.batch_size]
                inputs, pre = forward(x_train[batch])
                grads = backward(inputs, pre, y_train[batch])
                try:
                    for p, g, st in zip(params, grads, states):
                        new_flat, _ = step(config.optimizer, st, p.ravel(), g.ravel())
                        p[...] = new_flat.reshape(p.shape)
                except (NonFiniteGradientError, DivergenceError):
                    diverged = True
                    break
                for p, s0 in zip(params, initial_signs):
                    sign_flips += int(((np.sign(p) != s0) & (s0 != 0.0)).sum())
            if diverged:
                break
            train_loss, train_acc = evaluate(x_train, y_train)
            _, val_acc = evaluate(x_val, y_val)
            if not math.isfinite(train_loss):
                diverged = True
                break
            metrics.append(EpochMetrics(epoch, train_acc, val_acc, train_loss))
        if not metrics:
            train_loss, train_acc = evaluate(x_train, y_train)
            _, val_acc = evaluate(x_val, y_val)
            if not math.isfinite(train_loss):
                train_loss, train_acc, val_acc = math.inf, 0.0, 0.0
            metrics = [EpochMetrics(0, train_acc, val_acc, train_loss)]
    result = TrainResult(metrics, sign_flips, diverged, len(metrics))
    return result, np.concatenate([p.ravel() for p in params])


def _assert_same_run(got, want):
    assert got.metrics == want.metrics
    assert got.sign_flips == want.sign_flips
    assert got.diverged == want.diverged
    assert got.epochs_run == want.epochs_run


def _population(settings, configs):
    dataset = make_dataset(settings.dataset_n, settings.dataset_noise, settings.dataset_seed)
    sizes = [2, *settings.hidden, 2]
    models = [
        MLP(sizes, settings.activation, c.gain, np.random.default_rng(c.seed), settings.fan_mode)
        for c in configs
    ]
    return dataset, sizes, models, train_population(models, dataset, configs)


def _check_against_reference(settings, configs):
    dataset, sizes, _, results = _population(settings, configs)
    for config, result in zip(configs, results):
        want, _ = _reference_train(sizes, settings.activation, dataset, config, settings.fan_mode)
        _assert_same_run(result, want)
    return results


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "hybrid"])
@pytest.mark.parametrize("master_seed", [1, 7, 99, 2024, 12345])
def test_sampled_protocol_matches_per_tensor_reference(master_seed, kind):
    # The bundled protocol's draws, all ten configs, on a smaller dataset
    # (48 training points: a full and a short minibatch per epoch).
    settings = ProtocolSettings(dataset_n=60)
    spec = make_spec("sgd", default_update_rule("sgd", kind))
    configs, results = train_sampled_configs(settings, spec, n_configs=10, master_seed=master_seed)
    dataset = make_dataset(settings.dataset_n, settings.dataset_noise, settings.dataset_seed)
    for config, result in zip(configs, results):
        want, _ = _reference_train([2, 16, 2], "relu", dataset, config)
        _assert_same_run(result, want)


def _configs(spec, batch_size, epochs=(3, 5, 2, 4), gains=(1.0, 2.5, 0.3, 6.0), seeds=(11, 12, 13, 14)):
    return [
        TrainingConfig(gain=g, epochs=e, batch_size=batch_size, seed=s, optimizer=spec)
        for g, e, s in zip(gains, epochs, seeds)
    ]


@pytest.mark.parametrize(
    "family,kind",
    [
        ("sgd", "additive"),
        ("adagrad", "additive"),
        ("adam", "additive"),
        ("rmsprop", "additive"),
        ("adagrad", "multiplicative"),
        ("rmsprop", "multiplicative"),
        ("adagrad", "hybrid"),
        ("rmsprop", "hybrid"),
    ],
)
def test_population_matches_reference_for_every_family(family, kind):
    spec = make_spec(family, default_update_rule(family, kind))
    _check_against_reference(ProtocolSettings(dataset_n=120), _configs(spec, 16))


@pytest.mark.parametrize(
    "settings,batch_size",
    [
        (ProtocolSettings(dataset_n=120, activation="tanh"), 16),
        (ProtocolSettings(dataset_n=120, hidden=(8, 5)), 16),
        (ProtocolSettings(dataset_n=120, hidden=(3, 4, 5), activation="tanh"), 16),
        (ProtocolSettings(dataset_n=257), 20),  # a short last minibatch
        (ProtocolSettings(dataset_n=20), 1),
        (ProtocolSettings(dataset_n=40), 64),  # one minibatch holds the whole train split
        (ProtocolSettings(dataset_n=120, fan_mode="sum"), 16),
    ],
)
def test_population_matches_reference_across_shapes(settings, batch_size):
    for kind in ("additive", "multiplicative"):
        spec = make_spec("sgd", default_update_rule("sgd", kind))
        _check_against_reference(settings, _configs(spec, batch_size))


@pytest.mark.parametrize("n_configs", [1, 4])
def test_population_of_one_and_four_match_reference(n_configs):
    spec = make_spec("adam", default_update_rule("adam", "additive"))
    _check_against_reference(ProtocolSettings(dataset_n=120), _configs(spec, 16)[:n_configs])


@pytest.mark.parametrize("kind", ["additive", "hybrid"])
@pytest.mark.parametrize("lr", [1e2, 1e10, 1e100, 1e300])
def test_population_matches_reference_when_runs_diverge(kind, lr):
    rule = default_update_rule("sgd", kind)
    spec = make_spec("sgd", replace(rule, lr=lr))
    configs = _configs(spec, 16, epochs=(4, 4, 3, 5), gains=(1.0, 1e3, 1e154, 1e156))
    results = _check_against_reference(ProtocolSettings(dataset_n=120), configs)
    assert any(r.diverged for r in results)


@st.composite
def _drawn_population(draw):
    """Protocol settings, a batch size and one to four (gain, epochs,
    seed) draws.  Hidden widths include 1, whose batch sum is pairwise;
    the batch size is 1, leaves a short last minibatch, or covers the
    whole train split; gains of 2e154 and up overflow."""
    protocol = ProtocolSettings(
        dataset_n=draw(st.integers(8, 30)),
        dataset_seed=draw(st.integers(0, 3)),
        hidden=tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))),
        activation=draw(st.sampled_from(ACTIVATIONS)),
    )
    n_train = len(make_dataset(protocol.dataset_n, protocol.dataset_noise, protocol.dataset_seed).train_idx)
    batch_size = draw(
        st.one_of(
            st.just(1),
            st.sampled_from([b for b in range(2, n_train) if n_train % b]),
            st.integers(n_train, n_train + 5),
        )
    )
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.3, 1.0, 2.5, 6.0, 2e154, 1e156]),
                st.integers(1, 3),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return protocol, batch_size, runs


# No shrink phase: a failing population is reported as drawn.
@pytest.mark.parametrize("family,kind", [(f, k) for f in FAMILIES for k in UPDATE_KINDS])
@settings(max_examples=8, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(population=_drawn_population(), scale=st.sampled_from([1.0, 1e10, 1e300]))
def test_population_rows_equal_the_per_tensor_reference_on_drawn_runs(family, kind, population, scale):
    """Every row of a drawn population equals its solo run and the
    reference's run bit for bit: its metrics and its final parameters.
    scale multiplies the rule's lr and lr_inner, so that some steps
    overflow.  adam, which has no calibrated multiplicative or hybrid
    rates, takes rmsprop's."""
    protocol, batch_size, runs = population
    rule = default_update_rule("rmsprop" if family == "adam" and kind != "additive" else family, kind)
    scaled = [name for name in ("lr", "lr_inner") if name in rule.FIELDS[kind]]
    rule = replace(rule, **{name: getattr(rule, name) * scale for name in scaled})
    spec = make_spec(family, rule)
    configs = [
        TrainingConfig(gain=gain, epochs=epochs, batch_size=batch_size, seed=seed, optimizer=spec)
        for gain, epochs, seed in runs
    ]
    dataset, sizes, models, results = _population(protocol, configs)
    for model, config, result in zip(models, configs, results):
        solo = MLP(sizes, protocol.activation, config.gain, np.random.default_rng(config.seed))
        _assert_same_bits(result, train(solo, dataset, config))
        assert model.flat.tobytes() == solo.flat.tobytes()
        want, parameters = _reference_train(sizes, protocol.activation, dataset, config)
        if want.metrics[0].epoch == 0:
            # The run diverged in its first epoch, and the reference records
            # parameters that a rejected step may have partly updated (see
            # test_a_rejected_step_leaves_no_tensor_updated); the solo run
            # above checks that record.
            want = replace(want, metrics=result.metrics)
        _assert_same_bits(result, want)
        if not want.diverged:
            assert model.flat.tobytes() == parameters.tobytes()


def _assert_same_bits(got, want):
    _assert_same_run(got, want)
    values = [[(m.train_accuracy, m.val_accuracy, m.train_loss) for m in r.metrics] for r in (got, want)]
    assert _same_bits(*values)


# ------------------------------------------ row independence and divergence

# With sgd additive at lr = 1 and seeds 12 and 13, gain 1e156 diverges on
# the first step and 2e154 after some committed steps of the first epoch;
# gains near 1 train normally.
_SIBLING_GAINS = (1.0, 1e156, 2e154, 2.0)


def test_each_row_equals_its_solo_run_when_a_sibling_diverges():
    settings = ProtocolSettings(dataset_n=120)
    spec = make_spec("sgd", UpdateRule("additive", lr=1.0))
    configs = _configs(spec, 16, epochs=(4, 3, 5, 2), gains=_SIBLING_GAINS)
    dataset, sizes, models, results = _population(settings, configs)
    assert [r.diverged for r in results] == [False, True, True, False]
    assert results[1].metrics[0].epoch == results[2].metrics[0].epoch == 0  # gone in epoch 1
    assert [r.epochs_run for r in results] == [4, 1, 1, 2]
    for model, config, result in zip(models, configs, results):
        solo = MLP(sizes, gain=config.gain, rng=np.random.default_rng(config.seed))
        _assert_same_run(result, train(solo, dataset, config))
        assert np.array_equal(model.flat, solo.flat)


# With sgd additive at lr = 1e4, batch 16 and seed 1, each gain leaves by
# another way: 1.0 trains to its last epoch; 1e140 and 1e100 leave on a
# non-finite train loss at the end of epoch 1 and of epoch 3, with no step
# rejected; 1e150 and 1e50 leave on a rejected step in epoch 1 and epoch 6.
_EXIT_GAINS = (1.0, 1e140, 1e100, 1e150, 1e50)


def test_each_row_equals_its_solo_run_whichever_way_it_leaves(monkeypatch):
    rejected = set()

    class RejectionLog(Population):
        def step(self):
            theta, ok = super().step()
            if ok is not None:
                rejected.update(self.rows[~ok].tolist())
            return theta, ok

    monkeypatch.setattr(nn, "Population", RejectionLog)
    settings = ProtocolSettings(dataset_n=120)
    spec = make_spec("sgd", UpdateRule("additive", lr=1e4))
    configs = _configs(spec, 16, epochs=(4, 6, 6, 6, 6), gains=_EXIT_GAINS, seeds=(1,) * 5)
    dataset, sizes, models, results = _population(settings, configs)
    assert [r.diverged for r in results] == [False, True, True, True, True]
    assert rejected == {3, 4}
    assert [[m.epoch for m in r.metrics] for r in results] == [[1, 2, 3, 4], [0], [1, 2], [0], [1, 2, 3, 4, 5]]
    assert results[1].metrics == [EpochMetrics(0, 0.0, 0.0, math.inf)]
    for model, config, result in zip(models, configs, results):
        solo = MLP(sizes, gain=config.gain, rng=np.random.default_rng(config.seed))
        _assert_same_bits(result, train(solo, dataset, config))
        assert model.flat.tobytes() == solo.flat.tobytes()


def test_sampled_rows_equal_their_solo_runs():
    settings = ProtocolSettings(dataset_n=100)
    spec = make_spec("sgd", default_update_rule("sgd", "hybrid"))
    configs, results = train_sampled_configs(settings, spec, n_configs=4, master_seed=5)
    dataset = make_dataset(settings.dataset_n, settings.dataset_noise, settings.dataset_seed)
    for config, result in zip(configs, results):
        solo = MLP([2, 16, 2], gain=config.gain, rng=np.random.default_rng(config.seed))
        _assert_same_run(result, train(solo, dataset, config))


def _last_committed_parameters(model, dataset, config):
    """Replay training with one flat parameter vector and one optimizer
    state; stop at the first step whose gradient or result is non-finite
    and return the parameters before it."""
    flat = model.flat.copy()
    probe = MLP(model.layer_sizes, model.activation, rng=np.random.default_rng(0))
    state = init_state(flat.size)
    x = dataset.features[dataset.train_idx]
    y = dataset.labels[dataset.train_idx]
    shuffle = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = shuffle.permutation(len(y))
        for start in range(0, len(y), config.batch_size):
            batch = order[start : start + config.batch_size]
            probe.flat[...] = flat
            with np.errstate(over="ignore", invalid="ignore"):
                _, cache = probe.forward(x[batch])
                grads = probe.backward(cache, y[batch])
            try:
                flat, _ = step(config.optimizer, state, flat, np.concatenate([g.ravel() for g in grads]))
            except (NonFiniteGradientError, DivergenceError):
                return flat
    return flat


@pytest.mark.parametrize(
    "lr,gain",
    [
        (1.0, 2e154),  # some committed steps, then a non-finite gradient
        (1.0, 1e156),  # a non-finite gradient on the first step
        (1e308, 10.0),  # a finite gradient whose step overflows some coordinates
    ],
)
def test_diverged_run_keeps_its_last_committed_parameters(lr, gain):
    dataset = make_dataset(120, 0.15, seed=0)
    spec = make_spec("sgd", UpdateRule("additive", lr=lr))
    config = TrainingConfig(gain=gain, epochs=3, batch_size=16, seed=12, optimizer=spec)
    model = MLP([2, 16, 2], gain=gain, rng=np.random.default_rng(12))
    expected = _last_committed_parameters(model, dataset, config)
    result = train(model, dataset, config)
    assert result.diverged
    assert np.isfinite(model.flat).all()
    assert np.array_equal(model.flat, expected)


def test_a_rejected_step_leaves_no_tensor_updated():
    # On the first step W1's update is finite and W2's overflows.  The
    # per-tensor loop kept the update of W1; the flat population rejects
    # the whole step.
    dataset = make_dataset(120, 0.15, seed=0)
    spec = make_spec("sgd", UpdateRule("additive", lr=1e308))
    config = TrainingConfig(gain=10.0, epochs=3, batch_size=16, seed=13, optimizer=spec)
    model = MLP([2, 16, 2], gain=10.0, rng=np.random.default_rng(13))
    initial = model.flat.copy()
    result = train(model, dataset, config)
    reference, partly_stepped = _reference_train([2, 16, 2], "relu", dataset, config)
    assert result.diverged and reference.diverged
    assert np.array_equal(model.flat, initial)
    assert not np.array_equal(partly_stepped, initial)


def test_early_divergence_leaks_no_warnings():
    dataset = make_dataset(100, 0.15, seed=0)
    spec = make_spec("sgd", UpdateRule("additive", lr=1e150))
    config = TrainingConfig(gain=1.0, epochs=3, batch_size=16, seed=1, optimizer=spec)
    model = MLP([2, 16, 2], rng=np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = train(model, dataset, config)
    assert result.diverged
    assert result.metrics == [EpochMetrics(0, 0.0, 0.0, math.inf)]


def test_parameters_are_views_of_one_flat_vector():
    model = MLP([2, 8, 5, 2], rng=np.random.default_rng(0))
    params = model.parameters()
    assert sum(p.size for p in params) == model.flat.size
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), model.flat)
    for p in params:
        assert np.shares_memory(p, model.flat)
    model.flat[...] = 0.0
    assert all(not p.any() for p in params)


def test_train_population_rejects_mixed_populations():
    dataset = make_dataset(40, 0.15, seed=0)
    sgd = make_spec("sgd", default_update_rule("sgd", "additive"))
    adam = make_spec("adam", default_update_rule("adam", "additive"))
    config = TrainingConfig(gain=1.0, epochs=1, batch_size=8, seed=0, optimizer=sgd)
    a = MLP([2, 4, 2], rng=np.random.default_rng(0))
    b = MLP([2, 4, 2], rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        train_population([a, b], dataset, [config, replace(config, optimizer=adam)])
    with pytest.raises(ValueError):
        train_population([a, b], dataset, [config, replace(config, batch_size=4)])
    with pytest.raises(ValueError):
        train_population([a, MLP([2, 5, 2])], dataset, [config, config])
    with pytest.raises(ValueError):
        train_population([a, MLP([2, 4, 2], activation="tanh")], dataset, [config, config])
    with pytest.raises(ValueError):
        train_population([a], dataset, [config, config])


def test_mean_std_is_the_sample_statistic():
    assert mean_std([0.5]) == (0.5, 0.0)
    mean, std = mean_std([0.8, 0.9, 1.0])
    assert mean == pytest.approx(0.9)
    assert std == pytest.approx(0.1)
    values = [0.1 * i for i in range(1, 8)]
    assert mean_std(values) == pytest.approx((np.mean(values), np.std(values, ddof=1)))
