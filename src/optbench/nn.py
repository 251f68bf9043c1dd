"""A small dense classifier trained without any autograd framework.

The network is a plain multi-layer perceptron with relu or tanh hidden
activations and a softmax cross-entropy head.  Gradients come from a
hand-written backward pass (checked against finite differences in the
test suite).  All parameters of a network live in one flat vector and
every weight matrix and bias vector is a reshaped view of it, so a single
optimizer state drives all tensors with any update rule from the optim
module.  Same-shaped networks train together as a population: a (C, P)
buffer of C flat vectors, stepped by stacked forward and backward passes
and one optimizer call per minibatch.  A single model is the C = 1 case.

No reduction or broadcast runs along the class axis of the logits: the
softmax head, the losses and the accuracies work on each class column as
a whole (C, n) array, because numpy's inner loop over a row's two classes
costs far more than their arithmetic.  The column forms give the same
bits as numpy's last-axis max, sum and argmax.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .optim import (
    OptimizerState,
    OptimizerSpec,
    advance,
    step,  # noqa: F401  (kept importable: bench/tracer.py wraps nn.step)
)

ACTIVATIONS = ("relu", "tanh")

# Biases start at a small nonzero constant instead of zero so that
# magnitude-proportional update rules are not pinned at their zero fixed
# point from the first step.
BIAS_INIT = 0.01


def xavier_init(
    fan_in: int, fan_out: int, gain: float, rng: np.random.Generator, fan_mode: str = "product"
) -> np.ndarray:
    """Draw a (fan_in, fan_out) weight matrix from N(0, std^2) with
    std = gain * sqrt(2 / (fan_in * fan_out)).

    fan_mode='sum' switches the denominator to fan_in + fan_out, the more
    common normalization, for comparison runs.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be positive, got {fan_in}, {fan_out}")
    if gain <= 0.0:
        raise ValueError(f"gain must be positive, got {gain}")
    if fan_mode == "product":
        denom = fan_in * fan_out
    elif fan_mode == "sum":
        denom = fan_in + fan_out
    else:
        raise ValueError(f"unknown fan_mode {fan_mode!r}")
    std = gain * math.sqrt(2.0 / denom)
    return rng.normal(0.0, std, size=(fan_in, fan_out))


# The head folds over the class columns logits[..., k], never along the
# class axis (see the module docstring).  The folds give the bits of
# numpy's last-axis reductions: max is np.maximum.reduce, a sum of up to
# eight classes adds left to right, and argmax keeps the first maximum
# and the first NaN.

def _shifted(logits: np.ndarray) -> list[np.ndarray]:
    """Each class column minus the row's largest logit."""
    columns = [logits[..., k] for k in range(logits.shape[-1])]
    top = functools.reduce(np.maximum, columns)
    return [c - top for c in columns]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = [np.exp(s) for s in _shifted(logits)]
    total = functools.reduce(np.add, e)
    out = np.empty(logits.shape)
    for k, column in enumerate(e):
        np.divide(column, total, out=out[..., k])
    return out


def _log_softmax_columns(logits: np.ndarray) -> list[np.ndarray]:
    """The log-softmax class columns, via log-sum-exp so that large logits
    cannot overflow."""
    shifted = _shifted(logits)
    log_total = np.log(functools.reduce(np.add, [np.exp(s) for s in shifted]))
    return [s - log_total for s in shifted]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    return np.stack(_log_softmax_columns(logits), axis=-1)


def _mean_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of (n, classes) logits."""
    return _mean_nll(_log_softmax(logits), labels)


def _losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of each network of (C, n, classes) logits.

    The labelled log-probabilities form one C-contiguous (C, n) array, so
    each row's mean sums in the pairwise order of a single network's
    cross_entropy."""
    columns = _log_softmax_columns(logits)
    picked = columns[0]
    for k, column in enumerate(columns[1:], 1):
        np.copyto(picked, column, where=labels == k)
    return -picked.mean(axis=-1)


def _accuracies(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Share of each network's rows whose argmax is the label."""
    best = logits[..., 0]
    predicted = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, logits.shape[-1]):
        column = logits[..., k]
        better = (column > best) | (np.isnan(column) & ~np.isnan(best))
        predicted[better] = k
        best = np.where(better, column, best)
    return (predicted == labels).mean(axis=-1)


# The stacked passes below run C networks at once.  Weights are
# (C, n_in, n_out) and biases (C, 1, n_out); activations are (C, batch,
# width).  Stacked matmul runs the same gemm on each network's slice as a
# 2-D product, so every network gets the bits it would get alone.  Only
# the head touches the class axis, through its column folds, and the
# minibatch targets are one-hot rows so the backward pass subtracts them
# instead of indexing by label.

def param_count(layer_sizes: list[int]) -> int:
    """Weights and biases of a network with these layer sizes."""
    return sum((n_in + 1) * n_out for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def _views(buffer: np.ndarray, layer_sizes: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a (C, P) buffer laid out
    [W1, b1, W2, b2, ...]."""
    c = buffer.shape[0]
    weights, biases = [], []
    offset = 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(buffer[:, offset : offset + n_in * n_out].reshape(c, n_in, n_out))
        offset += n_in * n_out
        biases.append(buffer[:, offset : offset + n_out].reshape(c, 1, n_out))
        offset += n_out
    return weights, biases


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, activation: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """(inputs, logits): the input of every layer and the output of the
    last, for a (C, batch, n_in) or shared (batch, n_in) input.  Each layer
    fills one new array in place."""
    a, inputs = x, []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(a)
        a = a @ w
        a += b
        if i < last:
            if activation == "relu":
                np.maximum(a, 0.0, out=a)
            else:
                np.tanh(a, out=a)
    return inputs, a


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    return np.eye(classes)[labels]


def _backward(
    weights: list[np.ndarray],
    inputs: list[np.ndarray],
    logits: np.ndarray,
    targets: np.ndarray,
    activation: str,
    grad_w: list[np.ndarray],
    grad_b: list[np.ndarray],
) -> None:
    """Write the mean cross-entropy gradients of (C, batch, classes)
    one-hot targets into the grad_w/grad_b views."""
    delta = softmax(logits)
    delta -= targets
    delta /= targets.shape[1]
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i][...] = inputs[i].swapaxes(1, 2) @ delta
        grad_b[i][...] = delta.sum(axis=1, keepdims=True)
        if i > 0:
            da = delta @ weights[i].swapaxes(1, 2)
            if activation == "relu":
                # relu(z) > 0 exactly where z > 0, also for -0.0 and NaN.
                delta = da * (inputs[i] > 0.0)
            else:
                delta = da * (1.0 - inputs[i] ** 2)


@dataclass
class ForwardCache:
    """What the backward pass needs of a forward pass: the input of every
    layer and the logits."""

    inputs: list[np.ndarray]  # input to each layer (inputs[0] is the batch)
    logits: np.ndarray
    n_layers: int


class MLP:
    """Fully connected network: layer_sizes like [2, 16, 2], hidden
    activations applied to every layer except the last (the logits).

    flat holds every parameter; weights and biases are views of it."""

    def __init__(
        self,
        layer_sizes: list[int],
        activation: str = "relu",
        gain: float = 1.0,
        rng: np.random.Generator | None = None,
        fan_mode: str = "product",
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = np.random.default_rng(0) if rng is None else rng
        self.layer_sizes = list(layer_sizes)
        self.activation = activation
        self.flat = np.empty(param_count(self.layer_sizes))
        self._stacked = _views(self.flat[None], self.layer_sizes)
        self.weights = [w[0] for w in self._stacked[0]]
        self.biases = [b[0, 0] for b in self._stacked[1]]
        for w, (n_in, n_out) in zip(self.weights, zip(layer_sizes[:-1], layer_sizes[1:])):
            w[...] = xavier_init(n_in, n_out, gain, rng, fan_mode)
        for b in self.biases:
            b[...] = BIAS_INIT

    def parameters(self) -> list[np.ndarray]:
        """All trainable tensors, interleaved [W1, b1, W2, b2, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Return (logits, cache) for a (batch, n_in) input."""
        a = np.asarray(x, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected (batch, {self.layer_sizes[0]}) input, got {a.shape}")
        inputs, logits = _forward(*self._stacked, a[None], self.activation)
        cache = ForwardCache(inputs=[v[0] for v in inputs], logits=logits[0], n_layers=len(self.weights))
        return cache.logits, cache

    def backward(self, cache: ForwardCache, labels: np.ndarray) -> list[np.ndarray]:
        """Mean cross-entropy gradients for every tensor, in parameters() order."""
        labels = np.asarray(labels)
        if cache.n_layers != len(self.weights) or len(cache.inputs) != len(self.weights):
            raise ValueError("cache does not match this model")
        n = cache.inputs[0].shape[0]
        if labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got shape {labels.shape}")
        grad_w, grad_b = _views(np.empty((1, self.flat.size)), self.layer_sizes)
        _backward(
            self._stacked[0],
            [v[None] for v in cache.inputs],
            cache.logits[None],
            _one_hot(labels, self.layer_sizes[-1])[None],
            self.activation,
            grad_w,
            grad_b,
        )
        out = []
        for gw, gb in zip(grad_w, grad_b):
            out.append(gw[0])
            out.append(gb[0, 0])
        return out

    def evaluate(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """(mean loss, accuracy) on a labeled batch."""
        logits, _ = self.forward(x)
        return cross_entropy(logits, labels), float(_accuracies(logits, labels))


@dataclass
class SyntheticDataset:
    """Two interleaved half-moon point clouds with an 80/20 split."""

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray


# The least dataset size, noise level and batch size a run admits.
MIN_SAMPLES = 4
MIN_NOISE = 0.0
MIN_BATCH_SIZE = 1


def make_dataset(n: int = 400, noise: float = 0.15, seed: int = 0) -> SyntheticDataset:
    """Generate the two-moons classification set, deterministically per seed."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    if noise < MIN_NOISE:
        raise ValueError(f"noise must be non-negative, got {noise}")
    n_outer = n - n // 2
    n_inner = n // 2
    t_outer = np.linspace(0.0, math.pi, n_outer)
    t_inner = np.linspace(0.0, math.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    features = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n_outer, dtype=int), np.ones(n_inner, dtype=int)])
    rng = np.random.default_rng(seed)
    if noise > 0.0:
        features = features + rng.normal(0.0, noise, features.shape)
    perm = rng.permutation(n)
    n_train = min(n - 1, max(1, int(round(0.8 * n))))
    return SyntheticDataset(
        features=features,
        labels=labels,
        train_idx=perm[:n_train],
        val_idx=perm[n_train:],
    )


@dataclass(frozen=True)
class TrainingConfig:
    gain: float
    epochs: int
    batch_size: int
    seed: int
    optimizer: OptimizerSpec | None = None
    fan_mode: str = "product"

    def __post_init__(self):
        if self.gain <= 0.0:
            raise ValueError(f"gain must be positive, got {self.gain}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < MIN_BATCH_SIZE:
            raise ValueError(f"batch_size must be >= {MIN_BATCH_SIZE}, got {self.batch_size}")


def sample_training_config(seed: int, index: int, batch_size: int = 32) -> TrainingConfig:
    """Draw one training configuration, deterministically per (seed, index).

    gain ~ Gamma(shape 1, scale 2.5), redrawn while below 1e-3 so the
    network never starts effectively all-zero; epochs ~ Normal(60, 10)
    rounded and clamped to at least 1.  The optimizer slot is left for the
    caller so the same (gain, epochs, seed) triple can be reused across
    update rules for paired comparisons.
    """
    rng = np.random.default_rng([seed, index])
    gain = float(rng.gamma(1.0, 2.5))
    while gain < 1e-3:
        gain = float(rng.gamma(1.0, 2.5))
    epochs = max(1, int(round(rng.normal(60.0, 10.0))))
    run_seed = int(rng.integers(0, 2**31 - 1))
    return TrainingConfig(gain=gain, epochs=epochs, batch_size=batch_size, seed=run_seed)


@dataclass
class EpochMetrics:
    epoch: int
    train_accuracy: float
    val_accuracy: float
    train_loss: float


@dataclass
class TrainResult:
    """Per-epoch metric series plus audit counters.

    sign_flips counts (step, coordinate) events where a parameter whose
    initial value was nonzero is observed with a different sign after an
    optimizer step; pure multiplicative training must keep this at 0.
    """

    metrics: list[EpochMetrics]
    sign_flips: int
    diverged: bool
    epochs_run: int

    def final(self) -> EpochMetrics:
        return self.metrics[-1]

    def at_epoch(self, epoch: int) -> EpochMetrics:
        """Metrics recorded at the given 1-based epoch (clamped to the run)."""
        return self.metrics[min(epoch, len(self.metrics)) - 1]


class _Population:
    """The still-training rows of a population: parameters, gradient and
    optimizer buffers as (C, P) arrays, with per-row bookkeeping."""

    def __init__(self, theta: np.ndarray, configs: list[TrainingConfig], layer_sizes: list[int]):
        c = len(configs)
        self.layer_sizes = layer_sizes
        self.rows = np.arange(c)  # index of each live row in the caller's list
        self.epochs = np.array([config.epochs for config in configs])
        self.rngs = [np.random.default_rng(config.seed) for config in configs]
        self.state = OptimizerState(t=0, m=np.zeros_like(theta), v=np.zeros_like(theta))
        self.initial_signs = np.sign(theta)
        self.flips = np.zeros(c, dtype=int)
        self._set_theta(theta)

    def _set_theta(self, theta: np.ndarray) -> None:
        self.theta = theta
        self.grad = np.empty_like(theta)
        self.weights, self.biases = _views(theta, self.layer_sizes)
        self.grad_w, self.grad_b = _views(self.grad, self.layer_sizes)

    def flipped(self) -> np.ndarray:
        """Per row, the coordinates whose sign differs from a nonzero
        initial sign."""
        signs = self.initial_signs
        return ((np.sign(self.theta) != signs) & (signs != 0.0)).sum(axis=1)

    def keep(self, keep: np.ndarray) -> None:
        """Drop every row where keep is False."""
        self.rows, self.epochs = self.rows[keep], self.epochs[keep]
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.state.m, self.state.v = self.state.m[keep], self.state.v[keep]
        self.initial_signs, self.flips = self.initial_signs[keep], self.flips[keep]
        self._set_theta(self.theta[keep])


def train_population(
    models: list[MLP], dataset: SyntheticDataset, configs: list[TrainingConfig]
) -> list[TrainResult]:
    """Mini-batch training of same-shaped models, one config each, as one
    (C, P) population.

    The configs must share the optimizer and the batch size; every model
    keeps its own epoch count and shuffles with its own
    default_rng(config.seed) stream, so each result equals that model's
    solo run.  A step whose gradient or new parameters are non-finite in a
    row is rejected for that row as a whole: its parameters stay at the
    last committed step and the run is flagged diverged and stops, as it
    does when an end-of-epoch train loss is non-finite.  Every model is
    left holding its last committed parameters.
    """
    if len(models) != len(configs) or not models:
        raise ValueError("need one config per model, and at least one model")
    layer_sizes, activation = models[0].layer_sizes, models[0].activation
    if any(m.layer_sizes != layer_sizes or m.activation != activation for m in models):
        raise ValueError("the models of a population must share layer sizes and activation")
    spec, batch_size = configs[0].optimizer, configs[0].batch_size
    if any(c.optimizer is None for c in configs):
        raise ValueError("config.optimizer must be set before training")
    if any(c.optimizer != spec or c.batch_size != batch_size for c in configs):
        raise ValueError("the configs of a population must share the optimizer and batch size")
    x_train = dataset.features[dataset.train_idx]
    y_train = dataset.labels[dataset.train_idx]
    targets = _one_hot(y_train, layer_sizes[-1])
    x_val = dataset.features[dataset.val_idx]
    y_val = dataset.labels[dataset.val_idx]
    n_train = len(y_train)
    final = np.stack([m.flat for m in models])  # each row's last committed parameters
    pop = _Population(final.copy(), configs, layer_sizes)
    metrics: list[list[EpochMetrics]] = [[] for _ in models]
    sign_flips = np.zeros(len(models), dtype=int)
    diverged = np.zeros(len(models), dtype=bool)

    def evaluate(weights, biases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Train loss, train accuracy and validation accuracy per row."""
        logits = _forward(weights, biases, x_train, activation)[1]
        val_logits = _forward(weights, biases, x_val, activation)[1]
        return _losses(logits, y_train), _accuracies(logits, y_train), _accuracies(val_logits, y_val)

    def retire(stop: np.ndarray) -> None:
        final[pop.rows[stop]] = pop.theta[stop]
        sign_flips[pop.rows[stop]] = pop.flips[stop]
        pop.keep(~stop)

    with np.errstate(over="ignore", invalid="ignore"):
        epoch = 0
        while pop.rows.size:
            epoch += 1
            # One gather per epoch; each minibatch is a slice of it.
            order = np.stack([rng.permutation(n_train) for rng in pop.rngs])
            x_epoch, t_epoch = x_train[order], targets[order]
            for start in range(0, n_train, batch_size):
                batch = slice(start, start + batch_size)
                inputs, logits = _forward(pop.weights, pop.biases, x_epoch[:, batch], activation)
                _backward(pop.weights, inputs, logits, t_epoch[:, batch], activation, pop.grad_w, pop.grad_b)
                new_theta = advance(spec, pop.state, pop.theta, pop.grad)
                ok = np.isfinite(pop.grad).all(axis=1) & np.isfinite(new_theta).all(axis=1)
                if ok.all():
                    pop.theta[...] = new_theta
                    pop.flips += pop.flipped()
                    continue
                pop.theta[ok] = new_theta[ok]
                pop.flips[ok] += pop.flipped()[ok]
                diverged[pop.rows[~ok]] = True
                x_epoch, t_epoch = x_epoch[ok], t_epoch[ok]
                retire(~ok)
                if pop.rows.size == 0:
                    break
            if pop.rows.size == 0:
                break
            train_loss, train_acc, val_acc = evaluate(pop.weights, pop.biases)
            bad = ~np.isfinite(train_loss)
            for row, loss, t_acc, v_acc, b in zip(
                pop.rows.tolist(), train_loss.tolist(), train_acc.tolist(), val_acc.tolist(), bad
            ):
                if not b:
                    metrics[row].append(EpochMetrics(epoch, t_acc, v_acc, loss))
            diverged[pop.rows[bad]] = True
            stop = bad | (pop.epochs == epoch)
            if stop.any():
                retire(stop)
        # A run that diverged before finishing its first epoch records the
        # model as of its last committed step.
        unfinished = [i for i, m in enumerate(metrics) if not m]
        if unfinished:
            train_loss, train_acc, val_acc = evaluate(*_views(final[unfinished], layer_sizes))
            for i, loss, t_acc, v_acc in zip(
                unfinished, train_loss.tolist(), train_acc.tolist(), val_acc.tolist()
            ):
                if not math.isfinite(loss):
                    loss, t_acc, v_acc = math.inf, 0.0, 0.0
                metrics[i] = [EpochMetrics(0, t_acc, v_acc, loss)]
    for model, theta in zip(models, final):
        model.flat[...] = theta
    return [
        TrainResult(metrics=m, sign_flips=int(f), diverged=bool(d), epochs_run=len(m))
        for m, f, d in zip(metrics, sign_flips, diverged)
    ]


def train(model: MLP, dataset: SyntheticDataset, config: TrainingConfig) -> TrainResult:
    """Mini-batch training of the model on the dataset's train split: the
    C = 1 case of train_population.

    Batch order is reshuffled every epoch from the config seed, so the
    whole run is reproducible.  If a step diverges, the run is truncated
    and flagged rather than raised.
    """
    return train_population([model], dataset, [config])[0]


@dataclass(frozen=True)
class ProtocolSettings:
    """Everything a randomized training run needs except the drawn values."""

    dataset_n: int = 400
    dataset_noise: float = 0.15
    dataset_seed: int = 0
    hidden: tuple[int, ...] = (16,)
    activation: str = "relu"
    batch_size: int = 32
    fan_mode: str = "product"

    @property
    def layer_sizes(self) -> list[int]:
        """Two input features, the hidden widths and two classes."""
        return [2, *self.hidden, 2]


def train_sampled_configs(
    settings: ProtocolSettings,
    optimizer: OptimizerSpec,
    n_configs: int,
    master_seed: int,
) -> tuple[list[TrainingConfig], list[TrainResult]]:
    """Run the randomized protocol: n_configs draws of (gain, epochs, seed),
    each trained from scratch with the given optimizer, all as one
    population."""
    configs = [
        replace(
            sample_training_config(master_seed, i, batch_size=settings.batch_size),
            optimizer=optimizer,
            fan_mode=settings.fan_mode,
        )
        for i in range(n_configs)
    ]
    dataset = make_dataset(settings.dataset_n, settings.dataset_noise, settings.dataset_seed)
    models = [
        MLP(
            settings.layer_sizes,
            activation=settings.activation,
            gain=c.gain,
            rng=np.random.default_rng(c.seed),
            fan_mode=c.fan_mode,
        )
        for c in configs
    ]
    return configs, train_population(models, dataset, configs)


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1, 0 for one value) of a
    protocol's per-run metric, summed in list order."""
    mean = sum(values) / len(values)
    if len(values) <= 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)
