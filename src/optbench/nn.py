"""A small dense classifier trained without any autograd framework.

The network is a plain multi-layer perceptron with relu or tanh hidden
activations and a softmax cross-entropy head.  Gradients come from a
hand-written backward pass (checked against finite differences in the
test suite).  All parameters of a network live in one flat vector and
every weight matrix and bias vector is a reshaped view of it, so a single
optimizer state drives all tensors with any update rule from the optim
module.  Same-shaped networks train together as an optim.Population: a
(C, P) buffer of C flat vectors, stepped by stacked forward and backward
passes and one optimizer call per minibatch.  A single model is the C = 1
case.

No reduction runs along the class axis of the logits: the softmax head,
the losses and the accuracies work on each class column as a whole
(C, n) array, because numpy's inner loop over a row's two classes costs
far more than their arithmetic.  The column forms give the same bits as
numpy's last-axis max, sum and argmax.  The logits bias is one broadcast
add, as every layer's is, and the batch sums of the bias gradients run
along the batch axis, in the order numpy gives them (see _backward).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .optim import (
    ConfigError,
    OptimizerSpec,
    Population,
    check_integer,
    check_number,
    check_range,
    check_seed,
    step,  # noqa: F401  (kept importable: bench/tracer.py wraps nn.step)
)

ACTIVATIONS = ("relu", "tanh")
# The denominator of xavier_init's variance for each fan mode.
FAN_MODES = {"product": operator.mul, "sum": operator.add}

# Biases start at a small nonzero constant instead of zero so that
# magnitude-proportional update rules are not pinned at their zero fixed
# point from the first step.
BIAS_INIT = 0.01

# The least dataset size, noise level and batch size a run admits.
MIN_SAMPLES = 4
MIN_NOISE = 0.0
MIN_BATCH_SIZE = 1
# The most work one protocol may do (see train_sampled_configs): networks x
# parameters per network x samples, each unit worth about 60 epochs; at the
# bound ten networks take about 10 s (width 2,500) to 28 s (width 16,
# 60,000 samples) on 2 vCPUs.  No protocol uses a size above it, so it
# bounds every size too: a dataset's n, a layer's width, fan_in and fan_out.
MAX_TRAIN_WORK = 5 * 10**7


def xavier_init(
    fan_in: int, fan_out: int, gain: float, rng: np.random.Generator, fan_mode: str = "product"
) -> np.ndarray:
    """Draw a (fan_in, fan_out) weight matrix from N(0, std^2) with
    std = gain * sqrt(2 / (fan_in * fan_out)).

    fan_mode='sum' switches the denominator to fan_in + fan_out, the more
    common normalization, for comparison runs.
    """
    fan_in = check_integer(fan_in, "fan_in", 1, MAX_TRAIN_WORK)
    fan_out = check_integer(fan_out, "fan_out", 1, MAX_TRAIN_WORK)
    check_range(check_number(gain, "gain"), "gain", lambda g: g > 0.0, "positive")
    if fan_mode not in FAN_MODES:
        raise ValueError(f"unknown fan_mode {fan_mode!r}")
    std = gain * math.sqrt(2.0 / FAN_MODES[fan_mode](fan_in, fan_out))
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
    e = _shifted(logits)
    for column in e:
        np.exp(column, out=column)
    total = functools.reduce(np.add, e)
    out = np.empty(logits.shape)
    for k, column in enumerate(e):
        np.divide(column, total, out=out[..., k])
    return out


def _class_labels(logits: np.ndarray, labels) -> np.ndarray:
    """labels as integer class indices, once they fit the (n, classes)
    logits: one label per row, each a class index in [0, classes), which
    an integral float also is; other labels raise ValueError."""
    labels = np.asarray(labels)
    n, classes = logits.shape
    if labels.shape != (n,):
        raise ConfigError("labels", f"must have shape ({n},) for {logits.shape} logits, got {labels.shape}")
    known = np.isin(labels, np.arange(classes))
    if not known.all():
        # tolist, not item: an integer past int64 makes an object column.
        bad = labels.tolist()[np.argmin(known)]
        raise ConfigError("labels", f"must be class indices in [0, {classes}), got {bad!r}")
    return labels.astype(np.intp)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of (n, classes) logits against n labels,
    each a class index in [0, classes); other labels raise ValueError."""
    return float(_losses(logits[None], _class_labels(logits, labels))[0])


def _losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of each network of (C, n, classes) logits;
    cross_entropy is the C = 1 case.

    The labelled log-probabilities are the labelled shifted logits minus
    the log-sum-exp, so that large logits cannot overflow.  They form one
    C-contiguous (C, n) array, so each row's mean sums in the pairwise
    order of a 1-D mean over that network's labelled log-probabilities
    alone."""
    shifted = _shifted(logits)
    log_total = np.log(functools.reduce(np.add, [np.exp(s) for s in shifted]))
    picked = shifted[0]
    for k, column in enumerate(shifted[1:], 1):
        picked = np.where(labels == k, column, picked)
    picked -= log_total
    # The bits of -picked.mean(axis=-1), without mean's wrapper.
    return -(picked.sum(axis=-1) / labels.shape[-1])


def _accuracies(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Share of each network's rows whose argmax is the label."""
    best = logits[..., 0]
    predicted = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, logits.shape[-1]):
        column = logits[..., k]
        # Not better where best is NaN; better where only column is.
        better = ~((column <= best) | np.isnan(best))
        np.putmask(predicted, better, k)
        best = np.where(better, column, best)
    # An exact count over n: the bits of the bool mean.
    return (predicted == labels).sum(axis=-1) / labels.shape[-1]


# The stacked passes below run C networks at once.  Weights are
# (C, n_in, n_out) and biases (C, 1, n_out); activations are (C, batch,
# width).  Stacked matmul runs the same gemm on each network's slice as a
# 2-D product, so every network gets the bits it would get alone; writing
# it through out= keeps those bits.  Only the head reduces over the class
# axis, through its column folds, and the minibatch targets are one-hot
# rows so the backward pass subtracts them instead of indexing by label.

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
    one-hot targets into the grad_w/grad_b views; inputs and logits are
    only read."""
    delta = softmax(logits)
    delta -= targets
    delta /= targets.shape[1]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(inputs[i].swapaxes(1, 2), delta, out=grad_w[i])
        # numpy adds the batch rows left to right for widths of 2 and up,
        # and pairwise for width 1; tests pin both orders.
        np.add.reduce(delta, axis=1, keepdims=True, out=grad_b[i])
        if i > 0:
            delta = delta @ weights[i].swapaxes(1, 2)
            if activation == "relu":
                # relu(z) > 0 exactly where z > 0, also for -0.0 and NaN.
                delta *= inputs[i] > 0.0
            else:
                delta *= 1.0 - inputs[i] ** 2


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
        layer_sizes = [
            check_integer(size, f"layer_sizes[{i}]", 1, MAX_TRAIN_WORK) for i, size in enumerate(layer_sizes)
        ]
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = np.random.default_rng(0) if rng is None else rng
        self.layer_sizes = layer_sizes
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

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Return (logits, cache) for a (batch, n_in) input.  The cache is
        the stacked pass's (inputs, logits) of this one network, which
        backward takes as it is."""
        a = np.asarray(x, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected (batch, {self.layer_sizes[0]}) input, got {a.shape}")
        cache = _forward(*self._stacked, a[None], self.activation)
        return cache[1][0], cache

    def backward(self, cache: tuple, labels: np.ndarray) -> list[np.ndarray]:
        """Mean cross-entropy gradients for every tensor, in parameters() order."""
        inputs, logits = cache
        if len(inputs) != len(self.weights):
            raise ValueError("cache does not match this model")
        labels = _class_labels(logits[0], labels)
        grad_w, grad_b = _views(np.empty((1, self.flat.size)), self.layer_sizes)
        targets = _one_hot(labels, self.layer_sizes[-1])[None]
        _backward(self._stacked[0], inputs, logits, targets, self.activation, grad_w, grad_b)
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


def make_dataset(n: int = 400, noise: float = 0.15, seed: int = 0) -> SyntheticDataset:
    """Generate the two-moons classification set, deterministically per seed."""
    n, noise = check_integer(n, "n", MIN_SAMPLES, MAX_TRAIN_WORK), check_number(noise, "noise", lo=MIN_NOISE)
    seed = check_seed(seed, "seed")
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

    def __post_init__(self):
        check_range(check_number(self.gain, "gain"), "gain", lambda g: g > 0.0, "positive")
        check_integer(self.epochs, "epochs", lo=1)
        check_integer(self.batch_size, "batch_size", lo=MIN_BATCH_SIZE)
        check_seed(self.seed, "seed")


def sample_training_config(seed: int, index: int, batch_size: int = 32) -> TrainingConfig:
    """Draw one training configuration, deterministically per (seed, index).

    gain ~ Gamma(shape 1, scale 2.5), redrawn while below 1e-3 so the
    network never starts effectively all-zero; epochs ~ Normal(60, 10)
    rounded and clamped to at least 1.  The optimizer slot is left for the
    caller so the same (gain, epochs, seed) triple can be reused across
    update rules for paired comparisons.
    """
    rng = np.random.default_rng([check_seed(seed, "seed"), check_seed(index, "index")])
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
        epoch = check_integer(epoch, "epoch", lo=1)
        return self.metrics[min(epoch, len(self.metrics)) - 1]


def _evaluate(
    weights: list[np.ndarray], biases: list[np.ndarray], activation: str, train: tuple, val: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train loss, train accuracy and validation accuracy of each network
    on the (features, labels) of the train and validation splits."""
    (x, y), (x_val, y_val) = train, val
    logits = _forward(weights, biases, x, activation)[1]
    val_logits = _forward(weights, biases, x_val, activation)[1]
    return _losses(logits, y), _accuracies(logits, y), _accuracies(val_logits, y_val)


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
    does when an end-of-epoch train loss is non-finite.  Each row's result
    and final parameters are made once, when the row leaves: its model
    then holds its last committed parameters.
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
    train = dataset.features[dataset.train_idx], dataset.labels[dataset.train_idx]
    val = dataset.features[dataset.val_idx], dataset.labels[dataset.val_idx]
    x_train, y_train = train
    targets = _one_hot(y_train, layer_sizes[-1])
    n_train = len(y_train)
    theta = np.stack([m.flat for m in models])
    pop = Population(
        spec,
        theta,
        rows=np.arange(len(models)),  # index of each live row in the caller's list
        epochs=np.array([config.epochs for config in configs]),
        rngs=np.array([np.random.default_rng(config.seed) for config in configs], dtype=object),
        # A finite coordinate has flipped when theta * watch <= 0: watch is
        # its initial sign, NaN where that is zero, which never counts.
        watch=np.where(theta == 0.0, np.nan, np.sign(theta)),
        flips=np.zeros(len(models), dtype=int),
    )
    metrics: list[list[EpochMetrics]] = [[] for _ in models]
    results: list[TrainResult] = [None] * len(models)

    def buffers():
        """The layer views of theta and of the population's gradient, and
        the epoch order block of the live rows."""
        order = np.empty((len(pop.grad), n_train), dtype=np.intp)
        return (*_views(pop.theta, layer_sizes), *_views(pop.grad, layer_sizes), order)

    def retire(stop: np.ndarray, diverged: np.ndarray):
        """Make the result of each row where stop is True, flagged as
        diverged says, write its model and drop it; buffers() of the rest.
        A row that leaves before it has a record gets one at epoch 0, of
        its parameters as they are."""
        rows, flats = pop.rows[stop].tolist(), pop.theta[stop]
        fresh = [i for i, row in enumerate(rows) if not metrics[row]]
        if fresh:
            scores = _evaluate(*_views(flats[fresh], layer_sizes), activation, train, val)
            for i, loss, t_acc, v_acc in zip(fresh, *(score.tolist() for score in scores)):
                if not math.isfinite(loss):
                    loss, t_acc, v_acc = math.inf, 0.0, 0.0
                metrics[rows[i]].append(EpochMetrics(0, t_acc, v_acc, loss))
        for row, flat, flips, flag in zip(rows, flats, pop.flips[stop].tolist(), diverged[stop].tolist()):
            models[row].flat[...] = flat
            results[row] = TrainResult(metrics[row], flips, flag, len(metrics[row]))
        pop.keep(~stop)
        return buffers()

    weights, biases, grad_w, grad_b, order = buffers()
    positions = np.arange(n_train)
    with np.errstate(over="ignore", invalid="ignore"):
        epoch = 0
        while pop.rows.size:
            epoch += 1
            # Each row shuffles its own arange, the bits of permutation(n);
            # one gather per epoch, and each minibatch is a slice of it.
            order[...] = positions
            for rng, row in zip(pop.rngs, order):
                rng.shuffle(row)
            x_epoch, t_epoch = np.take(x_train, order, axis=0), np.take(targets, order, axis=0)
            for start in range(0, n_train, batch_size):
                batch = slice(start, start + batch_size)
                inputs, logits = _forward(weights, biases, x_epoch[:, batch], activation)
                _backward(weights, inputs, logits, t_epoch[:, batch], activation, grad_w, grad_b)
                new_theta, ok = pop.step()
                if ok is not None and not ok.all():
                    weights, biases, grad_w, grad_b, order = retire(~ok, ~ok)
                    if pop.rows.size == 0:
                        break
                    new_theta, x_epoch, t_epoch = new_theta[ok], x_epoch[ok], t_epoch[ok]
                pop.theta[...] = new_theta
                pop.flips += (pop.theta * pop.watch <= 0.0).sum(axis=1)
            if pop.rows.size == 0:
                break
            train_loss, train_acc, val_acc = _evaluate(weights, biases, activation, train, val)
            bad = ~np.isfinite(train_loss)
            for row, loss, t_acc, v_acc, b in zip(
                pop.rows.tolist(), train_loss.tolist(), train_acc.tolist(), val_acc.tolist(), bad
            ):
                if not b:
                    metrics[row].append(EpochMetrics(epoch, t_acc, v_acc, loss))
            stop = bad | (pop.epochs == epoch)
            if stop.any():
                weights, biases, grad_w, grad_b, order = retire(stop, bad)
    return results


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


def _check_work(settings: ProtocolSettings, n_configs: int) -> None:
    """Refuse n_configs networks of settings, n_configs x parameters per
    network x samples, past MAX_TRAIN_WORK, naming n_configs."""
    params, samples = param_count(settings.layer_sizes), settings.dataset_n
    work = n_configs * params * samples
    if work > MAX_TRAIN_WORK:
        raise ConfigError(
            "n_configs",
            f"{n_configs} networks x {params} parameters x {samples} samples = {work}"
            f" is more than MAX_TRAIN_WORK = {MAX_TRAIN_WORK}",
        )


def train_sampled_configs(
    settings: ProtocolSettings,
    optimizer: OptimizerSpec,
    n_configs: int,
    master_seed: int,
) -> tuple[list[TrainingConfig], list[TrainResult]]:
    """Run the randomized protocol: n_configs draws of (gain, epochs, seed),
    each trained from scratch with the given optimizer, all as one
    population.  Work past MAX_TRAIN_WORK is refused before any draw."""
    _check_work(settings, check_integer(n_configs, "n_configs", lo=1))
    master_seed = check_seed(master_seed, "master_seed")
    configs = [
        replace(sample_training_config(master_seed, i, batch_size=settings.batch_size), optimizer=optimizer)
        for i in range(n_configs)
    ]
    dataset = make_dataset(settings.dataset_n, settings.dataset_noise, settings.dataset_seed)
    models = [
        MLP(
            settings.layer_sizes,
            activation=settings.activation,
            gain=c.gain,
            rng=np.random.default_rng(c.seed),
            fan_mode=settings.fan_mode,
        )
        for c in configs
    ]
    return configs, train_population(models, dataset, configs)


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1, 0 for one value) of a
    protocol's per-run metric, summed in list order."""
    if not values:
        raise ValueError("mean_std needs at least one value")
    values = [check_number(value, f"values[{i}]") for i, value in enumerate(values)]
    mean = sum(values) / len(values)
    if len(values) <= 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)
