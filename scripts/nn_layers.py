"""Time the classifier's layers at the bundled train-toy shapes.

The bundled train-toy protocols train C = 10 networks of layer sizes
[2, 16, 2] with relu as one population, on the 320 training and 80
validation points of the 400-point two-moons set, in minibatches of 32,
with sgd and the hybrid update rule.  This script builds that population
from the protocol's own draws (master seed 2024) and timeits, in
microseconds per call:

  forward     nn._forward on one (10, 32, 2) minibatch;
  backward    nn._backward on that minibatch's activations;
  step        optim.Population.step on the minibatch's gradient, which
              backward writes into the population's gradient buffer;
  evaluate    one epoch's evaluation: the train loss, train accuracy and
              validation accuracy of all ten networks.

Each figure is the least mean of REPEAT timeit runs of NUMBER calls.
The first line records nproc, Python and numpy.

Usage: python3 scripts/nn_layers.py
"""
from __future__ import annotations

import os
import platform
import sys
import timeit
from dataclasses import replace

import numpy as np

from optbench import nn
from optbench.optim import Population, default_update_rule, make_spec

NUMBER = 2000  # calls per timeit run
REPEAT = 7  # timeit runs per layer


def layer_calls() -> dict:
    """One callable per timed layer, over the bundled protocol's population."""
    settings = nn.ProtocolSettings()
    spec = make_spec("sgd", default_update_rule("sgd", "hybrid"))
    configs = [replace(nn.sample_training_config(2024, i), optimizer=spec) for i in range(10)]
    dataset = nn.make_dataset(settings.dataset_n, settings.dataset_noise, settings.dataset_seed)
    sizes = settings.layer_sizes
    theta = np.stack(
        [nn.MLP(sizes, settings.activation, c.gain, np.random.default_rng(c.seed)).flat for c in configs]
    )
    pop = Population(spec, theta)
    weights, biases = nn._views(theta, sizes)
    grad_w, grad_b = nn._views(pop.grad, sizes)
    train = dataset.features[dataset.train_idx], dataset.labels[dataset.train_idx]
    val = dataset.features[dataset.val_idx], dataset.labels[dataset.val_idx]
    order = np.stack([np.random.default_rng(c.seed).permutation(len(train[1])) for c in configs])
    batch = order[:, : settings.batch_size]
    x, targets = train[0][batch], nn._one_hot(train[1], sizes[-1])[batch]
    inputs, logits = nn._forward(weights, biases, x, settings.activation)

    def backward():
        nn._backward(weights, inputs, logits, targets, settings.activation, grad_w, grad_b)

    backward()  # the step is timed on this minibatch's gradient
    return {
        "forward": lambda: nn._forward(weights, biases, x, settings.activation),
        "backward": backward,
        "step": pop.step,
        "evaluate": lambda: nn._evaluate(weights, biases, settings.activation, train, val),
    }


def main() -> int:
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    with np.errstate(over="ignore", invalid="ignore"):
        for name, call in layer_calls().items():
            best = min(timeit.repeat(call, number=NUMBER, repeat=REPEAT)) / NUMBER
            print(f"{name:10s} {best * 1e6:8.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
