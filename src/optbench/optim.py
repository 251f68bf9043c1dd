"""Composable gradient-descent optimizers.

An optimizer is assembled from three orthogonal pieces:

* a momentum rule that turns the gradient history into a step direction,
* an adaptive-rate rule that produces a per-coordinate rate multiplier,
* an update rule mapping (parameters, direction, rate multiplier) to the
  step that is subtracted from the parameters.

SGD, Adagrad, Adam, and RMSProp are particular choices of the first two
pieces.  The update rule is either the classical additive step, a
multiplicative step whose magnitude is proportional to the current
parameter magnitude (tanh-squashed, so it can never cross zero), or a
convex blend of the two.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

FAMILIES = ("sgd", "adagrad", "adam", "rmsprop")

DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.99
DEFAULT_EPS = 1e-8
# The accumulating rule divides by sqrt of the running sum of squared
# gradients, which is zero on the first step for any coordinate whose
# gradient is zero; a tiny guard keeps the multiplier finite.
ACCUMULATE_EPS = 1e-10

# Per-family step sizes for the additive rule.
DEFAULT_LR = {"sgd": 0.01, "adagrad": 0.01, "adam": 0.001, "rmsprop": 0.001}
# Per-family (lr_inner, lr_outer) pairs for the multiplicative and hybrid
# rules.  There is deliberately no "adam" entry: the blended rules ship
# defaults only for the three families they were calibrated on.
DEFAULT_MULTIPLICATIVE_RATES = {
    "sgd": (3.0, 0.3),
    "adagrad": (10.0, 0.02),
    "rmsprop": (0.4, 0.2),
}
DEFAULT_HYBRID_RATES = {
    "sgd": (6.0, 0.6),
    "adagrad": (8.0, 0.1),
    "rmsprop": (0.01, 0.1),
}
DEFAULT_MIX = 0.5


class InvalidDimensionError(ValueError):
    """Raised when a parameter dimension is not a positive integer."""


class DimensionMismatchError(ValueError):
    """Raised when parameter, direction, and rate vectors disagree in shape."""


class NonFiniteGradientError(ValueError):
    """Raised when a gradient contains NaN or infinity."""


class InvalidRateError(ValueError):
    """Raised when a rate constant is outside its admissible range."""


class DivergenceError(RuntimeError):
    """Raised when a step produces a non-finite parameter vector."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


def _interval(text: str):
    """Membership test for an interval written like "[0, 1)"; None and NaN
    are outside every interval."""
    lo, hi = (float(bound) for bound in text[1:-1].split(","))
    above = operator.le if text[0] == "[" else operator.lt
    below = operator.le if text[-1] == "]" else operator.lt
    return lambda x: x is not None and above(lo, x) and below(x, hi)


# The admissible values of every rule field.
_RANGES = {
    "beta1": "[0, 1)",
    "beta2": "[0, 1)",
    "eps": "(0, inf)",
    "lr": "[0, inf)",
    "lr_inner": "(0, inf)",
    "lr_outer": "(0, 1]",
    "mix": "[0, 1]",
}
_IN_RANGE = {name: _interval(text) for name, text in _RANGES.items()}


def _check_rate(name: str, value) -> None:
    if not _IN_RANGE[name](value):
        raise InvalidRateError(f"{name} must be in {_RANGES[name]}, got {value}")


class _Rule:
    """Validation shared by the three rule types.

    FIELDS maps each kind to the fields that kind carries, in the order
    they are written out.  It is the one statement of that fact: the
    config schema reads and writes these fields, the batched trial kernel
    stacks them and the tuner grids them.  A field outside its kind's
    entry is never read.
    """

    FIELDS: ClassVar[dict[str, tuple[str, ...]]]

    def __post_init__(self):
        if self.kind not in self.FIELDS:
            raise ValueError(f"unknown {type(self).__name__} kind {self.kind!r}")
        for name in self.FIELDS[self.kind]:
            _check_rate(name, getattr(self, name))


@dataclass(frozen=True)
class MomentumRule(_Rule):
    """Direction rule: 'identity' passes the raw gradient through, 'ema'
    keeps an exponential moving average with startup-bias correction."""

    FIELDS: ClassVar = {"identity": (), "ema": ("beta1",)}

    kind: str = "identity"
    beta1: float = DEFAULT_BETA1


@dataclass(frozen=True)
class AdaptiveRule(_Rule):
    """Rate-multiplier rule: 'identity' is all ones, 'accumulate' divides by
    the root of the gradient-square sum, 'ema' divides by the root of a
    bias-corrected gradient-square moving average."""

    FIELDS: ClassVar = {"identity": (), "accumulate": ("eps",), "ema": ("beta2", "eps")}

    kind: str = "identity"
    beta2: float = DEFAULT_BETA2
    eps: float = DEFAULT_EPS


@dataclass(frozen=True)
class UpdateRule(_Rule):
    """How the direction and rate multiplier become a parameter step.

    additive        needs lr;           step = lr * m * l
    multiplicative  needs lr_inner/out; step = |theta| * tanh(lr_inner*m*l) * lr_outer
    hybrid          needs all four;     step = mix * multiplicative + (1-mix) * additive

    A hybrid rule without a mix gets DEFAULT_MIX.
    """

    FIELDS: ClassVar = {
        "additive": ("lr",),
        "multiplicative": ("lr_inner", "lr_outer"),
        "hybrid": ("lr", "lr_inner", "lr_outer", "mix"),
    }

    kind: str
    lr: float | None = None
    lr_inner: float | None = None
    lr_outer: float | None = None
    mix: float | None = None

    def __post_init__(self):
        if self.mix is None and "mix" in self.FIELDS.get(self.kind, ()):
            object.__setattr__(self, "mix", DEFAULT_MIX)
        super().__post_init__()

    @cached_property
    def blend(self):
        """The hybrid rule's blend_weights(mix), worked out once per rule."""
        return blend_weights(self.mix)


MOMENTUM_KINDS = tuple(MomentumRule.FIELDS)
ADAPTIVE_KINDS = tuple(AdaptiveRule.FIELDS)
UPDATE_KINDS = tuple(UpdateRule.FIELDS)


@dataclass(frozen=True)
class OptimizerSpec:
    momentum: MomentumRule
    adaptive: AdaptiveRule
    update: UpdateRule


@dataclass
class OptimizerState:
    """Mutable per-parameter-vector buffers: step counter, direction EMA,
    and squared-gradient accumulator."""

    t: int
    m: np.ndarray
    v: np.ndarray


def init_state(dim: int) -> OptimizerState:
    """Fresh state for a parameter vector of the given dimension."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidDimensionError(f"dim must be a positive integer, got {dim!r}")
    return OptimizerState(t=0, m=np.zeros(dim), v=np.zeros(dim))


def make_spec(
    family: str,
    update: UpdateRule,
    *,
    beta1: float = DEFAULT_BETA1,
    beta2: float = DEFAULT_BETA2,
    eps: float = DEFAULT_EPS,
) -> OptimizerSpec:
    """Assemble the momentum/adaptive pair for a named optimizer family.

    rmsprop is adam with beta1 = 0: identical variance track, direction
    equal to the raw gradient.
    """
    if family == "sgd":
        mom, ada = MomentumRule("identity"), AdaptiveRule("identity")
    elif family == "adagrad":
        mom = MomentumRule("identity")
        ada = AdaptiveRule("accumulate", eps=ACCUMULATE_EPS)
    elif family == "adam":
        mom = MomentumRule("ema", beta1=beta1)
        ada = AdaptiveRule("ema", beta2=beta2, eps=eps)
    elif family == "rmsprop":
        mom = MomentumRule("ema", beta1=0.0)
        ada = AdaptiveRule("ema", beta2=beta2, eps=eps)
    else:
        raise ValueError(f"unknown optimizer family {family!r}")
    return OptimizerSpec(momentum=mom, adaptive=ada, update=update)


def default_update_rule(family: str, kind: str) -> UpdateRule:
    """Calibrated default rates for a family/update-rule combination."""
    if family not in FAMILIES:
        raise ValueError(f"unknown optimizer family {family!r}")
    if kind == "additive":
        return UpdateRule("additive", lr=DEFAULT_LR[family])
    if kind == "multiplicative":
        try:
            inner, outer = DEFAULT_MULTIPLICATIVE_RATES[family]
        except KeyError:
            raise ValueError(f"no default multiplicative rates for {family!r}") from None
        return UpdateRule("multiplicative", lr_inner=inner, lr_outer=outer)
    if kind == "hybrid":
        try:
            inner, outer = DEFAULT_HYBRID_RATES[family]
        except KeyError:
            raise ValueError(f"no default hybrid rates for {family!r}") from None
        return UpdateRule(
            "hybrid", lr=DEFAULT_LR[family], lr_inner=inner, lr_outer=outer, mix=DEFAULT_MIX
        )
    raise ValueError(f"unknown update kind {kind!r}")


def _check_finite_gradient(g: np.ndarray) -> None:
    finite = np.isfinite(g)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteGradientError(f"gradient has non-finite entry at coordinate {bad}")


def _check_same_shape(*arrays: np.ndarray) -> None:
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise DimensionMismatchError(f"mismatched shapes: {sorted(shapes)}")


def _check_started(state: OptimizerState) -> None:
    if state.t < 1:
        raise ValueError("state.t must be >= 1; increment the counter before the rules run")


# The underscored rule functions below are the unchecked math shared by the
# public checked functions, step() and the batched trial kernel in the
# harness.  They are elementwise, so every argument may be a single vector
# or an (N, dim) population; rates may be scalars or (N, 1) columns.  The
# update rules take ml = m * l, the product both formulas start from, so
# the hybrid rule forms it once.  Work is done in place on arrays a
# function allocated itself, in the order the formulas state: a product
# of two factors has the same bits in either order.

def _direction(rule: MomentumRule, state: OptimizerState, g: np.ndarray) -> np.ndarray:
    if rule.kind == "identity":
        return g
    state.m *= rule.beta1
    state.m += (1.0 - rule.beta1) * g
    return state.m / (1.0 - rule.beta1 ** state.t)


def _rate(rule: AdaptiveRule, state: OptimizerState, g: np.ndarray) -> np.ndarray | float:
    if rule.kind == "identity":
        return 1.0  # m * 1.0 == m bitwise, with no array to allocate
    if rule.kind == "accumulate":
        state.v += g * g
        root = np.sqrt(state.v)
    else:
        state.v *= rule.beta2
        gg = g * g
        gg *= 1.0 - rule.beta2
        state.v += gg
        root = state.v / (1.0 - rule.beta2 ** state.t)
        np.sqrt(root, out=root)
    root += rule.eps
    return np.divide(1.0, root, out=root)


def _additive(ml, lr):
    return lr * ml


def _multiplicative(theta, ml, lr_inner, lr_outer):
    step = np.tanh(lr_inner * ml)
    step *= np.abs(theta)
    step *= lr_outer
    return step


def blend_weights(mix):
    """What the hybrid rule needs of mix: (mix, mix == 0, mix == 1,
    1 - mix, whether any entry of mix is 0 or 1).

    A rule passed to apply_update carries these as .blend, so a
    population of per-row mix columns works them out once, not every step.
    """
    at_additive, at_multiplicative = mix == 0.0, mix == 1.0
    return mix, at_additive, at_multiplicative, 1.0 - mix, bool(np.any(at_additive | at_multiplicative))


def _hybrid(theta, ml, lr, lr_inner, lr_outer, blend):
    mix, at_additive, at_multiplicative, additive_weight, at_endpoint = blend
    add = _additive(ml, lr)
    mult = _multiplicative(theta, ml, lr_inner, lr_outer)
    step = mix * mult
    step += additive_weight * add
    if not at_endpoint:
        return step
    # The endpoints select the pure rules exactly; the blend alone would
    # not (0 * inf is nan).
    return np.where(at_additive, add, np.where(at_multiplicative, mult, step))


def momentum(rule: MomentumRule, state: OptimizerState, g: np.ndarray) -> np.ndarray:
    """Step direction for the current gradient; mutates state.m once for 'ema'.

    Requires state.t to already count this step (t >= 1), because the EMA
    startup-bias correction divides by 1 - beta1**t.
    """
    g = np.asarray(g, dtype=float)
    _check_started(state)
    _check_finite_gradient(g)
    return _direction(rule, state, g)


def adaptive_rate(rule: AdaptiveRule, state: OptimizerState, g: np.ndarray) -> np.ndarray:
    """Per-coordinate rate multiplier; mutates state.v once unless 'identity'."""
    g = np.asarray(g, dtype=float)
    _check_started(state)
    _check_finite_gradient(g)
    if rule.kind == "identity":
        return np.ones_like(g)
    return _rate(rule, state, g)


def additive_update(theta: np.ndarray, m: np.ndarray, l: np.ndarray, lr: float) -> np.ndarray:
    """Classical step lr * m * l (theta only participates in the shape check)."""
    theta, m, l = (np.asarray(a, dtype=float) for a in (theta, m, l))
    _check_same_shape(theta, m, l)
    _check_rate("lr", lr)
    return _additive(m * l, lr)


def multiplicative_update(
    theta: np.ndarray, m: np.ndarray, l: np.ndarray, lr_inner: float, lr_outer: float
) -> np.ndarray:
    """Magnitude-proportional step |theta| * tanh(lr_inner * m * l) * lr_outer.

    Because |tanh| <= 1 and lr_outer <= 1, every coordinate moves by at most
    lr_outer * |theta_i|, so a nonzero coordinate can never cross zero and a
    zero coordinate never moves.
    """
    theta, m, l = (np.asarray(a, dtype=float) for a in (theta, m, l))
    _check_same_shape(theta, m, l)
    for name, rate in (("lr_inner", lr_inner), ("lr_outer", lr_outer)):
        _check_rate(name, rate)
    return _multiplicative(theta, m * l, lr_inner, lr_outer)


def hybrid_update(
    theta: np.ndarray,
    m: np.ndarray,
    l: np.ndarray,
    lr: float,
    lr_inner: float,
    lr_outer: float,
    mix: float,
) -> np.ndarray:
    """Convex blend: mix * multiplicative + (1 - mix) * additive.

    The endpoints select the pure rules, so mix = 0 and mix = 1 reproduce
    them exactly.
    """
    theta, m, l = (np.asarray(a, dtype=float) for a in (theta, m, l))
    _check_same_shape(theta, m, l)
    for name, rate in (("lr", lr), ("lr_inner", lr_inner), ("lr_outer", lr_outer), ("mix", mix)):
        _check_rate(name, rate)
    return _hybrid(theta, m * l, lr, lr_inner, lr_outer, blend_weights(mix))


def apply_update(rule: UpdateRule, theta: np.ndarray, m: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Dispatch to the update math selected by rule.kind.

    The rates are read from the rule unchecked (an UpdateRule validates
    them on construction).  Any object with the kind's rate attributes
    (and, for a hybrid rule, blend) works, which lets the batched trial
    kernel pass per-row (N, 1) rate columns.
    """
    ml = m * l
    if rule.kind == "additive":
        return _additive(ml, rule.lr)
    if rule.kind == "multiplicative":
        return _multiplicative(theta, ml, rule.lr_inner, rule.lr_outer)
    return _hybrid(theta, ml, rule.lr, rule.lr_inner, rule.lr_outer, rule.blend)


def advance(spec: OptimizerSpec, state: OptimizerState, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unchecked core of step(): bump the counter, run both rules and
    return the new parameters, which may be non-finite.

    theta and g may be one parameter vector or an (N, dim) population
    whose rows share the step counter; spec.update may then carry (N, 1)
    rate columns (see apply_update).
    """
    state.t += 1
    m = _direction(spec.momentum, state, g)
    l = _rate(spec.adaptive, state, g)
    return theta - apply_update(spec.update, theta, m, l)


def step(
    spec: OptimizerSpec, state: OptimizerState, theta: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer step: bump the counter, run both rules, subtract the update.

    Returns the new parameter vector together with the (mutated) state.  A
    non-finite result raises DivergenceError carrying the step index; the
    gradient is checked before any buffer is touched, so a bad gradient
    leaves the state unchanged.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_same_shape(theta, g)
    _check_finite_gradient(g)
    # Overflow here is the signal we are about to report as DivergenceError,
    # so keep numpy from warning about it.
    with np.errstate(over="ignore", invalid="ignore"):
        new_theta = advance(spec, state, theta, g)
    if not np.isfinite(new_theta).all():
        raise DivergenceError(f"non-finite parameter after step {state.t}", iteration=state.t)
    return new_theta, state
