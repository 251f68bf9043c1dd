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

step() moves one checked parameter vector.  A Population steps the rows
of the harness's trial kernel or of nn's classifier, tests them for
finiteness with one dot, and drops the rows that stop; each caller keeps
its own commit and stop rules.
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


class ConfigError(ValueError):
    """A refused value.  field_path is the dotted path of the field it
    names, relative to the object that raised it ("" for none), and the
    message is "<field_path>: <reason>"."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.field_path = path
        self.reason = reason


class InvalidRateError(ConfigError):
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


def check_rate(name: str, value) -> None:
    """Raise InvalidRateError unless value is admissible for the field name."""
    if not _IN_RANGE[name](value):
        raise InvalidRateError(name, f"must be in {_RANGES[name]}, got {value}")


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
            check_rate(name, getattr(self, name))


@dataclass(frozen=True)
class MomentumRule(_Rule):
    """Direction rule: 'identity' passes the raw gradient through, 'ema'
    keeps an exponential moving average with startup-bias correction."""

    FIELDS: ClassVar = {"identity": (), "ema": ("beta1",)}

    kind: str = "identity"
    beta1: float = DEFAULT_BETA1

    @cached_property
    def ema_weights(self):
        """(beta1, 1 - beta1), the EMA's weights of its old value and of g."""
        return self.beta1, 1.0 - self.beta1


@dataclass(frozen=True)
class AdaptiveRule(_Rule):
    """Rate-multiplier rule: 'identity' is all ones, 'accumulate' divides by
    the root of the gradient-square sum, 'ema' divides by the root of a
    bias-corrected gradient-square moving average."""

    FIELDS: ClassVar = {"identity": (), "accumulate": ("eps",), "ema": ("beta2", "eps")}

    kind: str = "identity"
    beta2: float = DEFAULT_BETA2
    eps: float = DEFAULT_EPS

    @cached_property
    def ema_weights(self):
        """(beta2, 1 - beta2), the EMA's weights of its old value and of g * g."""
        return self.beta2, 1.0 - self.beta2


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


UPDATE_KINDS = tuple(UpdateRule.FIELDS)
_DEFAULT_PAIRS = {"multiplicative": DEFAULT_MULTIPLICATIVE_RATES, "hybrid": DEFAULT_HYBRID_RATES}


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
    """Fresh state for a parameter vector of the given dimension, an
    integer >= 1; a bool is not one, a numpy integer is."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
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
    if kind not in UPDATE_KINDS:
        raise ValueError(f"unknown update kind {kind!r}")
    rates = {} if kind == "multiplicative" else {"lr": DEFAULT_LR[family]}
    if kind != "additive":
        pairs = _DEFAULT_PAIRS[kind]
        if family not in pairs:
            raise ValueError(f"no default {kind} rates for {family!r}")
        rates["lr_inner"], rates["lr_outer"] = pairs[family]
    return UpdateRule(kind, **rates)


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
# public checked functions, step() and Population.  They are elementwise,
# so every argument may be a single vector or an (N, dim) population;
# rates may be scalars or (N, dim) blocks of per-row rates, and each
# constant scalar a Python float or a 0-d array (see Population).  The
# update rules take ml = m * l, the product both formulas start from, so
# the hybrid rule forms it once.  Work is done in place on arrays a
# function allocated itself, in the order the formulas state: a product
# of two factors has the same bits in either order.

# The numerator of the adaptive rate's reciprocal, as a 0-d array for the
# reason _Bound gives.
_ONE = np.array(1.0)


def _direction(rule: MomentumRule, state: OptimizerState, g: np.ndarray) -> np.ndarray:
    if rule.kind == "identity":
        return g
    old, new = rule.ema_weights
    state.m *= old
    state.m += new * g
    return state.m / (1.0 - rule.beta1 ** state.t)


def _rate(rule: AdaptiveRule, state: OptimizerState, g: np.ndarray) -> np.ndarray | float:
    if rule.kind == "identity":
        return 1.0  # m * 1.0 == m bitwise, with no array to allocate
    if rule.kind == "accumulate":
        state.v += g * g
        root = np.sqrt(state.v)
    else:
        old, new = rule.ema_weights
        state.v *= old
        gg = g * g
        gg *= new
        state.v += gg
        root = state.v / (1.0 - rule.beta2 ** state.t)
        np.sqrt(root, out=root)
    root += rule.eps
    return np.divide(_ONE, root, out=root)


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
    population of per-row mix blocks works them out once, not every step.
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


def _checked_update(kind: str, theta, m, l, **rates) -> np.ndarray:
    """apply_update of UpdateRule(kind, **rates) once the arrays agree in
    shape.  A mix given as None is refused, where UpdateRule would give it
    the default."""
    theta, m, l = (np.asarray(a, dtype=float) for a in (theta, m, l))
    _check_same_shape(theta, m, l)
    rule = UpdateRule(kind, **rates)
    if "mix" in rates and rates["mix"] is None:
        check_rate("mix", None)
    return apply_update(rule, theta, m, l)


def additive_update(theta: np.ndarray, m: np.ndarray, l: np.ndarray, lr: float) -> np.ndarray:
    """Classical step lr * m * l (theta only participates in the shape check)."""
    return _checked_update("additive", theta, m, l, lr=lr)


def multiplicative_update(
    theta: np.ndarray, m: np.ndarray, l: np.ndarray, lr_inner: float, lr_outer: float
) -> np.ndarray:
    """Magnitude-proportional step |theta| * tanh(lr_inner * m * l) * lr_outer.

    Because |tanh| <= 1 and lr_outer <= 1, every coordinate moves by at most
    lr_outer * |theta_i|, so a nonzero coordinate can never cross zero and a
    zero coordinate never moves.
    """
    return _checked_update("multiplicative", theta, m, l, lr_inner=lr_inner, lr_outer=lr_outer)


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
    return _checked_update("hybrid", theta, m, l, lr=lr, lr_inner=lr_inner, lr_outer=lr_outer, mix=mix)


def apply_update(rule: UpdateRule, theta: np.ndarray, m: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Dispatch to the update math selected by rule.kind.

    The rates are read from the rule unchecked (an UpdateRule validates
    them on construction).  Any object with the kind's rate attributes
    (and, for a hybrid rule, blend) works, such as a population's bound
    rule with per-row rates as blocks of theta's (N, dim) shape (see
    Population).
    """
    # The identity adaptive rate is the scalar 1.0 and m * 1.0 == m, so ml
    # may be m itself (the caller's gradient): no rule writes into ml.
    ml = m if isinstance(l, float) and l == 1.0 else m * l
    if rule.kind == "additive":
        return _additive(ml, rule.lr)
    if rule.kind == "multiplicative":
        return _multiplicative(theta, ml, rule.lr_inner, rule.lr_outer)
    return _hybrid(theta, ml, rule.lr, rule.lr_inner, rule.lr_outer, rule.blend)


def advance(
    spec: OptimizerSpec, state: OptimizerState, theta: np.ndarray, g: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Unchecked core of step(): bump the counter, run both rules and
    return the new parameters, which may be non-finite, written into out
    when it is given (out may be theta itself: the update is worked out
    before theta is written).

    theta and g may be one parameter vector or an (N, dim) population
    whose rows share the step counter; spec may then be a population's
    bound spec, with (N, dim) rate blocks and 0-d constant scalars (see
    Population).
    """
    state.t += 1
    m = _direction(spec.momentum, state, g)
    l = _rate(spec.adaptive, state, g)
    return np.subtract(theta, apply_update(spec.update, theta, m, l), out=out)


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


def _rows(a: np.ndarray | tuple, live) -> np.ndarray | tuple:
    """The rows of a that live indexes: a leading slice gives a view, and
    an array of row indices gives one take (several times faster in numpy
    than indexing by a mask or by the index array).  A tuple of arrays
    gives the tuple of their rows."""
    if isinstance(a, tuple):
        return tuple(_rows(column, live) for column in a)
    return a[live] if isinstance(live, slice) else a.take(live, axis=0)


def _bind(value):
    """value with each float in it, alone or in a tuple, bound as a 0-d
    float64 array; any other value as it is."""
    if isinstance(value, float):
        return np.array(value)
    if isinstance(value, tuple):
        return tuple(_bind(item) for item in value)
    return value


class _Bound:
    """A rule as a Population's step reads it: the rule's own attributes,
    with each one that names lists bound once by _bind (an UpdateRule's
    rates and a RateColumns' shared values alike).  Those are the
    constant scalars the rule functions multiply or add by: numpy takes a
    0-d array operand about 0.2 us faster per call than a Python float, for
    the same bits.  The bias corrections, which depend on t, keep raising
    the rule's own floats."""

    def __init__(self, rule, names: tuple[str, ...]):
        self.__dict__.update(vars(rule))
        for name in names:
            setattr(self, name, _bind(getattr(rule, name)))


class RateColumns:
    """The update rates of a population: each of the kind's fields is an
    (N,) column of every row's own rate, or one value for every row.  A
    Population reads it the one way it reads an UpdateRule."""

    def __init__(self, kind: str, **rates):
        self.kind = kind
        self.__dict__.update(rates)

    @classmethod
    def stack(cls, kind: str, rules) -> RateColumns:
        """Every field of each rule as a column of its own."""
        names = UpdateRule.FIELDS[kind]
        rates = np.array([[getattr(rule, name) for name in names] for rule in rules], dtype=float)
        return cls(kind, **dict(zip(names, rates.T)))


# The bound of Population's finiteness test, far enough below overflow at
# 2**1024 that a row's squared distance from its origin stays finite too.
_STEP_LIMIT = 2.0**1000


class Population(OptimizerState):
    """Parameter rows stepped together by one spec: an OptimizerState whose
    (C, P) m and v rows share the step counter t, the (C, P) parameters
    theta, and the caller's per-row columns (arrays, or tuples of arrays)
    as attributes.  origin, when given, is a (C, P) column of the points
    the caller measures each row's distance from, kept as a column.

    spec.update, an UpdateRule or a RateColumns, is read one way: it is
    bound once (see _Bound), and each per-row rate is spread over the P
    entries of its rows, a (C, P) block that leaves with its row (numpy
    multiplies a (C, 1) column into a (C, P) array several times slower).
    A hybrid rule's blend weights are worked out from the bound mix, and
    again on keep when mix is a per-row rate.

    The population owns a (2, C, P) block: the caller writes each step's
    gradient into its first half, grad, and step() writes the new
    parameters into its second, so that one dot over the block tests the
    step.  The caller writes the steps it accepts to theta, by copying
    them, or by taking the returned array as theta, which later steps
    then update in place."""

    def __init__(self, spec: OptimizerSpec, theta: np.ndarray, origin: np.ndarray | None = None, **columns):
        super().__init__(t=0, m=np.zeros_like(theta), v=np.zeros_like(theta))
        fields = UpdateRule.FIELDS[spec.update.kind]
        update = _Bound(spec.update, fields)
        self._rates = tuple(name for name in fields if np.ndim(getattr(update, name)))
        for name in self._rates:
            setattr(update, name, np.repeat(getattr(update, name)[:, None], theta.shape[1], axis=1))
        if "mix" in fields:
            update.blend = _bind(blend_weights(update.mix))
        momentum, adaptive = _Bound(spec.momentum, ("ema_weights",)), _Bound(spec.adaptive, ("ema_weights", "eps"))
        self.spec, self.theta = OptimizerSpec(momentum, adaptive, update), theta
        if origin is not None:
            columns = {"origin": origin, **columns}
        self._per_row = ("theta", "m", "v", *columns)
        self.__dict__.update(columns)
        # Each row's |theta - origin|**2 is at most 2 |theta|**2 + 2 |origin|**2,
        # so while origin's squares sum below the bound, a step whose squares
        # sum below it has every distance finite; otherwise no step passes.
        with np.errstate(over="ignore"):
            squares = 0.0 if origin is None else np.dot(origin.ravel(), origin.ravel())
        self._limit = _STEP_LIMIT if squares < _STEP_LIMIT else 0.0
        self._new_block()

    def _new_block(self) -> None:
        block = np.empty((2, *self.theta.shape))
        self.grad, self._next = block
        self._flat = block.ravel()

    def step(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The parameters one step on from the gradient in grad, and None when
        one dot shows every row's gradient, parameters and distance from
        origin finite, else the exact mask of the rows whose gradient and
        parameters are finite.  The dot is a BLAS dot, whose bits choose only
        between None and the mask, so no output depends on them."""
        theta = advance(self.spec, self, self.theta, self.grad, out=self._next)
        # The dot sums the square of every entry of the gradient and of the
        # new parameters: a non-finite entry makes it inf or NaN, and NaN
        # compares False.
        if np.dot(self._flat, self._flat) < self._limit:
            return theta, None
        return theta, np.isfinite(self.grad).all(axis=1) & np.isfinite(theta).all(axis=1)

    def keep(self, live) -> None:
        """Keep only the rows that live indexes, in its order, in every
        per-row array: live is a leading slice, which leaves every array a
        view of the rows it had, a boolean mask of the leading rows (the
        rows past its end leave too), or an array of row indices, which may
        also reorder the rows; a mask or indices is one take per array.
        The rate blocks leave with their rows, and the block is made anew
        for the rows kept."""
        if not isinstance(live, slice) and live.dtype == bool:
            live = np.flatnonzero(live)
        for name in self._per_row:
            setattr(self, name, _rows(getattr(self, name), live))
        update = self.spec.update
        for name in self._rates:
            setattr(update, name, _rows(getattr(update, name), live))
        if "mix" in self._rates:
            update.blend = _bind(blend_weights(update.mix))
        self._new_block()
