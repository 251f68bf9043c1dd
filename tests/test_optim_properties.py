"""Randomized properties of the update rules.

The magnitude-proportional rule promises two exact guarantees: no step
moves a coordinate by more than lr_outer times its current magnitude, and
no nonzero coordinate ever changes sign.  Both are checked over a large
randomized sample (well past the 10,000-step mark) plus a hypothesis
sweep of awkward rate values.  Every rule is also odd: a population
stepped from mirrored parameters with mirrored gradients lands on the
mirror of the original's parameters.  Every rule also rescales: a
population stepped from c times the parameters with c times the
gradients, under rates that undo c where the family needs it, lands on c
times the original's parameters.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from optbench.optim import (
    FAMILIES,
    UPDATE_KINDS,
    InvalidRateError,
    OptimizerSpec,
    Population,
    RateColumns,
    UpdateRule,
    additive_update,
    hybrid_update,
    make_spec,
    multiplicative_update,
)

N_RANDOM_STEPS = 10_000


def _random_inputs(rng, dim=4):
    theta = rng.uniform(-10.0, 10.0, dim)
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    m = rng.normal(0.0, scale, dim)
    l = rng.normal(0.0, 1.0, dim)
    lr_inner = 10.0 ** rng.uniform(-3.0, 3.0)
    lr_outer = 1.0 - rng.uniform(0.0, 1.0)  # in (0, 1]
    return theta, m, l, lr_inner, lr_outer


def test_sign_preservation_and_update_bound_over_many_steps():
    rng = np.random.default_rng(2024)
    for _ in range(N_RANDOM_STEPS):
        theta, m, l, lr_inner, lr_outer = _random_inputs(rng)
        delta = multiplicative_update(theta, m, l, lr_inner, lr_outer)
        assert np.all(np.abs(delta) <= lr_outer * np.abs(theta))
        new_theta = theta - delta
        nonzero = theta != 0.0
        assert np.all(np.sign(new_theta[nonzero]) == np.sign(theta[nonzero]))


def test_zero_coordinates_never_move():
    theta = np.array([0.0, -3.0, 0.0, 7.0])
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = rng.normal(0.0, 100.0, 4)
        l = rng.normal(0.0, 100.0, 4)
        delta = multiplicative_update(theta, m, l, 5.0, 1.0)
        assert delta[0] == 0.0 and delta[2] == 0.0


def test_hybrid_endpoints_reduce_to_pure_rules():
    rng = np.random.default_rng(11)
    for _ in range(1_000):
        theta, m, l, lr_inner, lr_outer = _random_inputs(rng)
        lr = 10.0 ** rng.uniform(-4.0, 1.0)
        as_additive = hybrid_update(theta, m, l, lr, lr_inner, lr_outer, mix=0.0)
        as_mult = hybrid_update(theta, m, l, lr, lr_inner, lr_outer, mix=1.0)
        assert np.array_equal(as_additive, additive_update(theta, m, l, lr))
        assert np.array_equal(as_mult, multiplicative_update(theta, m, l, lr_inner, lr_outer))


def test_hybrid_is_exact_convex_combination():
    rng = np.random.default_rng(13)
    for _ in range(1_000):
        theta, m, l, lr_inner, lr_outer = _random_inputs(rng)
        lr = 10.0 ** rng.uniform(-4.0, 1.0)
        mix = rng.uniform(0.0, 1.0)
        blended = hybrid_update(theta, m, l, lr, lr_inner, lr_outer, mix)
        mult = multiplicative_update(theta, m, l, lr_inner, lr_outer)
        add = additive_update(theta, m, l, lr)
        assert np.array_equal(blended, mix * mult + (1.0 - mix) * add)


def test_hybrid_step_magnitude_bound():
    # |delta| <= mix * lr_outer * |theta| + (1 - mix) * lr * |m * l|,
    # up to a couple of rounding units from the final additions.
    rng = np.random.default_rng(17)
    for _ in range(2_000):
        theta, m, l, lr_inner, lr_outer = _random_inputs(rng)
        lr = 10.0 ** rng.uniform(-4.0, 1.0)
        mix = rng.uniform(0.0, 1.0)
        delta = hybrid_update(theta, m, l, lr, lr_inner, lr_outer, mix)
        bound = mix * lr_outer * np.abs(theta) + (1.0 - mix) * lr * np.abs(m * l)
        assert np.all(np.abs(delta) <= bound * (1.0 + 1e-12) + 1e-300)


@given(
    theta=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    m=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    l=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    lr_inner=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    lr_outer=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
)
def test_multiplicative_bound_holds_for_adversarial_rates(theta, m, l, lr_inner, lr_outer):
    arr = np.array([theta])
    delta = multiplicative_update(arr, np.array([m]), np.array([l]), lr_inner, lr_outer)
    assert abs(delta[0]) <= lr_outer * abs(theta)
    # Never crosses zero.  At lr_outer exactly 1 with a saturated tanh the
    # coordinate may land exactly on zero, which is still within the bound.
    moved = theta - delta[0]
    if theta > 0.0:
        assert moved >= 0.0
    elif theta < 0.0:
        assert moved <= 0.0


@given(lr_outer=st.floats(min_value=1.0000000001, max_value=100.0))
def test_outer_rate_above_one_always_rejected(lr_outer):
    with pytest.raises(InvalidRateError):
        multiplicative_update(np.ones(1), np.ones(1), np.ones(1), 1.0, lr_outer)


def _random_rule(rng, kind):
    """An UpdateRule of kind with log-uniform rates; lr_outer is often 1,
    which can cancel a coordinate exactly, and mix often an endpoint."""
    rates = {
        "lr": 10.0 ** rng.uniform(-4.0, 1.0),
        "lr_inner": 10.0 ** rng.uniform(-3.0, 3.0),
        "lr_outer": 1.0 if rng.random() < 0.3 else 1.0 - rng.uniform(0.0, 1.0),
        "mix": rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]),
    }
    return UpdateRule(kind, **{name: rates[name] for name in UpdateRule.FIELDS[kind]})


# No shrink phase, as for the harness's drawn populations.
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", UPDATE_KINDS)
@pytest.mark.parametrize("per_row", [False, True])
@settings(max_examples=8, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    rows=st.integers(1, 33), width=st.integers(1, 82), steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1)
)
def test_population_step_of_mirrored_rows_gives_the_mirrored_rows(family, kind, per_row, rows, width, steps, seed):
    """Stepping (-theta, -g) gives -theta' for every rule.  Compared with
    array_equal: where lr_outer = 1 cancels a coordinate, x - x is +0.0
    on both sides."""
    rng = np.random.default_rng(seed)
    rules = [_random_rule(rng, kind) for _ in range(rows if per_row else 1)]
    update = RateColumns.stack(kind, rules) if per_row else rules[0]
    betas = rng.uniform(0.0, 0.99, 2)
    spec = make_spec(family, update, beta1=betas[0], beta2=betas[1], eps=10.0 ** rng.uniform(-10.0, 0.0))
    theta = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), (rows, width))
    theta[rng.random((rows, width)) < 0.1] = 0.0
    pop, mirror = Population(spec, theta), Population(spec, -theta)
    for _ in range(steps):
        g = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), (rows, width))
        pop.grad[...], mirror.grad[...] = g, -g
        (pop.theta, ok), (mirror.theta, mirror_ok) = pop.step(), mirror.step()
        assert ok is None and mirror_ok is None
        assert np.array_equal(mirror.theta, -pop.theta)
        assert np.array_equal(mirror.m, -pop.m) and mirror.v.tobytes() == pop.v.tobytes()


def _rescaled(spec, rules, c):
    """spec, with rules as its update rates, run on c times the parameters
    and gradients: sgd's direction grows by c, so lr_inner shrinks by c;
    an adaptive family's direction times rate does not, so lr and eps
    grow by c."""
    sgd = spec.adaptive.kind == "identity"
    name, factor = ("lr_inner", 1.0 / c) if sgd else ("lr", c)
    rules = [replace(r, **{name: getattr(r, name) * factor}) if name in r.FIELDS[r.kind] else r for r in rules]
    adaptive = spec.adaptive if sgd else replace(spec.adaptive, eps=spec.adaptive.eps * c)
    update = RateColumns.stack(rules[0].kind, rules) if isinstance(spec.update, RateColumns) else rules[0]
    return OptimizerSpec(spec.momentum, adaptive, update)


# No shrink phase, as for the mirror test above.
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", UPDATE_KINDS)
@pytest.mark.parametrize("per_row", [False, True])
@settings(max_examples=8, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    rows=st.integers(1, 33),
    width=st.integers(1, 82),
    steps=st.integers(1, 4),
    c=st.sampled_from([2.0, 2.0**-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_population_step_of_rescaled_rows_gives_the_rescaled_rows(family, kind, per_row, rows, width, steps, c, seed):
    """Population(spec_c, c * theta) stepped on c * g is c times the original
    step, bit for bit, and so are the direction and, squared, the
    variance track.  theta and g lie on a grid of sixteenths and c is a
    power of two, so every scaling is exact."""
    rng = np.random.default_rng(seed)
    rules = [_random_rule(rng, kind) for _ in range(rows if per_row else 1)]
    betas = rng.uniform(0.0, 0.99, 2)
    update = RateColumns.stack(kind, rules) if per_row else rules[0]
    spec = make_spec(family, update, beta1=betas[0], beta2=betas[1], eps=10.0 ** rng.uniform(-10.0, 0.0))
    theta = rng.integers(-160, 161, (rows, width)) / 16.0
    pop, scaled = Population(spec, theta), Population(_rescaled(spec, rules, c), c * theta)
    for _ in range(steps):
        g = rng.integers(-160, 161, (rows, width)) / 16.0
        pop.grad[...], scaled.grad[...] = g, c * g
        (pop.theta, ok), (scaled.theta, scaled_ok) = pop.step(), scaled.step()
        assert ok is None and scaled_ok is None
        assert scaled.theta.tobytes() == (c * pop.theta).tobytes()
        assert scaled.m.tobytes() == (c * pop.m).tobytes()
        assert scaled.v.tobytes() == (c * c * pop.v).tobytes()
