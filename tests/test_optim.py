import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optbench.optim import (
    ACCUMULATE_EPS,
    DEFAULT_HYBRID_RATES,
    DEFAULT_LR,
    DEFAULT_MULTIPLICATIVE_RATES,
    AdaptiveRule,
    DimensionMismatchError,
    DivergenceError,
    InvalidDimensionError,
    InvalidRateError,
    MomentumRule,
    NonFiniteGradientError,
    OptimizerSpec,
    Population,
    RateColumns,
    UpdateRule,
    adaptive_rate,
    additive_update,
    blend_weights,
    default_update_rule,
    hybrid_update,
    init_state,
    make_spec,
    momentum,
    multiplicative_update,
    step,
)


# ---------------------------------------------------------------- state

def test_init_state_zeroed():
    state = init_state(2)
    assert state.t == 0
    assert np.array_equal(state.m, [0.0, 0.0])
    assert np.array_equal(state.v, [0.0, 0.0])
    assert np.array_equal(init_state(1).m, [0.0])
    assert np.array_equal(init_state(np.int64(3)).v, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("dim", [0, -1, 2.5, "3", True])
def test_init_state_rejects_bad_dim(dim):
    with pytest.raises(InvalidDimensionError):
        init_state(dim)


# ------------------------------------------------------------- momentum

def test_identity_momentum_passes_gradient_through():
    state = init_state(2)
    state.t = 1
    g = np.array([3.5, -2.0])
    assert np.array_equal(momentum(MomentumRule("identity"), state, g), g)
    # identity consumes no state
    assert np.array_equal(state.m, [0.0, 0.0])


def test_ema_momentum_first_step_bias_corrected():
    rule = MomentumRule("ema", beta1=0.9)
    state = init_state(1)
    state.t = 1
    m = momentum(rule, state, np.array([1.0]))
    assert_allclose(state.m, [0.1], rtol=1e-12)
    assert_allclose(m, [1.0], rtol=1e-12)


def test_ema_momentum_second_step():
    rule = MomentumRule("ema", beta1=0.9)
    state = init_state(1)
    state.t = 1
    momentum(rule, state, np.array([1.0]))
    state.t = 2
    m = momentum(rule, state, np.array([1.0]))
    assert_allclose(state.m, [0.19], rtol=1e-12)
    assert_allclose(m, [1.0], rtol=1e-12)  # raw 0.19 / (1 - 0.81)


def test_momentum_requires_started_counter():
    state = init_state(1)
    with pytest.raises(ValueError):
        momentum(MomentumRule("ema"), state, np.array([1.0]))


def test_momentum_rejects_non_finite_gradient():
    state = init_state(2)
    state.t = 1
    with pytest.raises(NonFiniteGradientError, match="coordinate 1"):
        momentum(MomentumRule("identity"), state, np.array([1.0, np.nan]))


@pytest.mark.parametrize("beta1", [-0.1, 1.0, 1.5])
def test_momentum_rule_beta1_range(beta1):
    with pytest.raises(InvalidRateError):
        MomentumRule("ema", beta1=beta1)


def test_momentum_rule_unknown_kind():
    with pytest.raises(ValueError):
        MomentumRule("nesterov")


# -------------------------------------------------------- adaptive rate

def test_identity_adaptive_is_all_ones():
    state = init_state(2)
    state.t = 1
    l = adaptive_rate(AdaptiveRule("identity"), state, np.array([7.0, 7.0]))
    assert np.array_equal(l, [1.0, 1.0])


def test_ema_adaptive_first_step():
    rule = AdaptiveRule("ema", beta2=0.99, eps=1e-8)
    state = init_state(1)
    state.t = 1
    l = adaptive_rate(rule, state, np.array([1.0]))
    assert_allclose(state.v, [0.01], rtol=1e-12)
    assert_allclose(l, [1.0 / (1.0 + 1e-8)], rtol=1e-12)


def test_accumulate_adaptive_sums_squares():
    rule = AdaptiveRule("accumulate", eps=ACCUMULATE_EPS)
    state = init_state(1)
    state.t = 1
    adaptive_rate(rule, state, np.array([3.0]))
    state.t = 2
    l = adaptive_rate(rule, state, np.array([4.0]))
    assert_allclose(state.v, [25.0], rtol=1e-12)
    assert_allclose(l, [1.0 / (5.0 + 1e-10)], rtol=1e-12)


def test_accumulate_never_decreases():
    rule = AdaptiveRule("accumulate")
    state = init_state(3)
    rng = np.random.default_rng(5)
    prev = state.v.copy()
    for t in range(1, 30):
        state.t = t
        adaptive_rate(rule, state, rng.normal(size=3))
        assert np.all(state.v >= prev)
        prev = state.v.copy()


def test_adaptive_rule_validation():
    with pytest.raises(InvalidRateError):
        AdaptiveRule("ema", beta2=1.0)
    with pytest.raises(InvalidRateError):
        AdaptiveRule("ema", eps=0.0)
    with pytest.raises(ValueError):
        AdaptiveRule("rprop")


# -------------------------------------------------------- update rules

def test_additive_update_is_rate_times_product():
    delta = additive_update(np.zeros(1), np.array([2.0]), np.array([1.0]), 0.1)
    assert_allclose(delta, [0.2], rtol=1e-12)


def test_additive_update_zero_direction_is_fixed_point():
    delta = additive_update(np.ones(2), np.zeros(2), np.array([5.0, 0.3]), 12.0)
    assert np.array_equal(delta, [0.0, 0.0])


def test_additive_update_hand_composed_step():
    # one bias-corrected EMA step at its defaults feeds m=1, l=1/(1+eps)
    delta = additive_update(np.ones(1), np.array([1.0]), np.array([0.99999999]), 0.001)
    assert_allclose(delta, [9.9999999e-4], rtol=1e-9)


def test_additive_update_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        additive_update(np.zeros(2), np.zeros(3), np.zeros(2), 0.1)


def test_additive_update_negative_lr_rejected():
    with pytest.raises(InvalidRateError):
        additive_update(np.zeros(1), np.zeros(1), np.zeros(1), -0.1)


def test_multiplicative_zero_parameter_is_fixed_point():
    delta = multiplicative_update(np.array([0.0]), np.array([5.0]), np.array([1.0]), 2.0, 0.9)
    assert np.array_equal(delta, [0.0])


def test_multiplicative_saturates_at_outer_fraction():
    delta = multiplicative_update(np.array([2.0]), np.array([100.0]), np.array([1.0]), 1.0, 0.3)
    assert delta[0] == pytest.approx(0.6, rel=1e-15)  # tanh(100) == 1.0 in float64


def test_multiplicative_uses_magnitude_of_parameter():
    delta = multiplicative_update(np.array([-2.0]), np.array([0.5]), np.array([1.0]), 1.0, 0.5)
    assert_allclose(delta, [2.0 * math.tanh(0.5) * 0.5], rtol=1e-12)
    assert delta[0] > 0.0  # direction comes from m, not from theta's sign


@pytest.mark.parametrize("outer", [0.0, -0.2, 1.0001, 2.0])
def test_multiplicative_outer_rate_range(outer):
    with pytest.raises(InvalidRateError):
        multiplicative_update(np.ones(1), np.ones(1), np.ones(1), 1.0, outer)


def test_multiplicative_inner_rate_must_be_positive():
    with pytest.raises(InvalidRateError):
        multiplicative_update(np.ones(1), np.ones(1), np.ones(1), 0.0, 0.5)


def test_hybrid_midpoint_blends_both_rules():
    delta = hybrid_update(
        np.array([2.0]), np.array([0.5]), np.array([1.0]),
        lr=0.1, lr_inner=1.0, lr_outer=0.5, mix=0.5,
    )
    expected = 0.5 * (2.0 * math.tanh(0.5) * 0.5) + 0.5 * (0.1 * 0.5)
    assert_allclose(delta, [expected], rtol=1e-12)


def test_hybrid_endpoints_select_the_pure_rule_when_the_other_is_not_finite():
    # m * l overflows: the additive part is inf while tanh saturates, so
    # 1 * mult + 0 * add would be nan.
    theta, m, l = np.array([2.0]), np.array([1e300]), np.array([1e10])
    with np.errstate(over="ignore", invalid="ignore"):
        at_one = hybrid_update(theta, m, l, lr=0.1, lr_inner=1.0, lr_outer=0.5, mix=1.0)
        assert np.array_equal(at_one, multiplicative_update(theta, m, l, 1.0, 0.5))
        assert np.array_equal(at_one, [1.0])
        # An infinite parameter makes the multiplicative part inf.
        theta, ones = np.array([math.inf]), np.ones(1)
        at_zero = hybrid_update(theta, ones, ones, lr=0.1, lr_inner=1.0, lr_outer=0.5, mix=0.0)
        assert np.array_equal(at_zero, additive_update(theta, ones, ones, 0.1))


@pytest.mark.parametrize("mix", [-0.1, 1.1])
def test_hybrid_mix_range(mix):
    with pytest.raises(InvalidRateError):
        hybrid_update(np.ones(1), np.ones(1), np.ones(1), 0.1, 1.0, 0.5, mix)


def test_update_rule_constructor_validation():
    with pytest.raises(InvalidRateError):
        UpdateRule("additive")  # lr missing
    with pytest.raises(InvalidRateError):
        UpdateRule("multiplicative", lr_inner=1.0)  # lr_outer missing
    with pytest.raises(InvalidRateError):
        UpdateRule("hybrid", lr=0.1, lr_inner=1.0, lr_outer=1.5)
    with pytest.raises(ValueError):
        UpdateRule("exponentiated", lr=0.1)
    # hybrid mix defaults to the stock blend weight
    assert UpdateRule("hybrid", lr=0.1, lr_inner=1.0, lr_outer=0.5).mix == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kind, field",
    [
        ("additive", "lr"),
        ("hybrid", "lr"),
        ("multiplicative", "lr_inner"),
        ("hybrid", "lr_inner"),
        ("multiplicative", "lr_outer"),
        ("hybrid", "mix"),
    ],
)
def test_update_rule_rejects_non_finite_rates(kind, field, bad):
    valid = {
        "additive": {"lr": 0.1},
        "multiplicative": {"lr_inner": 1.0, "lr_outer": 0.5},
        "hybrid": {"lr": 0.1, "lr_inner": 1.0, "lr_outer": 0.5, "mix": 0.5},
    }
    with pytest.raises(InvalidRateError, match=field):
        UpdateRule(kind, **{**valid[kind], field: bad})


# ---------------------------------------------------------------- step

def test_step_sgd_additive_hand_example():
    spec = make_spec("sgd", UpdateRule("additive", lr=1e-4))
    state = init_state(2)
    theta = np.array([50.0, 50.0])
    g = np.array([1960.0, 19600.0])
    new_theta, state = step(spec, state, theta, g)
    assert state.t == 1
    assert np.array_equal(new_theta, theta - 1e-4 * g)
    assert_allclose(new_theta, [49.804, 48.04], atol=1e-12)


def test_step_zero_gradient_multiplicative_leaves_theta():
    spec = make_spec("sgd", UpdateRule("multiplicative", lr_inner=3.0, lr_outer=0.3))
    state = init_state(2)
    theta = np.array([4.0, -7.0])
    new_theta, _ = step(spec, state, theta, np.zeros(2))
    assert np.array_equal(new_theta, theta)


def test_step_adam_first_delta():
    spec = make_spec("adam", UpdateRule("additive", lr=0.001))
    state = init_state(1)
    new_theta, _ = step(spec, state, np.array([1.0]), np.array([1.0]))
    assert_allclose(1.0 - new_theta[0], 9.9999999e-4, rtol=1e-9)


def test_step_shape_mismatch():
    spec = make_spec("sgd", UpdateRule("additive", lr=0.1))
    with pytest.raises(DimensionMismatchError):
        step(spec, init_state(2), np.zeros(2), np.zeros(3))


def test_step_bad_gradient_leaves_state_untouched():
    spec = make_spec("adam", UpdateRule("additive", lr=0.1))
    state = init_state(2)
    state.t = 3
    state.m[:] = [0.5, 0.5]
    state.v[:] = [0.25, 0.25]
    with pytest.raises(NonFiniteGradientError):
        step(spec, state, np.zeros(2), np.array([np.inf, 0.0]))
    assert state.t == 3
    assert np.array_equal(state.m, [0.5, 0.5])
    assert np.array_equal(state.v, [0.25, 0.25])


def test_step_divergence_error_carries_iteration():
    spec = make_spec("sgd", UpdateRule("additive", lr=10.0))
    state = init_state(1)
    theta = np.array([1e308])
    with pytest.raises(DivergenceError) as err:
        step(spec, state, theta, np.array([-1e308]))
    assert err.value.iteration == 1
    # counting continues across steps of the same run
    state = init_state(1)
    theta = np.array([1.0])
    theta, state = step(spec, state, theta, np.array([0.5]))
    with pytest.raises(DivergenceError) as err:
        step(spec, state, theta, np.array([-1e308]))
    assert err.value.iteration == 2


# ------------------------------------------------------ named families

def test_make_spec_families():
    sgd = make_spec("sgd", UpdateRule("additive", lr=0.01))
    assert (sgd.momentum.kind, sgd.adaptive.kind) == ("identity", "identity")

    adagrad = make_spec("adagrad", UpdateRule("additive", lr=0.01))
    assert adagrad.adaptive.kind == "accumulate"
    assert adagrad.adaptive.eps == ACCUMULATE_EPS

    adam = make_spec("adam", UpdateRule("additive", lr=0.001))
    assert adam.momentum == MomentumRule("ema", beta1=0.9)
    assert adam.adaptive == AdaptiveRule("ema", beta2=0.99, eps=1e-8)

    rmsprop = make_spec("rmsprop", UpdateRule("additive", lr=0.001))
    assert rmsprop.momentum == MomentumRule("ema", beta1=0.0)
    assert rmsprop.adaptive == adam.adaptive


def test_make_spec_unknown_family():
    with pytest.raises(ValueError):
        make_spec("lbfgs", UpdateRule("additive", lr=0.1))


def test_default_update_rule_rates():
    for family, lr in DEFAULT_LR.items():
        assert default_update_rule(family, "additive").lr == lr
    for family, (inner, outer) in DEFAULT_MULTIPLICATIVE_RATES.items():
        rule = default_update_rule(family, "multiplicative")
        assert (rule.lr_inner, rule.lr_outer) == (inner, outer)
    for family, (inner, outer) in DEFAULT_HYBRID_RATES.items():
        rule = default_update_rule(family, "hybrid")
        assert (rule.lr_inner, rule.lr_outer) == (inner, outer)
        assert rule.lr == DEFAULT_LR[family]
        assert rule.mix == 0.5


def test_default_update_rule_adam_has_no_blended_defaults():
    with pytest.raises(ValueError):
        default_update_rule("adam", "multiplicative")
    with pytest.raises(ValueError):
        default_update_rule("adam", "hybrid")


# ----------------------------------------- recursion vs closed form

def _closed_form_tracks(gs: np.ndarray, beta1: float, beta2: float, eps: float):
    """Direct evaluation of the weighted sums the EMA recursions equal.

    At step t the bias-corrected direction is
        (1 - b1) * sum_i b1^(t-i) g_i / (1 - b1^t)
    and the rate multiplier is 1/(sqrt(v_hat) + eps) with v_hat the same
    sum over squared gradients with b2.
    """
    T = gs.shape[0]
    ms, ls = [], []
    for t in range(1, T + 1):
        w1 = np.array([(1.0 - beta1) * beta1 ** (t - i) for i in range(1, t + 1)])
        w2 = np.array([(1.0 - beta2) * beta2 ** (t - i) for i in range(1, t + 1)])
        m_hat = w1 @ gs[:t] / (1.0 - beta1**t)
        v_hat = w2 @ (gs[:t] ** 2) / (1.0 - beta2**t)
        ms.append(m_hat)
        ls.append(1.0 / (np.sqrt(v_hat) + eps))
    return np.array(ms), np.array(ls)


def test_ema_recursion_matches_closed_form_sums():
    beta1, beta2, eps = 0.9, 0.99, 1e-8
    mom = MomentumRule("ema", beta1=beta1)
    ada = AdaptiveRule("ema", beta2=beta2, eps=eps)
    rng = np.random.default_rng(12345)
    for _ in range(100):
        gs = rng.normal(0.0, 2.0, size=(50, 3))
        want_m, want_l = _closed_form_tracks(gs, beta1, beta2, eps)
        state = init_state(3)
        for t in range(50):
            state.t = t + 1
            got_m = momentum(mom, state, gs[t])
            got_l = adaptive_rate(ada, state, gs[t])
            assert_allclose(got_m, want_m[t], rtol=1e-12, atol=1e-15)
            assert_allclose(got_l, want_l[t], rtol=1e-12)


def test_rmsprop_is_adam_with_zero_beta1():
    rmsprop = make_spec("rmsprop", UpdateRule("additive", lr=0.001))
    adam0 = make_spec("adam", UpdateRule("additive", lr=0.001), beta1=0.0)
    assert rmsprop == adam0

    rng = np.random.default_rng(77)
    state_a = init_state(4)
    state_b = init_state(4)
    theta_a = theta_b = np.full(4, 3.0)
    for t in range(1, 31):
        g = rng.normal(size=4)
        # direction collapses to the raw gradient, bit for bit
        probe = init_state(4)
        probe.t = t
        assert np.array_equal(momentum(MomentumRule("ema", beta1=0.0), probe, g), g)
        theta_a, state_a = step(rmsprop, state_a, theta_a, g)
        theta_b, state_b = step(adam0, state_b, theta_b, g)
        assert np.array_equal(theta_a, theta_b)
        assert np.array_equal(state_a.v, state_b.v)


def test_matched_streams_give_bitwise_identical_trajectories():
    spec = make_spec("adam", UpdateRule("hybrid", lr=0.001, lr_inner=6.0, lr_outer=0.6))
    rng = np.random.default_rng(3)
    gs = rng.normal(size=(25, 3))

    def run():
        theta = np.array([1.0, -2.0, 0.5])
        state = init_state(3)
        out = [theta.copy()]
        for g in gs:
            theta, state = step(spec, state, theta, g)
            out.append(theta.copy())
        return out

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ------------------------------------------------------------ population

_POPULATION_RULES = {
    "additive": [UpdateRule("additive", lr=lr) for lr in (0.1, 0.01, 0.5, 1e-3, 0.2)],
    "multiplicative": [
        UpdateRule("multiplicative", lr_inner=inner, lr_outer=outer)
        for inner, outer in ((1.0, 0.5), (3.0, 0.1), (0.5, 1.0), (10.0, 0.3), (2.0, 0.9))
    ],
    # Rows 0, 2 and 4 sit at the endpoints; keeping only them changes
    # whether the blend has any endpoint row at all.
    "hybrid": [
        UpdateRule("hybrid", lr=0.1, lr_inner=inner, lr_outer=0.5, mix=mix)
        for inner, mix in ((1.0, 0.0), (2.0, 0.3), (3.0, 1.0), (0.5, 0.7), (4.0, 1.0))
    ],
}


def _population_run(family, kind, rows, per_row, steps, rng_seed=12):
    """A population of the given rows of a five-row setup, stepped with
    the same gradient rows as the five-row population would see."""
    rng = np.random.default_rng(rng_seed)
    theta = rng.normal(size=(5, 3))
    gs = rng.normal(size=(steps, 5, 3))
    rules = _POPULATION_RULES[kind]
    update = RateColumns.stack(kind, [rules[i] for i in rows]) if per_row else rules[0]
    pop = Population(
        make_spec(family, update),
        theta[rows],
        rows=np.array(rows),
        block=np.arange(10.0).reshape(5, 2)[rows],
        rngs=np.array([np.random.default_rng(i) for i in rows], dtype=object),
        pair=(np.arange(5.0)[rows], np.arange(10, 15)[rows]),
    )
    for g in gs:
        pop.theta = _step(pop, g[rows])[0]
    return pop


def _step(pop, g):
    """pop's step on the gradient g, written into its gradient buffer."""
    pop.grad[...] = g
    return pop.step()


@pytest.mark.parametrize("family", ["sgd", "adagrad", "adam"])
@pytest.mark.parametrize("kind", ["additive", "multiplicative", "hybrid"])
@pytest.mark.parametrize("per_row", [True, False])
@pytest.mark.parametrize("kept", [[0, 2, 4], [1, 3], [4], [4, 0, 3, 1]])
def test_population_keep_compacts_every_row_array_and_steps_as_if_never_batched(
    family, kind, per_row, kept
):
    # A sorted kept is passed as a boolean mask, the reordering one as row
    # indices.
    everyone = _population_run(family, kind, [0, 1, 2, 3, 4], per_row, steps=4)
    before = {name: getattr(everyone, name).copy() for name in ("theta", "m", "v", "rows", "block", "rngs")}
    pair = tuple(column.copy() for column in everyone.pair)
    scalar_rule = everyone.spec.update
    everyone.keep(np.isin(np.arange(5), kept) if kept == sorted(kept) else np.array(kept))
    for name, value in before.items():
        assert np.array_equal(getattr(everyone, name), value[kept]), name
    assert all(np.array_equal(a, b[kept]) for a, b in zip(everyone.pair, pair, strict=True))
    assert everyone.t == 4
    update = everyone.spec.update
    if per_row:
        # Each kept row's rate blocks are its own rule's rates spread over
        # the row's width of 3.
        rules = [_POPULATION_RULES[kind][i] for i in kept]
        for name in UpdateRule.FIELDS[kind]:
            spread = np.array([[getattr(rule, name)] * 3 for rule in rules])
            assert np.array_equal(getattr(update, name), spread), name
        if kind == "hybrid":
            # The blend is worked out again for the kept rows: [0, 2, 4] all
            # sit at mix 0 or 1, and the rows [1, 3] at neither.
            mix = np.array([[rule.mix] * 3 for rule in rules])
            assert all(np.array_equal(a, b) for a, b in zip(update.blend, blend_weights(mix), strict=True))
            assert update.blend[-1] == (kept != [1, 3])
    else:
        rule = _POPULATION_RULES[kind][0]
        assert update is scalar_rule
        assert all(getattr(update, name) == getattr(rule, name) for name in UpdateRule.FIELDS[kind])

    # One more step of the compacted rows gives the bits they get in a
    # population that never had the dropped rows.
    alone = _population_run(family, kind, kept, per_row, steps=4)
    g = np.random.default_rng(5).normal(size=(5, 3))[kept]
    assert _step(everyone, g)[0].tobytes() == _step(alone, g)[0].tobytes()
    assert everyone.m.tobytes() == alone.m.tobytes()
    assert everyone.v.tobytes() == alone.v.tobytes()


@pytest.mark.parametrize("kind", ["additive", "hybrid"])
@pytest.mark.parametrize("per_row", [True, False])
def test_population_keep_of_a_leading_slice_leaves_views_and_steps_as_a_mask_does(kind, per_row):
    by_slice = _population_run("adam", kind, [0, 1, 2, 3, 4], per_row, steps=4)
    by_mask = _population_run("adam", kind, [0, 1, 2, 3, 4], per_row, steps=4)
    before = {name: getattr(by_slice, name) for name in ("theta", "m", "v", "rows", "block", "rngs")}
    fields = UpdateRule.FIELDS[kind]
    rates = {name: getattr(by_slice.spec.update, name) for name in fields}
    by_slice.keep(slice(3))
    by_mask.keep(np.arange(5) < 3)
    for name, value in before.items():
        assert np.shares_memory(getattr(by_slice, name), value), name
        assert np.array_equal(getattr(by_slice, name), value[:3]), name
    if per_row:
        for name, value in rates.items():
            assert np.shares_memory(getattr(by_slice.spec.update, name), value), name
            assert np.array_equal(getattr(by_slice.spec.update, name), getattr(by_mask.spec.update, name)), name
    g = np.random.default_rng(5).normal(size=(3, 3))
    assert _step(by_slice, g)[0].tobytes() == _step(by_mask, g)[0].tobytes()
    assert by_slice.m.tobytes() == by_mask.m.tobytes()
    assert by_slice.v.tobytes() == by_mask.v.tobytes()


def _sgd_population(theta, lr=1.0, origin=None):
    return Population(make_spec("sgd", UpdateRule("additive", lr=lr)), np.array(theta, dtype=float), origin)


def test_population_step_of_finite_rows_returns_none_and_commits_nothing():
    pop = _sgd_population([[1.0, 2.0], [3.0, -4.0]], lr=0.5)
    theta, ok = _step(pop, np.array([[1.0, 1.0], [2.0, -2.0]]))
    assert ok is None
    assert theta.tolist() == [[0.5, 1.5], [2.0, -3.0]]
    assert pop.theta.tolist() == [[1.0, 2.0], [3.0, -4.0]]
    assert pop.t == 1


def test_population_step_masks_the_rows_whose_gradient_or_step_is_not_finite():
    pop = _sgd_population([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], lr=1e300)
    g = np.array([[1e-300, 0.0], [np.nan, 0.0], [0.0, 1e10]])
    with np.errstate(over="ignore", invalid="ignore"):
        theta, ok = _step(pop, g)
    assert ok.tolist() == [True, False, False]
    assert theta[0].tolist() == [0.0, 2.0] and theta[2, 1] == -math.inf


def test_population_step_leaves_a_finite_row_whose_offset_overflows_to_the_caller():
    pop = _sgd_population([[1e308, 0.0], [1.0, 1.0]], origin=np.array([[-1e308, 0.0], [0.0, 0.0]]))
    with np.errstate(over="ignore"):
        theta, ok = _step(pop, np.zeros((2, 2)))
    assert ok.tolist() == [True, True]
    assert theta.tolist() == [[1e308, 0.0], [1.0, 1.0]]


def test_population_step_of_finite_rows_too_large_for_the_fast_test_passes_every_row():
    pop = _sgd_population([[1e160, 0.0], [1.0, 1.0]])
    with np.errstate(over="ignore"):
        theta, ok = _step(pop, np.zeros((2, 2)))
    assert ok.tolist() == [True, True]
    assert theta.tolist() == [[1e160, 0.0], [1.0, 1.0]]
