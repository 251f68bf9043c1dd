import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from numpy.testing import assert_allclose

from optbench import harness, optim
from optbench.harness import (
    EvalDistribution,
    Sampler,
    default_eval_distribution,
    default_scan_ranges,
    draw_tasks,
    evaluate_robustness,
    run_batch,
    run_trial,
    run_trials,
    sample_eval_config,
    surface_scan,
)
from optbench.harness import _entropy_words, _pcg64_states
from optbench.objectives import (
    FUNCTIONS,
    InvalidConfigError,
    TaskConfig,
    distance_to_minimum,
    make_objective,
    point_distance,
)
from optbench.optim import (
    FAMILIES,
    UPDATE_KINDS,
    DivergenceError,
    NonFiniteGradientError,
    RateColumns,
    UpdateRule,
    default_update_rule,
    init_state,
    make_spec,
    step,
)
from optbench.tuning import RateGrids, grid_search

CONVEX = TaskConfig("convex2d", alpha=1.0, beta=20.0, x0=(50.0, 50.0), iterations=100)


def _sgd(lr):
    return make_spec("sgd", UpdateRule("additive", lr=lr))


def test_zero_rate_trial_never_moves():
    record = run_trial(CONVEX, _sgd(0.0))
    assert not record.diverged
    assert record.iterations_run == 100
    assert len(record.distances) == 101
    assert record.final_distance == record.initial_distance
    assert record.score == 1.0
    assert all(d == record.initial_distance for d in record.distances)


def test_score_is_final_over_initial():
    record = run_trial(CONVEX, _sgd(1e-3))
    assert record.initial_distance == pytest.approx(49.0 * math.sqrt(2.0), rel=1e-14)
    assert record.score == record.final_distance / record.initial_distance
    assert record.final_distance < record.initial_distance


def test_trial_started_at_minimum_scores_zero():
    task = TaskConfig("convex2d", alpha=1.0, beta=20.0, x0=(1.0, 1.0), iterations=10)
    record = run_trial(task, _sgd(1e-3))
    assert record.initial_distance == 0.0
    assert record.final_distance == 0.0
    assert record.score == 0.0


def test_diverged_trial_keeps_finite_prefix():
    record = run_trial(CONVEX, _sgd(5.0))
    assert record.diverged
    assert math.isinf(record.final_distance)
    assert math.isinf(record.score)
    assert record.iterations_run < 100
    assert all(math.isfinite(d) for d in record.distances)
    assert len(record.distances) == record.iterations_run + 1


def test_multiplicative_trial_preserves_signs_throughout():
    objective = make_objective(CONVEX)
    spec = make_spec("sgd", default_update_rule("sgd", "multiplicative"))
    theta = np.array(CONVEX.x0)
    state = init_state(2)
    signs0 = np.sign(theta)
    for _ in range(CONVEX.iterations):
        theta, state = step(spec, state, theta, objective.gradient(theta))
        assert np.array_equal(np.sign(theta), signs0)


def test_sampler_rejects_negative_std():
    with pytest.raises(InvalidConfigError):
        Sampler(1.0, -0.5)


def test_default_eval_distributions():
    conv = default_eval_distribution("convex2d")
    assert conv.x0 == (Sampler(50.0, 5.0), Sampler(50.0, 5.0))
    assert conv.alpha == Sampler(1.0, 1.0)
    assert conv.beta == Sampler(20.0, 2.0)
    assert conv.iterations == Sampler(100.0, 10.0)
    rosen = default_eval_distribution("rosenbrock")
    assert rosen.x0 == (Sampler(0.5, 0.1), Sampler(3.0, 1.0))
    assert rosen.alpha == Sampler(1.0, 0.0)  # pinned, not sampled
    assert rosen.beta == Sampler(60.0, 6.0)
    with pytest.raises(InvalidConfigError):
        default_eval_distribution("quadratic")


def test_sample_eval_config_determinism_and_ranges():
    dist = default_eval_distribution("convex2d")
    for index in range(50):
        task = sample_eval_config(dist, seed=123, index=index)
        again = sample_eval_config(dist, seed=123, index=index)
        assert task == again
        assert task.beta > 0.0
        assert task.iterations >= 1
        assert task.seed == index
    t0 = sample_eval_config(dist, seed=123, index=0)
    t1 = sample_eval_config(dist, seed=123, index=1)
    other = sample_eval_config(dist, seed=124, index=0)
    assert t0 != t1
    assert t0 != other


def test_sample_eval_config_fixed_distribution_ignores_index():
    dist = EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0), Sampler(50.0)),
        alpha=Sampler(1.0),
        beta=Sampler(20.0),
        iterations=Sampler(100.0),
    )
    tasks = {sample_eval_config(dist, seed=5, index=i) for i in range(5)}
    # only the per-trial seed differs
    assert {t.x0 for t in tasks} == {(50.0, 50.0)}
    assert {t.beta for t in tasks} == {20.0}
    assert {t.iterations for t in tasks} == {100}


def test_sample_eval_config_iteration_rounding():
    dist = EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0), Sampler(50.0)),
        alpha=Sampler(1.0),
        beta=Sampler(20.0),
        iterations=Sampler(99.4),
    )
    assert sample_eval_config(dist, 0, 0).iterations == 99
    tiny = EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0), Sampler(50.0)),
        alpha=Sampler(1.0),
        beta=Sampler(20.0),
        iterations=Sampler(0.2),
    )
    assert sample_eval_config(tiny, 0, 0).iterations == 1


def test_sample_eval_config_redraws_nonpositive_beta():
    dist = EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0), Sampler(50.0)),
        alpha=Sampler(1.0),
        beta=Sampler(0.0, 1.0),  # half of raw draws are negative
        iterations=Sampler(10.0),
    )
    for index in range(200):
        assert sample_eval_config(dist, seed=9, index=index).beta > 0.0


@pytest.mark.parametrize(
    "beta, shown",
    [
        (Sampler(-1e6, 1.0), "Sampler(mean=-1000000.0, std=1.0)"),
        (Sampler(math.nan, 1.0), "Sampler(mean=nan, std=1.0)"),
    ],
    ids=["negative", "nan"],
)
def test_draw_refuses_a_beta_distribution_without_positive_draws(beta, shown):
    # A NaN draw is not positive either, so it is redrawn like a negative one.
    dist = replace(default_eval_distribution("convex2d"), beta=beta)
    with pytest.raises(InvalidConfigError) as refusal:
        draw_tasks(dist, 2024, range(3))
    assert str(refusal.value) == f"distribution.beta: no positive draw from {shown} in 1000 tries"


def test_evaluate_robustness_single_trial():
    dist = default_eval_distribution("convex2d")
    stats = evaluate_robustness(dist, _sgd(1e-3), n=1, seed=42)
    task = sample_eval_config(dist, seed=42, index=0)
    record = run_trial(task, _sgd(1e-3))
    assert stats.scores == [record.score]
    assert stats.mean == record.score
    assert stats.std == 0.0
    assert stats.n == 1
    assert stats.n_diverged == 0


def test_evaluate_robustness_mixed_divergence():
    stats = evaluate_robustness(
        default_eval_distribution("rosenbrock"), _sgd(5e-3), n=40, seed=11
    )
    assert 0 < stats.n_diverged < 40
    assert stats.n == 40 - stats.n_diverged
    finite = [s for s in stats.scores if math.isfinite(s)]
    assert len(finite) == stats.n
    assert stats.mean == pytest.approx(np.mean(finite), rel=1e-15)
    assert stats.std == pytest.approx(np.std(finite, ddof=1), rel=1e-12)


def test_evaluate_robustness_all_diverged():
    dist = default_eval_distribution("convex2d")
    stats = evaluate_robustness(dist, _sgd(50.0), n=10, seed=0)
    assert stats.n_diverged == 10
    assert stats.n == 0
    assert math.isinf(stats.mean)
    assert stats.std == 0.0
    assert all(math.isinf(s) for s in stats.scores)


def test_evaluate_robustness_seeded_determinism():
    dist = default_eval_distribution("convex2d")
    a = evaluate_robustness(dist, _sgd(1e-3), n=10, seed=7)
    b = evaluate_robustness(dist, _sgd(1e-3), n=10, seed=7)
    c = evaluate_robustness(dist, _sgd(1e-3), n=10, seed=8)
    assert a.scores == b.scores
    assert a.scores != c.scores


def test_evaluate_robustness_rejects_nonpositive_n():
    with pytest.raises(InvalidConfigError):
        evaluate_robustness(default_eval_distribution("convex2d"), _sgd(1e-3), n=0, seed=0)


def test_counts_may_be_numpy_integers():
    dist, task = default_eval_distribution("convex2d"), replace(CONVEX, iterations=5)
    assert evaluate_robustness(dist, _sgd(1e-3), n=np.int64(3), seed=0) == evaluate_robustness(
        dist, _sgd(1e-3), n=3, seed=0
    )
    by_numpy, by_int = surface_scan(task, _sgd(1e-3), grid_size=np.int64(3)), surface_scan(task, _sgd(1e-3), grid_size=3)
    assert by_numpy.scores.tobytes() == by_int.scores.tobytes()


def test_default_scan_ranges():
    assert default_scan_ranges(CONVEX) == ((40.0, 60.0), (40.0, 60.0))
    task = TaskConfig("convex2d", 1.0, 20.0, (-10.0, 5.0), 10)
    assert default_scan_ranges(task) == ((-12.0, -8.0), (4.0, 6.0))


def test_surface_scan_shape_and_spot_checks():
    from dataclasses import replace

    task = replace(CONVEX, iterations=20)
    grid = surface_scan(task, _sgd(1e-3), grid_size=5)
    assert grid.scores.shape == (5, 5)
    assert grid.x0_axis[0] == 40.0 and grid.x0_axis[-1] == 60.0
    assert grid.x1_axis[0] == 40.0 and grid.x1_axis[-1] == 60.0
    assert all(a < b for a, b in zip(grid.x0_axis, grid.x0_axis[1:]))
    for i in (0, 2, 4):
        for j in (0, 3):
            moved = replace(task, x0=(float(grid.x0_axis[i]), float(grid.x1_axis[j])))
            assert grid.scores[i, j] == run_trial(moved, _sgd(1e-3)).score


def test_surface_scan_collapsed_ranges():
    from dataclasses import replace

    task = replace(CONVEX, iterations=5)
    grid = surface_scan(task, _sgd(1e-3), x0_range=(50.0, 50.0), x1_range=(50.0, 50.0), grid_size=3)
    base = run_trial(task, _sgd(1e-3)).score
    assert_allclose(grid.scores, np.full((3, 3), base), rtol=0)


def test_surface_scan_default_size_and_validation():
    from dataclasses import replace

    task = replace(CONVEX, iterations=3)
    grid = surface_scan(task, _sgd(1e-3))
    assert grid.scores.shape == (25, 25)
    with pytest.raises(InvalidConfigError):
        surface_scan(task, _sgd(1e-3), grid_size=0)
    with pytest.raises(InvalidConfigError):
        surface_scan(task, _sgd(1e-3), x0_range=(2.0, 1.0))


# ------------------------------------------------------ kernel oracle

def _reference_trial(task, spec):
    """The scalar loop the batched kernel replaces, built only from
    step(), Objective.gradient and distance_to_minimum: one step() per
    iteration, stopping at the first non-finite gradient, parameter or
    distance.  Returns the distance trajectory and the stop reason."""
    objective = make_objective(task)
    theta = np.array(task.x0)
    state = init_state(2)
    distances = [distance_to_minimum(theta, objective)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(task.iterations):
            try:
                theta, state = step(spec, state, theta, objective.gradient(theta))
            except NonFiniteGradientError:
                return distances, "gradient"
            except DivergenceError:
                return distances, "parameter"
            d = distance_to_minimum(theta, objective)
            if not math.isfinite(d):
                return distances, "distance"
            distances.append(d)
    return distances, None


def _random_rule(rng, kind):
    lr = float(10.0 ** rng.uniform(-5.0, 0.0))
    lr_inner = float(10.0 ** rng.uniform(-1.0, 1.5))
    lr_outer = float(rng.uniform(0.01, 0.99))
    if kind == "additive":
        return UpdateRule("additive", lr=lr)
    if kind == "multiplicative":
        return UpdateRule("multiplicative", lr_inner=lr_inner, lr_outer=lr_outer)
    mix = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
    return UpdateRule("hybrid", lr=lr, lr_inner=lr_inner, lr_outer=lr_outer, mix=mix)


def _oracle_pairs():
    """Every task x family x update rule, with random tasks, rates and
    ragged budgets, a row started at the minimum, and rows that diverge on
    the gradient, the parameter and the distance."""
    rng = np.random.default_rng(2307)
    pairs = []
    for function in ("convex2d", "rosenbrock"):
        for family in FAMILIES:
            for kind in UPDATE_KINDS:
                for _ in range(6):
                    x0 = (50.0, 50.0) if function == "convex2d" else (0.5, 3.0)
                    task = TaskConfig(
                        function,
                        alpha=float(rng.normal(1.0, 0.3)),
                        beta=float(rng.uniform(5.0, 60.0)),
                        x0=tuple(float(v) for v in rng.normal(x0, 0.2 * np.abs(x0))),
                        iterations=int(rng.integers(1, 80)),
                    )
                    pairs.append((task, make_spec(family, _random_rule(rng, kind))))
                minimum = (2.0, 2.0) if function == "convex2d" else (2.0, 4.0)
                at_minimum = TaskConfig(function, alpha=2.0, beta=20.0, x0=minimum, iterations=7)
                pairs.append((at_minimum, make_spec(family, _random_rule(rng, kind))))
    bowl = dict(function="convex2d", alpha=1.0, x0=(50.0, 50.0))
    pairs += [
        # 20 * beta * 49 overflows: the first gradient is infinite.  With the
        # multiplicative rule tanh saturates, so the parameter and the
        # distance stay finite and only the gradient check stops the row.
        (TaskConfig(**bowl, beta=1e307, iterations=10), _sgd(1e-3)),
        (
            TaskConfig(**bowl, beta=1e307, iterations=10),
            make_spec("sgd", UpdateRule("multiplicative", lr_inner=1.0, lr_outer=0.5)),
        ),
        # lr * gradient overflows: the first step leaves a finite gradient
        # but an infinite parameter.
        (TaskConfig(**bowl, beta=20.0, iterations=10), _sgd(1e306)),
        # The stiff coordinate doubles in size every step, so its square
        # overflows long before the parameter or the gradient does.
        (TaskConfig(**bowl, beta=20.0, iterations=600), _sgd(0.0075)),
    ]
    return pairs


def test_kernel_matches_scalar_reference_bitwise():
    pairs = _oracle_pairs()
    records = run_trials(pairs)
    batch = run_batch(pairs)
    reasons = set()
    for i, ((task, spec), record) in enumerate(zip(pairs, records)):
        distances, reason = _reference_trial(task, spec)
        reasons.add(reason)
        where = f"row {i}: {task} {spec}"
        assert record.distances == distances, where
        assert record.iterations_run == len(distances) - 1 == batch.iterations_run[i], where
        assert record.diverged == (reason is not None) == batch.diverged[i], where
        initial, final = distances[0], distances[-1]
        if reason is not None:
            final = score = math.inf
        elif initial > 0.0:
            score = final / initial
        else:
            score = 0.0 if final == 0.0 else math.inf
        assert record.initial_distance == initial == batch.initial_distance[i], where
        assert record.final_distance == final == batch.final_distance[i], where
        assert record.score == score == batch.score[i], where
    assert reasons == {None, "gradient", "parameter", "distance"}
    assert len({task.iterations for task, _ in pairs}) > 20
    assert any(r.initial_distance == 0.0 and r.score == 0.0 for r in records)


def test_batched_multiplicative_population_keeps_signs_and_bound(monkeypatch):
    """Every update the kernel applies to a multiplicative population stays
    within lr_outer * |theta| per row and coordinate and flips no sign."""
    rng = np.random.default_rng(6)
    pairs = []
    for function, x0 in (("convex2d", (50.0, 50.0)), ("rosenbrock", (0.5, 3.0))):
        for family in FAMILIES:
            for _ in range(20):
                task = TaskConfig(
                    function,
                    alpha=1.0,
                    beta=20.0,
                    x0=tuple(float(v) for v in rng.normal(x0, 2.0)),
                    iterations=int(rng.integers(50, 100)),
                )
                pairs.append((task, make_spec(family, _random_rule(rng, "multiplicative"))))
    rows_checked = []
    apply_update = optim.apply_update

    def checked(rule, theta, m, l):
        delta = apply_update(rule, theta, m, l)
        assert theta.ndim == 2 and rule.lr_outer.shape == theta.shape
        assert np.all(np.abs(delta) <= rule.lr_outer * np.abs(theta))
        moved = theta - delta
        assert np.array_equal(np.sign(moved), np.sign(theta))
        rows_checked.append(theta.shape[0])
        return delta

    monkeypatch.setattr(optim, "apply_update", checked)
    batch = run_batch(pairs)
    # One population of 20 rows per function x family, riders included.
    assert not batch.diverged.any()
    assert rows_checked == [
        size
        for rows in np.split(np.arange(len(pairs)), len(pairs) // 20)
        for size in _population_sizes(batch.iterations_run[rows], batch.diverged[rows])
    ]
    assert max(rows_checked) == 20


def _population_sizes(iterations_run, diverged, masked=()):
    """The rows a kernel population steps at each step, from its rows'
    outcomes and the steps that failed the finiteness test: a row is live
    until it finishes or diverges.  A failed step's keep leaves the rows
    that pass it, those that finish there included.  A finished row rides
    along until a step where rows finish leaves at most half of the rows
    live, or until a failed step."""
    live_until = np.where(diverged, iterations_run + 1, iterations_run)
    finish = np.where(diverged, 0, iterations_run)
    sizes, size, t = [], len(iterations_run), 0
    while True:
        t += 1
        sizes.append(size)
        if t in masked:
            size = int(np.count_nonzero(iterations_run >= t))
        live = int(np.count_nonzero(live_until > t))
        if not live:
            return sizes
        if np.any(finish == t) and 2 * live <= size:
            size = live


class _StepLog(harness.Population):
    """A kernel population that records, for every step, its step counter,
    its row count and whether the step failed the finiteness test."""

    log: list = []

    def step(self):
        theta, ok = super().step()
        self.log.append((self.t, len(self.rows), ok is not None))
        return theta, ok


@pytest.fixture
def step_log(monkeypatch):
    monkeypatch.setattr(harness, "Population", _StepLog)
    monkeypatch.setattr(_StepLog, "log", [])
    return _StepLog.log


def _assert_matches_reference(pairs, batch):
    for i, (task, spec) in enumerate(pairs):
        # A start point near overflow has an infinite distance, which the
        # reference measures outside its errstate.
        with np.errstate(over="ignore"):
            distances, reason = _reference_trial(task, spec)
        where = f"row {i}: {task} {spec}"
        assert batch.iterations_run[i] == len(distances) - 1, where
        assert batch.diverged[i] == (reason is not None), where
        assert batch.final_distance[i] == (math.inf if reason is not None else distances[-1]), where


def test_a_rider_that_overflows_after_its_budget_moves_no_outcome(step_log):
    """Row 0 finishes at step 10 and rides along, since three of the four
    rows are still live; its stiff coordinate grows about 2,000 times per
    step, so its step 46 fails the finiteness test.  That one masked step
    drops it, and no row's outcome moves."""
    pairs = [(replace(CONVEX, iterations=10), _sgd(5.0))] + [
        (replace(CONVEX, iterations=60, alpha=1.0 + i), _sgd(1e-4 * (i + 1))) for i in range(3)
    ]
    batch = run_batch(pairs)
    _assert_matches_reference(pairs, batch)
    assert batch.iterations_run.tolist() == [10, 60, 60, 60] and not batch.diverged.any()
    assert [t for t, _, masked in step_log if masked] == [46]
    sizes = [rows for _, rows, _ in step_log]
    assert sizes == [4] * 46 + [3] * 14
    assert sizes == _population_sizes(batch.iterations_run, batch.diverged, {46})


def test_finite_rows_too_large_for_the_dot_take_the_masked_branch_and_match_the_reference(step_log):
    """A gradient of about 1e200 (beta 1e197) and a parameter of 1e151 are
    finite, but their squares fail the one-dot test, so every step is
    masked and no row diverges; a parameter of 1e155 has an infinite
    distance, so its row diverges at step 1, like the reference's."""
    pairs = [
        (replace(CONVEX, beta=1e197, iterations=5), _sgd(1e-210)),
        (replace(CONVEX, x0=(1e151, 50.0), iterations=5), _sgd(1e-4)),
        (replace(CONVEX, x0=(1e155, 50.0), iterations=5), _sgd(1e-4)),
        (replace(CONVEX, iterations=5), _sgd(1e-3)),
    ]
    batch = run_batch(pairs)
    _assert_matches_reference(pairs, batch)
    assert batch.diverged.tolist() == [False, False, True, False]
    assert [masked for _, _, masked in step_log] == [True] * 5


def test_an_origin_too_large_for_the_dot_masks_every_step_and_matches_the_reference(step_log):
    """Minimizers at 2**500 put the origin's squares at 2**1002, so no step
    can pass the one-dot test; every step takes the masked branch."""
    big = 2.0**500
    pairs = [
        (replace(CONVEX, alpha=big, x0=(1.5 * big, big), iterations=30), _sgd(1e-3)),
        (replace(CONVEX, iterations=20), _sgd(1e-3)),
    ]
    batch = run_batch(pairs)
    _assert_matches_reference(pairs, batch)
    assert not batch.diverged.any() and 0.0 < batch.final_distance[0] < math.inf
    assert [masked for _, _, masked in step_log] == [True] * 30


def _drawn_rate(name):
    """Any admissible value of a rule field, and often one of its extremes:
    the interval's ends that it admits, 1e-300, 1e300 and 0.5."""
    text = optim._RANGES[name]
    lo, hi = (float(bound) for bound in text[1:-1].split(","))
    extremes = [v for v in (lo, hi, 1e-300, 1e300, 0.5) if optim._IN_RANGE[name](v)]
    inside = st.floats(lo, hi, exclude_min=text[0] == "(", exclude_max=text[-1] == ")")
    return st.sampled_from(extremes) | inside


_DRAWN_UPDATE = st.sampled_from(UPDATE_KINDS).flatmap(
    lambda kind: st.builds(
        UpdateRule, st.just(kind), **{name: _drawn_rate(name) for name in UpdateRule.FIELDS[kind]}
    )
)
# A family with its own beta1, beta2 and eps; a drawn population shares a
# few of these, so its groups hold many rows with rates of their own.
_DRAWN_RULES = st.tuples(
    st.sampled_from(FAMILIES), _drawn_rate("beta1"), _drawn_rate("beta2"), _drawn_rate("eps")
)
_DRAWN_TASK = st.builds(
    TaskConfig,
    st.sampled_from(FUNCTIONS),
    alpha=st.floats(-3.0, 3.0),
    # A beta of 1e307 overflows the first gradient.
    beta=st.floats(1e-3, 1e3) | st.sampled_from([1.0, 20.0, 60.0, 1e300, 1e307]),
    # Signed zeros, small round values, start points whose distance or
    # first step overflows, and far but finite ones whose squared
    # distances fail the kernel's 2**1000 finiteness test.
    x0=st.tuples(
        *2
        * [
            st.floats(-60.0, 60.0)
            | st.sampled_from([0.0, -0.0, 1.0, 2.0, 4.0, 50.0, 1e150, 3e153, 1e154, -1e200, -1e300, 1e308])
        ]
    ),
    # Ragged budgets: rows stop at many different steps.
    iterations=st.integers(1, 25),
)


# No shrink phase: shrinking a failing population of up to 40 rows takes
# minutes, and the failing example is reported as drawn.
@settings(max_examples=50, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    rules=st.lists(_DRAWN_RULES, min_size=1, max_size=3),
    rows=st.lists(st.tuples(_DRAWN_TASK, st.integers(0, 2), _DRAWN_UPDATE), min_size=1, max_size=40),
)
def test_run_batch_matches_scalar_reference_on_drawn_populations(rules, rows):
    pairs = []
    for task, which, update in rows:
        family, beta1, beta2, eps = rules[which % len(rules)]
        pairs.append((task, make_spec(family, update, beta1=beta1, beta2=beta2, eps=eps)))
    batch = run_batch(pairs, trajectories=True)
    # Without trajectories the kernel measures distances only where it
    # writes them, so its outcomes are checked on their own as well.
    fast = run_batch(pairs)
    for i, (task, spec) in enumerate(pairs):
        # The reference measures the start outside its errstate; a start
        # point near overflow has an infinite distance, which the kernel
        # records without a warning.
        with np.errstate(over="ignore"):
            distances, reason = _reference_trial(task, spec)
        k = len(distances) - 1
        where = f"row {i}: {task} {spec}"
        assert batch.trajectories[i, : k + 1].tobytes() == np.array(distances).tobytes(), where
        assert np.isnan(batch.trajectories[i, k + 1 :]).all(), where
        initial = np.float64(distances[0])
        final = np.float64(math.inf if reason is not None else distances[-1])
        if reason is not None:
            score = np.float64(math.inf)
        elif initial > 0.0:
            with np.errstate(over="ignore"):
                score = final / initial
        else:
            score = np.float64(0.0 if final == 0.0 else math.inf)
        expected = {
            "initial_distance": initial,
            "final_distance": final,
            "score": score,
            "diverged": np.bool_(reason is not None),
            "iterations_run": np.int64(k),
        }
        for outcome in (batch, fast):
            for name, value in expected.items():
                assert getattr(outcome, name)[i].tobytes() == value.tobytes(), f"{name}, {where}"


def _mirrored(task):
    """The task reflected through alpha = 0: convex2d's start point flips
    with its minimizer (alpha, alpha), rosenbrock's first coordinate with
    its minimizer (alpha, alpha**2).  Every gradient entry of the mirror is
    the negated or the same entry of the original's."""
    x0, x1 = task.x0
    return replace(task, alpha=-task.alpha, x0=(-x0, -x1 if task.function == "convex2d" else x1))


_CELLS = [(function, family, kind) for function in FUNCTIONS for family in FAMILIES for kind in UPDATE_KINDS]


# Every example holds rows of all 24 cells.  No shrink phase, as above.
@settings(max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    betas=st.tuples(_drawn_rate("beta1"), _drawn_rate("beta2"), _drawn_rate("eps")),
    cells=st.tuples(
        *[
            st.lists(
                st.tuples(
                    _DRAWN_TASK.map(lambda task, f=function: replace(task, function=f)),
                    st.builds(UpdateRule, st.just(kind), **{n: _drawn_rate(n) for n in UpdateRule.FIELDS[kind]}),
                ),
                min_size=1,
                max_size=3,
            )
            for function, _, kind in _CELLS
        ]
    ),
)
def test_run_batch_of_mirrored_tasks_gives_the_same_outcomes(betas, cells):
    beta1, beta2, eps = betas
    pairs = [
        (task, make_spec(family, update, beta1=beta1, beta2=beta2, eps=eps))
        for (_, family, _), rows in zip(_CELLS, cells)
        for task, update in rows
    ]
    batch = run_batch(pairs)
    mirror = run_batch([(_mirrored(task), spec) for task, spec in pairs])
    for name in ("initial_distance", "final_distance", "score", "diverged", "iterations_run"):
        assert getattr(mirror, name).tobytes() == getattr(batch, name).tobytes(), name


# Convex tasks on a grid of sixteenths and sixty-fourths, with rates that
# keep a run of up to 25 steps, and its rescaling, clear of overflow and
# subnormals, except where a beta of 1e307 makes the first gradient
# infinite or an lr of 1e300 the first step, so those rows diverge at
# either scale.
_RESCALABLE_TASK = st.builds(
    TaskConfig,
    st.just("convex2d"),
    alpha=st.integers(-192, 192).map(lambda k: k / 64),
    beta=st.floats(1e-3, 1e2) | st.sampled_from([1.0, 20.0, 60.0, 1e307]),
    x0=st.tuples(*2 * [st.integers(-960, 960).map(lambda k: k / 16)]),
    iterations=st.integers(1, 25),
)
_SAFE_RATE = {
    "lr": st.floats(1e-6, 1.0) | st.sampled_from([0.0, 1e-3, 1.0, 1e300]),
    "lr_inner": st.floats(1e-3, 1e3),
    "lr_outer": st.floats(0.01, 0.9),
    "mix": _drawn_rate("mix"),
}
_CONVEX_CELLS = [(family, kind) for family in FAMILIES for kind in UPDATE_KINDS]


def _rescaled(task, spec, c):
    """The convex2d task with alpha and x0 times the power of two c, and
    the rates that make its run the original's times c.  Every gradient
    is c times the original's, so sgd keeps lr and divides lr_inner by c;
    an adaptive family's rate multiplier is 1/c times the original's once
    eps is c times it, so it multiplies eps and lr by c and keeps
    lr_inner.  lr_outer and mix stay."""
    task = replace(task, alpha=c * task.alpha, x0=(c * task.x0[0], c * task.x0[1]))
    adaptive, update = spec.adaptive, spec.update
    if adaptive.kind == "identity":
        if update.lr_inner is not None:
            update = replace(update, lr_inner=update.lr_inner / c)
    else:
        adaptive = replace(adaptive, eps=c * adaptive.eps)
        if update.lr is not None:
            update = replace(update, lr=c * update.lr)
    return task, replace(spec, adaptive=adaptive, update=update)


# Every example holds rows of all 12 family x rule cells.  No shrink
# phase, as above.
@pytest.mark.parametrize("c", [2.0, 2.0**-3])
@settings(max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    betas=st.tuples(_drawn_rate("beta1"), _drawn_rate("beta2"), st.floats(1e-12, 1e-2)),
    cells=st.tuples(
        *[
            st.lists(
                st.tuples(
                    _RESCALABLE_TASK,
                    st.builds(UpdateRule, st.just(kind), **{n: _SAFE_RATE[n] for n in UpdateRule.FIELDS[kind]}),
                ),
                min_size=1,
                max_size=3,
            )
            for _, kind in _CONVEX_CELLS
        ]
    ),
)
def test_run_batch_of_rescaled_convex_tasks_scales_every_distance(c, betas, cells):
    """Power-of-two rescaling: each row's distances are c times the
    original's, bit for bit, so its score is the same; the same rows
    diverge, and the others run as many steps."""
    beta1, beta2, eps = betas
    pairs = [
        (task, make_spec(family, update, beta1=beta1, beta2=beta2, eps=eps))
        for (family, _), rows in zip(_CONVEX_CELLS, cells)
        for task, update in rows
    ]
    batch = run_batch(pairs)
    scaled = run_batch([_rescaled(task, spec, c) for task, spec in pairs])
    kept = ~batch.diverged
    assert scaled.diverged.tobytes() == batch.diverged.tobytes()
    assert scaled.initial_distance.tobytes() == (c * batch.initial_distance).tobytes()
    assert scaled.final_distance[kept].tobytes() == (c * batch.final_distance[kept]).tobytes()
    assert scaled.score.tobytes() == batch.score.tobytes()
    assert scaled.iterations_run[kept].tobytes() == batch.iterations_run[kept].tobytes()


def test_run_batch_of_shuffled_pairs_gives_each_row_the_same_bytes():
    """The kernel orders each population's rows by budget itself, so the
    order of the pairs changes no row's outcome or trajectory."""
    pairs = _oracle_pairs()
    order = np.random.default_rng(11).permutation(len(pairs))
    batch = run_batch(pairs, trajectories=True)
    shuffled = run_batch([pairs[i] for i in order], trajectories=True)
    for name in ("initial_distance", "final_distance", "score", "diverged", "iterations_run", "trajectories"):
        assert getattr(shuffled, name).tobytes() == getattr(batch, name)[order].tobytes(), name


@pytest.mark.parametrize(
    "function, x0, beta, rates",
    [
        ("convex2d", (50.0, 50.0), 20.0, (1e60, 1e306, 1e100)),
        ("rosenbrock", (0.5, 3.0), 60.0, (1e10, 1e160, 1e40)),
    ],
    ids=["convex2d", "rosenbrock"],
)
def test_kernel_matches_scalar_reference_where_budget_ends_and_divergence_share_a_step(
    step_log, function, x0, beta, rates
):
    """One sgd population with per-row rates, and per-row alpha and beta
    so that every row has gradient constants of its own.  Row 4 diverges
    on the step its budget of 1 ends and row 7 at step 2, where no budget
    ends; at step 3 row 1, one of three rows with a budget of 5, diverges
    while rows 0 and 6 reach their budgets.  Each of those three steps
    keeps by mask the rows that pass it; rows 0 and 6 then ride along
    until step 5, where rows 2 and 3 finish too and all four leave as a
    slice, so every kept row must carry its own constants through both
    kinds of keep."""
    # sgd rates that diverge at steps 3, 1 and 2 of the function's task.
    third, first, second = rates
    rows = [(3, 1e-3), (5, third), (5, 2e-3), (5, 1e-3), (1, first), (7, 1e-3), (3, 5e-3), (7, second)]
    pairs = [
        (TaskConfig(function, alpha=1.0 + i / 8, beta=beta + i, x0=x0, iterations=budget), _sgd(lr))
        for i, (budget, lr) in enumerate(rows)
    ]
    batch = run_batch(pairs, trajectories=True)
    assert batch.iterations_run.tolist() == [3, 2, 5, 5, 0, 7, 3, 1]
    assert batch.diverged.tolist() == [False, True, False, False, True, False, False, True]
    masked = {t for t, _, failed in step_log if failed}
    assert masked == {1, 2, 3}
    sizes = [rows for _, rows, _ in step_log]
    assert sizes == [8, 7, 6, 5, 5, 1, 1]
    assert sizes == _population_sizes(batch.iterations_run, batch.diverged, masked)
    for i, (task, spec) in enumerate(pairs):
        distances, reason = _reference_trial(task, spec)
        k = len(distances) - 1
        assert batch.iterations_run[i] == k and batch.diverged[i] == (reason is not None), i
        assert batch.trajectories[i, : k + 1].tobytes() == np.array(distances).tobytes(), i
        assert np.isnan(batch.trajectories[i, k + 1 :]).all(), i
        final = math.inf if reason is not None else distances[-1]
        assert batch.final_distance[i] == final, i


def test_kernel_measures_distances_only_where_it_writes_them(monkeypatch):
    """Without trajectories, a population measures its distances at the
    start and where rows finish, plus once on each step whose finiteness
    test fails; a tune grid whose rows share one budget and never diverge
    measures them twice."""
    calls = []

    def counted(x, point):
        calls.append(len(x))
        return point_distance(x, point)

    monkeypatch.setattr(harness, "point_distance", counted)
    grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[1e-4, 1e-3, 1e-2]))
    assert calls == [3, 3]
    # lr 1e60 reaches a distance of 7.8e126 at step 2, whose square is
    # below 2**1000; step 3 overflows, and its row diverges there.
    calls.clear()
    grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[1e-4, 1e-3, 1e60]))
    assert calls == [3, 3, 2]
    # lr 5 reaches a finite distance of 3.4e153 at step 46, whose square
    # fails the test, and overflows at step 47.
    calls.clear()
    grid_search(CONVEX, "sgd", "additive", grids=RateGrids(lr=[1e-3, 5.0]))
    assert calls == [2, 2, 2, 1]


def test_an_outlier_origin_masks_steps_only_while_its_row_is_live(monkeypatch):
    """A minimum whose squares sum past the finiteness test's bound sets
    the bound to 0, so every step fails the test and measures the live
    rows' distances.  Once that row diverges and leaves, the bound is
    worked out again, and the other rows measure theirs only at the end."""
    calls = []

    def counted(x, point):
        calls.append(len(x))
        return point_distance(x, point)

    monkeypatch.setattr(harness, "point_distance", counted)
    spec = make_spec("sgd", default_update_rule("sgd", "hybrid"))
    tasks = [replace(CONVEX, alpha=1.0 + 1e-3 * i) for i in range(9)] + [replace(CONVEX, alpha=2.0**510)]
    batch = run_batch([(task, spec) for task in tasks])
    assert batch.diverged.tolist() == [False] * 9 + [True]
    # The start, every step up to the one the outlier fails, and the end.
    assert calls == [10] * (batch.iterations_run[-1] + 2) + [9]


# ------------------------------------------------------ column draws

def _scalar_draw(dist, seed, index):
    """One task drawn field by field, as sample_eval_config drew it before
    draws came in columns: one default_rng([seed, index]) stream, beta
    redrawn until positive, the budget rounded and clamped to at least 1."""
    rng = np.random.default_rng([seed, index])

    def draw(sampler):
        return sampler.mean if sampler.std == 0.0 else float(rng.normal(sampler.mean, sampler.std))

    x0 = (draw(dist.x0[0]), draw(dist.x0[1]))
    alpha = draw(dist.alpha)
    beta = draw(dist.beta)
    while beta <= 0.0:
        beta = draw(dist.beta)
    return x0, alpha, beta, max(1, int(round(draw(dist.iterations))))


DRAW_CASES = {
    "convex2d": default_eval_distribution("convex2d"),
    "rosenbrock": default_eval_distribution("rosenbrock"),
    "fixed fields": EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0), Sampler(-3.0, 2.0)),
        alpha=Sampler(1.0),
        beta=Sampler(20.0, 0.0),
        iterations=Sampler(100.0),
    ),
    "beta redraws": EvalDistribution(
        function="rosenbrock",
        x0=(Sampler(0.5, 0.1), Sampler(3.0, 1.0)),
        alpha=Sampler(1.0, 0.5),
        beta=Sampler(0.1, 5.0),
        iterations=Sampler(50.0, 5.0),
    ),
    "budget rounding and clamp": EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0, 5.0), Sampler(50.0, 5.0)),
        alpha=Sampler(1.0, 1.0),
        beta=Sampler(20.0, 2.0),
        iterations=Sampler(1.0, 3.0),
    ),
    # beta is the last drawn field and redraws about half the time, so a
    # redraw has no later draw to shift down.
    "beta drawn last": EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0, 5.0), Sampler(50.0)),
        alpha=Sampler(1.0, 1.0),
        beta=Sampler(0.0, 1.0),
        iterations=Sampler(20.0),
    ),
}


@pytest.mark.parametrize("name", DRAW_CASES)
def test_column_draw_equals_per_index_draws_bitwise(name):
    dist = DRAW_CASES[name]
    n = 300
    tasks = draw_tasks(dist, 77, range(n))
    assert tasks.function == dist.function
    assert tasks.x0.shape == (n, 2) and tasks.iterations.dtype.kind == "i"
    budgets = set()
    for i in range(n):
        one = sample_eval_config(dist, 77, i)
        x0, alpha, beta, iterations = _scalar_draw(dist, 77, i)
        row = (tasks.x0[i, 0], tasks.x0[i, 1], tasks.alpha[i], tasks.beta[i])
        assert np.array(row).tobytes() == np.array([*one.x0, one.alpha, one.beta]).tobytes()
        assert np.array(row).tobytes() == np.array([*x0, alpha, beta]).tobytes()
        assert tasks.iterations[i] == one.iterations == iterations
        budgets.add(iterations)
    if name == "budget rounding and clamp":
        assert 1 in budgets and len(budgets) > 5


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_column_draw_equals_per_index_draws_at_seeds_and_indices_of_several_words(seed):
    """A seed or index of 2**32 and up is more than one entropy word."""
    dist = DRAW_CASES["beta redraws"]
    indices = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]
    tasks = draw_tasks(dist, seed, indices)
    for row, index in enumerate(indices):
        one = sample_eval_config(dist, seed, index)
        x0, alpha, beta, iterations = _scalar_draw(dist, seed, index)
        drawn = (tasks.x0[row, 0], tasks.x0[row, 1], tasks.alpha[row], tasks.beta[row])
        assert np.array(drawn).tobytes() == np.array([*one.x0, one.alpha, one.beta]).tobytes()
        assert np.array(drawn).tobytes() == np.array([*x0, alpha, beta]).tobytes()
        assert tasks.iterations[row] == one.iterations == iterations


@pytest.mark.parametrize("seed, index", [(0, -1), (-1, 0), (-(2**40), 3)])
def test_negative_seed_or_index_raises_as_default_rng_does(seed, index):
    dist = DRAW_CASES["convex2d"]
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([seed, index])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        draw_tasks(dist, seed, [index])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        sample_eval_config(dist, seed, index)


SEEDING_SEEDS = [0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5]
SEEDING_INDICES = [0, 1, 99, 2**32 - 1, 2**32, 2**64 + 3]


def _default_rng_state(words):
    return np.random.default_rng(np.array(words, dtype=np.uint32)).bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", SEEDING_SEEDS)
def test_stream_states_equal_default_rng_states(seed):
    """The vectorized seeding gives the state default_rng builds from the
    same words, and from [seed, index] itself, whether the rows come
    together or one at a time."""
    rows = [_entropy_words(seed) + _entropy_words(index) for index in SEEDING_INDICES]
    states = _pcg64_states(rows)
    assert states == [_default_rng_state(words) for words in rows]
    assert states == [np.random.default_rng([seed, index]).bit_generator.state for index in SEEDING_INDICES]
    for words, state in zip(rows, states):
        assert _pcg64_states([words]) == [state]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stream_states_of_rows_with_mixed_entropy_lengths_in_one_call():
    """Rows of 2 to 7 words, interleaved, hash in groups by length and come
    back in input order; rows past four words take the extra-word mixing."""
    rows = [_entropy_words(seed) + _entropy_words(index) for index in SEEDING_INDICES for seed in SEEDING_SEEDS]
    assert {len(words) for words in rows} == {2, 3, 4, 5, 6, 7}
    assert _pcg64_states(rows) == [_default_rng_state(words) for words in rows]


def test_column_draw_builds_no_per_index_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("draw_tasks called default_rng")

    dist = DRAW_CASES["beta redraws"]
    expected = draw_tasks(dist, 2024, range(20))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    tasks = draw_tasks(dist, 2024, range(20))
    for name in ("alpha", "beta", "x0", "iterations"):
        assert getattr(tasks, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("budget, rounded", [(0.5, 1), (1.5, 2), (2.5, 2), (3.5, 4), (-7.0, 1)])
def test_column_draw_rounds_budgets_half_to_even_and_clamps(budget, rounded):
    dist = replace(DRAW_CASES["fixed fields"], iterations=Sampler(budget))
    assert draw_tasks(dist, 0, range(3)).iterations.tolist() == [rounded] * 3
    assert _scalar_draw(dist, 0, 0)[3] == rounded


def test_infinitely_negative_budget_draw_clamps_to_one():
    # At seed 1 the third draw overflows to -inf and the others stay
    # finite and below zero; rounding -inf used to raise OverflowError.
    dist = EvalDistribution(
        function="convex2d",
        x0=(Sampler(50.0), Sampler(50.0)),
        alpha=Sampler(1.0),
        beta=Sampler(20.0),
        iterations=Sampler(-1e308, 1e308),
    )
    assert draw_tasks(dist, 1, range(4)).iterations.tolist() == [1, 1, 1, 1]


def test_column_draw_of_no_indices_gives_empty_columns():
    tasks = draw_tasks(DRAW_CASES["convex2d"], 0, [])
    assert tasks.function == "convex2d"
    assert tasks.alpha.shape == tasks.beta.shape == tasks.iterations.shape == (0,)
    assert tasks.x0.shape == (0, 2) and tasks.iterations.dtype.kind == "i"


def test_robustness_equals_run_batch_over_per_index_tasks_bitwise():
    for function, lr in (("convex2d", 1e-3), ("rosenbrock", 5e-3)):
        dist = default_eval_distribution(function)
        spec = _sgd(lr)
        stats = evaluate_robustness(dist, spec, n=60, seed=11)
        pairs = [(sample_eval_config(dist, 11, i), spec) for i in range(60)]
        assert np.array(stats.scores).tobytes() == run_batch(pairs).score.tobytes()


@pytest.mark.parametrize("function", ["convex2d", "rosenbrock"])
@pytest.mark.parametrize("kind", UPDATE_KINDS)
def test_surface_scan_equals_run_batch_over_moved_tasks_bitwise(function, kind):
    if function == "convex2d":
        task = TaskConfig(function, alpha=1.0, beta=20.0, x0=(50.0, 50.0), iterations=40)
    else:
        task = TaskConfig(function, alpha=1.0, beta=60.0, x0=(0.5, 3.0), iterations=40)
    family = "adagrad" if kind == "multiplicative" else "sgd"
    spec = make_spec(family, default_update_rule(family, kind))
    grid = surface_scan(task, spec, x0_range=(-2.0, 3.0), x1_range=(-1.0, 4.0), grid_size=9)
    pairs = [
        (replace(task, x0=(float(a), float(b))), spec)
        for a in grid.x0_axis
        for b in grid.x1_axis
    ]
    assert grid.scores.tobytes() == run_batch(pairs).score.reshape(9, 9).tobytes()


def test_rate_columns_apply_each_rows_rule_bitwise():
    """Per-row rate columns, bound by a population with blend weights
    worked out once for the whole column, give each row the bits of its
    own scalar rule, including rows at mix 0 or 1 whose other component is
    not finite."""
    rules = [
        UpdateRule("hybrid", lr=0.1, lr_inner=1.0, lr_outer=0.5, mix=mix)
        for mix in (0.0, 0.3, 1.0, 1.0, 0.0)
    ]
    # Row 0's multiplicative part is inf (theta is), row 2's additive part
    # is inf (m * l overflows); the other rows are ordinary.
    theta = np.array([[math.inf, -1.0], [2.0, 3.0], [2.0, -4.0], [0.5, 1.0], [2.0, 1.0]])
    m = np.array([[1.0, 1.0], [0.5, -2.0], [1e300, -1e300], [0.1, 0.2], [1.0, 0.3]])
    l = np.array([[1.0, 1.0], [1.0, 0.5], [1e10, 1e10], [1.0, 1.0], [1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        bound = optim.Population(make_spec("sgd", RateColumns.stack("hybrid", rules)), theta).spec.update
        delta = optim.apply_update(bound, theta, m, l)
        for i, rule in enumerate(rules):
            assert np.array_equal(delta[i], optim.apply_update(rule, theta[i], m[i], l[i])), i
    assert np.isfinite(delta).all()
