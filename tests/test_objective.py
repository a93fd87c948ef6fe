import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puselect import objective
from puselect.data import Dataset
from puselect.models import LinearParams, ModelKind, PsychmParams, psychm_posterior, sigmoid
from puselect.objective import (
    LOG_CLAMP,
    RATE_LOGIT_BOUND,
    RegConfig,
    constrain_rates,
    free_param_length,
    make_loss_functions,
    unconstrain_rates,
    unpack,
)
from puselect.optimize import _FTOL, OptimizerConfig, minimize


def _random_dataset(rng, n=10, d=3):
    x = rng.normal(size=(n, d))
    l = rng.integers(0, 2, size=n)
    if l.sum() == 0:
        l[0] = 1
    if l.sum() == n:
        l[0] = 0
    return Dataset(x=x, l=l)


def _for_kind(data, kind):
    """The oracle fits y: its data carries the flags as classes, with no
    row annotated, so a fit of l would see another likelihood."""
    if kind == ModelKind.REAL_ORACLE:
        return Dataset(x=data.x, l=np.zeros(data.n, dtype=int), y=data.l)
    return data


# The two annotation models and the one-factor layout of the baselines;
# Elkan's annotation model is the naive layout on its training part.
ENGINE_KINDS = [ModelKind.SPM, ModelKind.PSYCHM, ModelKind.NAIVE, ModelKind.REAL_ORACLE]


def _random_theta(rng, kind, d):
    return rng.normal(0.0, 1.0, size=free_param_length(kind, d))


def _loss_and_grad(data, kind, theta, reg):
    """The loss and its gradient at ``theta`` from a fresh engine."""
    return make_loss_functions(data, kind, reg)[1](theta)


def _spm_log_likelihood(data, params):
    """The log-likelihood of two-factor parameters at rates (0, 0), on the
    sigmoid-product layout packed by hand."""
    assert (params.guess, params.lapse) == (0.0, 0.0)
    sel, tgt = params.selection, params.target
    theta = np.concatenate([sel.w, [sel.b], tgt.w, [tgt.b]])
    return -_loss_and_grad(data, ModelKind.SPM, theta, RegConfig())[0]


def _clamped_log_likelihood(data, params):
    """The log-likelihood of ``params`` summed row by row from
    ``psychm_posterior``, each row's probability clamped as the engine does."""
    q = psychm_posterior(data.x, params)
    rows = np.where(data.l == 1, q, 1.0 - q)
    return float(np.sum(np.log(np.clip(rows, LOG_CLAMP, 1.0 - LOG_CLAMP))))


class TestRateReparameterization:
    def test_zero_surrogates_split_evenly(self):
        # the three logits (0, 0, 0) share the unit interval equally
        guess, lapse = constrain_rates(0.0, 0.0)
        assert abs(guess - 1.0 / 3.0) <= 1e-16 and guess == lapse

    def test_unit_surrogates(self):
        guess, lapse = constrain_rates(1.0, 1.0)
        e = np.exp(1.0)
        assert abs(guess - e / (1.0 + 2.0 * e)) <= 1e-16
        assert guess == lapse

    def test_softmax_values(self):
        # the map is not symmetric in sign, unlike the former |.| map
        guess, lapse = constrain_rates(-2.0, 0.0)
        denom = 2.0 + np.exp(-2.0)
        assert abs(guess - np.exp(-2.0) / denom) <= 1e-16
        assert abs(lapse - 1.0 / denom) <= 1e-16
        assert constrain_rates(2.0, 0.0) != (guess, lapse)

    def test_always_feasible(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-1e6, 1e6, size=(2000, 2))
        for g_raw, l_raw in raw:
            guess, lapse = constrain_rates(g_raw, l_raw)
            assert guess >= 0 and lapse >= 0 and guess + lapse < 1.0

    def test_roundtrip(self):
        guess, lapse = constrain_rates(*unconstrain_rates(0.5, 0.25))
        assert abs(guess - 0.5) <= 1e-12 and abs(lapse - 0.25) <= 1e-12

    def test_inverse_rejects_infeasible(self):
        with pytest.raises(ValueError):
            unconstrain_rates(0.7, 0.3)

    def test_inverse_rejects_zero_rates(self):
        # a rate of 0 lies outside the softmax's range
        for rates in ((0.0, 0.1), (0.1, 0.0)):
            with pytest.raises(ValueError):
                unconstrain_rates(*rates)

    @pytest.mark.parametrize(
        "surrogates", [(0.0, 60.0), (60.0, 0.0), (60.0, 60.0), (-800.0, 800.0), (800.0, -800.0)]
    )
    def test_extreme_surrogates_stay_valid(self, surrogates):
        # Unclipped, (0, 60) rounds lapse to exactly 1 and (60, 60) the span
        # to exactly 0.  Clipped, the rates are valid psychometric rates and
        # the engine's loss and gradient stay finite.
        guess, lapse = constrain_rates(*surrogates)
        assert guess + lapse < 1.0 and lapse < 1.0
        rng = np.random.default_rng(13)
        data = _random_dataset(rng, n=30, d=2)
        theta = _random_theta(rng, ModelKind.PSYCHM, 2)
        theta[3:5] = surrogates
        params = unpack(ModelKind.PSYCHM, theta, 2)
        assert (params.guess, params.lapse) == (guess, lapse)
        value, grad = _loss_and_grad(data, ModelKind.PSYCHM, theta, RegConfig())
        assert np.isfinite(value)
        np.testing.assert_allclose(value, -_clamped_log_likelihood(data, params), rtol=1e-12)
        assert np.all(np.isfinite(grad))


class TestPacking:
    # Each round trip packs by hand, in the layout the module docstring gives.
    def test_spm_roundtrip(self):
        rng = np.random.default_rng(1)
        p = PsychmParams(
            selection=LinearParams(w=rng.normal(size=4), b=0.3),
            guess=0.0,
            lapse=0.0,
            target=LinearParams(w=rng.normal(size=4), b=-1.1),
        )
        theta = np.concatenate([p.selection.w, [p.selection.b], p.target.w, [p.target.b]])
        q = unpack(ModelKind.SPM, theta, 4)
        assert isinstance(q, PsychmParams) and (q.guess, q.lapse) == (0.0, 0.0)
        np.testing.assert_array_equal(q.selection.w, p.selection.w)
        np.testing.assert_array_equal(q.target.w, p.target.w)
        assert q.selection.b == p.selection.b and q.target.b == p.target.b

    def test_psychm_roundtrip_rates_within_tolerance(self):
        rng = np.random.default_rng(2)
        p = PsychmParams(
            selection=LinearParams(w=rng.normal(size=3), b=0.2),
            guess=0.3,
            lapse=0.15,
            target=LinearParams(w=rng.normal(size=3), b=0.9),
        )
        sel, tgt = p.selection, p.target
        theta = np.concatenate([sel.w, [sel.b, *unconstrain_rates(0.3, 0.15)], tgt.w, [tgt.b]])
        q = unpack(ModelKind.PSYCHM, theta, 3)
        assert abs(q.guess - 0.3) <= 1e-12 and abs(q.lapse - 0.15) <= 1e-12
        np.testing.assert_array_equal(q.selection.w, sel.w)
        np.testing.assert_array_equal(q.target.w, tgt.w)
        assert q.selection.b == sel.b and q.target.b == tgt.b

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_unpack_reads_every_layout(self, kind):
        # Each vector is packed by hand; a wrong length is named with the
        # count the layout expects.
        rng = np.random.default_rng(6)
        d = 3
        sel_w, tgt_w = rng.normal(size=d), rng.normal(size=d)
        surrogates = (-1.2, -2.5)
        layout = {
            ModelKind.SPM: [sel_w, [0.4], tgt_w, [-0.7]],
            ModelKind.PSYCHM: [sel_w, [0.4], surrogates, tgt_w, [-0.7]],
        }.get(kind, [tgt_w, [-0.7]])
        theta = np.concatenate(layout)
        params = unpack(kind, theta, d)
        if kind in (ModelKind.SPM, ModelKind.PSYCHM):
            assert isinstance(params, PsychmParams)
            np.testing.assert_array_equal(params.selection.w, sel_w)
            assert params.selection.b == 0.4
            target = params.target
        else:
            assert isinstance(params, LinearParams)
            target = params
        if kind == ModelKind.SPM:
            assert (params.guess, params.lapse) == (0.0, 0.0)
        if kind == ModelKind.PSYCHM:
            assert (params.guess, params.lapse) == constrain_rates(*surrogates)
        np.testing.assert_array_equal(target.w, tgt_w)
        assert target.b == -0.7
        with pytest.raises(ValueError, match=f"expected {theta.size} free parameters"):
            unpack(kind, np.append(theta, 0.0), d)

    def test_lengths(self):
        assert free_param_length(ModelKind.SPM, 5) == 12
        assert free_param_length(ModelKind.PSYCHM, 5) == 14
        for kind in (ModelKind.NAIVE, ModelKind.ELKAN, ModelKind.REAL_ORACLE):
            assert free_param_length(kind, 5) == 6


class TestConditionalLogLikelihood:
    def test_perfect_labeled_fit_is_near_zero(self):
        data = Dataset(x=np.zeros((1, 1)), l=np.array([1]))
        p = PsychmParams(
            selection=LinearParams(w=np.zeros(1), b=40.0),
            guess=0.0,
            lapse=0.0,
            target=LinearParams(w=np.zeros(1), b=40.0),
        )
        assert abs(_spm_log_likelihood(data, p)) <= 1e-11

    def test_hand_evaluated_unlabeled_term(self):
        # s = t = 1/2 at the origin, so the unlabeled term is log(1 - 1/4)
        data = Dataset(x=np.zeros((1, 2)), l=np.array([0]))
        p = PsychmParams(
            selection=LinearParams(w=np.zeros(2), b=0.0),
            guess=0.0,
            lapse=0.0,
            target=LinearParams(w=np.zeros(2), b=0.0),
        )
        got = _spm_log_likelihood(data, p)
        assert abs(got - np.log(0.75)) <= 1e-15
        assert abs(got - (-0.2876820724517809)) <= 1e-15

    def test_additivity_under_duplication(self):
        rng = np.random.default_rng(3)
        data = _random_dataset(rng, n=37, d=3)
        doubled = Dataset(x=np.vstack([data.x, data.x]), l=np.concatenate([data.l, data.l]))
        p = unpack(ModelKind.SPM, _random_theta(rng, ModelKind.SPM, 3), 3)
        one = _spm_log_likelihood(data, p)
        two = _spm_log_likelihood(doubled, p)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-13)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(4)
        data = _random_dataset(rng, n=50, d=2)
        perm = rng.permutation(50)
        shuffled = Dataset(x=data.x[perm], l=data.l[perm])
        theta = _random_theta(rng, ModelKind.PSYCHM, 2)
        np.testing.assert_allclose(
            _loss_and_grad(data, ModelKind.PSYCHM, theta, RegConfig())[0],
            _loss_and_grad(shuffled, ModelKind.PSYCHM, theta, RegConfig())[0],
            rtol=1e-12,
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((0, 2)), l=np.zeros(0))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_input_checks(self, kind):
        # A vector of another length, such as the layout's for another
        # feature count, is named with the count the layout expects; the
        # oracle cannot be built on data without ground-truth classes.
        data = Dataset(x=np.zeros((2, 3)), l=np.array([0, 1]), y=np.array([0, 1]))
        n_free = free_param_length(kind, 3)
        value, value_and_grad = make_loss_functions(data, kind, RegConfig())
        for theta in (np.zeros(free_param_length(kind, 2)), np.zeros(n_free + 1), np.zeros((1, n_free))):
            for call in (value, value_and_grad):
                with pytest.raises(ValueError, match=f"expected {n_free} free parameters"):
                    call(theta)
        no_y = Dataset(x=data.x, l=data.l)
        if kind == ModelKind.REAL_ORACLE:
            with pytest.raises(ValueError, match="ground-truth classes y"):
                make_loss_functions(no_y, kind, RegConfig())
        else:
            assert np.isfinite(make_loss_functions(no_y, kind, RegConfig())[0](np.zeros(n_free)))


class TestLoss:
    def test_no_penalty_equals_negated_likelihood(self):
        rng = np.random.default_rng(5)
        data = _random_dataset(rng, n=25, d=4)
        theta = _random_theta(rng, ModelKind.PSYCHM, 4)
        params = unpack(ModelKind.PSYCHM, theta, 4)
        np.testing.assert_allclose(
            _loss_and_grad(data, ModelKind.PSYCHM, theta, RegConfig())[0],
            -_clamped_log_likelihood(data, params),
            rtol=1e-12,
        )

    def test_zero_weights_have_zero_penalty(self):
        data = Dataset(x=np.array([[1.0, 2.0]]), l=np.array([1]))
        theta = np.array([0.0, 0.0, 0.3, 0.0, 0.0, -0.2])
        reg = RegConfig(c_sel=5.0, c_tgt=7.0)
        assert _loss_and_grad(data, ModelKind.SPM, theta, reg)[0] == _loss_and_grad(
            data, ModelKind.SPM, theta, RegConfig()
        )[0]

    def test_hand_computed_penalty(self):
        data = Dataset(x=np.zeros((1, 2)), l=np.array([1]))
        theta = np.array([3.0, 4.0, 0.0, 1.0, 0.0, 0.0])  # sel.w=(3,4), tgt.w=(1,0)
        reg = RegConfig(c_sel=1.0, c_tgt=2.0)
        value = _loss_and_grad(data, ModelKind.SPM, theta, reg)[0]
        penalty = value - _loss_and_grad(data, ModelKind.SPM, theta, RegConfig())[0]
        assert penalty == 27.0

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_penalty_rejected(self, c):
        for reg in (dict(c_sel=c), dict(c_tgt=c)):
            with pytest.raises(ValueError, match="finite and >= 0"):
                RegConfig(**reg)

    def test_loss_dominates_negated_likelihood(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            data = _random_dataset(rng, n=15, d=2)
            theta = _random_theta(rng, ModelKind.SPM, 2)
            reg = RegConfig(c_sel=float(rng.uniform(0, 3)), c_tgt=float(rng.uniform(0, 3)))
            baseline = -_spm_log_likelihood(data, unpack(ModelKind.SPM, theta, 2))
            value = _loss_and_grad(data, ModelKind.SPM, theta, reg)[0]
            assert value >= baseline
            penalty = value - baseline
            assert (penalty == 0.0) == (
                reg.c_sel * float(np.sum(np.abs(theta[:2])))
                + reg.c_tgt * float(np.sum(np.abs(theta[3:5]))) == 0.0
            )

    def test_clamping_transparent_for_moderate_posteriors(self, monkeypatch):
        # When every row's probability is comfortably inside [1e-6, 1-1e-6]
        # the clamped likelihood and its gradient are bit-identical to the
        # unclamped ones: the same engine with the clamp interval widened to
        # [0, 1], where clipping a probability is a no-op.
        reg = RegConfig(c_sel=0.2, c_tgt=0.1)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = _random_dataset(rng, n=40, d=2)
            theta = 0.5 * _random_theta(rng, ModelKind.SPM, 2)
            params = unpack(ModelKind.SPM, theta, 2)
            s = sigmoid(data.x @ params.selection.w + params.selection.b)
            t = sigmoid(data.x @ params.target.w + params.target.b)
            q = s * t
            assert q.min() > 1e-6 and q.max() < 1 - 1e-6
            clamped = _loss_and_grad(data, ModelKind.SPM, theta, reg)
            with monkeypatch.context() as m:
                m.setattr(objective, "LOG_CLAMP", 0.0)
                raw = _loss_and_grad(data, ModelKind.SPM, theta, reg)
            assert clamped[0] == raw[0]
            np.testing.assert_array_equal(clamped[1], raw[1])
            pos = data.l == 1
            by_hand = float(np.sum(np.log(q[pos]))) + float(np.sum(np.log(1.0 - q[~pos])))
            np.testing.assert_allclose(_spm_log_likelihood(data, params), by_hand, rtol=1e-12)


class FiniteDifferenceMixin:
    rel_tol = 1e-5
    abs_tol = 1e-8
    step = 1e-5

    def check_gradient(self, data, kind, theta, reg):
        value, value_and_grad = make_loss_functions(data, kind, reg)
        self.check_against_differences(value, value_and_grad(theta)[1], theta, kind)

    def check_against_differences(self, value, grad, theta, context):
        for j in range(theta.size):
            bump = np.zeros_like(theta)
            bump[j] = self.step
            fd = (value(theta + bump) - value(theta - bump)) / (2 * self.step)
            if abs(fd) >= self.abs_tol:
                assert abs(grad[j] - fd) / abs(fd) <= self.rel_tol, (context, j, grad[j], fd)
            else:
                assert abs(grad[j] - fd) <= self.abs_tol, (context, j, grad[j], fd)


class TestLossGradient(FiniteDifferenceMixin):
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            data = _for_kind(_random_dataset(rng, n=10, d=d), kind)
            theta = _random_theta(rng, kind, d)
            reg = RegConfig(c_sel=float(rng.uniform(0, 2)), c_tgt=float(rng.uniform(0, 2)))
            self.check_gradient(data, kind, theta, reg)

    def test_stationary_point_has_small_gradient(self):
        # The relative-decrease stop ends this fit at iteration 7 with a
        # gradient norm of 1.1e-5, above the grad_tol it asks for, but at a
        # stationary point: the decrease a Newton step still predicts,
        # g H^-1 g / 2 with H from central differences of the gradient,
        # lies below the stop's own tolerance.
        rng = np.random.default_rng(8)
        data = _random_dataset(rng, n=60, d=2)
        reg = RegConfig(c_sel=0.5, c_tgt=0.5)
        value, value_and_grad = make_loss_functions(data, ModelKind.SPM, reg)
        cfg = OptimizerConfig(grad_tol=1e-7, max_iters=3000)
        result = minimize(value, value_and_grad, 0.1 * np.ones(6), cfg)
        assert result.converged and result.iterations < 20
        grad = _loss_and_grad(data, ModelKind.SPM, result.params, reg)[1]
        assert np.linalg.norm(grad) <= 1e-4
        step = 1e-5
        hessian = np.array([
            (value_and_grad(result.params + step * e)[1] - value_and_grad(result.params - step * e)[1])
            / (2 * step)
            for e in np.eye(6)
        ])
        remaining = 0.5 * float(grad @ np.linalg.solve(hessian, grad))
        assert 0.0 <= remaining <= _FTOL * abs(result.loss)

    def test_duplication_doubles_data_term_only(self):
        rng = np.random.default_rng(9)
        data = _random_dataset(rng, n=20, d=3)
        doubled = Dataset(x=np.vstack([data.x, data.x]), l=np.concatenate([data.l, data.l]))
        theta = _random_theta(rng, ModelKind.PSYCHM, 3)
        reg = RegConfig(c_sel=1.5, c_tgt=0.5)
        reg0 = RegConfig()
        grad = lambda rows, r: _loss_and_grad(rows, ModelKind.PSYCHM, theta, r)[1]
        np.testing.assert_allclose(
            grad(doubled, reg0),
            2.0 * grad(data, reg0),
            rtol=1e-12,
            atol=1e-12,
        )
        pen_single = grad(data, reg) - grad(data, reg0)
        pen_double = grad(doubled, reg) - grad(doubled, reg0)
        # extracting the penalty by subtraction leaves ~eps-size residue of
        # the (different) data terms, so compare tightly rather than exactly
        np.testing.assert_allclose(pen_single, pen_double, atol=1e-12, rtol=0)

    def test_rate_gradient_is_smooth(self):
        # (0, 0) was the kink of the former |.| map; the softmax's gradient
        # there, and far into its tails, matches central differences.
        rng = np.random.default_rng(10)
        data = _random_dataset(rng, n=15, d=2)
        theta = _random_theta(rng, ModelKind.PSYCHM, 2)
        for surrogates in ((0.0, 0.0), (0.0, -3.0), (25.0, -25.0)):
            theta[3:5] = surrogates
            self.check_gradient(data, ModelKind.PSYCHM, theta, RegConfig())
            assert np.all(_loss_and_grad(data, ModelKind.PSYCHM, theta, RegConfig())[1][3:5] != 0.0)

    def test_surrogate_past_the_bound_has_zero_gradient(self):
        rng = np.random.default_rng(14)
        data = _random_dataset(rng, n=15, d=2)
        theta = _random_theta(rng, ModelKind.PSYCHM, 2)
        theta[3:5] = (-RATE_LOGIT_BOUND - 1.0, 0.5)
        at_bound = theta.copy()
        at_bound[3] = -RATE_LOGIT_BOUND
        value, value_and_grad = make_loss_functions(data, ModelKind.PSYCHM, RegConfig())
        grad = value_and_grad(theta)[1]
        assert grad[3] == 0.0 and grad[4] != 0.0
        assert value(theta) == value(at_bound)


def _one_row(kind, annotated, score):
    """One row of data and a theta that gives each factor of ``kind`` the
    same affine score, ``score`` in total over the factors."""
    factors = 2 if kind == ModelKind.SPM else 1
    data = Dataset(x=np.array([[0.5, -0.3]]), l=np.array([annotated]))
    theta = np.zeros(free_param_length(kind, 2))
    theta[2::3] = score / factors  # the biases; the weights are zero
    return data, theta


class TestRowClamp(FiniteDifferenceMixin):
    """A row's log argument, s t for a positive row and 1 - s t otherwise
    (t alone with one factor), is clamped as a whole."""

    @pytest.mark.parametrize("annotated, score", [(1, -30.0), (0, 60.0)])
    @pytest.mark.parametrize("kind", [ModelKind.SPM, ModelKind.NAIVE])
    def test_clamped_row_contributes_the_clamp_and_no_gradient(self, kind, annotated, score):
        # The log argument is below 1e-12: the row adds exactly
        # log(LOG_CLAMP), and nothing to the gradient.
        data, theta = _one_row(kind, annotated, score)
        value, value_and_grad = make_loss_functions(data, kind, RegConfig())
        f, grad = value_and_grad(theta)
        assert f == value(theta) == -np.log(LOG_CLAMP)
        np.testing.assert_array_equal(grad, 0.0)

    def test_matches_central_differences_just_inside(self):
        # s t is about 1.4e-11, inside the clamp by a factor of 14, with
        # s = t = 3.7e-6.  (One factor cannot be checked this way: the
        # sigmoid resolves t = 1.4e-11 only to about 1e-16, which is noise
        # of 1e-5 relative in log t.)
        data, theta = _one_row(ModelKind.SPM, 1, -25.0)
        reg = RegConfig(c_sel=0.3, c_tgt=0.2)
        assert _loss_and_grad(data, ModelKind.SPM, theta, reg)[0] < -np.log(LOG_CLAMP)
        self.check_gradient(data, ModelKind.SPM, theta, reg)


def _plain_log_likelihood(data, kind, theta):
    """The observed-data log-likelihood written out per row, unclamped."""
    d = data.dim
    if kind in (ModelKind.SPM, ModelKind.PSYCHM):
        params = unpack(kind, theta, d)
        guess, lapse = (params.guess, params.lapse) if kind == ModelKind.PSYCHM else (0.0, 0.0)
        sel, tgt = params.selection, params.target
        s = guess + (1.0 - guess - lapse) / (1.0 + np.exp(-(data.x @ sel.w + sel.b)))
        q = s / (1.0 + np.exp(-(data.x @ tgt.w + tgt.b)))
        labels = data.l
    else:
        q = 1.0 / (1.0 + np.exp(-(data.x @ theta[:d] + theta[d])))
        labels = data.y if kind == ModelKind.REAL_ORACLE else data.l
    return float(np.sum(np.where(labels == 1, np.log(q), np.log1p(-q))))


class TestPlainFormula:
    @settings(derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        flags=st.sampled_from(["mixed", "all", "none"]),
        kind=st.sampled_from(ENGINE_KINDS),
    )
    def test_value_matches_per_row_formula(self, seed, n, d, flags, kind):
        # Every layout's one pass over all rows, against the likelihood
        # summed row by row, with all rows annotated, none, or some.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n) if flags == "mixed" else np.full(n, int(flags == "all"))
        data = _for_kind(Dataset(x=rng.normal(size=(n, d)), l=labels), kind)
        theta = _random_theta(rng, kind, d)
        np.testing.assert_allclose(
            -_loss_and_grad(data, kind, theta, RegConfig())[0],
            _plain_log_likelihood(data, kind, theta),
            rtol=1e-12,
        )


class TestLogisticGradient(FiniteDifferenceMixin):
    """The one-factor layout that the naive, Elkan and oracle baselines fit."""

    @settings(derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        c_w=st.floats(0.0, 2.0),
    )
    def test_matches_central_differences(self, seed, n, d, c_w):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        targets = rng.integers(0, 2, size=n)
        theta = rng.normal(size=d + 1)
        value, value_and_grad = make_loss_functions(
            Dataset(x=x, l=targets), ModelKind.NAIVE, RegConfig(c_tgt=c_w)
        )
        f, grad = value_and_grad(theta)
        assert f == value(theta)
        self.check_against_differences(value, grad, theta, (n, d, c_w))


class TestFastClosures:
    @pytest.mark.parametrize("flags", ["mixed", "all", "none"])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_fused_matches_reference(self, kind, flags):
        # The value closure and a reused engine must give a fresh engine's
        # bits, also when every row has the same (base, sign) pair: all
        # annotated or none.
        rng = np.random.default_rng(11)
        data = _random_dataset(rng, n=30, d=3)
        if flags != "mixed":
            data = Dataset(x=data.x, l=np.full(data.n, int(flags == "all")))
        data = _for_kind(data, kind)
        reg = RegConfig(c_sel=0.2, c_tgt=0.1)
        value, value_and_grad = make_loss_functions(data, kind, reg)
        for _ in range(5):
            theta = _random_theta(rng, kind, 3)
            probe = value(theta)
            f, g = value_and_grad(theta)
            fresh_f, fresh_g = _loss_and_grad(data, kind, theta, reg)
            assert probe == fresh_f
            assert f == fresh_f
            assert value(theta) == fresh_f
            np.testing.assert_array_equal(g, fresh_g)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_repeated_calls_are_independent(self, kind):
        # The engine reuses its work arrays across calls; each call must
        # still return a gradient of its own that later calls leave intact.
        rng = np.random.default_rng(12)
        data = _for_kind(_random_dataset(rng, n=40, d=3), kind)
        reg = RegConfig(c_sel=0.2, c_tgt=0.1)
        _, value_and_grad = make_loss_functions(data, kind, reg)
        thetas = [_random_theta(rng, kind, 3) for _ in range(3)]
        first = [value_and_grad(theta)[1] for theta in thetas]
        kept = [g.copy() for g in first]
        for theta, g, k in zip(thetas, first, kept):
            np.testing.assert_array_equal(value_and_grad(theta)[1], k)
            np.testing.assert_array_equal(g, k)
            np.testing.assert_array_equal(k, _loss_and_grad(data, kind, theta, reg)[1])
