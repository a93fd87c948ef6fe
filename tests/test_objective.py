import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puselect.data import Dataset
from puselect.models import LinearParams, ModelKind, PsychmParams, SpmParams, sigmoid
from puselect.objective import (
    RegConfig,
    PenaltyNorm,
    conditional_log_likelihood,
    constrain_rates,
    free_param_length,
    loss,
    loss_gradient,
    make_loss_functions,
    pack_psychm,
    pack_spm,
    unconstrain_rates,
    unpack_psychm,
    unpack_spm,
)
from puselect.optimize import OptimizerConfig, minimize


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
    theta = rng.normal(0.0, 1.0, size=free_param_length(kind, d))
    if kind == ModelKind.PSYCHM:
        # keep the rate surrogates away from the |.| kink so central
        # differences see a smooth function
        theta[d + 1] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        theta[d + 2] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
    return theta


class TestRateReparameterization:
    def test_zero_maps_to_zero(self):
        assert constrain_rates(0.0, 0.0) == (0.0, 0.0)

    def test_unit_surrogates(self):
        guess, lapse = constrain_rates(1.0, 1.0)
        assert abs(guess - 1.0 / 3.0) <= 1e-16
        assert abs(lapse - 1.0 / 3.0) <= 1e-16

    def test_absolute_value_behavior(self):
        guess, lapse = constrain_rates(-2.0, 0.0)
        assert abs(guess - 2.0 / 3.0) <= 1e-16
        assert lapse == 0.0

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


class TestPacking:
    def test_spm_roundtrip(self):
        rng = np.random.default_rng(1)
        p = SpmParams(
            selection=LinearParams(w=rng.normal(size=4), b=0.3),
            target=LinearParams(w=rng.normal(size=4), b=-1.1),
        )
        q = unpack_spm(pack_spm(p), 4)
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
        q = unpack_psychm(pack_psychm(p), 3)
        assert abs(q.guess - 0.3) <= 1e-12 and abs(q.lapse - 0.15) <= 1e-12

    def test_lengths(self):
        assert free_param_length(ModelKind.SPM, 5) == 12
        assert free_param_length(ModelKind.PSYCHM, 5) == 14
        for kind in (ModelKind.NAIVE, ModelKind.ELKAN, ModelKind.REAL_ORACLE):
            assert free_param_length(kind, 5) == 6


class TestConditionalLogLikelihood:
    def test_perfect_labeled_fit_is_near_zero(self):
        data = Dataset(x=np.zeros((1, 1)), l=np.array([1]))
        p = SpmParams(
            selection=LinearParams(w=np.zeros(1), b=40.0),
            target=LinearParams(w=np.zeros(1), b=40.0),
        )
        assert abs(conditional_log_likelihood(data, p)) <= 1e-11

    def test_hand_evaluated_unlabeled_term(self):
        # s = t = 1/2 at the origin, so the unlabeled term is log(1 - 1/4)
        data = Dataset(x=np.zeros((1, 2)), l=np.array([0]))
        p = SpmParams(
            selection=LinearParams(w=np.zeros(2), b=0.0),
            target=LinearParams(w=np.zeros(2), b=0.0),
        )
        got = conditional_log_likelihood(data, p)
        assert abs(got - np.log(0.75)) <= 1e-15
        assert abs(got - (-0.2876820724517809)) <= 1e-15

    def test_additivity_under_duplication(self):
        rng = np.random.default_rng(3)
        data = _random_dataset(rng, n=37, d=3)
        doubled = Dataset(x=np.vstack([data.x, data.x]), l=np.concatenate([data.l, data.l]))
        p = unpack_spm(_random_theta(rng, ModelKind.SPM, 3), 3)
        one = conditional_log_likelihood(data, p)
        two = conditional_log_likelihood(doubled, p)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-13)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(4)
        data = _random_dataset(rng, n=50, d=2)
        perm = rng.permutation(50)
        shuffled = Dataset(x=data.x[perm], l=data.l[perm])
        p = unpack_psychm(_random_theta(rng, ModelKind.PSYCHM, 2), 2)
        np.testing.assert_allclose(
            conditional_log_likelihood(data, p),
            conditional_log_likelihood(shuffled, p),
            rtol=1e-12,
        )

    def test_boundary_rates_evaluate(self):
        # guess + lapse == 1 pins the selection to the constant guess rate
        data = Dataset(x=np.zeros((1, 1)), l=np.array([1]))
        p = PsychmParams(
            selection=LinearParams(w=np.zeros(1), b=0.0),
            guess=0.4,
            lapse=0.6,
            target=LinearParams(w=np.zeros(1), b=0.0),
        )
        assert abs(conditional_log_likelihood(data, p) - (np.log(0.4) + np.log(0.5))) <= 1e-14

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((0, 2)), l=np.zeros(0))

    def test_dimension_mismatch(self):
        data = Dataset(x=np.zeros((2, 3)), l=np.array([0, 1]))
        p = SpmParams(
            selection=LinearParams(w=np.zeros(2), b=0.0),
            target=LinearParams(w=np.zeros(2), b=0.0),
        )
        with pytest.raises(ValueError):
            conditional_log_likelihood(data, p)


class TestLoss:
    def test_no_penalty_equals_negated_likelihood(self):
        rng = np.random.default_rng(5)
        data = _random_dataset(rng, n=25, d=4)
        theta = _random_theta(rng, ModelKind.PSYCHM, 4)
        params = unpack_psychm(theta, 4)
        assert loss(data, ModelKind.PSYCHM, theta, RegConfig()) == -conditional_log_likelihood(
            data, params
        )

    def test_zero_weights_have_zero_penalty(self):
        data = Dataset(x=np.array([[1.0, 2.0]]), l=np.array([1]))
        theta = np.array([0.0, 0.0, 0.3, 0.0, 0.0, -0.2])
        reg = RegConfig(c_sel=5.0, c_tgt=7.0)
        assert loss(data, ModelKind.SPM, theta, reg) == loss(data, ModelKind.SPM, theta, RegConfig())

    def test_hand_computed_penalty(self):
        data = Dataset(x=np.zeros((1, 2)), l=np.array([1]))
        theta = np.array([3.0, 4.0, 0.0, 1.0, 0.0, 0.0])  # sel.w=(3,4), tgt.w=(1,0)
        reg = RegConfig(c_sel=1.0, c_tgt=2.0)
        penalty = loss(data, ModelKind.SPM, theta, reg) - loss(data, ModelKind.SPM, theta, RegConfig())
        assert penalty == 27.0

    def test_l1_penalty(self):
        data = Dataset(x=np.zeros((1, 2)), l=np.array([1]))
        theta = np.array([-3.0, 4.0, 0.0, 1.0, 0.0, 0.0])
        reg = RegConfig(c_sel=2.0, c_tgt=0.0, norm_sel=PenaltyNorm.L1)
        penalty = loss(data, ModelKind.SPM, theta, reg) - loss(data, ModelKind.SPM, theta, RegConfig())
        assert penalty == 14.0

    def test_loss_dominates_negated_likelihood(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            data = _random_dataset(rng, n=15, d=2)
            theta = _random_theta(rng, ModelKind.SPM, 2)
            reg = RegConfig(c_sel=float(rng.uniform(0, 3)), c_tgt=float(rng.uniform(0, 3)))
            baseline = -conditional_log_likelihood(data, unpack_spm(theta, 2))
            value = loss(data, ModelKind.SPM, theta, reg)
            assert value >= baseline
            penalty = value - baseline
            assert (penalty == 0.0) == (
                reg.c_sel * float(np.sum(np.abs(theta[:2])))
                + reg.c_tgt * float(np.sum(np.abs(theta[3:5]))) == 0.0
            )

    def test_clamping_transparent_for_moderate_posteriors(self):
        # when every probability is comfortably inside [1e-6, 1-1e-6] the
        # clamped likelihood is bit-identical to the raw formula
        rng = np.random.default_rng(6)
        data = _random_dataset(rng, n=40, d=2)
        theta = 0.5 * _random_theta(rng, ModelKind.SPM, 2)
        params = unpack_spm(theta, 2)
        s = sigmoid(data.x @ params.selection.w + params.selection.b)
        t = sigmoid(data.x @ params.target.w + params.target.b)
        assert s.min() > 1e-6 and t.min() > 1e-6 and (s * t).max() < 1 - 1e-6
        pos, neg = data.l == 1, data.l == 0
        raw = float(np.sum(np.log(np.column_stack((s[pos], t[pos]))))) + float(
            np.sum(np.log(1.0 - s[neg] * t[neg]))
        )
        assert conditional_log_likelihood(data, params) == raw


class FiniteDifferenceMixin:
    rel_tol = 1e-5
    abs_tol = 1e-8
    step = 1e-5

    def check_gradient(self, data, kind, theta, reg):
        value = lambda t: loss(data, kind, t, reg)
        self.check_against_differences(value, loss_gradient(data, kind, theta, reg), theta, kind)

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
            reg = RegConfig(
                c_sel=float(rng.uniform(0, 2)),
                c_tgt=float(rng.uniform(0, 2)),
                norm_sel=PenaltyNorm.L1 if rng.random() < 0.5 else PenaltyNorm.L2SQ,
                norm_tgt=PenaltyNorm.L1 if rng.random() < 0.5 else PenaltyNorm.L2SQ,
            )
            self.check_gradient(data, kind, theta, reg)

    def test_stationary_point_has_small_gradient(self):
        rng = np.random.default_rng(8)
        data = _random_dataset(rng, n=60, d=2)
        reg = RegConfig(c_sel=0.5, c_tgt=0.5)
        value, value_and_grad = make_loss_functions(data, ModelKind.SPM, reg)
        cfg = OptimizerConfig(grad_tol=1e-7, max_iters=3000)
        result = minimize(value, value_and_grad, 0.1 * np.ones(6), cfg)
        assert result.converged
        assert np.linalg.norm(loss_gradient(data, ModelKind.SPM, result.params, reg)) <= 1e-7

    def test_duplication_doubles_data_term_only(self):
        rng = np.random.default_rng(9)
        data = _random_dataset(rng, n=20, d=3)
        doubled = Dataset(x=np.vstack([data.x, data.x]), l=np.concatenate([data.l, data.l]))
        theta = _random_theta(rng, ModelKind.PSYCHM, 3)
        reg = RegConfig(c_sel=1.5, c_tgt=0.5)
        reg0 = RegConfig()
        np.testing.assert_allclose(
            loss_gradient(doubled, ModelKind.PSYCHM, theta, reg0),
            2.0 * loss_gradient(data, ModelKind.PSYCHM, theta, reg0),
            rtol=1e-12,
            atol=1e-12,
        )
        pen_single = loss_gradient(data, ModelKind.PSYCHM, theta, reg) - loss_gradient(
            data, ModelKind.PSYCHM, theta, reg0
        )
        pen_double = loss_gradient(doubled, ModelKind.PSYCHM, theta, reg) - loss_gradient(
            doubled, ModelKind.PSYCHM, theta, reg0
        )
        # extracting the penalty by subtraction leaves ~eps-size residue of
        # the (different) data terms, so compare tightly rather than exactly
        np.testing.assert_allclose(pen_single, pen_double, atol=1e-12, rtol=0)

    def test_rate_kink_subgradient_is_zero(self):
        rng = np.random.default_rng(10)
        data = _random_dataset(rng, n=15, d=2)
        theta = _random_theta(rng, ModelKind.PSYCHM, 2)
        theta[3] = 0.0  # guess surrogate at the kink
        theta[4] = 0.0  # lapse surrogate at the kink
        grad = loss_gradient(data, ModelKind.PSYCHM, theta, RegConfig())
        assert grad[3] == 0.0 and grad[4] == 0.0


class TestLogisticGradient(FiniteDifferenceMixin):
    """The one-factor layout that the naive, Elkan and oracle baselines fit."""

    @settings(derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        c_w=st.floats(0.0, 2.0),
        norm=st.sampled_from(list(PenaltyNorm)),
    )
    def test_matches_central_differences(self, seed, n, d, c_w, norm):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        targets = rng.integers(0, 2, size=n)
        # Weights stay clear of the L1 kink at 0, where central differences
        # and the zero subgradient disagree; the bias is never penalized.
        weights = rng.uniform(0.1, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
        theta = np.append(weights, rng.normal())
        value, value_and_grad = make_loss_functions(
            Dataset(x=x, l=targets), ModelKind.NAIVE, RegConfig(c_tgt=c_w, norm_tgt=norm)
        )
        f, grad = value_and_grad(theta)
        assert f == value(theta)
        self.check_against_differences(value, grad, theta, (n, d, c_w, norm))


class TestFastClosures:
    @pytest.mark.parametrize("flags", ["mixed", "all", "none"])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_fused_matches_reference(self, kind, flags):
        # The value-only pass and the gradient pass must agree bit for bit.
        # All-annotated and none-annotated data give the engine one row block.
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
            assert probe == loss(data, kind, theta, reg)
            assert f == loss(data, kind, theta, reg)
            assert value(theta) == loss(data, kind, theta, reg)
            np.testing.assert_array_equal(g, loss_gradient(data, kind, theta, reg))

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
            np.testing.assert_array_equal(k, loss_gradient(data, kind, theta, reg))
