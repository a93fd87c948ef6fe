from dataclasses import replace

import numpy as np
import pytest

from puselect.models import (
    LinearParams,
    PsychmParams,
    affine_sigmoid,
    psychm_posterior,
    psychometric,
    sigmoid,
)


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_upper_asymptote(self):
        assert abs(sigmoid(40.0) - 1.0) <= 1e-15

    def test_mirror_sum_is_exactly_one(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-700, 700, size=5000)
        assert np.all(sigmoid(z) + sigmoid(-z) == 1.0)

    def test_no_overflow_at_extreme_arguments(self):
        with np.errstate(over="raise"):
            assert sigmoid(-700.0) >= 0.0
            assert sigmoid(700.0) <= 1.0

    def test_monotone(self):
        z = np.linspace(-30, 30, 4001)
        assert np.all(np.diff(sigmoid(z)) > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sigmoid(np.inf)
        with pytest.raises(ValueError):
            sigmoid(np.array([0.0, np.nan]))


class TestAffineSigmoid:
    def test_zero_weights(self):
        assert affine_sigmoid(np.array([3.0, -2.0]), np.zeros(2), 0.0) == 0.5

    def test_cancellation(self):
        assert affine_sigmoid(np.array([1.0, 0.0]), np.array([2.0, 5.0]), -2.0) == 0.5

    def test_direct_value(self):
        got = affine_sigmoid(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.0)
        assert abs(got - 1.0 / (1.0 + np.exp(-2.0))) <= 1e-16
        assert abs(got - 0.8807970779778823) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine_sigmoid(np.ones(3), np.ones(2), 0.0)

    def test_batched_rows(self):
        x = np.random.default_rng(1).normal(size=(50, 4))
        w = np.array([1.0, -2.0, 0.5, 0.0])
        batch = affine_sigmoid(x, w, 0.3)
        single = np.array([affine_sigmoid(row, w, 0.3) for row in x])
        np.testing.assert_allclose(batch, single, atol=1e-15, rtol=0)


class TestPsychometric:
    def test_degenerate_rates_reduce_to_sigmoid(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 3))
        w, b = rng.normal(size=3), 0.4
        np.testing.assert_array_equal(
            psychometric(x, w, b, 0.0, 0.0), affine_sigmoid(x, w, b)
        )

    def test_upper_asymptote_is_one_minus_lapse(self):
        got = psychometric(np.array([100.0]), np.array([10.0]), 0.0, 0.1, 0.2)
        assert abs(got - 0.8) <= 1e-12

    def test_direct_value(self):
        # drive = 0 so the sigmoid sits at 1/2: 0.2 + 0.7 * 0.5
        got = psychometric(np.zeros(2), np.zeros(2), 0.0, 0.2, 0.1)
        assert abs(got - 0.55) <= 1e-15

    def test_bounds(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 2)) * 10
        vals = psychometric(x, rng.normal(size=2), 0.1, 0.3, 0.25)
        assert np.all(vals >= 0.3) and np.all(vals <= 0.75)

    def test_monotone_in_drive_when_rates_leave_room(self):
        x = np.linspace(-5, 5, 101)[:, None]
        vals = psychometric(x, np.array([1.0]), 0.0, 0.2, 0.1)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("guess,lapse", [(-0.1, 0.0), (0.0, 1.0), (0.6, 0.5), (0.2, -0.1)])
    def test_invalid_rates(self, guess, lapse):
        with pytest.raises(ValueError):
            psychometric(np.zeros(1), np.zeros(1), 0.0, guess, lapse)


def _spm(sel_w, sel_b, tgt_w, tgt_b):
    """Sigmoid-product parameters: the psychometric ones at rates (0, 0)."""
    return PsychmParams(
        selection=LinearParams(w=sel_w, b=sel_b),
        guess=0.0,
        lapse=0.0,
        target=LinearParams(w=tgt_w, b=tgt_b),
    )


class TestSpmPosterior:
    # The sigmoid product is psychm_posterior at rates (0, 0); criterion 5
    # of the acceptance suite checks it against the product of two sigmoids.
    def test_saturated_selection_factor(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 3))
        p = _spm(np.zeros(3), 40.0, rng.normal(size=3), -0.5)
        np.testing.assert_allclose(
            psychm_posterior(x, p), affine_sigmoid(x, p.target.w, p.target.b), atol=1e-15, rtol=0
        )

    def test_factor_swap_symmetry_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 4))
        p = _spm(rng.normal(size=4), 0.7, rng.normal(size=4), -1.2)
        swapped = replace(p, selection=p.target, target=p.selection)
        np.testing.assert_array_equal(psychm_posterior(x, p), psychm_posterior(x, swapped))

    def test_bias_only_at_origin(self):
        p = _spm(np.array([1.0, 2.0]), 0.3, np.array([-1.0, 0.5]), -0.8)
        got = psychm_posterior(np.zeros(2), p)
        assert got == sigmoid(0.3) * sigmoid(-0.8)

    def test_open_unit_interval(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(500, 2))
        p = _spm(rng.normal(size=2), 0.0, rng.normal(size=2), 0.0)
        vals = psychm_posterior(x, p)
        assert np.all(vals > 0) and np.all(vals < 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="selection dim 2 != target dim 3"):
            _spm(np.ones(2), 0.0, np.ones(3), 0.0)


class TestPsychmPosterior:
    def test_constant_selection_is_elkan_form(self):
        # flat selection weights with guess = c, lapse = 1 - c pin the
        # psychometric factor to the constant c at every point
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 3))
        c = 0.35
        p = PsychmParams(
            selection=LinearParams(w=np.zeros(3), b=0.0),
            guess=c,
            lapse=1.0 - c,
            target=LinearParams(w=rng.normal(size=3), b=0.1),
        )
        np.testing.assert_array_equal(
            psychm_posterior(x, p), c * affine_sigmoid(x, p.target.w, p.target.b)
        )

    def test_direct_value(self):
        p = PsychmParams(
            selection=LinearParams(w=np.zeros(2), b=0.0),
            guess=0.05,
            lapse=0.05,
            target=LinearParams(w=np.zeros(2), b=0.0),
        )
        assert abs(psychm_posterior(np.zeros(2), p) - 0.25) <= 1e-15

    def test_envelope_bounds(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(400, 3)) * 5
        p = PsychmParams(
            selection=LinearParams(w=rng.normal(size=3), b=0.0),
            guess=0.15,
            lapse=0.1,
            target=LinearParams(w=rng.normal(size=3), b=0.0),
        )
        h = psychm_posterior(x, p)
        t = affine_sigmoid(x, p.target.w, p.target.b)
        assert np.all(h >= p.guess * t - 1e-15)
        assert np.all(h <= 1.0 - p.lapse + 1e-15)

    def test_monotone_in_guess_and_lapse(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(100, 2))
        sel = LinearParams(w=rng.normal(size=2), b=0.1)
        tgt = LinearParams(w=rng.normal(size=2), b=-0.3)

        def h(guess, lapse):
            return psychm_posterior(x, PsychmParams(selection=sel, guess=guess, lapse=lapse, target=tgt))

        assert np.all(h(0.3, 0.1) >= h(0.1, 0.1))
        assert np.all(h(0.1, 0.3) <= h(0.1, 0.1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PsychmParams(
                selection=LinearParams(w=np.ones(2), b=0.0),
                guess=0.7,
                lapse=0.4,
                target=LinearParams(w=np.ones(2), b=0.0),
            )


class TestLinearParams:
    def test_norm_includes_bias(self):
        p = LinearParams(w=np.array([3.0, 0.0]), b=4.0)
        assert p.norm() == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearParams(w=np.array([np.inf]), b=0.0)
        with pytest.raises(ValueError):
            LinearParams(w=np.ones(2), b=np.nan)

    def test_rejects_empty_or_matrix(self):
        with pytest.raises(ValueError):
            LinearParams(w=np.ones((2, 2)), b=0.0)
