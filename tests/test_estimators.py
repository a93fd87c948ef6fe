from dataclasses import replace

import numpy as np
import pytest

import puselect.estimators as est
from puselect.data import Dataset, split
from puselect.estimators import (
    CvConfig,
    DegenerateDataError,
    TrainingProtocol,
    fit_elkan,
    fit_naive,
    fit_psychm,
    fit_real_oracle,
    fit_spm,
    select_hyperparams,
    train_model,
)
from puselect.metrics import f1, score_report
from puselect.models import (
    LinearParams,
    ModelKind,
    PsychmParams,
    SpmParams,
    affine_sigmoid,
    psychm_posterior,
    sigmoid,
    spm_posterior,
)
from puselect.objective import (
    RegConfig,
    loss,
    make_loss_functions,
    unpack,
)
from puselect.optimize import OptimizerConfig, minimize
from puselect.runner import bootstrap_evaluate
from puselect.synth import GeneratorConfig, generate

REG0 = RegConfig()
ONE_START = TrainingProtocol(n_starts=1)


def logit(p):
    return float(np.log(p / (1.0 - p)))


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def scar_params(d, c=0.7, tgt_scale=2.0, seed=0):
    """Constant annotation propensity: flat selection curve pinned at c."""
    rng = np.random.default_rng(seed)
    return PsychmParams(
        selection=LinearParams(w=np.zeros(d), b=0.0),
        guess=c,
        lapse=1.0 - c,
        target=LinearParams(w=tgt_scale * rng.normal(size=d), b=0.1),
    )


class TestFitNaive:
    def test_separable_data_fits_flags_perfectly(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(40, 2)) + 8.0, rng.normal(size=(40, 2)) - 8.0])
        l = np.r_[np.ones(40, dtype=int), np.zeros(40, dtype=int)]
        model = fit_naive(Dataset(x=x, l=l), REG0, ONE_START)
        assert np.mean((model.score(x) >= 0.5) == l) == 1.0

    def test_intercept_only_closed_form(self):
        x = np.zeros((200, 1))
        l = np.r_[np.ones(60, dtype=int), np.zeros(140, dtype=int)]
        model = fit_naive(Dataset(x=x, l=l), REG0, ONE_START)
        assert abs(model.target.b - logit(0.3)) <= 1e-3
        assert np.abs(model.target.w).max() <= 1e-3

    def test_duplication_invariance(self):
        data = generate(GeneratorConfig(n=150, d=2, seed=1))
        doubled = Dataset(x=np.vstack([data.x, data.x]), l=np.tile(data.l, 2))
        a = fit_naive(data, REG0, ONE_START)
        b = fit_naive(doubled, REG0, ONE_START)
        np.testing.assert_allclose(a.target.w, b.target.w, atol=1e-3)
        assert abs(a.target.b - b.target.b) <= 1e-3

    def test_degenerate_flags_rejected(self):
        with pytest.raises(ValueError):
            fit_naive(Dataset(x=np.ones((3, 1)), l=np.ones(3, dtype=int)), REG0, ONE_START)


@pytest.mark.parametrize(
    "fit, l, y, column",
    [
        (fit_naive, np.zeros(40, dtype=int), np.r_[np.ones(20, dtype=int), np.zeros(20, dtype=int)], "l"),
        (fit_elkan, np.ones(40, dtype=int), np.ones(40, dtype=int), "l"),
        (fit_real_oracle, np.r_[np.ones(20, dtype=int), np.zeros(20, dtype=int)], np.ones(40, dtype=int), "y"),
    ],
    ids=["naive", "elkan", "real"],
)
def test_one_class_label_column_is_degenerate(fit, l, y, column):
    # The other column has two classes where it can: the fit must read its own.
    x = np.random.default_rng(0).normal(size=(40, 2))
    with pytest.raises(DegenerateDataError, match=f"the {column} column holds one class"):
        fit(Dataset(x=x, l=l, y=y), REG0, ONE_START)


class TestFitRealOracle:
    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            fit_real_oracle(Dataset(x=np.ones((3, 1)), l=np.array([0, 1, 0])), REG0, ONE_START)

    def test_intercept_only_closed_form(self):
        x = np.zeros((100, 1))
        y = np.r_[np.ones(25, dtype=int), np.zeros(75, dtype=int)]
        l = np.zeros(100, dtype=int)
        model = fit_real_oracle(Dataset(x=x, l=l, y=y), REG0, ONE_START)
        assert abs(model.target.b - logit(0.25)) <= 1e-3

    def test_beats_naive_under_biased_annotation(self):
        data = generate(GeneratorConfig(n=2000, d=3, seed=2))
        train, test = split(data, 0.5, seed=0)
        oracle = fit_real_oracle(train, REG0, ONE_START)
        naive = fit_naive(train, REG0, ONE_START)
        rep_o = score_report(ModelKind.REAL_ORACLE, 0, oracle.score(test.x), test.y)
        rep_n = score_report(ModelKind.NAIVE, 0, naive.score(test.x), test.y)
        assert rep_o.accuracy > rep_n.accuracy

    def test_fits_the_classes_where_naive_fits_the_flags(self):
        # The oracle is the naive logistic regression with y in the place of l.
        data = generate(GeneratorConfig(n=600, d=3, seed=5))
        reg = RegConfig(c_tgt=0.1)
        oracle = fit_real_oracle(data, reg, ONE_START)
        on_classes = fit_naive(Dataset(x=data.x, l=data.y), reg, ONE_START)
        assert oracle.target.w.tobytes() == on_classes.target.w.tobytes()
        assert oracle.target.b == on_classes.target.b
        assert oracle.diagnostics == on_classes.diagnostics
        assert oracle.target.w.tobytes() != fit_naive(data, reg, ONE_START).target.w.tobytes()


class TestFitElkan:
    def test_constant_propensity_approached_with_sample_size(self):
        # The holdout mean targets c when the class boundary is near
        # deterministic, but a sigmoid cannot plateau at c < 1, so the
        # annotation model keeps an irreducible downward tilt of ~0.05-0.1;
        # the estimate approaches c as n grows and stays within 0.1 of it.
        c = 0.95
        truth = PsychmParams(
            selection=LinearParams(w=np.zeros(3), b=0.0),
            guess=c,
            lapse=1.0 - c,
            target=LinearParams(w=60.0 * np.array([0.8, 0.5, -0.33]), b=0.1),
        )
        errors = {}
        for n in (1000, 5000):
            data = generate(
                GeneratorConfig(n=n, d=3, seed=3, guess=c, lapse=1.0 - c), params=truth
            )
            model = fit_elkan(data, REG0, ONE_START, seed=4)
            errors[n] = abs(model.c_hat - c)
        assert errors[5000] <= 0.1
        assert errors[5000] < errors[1000]

    def test_score_saturates_at_one(self):
        truth = scar_params(d=2, c=0.5, seed=5)
        data = generate(GeneratorConfig(n=2000, d=2, seed=5, guess=0.5, lapse=0.5), params=truth)
        model = fit_elkan(data, REG0, ONE_START, seed=6)
        scores = model.score(data.x)
        assert scores.max() == 1.0
        assert np.all(scores <= 1.0)

    def test_constant_annotation_model_gives_exact_mean(self):
        # with a constant feature the annotation model is a constant, so c
        # is the mean of that constant over the labeled holdout rows; the
        # mean of k equal floats need not equal the float, so the reference
        # takes the same mean
        x = np.zeros((100, 1))
        l = np.r_[np.ones(35, dtype=int), np.zeros(65, dtype=int)]
        data = Dataset(x=x, l=l)
        model = fit_elkan(data, REG0, ONE_START, seed=7)
        _, holdout = split(data, 0.8, seed=est._derive_seed(7, 100))
        k = int(np.sum(holdout.l == 1))
        assert k > 1
        assert model.c_hat == np.mean(np.full(k, sigmoid(model.target.b)))

    def test_no_labeled_holdout_rejected(self):
        x = np.random.default_rng(8).normal(size=(10, 1))
        l = np.zeros(10, dtype=int)
        l[:2] = 1
        # shrink the holdout until the two labeled rows always land in training
        failed = False
        for seed in range(30):
            try:
                fit_elkan(Dataset(x=x, l=l), REG0, ONE_START, seed=seed)
            except ValueError:
                failed = True
                break
        assert failed

    def test_calibration_improves_with_sample_size(self):
        truth = scar_params(d=3, c=0.6, tgt_scale=1.5, seed=10)
        errors = {}
        for n in (500, 5000):
            data = generate(
                GeneratorConfig(n=n, d=3, seed=11, guess=0.6, lapse=0.4), params=truth
            )
            model = fit_elkan(data, REG0, ONE_START, seed=12)
            probe = np.random.default_rng(13).normal(size=(4000, 3))
            true_posterior = sigmoid(probe @ truth.target.w + truth.target.b)
            errors[n] = float(np.mean(np.abs(model.score(probe) - true_posterior)))
        assert errors[5000] < errors[500]


class TestFitSpm:
    def test_recovers_target_factor(self):
        # smooth annotation propensity, steep class boundary
        truth = PsychmParams(
            selection=LinearParams(w=np.array([0.7, -0.5, 0.4]), b=-0.1),
            guess=0.0,
            lapse=0.0,
            target=LinearParams(w=np.array([4.0, -6.0, 5.0]), b=0.4),
        )
        data = generate(GeneratorConfig(n=8000, d=3, seed=14, guess=0.0, lapse=0.0), params=truth)
        model = fit_spm(data, REG0, TrainingProtocol(n_starts=3), seed=15)
        assert cosine(model.target.w, truth.target.w) >= 0.95
        assert model.target.norm() > model.selection.norm()

    def test_tie_break_picks_first_factor(self):
        tied = SpmParams(
            selection=LinearParams(w=np.array([3.0, 0.0]), b=4.0),
            target=LinearParams(w=np.array([0.0, 4.0]), b=-3.0),
        )
        resolved = est._assign_target_factor(tied)
        np.testing.assert_array_equal(resolved.target.w, tied.selection.w)

    def test_swapped_initialization_same_assignment(self):
        data = generate(GeneratorConfig(n=1500, d=2, seed=16))
        value, value_and_grad = make_loss_functions(data, ModelKind.SPM, REG0)
        opt = OptimizerConfig(max_iters=150)
        rng = np.random.default_rng(17)
        w1, w2 = rng.normal(0, 0.1, 2), rng.normal(0, 0.1, 2)
        init = np.concatenate([w1, [0.0], w2, [0.0]])
        swapped = np.concatenate([w2, [0.0], w1, [0.0]])
        a, b = (
            est._assign_target_factor(
                unpack(ModelKind.SPM, minimize(value, value_and_grad, start, opt).params, 2)
            )
            for start in (init, swapped)
        )
        np.testing.assert_allclose(a.target.w, b.target.w, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(a.selection.w, b.selection.w, rtol=1e-4, atol=1e-6)

    def test_all_unlabeled_still_returns_finite_params(self):
        x = np.random.default_rng(18).normal(size=(8, 2))
        data = Dataset(x=x, l=np.zeros(8, dtype=int))
        model = fit_spm(data, REG0, ONE_START, seed=19)
        assert np.all(np.isfinite(model.target.w)) and np.isfinite(model.target.b)

    def test_non_convergence_reported_not_raised(self):
        data = generate(GeneratorConfig(n=500, d=2, seed=20))
        opt = OptimizerConfig(max_iters=3, grad_tol=1e-12)
        model = fit_spm(data, REG0, TrainingProtocol(optimizer=opt, n_starts=1), seed=21)
        assert model.diagnostics.converged is False

    def test_frozen_selection_matches_naive_cross_entropy(self):
        data = generate(GeneratorConfig(n=800, d=2, seed=22))
        rng = np.random.default_rng(23)
        tgt_w, tgt_b = rng.normal(size=2), 0.3
        theta = np.concatenate([np.zeros(2), [40.0], tgt_w, [tgt_b]])
        spm_data_term = loss(data, ModelKind.SPM, theta, REG0)
        t = sigmoid(data.x @ tgt_w + tgt_b)
        bce = -float(np.sum(data.l * np.log(t) + (1 - data.l) * np.log(1.0 - t)))
        assert abs(spm_data_term - bce) <= 1e-8 * data.n


class TestFitPsychm:
    def test_rate_recovery(self):
        truth = PsychmParams(
            selection=LinearParams(w=np.array([2.0, -1.5, 1.0, 0.5, -1.0]), b=0.2),
            guess=0.05,
            lapse=0.05,
            target=LinearParams(w=np.array([2.5, 2.0, -2.0, 1.5, -3.0]), b=-0.3),
        )
        data = generate(GeneratorConfig(n=5000, d=5, seed=25), params=truth)
        model = fit_psychm(data, REG0, TrainingProtocol(n_starts=3), seed=26)
        assert abs(model.guess - 0.05) <= 0.1

    def test_vanishing_rates_approach_spm(self):
        # SPM is PsychM with guess = lapse = 0, which the softmax map reaches
        # only in the limit of both surrogates to -inf: along the way the
        # loss and the weight gradient close in on SPM's, down to round-off
        # at the surrogates' bound.
        data = generate(GeneratorConfig(n=400, d=2, seed=27))
        rng = np.random.default_rng(28)
        reg = RegConfig(0.1, 0.1)
        spm_theta = rng.normal(0.0, 1.0, size=6)
        spm_value, spm_grad = make_loss_functions(data, ModelKind.SPM, reg)[1](spm_theta)
        gaps = []
        for surrogate in (-5.0, -10.0, -20.0, -30.0):
            psy_theta = np.concatenate([spm_theta[:3], [surrogate, surrogate], spm_theta[3:]])
            psy_value, psy_grad = make_loss_functions(data, ModelKind.PSYCHM, reg)[1](psy_theta)
            weights = np.concatenate([psy_grad[:3], psy_grad[5:]])
            gaps.append((abs(psy_value - spm_value), float(np.max(np.abs(weights - spm_grad)))))
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1][0] <= 1e-9 * abs(spm_value)
        assert gaps[-1][1] <= 1e-9 * float(np.max(np.abs(spm_grad)))

    def test_default_fit_recovers_target(self):
        # Stopped far from the optimum, a fit on this dataset ends on a
        # wrong target (cosine 0.08).
        data = generate(GeneratorConfig(n=5000, seed=3))
        model = fit_psychm(data, RegConfig(0.01, 0.01), ONE_START, seed=0)
        assert cosine(model.target.w, data.true_params.target.w) >= 0.99

    def test_dimension_one_flagged(self):
        x = np.random.default_rng(29).normal(size=(60, 1))
        l = (x[:, 0] > 0).astype(int)
        protocol = TrainingProtocol(optimizer=OptimizerConfig(max_iters=50), n_starts=1)
        model = fit_psychm(Dataset(x=x, l=l), REG0, protocol, seed=30)
        assert any("identifiable" in note for note in model.diagnostics.notes)


class TestAnnotationProbability:
    @pytest.mark.parametrize("fit", [fit_naive, fit_real_oracle, fit_elkan, fit_spm, fit_psychm])
    def test_matches_the_reference_bit_for_bit(self, fit):
        # SPM and PsychM against the posterior of their own parameters, the
        # naive and oracle baselines against their score, and Elkan against
        # its annotation model h.
        data = generate(GeneratorConfig(n=300, d=2, seed=4))
        protocol = TrainingProtocol(optimizer=OptimizerConfig(max_iters=30), n_starts=1)
        model = fit(data, RegConfig(0.1, 0.1), protocol)
        sel, tgt = model.selection, model.target
        if model.kind == ModelKind.SPM:
            expected = spm_posterior(data.x, SpmParams(selection=sel, target=tgt))
        elif model.kind == ModelKind.PSYCHM:
            params = PsychmParams(selection=sel, guess=model.guess, lapse=model.lapse, target=tgt)
            expected = psychm_posterior(data.x, params)
        elif model.kind == ModelKind.ELKAN:
            expected = affine_sigmoid(data.x, tgt.w, tgt.b)
        else:
            expected = model.score(data.x)
        np.testing.assert_array_equal(model.annotation_probability(data.x), expected)


class TestTrainingProtocol:
    @pytest.mark.parametrize("field, value", [("n_starts", 0), ("cv_max_iters", 0)])
    def test_out_of_range_value_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.*{value}"):
            TrainingProtocol(**{field: value})

    @pytest.mark.parametrize("kind", [ModelKind.NAIVE, ModelKind.REAL_ORACLE, ModelKind.ELKAN])
    def test_baseline_runs_one_start_from_zero(self, monkeypatch, kind):
        # The baselines are convex: one start from zero, whatever the
        # protocol's restarts and the seed.
        data = generate(GeneratorConfig(n=200, d=2, seed=44))
        starts = []
        original = est.minimize

        def recording(value, value_and_grad, init, cfg):
            starts.append(np.array(init))
            return original(value, value_and_grad, init, cfg)

        monkeypatch.setattr(est, "minimize", recording)
        for n_starts, seed in ((1, 0), (3, 5), (5, 123)):
            starts.clear()
            est._fit_kind(data, kind, REG0, TrainingProtocol(n_starts=n_starts), seed)
            assert len(starts) == 1
            assert starts[0].tolist() == [0.0, 0.0, 0.0]

    def test_fold_budget_is_the_protocol_cap(self, monkeypatch):
        data = generate(GeneratorConfig(n=120, d=2, seed=43))
        protocol = TrainingProtocol(cv=CvConfig(folds=2, grid_sel=(0.0,), grid_tgt=(0.1, 1.0)))
        seen = []
        original = est._fit_kind

        def recording(data, kind, reg, protocol, seed, init=None):
            seen.append((protocol.optimizer.max_iters, protocol.n_starts))
            return original(data, kind, reg, protocol, seed, init)

        monkeypatch.setattr(est, "_fit_kind", recording)
        train_model(data, ModelKind.SPM, protocol, seed=44)
        assert seen == [(66, 1)] * 4 + [(150, 3)]  # 2 cells x 2 folds, then the final fit
        # A cap at or above the final fit's budget gives the fold fits that budget.
        for cap in (150, 500):
            seen.clear()
            train_model(data, ModelKind.SPM, replace(protocol, cv_max_iters=cap), seed=44)
            assert seen == [(150, 1)] * 4 + [(150, 3)]


def full_budget(cv):
    """A protocol whose fold fits run at the final fit's iteration budget, 150."""
    return TrainingProtocol(cv=cv, cv_max_iters=150)


class TestSelectHyperparams:
    def test_singleton_grid_short_circuits(self, monkeypatch):
        data = generate(GeneratorConfig(n=120, d=2, seed=31))
        cv = CvConfig(folds=3, grid_sel=(0.5,), grid_tgt=(0.25,))
        calls = []
        original = est._fit_kind

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(est, "_fit_kind", counting)
        for kind in (ModelKind.NAIVE, ModelKind.SPM, ModelKind.PSYCHM):
            reg = select_hyperparams(data, kind, full_budget(cv), seed=32)
            assert (reg.c_sel, reg.c_tgt) == (0.5, 0.25)
        assert calls == []  # one cell has nothing to choose between: no fold fits
        # The input checks still come first.
        with pytest.raises(ValueError, match="at least 3 rows"):
            select_hyperparams(data.subset([0, 1]), ModelKind.NAIVE, full_budget(cv), seed=32)

    def test_inert_selection_axis_deduplicated(self, monkeypatch):
        data = generate(GeneratorConfig(n=120, d=2, seed=33))
        cv = CvConfig(folds=2, grid_sel=(0.0, 1.0, 2.0), grid_tgt=(0.1, 0.2))
        calls = []
        original = est._fit_kind

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(est, "_fit_kind", counting)
        select_hyperparams(data, ModelKind.NAIVE, full_budget(cv), seed=34)
        assert len(calls) == len(cv.grid_tgt) * cv.folds

    def test_tie_broken_toward_larger_penalty(self):
        # the selection axis is inert for the flag-only baseline, so every
        # c_sel shares the target-axis Brier and the largest must win
        data = generate(GeneratorConfig(n=120, d=2, seed=35))
        cv = CvConfig(folds=2, grid_sel=(0.0, 1.0), grid_tgt=(0.1,))
        reg = select_hyperparams(data, ModelKind.NAIVE, full_budget(cv), seed=36)
        assert reg.c_sel == 1.0

    def test_noise_flags_prefer_regularization(self):
        wins = 0
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            x = rng.normal(size=(60, 2))
            l = rng.integers(0, 2, size=60)
            if l.sum() in (0, 60):
                l[0] = 1 - l[0]
            cv = CvConfig(folds=3, grid_sel=(0.0,), grid_tgt=(0.0, 10.0))
            reg = select_hyperparams(Dataset(x=x, l=l), ModelKind.NAIVE, full_budget(cv), seed=rep)
            wins += reg.c_tgt == 10.0
        assert wins >= 40

    def test_oracle_scored_against_the_classes(self):
        # The oracle fits y in the one-factor layout, so its CV must pick
        # what the naive baseline picks on the same rows with y as the flags.
        # Scored against l, the oracle picked the flattest fit, c_tgt = 10.
        data = generate(GeneratorConfig(n=600, d=2, seed=0))
        as_flags = Dataset(x=data.x, l=data.y, y=data.y)
        reg = select_hyperparams(data, ModelKind.REAL_ORACLE, ONE_START, seed=0)
        assert reg == select_hyperparams(as_flags, ModelKind.NAIVE, ONE_START, seed=0)
        assert reg.c_tgt < max(ONE_START.cv.grid_tgt)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CvConfig(grid_sel=(), grid_tgt=(0.1,))

    @pytest.mark.parametrize(
        "grids, named",
        [
            (dict(grid_sel=(0.1, 0.1, 0.0)), r"grid_sel .*\[0\.1\]"),
            (dict(grid_tgt=(1.0, 0.0, 1.0, 0.0)), r"grid_tgt .*\[0\.0, 1\.0\]"),
        ],
    )
    def test_repeated_penalty_rejected(self, grids, named):
        with pytest.raises(ValueError, match=named):
            CvConfig(**grids)

    def test_too_few_rows_rejected(self):
        data = Dataset(x=np.ones((2, 1)), l=np.array([0, 1]))
        with pytest.raises(ValueError):
            select_hyperparams(data, ModelKind.NAIVE, TrainingProtocol(), seed=0)

    def test_degenerate_fold_fails_its_cell_only(self):
        # Resample 0 of `bench-real --seed 10002` on the CSV written by
        # `generate --seed 10002 --generator.n 1000 --generator.d 3`, Elkan
        # being the fourth of the default models: the training half has 30
        # of 500 rows annotated, and the c_tgt=0 cell's third fold fit finds
        # no annotated row in its Elkan holdout.
        seed = 10002
        data = generate(GeneratorConfig(n=1000, d=3, seed=seed))
        sample = data.subset(est._rng(seed, 0, 0).integers(0, data.n, size=data.n))
        train, _ = split(sample, 0.5, seed=est._derive_seed(seed, 0, 1))
        protocol = TrainingProtocol(cv_max_iters=66, n_starts=3)
        fit_seed = est._derive_seed(seed, 0, 2, 3)
        cv_seed = est._derive_seed(fit_seed, 0)

        folds = np.array_split(est._rng(cv_seed, 0).permutation(train.n), 3)
        with pytest.raises(DegenerateDataError):
            fit_elkan(train.subset(np.concatenate(folds[:2])), REG0, protocol,
                      seed=est._derive_seed(cv_seed, 1, 0, 2))

        reg = select_hyperparams(train, ModelKind.ELKAN, protocol, seed=cv_seed)
        assert reg.c_tgt != 0.0
        model = train_model(train, ModelKind.ELKAN, protocol, seed=fit_seed)
        assert 0.0 < model.c_hat <= 1.0

    def test_every_cell_failing_names_the_model(self):
        # With one annotated row, every Elkan fit either trains on a single
        # class or finds no annotated row in its holdout.
        rng = np.random.default_rng(41)
        l = np.zeros(30, dtype=int)
        l[0] = 1
        data = Dataset(x=rng.normal(size=(30, 2)), l=l)
        cv = CvConfig(folds=3, grid_sel=(0.0,), grid_tgt=(0.0, 1.0))
        with pytest.raises(ValueError, match="elkan"):
            select_hyperparams(data, ModelKind.ELKAN, full_budget(cv), seed=42)
        # One cell is returned without fold fits, so it cannot fail.
        one_cell = replace(cv, grid_tgt=(1.0,))
        reg = select_hyperparams(data, ModelKind.ELKAN, full_budget(one_cell), seed=42)
        assert (reg.c_sel, reg.c_tgt) == (0.0, 1.0)


def recording_fits(monkeypatch):
    """Replace `_fit_kind` with a pass-through that records every fold fit
    as a dict of its arguments and result, ``fold`` counting the distinct
    training sets in order of first use."""
    calls, folds = [], {}
    original = est._fit_kind

    def recording(data, kind, reg, protocol, seed, init=None):
        model = original(data, kind, reg, protocol, seed, init)
        fold = folds.setdefault(id(data), len(folds))
        calls.append(dict(data=data, fold=fold, reg=reg, protocol=protocol, seed=seed,
                          init=init, model=model))
        return model

    monkeypatch.setattr(est, "_fit_kind", recording)
    return calls


class TestRegularizationPath:
    def test_cells_snake_from_the_largest_penalties(self, monkeypatch):
        data = generate(GeneratorConfig(n=120, d=2, seed=47))
        cv = CvConfig(folds=2, grid_sel=(0.1, 1.0, 0.0), grid_tgt=(0.0, 10.0, 0.1))
        protocol = TrainingProtocol(cv=cv, cv_max_iters=5)
        snake = [(1.0, 10.0), (1.0, 0.1), (1.0, 0.0),
                 (0.1, 0.0), (0.1, 0.1), (0.1, 10.0),
                 (0.0, 10.0), (0.0, 0.1), (0.0, 0.0)]
        # PsychM walks the snake from the least regularized cell.
        psychm = [(0.0, 0.0), (0.0, 0.1), (0.0, 10.0),
                  (0.1, 10.0), (0.1, 0.1), (0.1, 0.0),
                  (1.0, 0.0), (1.0, 0.1), (1.0, 10.0)]
        # (model, path, grid indices of its first cell)
        for kind, path, key in ((ModelKind.SPM, snake, (1, 1)), (ModelKind.NAIVE, snake[:3], (1,)),
                                (ModelKind.PSYCHM, psychm, (2, 0))):
            calls = recording_fits(monkeypatch)
            select_hyperparams(data, kind, protocol, seed=48)
            for f in range(cv.folds):
                fold_calls = [c for c in calls if c["fold"] == f]
                assert [(c["reg"].c_sel, c["reg"].c_tgt) for c in fold_calls] == path
                # the first cell's seed is keyed by its grid indices, as every cell's
                assert fold_calls[0]["seed"] == est._derive_seed(48, 1, *key, f)
                assert fold_calls[0]["init"] is None
                for prev, call in zip(fold_calls, fold_calls[1:]):
                    assert call["init"] is prev["model"].theta

    @pytest.mark.parametrize("kind", [ModelKind.SPM, ModelKind.PSYCHM])
    def test_first_cell_fits_the_cold_start_bits(self, monkeypatch, kind):
        data = generate(GeneratorConfig(n=150, d=2, seed=49))
        protocol = TrainingProtocol(cv=CvConfig(folds=2, grid_sel=(0.01,), grid_tgt=(0.01, 0.1)))
        calls = recording_fits(monkeypatch)
        select_hyperparams(data, kind, protocol, seed=50)
        assert len(calls) == 4
        first_cell = calls[0]["reg"]
        fold_calls = [c for c in calls if c["reg"] == first_cell]
        assert len(fold_calls) == 2 and {c["fold"] for c in fold_calls} == {0, 1}
        for c in fold_calls:
            assert c["init"] is None
            cold = est._fit_kind(c["data"], kind, c["reg"], c["protocol"], c["seed"])
            assert cold.theta.tobytes() == c["model"].theta.tobytes()
            assert cold.target.w.tobytes() == c["model"].target.w.tobytes()

    def test_warm_started_naive_reaches_the_zero_start_loss(self):
        data = generate(GeneratorConfig(n=600, d=3, seed=51))
        cv_optimizer = TrainingProtocol().cv_optimizer_for()
        fold_protocol = TrainingProtocol(optimizer=cv_optimizer, n_starts=1)
        reg = RegConfig(c_tgt=0.01)
        neighbour = fit_naive(data, RegConfig(c_tgt=0.1), fold_protocol)
        cold = fit_naive(data, reg, fold_protocol)
        warm = fit_naive(data, reg, fold_protocol, init=neighbour.theta)
        assert warm.theta.tobytes() != cold.theta.tobytes()
        assert warm.diagnostics.loss == pytest.approx(cold.diagnostics.loss, rel=1e-9)

    @pytest.mark.parametrize("failing_cell", [0, 1])
    def test_failed_cell_hands_on_the_last_good_optimum(self, monkeypatch, failing_cell):
        # Path 1.0 -> 0.1 -> 0.0; one cell's first fold fit raises.
        data = generate(GeneratorConfig(n=150, d=2, seed=52))
        cv = CvConfig(folds=2, grid_sel=(0.0,), grid_tgt=(0.0, 0.1, 1.0))
        path = (1.0, 0.1, 0.0)
        calls = recording_fits(monkeypatch)
        recording = est._fit_kind

        def failing(data, kind, reg, protocol, seed, init=None):
            if reg.c_tgt == path[failing_cell]:
                raise DegenerateDataError("forced failure")
            return recording(data, kind, reg, protocol, seed, init)

        monkeypatch.setattr(est, "_fit_kind", failing)
        protocol = TrainingProtocol(cv=cv, cv_max_iters=5)
        reg = select_hyperparams(data, ModelKind.SPM, protocol, seed=53)
        assert reg.c_tgt != path[failing_cell]
        after = path[failing_cell + 1]
        for f in range(cv.folds):
            fold_calls = {c["reg"].c_tgt: c for c in calls if c["fold"] == f}
            assert path[failing_cell] not in fold_calls
            if failing_cell == 0:  # no good optimum yet: a first cell's start
                assert fold_calls[after]["init"] is None
                assert fold_calls[after]["seed"] == est._derive_seed(53, 1, 0, 1, f)
            else:
                assert fold_calls[after]["init"] is fold_calls[path[0]]["model"].theta


    def test_warm_start_costlier_than_the_cold_draw_is_dropped(self):
        # Selection weights of norm 1000, as a fit at a zero selection
        # penalty can leave them, cost 1e4 under c_sel = 0.01: the fit
        # starts from its seeded draw instead and fits the cold bits.
        data = generate(GeneratorConfig(n=300, d=2, seed=53))
        reg = RegConfig(0.01, 0.01)
        cold = fit_psychm(data, reg, ONE_START, seed=54)
        init = cold.theta.copy()
        init[:2] = (600.0, -800.0)
        warm = fit_psychm(data, reg, ONE_START, seed=54, init=init)
        assert warm.theta.tobytes() == cold.theta.tobytes()

    def test_psychm_path_stays_out_of_degenerate_rates(self, monkeypatch):
        # Trial 1 of `bench-synth --seed 20240801`, built as the runner
        # builds it.  Carried up from the zero selection penalty, one
        # fold's selection weights (norm 7,016) made the next cells start
        # from a loss near 5e5, and their fits ended with lapse 1 and every
        # row clamped.  With the former |.| rate map and the path walked
        # down from the largest penalties, 21 of 75 ended at guess > 0.5.
        seed = 20240801
        data = generate(GeneratorConfig(seed=est._derive_seed(seed, 1, 0)))
        train, _ = split(data, 0.5, seed=est._derive_seed(seed, 1, 1))
        calls = recording_fits(monkeypatch)
        cv_seed = est._derive_seed(est._derive_seed(seed, 1, 2, 1), 0)
        select_hyperparams(train, ModelKind.PSYCHM, TrainingProtocol(), seed=cv_seed)
        assert len(calls) == 75
        assert max(max(c["model"].guess, c["model"].lapse) for c in calls) < 0.5


class TestWrongTargetRegressions:
    """Seeded datasets on which SPM fitted, or fits, a wrong target."""

    @pytest.mark.xfail(
        strict=True,
        reason="steeper-factor rule: the fitted factor with cosine 0.994 to the true target is "
        "assigned to the selection, because the true selection is the steeper sigmoid "
        "(norm 19.1 against 6.0); not a local optimum",
    )
    def test_bench_real_seed_8000_spm_near_true_target_rule(self):
        # `bench-real --models spm,real --seed 8000` on the CSV of
        # `generate --seed 8 --generator.n 1000 --generator.d 3`: SPM F1
        # 0.379 and 0.357 against 0.928 and 0.923 for the true-target rule.
        seed = 8000
        data = generate(GeneratorConfig(n=1000, d=3, seed=8))
        truth = data.true_params.target
        reports = bootstrap_evaluate(data, (ModelKind.SPM,), 2, TrainingProtocol(), seed=seed)
        for r, rep in enumerate(reports):
            sample = data.subset(est._rng(seed, r, 0).integers(0, data.n, size=data.n))
            _, test = split(sample, 0.5, seed=est._derive_seed(seed, r, 1))
            rule = (affine_sigmoid(test.x, truth.w, truth.b) >= 0.5).astype(int)
            assert rep.f1 >= f1(rule, test.y) - 0.1, r

    @pytest.mark.xfail(
        strict=True,
        reason="factors swapped, not seed 8's steeper-factor case: the reported target has "
        "cosine 0.995 with the true selection, and the factor nearest the true target "
        "(cosine 0.949) has norm 2.8 against 8.3, although the true target is the steeper "
        "one (19.7 against 17.3)",
    )
    def test_bench_synth_seed_777_trial_31_spm_near_true_target_rule(self):
        # Trial 31 of `bench-synth --models spm,real --seed 777`: SPM F1 0.768
        # against 0.972 for the true-target rule; the other 39 of 40 trials
        # are within 0.05 of it.
        seed, trial = 777, 31
        data = generate(GeneratorConfig(seed=est._derive_seed(seed, trial, 0)))
        train, test = split(data, 0.5, seed=est._derive_seed(seed, trial, 1))
        model = train_model(train, ModelKind.SPM, TrainingProtocol(),
                            seed=est._derive_seed(seed, trial, 2, 0))
        truth = data.true_params.target
        rule = (affine_sigmoid(test.x, truth.w, truth.b) >= 0.5).astype(int)
        pred = (model.score(test.x) >= 0.5).astype(int)
        assert f1(pred, test.y) >= f1(rule, test.y) - 0.1

    def test_spm_swap_rate_at_zero_rates_follows_the_premise(self):
        # At guess = lapse = 0 the swap of SPM's factors leaves its likelihood
        # unchanged, so only the steeper-factor rule decides which factor is
        # the target.  Over seeds 0-29, 15 fits end with a target of cosine
        # below 0.99 to the true one, and every other fit is above 0.998.  In
        # seeds 4, 8 and 14 the two fitted norms are within 2% of each other,
        # so the band is 15 +- 3.
        wrong, selection_steeper = [], []
        for s in range(30):
            data = generate(GeneratorConfig(n=2000, guess=0.0, lapse=0.0, seed=s))
            model = fit_spm(data, RegConfig(0.01, 0.01), TrainingProtocol(), seed=s)
            truth = data.true_params
            wrong.append(cosine(model.target.w, truth.target.w) < 0.99)
            selection_steeper.append(truth.selection.norm() > truth.target.norm())
        assert 12 <= sum(wrong) <= 18
        # The rule's premise, a true target steeper than the true selection,
        # fails in 13 of the 15 wrong draws and in 2 of the 15 others.
        assert sum(w == p for w, p in zip(wrong, selection_steeper)) >= 26 - 3

    def test_fit_large_seed_13003_spm_recovers_target(self):
        # `fit --model spm --seed 13003 --cv.grid_sel 0.01 --cv.grid_tgt 0.01`
        # on the CSV of `generate --seed 13003 --generator.n 10000` once
        # ended at target cosine 0.88.
        data = generate(GeneratorConfig(n=10000, seed=13003))
        protocol = TrainingProtocol(cv=CvConfig(grid_sel=(0.01,), grid_tgt=(0.01,)))
        model = train_model(data, ModelKind.SPM, protocol, seed=13003)
        assert cosine(model.target.w, data.true_params.target.w) >= 0.99


@pytest.fixture(scope="module")
def protocol():
    return TrainingProtocol(
        cv=CvConfig(folds=2, grid_sel=(0.0, 0.1), grid_tgt=(0.0, 0.1)),
        cv_max_iters=40,
        n_starts=1,
    )


class TestTrainModel:

    def test_deterministic(self, protocol):
        data = generate(GeneratorConfig(n=300, d=2, seed=37))
        a = train_model(data, ModelKind.SPM, protocol, seed=38)
        b = train_model(data, ModelKind.SPM, protocol, seed=38)
        assert a.target.w.tobytes() == b.target.w.tobytes()
        assert a.target.b == b.target.b

    @pytest.mark.parametrize(
        "name, kind, live_cells", [("fit_spm", ModelKind.SPM, 25), ("fit_elkan", ModelKind.ELKAN, 5)]
    )
    def test_fits_are_looked_up_at_call_time(self, monkeypatch, name, kind, live_cells):
        # A fit replaced on the module runs in every CV fold fit of the
        # default 5x5 grid's live cells and in the final fit.
        data = generate(GeneratorConfig(n=300, d=2, seed=45))
        protocol = TrainingProtocol(optimizer=OptimizerConfig(max_iters=20), n_starts=1)
        calls = []
        original = getattr(est, name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(est, name, counting)
        train_model(data, kind, protocol, seed=46)
        assert len(calls) == live_cells * protocol.cv.folds + 1

    def test_all_kinds_produce_unit_interval_scores(self, protocol):
        data = generate(GeneratorConfig(n=600, d=2, seed=39, guess=0.4))
        for kind in ModelKind:
            model = train_model(data, kind, protocol, seed=40)
            scores = model.score(data.x)
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0), kind
