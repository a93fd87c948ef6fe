import numpy as np
import pytest

import puselect.estimators as est
from puselect.data import Dataset, split
from puselect.estimators import (
    CvConfig,
    DegenerateDataError,
    TrainingProtocol,
    default_optimizer,
    fit_elkan,
    fit_naive,
    fit_psychm,
    fit_real_oracle,
    fit_spm,
    select_hyperparams,
    train_model,
)
from puselect.metrics import score_report
from puselect.models import LinearParams, ModelKind, PsychmParams, SpmParams, sigmoid
from puselect.objective import (
    RegConfig,
    loss,
    make_loss_functions,
    unpack_spm,
)
from puselect.optimize import OptimizerConfig, minimize
from puselect.synth import GeneratorConfig, generate

REG0 = RegConfig()


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
        model = fit_naive(Dataset(x=x, l=l), REG0)
        assert np.mean((model.score(x) >= 0.5) == l) == 1.0

    def test_intercept_only_closed_form(self):
        x = np.zeros((200, 1))
        l = np.r_[np.ones(60, dtype=int), np.zeros(140, dtype=int)]
        model = fit_naive(Dataset(x=x, l=l), REG0)
        assert abs(model.target.b - logit(0.3)) <= 1e-3
        assert np.abs(model.target.w).max() <= 1e-3

    def test_duplication_invariance(self):
        data = generate(GeneratorConfig(n=150, d=2, seed=1))
        doubled = Dataset(x=np.vstack([data.x, data.x]), l=np.tile(data.l, 2))
        a = fit_naive(data, REG0)
        b = fit_naive(doubled, REG0)
        np.testing.assert_allclose(a.target.w, b.target.w, atol=1e-3)
        assert abs(a.target.b - b.target.b) <= 1e-3

    def test_degenerate_flags_rejected(self):
        with pytest.raises(ValueError):
            fit_naive(Dataset(x=np.ones((3, 1)), l=np.ones(3, dtype=int)), REG0)


class TestFitRealOracle:
    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            fit_real_oracle(Dataset(x=np.ones((3, 1)), l=np.array([0, 1, 0])), REG0)

    def test_intercept_only_closed_form(self):
        x = np.zeros((100, 1))
        y = np.r_[np.ones(25, dtype=int), np.zeros(75, dtype=int)]
        l = np.zeros(100, dtype=int)
        model = fit_real_oracle(Dataset(x=x, l=l, y=y), REG0)
        assert abs(model.target.b - logit(0.25)) <= 1e-3

    def test_beats_naive_under_biased_annotation(self):
        data = generate(GeneratorConfig(n=2000, d=3, seed=2))
        train, test = split(data, 0.5, seed=0)
        oracle = fit_real_oracle(train, REG0)
        naive = fit_naive(train, REG0)
        rep_o = score_report(ModelKind.REAL_ORACLE, 0, oracle.score(test.x), test.y)
        rep_n = score_report(ModelKind.NAIVE, 0, naive.score(test.x), test.y)
        assert rep_o.accuracy > rep_n.accuracy


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
            model = fit_elkan(data, REG0, seed=4)
            errors[n] = abs(model.c_hat - c)
        assert errors[5000] <= 0.1
        assert errors[5000] < errors[1000]

    def test_score_saturates_at_one(self):
        truth = scar_params(d=2, c=0.5, seed=5)
        data = generate(GeneratorConfig(n=2000, d=2, seed=5, guess=0.5, lapse=0.5), params=truth)
        model = fit_elkan(data, REG0, seed=6)
        scores = model.score(data.x)
        assert scores.max() == 1.0
        assert np.all(scores <= 1.0)

    def test_constant_annotation_model_gives_exact_mean(self):
        # with a constant feature the annotation model is a constant, so
        # the holdout mean equals that constant exactly
        x = np.zeros((100, 1))
        l = np.r_[np.ones(35, dtype=int), np.zeros(65, dtype=int)]
        model = fit_elkan(Dataset(x=x, l=l), REG0, seed=7)
        assert model.c_hat == sigmoid(model.target.b)

    def test_no_labeled_holdout_rejected(self):
        x = np.random.default_rng(8).normal(size=(10, 1))
        l = np.zeros(10, dtype=int)
        l[:2] = 1
        # shrink the holdout until the two labeled rows always land in training
        failed = False
        for seed in range(30):
            try:
                fit_elkan(Dataset(x=x, l=l), REG0, holdout_frac=0.2, seed=seed)
            except ValueError:
                failed = True
                break
        assert failed

    def test_holdout_frac_validated(self):
        data = generate(GeneratorConfig(n=50, seed=9))
        with pytest.raises(ValueError):
            fit_elkan(data, REG0, holdout_frac=1.0)

    def test_calibration_improves_with_sample_size(self):
        truth = scar_params(d=3, c=0.6, tgt_scale=1.5, seed=10)
        errors = {}
        for n in (500, 5000):
            data = generate(
                GeneratorConfig(n=n, d=3, seed=11, guess=0.6, lapse=0.4), params=truth
            )
            model = fit_elkan(data, REG0, seed=12)
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
        model = fit_spm(data, REG0, seed=15, n_starts=3)
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
        a = est._assign_target_factor(unpack_spm(minimize(value, value_and_grad, init, opt).params, 2))
        b = est._assign_target_factor(unpack_spm(minimize(value, value_and_grad, swapped, opt).params, 2))
        np.testing.assert_allclose(a.target.w, b.target.w, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(a.selection.w, b.selection.w, rtol=1e-4, atol=1e-6)

    def test_all_unlabeled_still_returns_finite_params(self):
        x = np.random.default_rng(18).normal(size=(8, 2))
        data = Dataset(x=x, l=np.zeros(8, dtype=int))
        model = fit_spm(data, REG0, seed=19)
        assert np.all(np.isfinite(model.target.w)) and np.isfinite(model.target.b)

    def test_non_convergence_reported_not_raised(self):
        data = generate(GeneratorConfig(n=500, d=2, seed=20))
        opt = OptimizerConfig(max_iters=3, grad_tol=1e-12)
        model = fit_spm(data, REG0, opt=opt, seed=21)
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
    def test_init_validation(self):
        data = generate(GeneratorConfig(n=100, seed=24))
        with pytest.raises(ValueError):
            fit_psychm(data, REG0, init_guess=0.0)
        with pytest.raises(ValueError):
            fit_psychm(data, REG0, init_guess=0.6, init_lapse=0.5)

    def test_rate_recovery(self):
        truth = PsychmParams(
            selection=LinearParams(w=np.array([2.0, -1.5, 1.0, 0.5, -1.0]), b=0.2),
            guess=0.05,
            lapse=0.05,
            target=LinearParams(w=np.array([2.5, 2.0, -2.0, 1.5, -3.0]), b=-0.3),
        )
        data = generate(GeneratorConfig(n=5000, d=5, seed=25), params=truth)
        model = fit_psychm(data, REG0, seed=26, n_starts=3)
        assert abs(model.guess - 0.05) <= 0.1

    def test_pinned_rates_reproduce_spm_trajectory(self):
        # with both rate surrogates at the |.| kink their gradient is zero,
        # so no search direction moves them and the remaining coordinates
        # follow the sigmoid-product trajectory exactly
        data = generate(GeneratorConfig(n=400, d=2, seed=27))
        rng = np.random.default_rng(28)
        w1, w2 = rng.normal(0, 0.1, 2), rng.normal(0, 0.1, 2)
        spm_init = np.concatenate([w1, [0.0], w2, [0.0]])
        psy_init = np.concatenate([w1, [0.0, 0.0, 0.0], w2, [0.0]])
        opt = OptimizerConfig(max_iters=150)
        spm_value, spm_value_and_grad = make_loss_functions(data, ModelKind.SPM, REG0)
        psy_value, psy_value_and_grad = make_loss_functions(data, ModelKind.PSYCHM, REG0)
        spm_res = minimize(spm_value, spm_value_and_grad, spm_init, opt)
        psy_res = minimize(psy_value, psy_value_and_grad, psy_init, opt)
        assert psy_res.params[3] == 0.0 and psy_res.params[4] == 0.0
        spm_free = spm_res.params
        psy_free = np.concatenate([psy_res.params[:3], psy_res.params[5:]])
        assert spm_free.tobytes() == psy_free.tobytes()
        assert spm_res.loss == psy_res.loss
        assert spm_res.iterations == psy_res.iterations

    def test_default_fit_recovers_target(self):
        # Stopped far from the optimum, a fit on this dataset ends on a
        # wrong target (cosine 0.08).
        data = generate(GeneratorConfig(n=5000, seed=3))
        model = fit_psychm(data, RegConfig(0.01, 0.01), seed=0)
        assert cosine(model.target.w, data.true_params.target.w) >= 0.99

    def test_dimension_one_flagged(self):
        x = np.random.default_rng(29).normal(size=(60, 1))
        l = (x[:, 0] > 0).astype(int)
        model = fit_psychm(Dataset(x=x, l=l), REG0,
                           opt=OptimizerConfig(max_iters=50), seed=30)
        assert any("identifiable" in note for note in model.diagnostics.notes)


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
        reg = select_hyperparams(data, ModelKind.NAIVE, cv, seed=32)
        assert (reg.c_sel, reg.c_tgt) == (0.5, 0.25)
        assert len(calls) == cv.folds

    def test_inert_selection_axis_deduplicated(self, monkeypatch):
        data = generate(GeneratorConfig(n=120, d=2, seed=33))
        cv = CvConfig(folds=2, grid_sel=(0.0, 1.0, 2.0), grid_tgt=(0.1, 0.2))
        calls = []
        original = est._fit_kind

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(est, "_fit_kind", counting)
        select_hyperparams(data, ModelKind.NAIVE, cv, seed=34)
        assert len(calls) == len(cv.grid_tgt) * cv.folds

    def test_tie_broken_toward_larger_penalty(self):
        # the selection axis is inert for the flag-only baseline, so every
        # c_sel shares the target-axis Brier and the largest must win
        data = generate(GeneratorConfig(n=120, d=2, seed=35))
        cv = CvConfig(folds=2, grid_sel=(0.0, 1.0), grid_tgt=(0.1,))
        reg = select_hyperparams(data, ModelKind.NAIVE, cv, seed=36)
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
            reg = select_hyperparams(Dataset(x=x, l=l), ModelKind.NAIVE, cv, seed=rep)
            wins += reg.c_tgt == 10.0
        assert wins >= 40

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CvConfig(grid_sel=(), grid_tgt=(0.1,))

    def test_too_few_rows_rejected(self):
        data = Dataset(x=np.ones((2, 1)), l=np.array([0, 1]))
        with pytest.raises(ValueError):
            select_hyperparams(data, ModelKind.NAIVE, CvConfig(folds=3), seed=0)

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
            fit_elkan(train.subset(np.concatenate(folds[:2])), REG0,
                      seed=est._derive_seed(cv_seed, 1, 0, 2))

        cv_opt = protocol.cv_optimizer_for(ModelKind.ELKAN)
        reg = select_hyperparams(train, ModelKind.ELKAN, protocol.cv, opt=cv_opt,
                                 seed=cv_seed, protocol=protocol)
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
            select_hyperparams(data, ModelKind.ELKAN, cv, seed=42)


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

    def test_all_kinds_produce_unit_interval_scores(self, protocol):
        data = generate(GeneratorConfig(n=600, d=2, seed=39, guess=0.4))
        for kind in ModelKind:
            model = train_model(data, kind, protocol, seed=40)
            scores = model.score(data.x)
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0), kind

    def test_default_optimizer_mapping(self):
        assert default_optimizer(ModelKind.PSYCHM) == OptimizerConfig(max_iters=150)
        assert default_optimizer(ModelKind.SPM) == OptimizerConfig(max_iters=150)
        for kind in (ModelKind.NAIVE, ModelKind.ELKAN, ModelKind.REAL_ORACLE):
            assert default_optimizer(kind) == OptimizerConfig(max_iters=200)
