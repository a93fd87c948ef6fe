import math

import numpy as np
import pytest

from puselect.data import Dataset
from puselect.estimators import CvConfig, TrainingProtocol
from puselect.metrics import (
    accuracy,
    auc_roc,
    brier,
    f1,
    score_report,
    significance_matrix,
)
from puselect.models import ModelKind
from puselect.runner import bootstrap_evaluate
from puselect.synth import GeneratorConfig, generate


def brute_force_auc(scores, truth):
    """All positive-negative pairs; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def sorted_quantile(values, q):
    """Order statistics with linear interpolation, written out longhand."""
    v = sorted(float(x) for x in values)
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    if lo == len(v) - 1:
        return v[-1]
    frac = pos - lo
    return v[lo] + frac * (v[lo + 1] - v[lo])


class TestBrier:
    def test_perfect(self):
        assert brier([0.0, 1.0, 1.0], [0, 1, 1]) == 0.0

    def test_constant_half(self):
        assert brier([0.5] * 6, [0, 1, 0, 1, 1, 0]) == 0.25

    def test_hand_value(self):
        expected = ((0.9 - 1.0) ** 2 + (0.2 - 0.0) ** 2) / 2.0
        assert brier([0.9, 0.2], [1, 0]) == expected
        assert abs(brier([0.9, 0.2], [1, 0]) - 0.025) <= 1e-15

    def test_order_invariant_and_duplication_stable(self):
        rng = np.random.default_rng(0)
        s = rng.random(31)
        t = rng.integers(0, 2, 31)
        assert abs(brier(s[::-1], t[::-1]) - brier(s, t)) <= 1e-16
        np.testing.assert_allclose(
            brier(np.tile(s, 2), np.tile(t, 2)), brier(s, t), rtol=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            brier([0.5], [0, 1])
        with pytest.raises(ValueError):
            brier([], [])


class TestF1:
    def test_perfect(self):
        assert f1([1, 0, 1], [1, 0, 1]) == 1.0

    def test_degenerate_zero(self):
        assert f1([0, 0, 0], [1, 1, 0]) == 0.0

    def test_confusion_matrix_value(self):
        pred = [1] * 8 + [1] * 2 + [0] * 4 + [0] * 3
        truth = [1] * 8 + [0] * 2 + [1] * 4 + [0] * 3
        assert f1(pred, truth) == 2.0 * 8 / (2.0 * 8 + 2 + 4)
        assert abs(f1(pred, truth) - 0.7272727272727273) <= 1e-15


class TestAccuracy:
    def test_values(self):
        assert accuracy([1, 1, 0, 0], [1, 1, 0, 0]) == 1.0
        assert accuracy([1, 1], [0, 0]) == 0.0
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc_roc([0.7] * 5, [1, 0, 1, 0, 0]) == 0.5

    def test_hand_value(self):
        assert auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([0.1, 0.9], [1, 1])

    def test_exactly_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            truth = rng.integers(0, 2, n)
            if truth.sum() in (0, n):
                truth[0] = 1 - truth[0]
            # coarse grid of score values forces plenty of ties
            scores = rng.integers(0, 7, n) / 6.0
            assert auc_roc(scores, truth) == brute_force_auc(scores, truth)


class TestScoreReport:
    def test_auc_missing_for_single_class(self):
        rep = score_report(ModelKind.NAIVE, 3, np.array([0.2, 0.8]), np.array([1, 1]))
        assert rep.auc is None and rep.trial_id == 3
        assert rep.accuracy == 0.5

    def test_threshold_is_half(self):
        rep = score_report(ModelKind.NAIVE, 0, np.array([0.49, 0.5, 0.51]), np.array([0, 1, 1]))
        assert rep.accuracy == 1.0


class TestSignificance:
    def test_strict_dominance(self):
        scores = {ModelKind.SPM: np.ones(10), ModelKind.NAIVE: np.zeros(10)}
        for q in (0.05, 0.45, 0.5, 0.95):
            matrix = significance_matrix(scores, q)
            assert matrix[(ModelKind.SPM, ModelKind.NAIVE)].significant
            assert not matrix[(ModelKind.NAIVE, ModelKind.SPM)].significant

    def test_strict_anti_dominance(self):
        scores = {ModelKind.SPM: np.zeros(6), ModelKind.NAIVE: np.ones(6)}
        matrix = significance_matrix(scores, 0.05)
        assert not matrix[(ModelKind.SPM, ModelKind.NAIVE)].significant

    def test_matches_sorted_order_statistic_oracle(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=500)
        # about 6% of the differences dip just below zero
        diffs = np.where(rng.random(500) < 0.06, -0.01 * rng.random(500), np.abs(base) + 0.001)
        scores = {ModelKind.SPM: diffs, ModelKind.NAIVE: np.zeros(500)}
        for q in (0.01, 0.05, 0.0601, 0.25, 0.45):
            matrix = significance_matrix(scores, q)
            test = matrix[(ModelKind.SPM, ModelKind.NAIVE)]
            oracle_q = sorted_quantile(diffs, q)
            assert test.significant == (oracle_q >= 0.0)
            assert abs(test.quantile_value - oracle_q) <= 1e-12

    def test_zero_quantile_degenerates_to_min(self):
        rng = np.random.default_rng(3)
        diffs = rng.normal(size=50)
        scores = {ModelKind.SPM: diffs, ModelKind.ELKAN: np.zeros(50)}
        matrix = significance_matrix(scores, 0.0)
        assert matrix[(ModelKind.SPM, ModelKind.ELKAN)].significant == (diffs.min() >= 0.0)

    def test_one_direction_at_most(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores = {
                ModelKind.SPM: rng.normal(size=40),
                ModelKind.NAIVE: rng.normal(size=40),
            }
            q = float(rng.uniform(0.02, 0.48))
            matrix = significance_matrix(scores, q)
            forward = matrix[(ModelKind.SPM, ModelKind.NAIVE)].significant
            matrix_rev = significance_matrix(scores, 1.0 - q)
            backward = matrix_rev[(ModelKind.NAIVE, ModelKind.SPM)].significant
            diffs = scores[ModelKind.SPM] - scores[ModelKind.NAIVE]
            if forward and np.all(diffs != 0.0) and sorted_quantile(diffs, q) > 0.0:
                assert not backward

    def test_validation(self):
        with pytest.raises(ValueError):
            significance_matrix({ModelKind.SPM: np.ones(3), ModelKind.NAIVE: np.ones(4)}, 0.05)
        with pytest.raises(ValueError):
            significance_matrix({ModelKind.SPM: np.ones(1), ModelKind.NAIVE: np.ones(1)}, 0.05)


@pytest.fixture(scope="module")
def small_protocol():
    return TrainingProtocol(
        cv=CvConfig(grid_sel=(0.01,), grid_tgt=(0.01,)),
        cv_max_iters=50,
        n_starts=1,
    )


class TestBootstrapEvaluate:
    def test_deterministic_single_resample(self, small_protocol):
        data = generate(GeneratorConfig(n=400, d=3, seed=21))
        kinds = [ModelKind.NAIVE, ModelKind.REAL_ORACLE]
        a = bootstrap_evaluate(data, kinds, 1, small_protocol, seed=5)
        b = bootstrap_evaluate(data, kinds, 1, small_protocol, seed=5)
        assert a == b
        assert [r.model for r in a] == kinds

    def test_report_cardinality(self, small_protocol):
        data = generate(GeneratorConfig(n=300, d=2, seed=22))
        kinds = [ModelKind.NAIVE, ModelKind.ELKAN]
        reports = bootstrap_evaluate(data, kinds, 3, small_protocol, seed=6)
        assert len(reports) == 6
        assert {(r.model, r.trial_id) for r in reports} == {
            (k, t) for k in kinds for t in range(3)
        }

    def test_requires_ground_truth(self, small_protocol):
        data = Dataset(x=np.random.default_rng(23).normal(size=(30, 2)),
                       l=np.r_[np.ones(10, dtype=int), np.zeros(20, dtype=int)])
        with pytest.raises(ValueError):
            bootstrap_evaluate(data, [ModelKind.NAIVE], 1, small_protocol, seed=0)
