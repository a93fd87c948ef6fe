"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 share a single 100-trial benchmark run (module-scoped
fixture), which dominates the suite's runtime; trial parallelism follows
the machine's CPU count.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from puselect.cli import main as cli_main
from puselect.data import Dataset, split
from puselect.estimators import (
    CvConfig,
    TrainingProtocol,
    fit_psychm,
    fit_spm,
)
from puselect.metrics import auc_roc, accuracy, brier, f1
from puselect.models import (
    LinearParams,
    ModelKind,
    PsychmParams,
    affine_sigmoid,
    psychm_posterior,
    sigmoid,
)
from puselect.objective import RegConfig, free_param_length, make_loss_functions
from puselect.runner import ExperimentConfig, _derive_seed, bootstrap_evaluate, run_synth_benchmark
from puselect.synth import GeneratorConfig, generate

pytestmark = pytest.mark.acceptance

ALL_KINDS = (ModelKind.SPM, ModelKind.PSYCHM, ModelKind.NAIVE, ModelKind.ELKAN,
             ModelKind.REAL_ORACLE)

BENCHMARK_PROTOCOL = TrainingProtocol(cv_max_iters=66, n_starts=3)
BENCHMARK_SEED = 20240801


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


@pytest.fixture(scope="module")
def benchmark_config(tmp_path_factory):
    """100 trials under the default synthetic generator settings."""
    out = tmp_path_factory.mktemp("bench100")
    return ExperimentConfig(
        generator=GeneratorConfig(),  # n=5000, d=5, rho1=10, rho2=1, k=5, rates 0.05
        protocol=BENCHMARK_PROTOCOL,
        models=ALL_KINDS,
        trials=100,
        seed=BENCHMARK_SEED,
        jobs=max(1, os.cpu_count() or 1),
        output_dir=str(out),
    )


@pytest.fixture(scope="module")
def benchmark_run(benchmark_config):
    return run_synth_benchmark(benchmark_config)


# Mean F1 of the paper's Table 1.  The generator settings behind these
# numbers are not recorded in this repository, and the GeneratorConfig()
# defaults do not reproduce them (under the defaults the exact rules that
# the naive and Elkan baselines estimate score far below them), so they are
# printed for comparison and never asserted.
PAPER_TABLE1_F1 = {
    ModelKind.SPM: 0.8920,
    ModelKind.ELKAN: 0.8826,
    ModelKind.NAIVE: 0.8807,
    ModelKind.REAL_ORACLE: 0.9598,
}

REFERENCE_SAMPLE_N = 50_000
REFERENCE_SAMPLE_SEED = 1000  # plus the trial id


def population_logistic(x, targets):
    """Unpenalized logistic regression of targets on x by damped Newton (IRLS)."""
    X = np.hstack([x, np.ones((x.shape[0], 1))])
    theta = np.zeros(X.shape[1])

    def nll(th):
        z = X @ th
        return float(np.sum(np.logaddexp(0.0, z) - targets * z))

    current = nll(theta)
    for _ in range(100):
        p = sigmoid(X @ theta)
        step = np.linalg.solve((X * (p * (1.0 - p))[:, None]).T @ X, X.T @ (p - targets))
        scale = 1.0
        while nll(theta - scale * step) > current and scale > 1e-8:
            scale *= 0.5
        theta = theta - scale * step
        previous, current = current, nll(theta)
        if previous - current <= 1e-12 * max(1.0, abs(previous)):
            break
    return theta[:-1], theta[-1]


def ground_truth_reference_f1(seed, trial_ids):
    """Mean test F1 of the rule each model estimates, from the trials' ground truth.

    Every trial's data and test split are re-derived as the synthetic
    benchmark runner derives them.  SPM and the oracle estimate the true
    class posterior, so their reference rule is t_true(x) >= 0.5.  The naive
    and Elkan baselines both fit a logistic model h of l on x; their
    reference rule is the population logistic fit on a large fresh sample
    from the trial's true parameters, thresholded as h >= 0.5 (naive) or
    min(1, h / c) >= 0.5 (Elkan), with c the mean of h over the sample's
    annotated rows.
    """
    scores = {kind: [] for kind in PAPER_TABLE1_F1}
    for trial_id in trial_ids:
        gen_cfg = replace(GeneratorConfig(), seed=_derive_seed(seed, trial_id, 0))
        data = generate(gen_cfg)
        _, test = split(data, 0.5, seed=_derive_seed(seed, trial_id, 1))
        truth = data.true_params

        t_true = affine_sigmoid(test.x, truth.target.w, truth.target.b)
        target_f1 = f1((t_true >= 0.5).astype(np.int64), test.y)
        scores[ModelKind.SPM].append(target_f1)
        scores[ModelKind.REAL_ORACLE].append(target_f1)

        sample = generate(
            replace(gen_cfg, n=REFERENCE_SAMPLE_N, seed=REFERENCE_SAMPLE_SEED + trial_id),
            params=truth,
        )
        w, b = population_logistic(sample.x, sample.l)
        c = float(np.mean(affine_sigmoid(sample.x[sample.l == 1], w, b)))
        h = affine_sigmoid(test.x, w, b)
        scores[ModelKind.NAIVE].append(f1((h >= 0.5).astype(np.int64), test.y))
        scores[ModelKind.ELKAN].append(
            f1((np.minimum(1.0, h / c) >= 0.5).astype(np.int64), test.y)
        )
    return {kind: float(np.mean(vals)) for kind, vals in scores.items()}


class TestCriterion1SyntheticRanking:
    TOLERANCE = 0.03

    def test_ranking_and_reference_values(self, benchmark_run):
        f1_means = {k: benchmark_run.mean("f1", k) for k in ALL_KINDS}
        brier_means = {k: benchmark_run.mean("brier", k) for k in ALL_KINDS}
        trial_ids = sorted({r.trial_id for r in benchmark_run.reports})
        reference_f1 = ground_truth_reference_f1(BENCHMARK_SEED, trial_ids)

        orderings = {
            "spm>elkan": f1_means[ModelKind.SPM] > f1_means[ModelKind.ELKAN],
            "spm>naive": f1_means[ModelKind.SPM] > f1_means[ModelKind.NAIVE],
            "psychm>elkan": f1_means[ModelKind.PSYCHM] > f1_means[ModelKind.ELKAN],
            "psychm>naive": f1_means[ModelKind.PSYCHM] > f1_means[ModelKind.NAIVE],
            "real>all": all(
                f1_means[ModelKind.REAL_ORACLE] > f1_means[k]
                for k in ALL_KINDS
                if k != ModelKind.REAL_ORACLE
            ),
        }
        gaps = {k: f1_means[k] - ref for k, ref in reference_f1.items()}
        value_match = {k.value: abs(gap) <= self.TOLERANCE for k, gap in gaps.items()}
        brier_signs = {
            "spm<elkan": brier_means[ModelKind.SPM] < brier_means[ModelKind.ELKAN],
            "spm<naive": brier_means[ModelKind.SPM] < brier_means[ModelKind.NAIVE],
        }

        value_table = "; ".join(
            f"{k.value} measured={f1_means[k]:.4f} reference={reference_f1[k]:.4f} "
            f"gap={gaps[k]:+.4f}"
            for k in reference_f1
        )
        paper = ", ".join(f"{k.value}={v:.4f}" for k, v in PAPER_TABLE1_F1.items())
        detail = (
            f"f1 means {{{', '.join(f'{k.value}={v:.4f}' for k, v in f1_means.items())}}}; "
            f"orderings {orderings}; ground-truth reference match "
            f"(+/-{self.TOLERANCE}) {value_match} [{value_table}]; "
            f"brier sign orderings {brier_signs}; paper Table-1 f1 for comparison, "
            f"generator regime not recorded here, not asserted: {{{paper}}}"
        )
        ok = all(orderings.values()) and all(value_match.values()) and all(brier_signs.values())
        report("criterion 1 (synthetic ranking reproduction)", ok, detail)
        assert all(orderings.values()), f"f1 orderings violated: {orderings}"
        assert all(brier_signs.values()), f"brier sign orderings violated: {brier_signs}"
        assert all(value_match.values()), (
            f"f1 means not within {self.TOLERANCE} of the ground-truth references: {value_table}"
        )


def sorted_order_statistic(values, q):
    v = sorted(float(x) for x in values)
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    if lo >= len(v) - 1:
        return v[-1]
    frac = pos - lo
    return v[lo] + frac * (v[lo + 1] - v[lo])


class TestCriterion2SignificanceProcedure:
    def test_quantile_test_and_oracle_agreement(self, benchmark_config, benchmark_run):
        matrix = benchmark_run.significance["f1"]
        spm_beats_naive = matrix[(ModelKind.SPM, ModelKind.NAIVE)].significant

        per_model = {
            k: np.array([r.f1 for r in benchmark_run.reports if r.model == k]) for k in ALL_KINDS
        }
        agree = True
        for m1 in ALL_KINDS:
            for m2 in ALL_KINDS:
                if m1 == m2:
                    continue
                diffs = per_model[m1] - per_model[m2]
                oracle_q = sorted_order_statistic(diffs, benchmark_config.quantile_rule)
                test = matrix[(m1, m2)]
                agree &= test.significant == (oracle_q >= 0.0)
                agree &= abs(test.quantile_value - oracle_q) <= 1e-12

        ok = spm_beats_naive and agree
        report(
            "criterion 2 (significance procedure)",
            ok,
            f"SPM significantly better than Naive at quantile 0.05: {spm_beats_naive}; "
            f"sorted-order-statistic oracle agrees on all {len(ALL_KINDS)*(len(ALL_KINDS)-1)} pairs: {agree}",
        )
        assert ok


class TestCriterion3GradientCorrectness:
    @staticmethod
    def _check_kind(kind, rng):
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 6))
            x = rng.normal(size=(10, d))
            l = rng.integers(0, 2, size=10)
            if l.sum() in (0, 10):
                l[0] = 1 - l[0]
            data = Dataset(x=x, l=l)
            theta = rng.normal(0.0, 1.0, size=free_param_length(kind, d))
            if kind == ModelKind.PSYCHM:
                theta[d + 1] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
                theta[d + 2] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
            reg = RegConfig(c_sel=float(rng.uniform(0, 2)), c_tgt=float(rng.uniform(0, 2)))
            value, value_and_grad = make_loss_functions(data, kind, reg)
            grad = value_and_grad(theta)[1]
            step = 1e-5
            for j in range(theta.size):
                bump = np.zeros_like(theta)
                bump[j] = step
                fd = (value(theta + bump) - value(theta - bump)) / (2 * step)
                if abs(fd) >= 1e-8:
                    rel = abs(grad[j] - fd) / abs(fd)
                    worst = max(worst, rel)
                    assert rel <= 1e-5, (kind, j, grad[j], fd)
                else:
                    assert abs(grad[j] - fd) <= 1e-8, (kind, j, grad[j], fd)
        return worst

    def test_analytic_gradients_match_central_differences(self):
        rng = np.random.default_rng(777)
        worst_spm = self._check_kind(ModelKind.SPM, rng)
        worst_psychm = self._check_kind(ModelKind.PSYCHM, rng)
        report(
            "criterion 3 (gradient correctness)",
            True,
            f"100 draws per model kind; worst relative error: sigmoid-product "
            f"{worst_spm:.2e}, psychometric {worst_psychm:.2e} (tolerance 1e-5)",
        )


class TestCriterion4IdentifiabilityRecovery:
    def test_sigmoid_product_target_recovery(self):
        truth = PsychmParams(
            selection=LinearParams(w=np.array([0.8, -0.6, 0.5]), b=-0.2),
            guess=0.0,
            lapse=0.0,
            target=LinearParams(w=np.array([5.0, -7.0, 6.0]), b=0.5),
        )
        data = generate(
            GeneratorConfig(n=20000, d=3, seed=4242, guess=0.0, lapse=0.0), params=truth
        )
        model = fit_spm(data, RegConfig(), TrainingProtocol(n_starts=5), seed=11)
        cos = float(
            model.target.w
            @ truth.target.w
            / (np.linalg.norm(model.target.w) * np.linalg.norm(truth.target.w))
        )
        ok = cos >= 0.95
        report(
            "criterion 4a (sigmoid-product target recovery)",
            ok,
            f"cosine(target_hat, target_true) = {cos:.4f} (threshold 0.95, "
            f"after the norm-based factor assignment)",
        )
        assert ok

    def test_psychometric_rate_recovery(self):
        truth = PsychmParams(
            selection=LinearParams(w=np.array([2.0, -1.5, 1.0]), b=0.3),
            guess=0.2,
            lapse=0.1,
            target=LinearParams(w=np.array([3.0, 2.0, -2.5]), b=-0.4),
        )
        data = generate(
            GeneratorConfig(n=20000, d=3, seed=777, guess=0.2, lapse=0.1), params=truth
        )
        model = fit_psychm(data, RegConfig(), TrainingProtocol(n_starts=5), seed=13)
        guess_err = abs(model.guess - 0.2)
        lapse_err = abs(model.lapse - 0.1)
        ok = guess_err <= 0.1 and lapse_err <= 0.1
        report(
            "criterion 4b (psychometric rate recovery)",
            ok,
            f"guess_hat={model.guess:.4f} (true 0.2, err {guess_err:.4f}), "
            f"lapse_hat={model.lapse:.4f} (true 0.1, err {lapse_err:.4f}), tolerance 0.1",
        )
        assert ok


class TestCriterion5NestingExactness:
    def test_zero_rate_psychometric_equals_sigmoid_product(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=(1000, 4))
        sel = LinearParams(w=rng.normal(size=4), b=0.3)
        tgt = LinearParams(w=rng.normal(size=4), b=-0.7)
        # The sigmoid product, computed here rather than by the package,
        # which evaluates SPM as psychm_posterior at these rates.
        product = affine_sigmoid(x, sel.w, sel.b) * affine_sigmoid(x, tgt.w, tgt.b)
        psy = PsychmParams(selection=sel, guess=0.0, lapse=0.0, target=tgt)
        gap = float(np.max(np.abs(psychm_posterior(x, psy) - product)))
        ok = gap == 0.0
        report(
            "criterion 5 (nesting exactness)",
            ok,
            f"max |psychm(guess=lapse=0) - spm| over 1000 points = {gap:.2e}; "
            "flat selection weights give a constant selection factor exactly",
        )
        assert ok
        # flat selection weights: selection probability is sigmoid(bias) at every x
        beta = 1.3
        sel_flat = affine_sigmoid(x, np.zeros(4), beta)
        assert np.all(sel_flat == sigmoid(beta))


class TestCriterion6MetricOracles:
    def test_auc_brute_force_and_hand_values(self):
        rng = np.random.default_rng(66)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(2, 201))
            truth = rng.integers(0, 2, n)
            if truth.sum() in (0, n):
                truth[0] = 1 - truth[0]
            scores = rng.integers(0, 9, n) / 8.0
            pos, neg = scores[truth == 1], scores[truth == 0]
            wins = sum(
                1.0 if p > v else 0.5 if p == v else 0.0 for p in pos for v in neg
            )
            assert auc_roc(scores, truth) == wins / (len(pos) * len(neg))
            checked += 1

        hand_checks = (
            brier([0.9, 0.2], [1, 0]) == ((0.9 - 1.0) ** 2 + (0.2 - 0.0) ** 2) / 2.0,
            f1([1] * 10 + [0] * 4, [1] * 8 + [0] * 2 + [1] * 4) == 2.0 * 8 / (2.0 * 8 + 2 + 4),
            accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75,
            auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75,
        )
        ok = checked == 100 and all(hand_checks)
        report(
            "criterion 6 (metric oracles)",
            ok,
            f"rank-based AUC equals all-pairs brute force on {checked}/100 instances; "
            f"hand-computed metric values reproduced bitwise: {all(hand_checks)}",
        )
        assert ok


class TestCriterion7NoFalsePositives:
    def test_thousand_seeded_draws(self):
        violations = 0
        for seed in range(1000):
            data = generate(GeneratorConfig(n=1000, d=3, seed=seed))
            violations += int(np.sum((data.l == 1) & (data.y == 0)))
        ok = violations == 0
        report(
            "criterion 7 (no-false-positive invariant)",
            ok,
            f"{violations} annotated negatives across 1000 seeded draws of 1000 rows",
        )
        assert ok


class TestCriterion8Determinism:
    FLAGS = [
        "--generator.n", "600", "--generator.d", "3",
        "--trials", "5", "--seed", "99",
        "--cv.max_iters", "40", "--fit.n_starts", "1",
    ]

    def test_bench_synth_byte_identical_across_jobs(self, tmp_path):
        digests = {}
        for jobs, name in (("1", "a"), ("4", "b"), ("1", "a2")):
            out = tmp_path / name
            code = cli_main(["bench-synth", *self.FLAGS, "--jobs", jobs, "--out", str(out)])
            assert code == 0
            digests[name] = (out / "aggregate.json").read_bytes()
        ok = digests["a"] == digests["b"] == digests["a2"]
        report(
            "criterion 8 (determinism across parallelism)",
            ok,
            f"aggregate JSON byte-identical for jobs=1 vs jobs=4 and across reruns: {ok}",
        )
        assert ok

    def test_bench_real_byte_identical_across_jobs(self, tmp_path):
        csv_path = tmp_path / "real.csv"
        gen_flags = ["--generator.n", "600", "--generator.d", "3", "--seed", "98"]
        assert cli_main(["generate", str(csv_path), *gen_flags]) == 0
        flags = ["--resamples", "4", "--seed", "99", "--cv.max_iters", "40", "--fit.n_starts", "1"]
        digests = {}
        for jobs, name in (("1", "a"), ("4", "b"), ("1", "a2")):
            out = tmp_path / name
            code = cli_main(["bench-real", str(csv_path), *flags, "--jobs", jobs, "--out", str(out)])
            assert code == 0
            digests[name] = (out / "aggregate.json").read_bytes()
        ok = digests["a"] == digests["b"] == digests["a2"]
        report(
            "criterion 8 (bench-real determinism across parallelism)",
            ok,
            f"aggregate JSON byte-identical for jobs=1 vs jobs=4 and across reruns: {ok}",
        )
        assert ok

    PSYCHM_GAP = 0.02  # how far PsychM's mean accuracy may trail SPM's in the closure run

    def test_real_benchmark_pipeline_closure_and_oracle_dominance(self, tmp_path):
        csv_path = tmp_path / "synth.csv"
        flags = ["--generator.n", "1000", "--generator.d", "3", "--seed", "31"]
        assert cli_main(["generate", str(csv_path), *flags]) == 0

        protocol = TrainingProtocol(
            cv=CvConfig(grid_sel=(0.01,), grid_tgt=(0.01,)), cv_max_iters=50, n_starts=1
        )
        from puselect.data import read_csv

        data = read_csv(csv_path)
        reports = bootstrap_evaluate(data, ALL_KINDS, 50, protocol, seed=17)
        mean_acc = {
            k: float(np.mean([r.accuracy for r in reports if r.model == k])) for k in ALL_KINDS
        }
        dominant = all(
            mean_acc[ModelKind.REAL_ORACLE] >= v
            for k, v in mean_acc.items()
            if k != ModelKind.REAL_ORACLE
        )
        # PsychM nests SPM, so one start of it should classify about as well.
        # A one-start fit that settles in the swapped factorization (guess
        # near 0, target weights near 0) scores near chance and fails this.
        psychm_close = mean_acc[ModelKind.PSYCHM] >= mean_acc[ModelKind.SPM] - self.PSYCHM_GAP
        report(
            "criterion 8 (real-benchmark closure + oracle dominance)",
            dominant and psychm_close,
            f"generated CSV ran end to end; mean accuracy over 50 resamples "
            f"{{{', '.join(f'{k.value}={v:.4f}' for k, v in mean_acc.items())}}}",
        )
        assert dominant
        assert psychm_close
