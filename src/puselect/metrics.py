"""Classification metrics and the pairwise quantile test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Not used here.  perfbench/tracing.py wraps ``split`` where each module looks
# it up, including here, where the bootstrap evaluation used to live.
from .data import split  # noqa: F401
from .models import ModelKind

__all__ = [
    "MetricReport",
    "PairTest",
    "brier",
    "f1",
    "accuracy",
    "auc_roc",
    "score_report",
    "significance_matrix",
]

METRIC_NAMES = ("f1", "accuracy", "auc", "brier")
# Brier flips sign before significance testing so that every metric is
# oriented higher-is-better.
LOWER_IS_BETTER = ("brier",)


@dataclass(frozen=True)
class MetricReport:
    """Scores of one model on one trial; auc is None when the test truth is
    single-class, and every score and penalty is None when the model failed
    to fit.  ``converged`` is the fit's diagnostic, counted in the
    aggregate but not written per row; ``c_sel`` and ``c_tgt`` are the
    penalties the fit used, written per row."""

    model: ModelKind
    trial_id: int
    f1: float | None
    accuracy: float | None
    auc: float | None
    brier: float | None
    converged: bool = True
    c_sel: float | None = None
    c_tgt: float | None = None


def _pair(a, b, a_name: str, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError(f"{a_name} and {b_name} must be equal-length non-empty vectors")
    return a, b


def brier(scores, truth) -> float:
    """Mean squared error between predicted probabilities and 0/1 outcomes."""
    scores, truth = _pair(scores, truth, "scores", "truth")
    return float(np.mean((scores - truth) ** 2))


def f1(pred, truth) -> float:
    """Harmonic mean of precision and recall on the positive class; 0 when undefined."""
    pred, truth = _pair(pred, truth, "pred", "truth")
    tp = float(np.sum((pred == 1) & (truth == 1)))
    fp = float(np.sum((pred == 1) & (truth == 0)))
    fn = float(np.sum((pred == 0) & (truth == 1)))
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def accuracy(pred, truth) -> float:
    pred, truth = _pair(pred, truth, "pred", "truth")
    return float(np.mean(pred == truth))


def auc_roc(scores, truth) -> float:
    """Probability that a random positive outscores a random negative, ties at 1/2.

    Computed via average ranks, which agrees exactly with brute force over
    all positive-negative pairs.
    """
    scores, truth = _pair(scores, truth, "scores", "truth")
    n_pos = int(np.sum(truth == 1))
    n_neg = int(np.sum(truth == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc needs both classes present in truth")
    sorted_scores = np.sort(scores)
    left = np.searchsorted(sorted_scores, scores, side="left")
    right = np.searchsorted(sorted_scores, scores, side="right")
    ranks = 0.5 * (left + right + 1)  # 1-based average ranks
    pos_rank_sum = float(np.sum(ranks[truth == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def score_report(model_kind: ModelKind, trial_id: int, scores, truth) -> MetricReport:
    """All four metrics for one model on one test set, thresholding at 0.5."""
    scores, truth = _pair(scores, truth, "scores", "truth")
    pred = (scores >= 0.5).astype(np.int64)
    both_classes = 0 < int(np.sum(truth == 1)) < truth.size
    return MetricReport(
        model=model_kind,
        trial_id=trial_id,
        f1=f1(pred, truth),
        accuracy=accuracy(pred, truth),
        auc=auc_roc(scores, truth) if both_classes else None,
        brier=brier(scores, truth),
    )


@dataclass(frozen=True)
class PairTest:
    """For one ordered model pair: is the first one better, and the tested quantile value."""

    significant: bool
    quantile_value: float


def significance_matrix(
    per_trial_scores: dict[ModelKind, np.ndarray], quantile_rule: float = 0.05
) -> dict[tuple[ModelKind, ModelKind], PairTest]:
    """Quantile test of per-trial score differences for every ordered pair
    ``(better, worse)``.

    Scores must already be oriented higher-is-better.  The first model is
    declared significantly better than the second when the configured
    empirical quantile (order statistics with linear interpolation) of the
    per-trial differences is nonnegative.
    """
    if not 0.0 <= quantile_rule <= 1.0:
        raise ValueError("quantile_rule must be in [0, 1]")
    kinds = list(per_trial_scores)
    vectors = {k: np.asarray(v, dtype=float) for k, v in per_trial_scores.items()}
    lengths = {v.size for v in vectors.values()}
    if len(lengths) != 1 or lengths.pop() < 2:
        raise ValueError("all score vectors must share one length >= 2")
    pairs = {}
    for m1 in kinds:
        for m2 in kinds:
            if m1 == m2:
                continue
            diff = vectors[m1] - vectors[m2]
            q = float(np.quantile(diff, quantile_rule))
            pairs[(m1, m2)] = PairTest(significant=q >= 0.0, quantile_value=q)
    return pairs
