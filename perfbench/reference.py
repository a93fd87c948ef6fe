"""Ground-truth references for the benchmark's correctness checks.

Everything here is computed from the generator's true parameters with numpy
alone.  Nothing is imported from ``puselect.estimators``, ``optimize`` or
``objective``, so a fault in the fitting code cannot also bend its own
reference.  Only the data are re-derived through the package (``generate``,
``split`` and the CSV reader), exactly as the CLI derives them, so that a
reference is scored on the same rows as the model it checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from puselect import GeneratorConfig, generate, read_csv, split

# A model's F1 must lie this close to the F1 of the true-target rule on the
# same rows.  Criterion 1 of the acceptance suite uses 0.03 over 100 trials;
# a benchmark run averages over a handful of trials, whose noise is larger.
F1_TOLERANCE = 0.05
# The oracle's mean accuracy may trail another model's by at most this much.
# It is the best logistic fit of y, not the Bayes rule, so on 500 training
# rows SPM can beat it by chance (seen: 0.959 against 0.949 over 2 resamples).
ACCURACY_TOLERANCE = 0.03
# Fitted against true target weights on a 10 000-row CSV.
MIN_TARGET_COSINE = 0.99


def derive_seed(seed: int, *key: int) -> int:
    """The runner's per-trial seed derivation (counter-based, order-free)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint64)[0])


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def f1(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = float(np.sum((pred == 1) & (truth == 1)))
    fp = float(np.sum((pred == 1) & (truth == 0)))
    fn = float(np.sum((pred == 0) & (truth == 1)))
    return 2.0 * tp / (2.0 * tp + fp + fn) if tp > 0 else 0.0


def target_rule_f1(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
    """F1 of the true-target rule t_true(x) >= 0.5, the rule SPM estimates."""
    return f1((sigmoid(x @ w + b) >= 0.5).astype(np.int64), y)


def cosine(u, v) -> float:
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def synth_trial_reference(seed: int, trial_id: int, n: int) -> float:
    """True-target-rule F1 on the test rows of one ``bench-synth`` trial.

    The trial's data and its test half are re-derived the way the runner
    derives them from the master seed and the trial index.
    """
    gen_cfg = GeneratorConfig(n=n, seed=derive_seed(seed, trial_id, 0))
    data = generate(gen_cfg)
    _, test = split(data, 0.5, seed=derive_seed(seed, trial_id, 1))
    truth = data.true_params.target
    return target_rule_f1(test.x, test.y, truth.w, truth.b)


def load_sidecar(csv_path) -> dict:
    """Generator provenance written next to a generated CSV."""
    return json.loads(Path(csv_path).with_suffix(".json").read_text())


def true_target(sidecar: dict) -> tuple[np.ndarray, float]:
    tgt = sidecar["true_params"]["target"]
    return np.asarray(tgt["w"], dtype=float), float(tgt["b"])


def bootstrap_references(csv_path, seed: int, resamples: int) -> list[float]:
    """True-target-rule F1 on the test half of each ``bench-real`` resample.

    Resample r draws n rows with replacement from a Philox stream keyed
    (r, 0) and splits them in halves with the seed derived from (r, 1), as
    the bootstrap evaluation does.
    """
    data = read_csv(csv_path)
    w, b = true_target(load_sidecar(csv_path))
    refs = []
    for r in range(resamples):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r, 0))))
        sample = data.subset(rng.integers(0, data.n, size=data.n))
        _, test = split(sample, 0.5, seed=derive_seed(seed, r, 1))
        refs.append(target_rule_f1(test.x, test.y, w, b))
    return refs


def csv_reference(csv_path) -> float:
    """True-target-rule F1 over every row of a generated CSV."""
    data = read_csv(csv_path)
    w, b = true_target(load_sidecar(csv_path))
    return target_rule_f1(data.x, data.y, w, b)

