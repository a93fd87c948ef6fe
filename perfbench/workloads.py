"""The benchmark's workloads: their inputs, their rounds of CLI calls, and their checks.

A workload runs whole rounds of the same operations.  Each round is one or
two ``puselect`` CLI invocations, given here as argument lists, so that the
untraced run can start them as processes and the traced run can pass them
to ``puselect.cli.main`` in its own process.  An operation is a trial, a
resample or a fit.  Every round gets its own seed, derived from the
workload seed, so a run covers fresh data or fresh restarts on each round
and the same workload seed always gives the same inputs.

After the rounds, ``check`` compares the outputs with ground-truth
references (see ``reference.py``) and returns the quality metrics.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from statistics import mean, median

from reference import (
    ACCURACY_TOLERANCE,
    F1_TOLERANCE,
    MIN_TARGET_COSINE,
    bootstrap_references,
    cosine,
    csv_reference,
    load_sidecar,
    synth_trial_reference,
    true_target,
)

MODELS = ("spm", "psychm", "naive", "elkan", "real")


class CheckFailed(Exception):
    """An output disagrees with its ground-truth reference."""


def round_seed(seed: int, r: int) -> int:
    return 1000 * seed + r


def _read_reports(path) -> dict[str, list[dict]]:
    """Per-model rows of a ``trials.csv`` / ``resamples.csv`` report."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    by_model: dict[str, list[dict]] = {m: [] for m in MODELS}
    for row in rows:
        by_model[row["model"]].append(
            {"f1": float(row["f1"]), "accuracy": float(row["accuracy"])}
        )
    return by_model


def _read_csv_setup(seed: int, csv_path: Path) -> str:
    return (
        "from puselect import cli, read_csv\n"
        f"cfg = cli.build_config({{'seed': '{round_seed(seed, 0)}'}})\n"
        f"read_csv({str(csv_path)!r})\n"
    )


def _require(ok: bool, message: str, failures: list[str]) -> None:
    if not ok:
        failures.append(message)


class Workload:
    name = ""
    ops_per_call = 1  # operations one CLI call of a round performs

    def __init__(self, work_dir: Path, seed: int, small: bool = False):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.small = small
        # Extra CLI flags that shrink the work for the self-test.
        self.shrink = ["--cv.grid_sel", "0.01", "--cv.grid_tgt", "0.01"] if small else []

    def out_dir(self, r: int) -> Path:
        return self.work_dir / f"round{r}"

    def input_argvs(self, r: int) -> list[list[str]]:
        """CLI calls that write the input files of round r, outside the timing."""
        return []

    def setup_code(self) -> str:
        """Python source run in a fresh process to time set-up: everything
        the CLI does before its first fit."""
        raise NotImplementedError

    def round_argvs(self, r: int, jobs: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, rounds: list[int]) -> tuple[dict[str, float], dict[str, object]]:
        """Check the outputs of the given rounds against ground truth.

        Returns the quality metrics and an informational summary; raises
        CheckFailed naming every check that failed.
        """
        raise NotImplementedError


class SynthTrials(Workload):
    """``bench-synth`` on the default generator, one trial per round."""

    name = "synth-trials"

    def __init__(self, work_dir, seed, small=False):
        super().__init__(work_dir, seed, small)
        self.n = 600 if small else 5000
        if small:
            self.shrink += ["--generator.n", str(self.n)]

    def setup_code(self) -> str:
        return (
            "from puselect import cli, generate, split\n"
            f"cfg = cli.build_config({{'seed': '{round_seed(self.seed, 0)}', 'trials': '1'}})\n"
            "split(generate(cfg.generator), 0.5, seed=1)\n"
        )

    def round_argvs(self, r, jobs):
        return [[
            "bench-synth", "--trials", "1", "--jobs", "1",
            "--seed", str(round_seed(self.seed, r)), "--out", str(self.out_dir(r)),
            *self.shrink,
        ]]

    def check(self, rounds):
        f1s = {m: [] for m in MODELS}
        refs = []
        for r in rounds:
            reports = _read_reports(self.out_dir(r) / "trials.csv")
            for m in MODELS:
                if len(reports[m]) != 1:
                    raise CheckFailed(f"round {r}: expected one {m} row, got {len(reports[m])}")
                f1s[m].append(reports[m][0]["f1"])
            refs.append(synth_trial_reference(round_seed(self.seed, r), 0, self.n))
        ref = mean(refs)
        failures: list[str] = []
        _require(
            abs(mean(f1s["real"]) - ref) <= F1_TOLERANCE,
            f"oracle mean F1 {mean(f1s['real']):.4f} is not within {F1_TOLERANCE} "
            f"of the true-target rule's {ref:.4f}",
            failures,
        )
        # SPM now and then settles on the swapped factorization of a trial
        # (1 trial in 40 seen, F1 0.20 under the reference), so it must
        # match the reference on at least half of a run's trials, not on
        # their mean.
        close = sum(abs(f - r) <= F1_TOLERANCE for f, r in zip(f1s["spm"], refs))
        _require(
            2 * close >= len(refs),
            f"spm F1 is within {F1_TOLERANCE} of the true-target rule's on only "
            f"{close} of {len(refs)} trials",
            failures,
        )
        if failures:
            raise CheckFailed("; ".join(failures))
        info = {f"f1_{m}": round(mean(f1s[m]), 4) for m in MODELS}
        info["f1_target_rule"] = round(ref, 4)
        return {"f1_rel_spm": median(f / r for f, r in zip(f1s["spm"], refs))}, info


class RealBootstrap(Workload):
    """``bench-real`` on a generated 1000-row CSV with y, two resamples per
    round.  Every round reads a CSV of its own: a resample's cost depends on
    the data (by a fifth between the CSVs of seeds 3 and 8), so a run
    averages over datasets."""

    name = "real-bootstrap"
    ops_per_call = 2
    # Elkan is left out: on some of these CSVs the holdout Elkan splits off has no
    # annotated row, and the whole call fails (see CHANGES.md).
    models = ("spm", "psychm", "naive", "real")

    def csv(self, r: int) -> Path:
        return self.work_dir / f"real{r}.csv"

    def input_argvs(self, r):
        n = "300" if self.small else "1000"
        return [[
            "generate", str(self.csv(r)), "--seed", str(round_seed(self.seed, r)),
            "--generator.n", n, "--generator.d", "3",
        ]]

    def setup_code(self) -> str:
        return _read_csv_setup(self.seed, self.csv(0))

    def round_argvs(self, r, jobs):
        return [[
            "bench-real", str(self.csv(r)), "--resamples", str(self.ops_per_call),
            "--jobs", str(jobs), "--seed", str(round_seed(self.seed, r)),
            "--models", ",".join(self.models), "--out", str(self.out_dir(r)), *self.shrink,
        ]]

    def check(self, rounds):
        f1s = {m: [] for m in self.models}
        accs = {m: [] for m in self.models}
        refs, rel_spm = [], []
        for r in rounds:
            reports = _read_reports(self.out_dir(r) / "resamples.csv")
            for m in self.models:
                if len(reports[m]) != self.ops_per_call:
                    raise CheckFailed(f"round {r}: expected {self.ops_per_call} {m} rows")
                f1s[m] += [row["f1"] for row in reports[m]]
                accs[m] += [row["accuracy"] for row in reports[m]]
            round_refs = bootstrap_references(self.csv(r), round_seed(self.seed, r), self.ops_per_call)
            refs += round_refs
            rel_spm.append(mean(row["f1"] for row in reports["spm"]) / mean(round_refs))
        ref = mean(refs)
        failures: list[str] = []
        # PsychM is left out on purpose: its shortfall on small data is
        # reported, not asserted.
        for m in ("spm", "naive"):
            _require(
                mean(accs["real"]) >= mean(accs[m]) - ACCURACY_TOLERANCE,
                f"oracle mean accuracy {mean(accs['real']):.4f} trails {m}'s "
                f"{mean(accs[m]):.4f} by more than {ACCURACY_TOLERANCE}",
                failures,
            )
        # SPM's F1 is not checked against the reference here: on some
        # 1000-row CSVs every resample's SPM fit misses it by far (0.55 on
        # the CSV of seed 8), see CHANGES.md.  It is reported in f1_rel_spm,
        # the median over rounds, so that one such CSV does not set a run.
        if failures:
            raise CheckFailed("; ".join(failures))
        info = {f"f1_{m}": round(mean(f1s[m]), 4) for m in self.models}
        info.update({f"accuracy_{m}": round(mean(accs[m]), 4) for m in self.models})
        info["f1_target_rule"] = round(ref, 4)
        return {"f1_rel_spm": median(rel_spm)}, info


class FitLarge(Workload):
    """The ``fit`` verb, SPM then PsychM, on a large generated CSV with a
    single-cell penalty grid, so that CV is a small share of the work.

    Every round fits a CSV of its own: fit time depends on the data (PsychM
    took 5.3 to 7.6 s on six 10 000-row CSVs), so a run averages over datasets.
    """

    name = "fit-large"
    fit_models = ("spm", "psychm")

    def __init__(self, work_dir, seed, small=False):
        super().__init__(work_dir, seed, small)
        self.n = 3000 if small else 10000

    def csv(self, r: int) -> Path:
        return self.work_dir / f"large{r}.csv"

    def input_argvs(self, r):
        return [[
            "generate", str(self.csv(r)), "--seed", str(round_seed(self.seed, r)),
            "--generator.n", str(self.n),
        ]]

    def setup_code(self) -> str:
        return _read_csv_setup(self.seed, self.csv(0))

    def round_argvs(self, r, jobs):
        return [
            [
                "fit", str(self.csv(r)), "--model", model,
                "--seed", str(round_seed(self.seed, r)),
                "--cv.grid_sel", "0.01", "--cv.grid_tgt", "0.01",
                "--out", str(self.out_dir(r)),
            ]
            for model in self.fit_models
        ]

    def check(self, rounds):
        fits = {m: [] for m in self.fit_models}
        cos = {m: [] for m in self.fit_models}
        f1_rel_spm = []
        for r in rounds:
            w_true, _ = true_target(load_sidecar(self.csv(r)))
            ref = csv_reference(self.csv(r))
            for m in self.fit_models:
                fit = json.loads((self.out_dir(r) / f"fit_{m}.json").read_text())
                fits[m].append(fit)
                cos[m].append(cosine(fit["params"]["target"]["w"], w_true))
            f1_rel_spm.append(fits["spm"][-1]["training_metrics"]["f1"] / ref)
        # Like synth-trials, SPM must recover the target on at least half of
        # the fits: on some CSVs it settles on the swapped factorization
        # (cosine 0.88 on the CSV of seed 13003).
        good = [c >= MIN_TARGET_COSINE and f >= 1.0 - F1_TOLERANCE
                for c, f in zip(cos["spm"], f1_rel_spm)]
        if 2 * sum(good) < len(good):
            raise CheckFailed(
                f"spm reaches a target cosine of {MIN_TARGET_COSINE} and 1 - {F1_TOLERANCE} of "
                f"the true-target rule's F1 on only {sum(good)} of {len(good)} fits: "
                f"cosines {[round(c, 4) for c in cos['spm']]}, F1 ratios "
                f"{[round(f, 4) for f in f1_rel_spm]}"
            )
        # PsychM's recovery is reported, not asserted: on some datasets and
        # restarts its fit lands on the wrong factorization (see CHANGES.md).
        psy = fits["psychm"]
        info = {
            "cosine_spm": [round(c, 5) for c in cos["spm"]],
            "cosine_psychm": [round(c, 5) for c in cos["psychm"]],
            "guess_psychm": [round(p["params"]["guess"], 4) for p in psy],
            "lapse_psychm": [round(p["params"]["lapse"], 4) for p in psy],
        }
        return {"f1_rel_spm": median(f1_rel_spm)}, info


WORKLOADS = {cls.name: cls for cls in (SynthTrials, RealBootstrap, FitLarge)}


