"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps public
names of the package where their callers look them up.  A renamed or
bypassed name would silently empty the per-layer metrics, so check here
that the wrappers install, see the fits' loss closures, and come off."""

import importlib
from pathlib import Path

import pytest

from puselect import estimators
from puselect.estimators import CvConfig, TrainingProtocol
from puselect.models import ModelKind
from puselect.optimize import OptimizerConfig
from puselect.synth import GeneratorConfig, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_sees_the_fits_and_uninstalls(tracing):
    data = generate(GeneratorConfig(n=200, d=2, seed=3))
    protocol = TrainingProtocol(
        cv=CvConfig(grid_sel=(0.01,), grid_tgt=(0.01,)),
        optimizer=OptimizerConfig(max_iters=40),
        cv_max_iters=6,
        n_starts=1,
    )
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        assert patched
        estimators.train_model(data, ModelKind.SPM, protocol, seed=1)
        after_spm = tracer.closure["grad"][0]
        estimators.train_model(data, ModelKind.PSYCHM, protocol, seed=1)
        # Both fits built their closures through estimators.make_loss_functions.
        assert after_spm > 0
        assert tracer.closure["grad"][0] > after_spm
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
