"""Positive-unlabeled learning that models the annotation process.

Instead of assuming positives are labeled completely at random, the two
models here learn how annotation propensity depends on the features: a
product of two sigmoids, and a psychometric selection curve (guess and
lapse rates) times a sigmoid classifier.  The package also ships the three
reference baselines, a synthetic generator, an evaluation suite, and a
reproducible benchmark CLI.
"""

from .data import Dataset, read_csv, split, write_csv
from .estimators import (
    CvConfig,
    DegenerateDataError,
    FitDiagnostics,
    FittedModel,
    TrainingProtocol,
    fit_elkan,
    fit_naive,
    fit_psychm,
    fit_real_oracle,
    fit_spm,
    select_hyperparams,
    train_model,
)
from .metrics import (
    MetricReport,
    SignificanceMatrix,
    accuracy,
    auc_roc,
    brier,
    f1,
    score_report,
    significance_matrix,
)
from .models import (
    LinearParams,
    ModelKind,
    PsychmParams,
    SpmParams,
    affine_sigmoid,
    psychometric,
    psychm_posterior,
    sigmoid,
    spm_posterior,
)
from .objective import (
    RegConfig,
    conditional_log_likelihood,
    constrain_rates,
    loss,
    loss_gradient,
    unconstrain_rates,
)
from .optimize import NonFiniteError, OptimResult, OptimizerConfig, minimize
from .runner import (
    ExperimentConfig,
    ResultTable,
    bootstrap_evaluate,
    fit_single,
    generate_dataset,
    run_real_benchmark,
    run_synth_benchmark,
)
from .synth import GeneratorConfig, XDist, generate, sample_params

__version__ = "0.1.0"
