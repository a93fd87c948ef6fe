"""Positive-unlabeled learning that models the annotation process.

Instead of assuming positives are labeled completely at random, the two
models here learn how annotation propensity depends on the features: a
product of two sigmoids, and a psychometric selection curve (guess and
lapse rates) times a sigmoid classifier.  The package also ships the three
reference baselines, a synthetic generator, an evaluation suite, and a
reproducible benchmark CLI.
"""

from .data import *
from .estimators import *
from .metrics import *
from .models import *
from .objective import *
from .optimize import *
from .runner import *
from .synth import *

__version__ = "0.1.0"
