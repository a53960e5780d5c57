"""Prevalence thresholds and accuracy-ratio bounds for binary classifiers.

Predictive values depend on prevalence through Bayes' rule; this
package computes those curves, the prevalence thresholds where they
bend hardest, the bounded closed-form ratios that compare accuracy
metrics across prevalence levels, and the tooling to verify all of it
numerically (curvature oracle, grid sweeps, seeded simulation).
"""

from .metrics import *
from .errors import *
from .thresholds import *
from .bounds import *
from .dataio import *
from .report import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *metrics.__all__,
    *errors.__all__,
    *thresholds.__all__,
    *bounds.__all__,
    *dataio.__all__,
    *report.__all__,
    *simulate.__all__,
]
