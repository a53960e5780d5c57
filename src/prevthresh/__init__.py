"""Prevalence thresholds and accuracy-ratio bounds for binary classifiers.

Predictive values depend on prevalence through Bayes' rule; this
package computes those curves, the prevalence thresholds where they
bend hardest, the bounded closed-form ratios that compare accuracy
metrics across prevalence levels, and the tooling to verify all of it
numerically (curvature oracle, grid sweeps, seeded simulation).
"""

from .bounds import (
    RATIO_BOUNDS,
    BoundRecord,
    BoundsReport,
    BoundViolation,
    accuracy_divergence_curve,
    f1_ratio,
    f_beta_ratio,
    fm_ratio,
    mcc_at_threshold,
    mcc_ratio,
    verify_bounds,
)
from .dataio import (
    emit_curves,
    emit_ratio_curves,
    ingest_predictions,
    write_predictions,
)
from .errors import (
    DegenerateDenominator,
    DegenerateProfile,
    EmptyInput,
    ParseError,
    PrevthreshError,
    UndefinedMetric,
    UsageError,
    ZeroDenominator,
)
from .metrics import (
    DEGENERATE_EPS,
    ConfusionCounts,
    DiagnosticProfile,
    Rate,
    accuracy_from_counts,
    chi_square_from_mcc,
    f1_at,
    f_beta_at,
    fm_at,
    mcc_from_counts,
    mcc_from_rates,
    npv_at,
    ppv_at,
)
from .report import AnalysisReport, analyze_counts
from .simulate import SimulationConfig, simulate_population
from .thresholds import (
    COARSE_STEP,
    REFINE_WIDTH,
    Curve,
    CurvaturePoint,
    ThresholdResult,
    curvature_argmax,
    curvature_at,
    negative_threshold,
    positive_threshold,
    ppv_at_threshold,
    threshold_summary,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # types
    "Rate",
    "DiagnosticProfile",
    "ConfusionCounts",
    "Curve",
    "ThresholdResult",
    "CurvaturePoint",
    "BoundViolation",
    "BoundRecord",
    "BoundsReport",
    "AnalysisReport",
    "SimulationConfig",
    # errors
    "PrevthreshError",
    "DegenerateDenominator",
    "UndefinedMetric",
    "DegenerateProfile",
    "ZeroDenominator",
    "ParseError",
    "EmptyInput",
    "UsageError",
    # pointwise metrics
    "ppv_at",
    "npv_at",
    "f1_at",
    "f_beta_at",
    "fm_at",
    "mcc_from_rates",
    "mcc_from_counts",
    "chi_square_from_mcc",
    "accuracy_from_counts",
    # thresholds
    "positive_threshold",
    "ppv_at_threshold",
    "negative_threshold",
    "curvature_at",
    "curvature_argmax",
    # ratios and bounds
    "f1_ratio",
    "f_beta_ratio",
    "fm_ratio",
    "mcc_at_threshold",
    "mcc_ratio",
    "accuracy_divergence_curve",
    "verify_bounds",
    "RATIO_BOUNDS",
    "COARSE_STEP",
    "REFINE_WIDTH",
    "DEGENERATE_EPS",
    # io, report, simulation
    "ingest_predictions",
    "write_predictions",
    "emit_curves",
    "emit_ratio_curves",
    "threshold_summary",
    "analyze_counts",
    "simulate_population",
]
