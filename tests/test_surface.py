"""The package's public surface: which names ``prevthresh`` exports, and from where.

Each public name is declared once, in the ``__all__`` of the module that
defines it; ``prevthresh`` re-exports those lists. PUBLIC pins the
surface by defining module, so a name that is added, dropped or moved
shows up here.
"""

import importlib
import pkgutil

import pytest

import prevthresh

# The modules prevthresh re-exports, in the order of prevthresh.__all__,
# each with the names it makes public.
PUBLIC = {
    "metrics": (
        "Rate",
        "DiagnosticProfile",
        "ConfusionCounts",
        "ppv_at",
        "npv_at",
        "f1_at",
        "f_beta_at",
        "fm_at",
        "mcc_from_rates",
        "mcc_from_counts",
        "chi_square_from_mcc",
        "accuracy_from_counts",
        "DEGENERATE_EPS",
    ),
    "errors": (
        "PrevthreshError",
        "DegenerateDenominator",
        "UndefinedMetric",
        "DegenerateProfile",
        "ZeroDenominator",
        "ParseError",
        "EmptyInput",
        "UsageError",
    ),
    "thresholds": (
        "Curve",
        "ThresholdResult",
        "CurvaturePoint",
        "positive_threshold",
        "ppv_at_threshold",
        "negative_threshold",
        "curvature_at",
        "curvature_argmax",
        "threshold_summary",
        "COARSE_STEP",
        "REFINE_WIDTH",
    ),
    "bounds": (
        "f1_ratio",
        "f_beta_ratio",
        "fm_ratio",
        "mcc_at_threshold",
        "mcc_ratio",
        "accuracy_divergence_curve",
        "BoundViolation",
        "BoundRecord",
        "BoundsReport",
        "verify_bounds",
        "RATIO_BOUNDS",
    ),
    "dataio": ("ingest_predictions", "write_predictions", "emit_curves", "emit_ratio_curves"),
    "report": ("AnalysisReport", "analyze_counts"),
    "simulate": ("SimulationConfig", "simulate_population"),
}

NAMES = {"__version__"} | {name for names in PUBLIC.values() for name in names}

DEFINED_IN = [(module, name) for module, names in PUBLIC.items() for name in names]


def _modules_with_all():
    """Every module of the package that declares __all__, by short name."""
    found = {}
    for info in pkgutil.iter_modules(prevthresh.__path__):
        module = importlib.import_module(f"prevthresh.{info.name}")
        if hasattr(module, "__all__"):
            found[info.name] = module
    return found


def test_surface_is_the_pinned_names_without_duplicates():
    assert len(NAMES) == 52
    assert len(prevthresh.__all__) == len(set(prevthresh.__all__))
    assert set(prevthresh.__all__) == NAMES


@pytest.mark.parametrize("module, name", DEFINED_IN, ids=[f"{m}.{n}" for m, n in DEFINED_IN])
def test_each_name_is_its_defining_modules_object(module, name):
    assert getattr(prevthresh, name) is getattr(importlib.import_module(f"prevthresh.{module}"), name)


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from prevthresh import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == NAMES
    assert all(namespace[name] is getattr(prevthresh, name) for name in NAMES)


def test_every_module_all_names_exist():
    for short, module in _modules_with_all().items():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], short


def test_no_name_is_declared_by_two_modules():
    owners = {}
    for short, module in _modules_with_all().items():
        for name in module.__all__:
            owners.setdefault(name, []).append(short)
    assert {name: shorts for name, shorts in owners.items() if len(shorts) > 1} == {}


def test_surface_is_the_module_lists_in_order():
    modules = _modules_with_all()
    assert set(PUBLIC) <= set(modules)
    assert {short: tuple(modules[short].__all__) for short in PUBLIC} == PUBLIC
    assert prevthresh.__all__ == ["__version__", *(name for short in PUBLIC for name in modules[short].__all__)]
