"""Prevalence thresholds and accuracy-ratio bounds for binary classifiers.

Predictive values depend on prevalence through Bayes' rule; this
package computes those curves, the prevalence thresholds where they
bend hardest, the bounded closed-form ratios that compare accuracy
metrics across prevalence levels, and the tooling to verify all of it
numerically (curvature oracle, grid sweeps, seeded simulation).

``import prevthresh`` loads no submodule, so the command-line interface
compiles only the modules its subcommand uses. The first lookup of a
name the package does not hold yet (a public name, ``__all__``, a
submodule such as ``prevthresh.bounds``, or ``dir(prevthresh)``)
imports ``metrics``, ``errors``, ``thresholds``, ``bounds``, ``dataio``,
``report`` and ``simulate`` together, binds the names of each module's
``__all__`` here, sets ``__all__`` to ``__version__`` and those lists,
in that order, and removes ``__getattr__`` and ``__dir__``. A lookup
of any other name that starts with an underscore loads nothing and
raises AttributeError, so ``from . import _arrays`` (or ``_closed``,
``_rng``), which looks the name up here first, imports only that
submodule and what it imports.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    if name[0] == "_" and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    names = ["__version__"]
    for short in ("metrics", "errors", "thresholds", "bounds", "dataio", "report", "simulate"):
        module = import_module(f"{__name__}.{short}")
        globals().update((public, getattr(module, public)) for public in module.__all__)
        names += module.__all__
    globals()["__all__"] = names
    # Loaded, the package needs neither hook, and without __getattr__ CPython
    # 3.11+ specializes each prevthresh.<name> lookup, which halves its cost.
    globals().pop("__getattr__", None)
    globals().pop("__dir__", None)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
