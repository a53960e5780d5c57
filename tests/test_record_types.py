"""The shared contract of the package's nine record types.

DiagnosticProfile, ConfusionCounts, ThresholdResult, CurvaturePoint,
BoundViolation, BoundRecord, BoundsReport, AnalysisReport and
SimulationConfig are immutable value types: built from their fields
positionally or by keyword, validated on construction with fixed
messages, compared and hashed by their field tuple, shown as
Name(field=value!r, ...), and copied or pickled by value.
"""

import copy
import math
import pickle

import pytest

from prevthresh import (
    AnalysisReport,
    BoundRecord,
    BoundsReport,
    BoundViolation,
    ConfusionCounts,
    CurvaturePoint,
    DiagnosticProfile,
    Rate,
    SimulationConfig,
    ThresholdResult,
)

PROFILE = DiagnosticProfile(Rate(0.9), Rate(0.95))
COUNTS = ConfusionCounts(9, 1, 1, 9)
VIOLATION = BoundViolation(0.5, 0.25, 1.75, 1.0, 1.5)
RECORD = BoundRecord("f1", 1.0, 1.5, 12, 1.0, 1.25, (0.5, 0.25), (1.0, 0.5), (VIOLATION,), ((0.125, 0.875),))

# Each type with two sets of field values, in field order; the second differs from the first.
CASES = [
    pytest.param(
        DiagnosticProfile,
        {"sensitivity": Rate(0.9), "specificity": Rate(0.95)},
        {"sensitivity": Rate(0.9), "specificity": Rate(0.5)},
        id="DiagnosticProfile",
    ),
    pytest.param(
        ConfusionCounts,
        {"tp": 9, "fp": 1, "fn": 1, "tn": 9},
        {"tp": 9, "fp": 1, "fn": 2, "tn": 9},
        id="ConfusionCounts",
    ),
    pytest.param(
        ThresholdResult,
        {"phi": Rate(0.25), "metric_value": Rate(0.75)},
        {"phi": Rate(0.25), "metric_value": None},
        id="ThresholdResult",
    ),
    pytest.param(
        CurvaturePoint,
        {"phi": Rate(0.25), "kappa": 1.5, "slope": -0.5},
        {"phi": Rate(0.25), "kappa": 1.5, "slope": 0.5},
        id="CurvaturePoint",
    ),
    pytest.param(
        BoundViolation,
        {"sensitivity": 0.5, "specificity": 0.25, "value": 1.75, "lower": 1.0, "upper": 1.5},
        {"sensitivity": 0.5, "specificity": 0.25, "value": 1.625, "lower": 1.0, "upper": 1.5},
        id="BoundViolation",
    ),
    pytest.param(
        BoundRecord,
        {
            "metric": "f1", "lower": 1.0, "upper": 1.5, "cells": 12, "observed_min": 1.0, "observed_max": 1.25,
            "argmin": (0.5, 0.25), "argmax": (1.0, 0.5), "violations": (VIOLATION,), "skipped": ((0.125, 0.875),),
        },
        {
            "metric": "f1", "lower": 1.0, "upper": 1.5, "cells": 12, "observed_min": None, "observed_max": None,
            "argmin": None, "argmax": None, "violations": (), "skipped": (),
        },
        id="BoundRecord",
    ),
    pytest.param(
        BoundsReport,
        {
            "grid_step": 0.5, "delta": 1e-6, "tolerance": 1e-9, "constraint": "sensitivity + specificity >= 1.000001",
            "cells_swept": 12, "records": (RECORD,),
        },
        {
            "grid_step": 0.5, "delta": 1e-6, "tolerance": 1e-9, "constraint": "sensitivity + specificity >= 1.000001",
            "cells_swept": 12, "records": (),
        },
        id="BoundsReport",
    ),
    pytest.param(
        AnalysisReport,
        {
            "counts": COUNTS, "profile": PROFILE, "prevalence": Rate(0.5), "metrics": {"f1": 0.9},
            "thresholds": {"phi_e": None}, "ratios": {"fm_ratio": 1.25}, "flags": {"informative": True},
        },
        {
            "counts": COUNTS, "profile": PROFILE, "prevalence": Rate(0.5), "metrics": {"f1": 0.9},
            "thresholds": {"phi_e": None}, "ratios": {"fm_ratio": 1.25}, "flags": {"informative": False},
        },
        id="AnalysisReport",
    ),
    pytest.param(
        SimulationConfig,
        {"prevalence": Rate(0.3), "profile": PROFILE, "n": 1000, "seed": 7},
        {"prevalence": Rate(0.3), "profile": PROFILE, "n": 1000, "seed": 8},
        id="SimulationConfig",
    ),
]


def hashable(cls) -> bool:
    # AnalysisReport's maps are dicts, so its field tuple, and it, cannot be hashed.
    return cls is not AnalysisReport


@pytest.mark.parametrize("cls, fields, other", CASES)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, cls, fields, other):
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        for record in (by_position, by_keyword):
            assert [getattr(record, name) for name in fields] == list(fields.values())
        assert by_position == by_keyword

    def test_missing_and_unknown_arguments_raise_type_error(self, cls, fields, other):
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        with pytest.raises(TypeError):
            cls(**fields, extra=None)

    def test_repr_names_every_field_in_order(self, cls, fields, other):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_equality_is_by_value(self, cls, fields, other):
        record = cls(**fields)
        assert record == cls(**fields)
        assert not record != cls(**fields)
        assert record != cls(**other)
        assert not record == cls(**other)

    def test_other_types_with_equal_fields_compare_unequal(self, cls, fields, other):
        record = cls(**fields)
        sub = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})(**fields)
        assert record.__eq__(object()) is NotImplemented
        assert record.__eq__(tuple(fields.values())) is NotImplemented
        assert record != tuple(fields.values())
        assert record != sub and sub != record

    def test_hash_is_that_of_the_field_tuple(self, cls, fields, other):
        record = cls(**fields)
        if not hashable(cls):
            with pytest.raises(TypeError):
                hash(record)
            return
        assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
        table = {record: "first", cls(**other): "second"}
        assert table[cls(*fields.values())] == "first"
        assert table[cls(**other)] == "second"
        assert len({record, cls(**fields)}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, other):
        record = cls(**fields)
        for name, value in other.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(**fields)

    def test_copies_and_pickles_compare_equal(self, cls, fields, other):
        record = cls(**fields)
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record


def test_different_record_types_with_equal_values_differ():
    phi, value = Rate(0.25), Rate(0.75)
    assert ThresholdResult(phi, value) != DiagnosticProfile(phi, value)
    assert DiagnosticProfile(phi, value) != ThresholdResult(phi, value)


def test_profile_repr_in_error_messages():
    assert repr(DiagnosticProfile(0.0, 1.0)) == "DiagnosticProfile(sensitivity=Rate(0.0), specificity=Rate(1.0))"


def test_rate_fields_are_converted_and_the_rest_kept_as_given():
    profile = DiagnosticProfile(0.9, 0.95)
    assert type(profile.sensitivity) is Rate and type(profile.specificity) is Rate
    config = SimulationConfig(0.3, profile, 10, 0)
    assert type(config.prevalence) is Rate
    assert type(ThresholdResult(0.25, None).phi) is float
    assert type(CurvaturePoint(0.25, 1.0, 0.0).phi) is float


RATE_MESSAGE = "rate must be a finite number in [0, 1], got {}"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: DiagnosticProfile(1.5, 0.9), RATE_MESSAGE.format("1.5"), id="sensitivity-above-1"),
        pytest.param(lambda: DiagnosticProfile(0.9, -0.5), RATE_MESSAGE.format("-0.5"), id="specificity-below-0"),
        pytest.param(lambda: DiagnosticProfile(math.nan, 0.9), RATE_MESSAGE.format("nan"), id="sensitivity-nan"),
        pytest.param(lambda: DiagnosticProfile(0.9, math.inf), RATE_MESSAGE.format("inf"), id="specificity-inf"),
        pytest.param(lambda: DiagnosticProfile(2.0, 3.0), RATE_MESSAGE.format("2.0"), id="sensitivity-checked-first"),
        pytest.param(lambda: ConfusionCounts(1.0, 0, 0, 0), "tp must be an integer, got 1.0", id="tp-float"),
        pytest.param(lambda: ConfusionCounts(0, True, 0, 0), "fp must be an integer, got True", id="fp-bool"),
        pytest.param(lambda: ConfusionCounts(0, 0, "1", 0), "fn must be an integer, got '1'", id="fn-str"),
        pytest.param(lambda: ConfusionCounts(0, 0, 0, -1), "tn must be non-negative, got -1", id="tn-negative"),
        pytest.param(lambda: ConfusionCounts(-1, 0.5, 0, 0), "tp must be non-negative, got -1", id="tp-checked-first"),
        pytest.param(
            lambda: SimulationConfig(1.5, PROFILE, 0, -1), RATE_MESSAGE.format("1.5"), id="prevalence-checked-first"
        ),
        pytest.param(lambda: SimulationConfig(0.3, PROFILE, 0, 0), "n must be a positive integer, got 0", id="n-zero"),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, True, 0), "n must be a positive integer, got True", id="n-bool"
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 10.0, 0), "n must be a positive integer, got 10.0", id="n-float"
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 2**63, 0),
            f"n must fit in a signed 64-bit integer, got {2**63}",
            id="n-too-large",
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 0, 1.0), "n must be a positive integer, got 0", id="n-checked-first"
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 10, 1.0), "seed must be an integer, got 1.0", id="seed-float"
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 10, False), "seed must be an integer, got False", id="seed-bool"
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 10, -1),
            "seed must fit in an unsigned 64-bit integer, got -1",
            id="seed-negative",
        ),
        pytest.param(
            lambda: SimulationConfig(0.3, PROFILE, 10, 2**64),
            f"seed must fit in an unsigned 64-bit integer, got {2**64}",
            id="seed-too-large",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
