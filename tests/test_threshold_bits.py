"""Bit-level pin of the threshold functions' (phi, metric_value) pairs.

Each entry is the repr of phi and of metric_value (None where the value
is undefined), or the name of the error raised, for positive_threshold,
negative_threshold and curvature_argmax on both curves. It guards any
rewrite of these paths, such as a faster curvature oracle, against
changing a single bit. The profile set includes the edge profiles where
a curve is constant or its value at the threshold is undefined.
"""

import pytest

from prevthresh import (
    Curve,
    DiagnosticProfile,
    PrevthreshError,
    curvature_argmax,
    negative_threshold,
    positive_threshold,
)

FUNCTIONS = {
    "positive_threshold": positive_threshold,
    "negative_threshold": negative_threshold,
    "curvature_argmax_ppv": lambda profile: curvature_argmax(profile, Curve.PPV),
    "curvature_argmax_npv": lambda profile: curvature_argmax(profile, Curve.NPV),
}

PINNED = {
    ((0.9, 0.95), "positive_threshold"): ("0.19074356983054624", "0.8092564301694537"),
    ((0.9, 0.95), "negative_threshold"): ("0.7550344704135896", "0.7550344704135896"),
    ((0.9, 0.95), "curvature_argmax_ppv"): ("0.19074356966938422", "0.8092564300082917"),
    ((0.9, 0.95), "curvature_argmax_npv"): ("0.7550344699899817", "0.7550344708371977"),
    ((0.6, 0.95), "positive_threshold"): ("0.22400923773979595", "0.775990762260204"),
    ((0.6, 0.95), "negative_threshold"): ("0.6064701812783679", "0.6064701812783678"),
    ((0.6, 0.95), "curvature_argmax_ppv"): ("0.22400923824796443", "0.7759907627683725"),
    ((0.6, 0.95), "curvature_argmax_npv"): ("0.6064701785674808", "0.606470183989255"),
    ((0.8, 0.8), "positive_threshold"): ("0.3333333333333333", "0.6666666666666667"),
    ((0.8, 0.8), "negative_threshold"): ("0.6666666666666667", "0.6666666666666666"),
    ((0.8, 0.8), "curvature_argmax_ppv"): ("0.3333333306734002", "0.6666666640067336"),
    ((0.8, 0.8), "curvature_argmax_npv"): ("0.6666666603364059", "0.6666666729969275"),
    ((0.99, 0.3), "positive_threshold"): ("0.4567800535541258", "0.5432199464458742"),
    ((0.99, 0.3), "negative_threshold"): ("0.8456129112051151", "0.8456129112051151"),
    ((0.99, 0.3), "curvature_argmax_ppv"): ("0.4567800288369095", "0.5432199217286577"),
    ((0.99, 0.3), "curvature_argmax_npv"): ("0.8456129114106712", "0.845612910999559"),
    ((0.35, 0.9), "positive_threshold"): ("0.34833147735478825", "0.6516685226452118"),
    ((0.35, 0.9), "negative_threshold"): ("0.540588291844329", "0.5405882918443292"),
    ((0.35, 0.9), "curvature_argmax_ppv"): ("0.34833147252544927", "0.6516685178158728"),
    ((0.35, 0.9), "curvature_argmax_npv"): ("0.5405882933835668", "0.5405882903050914"),
    ((0.5, 0.5), "positive_threshold"): ("0.5", "0.5"),
    ((0.5, 0.5), "negative_threshold"): ("0.5", "0.5"),
    ((0.5, 0.5), "curvature_argmax_ppv"): "DegenerateProfile",
    ((0.5, 0.5), "curvature_argmax_npv"): "DegenerateProfile",
    ((0.999999, 0.999999), "positive_threshold"): ("0.0009990014980172201", "0.9990009985019828"),
    ((0.999999, 0.999999), "negative_threshold"): ("0.9990009985019828", "0.9990009985019828"),
    ((0.999999, 0.999999), "curvature_argmax_ppv"): ("0.000999001503449907", "0.9990009985074154"),
    ((0.999999, 0.999999), "curvature_argmax_npv"): ("0.9990009984965501", "0.9990009985074154"),
    ((1e-06, 0.999999), "positive_threshold"): ("0.5000000000035945", "0.49999999999640554"),
    ((1e-06, 0.999999), "negative_threshold"): ("0.5", "0.5"),
    ((1e-06, 0.999999), "curvature_argmax_ppv"): "DegenerateProfile",
    ((1e-06, 0.999999), "curvature_argmax_npv"): "DegenerateProfile",
    ((0.7, 0.31), "positive_threshold"): ("0.49820141557621633", "0.5017985844237837"),
    ((0.7, 0.31), "negative_threshold"): ("0.5040986360461875", "0.5040986360461874"),
    ((0.7, 0.31), "curvature_argmax_ppv"): ("0.4982011961881294", "0.5017983650356961"),
    ((0.7, 0.31), "curvature_argmax_npv"): ("0.5040986831464219", "0.504098588945953"),
    ((0.9, 1.0), "positive_threshold"): ("0.0", None),
    ((0.9, 1.0), "negative_threshold"): ("0.7597469266479578", "0.7597469266479578"),
    ((0.9, 1.0), "curvature_argmax_ppv"): "DegenerateProfile",
    ((0.9, 1.0), "curvature_argmax_npv"): ("0.7597469244340025", "0.7597469288619133"),
    ((1.0, 0.95), "positive_threshold"): ("0.18274399763155688", "0.8172560023684431"),
    ((1.0, 0.95), "negative_threshold"): ("1.0", None),
    ((1.0, 0.95), "curvature_argmax_ppv"): ("0.18274399748156503", "0.8172560022184513"),
    ((1.0, 0.95), "curvature_argmax_npv"): "DegenerateProfile",
    ((0.0, 0.5), "positive_threshold"): ("1.0", "0.0"),
    ((0.0, 0.5), "negative_threshold"): ("0.4142135623730951", "0.41421356237309503"),
    ((0.0, 0.5), "curvature_argmax_ppv"): "DegenerateProfile",
    ((0.0, 0.5), "curvature_argmax_npv"): ("0.41421355479701416", "0.41421356994917596"),
    ((0.9, 0.0), "positive_threshold"): ("0.513167019494862", "0.486832980505138"),
    ((0.9, 0.0), "negative_threshold"): ("0.0", None),
    ((0.9, 0.0), "curvature_argmax_ppv"): ("0.5131670335490386", "0.48683299455931456"),
    ((0.9, 0.0), "curvature_argmax_npv"): "DegenerateProfile",
}


def _bits(function, profile):
    try:
        result = function(profile)
    except PrevthreshError as exc:
        return type(exc).__name__
    value = result.metric_value
    return repr(float(result.phi)), None if value is None else repr(float(value))


@pytest.mark.parametrize("key", list(PINNED), ids=lambda key: f"{key[0][0]!r}-{key[0][1]!r}-{key[1]}")
def test_threshold_bits_unchanged(key):
    (a, b), name = key
    assert _bits(FUNCTIONS[name], DiagnosticProfile(a, b)) == PINNED[key]


def test_pin_covers_every_function_on_every_profile():
    profiles = {profile for profile, _ in PINNED}
    assert len(PINNED) == len(profiles) * len(FUNCTIONS)
    assert {(0.9, 1.0), (1.0, 0.95), (0.0, 0.5), (0.9, 0.0)} <= profiles
