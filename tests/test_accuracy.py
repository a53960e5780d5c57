"""Error of mcc_ratio and curvature_at(...).kappa against their 50-digit forms (exact_oracles).

Both lose accuracy as the profile nears chance, as about c/J with
J = a + b - 1: mcc_ratio takes each threshold MCC as a difference of two
square roots (metrics._mcc_form), in which J cancels implicitly, and
the curvature kernel takes p - q as a - (1 - b), where 1 - b rounds.
These tests pin today's error as relative error <= C + c/J, over seeded
profiles in fixed regimes: uniform informative profiles, both rates
near 1, J from 1e-2 down to 1e-14, and the diagonal a = b, where
mcc_ratio is exactly 1.

The constants are measured, on 120,000 profiles drawn as these regimes
are (four seeds other than this file's), Python 3.11 on x86-64:

- mcc_ratio: the J-free part C reached 3.75e-16 (both rates near 1) and
  the growth c reached 2.00e-16 (J near 1e-2); the bound is
  4e-16 + 2.5e-16/J.
- kappa: C reached 1.09e-15 (both rates near 1) and c reached 5.55e-17,
  2**-54, the rounding of 1 - b; the bound is 1.2e-15 + 6e-17/J.

A change that computes J correctly rounded, math.fsum((a, b, -1.0)),
would shrink c, and test_error_grows_as_one_over_j, which pins today's
growth, would then need the new figures.
"""

from __future__ import annotations

import random

import mpmath
import pytest
from exact_oracles import kappa_exact, mcc_ratio_exact, youden_exact

from prevthresh import DiagnosticProfile, curvature_at, mcc_ratio

MCC_CONST, MCC_GROWTH = 4e-16, 2.5e-16
KAPPA_CONST, KAPPA_GROWTH = 1.2e-15, 6e-17
PER_REGIME = 150
J_EXPONENTS = (2, 4, 6, 8, 10, 12, 14)


def regimes() -> dict[str, list[tuple[float, float]]]:
    """Seeded informative profiles (a, b), PER_REGIME per regime, with 0 < a, b < 1."""
    rng = random.Random("prevthresh accuracy")
    drawn: dict[str, list[tuple[float, float]]] = {"uniform": []}
    while len(drawn["uniform"]) < PER_REGIME:
        a, b = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        if a + b > 1.0 and 0.0 < a < 1.0 and 0.0 < b < 1.0:
            drawn["uniform"].append((a, b))
    drawn["near 1"] = [(1.0 - 10 ** rng.uniform(-15, -1), 1.0 - 10 ** rng.uniform(-15, -1)) for _ in range(PER_REGIME)]
    for e in J_EXPONENTS:
        profiles = []
        for _ in range(PER_REGIME):
            a = rng.uniform(0.03, 0.97)
            profiles.append((a, 1.0 - a + 10.0**-e * rng.uniform(1.0, 2.0)))
        drawn[f"J~1e-{e}"] = profiles
    drawn["diagonal"] = [(a, a) for a in (0.5 + 10 ** rng.uniform(-14, -0.5) for _ in range(PER_REGIME))]
    return drawn


REGIMES = regimes()
PHI_RNG_SEED = "prevthresh accuracy phi"


def relative_error(got: float, exact: mpmath.mpf) -> float:
    with mpmath.workdps(50):
        return float(abs((mpmath.mpf(got) - exact) / exact))


def errors(name: str) -> list[tuple[float, float, float, float]]:
    """(J, mcc_ratio's relative error, the PPV and the NPV kappa's) for each profile of a regime, kappa at a seeded phi."""
    rng = random.Random(f"{PHI_RNG_SEED} {name}")
    rows = []
    for a, b in REGIMES[name]:
        j = float(youden_exact(a, b))
        assert j > 0.0, (a, b)
        profile = DiagnosticProfile(a, b)
        phi = rng.uniform(0.0, 1.0)
        kappa = [relative_error(curvature_at(profile, phi, c).kappa, kappa_exact(a, b, c, phi)) for c in ("ppv", "npv")]
        rows.append((j, relative_error(mcc_ratio(profile), mcc_ratio_exact(a, b)), *kappa))
    return rows


@pytest.fixture(scope="module")
def measured() -> dict[str, list[tuple[float, float, float, float]]]:
    return {name: errors(name) for name in REGIMES}


@pytest.mark.parametrize("name", list(REGIMES))
def test_mcc_ratio_error_is_within_its_bound(measured, name):
    for j, mcc, _, _ in measured[name]:
        assert mcc <= MCC_CONST + MCC_GROWTH / j, (name, j, mcc)


@pytest.mark.parametrize("name", list(REGIMES))
def test_kappa_error_is_within_its_bound(measured, name):
    for j, _, ppv, npv in measured[name]:
        assert max(ppv, npv) <= KAPPA_CONST + KAPPA_GROWTH / j, (name, j, ppv, npv)


def test_oracle_gives_one_on_the_diagonal():
    for a, _ in REGIMES["diagonal"]:
        with mpmath.workdps(50):
            assert abs(mcc_ratio_exact(a, a) - 1) < mpmath.mpf(10) ** -45, a


def test_diagonal_ratio_is_off_one_by_its_bound(measured):
    # mcc_ratio is exactly 1 on the diagonal in exact arithmetic; in floats it is off by up to the c/J term.
    worst = 0.0
    for (a, _), (j, mcc, _, _) in zip(REGIMES["diagonal"], measured["diagonal"]):
        off = abs(mcc_ratio(DiagnosticProfile(a, a)) - 1.0)
        assert off <= MCC_CONST + MCC_GROWTH / j, (a, off)
        worst = max(worst, off * j)
    assert worst > 0.0


def test_error_grows_as_one_over_j(measured):
    # Today's growth: nearest chance (J ~ 1e-14) the worst error times J is within a factor 3 of c.
    rows = measured[f"J~1e-{J_EXPONENTS[-1]}"]
    assert max(j * mcc for j, mcc, _, _ in rows) > MCC_GROWTH / 3
    assert max(j * max(ppv, npv) for j, _, ppv, npv in rows) > KAPPA_GROWTH / 3
    # and that error is far above the J-free part: relative 1e-3 or more for both.
    assert max(mcc for _, mcc, _, _ in rows) > 1e-3
    assert max(max(ppv, npv) for _, _, ppv, npv in rows) > 1e-3
