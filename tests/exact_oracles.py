"""50-digit forms of public float functions, used only by the tests.

Each function takes the float arguments of the shipped function and
evaluates its quantity at mpmath precision from their exact binary
values, so its result is the true value of the float inputs to far
more digits than a float holds. Each form is written from the
definition, by another route than the package's arithmetic:

- mcc_ratio_exact: MCC(phi) = J * sqrt(phi(1-phi)) / sqrt(q(1-q)), with
  J = a + b - 1 and q = a*phi + (1-b)(1-phi) the positive-prediction
  rate, at the closed-form thresholds; J cancels in the ratio. The
  package takes the difference of two square roots (metrics._mcc_form),
  in which J cancels only implicitly.
- kappa_exact: the curvature |f''| / (1 + f'^2)^(3/2) of the PPV or NPV
  curve from the quotient form's derivatives, with p - q taken exactly.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


def youden_exact(a: float, b: float) -> mpmath.mpf:
    """J = a + b - 1 of the float rates a and b, exact (two doubles' sum needs far fewer than 50 digits)."""
    with mpmath.workdps(DIGITS):
        return mpmath.mpf(a) + mpmath.mpf(b) - 1


def mcc_ratio_exact(a: float, b: float) -> mpmath.mpf:
    """bounds.mcc_ratio's true value at the rates a, b: MCC(phi_n) / MCC(phi_e), for 0 < a, b < 1 and J != 0."""
    with mpmath.workdps(DIGITS):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        phi_e = mpmath.sqrt(1 - mb) / (mpmath.sqrt(ma) + mpmath.sqrt(1 - mb))
        phi_n = mpmath.sqrt(mb) / (mpmath.sqrt(1 - ma) + mpmath.sqrt(mb))
        j = ma + mb - 1

        def mcc(phi):
            q = ma * phi + (1 - mb) * (1 - phi)
            return j * mpmath.sqrt(phi * (1 - phi)) / mpmath.sqrt(q * (1 - q))

        return mcc(phi_n) / mcc(phi_e)


def kappa_exact(a: float, b: float, curve: str, phi: float) -> mpmath.mpf:
    """curvature_at(DiagnosticProfile(a, b), phi, curve).kappa's true value; curve is "ppv" or "npv".

    The curve is p*phi / u (PPV) or q*(1-phi) / u (NPV) over
    u = p*phi + q*(1-phi), with (p, q) = (a, 1-b) or (1-a, b); its
    slope has magnitude p*q / u^2 and its second derivative
    2*p*q*|p-q| / u^3.
    """
    with mpmath.workdps(DIGITS):
        ma, mb, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(phi)
        p, q = (ma, 1 - mb) if curve == "ppv" else (1 - ma, mb)
        u = p * x + q * (1 - x)
        slope = p * q / u**2
        return 2 * p * q * abs(p - q) / u**3 / (1 + slope**2) ** mpmath.mpf(1.5)
