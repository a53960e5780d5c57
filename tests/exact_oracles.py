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
- curvature_argmax_exact: the prevalence where kappa_exact is largest,
  by golden-section search over [0, 1]. It never uses the closed forms
  it checks. Near chance the peak flattens, so it takes a precision:
  at 50 digits it places the peak to an ulp down to J = 1e-10.
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


def kappa_exact(a: float, b: float, curve: str, phi, digits: int = DIGITS) -> mpmath.mpf:
    """curvature_at(DiagnosticProfile(a, b), phi, curve).kappa's true value; curve is "ppv" or "npv".

    The curve is p*phi / u (PPV) or q*(1-phi) / u (NPV) over
    u = p*phi + q*(1-phi), with (p, q) = (a, 1-b) or (1-a, b); its
    slope has magnitude p*q / u^2 and its second derivative
    2*p*q*|p-q| / u^3. phi may be a float or an mpf; digits is the
    working precision.
    """
    with mpmath.workdps(digits):
        ma, mb, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(phi)
        p, q = (ma, 1 - mb) if curve == "ppv" else (1 - ma, mb)
        u = p * x + q * (1 - x)
        slope = p * q / u**2
        return 2 * p * q * abs(p - q) / u**3 / (1 + slope**2) ** mpmath.mpf(1.5)


def curvature_argmax_exact(a: float, b: float, curve: str, digits: int = DIGITS) -> mpmath.mpf:
    """The prevalence of kappa_exact's maximum over [0, 1], to about 10**-(digits // 3), at digits digits.

    Golden-section search, which needs only that the curvature is
    unimodal in phi. Each step keeps the part of the bracket with the
    larger probe. The curvature near its peak falls off as
    3 * (J * dphi / u)**2 in relative terms, with u = sqrt(p*q), so at
    digits digits the peak is placed to about
    u / J * 10**(-digits / 2): 1e-16 at J = 1e-10 for 50 digits.
    """
    with mpmath.workdps(digits):
        inv_phi = (mpmath.sqrt(5) - 1) / 2
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        k1, k2 = kappa_exact(a, b, curve, x1, digits), kappa_exact(a, b, curve, x2, digits)
        width = mpmath.mpf(10) ** -(digits // 3)
        while hi - lo > width:
            if k1 < k2:
                lo, x1, k1 = x1, x2, k2
                x2 = lo + inv_phi * (hi - lo)
                k2 = kappa_exact(a, b, curve, x2, digits)
            else:
                hi, x2, k2 = x2, x1, k1
                x1 = hi - inv_phi * (hi - lo)
                k1 = kappa_exact(a, b, curve, x1, digits)
        return (lo + hi) / 2
