"""Independent correctness checks for the benchmark's outputs.

Every expected value here is recomputed from plain ``math`` (Bayes' rule,
the radical threshold formulas, the ratio closed forms), never by calling
``prevthresh``, so a wrong library answer cannot pass by agreeing with
itself. Check functions return a list of problem strings; an empty list
means the output is correct. ``Gate`` counts operations and failures and
compares deterministic payloads against the stored sha256 table.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

BAYES_TOL = 1e-12  # absolute, on predictive values and thresholds in [0, 1]
RATIO_REL_TOL = 1e-9  # relative, on ratios and curvatures
ORACLE_TOL = 1e-6  # curvature argmax against the closed-form threshold
BINOMIAL_Z = 6.0  # standard errors allowed between an empirical rate and its expectation

DIGESTS_PATH = Path(__file__).with_name("digests.json")


# --- closed forms -----------------------------------------------------------


def ppv(a: float, b: float, phi: float) -> float | None:
    den = a * phi + (1.0 - b) * (1.0 - phi)
    return None if den == 0.0 else a * phi / den


def npv(a: float, b: float, phi: float) -> float | None:
    den = b * (1.0 - phi) + (1.0 - a) * phi
    return None if den == 0.0 else b * (1.0 - phi) / den


def threshold_summary(a: float, b: float) -> dict:
    """What ``prevthresh thresholds --json`` should print for profile (a, b)."""
    phi_e = None if (a == 0.0 and b == 1.0) else math.sqrt(1.0 - b) / (math.sqrt(a) + math.sqrt(1.0 - b))
    ppv_e = None if (phi_e is None or b == 1.0) else math.sqrt(a) / (math.sqrt(a) + math.sqrt(1.0 - b))
    phi_n = None if (a == 1.0 and b == 0.0) else math.sqrt(b) / (math.sqrt(1.0 - a) + math.sqrt(b))
    return {
        "sensitivity": a,
        "specificity": b,
        "phi_e": phi_e,
        "ppv_at_phi_e": ppv_e,
        "phi_n": phi_n,
        "npv_at_phi_n": None if phi_n is None else npv(a, b, phi_n),
        "informative": a + b > 1.0,
        "degenerate": abs(a + b - 1.0) <= 1e-12,
    }


def _mcc_at(a: float, b: float, phi: float) -> float:
    rho, sigma = ppv(a, b, phi), npv(a, b, phi)
    return math.sqrt(rho * a * b * sigma) - math.sqrt((1.0 - rho) * (1.0 - a) * (1.0 - b) * (1.0 - sigma))


def ratio_summary(a: float, b: float, betas) -> dict:
    """What ``prevthresh ratios --json`` should print for an interior profile."""
    root = math.sqrt(a * (1.0 - b))
    out = {"sensitivity": a, "specificity": b, "f1_ratio": 1.0 + root / (1.0 + a)}
    for beta in betas:
        out[f"f_beta_{beta:g}_ratio"] = 1.0 + root / (beta * beta + a)
    out["fm_ratio"] = math.sqrt(1.0 + math.sqrt((1.0 - b) / a))
    s = threshold_summary(a, b)
    out["mcc_ratio"] = _mcc_at(a, b, s["phi_n"]) / _mcc_at(a, b, s["phi_e"])
    return out


def ratio_bounds() -> dict[str, tuple[float, float]]:
    """Bounding interval of every ratio that ``verify_bounds`` sweeps."""
    out = {"f1": (1.0, 1.5)}
    for b in (0.5, 1.0, 2.0):
        out[f"f_beta_{b:g}"] = (1.0, 1.0 + 1.0 / (b * b + 1.0))
    out["fm"] = (1.0, math.sqrt(2.0))
    out["mcc"] = (math.sqrt(2.0) / 2.0, math.sqrt(2.0))
    return out


def divergence_ratio(a: float, b: float, phi: float, beta: float | None, fm: bool = False) -> float | None:
    """metric(1) / metric(phi) for F-beta (F1 when beta is None) or Fowlkes-Mallows."""
    rho = ppv(a, b, phi)
    if rho is None or rho == 0.0:
        return None
    if fm:
        return math.sqrt(a) / math.sqrt(a * rho)
    b2 = 1.0 if beta is None else beta * beta
    return ((1.0 + b2) / (b2 / a + 1.0)) / ((1.0 + b2) / (b2 / a + 1.0 / rho))


def curvature(a: float, b: float, phi: float, which: str) -> float | None:
    p, q = (a, 1.0 - b) if which == "ppv" else (1.0 - a, b)
    u = p * phi + q * (1.0 - phi)
    if u == 0.0:
        return None
    slope = p * q / (u * u)
    return 2.0 * p * q * abs(p - q) / (u * u * u) / (1.0 + slope * slope) ** 1.5


def sweep_cells(n: int, delta: float) -> int:
    """Cells of the 1/n grid that verify_bounds must visit.

    Sensitivity i/n for i in 1..n, specificity j/n for j in 1..n-1, and
    sensitivity + specificity >= 1 + delta.
    """
    return sum(1 for i in range(1, n + 1) for j in range(1, n) if i + j - n >= n * delta)


def binomial_ok(k: int, m: int, p: float) -> bool:
    """k successes in m trials is within BINOMIAL_Z standard errors of rate p."""
    if m == 0:
        return False
    return abs(k / m - p) <= BINOMIAL_Z * math.sqrt(p * (1.0 - p) / m) + 1.0 / m


# --- comparison helpers -----------------------------------------------------


def close(x, y, tol: float, rel: bool = False) -> bool:
    if x is None or y is None:
        return x is None and y is None
    if isinstance(x, bool) or isinstance(y, bool):
        return x is y
    scale = max(1.0, abs(y)) if rel else 1.0
    return math.isfinite(x) and abs(x - y) <= tol * scale


def compare_dict(got: dict, want: dict, tol: float, rel: bool = False, where: str = "") -> list[str]:
    if list(got) != list(want):
        return [f"{where}keys {list(got)} != {list(want)}"]
    return [f"{where}{k}: {got[k]!r} != {want[k]!r}" for k in want if not close(got[k], want[k], tol, rel)]


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_curves_csv(data: bytes, a: float, b: float, step_n: int, sample) -> list[str]:
    """Rows of emit_curves output: count, header, and sampled cells against Bayes' rule."""
    header, rows = parse_csv(data)
    problems = []
    if header != ["phi", "ppv", "npv", "kappa_ppv", "kappa_npv"]:
        problems.append(f"curves header {header!r}")
    if len(rows) != step_n + 1:
        return problems + [f"curves rows {len(rows)} != {step_n + 1}"]
    for i in sample:
        phi = i / step_n
        row = rows[i]
        if len(row) != 5 or float(row[0]) != phi:
            problems.append(f"curves row {i}: {row!r}")
            continue
        want = [ppv(a, b, phi), npv(a, b, phi)]
        got = [_cell(row[1]), _cell(row[2])]
        for name, g, w in zip(("ppv", "npv"), got, want):
            if not close(g, w, BAYES_TOL):
                problems.append(f"curves row {i} {name}: {g!r} != {w!r}")
        for col, which in ((3, "ppv"), (4, "npv")):
            g, w = _cell(row[col]), curvature(a, b, phi, which)
            if not close(g, w, RATIO_REL_TOL, rel=True):
                problems.append(f"curves row {i} kappa_{which}: {g!r} != {w!r}")
    return problems


def check_ratio_csv(data: bytes, a: float, b: float, betas, step_n: int, sample) -> list[str]:
    """Rows of emit_ratio_curves output against metric(1) / metric(phi)."""
    header, rows = parse_csv(data)
    want_header = ["phi", "f1_chi"] + [f"fbeta_{beta:g}_chi" for beta in betas] + ["fm_chi"]
    problems = []
    if header != want_header:
        problems.append(f"ratio header {header!r} != {want_header!r}")
    if len(rows) != step_n + 1:
        return problems + [f"ratio rows {len(rows)} != {step_n + 1}"]
    for i in sample:
        phi = i / step_n
        row = rows[i]
        if len(row) != len(want_header) or float(row[0]) != phi:
            problems.append(f"ratio row {i}: {row!r}")
            continue
        want = [divergence_ratio(a, b, phi, None)]
        want += [divergence_ratio(a, b, phi, beta) for beta in betas]
        want.append(divergence_ratio(a, b, phi, None, fm=True))
        for name, text, w in zip(want_header[1:], row[1:], want):
            if not close(_cell(text), w, RATIO_REL_TOL, rel=True):
                problems.append(f"ratio row {i} {name}: {text!r} != {w!r}")
    return problems


def empty_cells(data: bytes) -> tuple[int, int]:
    """(empty, total) data cells of an emitted CSV, the phi column excluded."""
    _, rows = parse_csv(data)
    total = sum(len(r) - 1 for r in rows)
    empty = sum(1 for r in rows for c in r[1:] if c == "")
    return empty, total


def predictions_size(n: int) -> int:
    """Bytes of a write_predictions file with n data rows: header plus 'x,y\\n' per row."""
    return len("label,prediction\n") + 4 * n


# --- the gate ---------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as f:
        return json.load(f)["payloads"]


class Gate:
    """Counts checked operations and failures.

    ``digests`` maps a payload key to the sha256 its bytes must have. Keys
    absent from the table are not digest-checked (their independent
    checks still run). With ``record`` set, digests are collected into the
    table instead of compared.
    """

    def __init__(self, digests: dict[str, str], record: bool = False):
        self.digests = digests
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def digest(self, key: str | None, data: bytes) -> list[str]:
        if key is None:
            return []
        got = sha256(data)
        if self.record:
            self.digests[key] = got
            return []
        want = self.digests.get(key)
        if want is not None and want != got:
            return [f"digest mismatch for {key}: {got} != {want}"]
        return []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems[:3])}")
