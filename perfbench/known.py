"""Known answers, derived from the geometry rather than from the program.

Every function returns a list of failure messages; an empty list means the
check passed.  They run after the timed calls, on the reports those calls
returned, and ``selfcheck.py`` shows that each one trips on a wrong expected
value or a perturbed report.
"""

from __future__ import annotations

import re

import numpy as np

from kahlercheck import geometry as geo
from kahlercheck import oracle
from kahlercheck import submanifold as sub

# Values of true identities sit near 1e-15; 1e-9 leaves room for the
# conditioning of the metric inverse near the domain edge.
VALUE_TOL = 1e-9
# riemann_tensor_fd nests two Richardson-corrected central differences with
# h = 1e-4; the tier-1 oracle tests use the same relative tolerance.
ORACLE_TOL = 1e-5
# run_suite prints the fitted constant with six significant digits.
PRINTED_TOL = 1e-5


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def verdict_mismatches(reports, expected: dict[str, str]) -> list[str]:
    """Checks whose verdict differs from the known one, or that are missing."""
    got = {r.check: r.verdict for r in reports}
    return [name for name, want in expected.items() if got.get(name) != want]


def scalar_curvature(pds, tau: float, label: str) -> list[str]:
    return [
        f"{label}: tau = {pd.tau:.12g} at {np.round(pd.point, 4)}, expected {tau:g}"
        for pd in pds
        if not _close(pd.tau, tau, VALUE_TOL)
    ]


def einstein_constant(pds, lam: float, label: str) -> list[str]:
    """Ricci matrix equals lam times the metric matrix."""
    out = []
    for pd in pds:
        gap = float(np.max(np.abs(pd.ricci.matrix - lam * pd.metric.matrix)))
        scale = max(1.0, abs(lam) * float(np.max(np.abs(pd.metric.matrix))))
        if gap > VALUE_TOL * scale:
            out.append(f"{label}: |S - {lam:g} g| = {gap:.3e} at {np.round(pd.point, 4)}")
    return out


_CONSTANT_LINE = re.compile(
    r"constant holomorphic sectional curvature: (yes \(c = (\S+)\)|no)$"
)


def suite_constant(lines: list[str], c: float | None, label: str) -> list[str]:
    """The suite's summary names constant c, or says "no" when c is None."""
    for line in lines:
        match = _CONSTANT_LINE.match(line)
        if match is None:
            continue
        if c is None:
            return [] if match.group(1) == "no" else [f"{label}: suite says {match.group(1)}, expected no"]
        if match.group(1) == "no":
            return [f"{label}: suite says no, expected c = {c:g}"]
        value = float(match.group(2))
        return [] if _close(value, c, PRINTED_TOL) else [f"{label}: suite c = {value:g}, expected {c:g}"]
    return [f"{label}: no constant-HSC line in the suite summary"]


def hsc_range(values, lo: float, hi: float, label: str) -> list[str]:
    slack = VALUE_TOL * max(1.0, abs(hi))
    bad = [v for v in values if not lo - slack <= v <= hi + slack]
    return [f"{label}: H = {v:.12g} outside [{lo:g}, {hi:g}]" for v in bad]


def oracle_agreement(manifold, pds, rng: np.random.Generator, label: str, quadruples: int = 4) -> list[str]:
    """Symbolic curvature against the finite-difference Riemann tensor."""
    out = []
    for pd in pds:
        riem = oracle.riemann_tensor_fd(manifold, oracle.real_point(manifold, pd.point))
        for _ in range(quadruples):
            vecs = [geo.random_unit_tangent(pd.metric, pd.m, rng) for _ in range(4)]
            a = geo.real_curvature(pd.curvature, *vecs)
            b = oracle.real_curvature_fd(riem, *vecs)
            if abs(a - b) > ORACLE_TOL * max(1.0, abs(a), abs(b)):
                out.append(f"{label}: R = {a:.10g}, oracle {b:.10g} at {np.round(pd.point, 4)}")
    return out


def _gnorm(metric, w) -> float:
    return float(np.sqrt(max(2.0 * metric.hermitian_product(w, w).real, 0.0)))


def mean_curvature_norm(imm, us, expected: float, label: str) -> list[str]:
    out = []
    for u in us:
        metric = geo.metric_at(imm.ambient, imm.value(u))
        norm = _gnorm(metric, sub.mean_curvature(imm, u))
        if not _close(norm, expected, VALUE_TOL):
            out.append(f"{label}: |H| = {norm:.12g} at u={np.round(u, 4)}, expected {expected:g}")
    return out


def totally_geodesic(imm, us, label: str) -> list[str]:
    out = []
    for u in us:
        metric = geo.metric_at(imm.ambient, imm.value(u))
        alpha = sub.second_fundamental_form(imm, u)
        worst = max(_gnorm(metric, alpha[a, b]) for a in range(imm.n) for b in range(imm.n))
        if worst > VALUE_TOL:
            out.append(f"{label}: |alpha| = {worst:.3e} at u={np.round(u, 4)}, expected 0")
    return out
