"""Pointwise curvature-identity checks.

Implements the Bochner curvature combination of curvature, Ricci and scalar
curvature, the antiholomorphic 3-frame criterion, the basis-sum criterion,
Einstein and off-diagonal Ricci diagnostics, the curvature reconstruction
from Ricci data, and the constant holomorphic-sectional-curvature fit.

All functions are pure over a ``PointData`` bundle; callers own the random
sources and should pre-draw samples when parallelizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import geometry as geo
from .geometry import (
    ComplexCurvature,
    HermitianMetric,
    KahlerManifold,
    RealTangentVector,
    RicciData,
)


class FrameConditionError(Exception):
    """Input vectors do not satisfy the required frame conditions."""


@dataclass(frozen=True, eq=False)
class PointData:
    """All pointwise tensors of one manifold at one chart point."""

    manifold: KahlerManifold
    point: np.ndarray
    metric: HermitianMetric
    curvature: ComplexCurvature
    ricci: RicciData
    tau: float

    @property
    def m(self) -> int:
        return self.manifold.m


def point_data(manifold: KahlerManifold, p: Sequence[complex]) -> PointData:
    """Evaluate metric, curvature, Ricci and scalar curvature at ``p``."""
    p = manifold.require_in_domain(p)
    metric = geo.metric_at(manifold, p)
    curvature = geo.curvature_at(manifold, p, metric)
    ricci = geo.ricci_at(manifold, p, metric, curvature)
    tau = geo.scalar_curvature_at(manifold, p, ricci)
    return PointData(
        manifold=manifold,
        point=p,
        metric=metric,
        curvature=curvature,
        ricci=ricci,
        tau=tau,
    )


def _ricci_block(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """The ten metric-Ricci cross terms of the Bochner combination."""
    g, s = pd.metric.inner, pd.ricci
    jx, jy, jz, ju = x.j(), y.j(), z.j(), u.j()
    return (
        g(x, u) * s(y, z)
        - g(x, z) * s(y, u)
        + g(y, z) * s(x, u)
        - g(y, u) * s(x, z)
        + g(x, ju) * s(y, jz)
        - g(x, jz) * s(y, ju)
        + g(y, jz) * s(x, ju)
        - g(y, ju) * s(x, jz)
        - 2.0 * g(x, jy) * s(z, ju)
        - 2.0 * g(z, ju) * s(x, jy)
    )


def _metric_block(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """The five pure metric terms of the Bochner combination."""
    g = pd.metric.inner
    jy, jz, ju = y.j(), z.j(), u.j()
    return (
        g(x, u) * g(y, z)
        - g(x, z) * g(y, u)
        + g(x, ju) * g(y, jz)
        - g(x, jz) * g(y, ju)
        - 2.0 * g(x, jy) * g(z, ju)
    )


def bochner_at(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """Value of the Bochner curvature tensor B(X, Y, Z, U).

    Vanishes identically on constant holomorphic-sectional-curvature
    models; its identical vanishing is what "Bochner-flat" means.
    """
    m = pd.m
    r = geo.real_curvature(pd.curvature, x, y, z, u)
    return (
        r
        - _ricci_block(pd, x, y, z, u) / (2.0 * (m + 2))
        + pd.tau * _metric_block(pd, x, y, z, u) / (4.0 * (m + 1) * (m + 2))
    )


def reconstruct_curvature_from_ricci(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """Curvature value rebuilt from metric, Ricci and scalar curvature alone.

    For Bochner-flat manifolds this reproduces R(X, Y, Z, U); in general the
    residual ``|R - reconstruction|`` equals ``|B|`` identically.
    """
    m = pd.m
    return _ricci_block(pd, x, y, z, u) / (2.0 * (m + 2)) - pd.tau * _metric_block(
        pd, x, y, z, u
    ) / (4.0 * (m + 1) * (m + 2))


def _check_antiholomorphic_frame(
    pd: PointData, vectors: Sequence[RealTangentVector], tol: float
) -> None:
    g, gj = pd.metric.inner, pd.metric.inner_j
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            want = 1.0 if a == b else 0.0
            if abs(g(va, vb) - want) > tol or abs(gj(va, vb)) > tol:
                raise FrameConditionError(
                    f"vectors do not form an orthonormal antiholomorphic {len(vectors)}-frame "
                    f"(pair {a},{b}: g={g(va, vb):.3e}, g(.,J.)={gj(va, vb):.3e})"
                )


def lemma_residual(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    frame_tol: float = 1e-8,
) -> float:
    """Residual ``R(x,Jx,y,z) - 2 R(x,y,Jx,z)`` on an antiholomorphic 3-frame.

    Vanishes for all such frames exactly when the Bochner tensor vanishes
    (in complex dimension >= 3).
    """
    _check_antiholomorphic_frame(pd, (x, y, z), frame_tol)
    rc = pd.curvature
    return geo.real_curvature(rc, x, x.j(), y, z) - 2.0 * geo.real_curvature(
        rc, x, y, x.j(), z
    )


def basis_sum(
    pd: PointData, basis: Sequence[RealTangentVector], frame_tol: float = 1e-8
) -> float:
    """``sum_i R(e_i, Je_i, Je_i, e_i)`` over a holomorphic orthonormal basis.

    Independent of the basis exactly when the Bochner tensor vanishes.
    """
    if len(basis) != pd.m:
        raise FrameConditionError(f"expected {pd.m} basis vectors, got {len(basis)}")
    _check_antiholomorphic_frame(pd, basis, frame_tol)
    total = 0.0
    for e in basis:
        je = e.j()
        total += geo.real_curvature(pd.curvature, e, je, je, e)
    return total


def holomorphic_sectional_curvature(pd: PointData, x: RealTangentVector) -> float:
    """H(x) = R(x, Jx, Jx, x) / g(x, x)^2; invariant under scaling of x."""
    gxx = pd.metric.inner(x, x)
    if gxx <= 0.0 or not np.all(np.isfinite(x.components)):
        raise ValueError("holomorphic sectional curvature requires a nonzero vector")
    jx = x.j()
    return geo.real_curvature(pd.curvature, x, jx, jx, x) / gxx**2


def einstein_residual(
    pd: PointData, samples: int, rng: np.random.Generator
) -> float:
    """max |S(X, Y) - (tau / 2m) g(X, Y)| over random unit vector pairs."""
    lam = pd.tau / (2.0 * pd.m)
    worst = 0.0
    for _ in range(samples):
        x = geo.random_unit_tangent(pd.metric, pd.m, rng)
        y = geo.random_unit_tangent(pd.metric, pd.m, rng)
        worst = max(worst, abs(pd.ricci(x, y) - lam * pd.metric.inner(x, y)))
    return worst


def ricci_offdiagonal_check(
    pd: PointData, samples: int, rng: np.random.Generator
) -> float:
    """max |S(y, z)| over pairs with g(y,z) = g(y,Jz) = 0.

    The pairs are the first two legs of random antiholomorphic 2-frames,
    which satisfy both orthogonality constraints by construction.
    """
    worst = 0.0
    for _ in range(samples):
        y, z = geo.orthonormal_antiholomorphic_frame(
            pd.manifold, pd.point, 2, rng, pd.metric
        )
        worst = max(worst, abs(pd.ricci(y, z)))
    return worst


def hsc_spread(values: Sequence[float], pds: Sequence[PointData]) -> tuple[float, float]:
    """Mean and relative spread of holomorphic sectional curvatures sampled
    at the points of ``pds``.

    The spread is ``(max - min) / max(|mean|, floor)``.  The floor is the
    largest ``geometry.curvature_term_scale`` over the points: the size of
    the two terms of R that cancel, which sets the round-off in every value.
    On a flat chart the mean is itself round-off, so dividing by it alone
    would turn round-off into an O(1) spread.
    """
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    width = float(arr.max() - arr.min())
    if width == 0.0:
        return mean, 0.0
    floor = max(geo.curvature_term_scale(pd.manifold, pd.point, pd.metric) for pd in pds)
    return mean, width / max(abs(mean), floor)


def chsc_fit(
    manifold: KahlerManifold,
    points: int,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Estimate the holomorphic sectional curvature constant.

    Samples ``points`` chart points and ``samples`` random directions at
    each; returns ``(mean H, relative spread)`` as ``hsc_spread`` defines
    them.  A manifold is of constant holomorphic sectional curvature at
    sampling fidelity when the spread is below tolerance.
    """
    values = []
    pds = []
    for _ in range(points):
        pd = point_data(manifold, manifold.sample_point(rng))
        pds.append(pd)
        for _ in range(samples):
            x = geo.random_unit_tangent(pd.metric, pd.m, rng)
            values.append(holomorphic_sectional_curvature(pd, x))
    return hsc_spread(values, pds)


# --------------------------------------------------------------------------
# Check reports
# --------------------------------------------------------------------------


def _complex_pairs(vec: Sequence[complex]) -> list[list[float]]:
    return [[float(np.real(c)), float(np.imag(c))] for c in np.asarray(vec, dtype=complex)]


@dataclass
class WorstCase:
    point: np.ndarray  # chart point (complex coordinates)
    frame: list[np.ndarray]  # the vectors involved in the worst sample
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "point": _complex_pairs(self.point),
            "frame": [_complex_pairs(v) for v in self.frame],
            "residual": self.residual,
        }


@dataclass
class CheckReport:
    """Outcome of one verification run.

    ``verdict`` is "pass" exactly when ``max_residual <= tolerance``.
    """

    manifold: str
    check: str
    seed: int
    points: int
    samples: int
    tolerance: float
    max_residual: float
    mean_residual: float
    worst_cases: list[WorstCase] = field(default_factory=list)
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    @property
    def verdict(self) -> str:
        return "pass" if self.max_residual <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "check": self.check,
            "seed": self.seed,
            "points": self.points,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "verdict": self.verdict,
            "worst_cases": [w.to_json_dict() for w in self.worst_cases],
            "timestamp": self.timestamp,
        }

    def summary_line(self) -> str:
        return (
            f"[{self.verdict}] {self.check} on {self.manifold}: "
            f"max={self.max_residual:.3e} mean={self.mean_residual:.3e} "
            f"tol={self.tolerance:.1e} (seed={self.seed})"
        )
