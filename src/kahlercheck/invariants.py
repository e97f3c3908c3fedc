"""Pointwise curvature-identity checks.

Implements the Bochner curvature combination of curvature, Ricci and scalar
curvature, the antiholomorphic 3-frame criterion, the basis-sum criterion,
Einstein and off-diagonal Ricci diagnostics, the curvature reconstruction
from Ricci data, and the constant holomorphic-sectional-curvature fit.

The pointwise functions are pure over a ``PointData`` bundle and give one
value per stacked tangent vector.  ``CHECKS`` names every sampled manifold
check: the least complex dimension it needs, the frames it draws, its value
on them and how the values reduce to residuals.  ``sample`` draws points
and the frames at each point as one stack from a caller-owned generator, in
a fixed order, so a seed fixes every residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Sequence

import numpy as np

from . import geometry as geo
# Re-exported; ``sample`` looks point_data up in this module, so a wrapper
# set on ``invariants.point_data`` sees every call.
from .geometry import KahlerManifold, PointData, RealTangentVector, point_data


class FrameConditionError(Exception):
    """Input vectors do not satisfy the required frame conditions."""


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
    return geo.real_curvature(pd.bochner, x, y, z, u)


def reconstruct_curvature_from_ricci(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """Curvature value rebuilt from metric, Ricci and scalar curvature alone.

    This is the paper's real-vector route, through ``_ricci_block`` and
    ``_metric_block``.  For Bochner-flat manifolds it reproduces
    R(X, Y, Z, U); in general ``R - reconstruction`` equals B identically.
    """
    m = pd.m
    return _ricci_block(pd, x, y, z, u) / (2.0 * (m + 2)) - pd.tau * _metric_block(
        pd, x, y, z, u
    ) / (4.0 * (m + 1) * (m + 2))


_FRAME_TOL = 1e-8


def _check_antiholomorphic_frame(pd: PointData, vectors: Sequence[RealTangentVector]) -> None:
    v = np.stack(np.broadcast_arrays(*(x.components for x in vectors)), axis=-2)
    # gram[..., a, b] = g(v_a, v_b) + i g(v_a, J v_b)
    gram = 2.0 * v @ pd.metric.matrix @ np.conj(np.swapaxes(v, -1, -2))
    bad = (np.abs(gram.real - np.eye(len(vectors))) > _FRAME_TOL) | (np.abs(gram.imag) > _FRAME_TOL)
    if bad.any():
        *_, a, b = first = tuple(np.argwhere(bad)[0])
        raise FrameConditionError(
            f"vectors do not form an orthonormal antiholomorphic {len(vectors)}-frame "
            f"(pair {a},{b}: g={gram[first].real:.3e}, g(.,J.)={gram[first].imag:.3e})"
        )


def lemma_residual(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
) -> float:
    """Residual ``R(x,Jx,y,z) - 2 R(x,y,Jx,z)`` on an antiholomorphic 3-frame.

    Vanishes for all such frames exactly when the Bochner tensor vanishes
    (in complex dimension >= 3).
    """
    _check_antiholomorphic_frame(pd, (x, y, z))
    rc = pd.curvature
    return geo.real_curvature(rc, x, x.j(), y, z) - 2.0 * geo.real_curvature(
        rc, x, y, x.j(), z
    )


def basis_sum(pd: PointData, basis: Sequence[RealTangentVector]) -> float:
    """``sum_i R(e_i, Je_i, Je_i, e_i)`` over a holomorphic orthonormal basis.

    Independent of the basis exactly when the Bochner tensor vanishes.
    """
    if len(basis) != pd.m:
        raise FrameConditionError(f"expected {pd.m} basis vectors, got {len(basis)}")
    _check_antiholomorphic_frame(pd, basis)
    return sum(geo.real_curvature(pd.curvature, e, e.j(), e.j(), e) for e in basis)


def holomorphic_sectional_curvature(pd: PointData, x: RealTangentVector) -> float:
    """H(x) = R(x, Jx, Jx, x) / g(x, x)^2; invariant under scaling of x."""
    gxx = pd.metric.inner(x, x)
    if np.any(gxx <= 0.0) or not np.all(np.isfinite(x.components)):
        raise ValueError("holomorphic sectional curvature requires a nonzero vector")
    jx = x.j()
    return geo.real_curvature(pd.curvature, x, jx, jx, x) / gxx**2


def hsc_spread(values: Sequence[float], pds: Sequence[PointData]) -> tuple[float, float]:
    """Mean and relative spread of holomorphic sectional curvatures sampled
    at the points of ``pds``.

    The spread is ``(max - min) / max(|mean|, floor)``.  The floor is the
    largest ``PointData.term_scale`` over the points: the size of the two
    terms of R that cancel, which sets the round-off in every value.  On a
    flat chart the mean is itself round-off, so dividing by it alone would
    turn round-off into an O(1) spread.
    """
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    width = float(arr.max() - arr.min())
    if width == 0.0:
        return mean, 0.0
    return mean, width / max(abs(mean), max(pd.term_scale for pd in pds))


# --------------------------------------------------------------------------
# Sampled checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One sampled manifold check.

    At a point it draws one ``(samples, k, m)`` stack of frames from
    ``geometry.<sampler>`` (k = None: the complex dimension); ``value(pd,
    legs)`` is its signed value on every frame, ``legs[a]`` stacking leg a.
    ``reduce`` is "max" (each |value| is a residual), "std" (one residual
    per point: the standard deviation of its values) or "spread" (one
    residual: the ``hsc_spread`` of all values).  Sampler and values are
    looked up by module name, so a module-attribute wrapper sees each call.
    """

    min_dim: int
    sampler: str
    k: int | None
    value: Callable
    reduce: str


def _einstein(pd: PointData, frame: Sequence[RealTangentVector]) -> np.ndarray:
    x, y = frame
    return pd.ricci(x, y) - pd.tau / (2.0 * pd.m) * pd.metric.inner(x, y)


def _reconstruct(pd: PointData, frame: Sequence[RealTangentVector]) -> np.ndarray:
    # R - reconstruction - B: the real-vector blocks against the index-level B.
    r = geo.real_curvature(pd.curvature, *frame)
    return r - reconstruct_curvature_from_ricci(pd, *frame) - bochner_at(pd, *frame)


_UNIT, _ANTI = "unit_tangents", "antiholomorphic_frames"
CHECKS: dict[str, Check] = {
    "bochner": Check(1, _UNIT, 4, lambda pd, f: bochner_at(pd, *f), "max"),
    "lemma": Check(3, _ANTI, 3, lambda pd, f: lemma_residual(pd, *f), "max"),
    "basis-sum": Check(1, _ANTI, None, lambda pd, f: basis_sum(pd, f), "std"),
    "einstein": Check(1, _UNIT, 2, _einstein, "max"),
    "ricci-offdiag": Check(2, _ANTI, 2, lambda pd, f: pd.ricci(*f), "max"),
    "chsc": Check(1, _UNIT, 1, lambda pd, f: holomorphic_sectional_curvature(pd, *f), "spread"),
    "reconstruct-2-3": Check(1, _UNIT, 4, _reconstruct, "max"),
}
MANIFOLD_CHECKS = tuple(CHECKS)

# One check at one point: the point, its (samples, k, m) frames, their values.
PointSamples = tuple[PointData, np.ndarray, np.ndarray]


def draw(name: str, pd: PointData, samples: int, rng: np.random.Generator) -> PointSamples:
    """``samples`` frames of check ``name`` at ``pd`` as one stack, and its value on each."""
    check = CHECKS[name]
    frames = getattr(geo, check.sampler)(pd.metric, samples, check.k or pd.m, rng)
    legs = [RealTangentVector(frames[:, a]) for a in range(frames.shape[1])]
    return pd, frames, check.value(pd, legs)


def sample(
    name: str, manifold: KahlerManifold, points: int, samples: int, rng: np.random.Generator
) -> list[PointSamples]:
    """Draw ``points`` chart points, each followed by its ``samples`` frames."""
    return [
        draw(name, point_data(manifold, manifold.sample_point(rng)), samples, rng)
        for _ in range(points)
    ]


def _spread(sampled: list[PointSamples]) -> tuple[np.ndarray, float, float]:
    values = np.concatenate([vs for _, _, vs in sampled])
    return (values, *hsc_spread(values, [pd for pd, _, _ in sampled]))


def reduce_samples(name: str, sampled: list[PointSamples]) -> tuple[list[float], list[WorstCase]]:
    """Residuals of check ``name`` and its worst cases: at each point the
    first largest sample ("max") or the one farthest from the point's mean
    ("std"); for "spread", the one sample farthest from the mean of all."""
    how = CHECKS[name].reduce
    if how == "spread":
        values, mean, spread = _spread(sampled)
        point, i = divmod(int(np.argmax(np.abs(values - mean))), len(sampled[0][2]))
        pd, frames, _ = sampled[point]
        # Copies: a view would keep a point's whole frame stack alive with the report.
        return [spread], [WorstCase(pd.point, frames[i].copy(), spread)]
    residuals, worst = [], []
    for pd, frames, values in sampled:
        far = np.abs(values - (values.mean() if how == "std" else 0.0))
        r = [float(values.std())] if how == "std" else far.tolist()
        residuals += r
        worst.append(WorstCase(pd.point, frames[int(np.argmax(far))].copy(), max(r)))
    return residuals, worst


def einstein_residual(
    pd: PointData, samples: int, rng: np.random.Generator
) -> float:
    """max |S(X, Y) - (tau / 2m) g(X, Y)| over random unit vector pairs."""
    return float(np.max(np.abs(draw("einstein", pd, samples, rng)[2]), initial=0.0))


def ricci_offdiagonal_check(
    pd: PointData, samples: int, rng: np.random.Generator
) -> float:
    """max |S(y, z)| over pairs with g(y,z) = g(y,Jz) = 0.

    The pairs are the first two legs of random antiholomorphic 2-frames,
    which satisfy both orthogonality constraints by construction.
    """
    return float(np.max(np.abs(draw("ricci-offdiag", pd, samples, rng)[2]), initial=0.0))


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
    sampling fidelity when the spread is below tolerance.  Raises
    ``ValueError`` unless ``points`` and ``samples`` are both at least 1.
    """
    for name, count in (("points", points), ("samples", samples)):
        if count < 1:
            raise ValueError(f"chsc_fit needs {name} >= 1, got {count}")
    _, mean, spread = _spread(sample("chsc", manifold, points, samples, rng))
    return mean, spread


# --------------------------------------------------------------------------
# Check reports
# --------------------------------------------------------------------------


def _complex_pairs(vec: Sequence[complex]) -> list[list[float]]:
    return [[float(np.real(c)), float(np.imag(c))] for c in np.asarray(vec, dtype=complex)]


@dataclass
class WorstCase:
    point: np.ndarray  # chart point (complex coordinates)
    frame: Sequence[np.ndarray]  # the vectors involved in the worst sample
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
