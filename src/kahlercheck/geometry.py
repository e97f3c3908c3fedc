"""Pointwise Kähler geometry from a symbolic potential.

A manifold chart is described by a complex dimension ``m``, a potential
expression ``K(z_1..z_m, zb_1..zb_m)`` and a chart domain.  The metric is
``g_{i jbar} = d_i d_jbar K``; all its derivatives are taken symbolically
when the manifold is constructed, so pointwise tensors evaluate near machine
precision.

Conventions (calibrated so that flat potentials give zero curvature, round
Fubini–Study-type potentials give positive holomorphic sectional curvature,
and the Bochner combination of curvature, Ricci and scalar curvature
vanishes on constant-curvature models):

* curvature:  ``R_{i jbar k lbar} = -d_i d_jbar g_{k lbar}
  + g^{p qbar} (d_i g_{k qbar}) (d_jbar g_{p lbar})``
* a real tangent vector is encoded by its complex representative ``v``,
  meaning ``X = sum_i v^i d_{z_i} + conj(v^i) d_{zb_i}``; then ``JX <-> i v``,
  ``g(X,Y) = 2 Re h(v,w)`` and ``g(X,JY) = 2 Im h(v,w)`` with
  ``h(v,w) = g_{i jbar} v^i conj(w^j)``
* real curvature values expand the quadrilinear form through the mixed
  components: ``R(X,Y,Z,U) = sum R_{i jbar k lbar}
  (x^i conj(y^j) - y^i conj(x^j)) (z^k conj(u^l) - u^k conj(z^l))``
* Ricci is the trace of the curvature operator over a real orthonormal
  basis, ``S_{k jbar} = g^{l ibar}-contraction of R``; it coincides with
  ``-d_k d_jbar log det g``
* scalar curvature is the full real trace, ``tau = 2 g^{i jbar} S_{i jbar}``.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import Expr, Var, Z, ZB

ChartPoint = np.ndarray  # (m,) complex array inside the chart domain


class GeometryError(Exception):
    """Base class for chart-level numerical failures."""


class MetricError(GeometryError):
    """Metric not Hermitian positive definite at the requested point."""


class DomainError(GeometryError):
    """Point outside the chart domain."""


class FrameError(GeometryError):
    """Requested frame does not exist or could not be orthonormalized."""


@dataclass(frozen=True)
class ChartDomain:
    """Ball of given radius or polydisc, centered at the origin."""

    kind: str  # "ball" | "polydisc"
    radii: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("ball", "polydisc"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not all(0 < r < math.inf for r in self.radii):
            raise ValueError("domain radii must be positive and finite")

    def contains(self, p: Sequence[complex], margin: float = 0.0) -> bool:
        p = np.asarray(p, dtype=complex)
        if self.kind == "ball":
            return float(np.linalg.norm(p)) <= self.radii[0] * (1.0 - margin) + 1e-12
        return bool(
            np.all(np.abs(p) <= np.array(self.radii) * (1.0 - margin) + 1e-12)
        )

    def sample_point(self, rng: np.random.Generator, dimension: int, margin: float = 0.1) -> ChartPoint:
        """Uniform draw from the domain shrunk by ``margin`` of its radius."""
        if self.kind == "ball":
            direction = rng.normal(size=2 * dimension)
            direction /= np.linalg.norm(direction)
            radius = self.radii[0] * (1.0 - margin) * rng.random() ** (1.0 / (2 * dimension))
            x = direction * radius
            return x[:dimension] + 1j * x[dimension:]
        coords = []
        for r in self.radii:
            rho = r * (1.0 - margin) * math.sqrt(rng.random())
            theta = 2 * math.pi * rng.random()
            coords.append(rho * complex(math.cos(theta), math.sin(theta)))
        return np.array(coords, dtype=complex)


def ball(radius: float) -> ChartDomain:
    return ChartDomain("ball", (float(radius),))


def polydisc(*radii: float) -> ChartDomain:
    return ChartDomain("polydisc", tuple(float(r) for r in radii))


@dataclass(frozen=True, eq=False)
class RealTangentVector:
    """Real tangent vector encoded by its complex representative.

    ``X <-> v`` means ``X = sum v^i d_{z_i} + conj(v^i) d_{zb_i}``; the
    complex structure acts as multiplication by i, so ``J^2 X = -X`` exactly.
    """

    components: np.ndarray  # (m,) complex

    def j(self) -> "RealTangentVector":
        return RealTangentVector(1j * self.components)


def tangent(components: Sequence[complex]) -> RealTangentVector:
    return RealTangentVector(np.asarray(components, dtype=complex))


@dataclass(frozen=True, eq=False)
class HermitianMetric:
    """Metric matrix ``g_{i jbar}`` and its inverse at one chart point."""

    matrix: np.ndarray
    inverse: np.ndarray

    def hermitian_product(self, v: np.ndarray, w: np.ndarray) -> complex:
        """h(v, w) = g_{i jbar} v^i conj(w^j).  The forms here take vectors
        stacked along broadcasting leading axes, one value per stacked vector."""
        return _sesquilinear(self.matrix, v, w)

    def inner(self, x: RealTangentVector, y: RealTangentVector) -> float:
        """g(X, Y) = 2 Re h(v, w)."""
        return 2.0 * self.hermitian_product(x.components, y.components).real

    def inner_j(self, x: RealTangentVector, y: RealTangentVector) -> float:
        """g(X, JY) = 2 Im h(v, w)."""
        return 2.0 * self.hermitian_product(x.components, y.components).imag

    def norm(self, x: RealTangentVector) -> float:
        return np.sqrt(np.maximum(self.inner(x, x), 0.0))


def _sesquilinear(matrix: np.ndarray, v: np.ndarray, w: np.ndarray) -> complex:
    """``v^i a_{i jbar} conj(w^j)`` per vector of the stacks ``v`` and ``w``."""
    return np.einsum("...i,ij,...j->...", v, matrix, np.conj(w))


@dataclass(frozen=True, eq=False)
class ChristoffelData:
    """Holomorphic Christoffel symbols ``Gamma^k_{ij}``, index order [k,i,j]."""

    gamma: np.ndarray


@dataclass(frozen=True, eq=False)
class ComplexCurvature:
    """Curvature components ``R_{i jbar k lbar}``, index order [i,j,k,l]."""

    tensor: np.ndarray


@dataclass(frozen=True, eq=False)
class RicciData:
    """Ricci matrix ``S_{i jbar}`` plus the real bilinear evaluator."""

    matrix: np.ndarray
    metric: HermitianMetric

    def __call__(self, x: RealTangentVector, y: RealTangentVector) -> float:
        """S(X, Y); symmetric and J-invariant.  Stacks as ``HermitianMetric.inner``."""
        return 2.0 * _sesquilinear(self.matrix, x.components, y.components).real


def jet_layout(shapes: Sequence[tuple[int, ...]]) -> list[tuple[slice, tuple[int, ...]]]:
    """The slice and shape of each block of a tape whose roots are the flat,
    row-major blocks ``shapes`` in order."""
    ends = accumulate(math.prod(s) for s in shapes)
    return [(slice(end - math.prod(s), end), s) for end, s in zip(ends, shapes)]


def run_jets(tape: ex.Tape, assignment: dict, layout: Sequence[tuple]) -> list[np.ndarray]:
    """The blocks of a ``jet_layout`` from one run of the tape prefix they need."""
    values = np.array(tape.run(assignment, layout[-1][0].stop))
    return [values[block].reshape(shape) for block, shape in layout]


class KahlerManifold:
    """Chart of a Kähler manifold defined by a symbolic potential.

    The constructor validates the potential (variable kinds/indices and
    reality on sampled points) and differentiates it once into a shared
    DAG: ``g``, its first derivatives in both kinds, and the mixed second
    derivatives needed for curvature.  ``tape`` evaluates them all, in that
    order, so a prefix of it yields the metric alone.  Instances are
    immutable afterwards and safe to evaluate concurrently.
    """

    def __init__(
        self,
        dimension: int,
        potential: Expr,
        domain: ChartDomain | None = None,
        name: str = "manifold",
        check_reality: bool = True,
    ):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.m = int(dimension)
        self.potential = potential
        self.domain = domain if domain is not None else ball(1.0)
        self.name = name
        ex.validate_variables(potential, self.m, (Z, ZB))
        if check_reality:
            self._check_reality()

        m = self.m
        dag = ex.Dag()
        d = dag.derivative
        zs = [Var(Z, i + 1) for i in range(m)]
        zbs = [Var(ZB, j + 1) for j in range(m)]
        K = dag.fold(potential)
        r = range(m)
        # Flat, row-major blocks; the derivatives of folded nodes come out
        # folded, so only the potential needs an explicit fold.
        g = [d(d(K, zs[i]), zbs[j]) for i in r for j in r]
        dg = [d(g[i * m + j], zs[a]) for a in r for i in r for j in r]
        dgb = [d(g[i * m + j], zbs[b]) for b in r for i in r for j in r]
        # d2g[i][j][k][l] = d_{z_i} d_{zb_j} g_{k lbar}
        d2g = [d(dg[(i * m + k) * m + l], zbs[j]) for i in r for j in r for k in r for l in r]
        self.tape = dag.tape(g + dg + dgb + d2g)
        self._jets = jet_layout(((m, m), (m, m, m), (m, m, m), (m, m, m, m)))

    def _check_reality(self):
        rng = np.random.default_rng(1811)
        potential = ex.compile_evaluator(self.potential)
        for _ in range(8):
            p = self.domain.sample_point(rng, self.m)
            try:
                value = potential(self.assignment(p))
            except ex.EvaluationDomainError:
                continue
            if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
                raise ValueError(
                    f"potential is not real on the chart: K({p}) = {value}"
                )

    def assignment(self, p: Sequence[complex]) -> dict[Var, complex]:
        """Evaluation assignment binding zb_k to the conjugate of z_k."""
        a: dict[Var, complex] = {}
        for i, value in enumerate(np.asarray(p, dtype=complex)):
            v = complex(value)
            a[Var(Z, i + 1)] = v
            a[Var(ZB, i + 1)] = v.conjugate()
        return a

    def require_in_domain(self, p: Sequence[complex]) -> ChartPoint:
        p = np.asarray(p, dtype=complex)
        if p.shape != (self.m,):
            raise DomainError(f"point has shape {p.shape}, expected ({self.m},)")
        if not self.domain.contains(p):
            raise DomainError(f"point {p} outside chart domain {self.domain}")
        return p

    def sample_point(self, rng: np.random.Generator, margin: float = 0.1) -> ChartPoint:
        return self.domain.sample_point(rng, self.m, margin)

    def jets(self, p: Sequence[complex], blocks: int = 4) -> list[np.ndarray]:
        """The first ``blocks`` of ``(g, dg, dgb, d2g)`` at ``p``, without validation.

        One run of the tape prefix those blocks need.  Index order:
        ``g[i, j] = g_{i jbar}``, ``dg[a, i, j] = d_{z_a} g_{i jbar}``,
        ``dgb[b, i, j] = d_{zb_b} g_{i jbar}`` and
        ``d2g[i, j, k, l] = d_{z_i} d_{zb_j} g_{k lbar}``.
        """
        return run_jets(self.tape, self.assignment(p), self._jets[:blocks])

    # Raw metric (no validation); used by metric_at and the finite-difference
    # oracle, which run only the g prefix of the tape.
    def metric_matrix(self, p: Sequence[complex]) -> np.ndarray:
        return self.jets(p, 1)[0]


# Pointwise tensors: one formula function each, over the jets at a point;
# ``p`` only names the point in error messages.


def hermitian_metric(p: ChartPoint, g: np.ndarray) -> HermitianMetric:
    """The metric matrix ``g`` at ``p`` checked Hermitian positive definite, with inverse."""
    scale = max(1.0, float(np.max(np.abs(g))))
    if float(np.max(np.abs(g - g.conj().T))) > 1e-12 * scale:
        raise MetricError(f"metric not Hermitian at {p}")
    g = 0.5 * (g + g.conj().T)
    smallest = float(np.linalg.eigvalsh(g)[0])
    if smallest <= 0.0:
        raise MetricError(
            f"metric not positive definite at {p}: smallest eigenvalue {smallest:.6e}"
        )
    inverse = np.linalg.inv(g)
    if float(np.max(np.abs(g @ inverse - np.eye(len(g))))) > 1e-10:
        raise MetricError(f"metric inversion failed at {p}")
    return HermitianMetric(matrix=g, inverse=inverse)


def christoffel_symbols(metric: HermitianMetric, dg: np.ndarray) -> ChristoffelData:
    """``Gamma^k_{ij} = g^{k lbar} d_i g_{j lbar}``, symmetric in (i, j)."""
    # dg[i, j, l] = d_i g_{j lbar};  g^{k lbar} = inverse[l, k]
    gamma = np.einsum("lk,ijl->kij", metric.inverse, dg)
    gamma = 0.5 * (gamma + gamma.transpose(0, 2, 1))
    return ChristoffelData(gamma=gamma)


def _curvature_terms(
    metric: HermitianMetric, jets: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The two terms whose sum is the curvature tensor."""
    _, dg, dgb, d2g = jets
    # R[i,j,k,l] = -d2g[i,j,k,l] + g^{p qbar} dg[i,k,q] dgb[j,p,l]
    return -d2g, np.einsum("qp,ikq,jpl->ijkl", metric.inverse, dg, dgb)


def curvature_tensor(
    p: ChartPoint, metric: HermitianMetric, jets: Sequence[np.ndarray]
) -> ComplexCurvature:
    """Curvature components ``R_{i jbar k lbar}`` from the four jet blocks at ``p``.

    Validates the Kähler symmetries (pair symmetry and conjugation symmetry)
    of the result before returning it.
    """
    minus_d2g, quadratic = _curvature_terms(metric, jets)
    r = minus_d2g + quadratic
    scale = max(1.0, float(np.max(np.abs(r))))
    pair = max(
        float(np.max(np.abs(r - r.transpose(2, 1, 0, 3)))),
        float(np.max(np.abs(r - r.transpose(0, 3, 2, 1)))),
    )
    conj = float(np.max(np.abs(r - r.transpose(1, 0, 3, 2).conj())))
    if max(pair, conj) > 1e-10 * scale:
        raise GeometryError(f"curvature symmetries violated at {p}")
    return ComplexCurvature(tensor=r)


def ricci_tensor(
    p: ChartPoint, metric: HermitianMetric, curvature: ComplexCurvature, jets: Sequence[np.ndarray]
) -> RicciData:
    """Ricci tensor at ``p``, computed two ways and cross-checked.

    Route (a) contracts the curvature tensor with the inverse metric; route
    (b) uses the log-determinant identity through Jacobi's formula,
    ``S_{i jbar} = -tr(g^{-1} d_i d_jbar g) + tr(g^{-1} d_i g g^{-1} d_jbar g)``.
    The two must agree to 1e-8.
    """
    ginv = metric.inverse
    s_contract = np.einsum("li,ijkl->kj", ginv, curvature.tensor)

    _, dg, dgb, d2g = jets
    t1 = np.einsum("ab,ijba->ij", ginv, d2g)
    t2 = np.einsum("ab,ibc,cd,jda->ij", ginv, dg, ginv, dgb)
    s_logdet = -t1 + t2

    scale = max(1.0, float(np.max(np.abs(s_contract))))
    if float(np.max(np.abs(s_contract - s_logdet))) > 1e-8 * scale:
        raise GeometryError(f"Ricci computation routes disagree at {p}")
    s = 0.5 * (s_contract + s_contract.conj().T)
    return RicciData(matrix=s, metric=metric)


@dataclass(frozen=True, eq=False)
class PointData:
    """All pointwise tensors of one manifold at one chart point."""

    manifold: KahlerManifold
    point: np.ndarray
    metric: HermitianMetric
    curvature: ComplexCurvature
    ricci: RicciData
    tau: float
    jets: list[np.ndarray]  # (g, dg, dgb, d2g) as KahlerManifold.jets gives them

    @property
    def m(self) -> int:
        return self.manifold.m

    @cached_property
    def bochner(self) -> ComplexCurvature:
        """Index-level Bochner tensor ``B_{i jbar k lbar}``, from R, S, tau and g.

        ``B = R - (g.S + S.g) / (m + 2) + tau g.g / (2 (m + 1) (m + 2))`` with
        ``(a.b)_{i jbar k lbar} = a_{i jbar} b_{k lbar} + a_{i lbar} b_{k jbar}``
        (Bryant, "Bochner-Kähler metrics", J. AMS 14, 2001, section 1).
        """
        g, s, m = self.metric.matrix, self.ricci.matrix, self.m

        def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.einsum("ij,kl->ijkl", a, b) + np.einsum("il,kj->ijkl", a, b)

        tensor = (
            self.curvature.tensor
            - (dot(g, s) + dot(s, g)) / (m + 2)
            + self.tau * dot(g, g) / (2.0 * (m + 1) * (m + 2))
        )
        return ComplexCurvature(tensor=tensor)

    @cached_property
    def term_scale(self) -> float:
        """Size in the metric of the larger of the two terms whose sum is R.

        Each term is written in a g-orthonormal frame and measured by its
        Frobenius norm, which bounds its holomorphic sectional curvature over
        unit vectors.  Where the terms cancel, as on a flat chart, the
        curvature is round-off of order machine epsilon times this size.
        """
        # c.T g conj(c) = 1 for g = L L^H
        c = np.linalg.inv(np.linalg.cholesky(self.metric.matrix)).T
        cb = c.conj()
        return max(
            float(np.linalg.norm(np.einsum("ijkl,ia,jb,kc,ld->abcd", t, c, cb, c, cb, optimize=True)))
            for t in _curvature_terms(self.metric, self.jets)
        )


def point_data(manifold: KahlerManifold, p: Sequence[complex]) -> PointData:
    """Evaluate metric, curvature, Ricci and scalar curvature at ``p``,
    from one run of the chart's jet tape."""
    p = manifold.require_in_domain(p)
    jets = manifold.jets(p)
    metric = hermitian_metric(p, jets[0])
    curvature = curvature_tensor(p, metric, jets)
    ricci = ricci_tensor(p, metric, curvature, jets)
    tau = 2.0 * float(np.trace(ricci.matrix @ metric.inverse).real)  # 2 g^{i jbar} S_{i jbar}
    return PointData(manifold, p, metric, curvature, ricci, tau, jets)


# One tensor at one point of a chart.  The metric and Christoffel symbols
# run only the tape prefix they read; the rest read ``point_data``.


def metric_at(manifold: KahlerManifold, p: Sequence[complex]) -> HermitianMetric:
    """Hermitian positive-definite metric at ``p``, with inverse."""
    p = manifold.require_in_domain(p)
    return hermitian_metric(p, manifold.metric_matrix(p))


def christoffel_at(manifold: KahlerManifold, p: Sequence[complex]) -> ChristoffelData:
    """Holomorphic Christoffel symbols at ``p`` (``christoffel_symbols``)."""
    p = manifold.require_in_domain(p)
    g, dg = manifold.jets(p, 2)
    return christoffel_symbols(hermitian_metric(p, g), dg)


def curvature_at(manifold: KahlerManifold, p: Sequence[complex]) -> ComplexCurvature:
    return point_data(manifold, p).curvature


def ricci_at(manifold: KahlerManifold, p: Sequence[complex]) -> RicciData:
    return point_data(manifold, p).ricci


def scalar_curvature_at(manifold: KahlerManifold, p: Sequence[complex]) -> float:
    return point_data(manifold, p).tau


def curvature_term_scale(manifold: KahlerManifold, p: Sequence[complex]) -> float:
    return point_data(manifold, p).term_scale


def real_curvature(
    curvature: ComplexCurvature,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """R(X, Y, Z, U) as a real quadrilinear form, one value per stacked vector."""
    return np.einsum("ijkl,...ij,...kl->...", curvature.tensor, _wedge(x, y), _wedge(z, u)).real


def _wedge(x: RealTangentVector, y: RealTangentVector) -> np.ndarray:
    """``x^i conj(y^j) - y^i conj(x^j)``, stacked like ``x`` and ``y``."""
    w = x.components[..., :, None] * np.conj(y.components)[..., None, :]
    return w - np.conj(np.swapaxes(w, -1, -2))


def curvature_operator(
    curvature: ComplexCurvature,
    metric: HermitianMetric,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
) -> np.ndarray:
    """Complex representative of the vector R(X, Y)Z.

    Defined by ``g(R(X,Y)Z, U) = R(X,Y,Z,U)`` for every U; vectors stack
    and broadcast as in ``real_curvature``.
    """
    a = np.einsum("ijkl,...ij,...k->...l", curvature.tensor, _wedge(x, y), z.components)
    return np.linalg.solve(metric.matrix.T, a[..., None])[..., 0]


_PIVOT = 1e-8


def unit_tangents(
    metric: HermitianMetric, count: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, k, m)`` random g-unit tangent vectors (complex Gaussian
    directions, real parts drawn first); one of norm <= 1e-6 is redrawn alone."""
    m = metric.matrix.shape[0]
    v = rng.normal(size=(count, k, m)) + 1j * rng.normal(size=(count, k, m))
    n = metric.norm(RealTangentVector(v))
    while (small := n <= 1e-6).any():
        redraw = (int(small.sum()), m)
        v[small] = rng.normal(size=redraw) + 1j * rng.normal(size=redraw)
        n[small] = metric.norm(RealTangentVector(v[small]))
    return v / n[..., None]


def antiholomorphic_frames(
    metric: HermitianMetric, count: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, k, m)`` frames with ``g(x_a, x_b) = delta_ab`` and ``g(x_a, J x_b) = 0``.

    Equivalently ``h(v_a, v_b) = delta_ab / 2``.  Complex Gaussian seeds are
    whitened by the Cholesky factor of g and go through one batched QR, with
    the column phases that make each pivot positive: Gram-Schmidt over h.
    Only frames with a pivot below ``_PIVOT`` are redrawn, 64 draws at most.
    """
    m = metric.matrix.shape[0]
    if k > m:
        raise FrameError(
            f"no antiholomorphic {k}-plane exists: k={k} exceeds complex dimension {m}"
        )
    # h(v, w) is the standard product of L^T v and L^T w, for g = L L^H.
    lt = np.linalg.cholesky(metric.matrix).T
    back = np.linalg.inv(lt) / math.sqrt(2.0)
    frames = np.empty((count, k, m), dtype=complex)
    todo = np.arange(count)
    for _ in range(64):
        size = (len(todo), k, m)
        raw = rng.normal(size=size) + 1j * rng.normal(size=size)
        q, r = np.linalg.qr(lt @ np.swapaxes(raw, -1, -2))
        pivots = np.diagonal(r, axis1=-2, axis2=-1)
        ok = np.all(np.abs(pivots) >= _PIVOT, axis=-1)
        phases = pivots[ok] / np.abs(pivots[ok])
        frames[todo[ok]] = np.swapaxes(back @ (q[ok] * phases[:, None, :]), -1, -2)
        if not len(todo := todo[~ok]):
            return frames
    raise FrameError("failed to draw an independent frame")


def orthonormal_antiholomorphic_frame(
    manifold: KahlerManifold,
    p: Sequence[complex],
    k: int,
    rng: np.random.Generator,
    metric: HermitianMetric | None = None,
) -> list[RealTangentVector]:
    """k unit vectors spanning an antiholomorphic k-plane at ``p``: one
    ``antiholomorphic_frames`` frame."""
    if metric is None:
        metric = metric_at(manifold, p)
    return [RealTangentVector(v) for v in antiholomorphic_frames(metric, 1, k, rng)[0]]


def orthonormal_holomorphic_basis(
    manifold: KahlerManifold,
    p: Sequence[complex],
    rng: np.random.Generator,
    metric: HermitianMetric | None = None,
) -> list[RealTangentVector]:
    """Vectors e_1..e_m such that {e_i, J e_i} is a g-orthonormal basis."""
    return orthonormal_antiholomorphic_frame(manifold, p, manifold.m, rng, metric)


def random_unit_tangent(
    metric: HermitianMetric, m: int, rng: np.random.Generator
) -> RealTangentVector:
    """One ``unit_tangents`` vector; ``m`` is the complex dimension of ``metric``."""
    return RealTangentVector(unit_tangents(metric, 1, 1, rng)[0, 0])
