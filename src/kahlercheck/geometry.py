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
  (x^i conj(y^j) - y^i conj(x^j)) (z^k conj(u^l) - u^k conj(z^l))``.
  A tensor with the Kähler conjugation symmetry ``conj(R_{i jbar k lbar}) =
  R_{j ibar l kbar}`` (R, which ``curvature_tensor`` validates, and B and
  R - B, which inherit it) has anti-Hermitian rows ``sum (x^i conj(y^j) -
  y^i conj(x^j)) R_{i jbar k lbar}`` in (k, l), so the second factor folds
  into one product: ``R(X,Y,Z,U) = 2 Re sum rows_{kl} z^k conj(u^l)``.  On
  a J-pair the first factor is ``-2i x^i conj(x^j)``, so ``R(X,JX,JX,X) =
  4 sum R_{i jbar k lbar} x^i conj(x^j) x^k conj(x^l)``: a real quadratic
  form in the m^2 real coordinates of the Hermitian square ``x x^H``
* Ricci is the trace of the curvature operator over a real orthonormal
  basis, ``S_{k jbar} = g^{l ibar}-contraction of R``; it coincides with
  ``-d_k d_jbar log det g``
* scalar curvature is the full real trace, ``tau = 2 g^{i jbar} S_{i jbar}``.

Points stack along leading axes.  The chart's jet tape runs once over a
stack of points (``point_jets``), its outputs are filled into jet blocks
once (``KahlerManifold.fill``), and the formula functions broadcast over
the stack, each test naming the first point that fails it by its
``index``; a point gives the same bits at any position of a stack as alone.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr, Var, Z, ZB

ChartPoint = np.ndarray  # (m,) complex array inside the chart domain


class GeometryError(Exception):
    """Base class for chart-level numerical failures.

    Where a test ran on a stack of points at once, ``index`` holds the
    leading-axis indices of the first point that failed (() for one point).
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


class MetricError(GeometryError):
    """Metric not Hermitian positive definite at the requested point."""


class DomainError(GeometryError):
    """Point outside the chart domain."""


class FrameError(GeometryError):
    """Requested frame does not exist or could not be orthonormalized."""


_SAMPLE_MARGIN = 0.1  # share of the radius that sampled points keep clear of the boundary


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

    def contains(self, p: Sequence[complex]) -> np.ndarray:
        """Whether each point of ``p``, one or a stack along leading axes, is inside."""
        p = np.asarray(p, dtype=complex)
        if self.kind == "ball":
            # a length past the float range is inf, which reads as outside
            with np.errstate(over="ignore"):
                return np.sqrt(np.sum(p.real**2 + p.imag**2, axis=-1)) <= self.radii[0] + 1e-12
        return np.all(np.abs(p) <= np.array(self.radii) + 1e-12, axis=-1)

    def sample_point(self, rng: np.random.Generator, dimension: int) -> ChartPoint:
        """Uniform draw from the domain shrunk by ``_SAMPLE_MARGIN`` of its radius."""
        if self.kind == "ball":
            direction = rng.normal(size=2 * dimension)
            radius = self.radii[0] * (1.0 - _SAMPLE_MARGIN) * rng.random() ** (1.0 / (2 * dimension))
            # the norm as np.linalg.norm forms it for a 1-D float array, bit for bit
            x = direction / math.sqrt(direction.dot(direction)) * radius
            point = np.empty(dimension, dtype=complex)
            point.real, point.imag = x[:dimension], x[dimension:]
            return point
        coords = []
        for r in self.radii:
            rho = r * (1.0 - _SAMPLE_MARGIN) * math.sqrt(rng.random())
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


def _rows(v: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``v @ matrix`` as one 2-D product over all the leading axes of ``v``.

    A stack of matrices, one per point, takes vectors whose leading axes
    begin with the same point axes, and gives one product per point.
    """
    v = np.asarray(v)
    points = matrix.shape[:-2]
    rows = v.reshape(*points, -1, v.shape[-1]) @ matrix
    return rows.reshape(*v.shape[:-1], matrix.shape[-1])


def _per_point(a: np.ndarray, v: np.ndarray, core: int = 2) -> np.ndarray:
    """``a``, one per point of a stack, with unit axes after its point axes,
    so that it broadcasts against ``v``, whose leading axes begin with the
    same point axes.  Both end in ``core`` axes of their own: 2 for matrices
    in a matmul or a solve, 0 for one scalar per point (such as tau) against
    values or tensors."""
    a = np.asarray(a)
    return np.expand_dims(a, tuple(range(a.ndim - core, np.ndim(v) - core)))


def _sesquilinear(matrix: np.ndarray, v: np.ndarray, w: np.ndarray) -> complex:
    """``v^i a_{i jbar} conj(w^j)`` per vector of the stacks ``v`` and ``w``."""
    return np.einsum("...i,...i->...", _rows(v, matrix), np.conj(w))


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
    """The blocks of a ``jet_layout`` from one run of the tape prefix they
    need, each with the leading point axes of ``assignment`` first."""
    values = tape.run(assignment, layout[-1][0].stop)
    points = values.shape[:-1]
    return [values[..., block].reshape(*points, *shape) for block, shape in layout]


@cache
def _conjugate_fill(m: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], tuple[int, ...]]:
    """For each block ``g, dg, dgb, d2g, ddg`` of ``KahlerManifold.jets``, in
    the block's shape: the tape output each entry reads and whether it is
    that output's conjugate (read-only); then the outputs the first b blocks
    read, for each b.  The tape holds g and dg, then one d2g output per pair
    ``pairs[h] <= pairs[a]`` of the sorted pairs (i, k), i <= k, in row-major
    order, then (on ``immersion_tape``) ``ddg``."""
    first, count = m * m + m**3, m * (m + 1) // 2
    pair = np.empty((m, m), dtype=int)
    i, k = np.triu_indices(m)
    pair[i, k] = pair[k, i] = np.arange(count)
    # the sorted pairs (i, k) and (j, l) of each d2g[i, j, k, l], and the
    # row-major position of (lo, hi) among the pairs of pairs with lo <= hi
    h, a = pair[:, None, :, None], pair[None, :, None, :]
    lo, hi = np.minimum(h, a), np.maximum(h, a)
    dg = m * m + np.arange(m**3).reshape(m, m, m)
    fill = (
        (np.arange(m * m).reshape(m, m), np.zeros((m, m), bool)),
        (dg, np.zeros((m, m, m), bool)),
        (dg.transpose(0, 2, 1), np.ones((m, m, m), bool)),  # dgb[b, i, j] = conj(dg[b, j, i])
        (first + lo * (2 * count - lo + 1) // 2 + hi - lo, h > a),
        (first + count * (count + 1) // 2 + np.arange(m**4).reshape(m, m, m, m), np.zeros((m,) * 4, bool)),
    )
    for index, conjugate in fill:
        index.flags.writeable = conjugate.flags.writeable = False
    return fill, tuple(accumulate((int(index.max()) + 1 for index, _ in fill), max))


@cache
def _reality_points(domain: ChartDomain, m: int) -> np.ndarray:
    """The reality check's 8 points, read-only: ``sample_point`` draws from ``default_rng(1811)``."""
    rng = np.random.default_rng(1811)
    points = np.array([domain.sample_point(rng, m) for _ in range(8)])
    points.flags.writeable = False
    return points


class KahlerManifold:
    """Chart of a Kähler manifold defined by a symbolic potential.

    The constructor reads the potential into one node table (``expr.Dag``),
    checks its variables there and its reality at 8 seeded points, drawn
    once per domain and dimension (``_reality_points``), and differentiates
    it once, in that table: ``g``, its first derivatives ``dg`` in the
    holomorphic variables, and the mixed second derivatives ``d2g``.  Each
    distinct mixed partial is built once, from its sorted indices, and every
    other index order of a block is that same node, so the blocks are
    exactly symmetric under their index swaps.

    K is real, so ``dgb[b, i, j] = conj(dg[b, j, i])`` and
    ``d2g[j, i, l, k] = conj(d2g[i, j, k, l])``.  ``tape`` evaluates, in
    this order, all of ``g``, all of ``dg``, and of each conjugate pair of
    ``d2g`` entries the one whose sorted holomorphic pair (i, k) is at most
    its sorted antiholomorphic pair (j, l).  A stack of points takes one
    run of the tape (``tape_values``); ``fill`` then gathers the blocks
    from the outputs and fills ``dgb`` and the other half of ``d2g`` by
    conjugation, at one point (``jets``) or once over a stack of points
    (``geometry.stack``).  A prefix of the tape yields the metric alone.
    Filled entries are exact conjugates and cannot show a non-real K: its
    reality rests on ``_check_reality`` and on the Hermiticity test of the
    whole ``g`` at each point (``hermitian_metric``).
    ``immersion_tape`` adds ``ddg`` for the immersion checks.  Both tapes
    are lowered from the same table on first use, so an immersion's ambient
    chart never lowers the ``tape`` it does not run; nothing else about an
    instance changes after construction.
    """

    def __init__(
        self,
        dimension: int,
        potential: Expr,
        domain: ChartDomain | None = None,
        name: str = "manifold",
    ):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.m = int(dimension)
        self.potential = potential
        self.domain = domain if domain is not None else ball(1.0)
        self.name = name
        self._variables = [(Var(Z, i + 1), Var(ZB, i + 1)) for i in range(self.m)]
        dag = ex.Dag()
        unfolded = dag.intern_id(potential)
        dag.check_variables(self.m, (Z, ZB))
        self._check_reality(dag.lower([unfolded]))

        m = self.m
        d = dag.derive
        zs, zbs = ([dag.intern_id(v) for v in kind] for kind in zip(*self._variables))
        K = dag.fold_id(unfolded)
        r = range(m)
        # Flat, row-major blocks; the derivatives of folded nodes come out
        # folded, so only the potential needs an explicit fold.  Mixed
        # partials commute, so each distinct one is built from its sorted
        # indices and every other index order shares that node.
        g = [d(d(K, zs[i]), zbs[j]) for i in r for j in r]
        dg = [d(g[min(a, i) * m + j], zs[max(a, i)]) for a in r for i in r for j in r]
        # d2g[i][j][k][l] = d_{z_i} d_{zb_j} g_{k lbar}, one root per sorted
        # holomorphic pair (i, k) <= sorted antiholomorphic pair (j, l).
        pairs = [(i, k) for i in r for k in r if i <= k]
        d2g = [d(dg[(i * m + k) * m + j], zbs[l]) for h, (i, k) in enumerate(pairs) for j, l in pairs[h:]]
        self._dag, self._roots, self._dg, self._zs = dag, g + dg + d2g, dg, zs
        self._fill, self._outputs = _conjugate_fill(m)

    @cached_property
    def tape(self) -> ex.Tape:
        """The chart's jet tape: ``g``, ``dg`` and half of ``d2g`` (see above)."""
        return self._dag.lower(self._roots)

    @cached_property
    def immersion_tape(self) -> ex.Tape:
        """``tape`` followed by ``ddg[a, i, j, l] = d_{z_a} d_{z_i} g_{j lbar}``,
        each entry built once from the sorted triple (a, i, j)."""
        m, r, dag = self.m, range(self.m), self._dag
        ddg = [
            dag.derive(self._dg[(x * m + y) * m + l], self._zs[w])
            for a in r for i in r for j in r for l in r for x, y, w in [sorted((a, i, j))]
        ]
        return dag.lower(self._roots + ddg)

    def _check_reality(self, potential: ex.Tape):
        """Raise unless the unfolded potential, lowered to ``potential``, is
        real at the 8 points of ``_reality_points`` (points where it raises are
        skipped), and raise the first error met if it raises at all of them.

        The points run as one stack; a run that raises drops the point its
        error names, and the rest run again."""
        points, first = _reality_points(self.domain, self.m), None
        while True:
            try:
                values = potential.run(self.assignment(points))[:, 0]
                break
            except ex.EvaluationDomainError as err:
                first = first or err
                if len(points) == 1:
                    raise first
                points = np.delete(points, err.index, axis=0)
        # fmax, as Python's max(1.0, |K|), reads a NaN modulus as 1
        unreal = np.abs(values.imag) > 1e-12 * np.fmax(1.0, np.abs(values))
        if unreal.any():
            k = first_index(unreal)
            raise ValueError(f"potential is not real on the chart: K({points[k]}) = {complex(values[k])}")

    def assignment(self, p: Sequence[complex]) -> dict[Var, np.ndarray]:
        """Evaluation assignment binding zb_k to the conjugate of z_k, at one
        point ``p`` of shape (m,) or at a stack of them along leading axes."""
        p = np.asarray(p, dtype=complex)
        a: dict[Var, np.ndarray] = {}
        for k, (z, zb) in enumerate(self._variables):
            a[z] = p[..., k]
            a[zb] = np.conj(p[..., k])
        return a

    def require_in_domain(self, p: Sequence[complex]) -> ChartPoint:
        """``p`` as a complex array, one point of shape (m,) or a stack of
        them, checked against the domain; the error names the first point
        outside it and carries its ``index``."""
        p = np.asarray(p, dtype=complex)
        if p.ndim not in (1, 2) or p.shape[-1] != self.m:
            raise DomainError(f"point has shape {p.shape}, expected ({self.m},)")
        outside = ~self.domain.contains(p)
        if outside.any():
            index = first_index(outside)
            raise DomainError(f"point {p[index]} outside chart domain {self.domain}", index)
        return p

    def sample_point(self, rng: np.random.Generator) -> ChartPoint:
        return self.domain.sample_point(rng, self.m)

    def tape_values(self, p: Sequence[complex], blocks: int = 4) -> np.ndarray:
        """The tape outputs that the first ``blocks`` of ``jets`` read at ``p``,
        one point or a stack along leading axes, from one run of the prefix
        of the tape that holds them (of ``immersion_tape`` for the fifth
        block), without validation."""
        tape = self.immersion_tape if blocks > 4 else self.tape
        return tape.run(self.assignment(p), self._outputs[blocks - 1])

    def fill(self, values: np.ndarray, blocks: int = 4) -> list[np.ndarray]:
        """The first ``blocks`` of ``(g, dg, dgb, d2g, ddg)`` from ``tape_values``
        stacked along any leading axes, each block with those axes first.

        Each block gathers its entries from the tape outputs through one
        index array.  The entries of ``dgb``, and of the half of ``d2g``
        that the tape leaves out, read their conjugate partner and are
        conjugated in place.
        """
        values = np.asarray(values, dtype=complex)
        jets = []
        for index, conjugate in self._fill[:blocks]:
            block = values[..., index]
            np.conjugate(block, out=block, where=conjugate)
            jets.append(block)
        return jets

    def jets(self, p: Sequence[complex], blocks: int = 4) -> list[np.ndarray]:
        """The first ``blocks`` of ``(g, dg, dgb, d2g, ddg)`` at ``p``, one point
        or a stack, without validation: ``fill`` of one ``tape_values`` run.

        Index order: ``g[i, j] = g_{i jbar}``, ``dg[a, i, j] = d_{z_a} g_{i jbar}``,
        ``dgb[b, i, j] = d_{zb_b} g_{i jbar}``,
        ``d2g[i, j, k, l] = d_{z_i} d_{zb_j} g_{k lbar}`` and
        ``ddg[a, i, j, l] = d_{z_a} d_{z_i} g_{j lbar}``.
        """
        return self.fill(self.tape_values(p, blocks), blocks)

    # Raw metric (no validation); used by metric_at and the finite-difference
    # oracle, which run only the g prefix of the tape.
    def metric_matrix(self, p: Sequence[complex]) -> np.ndarray:
        return self.jets(p, 1)[0]


# Pointwise tensors: one formula function each, over the jets at a point;
# ``p`` only names the point in error messages.


def hermitian_metric(p: ChartPoint, g: np.ndarray) -> HermitianMetric:
    """The metric matrix ``g`` at ``p`` checked finite and Hermitian positive
    definite, with inverse; here and below, a NaN fails every test.

    Points and matrices may stack along leading axes, one matrix per point.
    The tests run one after another over the stack, and the error names the
    first point that fails the first failing test, with that point's own
    message and ``index``.  A point before it may fail a later test: a run
    names the first failing point by running its points before that one
    again (``run_stages``).
    """
    largest = np.max(np.abs(g), axis=(-2, -1))  # inf or NaN where an entry is
    _raise_at_first(~np.isfinite(largest), p, "metric not finite", MetricError)
    gh = np.swapaxes(g, -1, -2).conj()
    hermitian = np.max(np.abs(g - gh), axis=(-2, -1)) <= 1e-12 * np.maximum(1.0, largest)
    _raise_at_first(~hermitian, p, "metric not Hermitian", MetricError)
    g = 0.5 * (g + gh)
    smallest = np.linalg.eigvalsh(g)[..., 0]
    _raise_at_first(
        ~(smallest > 0.0), p, "metric not positive definite", MetricError,
        lambda index: f": smallest eigenvalue {smallest[index]:.6e}",
    )
    inverse = np.linalg.inv(g)
    inverted = np.max(np.abs(g @ inverse - np.eye(g.shape[-1])), axis=(-2, -1)) <= 1e-10
    _raise_at_first(~inverted, p, "metric inversion failed", MetricError)
    return HermitianMetric(matrix=g, inverse=inverse)


def christoffel_symbols(metric: HermitianMetric, dg: np.ndarray) -> ChristoffelData:
    """``Gamma^k_{ij} = g^{k lbar} d_i g_{j lbar}``, symmetric in (i, j)."""
    # dg[i, j, l] = d_i g_{j lbar};  g^{k lbar} = inverse[l, k]
    gamma = np.einsum("...lk,...ijl->...kij", metric.inverse, dg)
    gamma = 0.5 * (gamma + np.swapaxes(gamma, -1, -2))
    return ChristoffelData(gamma=gamma)


def _curvature_terms(
    metric: HermitianMetric, jets: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The two terms ``d2g`` and ``quadratic`` whose difference
    ``quadratic - d2g`` is the curvature tensor."""
    _, dg, dgb, d2g = jets
    # R[i,j,k,l] = g^{p qbar} dg[i,k,q] dgb[j,p,l] - d2g[i,j,k,l], with the
    # quadratic term as rows (i,k) of dg g^-1 times columns (j,l) of dgb
    *points, m = dg.shape[:-2]
    rows = dg.reshape(*points, m * m, m) @ metric.inverse
    columns = np.swapaxes(dgb, -3, -2).reshape(*points, m, m * m)
    return d2g, np.swapaxes((rows @ columns).reshape(*points, m, m, m, m), -3, -2)


def curvature_tensor(
    p: ChartPoint, metric: HermitianMetric, jets: Sequence[np.ndarray]
) -> ComplexCurvature:
    """Curvature components ``R_{i jbar k lbar}`` from the four jet blocks at ``p``.

    Validates the Kähler symmetries (pair symmetry and conjugation symmetry)
    of the result before returning it; ``real_curvature`` and
    ``holomorphic_square`` rest on the conjugation symmetry, which B and
    R - B inherit from R, g and the Hermitian S.  On a chart's own jets both hold by
    construction, since ``dgb`` and half of ``d2g`` are filled by
    conjugation, except for the realness of the ``d2g`` entries that are
    their own conjugate partner (holomorphic pair = antiholomorphic pair);
    the check guards those and jets a caller supplies.  The reality of K
    itself rests on ``KahlerManifold._check_reality`` and on the
    Hermiticity test of ``hermitian_metric``.  Points, metrics and jets may
    stack along leading axes.  Jets whose ``dg``, ``dgb`` or ``d2g`` hold a
    value that is not finite fail first, before any product; as in
    ``hermitian_metric``, the error names the first point that fails the
    first failing test.
    """
    _, dg, dgb, d2g = jets
    finite = np.isfinite(dg).all(axis=(-3, -2, -1)) & np.isfinite(dgb).all(axis=(-3, -2, -1))
    finite &= np.isfinite(d2g).all(axis=(-4, -3, -2, -1))
    _raise_at_first(~finite, p, "metric derivatives not finite")
    _, quadratic = _curvature_terms(metric, jets)
    r = quadratic - d2g
    points = r.shape[:-4]

    def largest(t: np.ndarray) -> np.ndarray:
        return np.abs(t).reshape(*points, -1).max(axis=-1)

    # R is the difference of two terms that may cancel: its round-off scales with the larger.
    scale = np.maximum(1.0, np.maximum(largest(d2g), largest(quadratic)))
    pair = np.maximum(largest(r - np.swapaxes(r, -4, -2)), largest(r - np.swapaxes(r, -3, -1)))
    conj = largest(r - np.swapaxes(np.swapaxes(r, -4, -3), -2, -1).conj())
    _raise_at_first(~(np.maximum(pair, conj) <= 1e-10 * scale), p, "curvature symmetries violated")
    return ComplexCurvature(tensor=r)


def _raise_at_first(
    bad: np.ndarray,
    p: ChartPoint,
    what: str,
    error: type[GeometryError] = GeometryError,
    detail: Callable[[tuple], str] = lambda index: "",
) -> None:
    """Raise ``error`` for the first point of a stack where ``bad`` holds,
    naming it, then ``detail`` of its index, and carrying its leading-axis
    ``index``."""
    if np.count_nonzero(bad):
        index = first_index(bad)
        raise error(f"{what} at {np.asarray(p)[index]}{detail(index)}", index)


def first_index(bad: np.ndarray) -> tuple[int, ...]:
    """The leading-axis indices of the first point of a stack where ``bad``
    holds (() for one point)."""
    return tuple(map(int, np.unravel_index(np.argmax(bad), np.shape(bad))))


class ConfigError(ValueError):
    """The settings of a run are invalid."""


def require_counts(check: str | None, points: int, samples: int, how: str = "max") -> None:
    """The count rule of a run of ``check`` (of a suite when None),
    ``samples`` frames at each of ``points`` points, whose values reduce as
    ``how`` (``invariants.Check``): one of each at least, and two values to
    a "std" or a "spread", which is 0 on one value whatever the chart."""
    name = f"check {check!r}" if check else "suite"
    for what, count in (("points", points), ("samples", samples)):
        if count < 1:
            raise ConfigError(f"{name} needs {what} >= 1, got {count}")
    if {"std": samples, "spread": points * samples}.get(how, 2) < 2:
        what = "samples" if how == "std" else "points x samples"
        raise ConfigError(f"{name} needs {what} >= 2")


class StageError(Exception):
    """A run's first failing point (``run_stages``): its ``index`` and the
    ``stage`` that raised, "points" or "stack"; the original error is the cause."""

    def __init__(self, stage: str, index: int, err: Exception):
        super().__init__(f"point {index}: {err}")
        self.stage, self.index = stage, index


def run_stages(points: np.ndarray, evaluate: Callable, stack: Callable):
    """The two stages of a run on the stack ``points``: ``evaluate``, then
    ``stack`` on its result.  Every test of either raises with the ``index``
    of the first point that fails it, but an earlier point may fail a later
    test: so on an error at point k > 0 both stages run again on the points
    before k, and k is named, in a ``StageError``, only if they pass.  A
    failing re-run fails at an earlier point and in a later test (a tape's
    ops count as tests), so the re-runs are few."""
    stage = "points"
    try:
        found = evaluate(points)
        stage = "stack"
        return stack(found)
    except Exception as err:
        index = getattr(err, "index", None)
        if not index:
            raise
        if index[0]:
            run_stages(points[: index[0]], evaluate, stack)
        raise StageError(stage, index[0], err) from err


def ricci_tensor(
    p: ChartPoint, metric: HermitianMetric, curvature: ComplexCurvature, jets: Sequence[np.ndarray]
) -> RicciData:
    """Ricci tensor at ``p``, computed two ways and cross-checked.

    Route (a) contracts the curvature tensor with the inverse metric; route
    (b) uses the log-determinant identity through Jacobi's formula,
    ``S_{i jbar} = -tr(g^{-1} d_i d_jbar g) + tr(g^{-1} d_i g g^{-1} d_jbar g)``.
    The two must agree to 1e-8.  On a chart's own jets, route (b) reads
    ``dgb`` filled from ``dg`` by conjugation; the finite-difference oracle
    (``oracle.riemann_tensor_fd``) reads only the metric.  Points stack as in
    ``curvature_tensor``, and the error names the first point that fails.
    """
    ginv = metric.inverse
    s_contract = np.einsum("...li,...ijkl->...kj", ginv, curvature.tensor)

    _, dg, dgb, d2g = jets
    *points, m = ginv.shape[:-1]
    # Route (b) as one product per point each.  g^{a b} d_i d_jbar g_{b a}:
    # the rows (i, j) of d2g times g^-1 transposed, flattened.
    t1 = (d2g.reshape(*points, m * m, m * m) @ np.swapaxes(ginv, -1, -2).reshape(*points, m * m, 1)).reshape(ginv.shape)
    # g^{a b} d_i g_{b c} g^{c d} d_jbar g_{d a}: g^-1 d_i g as [a, i, c] and
    # g^-1 d_jbar g as [c, j, a], then their sum over (a, c), rows i by columns j.
    left, right = (
        (ginv @ np.swapaxes(d, -3, -2).reshape(*points, m, m * m)).reshape(*points, m, m, m) for d in (dg, dgb)
    )
    t2 = np.swapaxes(left, -3, -2).reshape(*points, m, m * m) @ np.moveaxis(right, -1, -3).reshape(*points, m * m, m)
    s_logdet = -t1 + t2

    def largest(t: np.ndarray) -> np.ndarray:
        return np.max(np.abs(t), axis=(-2, -1))

    # As in ``curvature_tensor``, round-off scales with the larger term of route (b).
    scale = np.maximum(1.0, np.maximum(largest(t1), largest(t2)))
    _raise_at_first(~(largest(s_contract - s_logdet) <= 1e-8 * scale), p, "Ricci computation routes disagree")
    s = 0.5 * (s_contract + np.swapaxes(s_contract, -1, -2).conj())
    return RicciData(matrix=s, metric=metric)


@dataclass(frozen=True, eq=False)
class PointData:
    """All pointwise tensors of one manifold at one chart point, or at a
    stack of points (``stack``).

    A stack puts its point axis first in every array field, and ``tau`` and
    ``term_scale`` hold one value per point; at one point they are floats.
    The formulas broadcast over that axis, so each point of a stack gets
    the values it would get alone, and the check values of ``invariants``
    give one value per point and frame.
    """

    manifold: KahlerManifold
    point: np.ndarray
    metric: HermitianMetric
    curvature: ComplexCurvature
    ricci: RicciData
    tau: float | np.ndarray
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
            return np.einsum("...ij,...kl->...ijkl", a, b) + np.einsum("...il,...kj->...ijkl", a, b)

        gg = dot(g, g)
        tensor = (
            self.curvature.tensor
            - (dot(g, s) + dot(s, g)) / (m + 2)
            + _per_point(self.tau, gg, 0) * gg / (2.0 * (m + 1) * (m + 2))
        )
        return ComplexCurvature(tensor=tensor)

    @cached_property
    def term_scale(self) -> float | np.ndarray:
        """Size in the metric of the larger of the two terms whose sum is R.

        Each term is written in a g-orthonormal frame and measured by its
        Frobenius norm, which bounds its holomorphic sectional curvature over
        unit vectors.  Where the terms cancel, as on a flat chart, the
        curvature is round-off of order machine epsilon times this size.
        """
        # c.T g conj(c) = 1 for g = L L^H
        c = np.swapaxes(np.linalg.inv(np.linalg.cholesky(self.metric.matrix)), -1, -2)
        points = c.shape[:-2]

        def frame_norm(t: np.ndarray) -> np.ndarray:
            # t[i, (j, k, l)] -> t[(j, k, l), a] -> t[j, (k, l, a)] ... -> t[(a, b, c), d]
            for f in (c, c.conj(), c, c.conj()):
                t = np.swapaxes(t.reshape(*points, self.m, -1), -1, -2) @ f
            # Each point's |Re t|^2 + |Im t|^2 as one (1, n) @ (n, 1) product:
            # the sum np.linalg.norm forms for one point, bit for bit.
            rows = t.reshape(*points, 1, -1)
            re, im = rows.real, rows.imag
            squares = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
            return np.sqrt(squares[..., 0, 0])

        return np.maximum(*(frame_norm(t) for t in _curvature_terms(self.metric, self.jets)))


def point_jets(manifold: KahlerManifold, p: Sequence[complex]) -> tuple[ChartPoint, np.ndarray]:
    """The first stage of a run: ``p``, one point or a stack of them,
    checked against the chart domain, and one run of the chart's jet tape
    over all of them (``KahlerManifold.tape_values``).  Gives ``p`` and the
    raw tape outputs, with the points' axis first.  An error of either
    carries the ``index`` of the first point where it rose."""
    p = manifold.require_in_domain(p)
    return p, manifold.tape_values(p)


def stack(manifold: KahlerManifold, evaluated: tuple[ChartPoint, np.ndarray]) -> PointData:
    """The second stage of a run: the ``point_jets`` result of one point or
    of a stack as one ``PointData``.  The jets are filled, and the metric
    test, curvature, Ricci and tau run, once for all the points; an error of
    their tests carries the ``index`` of the first point that fails the
    first failing test."""
    p, values = evaluated
    jets = manifold.fill(values)
    metric = hermitian_metric(p, jets[0])
    curvature = curvature_tensor(p, metric, jets)
    ricci = ricci_tensor(p, metric, curvature, jets)
    # 2 g^{i jbar} S_{i jbar}
    tau = 2.0 * np.trace(ricci.matrix @ metric.inverse, axis1=-2, axis2=-1).real
    return PointData(manifold, p, metric, curvature, ricci, tau, jets)


def point_data(manifold: KahlerManifold, p: Sequence[complex]) -> PointData:
    """Metric, curvature, Ricci and scalar curvature at ``p``: the two
    stages of a run at one point."""
    return stack(manifold, point_jets(manifold, p))


# One tensor at one point of a chart.  The metric runs only the tape prefix
# it reads; the curvature reads ``point_data``, whose fields hold the rest.


def metric_at(manifold: KahlerManifold, p: Sequence[complex]) -> HermitianMetric:
    """Hermitian positive-definite metric at ``p``, with inverse."""
    p = manifold.require_in_domain(p)
    return hermitian_metric(p, manifold.metric_matrix(p))


def curvature_at(manifold: KahlerManifold, p: Sequence[complex]) -> ComplexCurvature:
    return point_data(manifold, p).curvature


def real_curvature(
    curvature: ComplexCurvature,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """R(X, Y, Z, U) as a real quadrilinear form, one value per stacked vector.

    ``curvature`` must have the conjugation symmetry ``conj(R_{i jbar k lbar})
    = R_{j ibar l kbar}``: then the rows of (X, Y) are anti-Hermitian, and
    the value is ``2 Re sum rows_{kl} z^k conj(u^l)`` (module docstring).
    """
    return 2.0 * _pair(_curvature_rows(curvature, _wedge(x, y)), z.components, u.components).real


def holomorphic_square(curvature: ComplexCurvature, x: RealTangentVector) -> float:
    """``R(X, JX, JX, X) = 4 sum R_{i jbar k lbar} x^i conj(x^j) x^k conj(x^l)``,
    one value per stacked vector: a real quadratic form ``h^T F h`` of R at
    the vector's point, on the m^2 real coordinates h of the Hermitian
    square ``x x^H`` (``_square_basis``).  ``curvature`` needs the symmetry
    that ``real_curvature`` needs."""
    t, v = curvature.tensor, np.asarray(x.components)
    points, m = t.shape[:-4], t.shape[-1]
    i, j, basis = _square_basis(m)
    # F = 4 Re(T^T R T), with R as an (m^2, m^2) matrix and vec(x x^H) = T h
    form = 4.0 * (basis.T @ t.reshape(*points, m * m, m * m) @ basis).real
    # h component-major: the vectors of each point run along the last axis
    v_t = np.swapaxes(v.reshape(*points, -1, m), -1, -2)
    square = v_t[..., i, :] * np.conj(v_t[..., j, :])
    h = np.concatenate([square.real, square.imag[..., i < j, :]], axis=-2)
    return np.einsum("...pn,...pn->...n", form @ h, h).reshape(v.shape[:-1])


@cache
def _square_basis(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index pairs (i, j), i <= j, whose entries of a Hermitian ``x x^H``
    give its m^2 real coordinates h (the real parts of all of them, then the
    imaginary parts of those with i < j), and the complex ``(m^2, m^2)``
    matrix T with ``vec(x x^H) = T h``."""
    i, j = np.triu_indices(m)
    re, im, strict = np.arange(len(i)), np.arange(len(i), m * m), i < j
    t = np.zeros((m * m, m * m), dtype=complex)
    t[i * m + j, re] = t[j * m + i, re] = 1.0
    t[(i * m + j)[strict], im] = 1j
    t[(j * m + i)[strict], im] = -1j
    for cached in (i, j, t):
        cached.flags.writeable = False
    return i, j, t


def _pair(rows: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sum_kl rows_{kl} z^k conj(u^l)``, broadcasting the leading axes."""
    return np.einsum("...k,...k->...", np.einsum("...kl,...l->...k", rows, np.conj(u)), z)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^i conj(b^j)``, stacked like ``a`` and ``b``."""
    return np.einsum("...i,...j->...ij", a, np.conj(b))


def _wedge(x: RealTangentVector, y: RealTangentVector) -> np.ndarray:
    """``x^i conj(y^j) - y^i conj(x^j)``, stacked like ``x`` and ``y``."""
    w = _outer(x.components, y.components)
    w -= np.conj(np.swapaxes(w, -1, -2))
    return w


def _curvature_rows(curvature: ComplexCurvature, w: np.ndarray) -> np.ndarray:
    """``sum_ij w^{ij} R_{i jbar k lbar}`` for a stack of ``(m, m)`` matrices
    ``w``, as ``(m, m)`` matrices over (k, l): one product with R as an
    ``(m^2, m^2)`` matrix."""
    t = curvature.tensor
    m = t.shape[-1]
    rows = _rows(w.reshape(*w.shape[:-2], m * m), t.reshape(*t.shape[:-4], m * m, m * m))
    return rows.reshape(w.shape)


def curvature_operator(
    curvature: ComplexCurvature,
    metric: HermitianMetric,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
) -> np.ndarray:
    """Complex representative of the vector R(X, Y)Z.

    Defined by ``g(R(X,Y)Z, U) = R(X,Y,Z,U)`` for every U, so the index is
    raised by ``metric.inverse``: one product per point over all its
    vectors.  Vectors stack and broadcast as in ``real_curvature``, with
    the point axes of a stacked metric first.
    """
    rows = _curvature_rows(curvature, _wedge(x, y))
    return _rows((z.components[..., None, :] @ rows)[..., 0, :], metric.inverse)


_PIVOT = 1e-8


def _gaussian(rng: np.random.Generator, size: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian seeds of shape ``size``, all real parts drawn first,
    written into one complex array: the bits of ``rng.standard_normal(size=size)
    + 1j * rng.standard_normal(size=size)``, which are those of ``normal``."""
    seeds = np.empty(size, dtype=complex)
    seeds.real = rng.standard_normal(size=size)
    seeds.imag = rng.standard_normal(size=size)
    return seeds


def _frame_error(todo: np.ndarray, what: str) -> FrameError:
    """A ``FrameError`` carrying the point axes of the first frame still to draw."""
    return FrameError(what, tuple(map(int, np.argwhere(todo)[0][:-1])))


def first_draw(
    rng: np.random.Generator, points: tuple[int, ...], count: int, k: int, m: int, at_once: bool = False
) -> np.ndarray:
    """The first draw of ``unit_tangents`` and ``antiholomorphic_frames``:
    the ``(*points, count, k, m)`` Gaussian seeds of ``count`` frames of k
    legs at each point of the point axes ``points`` in complex dimension m,
    from one flat ``(points * count, k, m)`` ``_gaussian`` call.  A sampler
    given it as ``first`` gives the bits of the same call that draws it.

    ``at_once`` draws the same bits in one ``standard_normal`` call, since
    the real parts and then the imaginary parts are one stream.  A helper
    thread draws so: each numpy call it makes takes the GIL back once."""
    size = (math.prod(points) * count, k, m)
    if at_once:
        seeds = np.moveaxis(rng.standard_normal(size=(2, *size)), 0, -1).copy().view(complex)[..., 0]
    else:
        seeds = _gaussian(rng, size)
    return seeds.reshape(*points, count, k, m)


def unit_tangents(
    metric: HermitianMetric, count: int, k: int, rng: np.random.Generator, first: np.ndarray | None = None
) -> np.ndarray:
    """``(count, k, m)`` random g-unit tangent vectors (complex Gaussian
    directions, real parts drawn first).  One whose g-norm is at most
    ``1e-6 sqrt(max |g|)`` times its length is redrawn alone, 64 draws at most.

    A metric with leading point axes gives ``(*points, count, k, m)``: one
    draw for every point, each vector unit in its own point's metric.
    ``first``, if given, is the ``first_draw`` already made from ``rng``, and
    the sampler writes into it; any redraw still comes from ``rng``, after it.
    """
    points, m = metric.matrix.shape[:-2], metric.matrix.shape[-1]
    floor = 1e-6 * np.sqrt(np.max(np.abs(metric.matrix), axis=(-2, -1)))
    v = first_draw(rng, points, count, k, m) if first is None else first
    n = metric.norm(RealTangentVector(v))
    draws, w = 1, v.view(float)  # w: the real and imaginary parts, interleaved
    while (small := n <= _per_point(floor, n, 0) * np.sqrt(np.einsum("...i,...i->...", w, w))).any():
        if (draws := draws + 1) > 64:
            raise _frame_error(small.any(axis=-1), "failed to draw a nonzero tangent vector")
        v[small] = _gaussian(rng, (int(small.sum()), m))
        n[small] = metric.norm(RealTangentVector(v))[small]
    v /= n[..., None]
    return v


def antiholomorphic_frames(
    metric: HermitianMetric, count: int, k: int, rng: np.random.Generator, first: np.ndarray | None = None
) -> np.ndarray:
    """``(count, k, m)`` frames with ``g(x_a, x_b) = delta_ab`` and ``g(x_a, J x_b) = 0``.

    Equivalently ``h(v_a, v_b) = delta_ab / 2``.  Complex Gaussian seeds are
    whitened by the Cholesky factor of g and go through Gram-Schmidt over h,
    all frames of a draw at once.  Only frames with a pivot at most ``_PIVOT``
    times the length of its row are redrawn, 64 draws at most.  A metric
    with leading point axes gives ``(*points, count, k, m)``, and ``first``
    stands for the first draw, as in ``unit_tangents``.
    """
    points, m = metric.matrix.shape[:-2], metric.matrix.shape[-1]
    if k > m:
        raise FrameError(
            f"no antiholomorphic {k}-plane exists: k={k} exceeds complex dimension {m}"
        )
    # h(v, w) is the standard product of v L and w L, for g = L L^H.
    lower = np.linalg.cholesky(metric.matrix)
    back = np.linalg.inv(lower) / math.sqrt(2.0)
    seeds = first_draw(rng, points, count, k, m) if first is None else first
    q, ok = _gram_schmidt(_rows(seeds, lower))
    frames, todo, draws = _rows(q, back), ~ok, 1
    while todo.any():
        if (draws := draws + 1) > 64:
            raise _frame_error(todo, "failed to draw an independent frame")
        # A redraw whitens and orthonormalizes the whole stack again, and
        # keeps only the frames it redrew.
        seeds[todo] = _gaussian(rng, (int(todo.sum()), k, m))
        q, ok = _gram_schmidt(_rows(seeds, lower))
        new = todo & ok
        frames[new] = _rows(q, back)[new]
        todo &= ~ok
    return frames


def _gram_schmidt(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of each ``(k, m)`` matrix of ``w`` made orthonormal in order, in
    the standard product, and whether every pivot exceeds ``_PIVOT`` times
    its row's length.

    Classical Gram-Schmidt with one repeat of the projection, which keeps
    the rows orthogonal to round-off.  A smaller pivot (NaN too) fails its
    matrix and leaves its row undivided: a zero pivot gives a zero row, not NaN.
    It runs component-major, on a ``(k, m, *stack)`` copy of ``w``, so each
    step is a pass over the whole stack, and gives ``q`` as a ``(*stack, k,
    m)`` view of that layout.
    """
    w = np.ascontiguousarray(np.moveaxis(w, (-2, -1), (0, 1)))
    q, conj = np.empty_like(w), np.empty_like(w)  # each finished row, and its conjugate
    ok = np.ones(w.shape[2:], dtype=bool)
    floor = _PIVOT * _length(w, axis=1)
    for a in range(len(w)):
        v, done = w[a], q[:a]
        for _ in range(2 if a else 0):  # the first row has nothing to project out
            v = v - (np.sum(conj[:a] * v, axis=1)[:, None] * done).sum(axis=0)
        pivot = _length(v, axis=0)
        ok &= (good := pivot > floor[a])
        np.divide(v, np.where(good, pivot, 1.0), out=q[a])
        np.conjugate(q[a], out=conj[a])
    return np.moveaxis(q, (0, 1), (-2, -1)), ok


def _length(v: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean length of complex vectors whose components run along ``axis``."""
    return np.sqrt(np.sum(v.real**2 + v.imag**2, axis=axis))


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
