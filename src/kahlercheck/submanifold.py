"""Immersed submanifolds: induced metric, second fundamental form, mean
curvature, umbilicity, Codazzi residuals and parallelism checks.

An immersion maps a real n-dimensional parameter box into a manifold chart;
its components are symbolic expressions in the real parameters ``u_1..u_n``
(complex constants allowed).  First and second parameter derivatives of the
immersion are symbolic up to third order, and one run of the immersion's
tape gives f, df, d2f and d3f at a parameter point.  The derivatives of
derived fields along the submanifold (second fundamental form, mean
curvature) are closed forms in these jets and in the ambient metric jets up
to ``ddg``, so they are exact to round-off and need no room around the point.

Projections onto tangent and normal spaces are orthogonal projections with
respect to the ambient metric and never require a choice of normal frame.
They act on vectors stacked along the last axis, all the vectors of a point
in one matrix product, and the Codazzi residuals of all index triples at a
point come back as one (n, n, n) array.

A state is made in two stages.  ``point_jets`` runs once over the stack of
a run's parameter points: the box test, one run of the immersion's tape
with the test that f(u) lies in the ambient chart domain, and one run of
the ambient ``immersion_tape`` at f(u).  ``stack`` runs the metric test,
the finiteness test of the other jets and the rank test of the differential
once over its result, giving one ``_State`` with a leading point axis;
``state`` runs the same two stages at one point, with no leading axis.
Every test raises with the ``index`` of the first point that fails it;
``run_points`` names a run's first failing point (``geometry.run_stages``).
The derived fields (connection, second fundamental form, mean curvature
and their derivatives) are computed once, on first use, by formulas that
broadcast over leading axes, so a stack derives each field once for all
its points, and per point exactly as a state of that point alone would.  The residuals of the
immersion checks give one value per point of a state; ``invariants.CHECKS``
names them beside the manifold checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import expr as ex
from . import geometry as geo
from .expr import Expr, Var, U
from .geometry import DomainError, HermitianMetric, KahlerManifold, RealTangentVector


class RankError(geo.GeometryError):
    """Immersion differential is rank deficient at the requested point."""


class ParameterDomainError(Exception):
    """Parameter point of the wrong shape or outside the box.  ``index`` is
    the leading-axis index of the first point outside (None for a shape error)."""

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


_SAMPLE_MARGIN = 0.05


@dataclass(frozen=True)
class ParameterBox:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not all(
            -math.inf < l < h < math.inf for l, h in zip(self.lo, self.hi)
        ):
            raise ValueError("parameter box bounds must be finite with lo < hi componentwise")

    @property
    def n(self) -> int:
        return len(self.lo)

    def contains(self, u: Sequence[float]) -> np.ndarray:
        """Whether each point of ``u``, one or a stack along leading axes, is inside."""
        u = np.asarray(u, dtype=float)
        return np.all((u >= np.asarray(self.lo) - 1e-12) & (u <= np.asarray(self.hi) + 1e-12), axis=-1)

    def sample(self, rng: np.random.Generator, points: int | None = None) -> np.ndarray:
        """Uniform draw from the box shrunk by ``_SAMPLE_MARGIN`` of each side:
        one point, shape (n,), or ``points`` of them from one call, shape
        (points, n), equal bit for bit to ``points`` one-point draws in turn."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        pad = _SAMPLE_MARGIN * (hi - lo)
        return lo + pad + (hi - lo - 2 * pad) * rng.random(self.n if points is None else (points, self.n))


def box(*bounds: float) -> ParameterBox:
    """Build a box from interleaved bounds lo1 hi1 lo2 hi2 ..."""
    if len(bounds) % 2:
        raise ValueError("need an even number of bounds")
    return ParameterBox(tuple(bounds[0::2]), tuple(bounds[1::2]))


class Immersion:
    """Parametric map from a real parameter box into a manifold chart.

    One tape gives ``f`` and its first three derivatives; each distinct
    partial is built once, from its sorted parameter indices, so ``d2f`` and
    ``d3f`` are exactly symmetric in them.
    """

    def __init__(
        self,
        ambient: KahlerManifold,
        parameters: int,
        components: Sequence[Expr],
        domain: ParameterBox,
        name: str = "immersion",
    ):
        if parameters < 1:
            raise ValueError("parameter dimension must be positive")
        if len(components) != ambient.m:
            raise ValueError(
                f"need {ambient.m} component expressions, got {len(components)}"
            )
        if domain.n != parameters:
            raise ValueError("parameter box dimension mismatch")
        self.ambient = ambient
        self.n = int(parameters)
        self.components = tuple(components)
        self.domain = domain
        self.name = name
        self._variables = [Var(U, a + 1) for a in range(self.n)]

        dag = ex.Dag()
        m, n = ambient.m, self.n
        unfolded = [dag.intern_id(c) for c in components]
        dag.check_variables(n, (U,))
        us = [dag.intern_id(v) for v in self._variables]
        f = []
        for k, c in enumerate(unfolded):  # in order; an error carries the index of the first that fails
            try:
                f.append(dag.fold_id(c))
            except ex.ExprError as err:
                err.component = k
                raise
        df = [dag.derive(f[i], us[a]) for a in range(n) for i in range(m)]
        r = range(n)
        # Partials commute: each distinct one is built from its sorted indices.
        d2f = [dag.derive(df[min(a, b) * m + i], us[max(a, b)]) for a in r for b in r for i in range(m)]

        d3f = [
            dag.derive(d2f[(s * n + t) * m + i], us[w])
            for x in r for a in r for b in r for i in range(m) for s, t, w in [sorted((x, a, b))]
        ]
        # One tape for f, df, d2f and d3f in that order; ``jets`` runs a prefix of it.
        self.tape = dag.lower(f + df + d2f + d3f)
        self._jets = geo.jet_layout(((m,), (n, m), (n, n, m), (n, n, n, m)))

    def assignment(self, u: Sequence[float]) -> dict[Var, np.ndarray]:
        """Evaluation assignment at one parameter point ``u`` of shape (n,),
        or at a stack of them along leading axes."""
        u = np.asarray(u, dtype=float)
        return {v: u[..., a].astype(complex) for a, v in enumerate(self._variables)}

    def require_in_box(self, u: Sequence[float]) -> np.ndarray:
        """``u``, one parameter point of shape (n,) or a stack of them,
        checked against the box; the error names the first point outside."""
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ParameterDomainError(
                f"parameter point has shape {u.shape}, expected ({self.n},)"
            )
        outside = ~self.domain.contains(u)
        if outside.any():
            index = geo.first_index(outside)
            raise ParameterDomainError(f"parameter point {u[index]} outside the box", index)
        return u

    def jets(self, u: Sequence[float], blocks: int = 4) -> list[np.ndarray]:
        """The first ``blocks`` of ``(f, df, d2f, d3f)`` at ``u``, one point or
        a stack along leading axes, from one tape run.

        ``f`` has shape (m,) and is checked against the ambient chart domain,
        the error naming the first point that leaves it; ``df[a] = df/du_a``
        has shape (n, m), ``d2f[a, b]`` shape (n, n, m) and
        ``d3f[x, a, b] = d/du_x d2f[a, b]`` shape (n, n, n, m), each after
        the leading axes of ``u``.
        """
        u = np.asarray(u)
        jets = geo.run_jets(self.tape, self.assignment(u), self._jets[:blocks])
        outside = ~self.ambient.domain.contains(jets[0])
        if outside.any():
            index = geo.first_index(outside)
            raise DomainError(f"immersion leaves the ambient chart domain at u={u[index]}", index)
        return jets

    def value(self, u: Sequence[float]) -> np.ndarray:
        """Chart coordinates f(u); checked against the ambient chart domain."""
        return self.jets(u, 1)[0]


@dataclass(frozen=True, eq=False)
class _State:
    """Parameter points of an immersion: their jets, and the fields derived
    from them once.

    ``state`` gives one point, with no leading axis; ``stack`` gives the
    points of a run, every array with a leading point axis.  The fields
    below are written for one point and broadcast over that axis, so both
    run the same code.
    """

    imm: Immersion
    u: np.ndarray
    point: np.ndarray
    metric: HermitianMetric
    tangents: np.ndarray  # (n, m) complex rows
    d2f: np.ndarray  # (n, n, m) second parameter derivatives
    d3f: np.ndarray  # (n, n, n, m) third parameter derivatives
    jets: list[np.ndarray]  # ambient (g, dg, dgb, d2g, ddg) at the point

    @cached_property
    def induced(self) -> np.ndarray:
        """Induced metric ``ghat_ab = g(T_a, T_b)``, shape (n, n), real."""
        v = self.tangents
        ghat = 2.0 * np.real(v @ self.metric.matrix @ np.swapaxes(v.conj(), -1, -2))
        return 0.5 * (ghat + np.swapaxes(ghat, -1, -2))

    @cached_property
    def induced_inv(self) -> np.ndarray:
        return np.linalg.inv(self.induced)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Ambient Christoffel symbols, shape (m, m, m)."""
        return geo.christoffel_symbols(self.metric, self.jets[1]).gamma

    @cached_property
    def gamma_t(self) -> np.ndarray:
        """``Gamma^k_{ij} T_b^j``, index order [i, b, k], shape (m, n, m): as an
        (m, n m) matrix it maps a vector v to ``Gamma(v, T_b)`` for every b
        (see ``_with_tangents``), which is also ``Gamma(T_b, v)`` since
        Gamma is symmetric in (i, j)."""
        return np.einsum("...kij,...bj->...ibk", self.gamma, self.tangents)

    @cached_property
    def gamma_tt(self) -> np.ndarray:
        """``Gamma(T_a, T_b)``, shape (n, n, m)."""
        return _with_tangents(self, self.tangents)

    @cached_property
    def nabla(self) -> np.ndarray:
        """Ambient covariant derivatives ``nabla_{T_a} T_b``, shape (n, n, m)."""
        return self.d2f + self.gamma_tt

    @cached_property
    def conn(self) -> np.ndarray:
        """Induced connection: ``conn[a, b, e]`` is the coefficient of ``T_e``
        in the tangential part of ``nabla_{T_a} T_b``, shape (n, n, n)."""
        return _tangential_coeffs(self, self.nabla)

    @cached_property
    def alpha(self) -> np.ndarray:
        """Second fundamental form ``alpha(T_a, T_b)``, the normal part of
        ``nabla``; symmetric in (a, b), shape (n, n, m)."""
        return self.nabla - geo._rows(self.conn, self.tangents)

    @cached_property
    def h(self) -> np.ndarray:
        """Mean curvature ``H = (1/n) ghat^{ab} alpha(a, b)``, shape (m,)."""
        return np.einsum("...ab,...abk->...k", self.induced_inv, self.alpha) / self.imm.n

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Normal parts of ``D_x alpha(T_y, T_z)``, shape (n, n, n, m), and
        ``D_x H``, shape (n, m), for every direction x, in closed form.

        With ``w_yz = nabla_{T_y} T_z`` and ``conn`` its tangential coefficients,
        ``P D_x alpha_yz = P[d_x w_yz + Gamma(T_x, alpha_yz) - conn_yza d2f_xa]``
        for the normal projection P, since ``P T_a = 0`` and ``P (d_x P) P = 0``;
        ``d_x w_yz`` differentiates d2f and the ambient Christoffel symbols
        along ``T_x``.  Metric compatibility gives ``d_x ghat``, and so D_x H.
        """
        _, dg, dgb, d2g, ddg = self.jets
        t, d2f, alpha, conn = self.tangents, self.d2f, self.alpha, self.conn
        points, (n, m) = t.shape[:-2], t.shape[-2:]
        # Along T_x, d_x = T_x^a d_{z_a} + conj(T_x^a) d_{zb_a}, and
        # (d_x Gamma)(T_y, T_z) = g^-1 [(d_x dg)(T_y, T_z) - (d_x g) Gamma(T_y, T_z)]
        # from d Gamma = g^-1 (d dg - (d g) Gamma).  The rows (z_a, zb_a) of the
        # metric's second and first derivatives meet T_x in one product per
        # point, then [T_y^i T_z^j, -Gamma(T_y, T_z)] in one per direction x.
        tx = np.concatenate([t, t.conj()], axis=-1)
        second = np.concatenate([ddg, np.swapaxes(d2g, -4, -3)], axis=-4).reshape(*points, 2 * m, m * m, m)
        rows = np.concatenate([second, np.concatenate([dg, dgb], axis=-3)], axis=-2)
        d_x = (tx @ rows.reshape(*points, 2 * m, -1)).reshape(*points, n, m * m + m, m)
        tt = (t[..., :, None, :, None] * t[..., None, :, None, :]).reshape(*points, n * n, m * m)
        pairs = np.concatenate([tt, -self.gamma_tt.reshape(*points, n * n, m)], axis=-1)
        gamma_x = geo._rows(pairs[..., None, :, :] @ d_x, self.metric.inverse).reshape(*points, n, n, n, m)
        # Gamma(d2f_xy, T_z), and Gamma(T_y, d2f_xz) by the symmetry of Gamma
        gamma_d2f = _with_tangents(self, d2f)
        # Gamma(T_x, alpha_yz) and conn_yza d2f_xa in index order [y, z, x, k]; d2f
        # is exactly symmetric in (x, a), so its rows a are the (n, n m) matrix d2f.
        conn_d2f = geo._rows(conn, d2f.reshape(*points, n, n * m)).reshape(*points, n, n, n, m)
        d_alpha = _normal_part(
            self,
            self.d3f
            + gamma_x
            + gamma_d2f
            + np.swapaxes(gamma_d2f, -3, -2)
            + np.moveaxis(_with_tangents(self, alpha), -2, -4)
            - np.moveaxis(conn_d2f, -2, -4),
        )
        d_ghat = geo._rows(conn, self.induced)
        d_ghat = d_ghat + np.swapaxes(d_ghat, -1, -2)
        inv = geo._per_point(self.induced_inv, d_ghat)
        d_ghat_inv = -inv @ d_ghat @ inv
        d_h = d_ghat_inv.reshape(*points, n, n * n) @ alpha.reshape(*points, n * n, m)
        d_h = d_h + np.einsum("...yz,...xyzk->...xk", self.induced_inv, d_alpha)
        return d_alpha, d_h / self.imm.n

    @cached_property
    def umbilical(self) -> np.ndarray:
        """The umbilical residual ``max_ab || alpha(a,b) - ghat_ab H ||``."""
        residual = RealTangentVector(self.alpha - self.induced[..., None] * self.h[..., None, None, :])
        return np.max(self.metric.norm(residual), axis=(-2, -1), initial=0.0)

    @cached_property
    def codazzi_lhs(self) -> np.ndarray:
        """Normal components of R(T_a, T_b) T_c in the ambient manifold, shape (n, n, n, m)."""
        curv = geo.curvature_tensor(self.point, self.metric, self.jets[:4])
        x, y, z = (RealTangentVector(np.expand_dims(self.tangents, a)) for a in ((-3, -2), (-4, -2), (-4, -3)))
        return _normal_part(self, geo.curvature_operator(curv, self.metric, x, y, z))


_RANK_TOL = 1e-8


def point_jets(imm: Immersion, u: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The first stage of a state: ``u``, one parameter point or a stack of
    them, checked against the box, one run of the immersion's tape over all
    of them with the test that f(u) lies in the ambient chart domain, and
    one run of the ambient ``immersion_tape`` at f(u).  Each error carries
    the ``index`` of the first point where it rose.

    Gives ``u``, the immersion jets ``(f, df, d2f, d3f)`` and the ambient
    jets ``(g, dg, dgb, d2g, ddg)`` as one flat tuple, the points' axis
    first in each.
    """
    u = imm.require_in_box(u)
    jets = imm.jets(u)
    return (u, *jets, *imm.ambient.jets(jets[0], 5))


def _require_rank(u: np.ndarray, tangents: np.ndarray) -> None:
    """Raise a ``RankError`` carrying the ``index`` of the first point, of
    one or of a stack, whose real differential has a singular value below
    ``_RANK_TOL``; a differential with a non-finite entry fails too."""
    jac = np.swapaxes(tangents, -1, -2)
    jac = np.concatenate([jac.real, jac.imag], axis=-2)  # (2m, n) per point
    # numpy's SVD raises for the whole stack on a NaN anywhere in it, naming no point
    finite = np.all(np.isfinite(jac), axis=(-2, -1))
    singular = np.linalg.svd(np.where(finite[..., None, None], jac, 0.0), compute_uv=False)
    smallest = np.where(finite, singular[..., -1], np.nan)
    bad = ~(smallest >= _RANK_TOL)
    if np.any(bad):
        index = geo.first_index(bad)
        raise RankError(
            f"immersion differential rank deficient at u={u[index]}: "
            f"smallest singular value {smallest[index]:.3e}",
            index,
        )


def stack(imm: Immersion, evaluated: tuple[np.ndarray, ...]) -> _State:
    """The second stage of a state: the ``point_jets`` result of one point
    or of a stack as one state.  The metric test, the finiteness test of
    every other jet the fields read, then the rank test run once for all the
    points; an error of a test, or of the ambient curvature, carries the
    ``index`` of the first point that fails the first failing test."""
    u, point, tangents, d2f, d3f, *jets = evaluated
    metric = geo.hermitian_metric(point, jets[0])
    # A jet that is not finite would turn the fields NaN without an error;
    # one pass over the blocks of every point tests them all.
    flat = [b.reshape(*u.shape[:-1], -1) for b in (d2f, d3f, *jets[1:])]
    finite = np.isfinite(np.concatenate(flat, axis=-1))
    own = flat[0].shape[-1] + flat[1].shape[-1]
    geo._raise_at_first(~finite[..., own:].all(axis=-1), point, "metric derivatives not finite")
    geo._raise_at_first(~finite[..., :own].all(axis=-1), u, "immersion derivatives not finite")
    _require_rank(u, tangents)
    return _State(imm, u, point, metric, tangents, d2f, d3f, jets)


def state(imm: Immersion, u: Sequence[float]) -> _State:
    """The state of ``imm`` at ``u``: the two stages of a run at one point.

    Everything here can fail at a point, so the caller names the point; the
    fields derived from the state cannot, apart from the ambient curvature's
    symmetry test.
    """
    return stack(imm, point_jets(imm, u))


def run_points(imm: Immersion, points: int, rng: np.random.Generator) -> _State:
    """The points stage of a run: ``points`` parameter points drawn in one
    call of ``rng``, through the two stages of ``geometry.run_stages``."""
    return geo.run_stages(imm.domain.sample(rng, points), partial(point_jets, imm), partial(stack, imm))


def _tangential_coeffs(st: _State, w: np.ndarray) -> np.ndarray:
    """Real coefficients c[..., a] with tangential part of W equal to
    sum_a c[..., a] T_a, for vectors W stacked along the last axis, after
    the point axes of ``st``: all the vectors of a point as one (N, m)
    matrix in each product."""
    tg = np.swapaxes(st.tangents @ st.metric.matrix, -1, -2)
    rhs = 2.0 * np.real(geo._rows(np.conj(w), tg))
    return geo._rows(rhs, np.swapaxes(st.induced_inv, -1, -2))


def _with_tangents(st: _State, v: np.ndarray) -> np.ndarray:
    """``Gamma(v, T_b)`` for every b, for vectors v stacked along the last
    axis after the point axes of ``st``, shape (..., n, m): one product
    per point."""
    gt = st.gamma_t
    m, n = gt.shape[-3:-1]
    return geo._rows(v, gt.reshape(*gt.shape[:-3], m, n * m)).reshape(*np.shape(v)[:-1], n, m)


def _normal_part(st: _State, w: np.ndarray) -> np.ndarray:
    return w - geo._rows(_tangential_coeffs(st, w), st.tangents)


def second_fundamental_form(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """alpha(T_a, T_b) as complex representatives, shape (n, n, m).

    Normal projection of the ambient covariant derivative of the coordinate
    tangent fields; symmetric in (a, b), values g-orthogonal to all tangents.
    """
    return state(imm, u).alpha


def mean_curvature(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """H = (1/n) ghat^{ab} alpha(a, b), a normal vector representative."""
    return state(imm, u).h


def umbilical_residual(imm: Immersion, u: Sequence[float]) -> float:
    """max_ab || alpha(a,b) - ghat_ab H || in the ambient metric."""
    return float(state(imm, u).umbilical)


# The residuals below take a state of one point or of a stack of points,
# and give their values per point.


def _codazzi_general(st: _State) -> np.ndarray:
    """The Codazzi residual of every index triple (a, b, c) at ``st``, shape (n, n, n)."""
    # The term alpha(nabla_{T_x} T_y, T_z) is symmetric in (x, y) and cancels below;
    # alpha(T_y, nabla_{T_x} T_z) = conn_xze alpha_ye is one product per point,
    # with the rows e of alpha, in index order [x, z, y, k].
    d_alpha = st.derivatives[0]
    n, m = st.alpha.shape[-2:]
    alpha_rows = np.swapaxes(st.alpha, -3, -2).reshape(*st.alpha.shape[:-3], n, n * m)
    dbar = d_alpha - np.swapaxes(geo._rows(st.conn, alpha_rows).reshape(d_alpha.shape), -3, -2)
    rhs = dbar - np.swapaxes(dbar, -4, -3)
    return st.metric.norm(RealTangentVector(st.codazzi_lhs - rhs))


def _codazzi_umbilical(st: _State) -> np.ndarray:
    """The reduced Codazzi residual of every index triple at ``st``, shape (n, n, n),
    raised to the umbilical residual where that is larger: the reduced relation
    follows from Codazzi only on a totally umbilical immersion."""
    # rhs[a, b, c] = ghat_bc D_a H - ghat_ac D_b H
    rhs = st.induced[..., None, :, :, None] * st.derivatives[1][..., :, None, None, :]
    rhs = rhs - np.swapaxes(rhs, -4, -3)
    reduced = st.metric.norm(RealTangentVector(st.codazzi_lhs - rhs))
    return np.maximum(reduced, st.umbilical[..., None, None, None])


def _worst_triple(residuals: np.ndarray) -> np.ndarray:
    """The largest residual over the index triples (a, b, c) with a < b."""
    a, b = np.triu_indices(residuals.shape[-1], 1)
    return np.max(residuals[..., a, b, :], axis=(-2, -1), initial=0.0)


def codazzi_residual_general(imm: Immersion, u: Sequence[float], a: int, b: int, c: int) -> float:
    """Residual of the Codazzi equation on coordinate tangent fields.

    ``{R(X,Y)Z}^perp = (nabla-bar_X alpha)(Y,Z) - (nabla-bar_Y alpha)(X,Z)``
    with ``(nabla-bar_X alpha)(Y,Z) = D_X alpha(Y,Z) - alpha(nabla_X Y, Z)
    - alpha(Y, nabla_X Z)``.  D-derivatives are the exact ones of
    ``_State.derivatives``; the induced connection is the tangential
    projection of the ambient one.
    """
    return float(_codazzi_general(state(imm, u))[a, b, c])


def codazzi_residual_umbilical(imm: Immersion, u: Sequence[float], a: int, b: int, c: int) -> float:
    """Residual of the reduced Codazzi relation for totally umbilical N.

    ``{R(X,Y)Z}^perp = g(Y,Z) D_X H - g(X,Z) D_Y H``, or the umbilical
    residual at ``u`` where that is larger, since the relation holds only
    where the immersion is umbilical.
    """
    return float(_codazzi_umbilical(state(imm, u))[a, b, c])


def _parallel_h_residual(st: _State) -> np.ndarray:
    return np.max(st.metric.norm(RealTangentVector(st.derivatives[1])), axis=-1, initial=0.0)


def parallel_h_check(imm: Immersion, points: int, rng: np.random.Generator) -> float:
    """max ||D_{T_a} H|| over sampled parameter points and all directions.

    Zero (to round-off) exactly when the mean curvature vector is parallel
    in the normal connection.  The run of ``check parallel-h``, with its
    count rule and its first failing point (``run_points``).
    """
    geo.require_counts("parallel-h", points, 1)
    return float(np.max(_parallel_h_residual(run_points(imm, points, rng))))
