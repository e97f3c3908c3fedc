"""Immersed submanifolds: induced metric, second fundamental form, mean
curvature, Weingarten split, Codazzi residuals and parallelism checks.

An immersion maps a real n-dimensional parameter box into a manifold chart;
its components are symbolic expressions in the real parameters ``u_1..u_n``
(complex constants allowed).  First and second parameter derivatives of the
immersion are symbolic, and one run of the immersion's tape gives f, df and
d2f at a parameter point; derivatives of derived fields along the
submanifold (second fundamental form, mean curvature) use central finite
differences with one Richardson step, followed by the appropriate
projection.  One stencil of 4n states around a parameter point differences
all of alpha and H at once and serves every index triple and direction of
the checks.

Projections onto tangent and normal spaces are orthogonal projections with
respect to the ambient metric and never require a choice of normal frame,
so finite-difference stencils see smooth fields.  They act on vectors
stacked along the last axis, and the Codazzi residuals of all index triples
at a point come back as one (n, n, n) array.

``CHECKS`` maps each immersion check to its residual at one parameter point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from . import geometry as geo
from .expr import Expr, Var, U
from .geometry import DomainError, HermitianMetric, KahlerManifold, RealTangentVector
from .oracle import richardson_derivative


class RankError(Exception):
    """Immersion differential is rank deficient at the requested point."""


class NotNormalError(Exception):
    """A supplied field is not normal to the submanifold."""


class NotUmbilicalError(Exception):
    """Operation requires a totally umbilical immersion."""


class ParameterDomainError(Exception):
    """Parameter point outside the box, or no room for the stencil."""


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

    def contains(self, u: Sequence[float], margin: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        pad = margin * (hi - lo)
        return bool(np.all(u >= lo + pad - 1e-12) and np.all(u <= hi - pad + 1e-12))

    def sample(self, rng: np.random.Generator, margin: float = 0.05) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        pad = margin * (hi - lo)
        return lo + pad + (hi - lo - 2 * pad) * rng.random(self.n)


def box(*bounds: float) -> ParameterBox:
    """Build a box from interleaved bounds lo1 hi1 lo2 hi2 ..."""
    if len(bounds) % 2:
        raise ValueError("need an even number of bounds")
    return ParameterBox(tuple(bounds[0::2]), tuple(bounds[1::2]))


class Immersion:
    """Parametric map from a real parameter box into a manifold chart."""

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
        for c in components:
            ex.validate_variables(c, self.n, (U,))

        dag = ex.Dag()
        m, n = ambient.m, self.n
        us = [Var(U, a + 1) for a in range(n)]
        f = [dag.fold(c) for c in components]
        df = [dag.derivative(f[i], us[a]) for a in range(n) for i in range(m)]
        d2f = [dag.derivative(df[a * m + i], us[b]) for a in range(n) for b in range(n) for i in range(m)]
        # One tape for f, df and d2f in that order; value and jacobian run a prefix.
        self.tape = dag.tape(f + df + d2f)
        self._jets = geo.jet_layout(((m,), (n, m), (n, n, m)))

    def assignment(self, u: Sequence[float]) -> dict[Var, complex]:
        return {Var(U, a + 1): complex(val) for a, val in enumerate(u)}

    def require_in_box(self, u: Sequence[float]) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ParameterDomainError(
                f"parameter point has shape {u.shape}, expected ({self.n},)"
            )
        if not self.domain.contains(u):
            raise ParameterDomainError(f"parameter point {u} outside the box")
        return u

    def jets(self, u: Sequence[float], blocks: int = 3) -> list[np.ndarray]:
        """The first ``blocks`` of ``(f, df, d2f)`` at ``u``, from one tape run.

        ``f`` has shape (m,) and is checked against the ambient chart domain;
        ``df[a] = df/du_a`` has shape (n, m) and ``d2f[a, b]`` shape (n, n, m).
        """
        jets = geo.run_jets(self.tape, self.assignment(u), self._jets[:blocks])
        if not self.ambient.domain.contains(jets[0]):
            raise DomainError(
                f"immersion leaves the ambient chart domain at u={np.asarray(u)}"
            )
        return jets

    def value(self, u: Sequence[float]) -> np.ndarray:
        """Chart coordinates f(u); checked against the ambient chart domain."""
        return self.jets(u, 1)[0]

    def jacobian(self, u: Sequence[float]) -> np.ndarray:
        """Tangent representatives T_a = df/du_a as rows, shape (n, m)."""
        return self.jets(u, 2)[1]

    def hessian(self, u: Sequence[float]) -> np.ndarray:
        """Second parameter derivatives, shape (n, n, m)."""
        return self.jets(u)[2]


@dataclass(frozen=True, eq=False)
class FrameAtParameter:
    """Tangent basis and a g-orthonormal normal basis at one parameter point."""

    u: np.ndarray
    tangents: list[RealTangentVector]
    normals: list[RealTangentVector]


@dataclass(frozen=True, eq=False)
class _State:
    """Per-point evaluation bundle shared by the submanifold operations."""

    imm: Immersion
    u: np.ndarray
    point: np.ndarray
    metric: HermitianMetric
    tangents: np.ndarray  # (n, m) complex rows
    d2f: np.ndarray  # (n, n, m) second parameter derivatives
    induced: np.ndarray  # (n, n) real
    induced_inv: np.ndarray
    gamma: np.ndarray  # ambient Christoffel, (m, m, m)
    jets: list[np.ndarray]  # ambient (g, dg, dgb, d2g) at the point


_RANK_TOL = 1e-8


def _state(imm: Immersion, u: Sequence[float]) -> _State:
    u = imm.require_in_box(u)
    point, v, d2f = imm.jets(u)
    jets = imm.ambient.jets(point)
    metric = geo.hermitian_metric(point, jets[0])
    jac_real = np.vstack([v.T.real, v.T.imag])
    smallest = float(np.linalg.svd(jac_real, compute_uv=False)[-1])
    if smallest < _RANK_TOL:
        raise RankError(
            f"immersion differential rank deficient at u={u}: "
            f"smallest singular value {smallest:.3e}"
        )
    ghat = 2.0 * np.real(v @ metric.matrix @ v.conj().T)
    ghat = 0.5 * (ghat + ghat.T)
    return _State(
        imm=imm,
        u=u,
        point=point,
        metric=metric,
        tangents=v,
        d2f=d2f,
        induced=ghat,
        induced_inv=np.linalg.inv(ghat),
        gamma=geo.christoffel_symbols(metric, jets[1]).gamma,
        jets=jets,
    )


def _tangential_coeffs(st: _State, w: np.ndarray) -> np.ndarray:
    """Real coefficients c[..., a] with tangential part of W equal to
    sum_a c[..., a] T_a, for vectors W stacked along the last axis."""
    rhs = 2.0 * np.real(np.conj(w) @ (st.tangents @ st.metric.matrix).T)
    return rhs @ st.induced_inv.T


def _normal_part(st: _State, w: np.ndarray) -> np.ndarray:
    return w - _tangential_coeffs(st, w) @ st.tangents


def _second_derivative_vectors(st: _State) -> np.ndarray:
    """Ambient covariant derivatives ``nabla_{T_a} T_b``, shape (n, n, m)."""
    correction = np.einsum("kij,ai,bj->abk", st.gamma, st.tangents, st.tangents)
    return st.d2f + correction


def induced_metric(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """Pullback metric ``ghat_ab = g(T_a, T_b)``, symmetric positive definite."""
    return _state(imm, u).induced


def frame_at(imm: Immersion, u: Sequence[float]) -> FrameAtParameter:
    """Tangent basis plus a g-orthonormal basis of the normal space.

    The normal basis comes from Gram-Schmidt over a deterministic completion
    of the tangent frame by standard chart directions.
    """
    st = _state(imm, u)
    m = imm.ambient.m
    candidates = [row for row in st.tangents]
    for i in range(m):
        e = np.zeros(m, dtype=complex)
        e[i] = 1.0
        candidates.append(e.copy())
        candidates.append(1j * e)
    basis: list[np.ndarray] = []
    for w in candidates:
        for b in basis:
            w = w - 2.0 * st.metric.hermitian_product(w, b).real * b
        norm = st.metric.norm(RealTangentVector(w))
        if norm < _RANK_TOL:
            if len(basis) < imm.n:
                raise RankError(f"tangent frame degenerate at u={u}")
            continue
        basis.append(w / norm)
        if len(basis) == 2 * m:
            break
    if len(basis) != 2 * m:
        raise RankError(f"could not complete a normal frame at u={u}")
    tangents = [RealTangentVector(row.copy()) for row in st.tangents]
    normals = [RealTangentVector(b) for b in basis[imm.n :]]
    return FrameAtParameter(u=st.u, tangents=tangents, normals=normals)


def second_fundamental_form(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """alpha(T_a, T_b) as complex representatives, shape (n, n, m).

    Normal projection of the ambient covariant derivative of the coordinate
    tangent fields; symmetric in (a, b), values g-orthogonal to all tangents.
    """
    st = _state(imm, u)
    return _second_fundamental_form(st)


def _second_fundamental_form(st: _State) -> np.ndarray:
    return _normal_part(st, _second_derivative_vectors(st))


def mean_curvature(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """H = (1/n) ghat^{ab} alpha(a, b), a normal vector representative."""
    st = _state(imm, u)
    return _mean_curvature(st, _second_fundamental_form(st))


def _mean_curvature(st: _State, alpha: np.ndarray) -> np.ndarray:
    return np.einsum("ab,abk->k", st.induced_inv, alpha) / st.imm.n


def umbilical_residual(imm: Immersion, u: Sequence[float]) -> float:
    """max_ab || alpha(a,b) - ghat_ab H || in the ambient metric."""
    st = _state(imm, u)
    alpha = _second_fundamental_form(st)
    return _umbilical_residual(st, alpha, _mean_curvature(st, alpha))


def _umbilical_residual(st: _State, alpha: np.ndarray, h: np.ndarray) -> float:
    residual = RealTangentVector(alpha - st.induced[..., None] * h)
    return float(np.max(st.metric.norm(residual), initial=0.0))


@dataclass(frozen=True, eq=False)
class WeingartenSplit:
    """Orthogonal split of the ambient derivative of a normal field.

    ``tangential`` is the shape-operator part (equal to -A_xi X) and
    ``normal`` is the normal-connection part D_X xi.
    """

    tangential: RealTangentVector
    normal: RealTangentVector


_NORMAL_TOL = 1e-8


def weingarten_split(
    imm: Immersion,
    u: Sequence[float],
    xi: Sequence[Expr],
    x_coeffs: Sequence[float],
) -> WeingartenSplit:
    """Split ``nabla_X xi`` into tangential and normal parts.

    ``xi`` gives the normal field as expressions over the parameters; ``X``
    is the tangent vector with coefficients ``x_coeffs`` in the coordinate
    tangent basis.  The two parts sum back to the ambient derivative; the
    shape operator satisfies ``g(A_xi X, Y) = g(alpha(X, Y), xi)``.  One
    tape evaluates xi and its parameter derivatives together.
    """
    st = _state(imm, u)
    m, n = imm.ambient.m, imm.n
    if len(xi) != m:
        raise ValueError(f"normal field needs {m} components, got {len(xi)}")
    for c in xi:
        ex.validate_variables(c, n, (U,))
    dag = ex.Dag()
    fields = [dag.intern(c) for c in xi]
    derivatives = [dag.derivative(c, Var(U, a + 1)) for a in range(n) for c in fields]
    values = np.array(dag.tape(fields + derivatives).run(imm.assignment(st.u)))
    xi0, dxi = values[:m], values[m:].reshape(n, m)
    tang_norm = st.metric.norm(RealTangentVector(xi0 - _normal_part(st, xi0)))
    if tang_norm > _NORMAL_TOL * max(1.0, st.metric.norm(RealTangentVector(xi0))):
        raise NotNormalError(
            f"field is not normal at u={st.u}: tangential norm {tang_norm:.3e}"
        )
    x = np.asarray(x_coeffs, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"tangent coefficients must have shape ({n},)")
    vx = x @ st.tangents
    ambient_derivative = x @ dxi + np.einsum("kij,i,j->k", st.gamma, vx, xi0)
    normal = _normal_part(st, ambient_derivative)
    tangential = ambient_derivative - normal
    return WeingartenSplit(
        tangential=RealTangentVector(tangential), normal=RealTangentVector(normal)
    )


_FD_STEP = 1e-5
_UMBILICAL_TOL = 1e-6


def _fields(st: _State, alpha: np.ndarray) -> np.ndarray:
    """The vectors alpha(T_y, T_z), row y * n + z, then H: shape (n * n + 1, m)."""
    return np.vstack([alpha.reshape(-1, alpha.shape[-1]), _mean_curvature(st, alpha)])


def _stencil(st: _State, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal parts of ``D_x alpha(T_y, T_z)``, shape (n, n, n, m), and
    ``D_x H``, shape (n, m), for every direction x.

    One Richardson stencil of four states per direction differences the
    whole alpha tensor and H together; the ambient connection correction at
    the centre and the normal projection then apply to the stacked vectors.
    """
    imm, n = st.imm, st.imm.n

    def fields_at(uu: np.ndarray) -> np.ndarray:
        s = _state(imm, uu)
        return _fields(s, _second_fundamental_form(s))

    centre = _fields(st, alpha)
    diffs = []
    for x in range(n):
        e = np.eye(n)[x]
        if not all(imm.domain.contains(st.u + sign * _FD_STEP * e) for sign in (-1.0, 1.0)):
            raise ParameterDomainError(
                f"no room for the finite-difference stencil at u={st.u} in direction {x}"
            )
        diffs.append(richardson_derivative(lambda t: fields_at(st.u + t * e), _FD_STEP))
    correction = np.einsum("kij,xi,rj->xrk", st.gamma, st.tangents, centre)
    out = _normal_part(st, np.array(diffs) + correction)
    return out[:, :-1].reshape(n, n, n, -1), out[:, -1]


def _codazzi_lhs(st: _State) -> np.ndarray:
    """Normal components of R(T_a, T_b) T_c in the ambient manifold, shape (n, n, n, m)."""
    curv = geo.curvature_tensor(st.point, st.metric, st.jets)
    x, y, z = (RealTangentVector(np.expand_dims(st.tangents, a)) for a in ((1, 2), (0, 2), (0, 1)))
    return _normal_part(st, geo.curvature_operator(curv, st.metric, x, y, z))


def _codazzi_general(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """The Codazzi residual of every index triple (a, b, c) at ``u``, shape (n, n, n)."""
    st = _state(imm, u)
    alpha = _second_fundamental_form(st)
    d_alpha, _ = _stencil(st, alpha)
    # conn[x, y, e]: coefficients of nabla_{T_x} T_y in the tangent basis
    conn = _tangential_coeffs(st, _second_derivative_vectors(st))
    dbar = (
        d_alpha
        - np.einsum("xye,ezk->xyzk", conn, alpha)
        - np.einsum("xze,yek->xyzk", conn, alpha)
    )
    rhs = dbar - dbar.transpose(1, 0, 2, 3)
    return st.metric.norm(RealTangentVector(_codazzi_lhs(st) - rhs))


def _codazzi_umbilical(imm: Immersion, u: Sequence[float]) -> np.ndarray:
    """The reduced Codazzi residual of every index triple at ``u``, shape (n, n, n)."""
    st = _state(imm, u)
    alpha = _second_fundamental_form(st)
    resid = _umbilical_residual(st, alpha, _mean_curvature(st, alpha))
    if resid >= _UMBILICAL_TOL:
        raise NotUmbilicalError(
            f"immersion is not totally umbilical at u={st.u} "
            f"(residual {resid:.3e}); reduced Codazzi not computed"
        )
    _, d_h = _stencil(st, alpha)
    # rhs[a, b, c] = ghat_bc D_a H - ghat_ac D_b H
    rhs = np.einsum("bc,ak->abck", st.induced, d_h)
    rhs = rhs - rhs.transpose(1, 0, 2, 3)
    return st.metric.norm(RealTangentVector(_codazzi_lhs(st) - rhs))


def _worst_triple(residuals: np.ndarray) -> float:
    """The largest residual over the index triples (a, b, c) with a < b."""
    a, b = np.triu_indices(len(residuals), 1)
    return float(np.max(residuals[a, b], initial=0.0))


def codazzi_residual_general(imm: Immersion, u: Sequence[float], a: int, b: int, c: int) -> float:
    """Residual of the Codazzi equation on coordinate tangent fields.

    ``{R(X,Y)Z}^perp = (nabla-bar_X alpha)(Y,Z) - (nabla-bar_Y alpha)(X,Z)``
    with ``(nabla-bar_X alpha)(Y,Z) = D_X alpha(Y,Z) - alpha(nabla_X Y, Z)
    - alpha(Y, nabla_X Z)``.  D-derivatives use finite differences of the
    alpha field followed by normal projection; the induced connection is the
    tangential projection of the ambient one.
    """
    return float(_codazzi_general(imm, u)[a, b, c])


def codazzi_residual_umbilical(imm: Immersion, u: Sequence[float], a: int, b: int, c: int) -> float:
    """Residual of the reduced Codazzi relation for totally umbilical N.

    ``{R(X,Y)Z}^perp = g(Y,Z) D_X H - g(X,Z) D_Y H``.  Raises if the
    immersion is not umbilical at ``u`` (the relation is only meaningful
    there).
    """
    return float(_codazzi_umbilical(imm, u)[a, b, c])


def parallel_h_residual_at(imm: Immersion, u: Sequence[float]) -> float:
    """max over directions of ||D_{T_a} H|| at one parameter point."""
    st = _state(imm, u)
    _, d_h = _stencil(st, _second_fundamental_form(st))
    return float(np.max(st.metric.norm(RealTangentVector(d_h)), initial=0.0))


def parallel_h_check(imm: Immersion, points: int, rng: np.random.Generator) -> float:
    """max ||D_{T_a} H|| over sampled parameter points and all directions.

    Zero (at finite-difference fidelity) exactly when the mean curvature
    vector is parallel in the normal connection.  Raises ``ValueError``
    unless ``points`` is at least 1.
    """
    if points < 1:
        raise ValueError(f"parallel_h_check needs points >= 1, got {points}")
    return max(parallel_h_residual_at(imm, imm.domain.sample(rng)) for _ in range(points))


# The residual of each immersion check at one parameter point.  Entries look
# their functions up by module name when called, so a wrapper set on a module
# attribute sees every call.
CHECKS: dict[str, Callable[[Immersion, np.ndarray], float]] = {
    "umbilical": lambda imm, u: umbilical_residual(imm, u),
    "parallel-h": lambda imm, u: parallel_h_residual_at(imm, u),
    "codazzi-general": lambda imm, u: _worst_triple(_codazzi_general(imm, u)),
    "codazzi-umbilical": lambda imm, u: _worst_triple(_codazzi_umbilical(imm, u)),
}
