"""Immersed submanifolds: induced metric, second fundamental form, mean
curvature, Weingarten split, Codazzi residuals and parallelism checks.

An immersion maps a real n-dimensional parameter box into a manifold chart;
its components are symbolic expressions in the real parameters ``u_1..u_n``
(complex constants allowed).  First and second parameter derivatives of the
immersion are symbolic; derivatives of derived fields along the submanifold
(second fundamental form, mean curvature) use central finite differences
with one Richardson step, followed by the appropriate projection.  One
stencil of 4n states around a parameter point differences all of alpha and
H at once and serves every index triple and direction of the checks.

Projections onto tangent and normal spaces are orthogonal projections with
respect to the ambient metric and never require a choice of normal frame,
so finite-difference stencils see smooth fields.

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
        if len(self.lo) != len(self.hi) or any(
            l >= h for l, h in zip(self.lo, self.hi)
        ):
            raise ValueError("parameter box bounds must satisfy lo < hi componentwise")

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

    def _outputs(self, u: Sequence[float], count: int) -> np.ndarray:
        return np.array(self.tape.run(self.assignment(u), count))

    def value(self, u: Sequence[float]) -> np.ndarray:
        """Chart coordinates f(u); checked against the ambient chart domain."""
        f = self._outputs(u, self.ambient.m)
        if not self.ambient.domain.contains(f):
            raise DomainError(
                f"immersion leaves the ambient chart domain at u={np.asarray(u)}"
            )
        return f

    def jacobian(self, u: Sequence[float]) -> np.ndarray:
        """Tangent representatives T_a = df/du_a as rows, shape (n, m)."""
        m, n = self.ambient.m, self.n
        return self._outputs(u, m + n * m)[m:].reshape(n, m)

    def hessian(self, u: Sequence[float]) -> np.ndarray:
        """Second parameter derivatives, shape (n, n, m)."""
        m, n = self.ambient.m, self.n
        return self._outputs(u, m + n * m + n * n * m)[m + n * m :].reshape(n, n, m)


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
    induced: np.ndarray  # (n, n) real
    induced_inv: np.ndarray
    gamma: np.ndarray  # ambient Christoffel, (m, m, m)


_RANK_TOL = 1e-8


def _state(imm: Immersion, u: Sequence[float]) -> _State:
    u = imm.require_in_box(u)
    point = imm.value(u)
    jets = imm.ambient.jets(point, 2)
    metric = geo.metric_at(imm.ambient, point, jets)
    v = imm.jacobian(u)
    jac_real = np.vstack([v.T.real, v.T.imag])
    smallest = float(np.linalg.svd(jac_real, compute_uv=False)[-1])
    if smallest < _RANK_TOL:
        raise RankError(
            f"immersion differential rank deficient at u={u}: "
            f"smallest singular value {smallest:.3e}"
        )
    ghat = 2.0 * np.real(v @ metric.matrix @ v.conj().T)
    ghat = 0.5 * (ghat + ghat.T)
    gamma = geo.christoffel_at(imm.ambient, point, metric, jets).gamma
    return _State(
        imm=imm,
        u=u,
        point=point,
        metric=metric,
        tangents=v,
        induced=ghat,
        induced_inv=np.linalg.inv(ghat),
        gamma=gamma,
    )


def _tangential_coeffs(st: _State, w: np.ndarray) -> np.ndarray:
    """Real coefficients c with tangential part of W equal to sum c_a T_a."""
    rhs = 2.0 * np.real(st.tangents @ st.metric.matrix @ np.conj(w))
    return np.linalg.solve(st.induced, rhs)


def _normal_part(st: _State, w: np.ndarray) -> np.ndarray:
    return w - _tangential_coeffs(st, w) @ st.tangents


def _gnorm(metric: HermitianMetric, w: np.ndarray) -> float:
    return math.sqrt(max(2.0 * metric.hermitian_product(w, w).real, 0.0))


def _second_derivative_vectors(st: _State) -> np.ndarray:
    """Ambient covariant derivatives ``nabla_{T_a} T_b``, shape (n, n, m)."""
    d2 = st.imm.hessian(st.u)
    correction = np.einsum("kij,ai,bj->abk", st.gamma, st.tangents, st.tangents)
    return d2 + correction


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
        norm = _gnorm(st.metric, w)
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
    w = _second_derivative_vectors(st)
    n = st.imm.n
    alpha = np.empty_like(w)
    for a in range(n):
        for b in range(a, n):
            alpha[a, b] = _normal_part(st, w[a, b])
            alpha[b, a] = alpha[a, b]
    return alpha


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
    n = st.imm.n
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return max([0.0, *(_gnorm(st.metric, alpha[p] - st.induced[p] * h) for p in pairs)])


@dataclass(frozen=True, eq=False)
class WeingartenSplit:
    """Orthogonal split of the ambient derivative of a normal field.

    ``tangential`` is the shape-operator part (equal to -A_xi X) and
    ``normal`` is the normal-connection part D_X xi.
    """

    tangential: RealTangentVector
    normal: RealTangentVector


def weingarten_split(
    imm: Immersion,
    u: Sequence[float],
    xi: Sequence[Expr],
    x_coeffs: Sequence[float],
    normal_tol: float = 1e-8,
) -> WeingartenSplit:
    """Split ``nabla_X xi`` into tangential and normal parts.

    ``xi`` gives the normal field as expressions over the parameters; ``X``
    is the tangent vector with coefficients ``x_coeffs`` in the coordinate
    tangent basis.  The two parts sum back to the ambient derivative; the
    shape operator satisfies ``g(A_xi X, Y) = g(alpha(X, Y), xi)``.
    """
    st = _state(imm, u)
    m = imm.ambient.m
    if len(xi) != m:
        raise ValueError(f"normal field needs {m} components, got {len(xi)}")
    for c in xi:
        ex.validate_variables(c, imm.n, (U,))
    a = imm.assignment(st.u)
    xi0 = np.array([ex.evaluate(c, a) for c in xi])
    tang_norm = _gnorm(st.metric, xi0 - _normal_part(st, xi0))
    if tang_norm > normal_tol * max(1.0, _gnorm(st.metric, xi0)):
        raise NotNormalError(
            f"field is not normal at u={st.u}: tangential norm {tang_norm:.3e}"
        )
    x = np.asarray(x_coeffs, dtype=float)
    if x.shape != (imm.n,):
        raise ValueError(f"tangent coefficients must have shape ({imm.n},)")
    us = [Var(U, i + 1) for i in range(imm.n)]
    dxi = np.zeros(m, dtype=complex)
    for i_dir, coeff in enumerate(x):
        if coeff == 0.0:
            continue
        for k in range(m):
            dxi[k] += coeff * ex.evaluate(
                ex.wirtinger_derivative(xi[k], us[i_dir]), a
            )
    vx = x @ st.tangents
    ambient_derivative = dxi + np.einsum("kij,i,j->k", st.gamma, vx, xi0)
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


def _stencil(st: _State, alpha: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Normal parts of ``D_x alpha(T_y, T_z)``, shape (n, n, n, m), and
    ``D_x H``, shape (n, m), for every direction x.

    One Richardson stencil of four states per direction differences the
    whole alpha tensor and H together; the ambient connection correction at
    the centre and the normal projection then apply vector by vector.
    """
    imm, n = st.imm, st.imm.n

    def fields_at(uu: np.ndarray) -> np.ndarray:
        s = _state(imm, uu)
        return _fields(s, _second_fundamental_form(s))

    centre = _fields(st, alpha)
    out = np.empty((n,) + centre.shape, dtype=complex)
    for x in range(n):
        e = np.eye(n)[x]
        if not all(imm.domain.contains(st.u + sign * step * e) for sign in (-1.0, 1.0)):
            raise ParameterDomainError(
                f"no room for the finite-difference stencil at u={st.u} in direction {x}"
            )
        diff = richardson_derivative(lambda t: fields_at(st.u + t * e), step)
        for k, w in enumerate(centre):
            correction = np.einsum("kij,i,j->k", st.gamma, st.tangents[x], w)
            out[x, k] = _normal_part(st, diff[k] + correction)
    return out[:, :-1].reshape(n, n, n, -1), out[:, -1]


def _codazzi_lhs(st: _State, curv: geo.ComplexCurvature, a: int, b: int, c: int) -> np.ndarray:
    """Normal component of R(T_a, T_b) T_c in the ambient manifold."""
    ta = RealTangentVector(st.tangents[a])
    tb = RealTangentVector(st.tangents[b])
    tc = RealTangentVector(st.tangents[c])
    op = geo.curvature_operator(curv, st.metric, ta, tb, tc)
    return _normal_part(st, op)


def _codazzi_general(imm: Immersion, u: Sequence[float], step: float) -> Callable:
    """The Codazzi residual of each index triple at ``u``, from one stencil."""
    st = _state(imm, u)
    alpha = _second_fundamental_form(st)
    d_alpha, _ = _stencil(st, alpha, step)
    curv = geo.curvature_at(imm.ambient, st.point, st.metric)
    w = _second_derivative_vectors(st)
    conn = np.array([[_tangential_coeffs(st, w_ij) for w_ij in w_i] for w_i in w])

    def dbar(x: int, y: int, zz: int) -> np.ndarray:
        return (
            d_alpha[x, y, zz]
            - np.einsum("e,ek->k", conn[x, y], alpha[:, zz])
            - np.einsum("e,ek->k", conn[x, zz], alpha[y, :])
        )

    def residual(a: int, b: int, c: int) -> float:
        rhs = dbar(a, b, c) - dbar(b, a, c)
        return _gnorm(st.metric, _codazzi_lhs(st, curv, a, b, c) - rhs)

    return residual


def _codazzi_umbilical(
    imm: Immersion, u: Sequence[float], step: float, umbilical_tol: float
) -> Callable:
    """The reduced Codazzi residual of each index triple at ``u``, from one stencil."""
    st = _state(imm, u)
    alpha = _second_fundamental_form(st)
    resid = _umbilical_residual(st, alpha, _mean_curvature(st, alpha))
    if resid >= umbilical_tol:
        raise NotUmbilicalError(
            f"immersion is not totally umbilical at u={st.u} "
            f"(residual {resid:.3e}); reduced Codazzi not computed"
        )
    _, d_h = _stencil(st, alpha, step)
    curv = geo.curvature_at(imm.ambient, st.point, st.metric)

    def residual(a: int, b: int, c: int) -> float:
        rhs = st.induced[b, c] * d_h[a] - st.induced[a, c] * d_h[b]
        return _gnorm(st.metric, _codazzi_lhs(st, curv, a, b, c) - rhs)

    return residual


def _worst_triple(imm: Immersion, residual: Callable) -> float:
    """The largest residual over the index triples (a, b, c) with a < b."""
    n = imm.n
    triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(n)]
    return max([0.0, *(residual(*t) for t in triples)])


def codazzi_residual_general(
    imm: Immersion, u: Sequence[float], a: int, b: int, c: int, step: float = _FD_STEP
) -> float:
    """Residual of the Codazzi equation on coordinate tangent fields.

    ``{R(X,Y)Z}^perp = (nabla-bar_X alpha)(Y,Z) - (nabla-bar_Y alpha)(X,Z)``
    with ``(nabla-bar_X alpha)(Y,Z) = D_X alpha(Y,Z) - alpha(nabla_X Y, Z)
    - alpha(Y, nabla_X Z)``.  D-derivatives use finite differences of the
    alpha field followed by normal projection; the induced connection is the
    tangential projection of the ambient one.
    """
    return _codazzi_general(imm, u, step)(a, b, c)


def codazzi_residual_umbilical(
    imm: Immersion,
    u: Sequence[float],
    a: int,
    b: int,
    c: int,
    step: float = _FD_STEP,
    umbilical_tol: float = _UMBILICAL_TOL,
) -> float:
    """Residual of the reduced Codazzi relation for totally umbilical N.

    ``{R(X,Y)Z}^perp = g(Y,Z) D_X H - g(X,Z) D_Y H``.  Raises if the
    immersion is not umbilical at ``u`` (the relation is only meaningful
    there).
    """
    return _codazzi_umbilical(imm, u, step, umbilical_tol)(a, b, c)


def parallel_h_residual_at(
    imm: Immersion, u: Sequence[float], step: float = _FD_STEP
) -> float:
    """max over directions of ||D_{T_a} H|| at one parameter point."""
    st = _state(imm, u)
    _, d_h = _stencil(st, _second_fundamental_form(st), step)
    return max([0.0, *(_gnorm(st.metric, d) for d in d_h)])


def parallel_h_check(
    imm: Immersion,
    points: int,
    rng: np.random.Generator,
    step: float = _FD_STEP,
) -> float:
    """max ||D_{T_a} H|| over sampled parameter points and all directions.

    Zero (at finite-difference fidelity) exactly when the mean curvature
    vector is parallel in the normal connection.
    """
    return max(
        parallel_h_residual_at(imm, imm.domain.sample(rng), step)
        for _ in range(points)
    )


# The residual of each immersion check at one parameter point.  Entries look
# their functions up by module name when called, so a wrapper set on a module
# attribute sees every call.
CHECKS: dict[str, Callable[[Immersion, np.ndarray], float]] = {
    "umbilical": lambda imm, u: umbilical_residual(imm, u),
    "parallel-h": lambda imm, u: parallel_h_residual_at(imm, u),
    "codazzi-general": lambda imm, u: _worst_triple(imm, _codazzi_general(imm, u, _FD_STEP)),
    "codazzi-umbilical": lambda imm, u: _worst_triple(
        imm, _codazzi_umbilical(imm, u, _FD_STEP, _UMBILICAL_TOL)
    ),
}
