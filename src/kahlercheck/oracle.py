"""Independent real-coordinate curvature oracle.

Cross-checks the symbolic complex-index pipeline: the chart is treated as a
real 2m-dimensional Riemannian manifold in coordinates
``(x_1..x_m, y_1..y_m)`` with ``z_k = x_k + i y_k``.  Only the metric entries
come from the symbolic cache; Christoffel symbols and the Riemann tensor are
obtained by central finite differences (one Richardson step), a completely
different differentiation path from the symbolic one.

Riemann convention: ``R(d_a, d_b) d_c = nabla_a nabla_b d_c - nabla_b
nabla_a d_c`` and ``Riem[a,b,c,d] = gamma(R(d_a, d_b) d_c, d_d)``, matching
the convention of ``geometry.real_curvature``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .geometry import KahlerManifold, RealTangentVector


# The steps, in units of h, of the four points of ``richardson_derivative``.
_STEPS = np.array([0.5, -0.5, 1.0, -1.0])


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """d/dt at 0 along each direction from ``values`` at the ``h * _STEPS``
    points of each, stencil axes first: ``(n, 4, ...) -> (n, ...)``; central
    differences with one Richardson step."""
    central_half = (values[:, 0] - values[:, 1]) / (2.0 * (h / 2.0))
    central = (values[:, 2] - values[:, 3]) / (2.0 * h)
    return (4.0 * central_half - central) / 3.0


def richardson_derivative(f: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    """d/dt f at 0 by central differences with one Richardson step."""
    return _derivative(np.array([[f(t) for t in h * _STEPS]]), h)[0]


def wirtinger_fd(
    f: Callable[[complex], complex], value: complex, step: float = 1e-6
) -> tuple[complex, complex]:
    """Finite-difference (d/dz, d/dzb) of ``f`` at ``value``.

    Central differences in the real and imaginary parts, combined with the
    Wirtinger coefficients.
    """
    dx = (f(value + step) - f(value - step)) / (2.0 * step)
    dy = (f(value + 1j * step) - f(value - 1j * step)) / (2.0 * step)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def real_metric_at(manifold: KahlerManifold, x: np.ndarray) -> np.ndarray:
    """2m x 2m real metric in (x, y) coordinates from the Hermitian matrix,
    at one real point ``x`` or at a stack of them along leading axes.

    Blocks: ``gamma_xx = gamma_yy = 2 Re g`` and ``gamma_xy = 2 Im g``.
    """
    m = manifold.m
    g = manifold.metric_matrix(x[..., :m] + 1j * x[..., m:])
    re, im = 2.0 * g.real, 2.0 * g.imag
    return np.block([[re, im], [np.swapaxes(im, -1, -2), re]])


def _stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The points ``x + t e_a`` at which ``richardson_derivative`` evaluates
    along each coordinate direction ``a``, shape ``(n, 4, *x.shape)``, so
    that a metric of the whole stencil is one tape run."""
    n = x.shape[-1]
    steps = (h * _STEPS)[:, None] * np.eye(n)[:, None, :]
    return x + steps.reshape(n, 4, *[1] * (x.ndim - 1), n)


def real_christoffel_fd(manifold: KahlerManifold, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Levi-Civita symbols ``Gamma^c_{ab}`` of the real metric, index [c,a,b],
    at ``x`` or at a stack of points; the metric at the points and at their
    stencils is one tape run."""
    n = x.shape[-1]
    metrics = real_metric_at(manifold, np.concatenate([x[None], _stencil(x, h).reshape(4 * n, *x.shape)]))
    gamma = metrics[0]
    # dg[..., a, b, d] = d_a g_bd
    dg = np.moveaxis(_derivative(metrics[1:].reshape(n, 4, *gamma.shape), h), 0, -3)
    ginv = np.linalg.inv(gamma)
    # Gamma^c_ab = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab)
    return 0.5 * (
        np.einsum("...cd,...abd->...cab", ginv, dg)
        + np.einsum("...cd,...bad->...cab", ginv, dg)
        - np.einsum("...cd,...dab->...cab", ginv, dg)
    )


def riemann_tensor_fd(manifold: KahlerManifold, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Fully lowered Riemann tensor ``Riem[a,b,c,d]`` by nested differences;
    the Christoffel symbols at every point of the stencil of ``x`` are one
    stacked evaluation."""
    gamma = real_metric_at(manifold, x)
    chr0 = real_christoffel_fd(manifold, x, h)
    dchr = _derivative(real_christoffel_fd(manifold, _stencil(x, h), h), h)
    # riem_up[a,b,c,f] = d_a Gamma^f_bc - d_b Gamma^f_ac
    #                    + Gamma^e_bc Gamma^f_ae - Gamma^e_ac Gamma^f_be
    riem_up = (
        np.einsum("afbc->abcf", dchr)
        - np.einsum("bfac->abcf", dchr)
        + np.einsum("ebc,fae->abcf", chr0, chr0)
        - np.einsum("eac,fbe->abcf", chr0, chr0)
    )
    # lower the last index: Riem[a,b,c,d] = gamma(R(d_a,d_b) d_c, d_d)
    return np.einsum("abcf,df->abcd", riem_up, gamma)


def real_components(x: RealTangentVector) -> np.ndarray:
    """Components of X in the real coordinate frame (d_x then d_y)."""
    v = x.components
    return np.concatenate([v.real, v.imag])


def real_curvature_fd(
    riem: np.ndarray,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """Contract a precomputed oracle Riemann tensor with four vectors."""
    return float(
        np.einsum(
            "abcd,a,b,c,d->",
            riem,
            real_components(x),
            real_components(y),
            real_components(z),
            real_components(u),
        )
    )


def real_point(manifold: KahlerManifold, p: Sequence[complex]) -> np.ndarray:
    """Real coordinates (x, y) of a chart point."""
    p = np.asarray(p, dtype=complex)
    return np.concatenate([p.real, p.imag])
