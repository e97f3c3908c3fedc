"""Metric, connection, curvature, Ricci, scalar curvature, frames."""

import numpy as np
import pytest

from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import models
from kahlercheck.oracle import (
    real_curvature_fd,
    real_point,
    riemann_tensor_fd,
    wirtinger_fd,
)


def _fs1():
    return models.build_model("builtin:fs:1")


# ------------------------------------------------------------------ metric


def test_flat_metric_is_identity(flat2, rng):
    for _ in range(5):
        g = geo.metric_at(flat2, flat2.sample_point(rng))
        assert np.allclose(g.matrix, np.eye(2), atol=1e-14)


def test_fs1_metric_values():
    m = _fs1()
    assert abs(geo.metric_at(m, [0.0]).matrix[0, 0] - 1.0) < 1e-14
    # second derivative of log(1+|z|^2) at |z| = 1 is (1+|z|^2)^-2 = 1/4
    assert abs(geo.metric_at(m, [1.0]).matrix[0, 0] - 0.25) < 1e-14


def test_fs1_metric_against_nested_fd_oracle():
    # g = d_z d_zbar K of the chart function K(z) = K(z, conj z), by nested
    # Wirtinger finite differences.
    m = _fs1()
    for p in (1.0 + 0j, 0.3 + 0.2j):

        def chart_potential(w):
            return ex.evaluate(m.potential, m.assignment(np.array([w])))

        def dz_of_potential(w):
            return wirtinger_fd(chart_potential, w, step=1e-5)[0]

        _, oracle = wirtinger_fd(dz_of_potential, p, step=1e-4)
        symbolic = geo.metric_at(m, [p]).matrix[0, 0]
        assert abs(symbolic - oracle) < 1e-5


def test_metric_invariants(fs3, rng):
    for _ in range(3):
        g = geo.metric_at(fs3, fs3.sample_point(rng))
        assert np.max(np.abs(g.matrix - g.matrix.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(g.matrix)[0] > 0
        assert np.max(np.abs(g.matrix @ g.inverse - np.eye(3))) < 1e-10


def test_metric_error_for_non_plurisubharmonic_potential():
    bad = ex.neg(ex.mul(ex.z(1), ex.zb(1)))
    m = geo.KahlerManifold(1, bad, geo.ball(1.0), check_reality=False)
    with pytest.raises(geo.MetricError, match="smallest eigenvalue"):
        geo.metric_at(m, [0.2])


def test_point_outside_domain_rejected(fs3):
    with pytest.raises(geo.DomainError):
        geo.metric_at(fs3, [2.0, 0.0, 0.0])


def test_non_real_potential_rejected():
    with pytest.raises(ValueError, match="not real"):
        geo.KahlerManifold(1, ex.mul(ex.z(1), ex.z(1)), geo.ball(1.0))


# ------------------------------------------------------------- christoffel


def test_flat_christoffel_zero(flat2, rng):
    c = geo.christoffel_at(flat2, flat2.sample_point(rng))
    assert np.max(np.abs(c.gamma)) == 0.0


def test_fs1_christoffel_at_origin_zero():
    c = geo.christoffel_at(_fs1(), [0.0])
    assert np.max(np.abs(c.gamma)) < 1e-14


def test_christoffel_against_finite_differences():
    # Gamma^k_ij = g^{k lbar} d_i g_{j lbar}; the derivative via independent
    # Wirtinger finite differences of the metric entries.
    m = _fs1()
    p = np.array([0.5 + 0j])
    gm = geo.metric_at(m, p)
    c = geo.christoffel_at(m, p)

    def g_entry(value):
        return m.metric_matrix(np.array([value]))[0, 0]

    dg, _ = wirtinger_fd(g_entry, complex(p[0]), step=1e-5)
    expected = gm.inverse[0, 0] * dg
    assert abs(c.gamma[0, 0, 0] - expected) < 1e-6 * max(1.0, abs(expected))


def test_christoffel_symmetry(fs3, rng):
    c = geo.christoffel_at(fs3, fs3.sample_point(rng))
    assert np.max(np.abs(c.gamma - c.gamma.transpose(0, 2, 1))) < 1e-12


# --------------------------------------------------------------- curvature


def test_flat_curvature_zero(flat2, rng):
    r = geo.curvature_at(flat2, flat2.sample_point(rng))
    assert np.max(np.abs(r.tensor)) == 0.0


def test_fs1_curvature_at_origin():
    r = geo.curvature_at(_fs1(), [0.0])
    assert abs(r.tensor[0, 0, 0, 0] - 2.0) < 1e-13


def test_fs2_mixed_component_at_origin(fs2):
    r = geo.curvature_at(fs2, [0.0, 0.0])
    assert abs(r.tensor[0, 0, 1, 1] - 1.0) < 1e-13


def test_curvature_tensor_symmetries(fs3, chyp2, rng):
    for m in (fs3, chyp2):
        t = geo.curvature_at(m, m.sample_point(rng)).tensor
        assert np.max(np.abs(t - t.transpose(2, 1, 0, 3))) < 1e-10
        assert np.max(np.abs(t - t.transpose(0, 3, 2, 1))) < 1e-10
        assert np.max(np.abs(t - t.transpose(1, 0, 3, 2).conj())) < 1e-10


def test_real_curvature_identities(fs3, rng):
    p = fs3.sample_point(rng)
    gm = geo.metric_at(fs3, p)
    rc = geo.curvature_at(fs3, p)
    for _ in range(10):
        x, y, z, u = (geo.random_unit_tangent(gm, 3, rng) for _ in range(4))
        r = geo.real_curvature
        val = r(rc, x, y, z, u)
        assert abs(val + r(rc, y, x, z, u)) < 1e-12
        assert abs(val + r(rc, x, y, u, z)) < 1e-12
        assert abs(val - r(rc, z, u, x, y)) < 1e-12
        assert abs(val - r(rc, x.j(), y.j(), z, u)) < 1e-12
        bianchi = r(rc, x, y, z, u) + r(rc, y, z, x, u) + r(rc, z, x, y, u)
        assert abs(bianchi) < 1e-10


def test_real_curvature_flat_zero(flat2, rng):
    p = flat2.sample_point(rng)
    rc = geo.curvature_at(flat2, p)
    gm = geo.metric_at(flat2, p)
    vecs = [geo.random_unit_tangent(gm, 2, rng) for _ in range(4)]
    assert geo.real_curvature(rc, *vecs) == 0.0


def test_curvature_operator_consistent_with_quadrilinear(fs2, rng):
    p = fs2.sample_point(rng)
    gm = geo.metric_at(fs2, p)
    rc = geo.curvature_at(fs2, p)
    for _ in range(5):
        x, y, z, u = (geo.random_unit_tangent(gm, 2, rng) for _ in range(4))
        op = geo.curvature_operator(rc, gm, x, y, z)
        lhs = 2.0 * gm.hermitian_product(op, u.components).real
        assert abs(lhs - geo.real_curvature(rc, x, y, z, u)) < 1e-12


def test_fs2_against_oracle_single_quadruple(fs2, rng):
    p = fs2.sample_point(rng)
    gm = geo.metric_at(fs2, p)
    rc = geo.curvature_at(fs2, p)
    riem = riemann_tensor_fd(fs2, real_point(fs2, p))
    e1 = geo.tangent([1.0, 0.0])
    quads = [
        (e1, e1.j(), e1.j(), e1),
        tuple(geo.random_unit_tangent(gm, 2, rng) for _ in range(4)),
    ]
    for x, y, z, u in quads:
        a = geo.real_curvature(rc, x, y, z, u)
        b = real_curvature_fd(riem, x, y, z, u)
        assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------------- ricci


def test_flat_ricci_zero(flat2, rng):
    ric = geo.ricci_at(flat2, flat2.sample_point(rng))
    assert np.max(np.abs(ric.matrix)) == 0.0


def test_fs1_einstein_ratio_constant():
    m = _fs1()
    ratios = []
    for p in ([0.0], [0.5]):
        ric = geo.ricci_at(m, p)
        gm = geo.metric_at(m, p)
        ratios.append((ric.matrix[0, 0] / gm.matrix[0, 0]).real)
    assert abs(ratios[0] - ratios[1]) < 1e-9


def test_ricci_evaluator_j_invariance(fs3, rng):
    p = fs3.sample_point(rng)
    ric = geo.ricci_at(fs3, p)
    gm = ric.metric
    for _ in range(5):
        x = geo.random_unit_tangent(gm, 3, rng)
        y = geo.random_unit_tangent(gm, 3, rng)
        assert abs(ric(x, y) - ric(x.j(), y.j())) < 1e-12
        assert abs(ric(x, y) - ric(y, x)) < 1e-12


def test_ricci_equals_log_det_hessian(fs2, chyp2, rng):
    # S_{i jbar} = -d_i d_jbar log det g, by nested Wirtinger differences of
    # the scalar chart function log det g.
    for manifold in (fs2, chyp2):
        p = manifold.sample_point(rng)
        ric = geo.ricci_at(manifold, p)
        for i in range(2):
            for j in range(2):

                def di_logdet(w, _i=i, _j=j):
                    # d_{z_i} log det g along the z_j line through p
                    q = np.array(p, dtype=complex)
                    q[_j] = w

                    def slice_i(wi, _q=q, _i=_i):
                        qq = np.array(_q, dtype=complex)
                        qq[_i] = wi
                        return np.log(
                            np.linalg.det(manifold.metric_matrix(qq)).real
                        )

                    return wirtinger_fd(slice_i, q[_i], step=1e-5)[0]

                _, oracle = wirtinger_fd(di_logdet, p[j], step=1e-4)
                assert abs(ric.matrix[i, j] - (-oracle)) < 1e-4 * max(
                    1.0, abs(ric.matrix[i, j])
                )


def test_product_ricci_blocks_differ(product, rng):
    ric = geo.ricci_at(product, product.sample_point(rng))
    gm = ric.metric
    block1 = (ric.matrix[0, 0] / gm.matrix[0, 0]).real
    block2 = (ric.matrix[1, 1] / gm.matrix[1, 1]).real
    assert abs(block1 - block2) > 1e-6


# -------------------------------------------------------- scalar curvature


def test_flat_scalar_zero(flat2, rng):
    assert geo.scalar_curvature_at(flat2, flat2.sample_point(rng)) == 0.0


def test_fs2_scalar_constant(fs2, rng):
    values = [
        geo.scalar_curvature_at(fs2, fs2.sample_point(rng)) for _ in range(10)
    ]
    assert np.ptp(values) < 1e-9
    assert values[0] > 0


def test_chyp2_scalar_negative(chyp2, rng):
    assert geo.scalar_curvature_at(chyp2, chyp2.sample_point(rng)) < 0


def _random_real_orthonormal_basis(metric, m, rng):
    """Random g-orthonormal basis of the real 2m-dimensional tangent space.

    Gram-Schmidt with real coefficients over 2m complex Gaussian seeds.
    """
    for _ in range(64):
        raw = rng.normal(size=(2 * m, m)) + 1j * rng.normal(size=(2 * m, m))
        basis = []
        for w in raw:
            x = geo.RealTangentVector(w)
            for b in basis:
                x = geo.RealTangentVector(x.components - metric.inner(x, b) * b.components)
            n = metric.norm(x)
            if n < 1e-8:
                basis = []
                break
            basis.append(geo.RealTangentVector(x.components / n))
        if len(basis) == 2 * m:
            return basis
    raise geo.FrameError("failed to draw an independent real basis")


def test_scalar_curvature_basis_independent(fs2, rng):
    p = fs2.sample_point(rng)
    ric = geo.ricci_at(fs2, p)
    tau = geo.scalar_curvature_at(fs2, p)
    for _ in range(5):
        basis = _random_real_orthonormal_basis(ric.metric, 2, rng)
        trace = sum(ric(e, e) for e in basis)
        assert abs(trace - tau) < 1e-10 * max(1.0, abs(tau))


# ------------------------------------------------------------------ frames


def test_antiholomorphic_frame_gram_conditions(fs3, rng):
    p = fs3.sample_point(rng)
    gm = geo.metric_at(fs3, p)
    frame = geo.orthonormal_antiholomorphic_frame(fs3, p, 3, rng, gm)
    for a, va in enumerate(frame):
        for b, vb in enumerate(frame):
            want = 1.0 if a == b else 0.0
            assert abs(gm.inner(va, vb) - want) < 1e-10
            assert abs(gm.inner_j(va, vb)) < 1e-10


def test_frame_k_greater_than_m_rejected(fs2, rng):
    with pytest.raises(geo.FrameError, match="exceeds"):
        geo.orthonormal_antiholomorphic_frame(fs2, [0.0, 0.0], 3, rng)


def test_frames_differ_across_seeds(fs3):
    p = np.zeros(3, dtype=complex)
    f1 = geo.orthonormal_antiholomorphic_frame(fs3, p, 3, np.random.default_rng(1))
    f2 = geo.orthonormal_antiholomorphic_frame(fs3, p, 3, np.random.default_rng(2))
    delta = max(
        np.max(np.abs(a.components - b.components)) for a, b in zip(f1, f2)
    )
    assert delta > 1e-3


def test_flat_frame_is_rescaled_unitary(flat2, rng):
    gm = geo.metric_at(flat2, [0.0, 0.0])
    frame = geo.orthonormal_antiholomorphic_frame(flat2, [0.0, 0.0], 2, rng, gm)
    v = np.array([f.components for f in frame])
    # h is half the standard Hermitian product here, so V V^H = I/2
    assert np.allclose(v @ v.conj().T, 0.5 * np.eye(2), atol=1e-12)


def test_holomorphic_basis_at_nonflat_point(fs3, rng):
    p = fs3.sample_point(rng)
    gm = geo.metric_at(fs3, p)
    basis = geo.orthonormal_holomorphic_basis(fs3, p, rng, gm)
    assert len(basis) == 3
    for a, va in enumerate(basis):
        for b, vb in enumerate(basis):
            want = 1.0 if a == b else 0.0
            assert abs(gm.inner(va, vb) - want) < 1e-10
            assert abs(gm.inner_j(va, vb)) < 1e-10


def test_real_tangent_vector_complex_structure(fs3, rng):
    p = fs3.sample_point(rng)
    gm = geo.metric_at(fs3, p)
    x = geo.random_unit_tangent(gm, 3, rng)
    y = geo.random_unit_tangent(gm, 3, rng)
    assert np.allclose(x.j().j().components, -x.components)
    assert abs(gm.inner(x.j(), y.j()) - gm.inner(x, y)) < 1e-12


# ------------------------------------------------------ stacked primitives


def _gram_schmidt_frame(gm, m, k, rng):
    """Reference: one frame by Gram-Schmidt over h, one vector at a time."""
    h = gm.hermitian_product
    for _ in range(64):
        raw = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        basis = []
        for w in raw:
            for v in basis:
                w = w - (h(w, v) / h(v, v)) * v
            if np.sqrt(max(h(w, w).real, 0.0)) < geo._PIVOT:
                break
            basis.append(w)
        if len(basis) == k:
            return np.array([v / np.sqrt(2.0 * h(v, v).real) for v in basis])
    raise AssertionError("reference Gram-Schmidt found no frame")


@pytest.mark.parametrize("chart", ["fs3", "chyp3", "product"])
def test_one_frame_samplers_keep_the_gram_schmidt_draws(chart, request):
    manifold = request.getfixturevalue(chart)
    rng = np.random.default_rng(11)
    p = manifold.sample_point(rng)
    gm = geo.metric_at(manifold, p)
    for k in (1, 2, 3):
        seed = int(rng.integers(2**32))
        got = geo.orthonormal_antiholomorphic_frame(manifold, p, k, np.random.default_rng(seed), gm)
        want = _gram_schmidt_frame(gm, manifold.m, k, np.random.default_rng(seed))
        assert np.max(np.abs(np.array([v.components for v in got]) - want)) < 1e-13
    ref = np.random.default_rng(5)
    v = ref.normal(size=manifold.m) + 1j * ref.normal(size=manifold.m)
    want = v / gm.norm(geo.RealTangentVector(v))
    got = geo.random_unit_tangent(gm, manifold.m, np.random.default_rng(5)).components
    assert np.max(np.abs(got - want)) < 1e-13


def test_forms_give_one_value_per_stacked_vector(product, rng):
    p = product.sample_point(rng)
    ric = geo.ricci_at(product, p)
    gm, rc = ric.metric, geo.curvature_at(product, p)
    stack = geo.unit_tangents(gm, 5, 4, rng)
    x, y, z, u = (geo.RealTangentVector(stack[:, a]) for a in range(4))
    rows = [[geo.RealTangentVector(v) for v in row] for row in stack]
    for form, want in (
        (gm.inner(x, y), [gm.inner(a, b) for a, b, _, _ in rows]),
        (gm.inner_j(x, y), [gm.inner_j(a, b) for a, b, _, _ in rows]),
        (gm.norm(x), [gm.norm(a) for a, _, _, _ in rows]),
        (ric(x, y), [ric(a, b) for a, b, _, _ in rows]),
        (geo.real_curvature(rc, x, y, z, u), [geo.real_curvature(rc, *r) for r in rows]),
    ):
        assert form.shape == (5,)
        assert np.allclose(form, want, rtol=1e-14, atol=1e-14)
    op = geo.curvature_operator(rc, gm, x, y, z)
    assert op.shape == (5, 3)
    for row, (a, b, c, _) in zip(op, rows):
        assert np.allclose(row, geo.curvature_operator(rc, gm, a, b, c), rtol=1e-14, atol=1e-14)
    # Single vectors give scalars; a single vector broadcasts against a stack.
    assert np.ndim(gm.inner(rows[0][0], rows[0][1])) == 0
    assert gm.hermitian_product(stack[0, 0], stack[:, 1]).shape == (5,)


def _gram(gm, frames):
    """2 V g V^H per frame: g(v_a, v_b) + i g(v_a, J v_b)."""
    return 2.0 * frames @ gm.matrix @ np.conj(np.swapaxes(frames, -1, -2))


class _Draws:
    """Generator stand-in: ``normal`` hands out ``override(call, values)``
    for values drawn from a real generator, and records each size."""

    def __init__(self, seed, override=lambda call, values: values):
        self.real = np.random.default_rng(seed)
        self.override = override
        self.sizes = []

    def normal(self, size):
        self.sizes.append(size)
        return self.override(len(self.sizes), self.real.normal(size=size))


def test_only_the_dependent_frame_is_redrawn(fs3):
    gm = geo.metric_at(fs3, fs3.sample_point(np.random.default_rng(3)))

    def dependent(call, values):
        if call <= 2:  # real and imaginary parts of the first draw
            values[1, 2] = values[1, 0]
        return values

    stub = _Draws(8, dependent)
    frames = geo.antiholomorphic_frames(gm, 4, 3, stub)
    assert stub.sizes == [(4, 3, 3), (4, 3, 3), (1, 3, 3), (1, 3, 3)]
    plain = geo.antiholomorphic_frames(gm, 4, 3, _Draws(8))
    keep = [0, 2, 3]
    assert np.array_equal(frames[keep], plain[keep])
    assert not np.allclose(frames[1], plain[1])
    assert np.allclose(_gram(gm, frames), np.eye(3), rtol=0, atol=1e-12)


def test_dependent_seeds_every_time_raise_frame_error(fs3):
    gm = geo.metric_at(fs3, np.zeros(3))
    stub = _Draws(1, lambda call, values: np.ones_like(values))
    with pytest.raises(geo.FrameError, match="independent"):
        geo.antiholomorphic_frames(gm, 2, 2, stub)
    assert len(stub.sizes) == 2 * 64


def test_zero_unit_draw_is_redrawn(fs3):
    gm = geo.metric_at(fs3, np.zeros(3))
    stub = _Draws(2, lambda call, values: np.zeros_like(values) if call <= 2 else values)
    x = geo.random_unit_tangent(gm, 3, stub)
    assert stub.sizes == [(1, 1, 3), (1, 1, 3), (1, 3), (1, 3)]
    assert np.all(np.isfinite(x.components)) and abs(gm.norm(x) - 1.0) < 1e-14

    def one_zero(call, values):
        if call <= 2:
            values[2, 1] = 0.0
        return values

    stub = _Draws(2, one_zero)
    stack = geo.unit_tangents(gm, 3, 2, stub)
    assert stub.sizes[2:] == [(1, 3), (1, 3)]
    assert np.all(np.isfinite(stack))
    assert np.allclose(gm.norm(geo.RealTangentVector(stack)), 1.0, rtol=0, atol=1e-14)
