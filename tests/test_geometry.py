"""Metric, connection, curvature, Ricci, scalar curvature, frames."""

import hashlib
import warnings

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
from conftest import evaluate
from test_jets import _mixed_chart


def _fs1():
    return models.build_model("builtin:fs:1")


def _christoffel(manifold, p):
    """Christoffel symbols from the metric and dg blocks of the chart's jets."""
    p = manifold.require_in_domain(p)
    g, dg = manifold.jets(p, 2)
    return geo.christoffel_symbols(geo.hermitian_metric(p, g), dg)


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
            return evaluate(m.potential, m.assignment(np.array([w])))

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
    m = geo.KahlerManifold(1, bad, geo.ball(1.0))
    with pytest.raises(geo.MetricError, match="smallest eigenvalue"):
        geo.metric_at(m, [0.2])


def test_point_outside_domain_rejected(fs3):
    with pytest.raises(geo.DomainError):
        geo.metric_at(fs3, [2.0, 0.0, 0.0])


def test_non_real_potential_rejected():
    with pytest.raises(ValueError, match="not real"):
        geo.KahlerManifold(1, ex.mul(ex.z(1), ex.z(1)), geo.ball(1.0))


def _count_tape_runs(monkeypatch) -> list:
    """The assignment of every ``Tape.run`` from here on, in order."""
    runs = []
    real_run = ex.Tape.run

    def run(tape, assignment, *args):
        runs.append(assignment)
        return real_run(tape, assignment, *args)

    monkeypatch.setattr(ex.Tape, "run", run)
    return runs


def test_the_reality_check_runs_its_eight_points_as_one_stack(monkeypatch):
    runs = _count_tape_runs(monkeypatch)
    models.build_model("builtin:fs:2")
    assert len(runs) == 1
    assert {np.shape(value) for value in runs[0].values()} == {(8,)}


def _bits(points) -> list[str]:
    """The exact bits of each coordinate of ``points``, as ``float.hex`` pairs."""
    return [f"{z.real.hex()},{z.imag.hex()}" for z in np.ravel(points)]


def _digest(points) -> str:
    return hashlib.sha256(" ".join(_bits(points)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("domain, m, first, digest", [
    (geo.ball(1.0), 1, ["-0x1.56ad3fb0d7f8ap-2,-0x1.1af5712df181fp-1"], "ed9e2ae0c410383f"),
    (geo.ball(0.8), 3, [
        "-0x1.00a316b5ccbfcp-2,0x1.0d1ad9bf3dec9p-3", "-0x1.a7d386887d42fp-2,0x1.6b8fd367ef544p-2",
        "-0x1.3ded2a33c5375p-4,0x1.18de82ff09935p-5",
    ], "7813bdb3a0ae7925"),
    (geo.ball(1.0), 4, [
        "-0x1.cba5469b918c4p-3,0x1.45936248fad46p-2", "-0x1.7b8b25f440f7fp-2,0x1.f70bd09b265fdp-6",
        "-0x1.1cb55d5f4fc77p-4,-0x1.3cc33c43b806cp-3", "0x1.e1f9d41d4e139p-4,-0x1.c1d0a8bee78d7p-3",
    ], "9aa6add6c9bff10a"),
    (geo.polydisc(0.5, 1.0, 2.0), 3, [
        "0x1.266be9c9e4887p-3,-0x1.8257b4bc9cadep-2", "-0x1.272326f36a902p-3,0x1.4274ef228404bp-1",
        "-0x1.3e2a076bb3a37p-2,0x1.1e59005e85495p-2",
    ], "88a4e97924388c2a"),
])
def test_sampled_points_keep_their_bits(domain, m, first, digest):
    # Every pinned failing point and residual rests on these draws.
    rng = np.random.default_rng(5)
    points = [domain.sample_point(rng, m) for _ in range(4)]
    assert _bits(points[0]) == first
    assert _digest(points) == digest


@pytest.mark.parametrize("domain, m", [
    (geo.ball(1.0), 1), (geo.ball(0.8), 3), (geo.ball(1.0), 4), (geo.polydisc(0.5, 1.0, 2.0), 3),
])
def test_the_reality_points_are_eight_seeded_draws(domain, m):
    rng = np.random.default_rng(1811)
    fresh = [domain.sample_point(rng, m) for _ in range(8)]
    points = geo._reality_points(domain, m)
    assert _bits(points) == _bits(fresh)
    assert not points.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 4])
def test_the_fill_tables_are_read_only(m):
    blocks, _ = geo._conjugate_fill(m)
    for block in blocks:
        assert not any(array.flags.writeable for array in block)


def test_a_second_build_on_a_domain_draws_no_points(monkeypatch):
    draws = []
    real_sample = geo.ChartDomain.sample_point
    monkeypatch.setattr(geo.ChartDomain, "sample_point", lambda *a: draws.append(a) or real_sample(*a))
    geo._reality_points.cache_clear()
    potential = models.flat_potential(2)
    geo.KahlerManifold(2, potential, geo.polydisc(0.5, 1.0))
    assert len(draws) == 8
    geo.KahlerManifold(2, potential, geo.polydisc(0.5, 1.0))  # an equal domain, not the same object
    assert len(draws) == 8


def test_the_reality_check_points_keep_their_bits(monkeypatch):
    runs = _count_tape_runs(monkeypatch)
    models.build_model("builtin:fs:2")
    points = np.stack([runs[0][ex.z(1)], runs[0][ex.z(2)]], axis=-1)
    assert _bits(points[0]) == ["0x1.4f472a08c49eep-1,-0x1.1151dba816187p-1", "-0x1.2c7bc54b9ff41p-2,-0x1.4fdd85b40011fp-1"]
    assert _digest(points) == "64491f685120e438"


def test_a_potential_that_overflows_at_some_points_is_still_tested_at_the_rest(monkeypatch):
    # exp(2000|z|^2) overflows at 5 of the 8 seeded points of the unit disc:
    # each stacked run that raises drops the point it names, and the rest run again.
    runs = _count_tape_runs(monkeypatch)
    text = "(1 + 0.5i)*exp(2000*z1*zb1)"
    with pytest.raises(ValueError) as err:
        geo.KahlerManifold(1, ex.parse_expression(text, 1, ("z", "zb")), geo.ball(1.0))
    assert str(err.value).startswith("potential is not real on the chart: K([-0.3352157+0.46429241j]) = (")
    assert len(runs) == 1 + 5


def test_a_real_potential_that_overflows_at_some_points_builds():
    m = geo.KahlerManifold(1, ex.parse_expression("exp(2000*z1*zb1)", 1, ("z", "zb")), geo.ball(1.0))
    assert m.m == 1


@pytest.mark.parametrize("blocks", [1, 4, 5])
def test_a_domain_error_of_a_built_chart_names_its_subexpression(blocks):
    text = "z1*zb1 + z1*zb1*log(z1*zb1)"
    m = geo.KahlerManifold(1, ex.parse_expression(text, 1, ("z", "zb")), geo.ball(1.0))
    with pytest.raises(ex.EvaluationDomainError) as err:
        m.jets([0j], blocks)
    assert str(err.value) == "log of zero in subexpression 'log(z1 * zb1)'"


@pytest.mark.parametrize("blocks", [1, 4, 5])
def test_an_overflow_of_a_built_chart_names_its_derived_subexpression(blocks):
    # The failing power is made by differentiation; it is not in the potential.
    potential = ex.parse_expression("z1*zb1 + (z1*zb1)^200", 1, ("z", "zb"))
    m = geo.KahlerManifold(1, potential, geo.ball(1.0))
    with pytest.raises(ex.EvaluationDomainError) as err:
        m.jets([100.0], blocks)
    assert str(err.value) == "overflow in subexpression '(z1 * zb1)^198'"


# ------------------------------------------------------------- christoffel


def test_flat_christoffel_zero(flat2, rng):
    c = _christoffel(flat2, flat2.sample_point(rng))
    assert np.max(np.abs(c.gamma)) == 0.0


def test_fs1_christoffel_at_origin_zero():
    c = _christoffel(_fs1(), [0.0])
    assert np.max(np.abs(c.gamma)) < 1e-14


def test_christoffel_against_finite_differences():
    # Gamma^k_ij = g^{k lbar} d_i g_{j lbar}; the derivative via independent
    # Wirtinger finite differences of the metric entries.
    m = _fs1()
    p = np.array([0.5 + 0j])
    gm = geo.metric_at(m, p)
    c = _christoffel(m, p)

    def g_entry(value):
        return m.metric_matrix(np.array([value]))[0, 0]

    dg, _ = wirtinger_fd(g_entry, complex(p[0]), step=1e-5)
    expected = gm.inverse[0, 0] * dg
    assert abs(c.gamma[0, 0, 0] - expected) < 1e-6 * max(1.0, abs(expected))


def test_christoffel_symmetry(fs3, rng):
    c = _christoffel(fs3, fs3.sample_point(rng))
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


@pytest.mark.parametrize("name", ["fs3", "product", "mixed", "flat_pullback"])
def test_chart_jets_are_exactly_conjugate_symmetric(name, request, tmp_path):
    if name == "flat_pullback":
        chart = models.load_manifold(request.getfixturevalue("flat_pullback_path"))
    elif name == "mixed":
        chart = _mixed_chart(tmp_path)
    else:
        chart = request.getfixturevalue(name)
    m = chart.m
    # The tape holds g, dg and one d2g entry per pair of sorted index pairs.
    pairs = m * (m + 1) // 2
    assert len(chart.tape.run(chart.assignment(np.zeros(m)))) == m * m + m**3 + pairs * (pairs + 1) // 2
    rng = np.random.default_rng(21)
    for _ in range(3):
        _, dg, dgb, d2g = chart.jets(chart.sample_point(rng))
        assert np.array_equal(dgb, np.swapaxes(dg, 1, 2).conj())
        # An entry whose sorted holomorphic and antiholomorphic pairs are
        # equal is its own partner: real, up to the tape's round-off.
        i, j, k, l = np.indices(d2g.shape)
        own = (np.minimum(i, k) == np.minimum(j, l)) & (np.maximum(i, k) == np.maximum(j, l))
        partner = d2g.transpose(1, 0, 3, 2).conj()
        assert np.array_equal(d2g[~own], partner[~own])
        assert np.max(np.abs(d2g[own].imag)) <= 1e-14 * np.max(np.abs(d2g), initial=1.0)


# On tape jets the pair and conjugation symmetries hold by construction
# (each mixed partial is one shared node, and the conjugate blocks are
# filled from it), except the realness of the d2g entries that are their
# own conjugate partner; callers may pass jets of their own, so
# ``curvature_tensor`` still validates them.
@pytest.mark.parametrize(
    "where, delta",
    [
        # d2g[0, 0, 1, 0] and its conjugate twin d2g[0, 0, 0, 1] moved together:
        # conjugation symmetry holds, (i, k) symmetry with d2g[1, 0, 0, 0] breaks
        (((0, 0, 1, 0), (0, 0, 0, 1)), (1e-6 + 2e-6j, 1e-6 - 2e-6j)),
        # an imaginary part on the diagonal component, which must be real
        (((0, 0, 0, 0),), (1e-6j,)),
    ],
    ids=["pair", "conjugation"],
)
def test_curvature_tensor_rejects_asymmetric_jets(fs3, where, delta):
    p = fs3.sample_point(np.random.default_rng(3))
    jets = fs3.jets(p)
    metric = geo.hermitian_metric(p, jets[0])
    geo.curvature_tensor(p, metric, jets)
    d2g = jets[3].copy()
    for index, step in zip(where, delta):
        d2g[index] += step
    with pytest.raises(geo.GeometryError, match="curvature symmetries violated"):
        geo.curvature_tensor(p, metric, [*jets[:3], d2g])


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
    ric = geo.point_data(flat2, flat2.sample_point(rng)).ricci
    assert np.max(np.abs(ric.matrix)) == 0.0


def test_fs1_einstein_ratio_constant():
    m = _fs1()
    ratios = []
    for p in ([0.0], [0.5]):
        ric = geo.point_data(m, p).ricci
        gm = geo.metric_at(m, p)
        ratios.append((ric.matrix[0, 0] / gm.matrix[0, 0]).real)
    assert abs(ratios[0] - ratios[1]) < 1e-9


def test_ricci_evaluator_j_invariance(fs3, rng):
    p = fs3.sample_point(rng)
    ric = geo.point_data(fs3, p).ricci
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
        ric = geo.point_data(manifold, p).ricci
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
    ric = geo.point_data(product, product.sample_point(rng)).ricci
    gm = ric.metric
    block1 = (ric.matrix[0, 0] / gm.matrix[0, 0]).real
    block2 = (ric.matrix[1, 1] / gm.matrix[1, 1]).real
    assert abs(block1 - block2) > 1e-6


# -------------------------------------------------------- scalar curvature


def test_flat_scalar_zero(flat2, rng):
    assert geo.point_data(flat2, flat2.sample_point(rng)).tau == 0.0


def test_fs2_scalar_constant(fs2, rng):
    values = [
        geo.point_data(fs2, fs2.sample_point(rng)).tau for _ in range(10)
    ]
    assert np.ptp(values) < 1e-9
    assert values[0] > 0


def test_chyp2_scalar_negative(chyp2, rng):
    assert geo.point_data(chyp2, chyp2.sample_point(rng)).tau < 0


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
    pd = geo.point_data(fs2, p)
    ric, tau = pd.ricci, pd.tau
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
    """Reference: one frame by Gram-Schmidt over h, one vector at a time.  A
    pivot at most ``_PIVOT`` times the h-length of its seed row fails the draw."""
    h = gm.hermitian_product
    for _ in range(64):
        raw = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        basis = []
        for w in raw:
            floor = geo._PIVOT * np.sqrt(h(w, w).real)
            for v in basis:
                w = w - (h(w, v) / h(v, v)) * v
            if not np.sqrt(max(h(w, w).real, 0.0)) > floor:
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
    ric = geo.point_data(product, p).ricci
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
    """Generator stand-in: ``normal`` and ``standard_normal`` hand out
    ``override(call, values)`` for values drawn from a real generator, and
    record each size."""

    def __init__(self, seed, override=lambda call, values: values):
        self.real = np.random.default_rng(seed)
        self.override = override
        self.sizes = []

    def normal(self, size):
        self.sizes.append(size)
        return self.override(len(self.sizes), self.real.normal(size=size))

    def standard_normal(self, size):
        return self.normal(size)


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


def test_a_sampler_given_its_first_draw_keeps_the_bits(fs3):
    # The first draw made beforehand from the same generator, with a redraw
    # forced after it: the same draws, frames and generator state.
    gm = geo.metric_at(fs3, fs3.sample_point(np.random.default_rng(3)))

    def dependent(call, values):
        if call <= 2:  # the dependent frame of test_only_the_dependent_frame_is_redrawn
            values[1, 2] = values[1, 0]
        return values

    def zero(call, values):
        if call <= 2:  # one zero vector, redrawn alone
            values[2, 1] = 0.0
        return values

    for sampler, k, override in ((geo.antiholomorphic_frames, 3, dependent), (geo.unit_tangents, 2, zero)):
        drawn, ahead = _Draws(8, override), _Draws(8, override)
        want = sampler(gm, 4, k, drawn)
        got = sampler(gm, 4, k, ahead, geo.first_draw(ahead, (), 4, k, 3))
        assert len(drawn.sizes) == 4 and ahead.sizes == drawn.sizes, sampler.__name__
        assert got.tobytes() == want.tobytes(), sampler.__name__
    # On a stack of points, from a real generator, drawn in two calls or at once.
    points, g = _metric_stack(fs3, 6, 4)
    stacked = geo.hermitian_metric(points, g)
    for sampler, k in ((geo.unit_tangents, 4), (geo.antiholomorphic_frames, 3)):
        want = sampler(stacked, 5, k, drawn := np.random.default_rng(11))
        for at_once in (False, True):
            ahead = np.random.default_rng(11)
            got = sampler(stacked, 5, k, ahead, geo.first_draw(ahead, (4,), 5, k, 3, at_once=at_once))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (sampler.__name__, at_once)
            assert ahead.bit_generator.state == drawn.bit_generator.state, (sampler.__name__, at_once)


@pytest.mark.parametrize("points, count, k, m", [((2,), 600, 4, 3), ((), 1, 1, 3), ((3,), 7, 2, 2), ((0,), 5, 2, 2)])
def test_a_first_draw_at_once_keeps_the_bits(points, count, k, m):
    want = geo.first_draw(drawn := np.random.default_rng(12), points, count, k, m)
    got = geo.first_draw(once := np.random.default_rng(12), points, count, k, m, at_once=True)
    assert got.shape == want.shape == (*points, count, k, m) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert once.bit_generator.state == drawn.bit_generator.state


def test_dependent_seeds_every_time_raise_frame_error(fs3):
    gm = geo.metric_at(fs3, np.zeros(3))
    stub = _Draws(1, lambda call, values: np.ones_like(values))
    with pytest.raises(geo.FrameError, match="independent"):
        geo.antiholomorphic_frames(gm, 2, 2, stub)
    assert len(stub.sizes) == 2 * 64


def test_zero_pivots_warn_nothing_and_leave_no_nan(fs3):
    gm = geo.metric_at(fs3, np.zeros(3))
    ones = _Draws(1, lambda call, values: np.ones_like(values))
    zeros_first = _Draws(1, lambda call, values: np.zeros_like(values) if call <= 2 else values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.FrameError, match="independent"):
            geo.antiholomorphic_frames(gm, 2, 2, ones)
        frames = geo.antiholomorphic_frames(gm, 2, 2, zeros_first)
    assert zeros_first.sizes == [(2, 2, 3)] * 4
    assert np.all(np.isfinite(frames))
    assert np.allclose(_gram(gm, frames), np.eye(2), rtol=0, atol=1e-12)


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


class _Bounded(_Draws):
    """``_Draws`` that raises after ``limit`` calls, so a sampler that would
    redraw without end fails at once."""

    def __init__(self, seed, override=lambda call, values: values, limit=300):
        super().__init__(seed, override)
        self.limit = limit

    def normal(self, size):
        if len(self.sizes) >= self.limit:
            raise AssertionError(f"sampler still drawing after {self.limit} calls")
        return super().normal(size)


@pytest.mark.parametrize("scale", [1e-20, 1e20])
def test_samplers_do_not_depend_on_the_metric_scale(fs3, scale):
    # Both redraw tests are relative to the draw, so a metric scaled by any
    # factor takes the same draws, and the frames scale by 1/sqrt(factor).
    gm = geo.metric_at(fs3, fs3.sample_point(np.random.default_rng(4)))
    scaled = geo.HermitianMetric(scale * gm.matrix, gm.inverse / scale)
    for sampler, k in ((geo.unit_tangents, 2), (geo.antiholomorphic_frames, 3)):
        stub = _Bounded(6)
        frames = sampler(scaled, 5, k, stub)
        assert stub.sizes == [(5, k, 3)] * 2, sampler.__name__
        want = sampler(gm, 5, k, _Draws(6)) / np.sqrt(scale)
        assert np.max(np.abs(frames - want)) <= 1e-12 * np.max(np.abs(want)), sampler.__name__


def test_zero_unit_draws_every_time_raise_frame_error(fs3):
    gm = geo.metric_at(fs3, np.zeros(3))
    stub = _Bounded(1, lambda call, values: np.zeros_like(values))
    with pytest.raises(geo.FrameError, match="nonzero tangent"):
        geo.unit_tangents(gm, 3, 2, stub)
    assert len(stub.sizes) == 2 * 64


# ------------------------------------------------------ stacks of points


def _metric_stack(manifold, seed, count):
    rng = np.random.default_rng(seed)
    points = np.array([manifold.sample_point(rng) for _ in range(count)])
    return points, np.array([manifold.metric_matrix(p) for p in points])


@pytest.mark.parametrize("chart", ["fs3", "chyp3", "product"])
def test_stacked_samplers_fit_each_point_metric(chart, request):
    # One draw for every point; each point's frames are unit, or orthonormal
    # and antiholomorphic, in that point's own metric, not in another's.
    manifold = request.getfixturevalue(chart)
    points, g = _metric_stack(manifold, 6, 4)
    stacked = geo.hermitian_metric(points, g)
    metrics = [geo.hermitian_metric(p, m) for p, m in zip(points, g)]
    assert not np.allclose(g[0], g[1])
    rng = np.random.default_rng(2)
    units = geo.unit_tangents(stacked, 6, 2, rng)
    frames = geo.antiholomorphic_frames(stacked, 6, 3, rng)
    assert units.shape == (4, 6, 2, 3) and frames.shape == (4, 6, 3, 3)
    for i, gm in enumerate(metrics):
        assert np.allclose(gm.norm(geo.RealTangentVector(units[i])), 1.0, rtol=0, atol=1e-13)
        assert np.allclose(_gram(gm, frames[i]), np.eye(3), rtol=0, atol=1e-12)
        other = metrics[(i + 1) % 4]
        assert not np.allclose(_gram(other, frames[i]), np.eye(3), rtol=0, atol=1e-6)


def test_a_stacked_draw_is_one_call_for_all_points(fs3):
    points, g = _metric_stack(fs3, 6, 4)
    stacked = geo.hermitian_metric(points, g)
    for sampler, k in ((geo.unit_tangents, 2), (geo.antiholomorphic_frames, 3)):
        stub = _Draws(6)
        sampler(stacked, 5, k, stub)
        assert [np.prod(size) for size in stub.sizes] == [4 * 5 * k * 3] * 2, sampler.__name__


@pytest.mark.parametrize("size", [(7,), (4, 3, 2), (0, 3)])
def test_gaussian_seeds_keep_the_bits_of_the_complex_sum(size):
    got = geo._gaussian(np.random.default_rng(9), size)
    ref = np.random.default_rng(9)
    want = ref.normal(size=size) + 1j * ref.normal(size=size)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _frame_draws(manifold, count):
    """Gaussian seeds, unit tangents (k = 1, 2, 4) and antiholomorphic frames
    (k = 2, 3, m) drawn at fixed seeds for a stack of ``count`` points."""
    points, g = _metric_stack(manifold, 8, count)
    metric, m = geo.hermitian_metric(points, g), manifold.m
    draws = {"gaussian": geo._gaussian(np.random.default_rng(21), (count, 7, m))}
    for k in (1, 2, 4):
        draws[f"unit {k}"] = geo.unit_tangents(metric, 6, k, np.random.default_rng(22 + k))
    for k in sorted({2, 3, m}):
        draws[f"frames {k}"] = geo.antiholomorphic_frames(metric, 6, k, np.random.default_rng(30 + k))
    return draws


@pytest.mark.parametrize("chart, count, digests", [
    ("fs3", 2, {
        "gaussian": "f1da4f9f103467bc", "unit 1": "4dcecdf56aac4b63", "unit 2": "640924c84d16e470",
        "unit 4": "0885b6b780b5b4d9", "frames 2": "80c6264907ba15f3", "frames 3": "8111072718ea961d",
    }),
    ("product", 5, {
        "gaussian": "a29b1a924011a167", "unit 1": "1193b2d081211284", "unit 2": "cded4c08ea6ec107",
        "unit 4": "8f9b47be15740cfd", "frames 2": "73411792fbe2de54", "frames 3": "1c02950d50affd2a",
    }),
])
def test_sampled_frames_keep_their_bits(chart, count, digests, request):
    # Every pinned residual and worst case rests on these draws.
    draws = _frame_draws(request.getfixturevalue(chart), count)
    assert {name: _digest(v) for name, v in draws.items()} == digests


def test_a_first_draw_without_redraws_is_two_flat_normal_calls(fs3):
    # One metric or a stack of 4: the real and the imaginary parts of all
    # points' frames, each one (points * count, k, m) call, and nothing more.
    points, g = _metric_stack(fs3, 6, 4)
    for metric, stack in ((geo.hermitian_metric(points[0], g[0]), 1), (geo.hermitian_metric(points, g), 4)):
        stub = _Draws(6)
        frames = geo.antiholomorphic_frames(metric, 5, 3, stub)
        assert stub.sizes == [(stack * 5, 3, 3)] * 2
        assert frames.shape == metric.matrix.shape[:-2] + (5, 3, 3)


def test_a_stacked_frame_error_names_its_point(fs3):
    points, g = _metric_stack(fs3, 6, 3)
    stacked = geo.hermitian_metric(points, g)

    def dependent(call, values):
        # point 1's second frame (row 3 of the first draw), and every redraw
        values[3 if call <= 2 else 0, 1] = values[3 if call <= 2 else 0, 0]
        return values

    with pytest.raises(geo.FrameError, match="independent") as info:
        geo.antiholomorphic_frames(stacked, 2, 2, _Draws(1, dependent))
    assert info.value.index == (1,)


@pytest.mark.parametrize("bad", [0, 2])
def test_a_stacked_metric_failure_keeps_the_one_point_text(bad, fs3):
    points, g = _metric_stack(fs3, 6, 3)
    g[bad] = -g[bad]
    with pytest.raises(geo.MetricError) as one:
        geo.hermitian_metric(points[bad], g[bad])
    with pytest.raises(geo.MetricError) as stacked:
        geo.hermitian_metric(points, g)
    assert str(stacked.value) == str(one.value)
    assert ": smallest eigenvalue -" in str(one.value) and one.value.index == ()
    assert stacked.value.index == (bad,)


def test_a_stacked_metric_test_names_the_first_point_of_its_first_failing_test(fs3):
    # The tests run one after another over the stack: point 2 fails the first
    # (finiteness), point 1 a later one (positivity), and point 2 is named.
    # A run names point 1 (tests/test_cli.py).
    points, g = _metric_stack(fs3, 6, 4)
    g[2, 0, 0] = np.nan
    g[1] = -g[1]
    g[3, 0, 1] += 1.0  # not Hermitian
    with pytest.raises(geo.MetricError, match="not finite") as info:
        geo.hermitian_metric(points, g)
    assert info.value.index == (2,)
    assert str(info.value) == f"metric not finite at {points[2]}"
