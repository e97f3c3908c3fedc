"""Second fundamental form, mean curvature, Weingarten split, Codazzi."""

import math

import numpy as np
import pytest

from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import models
from kahlercheck import submanifold as sub


@pytest.fixture(scope="module")
def sphere():
    return models.sphere_in_flat2(1.0)


@pytest.fixture(scope="module")
def sphere2():
    return models.sphere_in_flat2(2.0)


@pytest.fixture(scope="module")
def linear():
    return models.linear_subspace_in_flat3()


@pytest.fixture(scope="module")
def ellipsoid():
    return models.ellipsoid_in_flat2()


@pytest.fixture(scope="module")
def cylinder():
    return models.cylinder_in_flat2()


@pytest.fixture(scope="module")
def cp1():
    return models.cp1_in_cp2()


@pytest.fixture(scope="module")
def real_slice():
    return models.real_slice_in_flat2()


def _ambient_norm(imm, u, w):
    gm = geo.metric_at(imm.ambient, imm.value(u))
    return math.sqrt(max(2.0 * gm.hermitian_product(w, w).real, 0.0))


def _mean_curvature_norm(imm, u):
    return _ambient_norm(imm, u, sub.mean_curvature(imm, u))


# ---------------------------------------------------------- induced metric


def test_linear_disc_metric_carries_identification_factor():
    # z = (u1 + i u2, 0) in the flat chart: ghat = 2 * identity.
    flat2 = models.build_model("builtin:flat:2")
    imm = sub.Immersion(
        flat2,
        2,
        [ex.add(ex.u(1), ex.mul(ex.const(1j), ex.u(2))), ex.const(0)],
        sub.box(-1.0, 1.0, -1.0, 1.0),
        name="disc",
    )
    g = sub.induced_metric(imm, [0.3, -0.4])
    assert np.allclose(g, 2.0 * np.eye(2), atol=1e-14)


def test_sphere_induced_metric_is_round(sphere):
    u = np.array([1.0, 2.0])
    g = sub.induced_metric(sphere, u)
    expected = np.diag([1.0, math.sin(1.0) ** 2])
    assert np.allclose(g, expected, atol=1e-12)


def test_induced_metric_symmetric(ellipsoid, rng):
    u = ellipsoid.domain.sample(rng)
    g = sub.induced_metric(ellipsoid, u)
    assert np.max(np.abs(g - g.T)) < 1e-12


def test_rank_deficiency_detected():
    flat2 = models.build_model("builtin:flat:2")
    degenerate = sub.Immersion(
        flat2,
        2,
        [ex.u(1), ex.const(0)],  # u2 unused
        sub.box(-1.0, 1.0, -1.0, 1.0),
        name="degenerate",
    )
    with pytest.raises(sub.RankError, match="singular value"):
        sub.induced_metric(degenerate, [0.1, 0.1])


# ----------------------------------------------------------- alpha, H, umbilic


def test_linear_subspace_totally_geodesic(linear, rng):
    u = linear.domain.sample(rng)
    assert np.max(np.abs(sub.second_fundamental_form(linear, u))) == 0.0


def test_cp1_in_cp2_totally_geodesic(cp1, rng):
    for _ in range(3):
        u = cp1.domain.sample(rng)
        alpha = sub.second_fundamental_form(cp1, u)
        worst = max(
            _ambient_norm(cp1, u, alpha[a, b]) for a in range(2) for b in range(2)
        )
        assert worst < 1e-9


def test_alpha_symmetric_and_normal(ellipsoid, rng):
    u = ellipsoid.domain.sample(rng)
    alpha = sub.second_fundamental_form(ellipsoid, u)
    assert np.max(np.abs(alpha - alpha.transpose(1, 0, 2))) < 1e-9
    gm = geo.metric_at(ellipsoid.ambient, ellipsoid.value(u))
    tangents = ellipsoid.jacobian(u)
    for a in range(2):
        for b in range(2):
            for t in tangents:
                ip = 2.0 * gm.hermitian_product(alpha[a, b], t).real
                assert abs(ip) < 1e-9


def test_sphere_umbilical_with_unit_mean_curvature(sphere, rng):
    for _ in range(3):
        u = sphere.domain.sample(rng)
        assert sub.umbilical_residual(sphere, u) < 1e-8
        assert abs(_mean_curvature_norm(sphere, u) - 1.0) < 1e-8


def test_mean_curvature_scaling_law(sphere, sphere2, rng):
    u = sphere.domain.sample(rng)
    h1 = _mean_curvature_norm(sphere, u)
    h2 = _mean_curvature_norm(sphere2, u)
    assert abs(h1 - 2.0 * h2) < 1e-8


def test_geodesic_fixtures_have_zero_mean_curvature(linear, cp1, real_slice, rng):
    for imm in (linear, cp1, real_slice):
        u = imm.domain.sample(rng)
        assert _mean_curvature_norm(imm, u) < 1e-10


def test_ellipsoid_not_umbilical(ellipsoid):
    assert sub.umbilical_residual(ellipsoid, np.array([1.0, 2.0])) > 1e-3


def test_cylinder_not_umbilical(cylinder, rng):
    u = cylinder.domain.sample(rng)
    assert sub.umbilical_residual(cylinder, u) > 1e-3


def test_mean_curvature_in_span_of_alpha(sphere, rng):
    u = sphere.domain.sample(rng)
    alpha = sub.second_fundamental_form(sphere, u)
    h = sub.mean_curvature(sphere, u)
    values = alpha.reshape(-1, alpha.shape[-1])
    coeffs, *_ = np.linalg.lstsq(values.T, h, rcond=None)
    assert np.max(np.abs(values.T @ coeffs - h)) < 1e-10


# ------------------------------------------------------------- frame_at


def test_frame_at_orthogonality(ellipsoid, rng):
    u = ellipsoid.domain.sample(rng)
    frame = sub.frame_at(ellipsoid, u)
    gm = geo.metric_at(ellipsoid.ambient, ellipsoid.value(u))
    assert len(frame.normals) == 2 * ellipsoid.ambient.m - ellipsoid.n
    for t in frame.tangents:
        for nv in frame.normals:
            assert abs(gm.inner(t, nv)) < 1e-10
    for i, a in enumerate(frame.normals):
        for j, b in enumerate(frame.normals):
            want = 1.0 if i == j else 0.0
            assert abs(gm.inner(a, b) - want) < 1e-10


def test_real_slice_tangent_plane_is_antiholomorphic(real_slice, rng):
    u = real_slice.domain.sample(rng)
    frame = sub.frame_at(real_slice, u)
    gm = geo.metric_at(real_slice.ambient, real_slice.value(u))
    for a in frame.tangents:
        for b in frame.tangents:
            assert abs(gm.inner_j(a, b)) < 1e-12


# ------------------------------------------------------------- weingarten


def test_weingarten_constant_normal_on_linear_subspace(linear, rng):
    u = linear.domain.sample(rng)
    xi = [ex.const(0), ex.const(0), ex.const(1)]
    split = sub.weingarten_split(linear, u, xi, [1.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(split.tangential.components)) == 0.0
    assert np.max(np.abs(split.normal.components)) == 0.0


def test_weingarten_sphere_shape_operator(sphere, rng):
    # Inward unit normal xi = -f / (sqrt(2) rho): A_xi = (1/r) id, D_X xi = 0.
    rho = 1.0 / math.sqrt(2.0)
    xi = [ex.mul(ex.const(-1.0 / (math.sqrt(2.0) * rho)), c) for c in sphere.components]
    u = sphere.domain.sample(rng)
    gm = geo.metric_at(sphere.ambient, sphere.value(u))
    ghat = sub.induced_metric(sphere, u)
    tangents = sphere.jacobian(u)
    for a in range(2):
        coeffs = np.zeros(2)
        coeffs[a] = 1.0
        split = sub.weingarten_split(sphere, u, xi, coeffs)
        a_xi = -split.tangential.components
        for b in range(2):
            got = 2.0 * gm.hermitian_product(a_xi, tangents[b]).real
            assert abs(got - ghat[a, b]) < 1e-10
        assert np.max(np.abs(split.normal.components)) < 1e-12


def test_weingarten_split_reconstructs_ambient_derivative(sphere, rng):
    rho = 1.0 / math.sqrt(2.0)
    # outward radial unit field
    xi = [ex.mul(ex.const(1.0 / (math.sqrt(2.0) * rho)), c) for c in sphere.components]
    u = sphere.domain.sample(rng)
    split = sub.weingarten_split(sphere, u, xi, [0.7, -0.2])
    # flat ambient: derivative of f/(sqrt2 rho) along X is v_X/(sqrt2 rho)
    v = (np.array([0.7, -0.2]) @ sphere.jacobian(u)) / (math.sqrt(2.0) * rho)
    total = split.tangential.components + split.normal.components
    assert np.max(np.abs(total - v)) < 1e-12


def _ellipsoid_normal_field(axes):
    # Gradient of x^2/a^2 + y^2/b^2 + z^2/c^2 at the surface point, written
    # back in the parameters; normal in the flat chart metric.
    a, b, c = axes
    u1, u2 = ex.u(1), ex.u(2)
    from kahlercheck.models import _cos, _sin

    f1 = ex.add(
        ex.mul(ex.const(1.0 / a), ex.mul(_sin(u1), _cos(u2))),
        ex.mul(ex.const(1j / b), ex.mul(_sin(u1), _sin(u2))),
    )
    f2 = ex.mul(ex.const(1.0 / c), _cos(u1))
    return [f1, f2]


def test_weingarten_self_adjointness_identity(ellipsoid, rng):
    # g(A_xi X, Y) = g(alpha(X, Y), xi) with a genuine normal field.
    xi = _ellipsoid_normal_field((0.7, 0.9, 0.55))
    u = ellipsoid.domain.sample(rng)
    gm = geo.metric_at(ellipsoid.ambient, ellipsoid.value(u))
    alpha = sub.second_fundamental_form(ellipsoid, u)
    xi0 = np.array([ex.evaluate(c, ellipsoid.assignment(u)) for c in xi])
    tangents = ellipsoid.jacobian(u)
    for a in range(2):
        coeffs = np.zeros(2)
        coeffs[a] = 1.0
        split = sub.weingarten_split(ellipsoid, u, xi, coeffs)
        a_xi = -split.tangential.components
        for b in range(2):
            lhs = 2.0 * gm.hermitian_product(a_xi, tangents[b]).real
            rhs = 2.0 * gm.hermitian_product(alpha[a, b], xi0).real
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


def test_weingarten_rejects_non_normal_field(sphere, rng):
    u = sphere.domain.sample(rng)
    with pytest.raises(sub.NotNormalError):
        sub.weingarten_split(sphere, u, [ex.const(1), ex.const(0)], [1.0, 0.0])


# ---------------------------------------------------------------- codazzi


def test_codazzi_general_linear_subspace(linear, rng):
    u = linear.domain.sample(rng)
    assert sub.codazzi_residual_general(linear, u, 0, 1, 2) < 1e-12


def test_codazzi_general_sphere(sphere, rng):
    for _ in range(3):
        u = sphere.domain.sample(rng)
        for c in range(2):
            assert sub.codazzi_residual_general(sphere, u, 0, 1, c) < 1e-5


def test_codazzi_general_cp1(cp1, rng):
    u = cp1.domain.sample(rng)
    for c in range(2):
        assert sub.codazzi_residual_general(cp1, u, 0, 1, c) < 1e-5


def test_codazzi_general_ellipsoid(ellipsoid, rng):
    # Codazzi holds on every immersion, umbilical or not.
    u = ellipsoid.domain.sample(rng)
    for c in range(2):
        assert sub.codazzi_residual_general(ellipsoid, u, 0, 1, c) < 1e-5


def test_codazzi_umbilical_sphere(sphere, rng):
    for _ in range(2):
        u = sphere.domain.sample(rng)
        for c in range(2):
            assert sub.codazzi_residual_umbilical(sphere, u, 0, 1, c) < 1e-6


def test_codazzi_umbilical_cp1(cp1, rng):
    u = cp1.domain.sample(rng)
    for c in range(2):
        assert sub.codazzi_residual_umbilical(cp1, u, 0, 1, c) < 1e-6


def test_codazzi_umbilical_rejects_ellipsoid(ellipsoid, rng):
    u = ellipsoid.domain.sample(rng)
    with pytest.raises(sub.NotUmbilicalError, match="not computed"):
        sub.codazzi_residual_umbilical(ellipsoid, u, 0, 1, 0)


def test_umbilical_reduction_consistency(sphere, rng):
    # On umbilical immersions the general and reduced residuals agree.
    u = sphere.domain.sample(rng)
    for c in range(2):
        general = sub.codazzi_residual_general(sphere, u, 0, 1, c)
        reduced = sub.codazzi_residual_umbilical(sphere, u, 0, 1, c)
        assert abs(general - reduced) < 1e-5


def test_codazzi_holds_on_every_builtin_fixture(rng):
    # Universal identity: general Codazzi residual < 1e-5 on all fixtures
    # at 5 interior parameter points (finite-difference floor governs).
    for imm, _ in models.builtin_immersions():
        for _ in range(5):
            u = imm.domain.sample(rng)
            n = imm.n
            worst = max(
                sub.codazzi_residual_general(imm, u, a, b, c)
                for a in range(n)
                for b in range(a + 1, n)
                for c in range(n)
            )
            assert worst < 1e-5, (imm.name, u, worst)


def test_umbilical_reduction_consistency_on_umbilic_fixtures(rng):
    for imm, expect in models.builtin_immersions():
        if not expect["umbilic"]:
            continue
        u = imm.domain.sample(rng)
        n = imm.n
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    general = sub.codazzi_residual_general(imm, u, a, b, c)
                    reduced = sub.codazzi_residual_umbilical(imm, u, a, b, c)
                    assert abs(general - reduced) < 1e-5


def test_per_point_codazzi_is_the_worst_per_triple_residual(rng):
    # The CLI's per-point residual and the public per-triple functions
    # select from one computation, so they agree exactly.
    for imm, expect in models.builtin_immersions():
        u = imm.domain.sample(rng)
        n = imm.n
        triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(n)]
        general = max(sub.codazzi_residual_general(imm, u, *t) for t in triples)
        assert sub.CHECKS["codazzi-general"](imm, u) == general, imm.name
        if expect["umbilic"]:
            reduced = max(sub.codazzi_residual_umbilical(imm, u, *t) for t in triples)
            assert sub.CHECKS["codazzi-umbilical"](imm, u) == reduced, imm.name


def test_codazzi_stencil_needs_room(sphere):
    u = np.array([0.35, 3.0])  # on the box edge in u1
    with pytest.raises(sub.ParameterDomainError, match="stencil"):
        sub.codazzi_residual_general(sphere, u, 0, 1, 0)


# ----------------------------------------------------------- parallel mean


def test_parallel_h_sphere(sphere, rng):
    assert sub.parallel_h_check(sphere, 3, rng) < 1e-5


def test_parallel_h_geodesic_fixtures(linear, cp1, rng):
    assert sub.parallel_h_check(linear, 2, rng) < 1e-6
    assert sub.parallel_h_check(cp1, 2, rng) < 1e-6


def test_parallel_h_fails_on_ellipsoid(ellipsoid, rng):
    assert sub.parallel_h_check(ellipsoid, 3, rng) > 1e-3


def test_parallel_h_check_rejects_zero_points_by_name(sphere, rng):
    with pytest.raises(ValueError, match="points >= 1, got 0"):
        sub.parallel_h_check(sphere, 0, rng)


def test_parallel_h_cylinder(cylinder, rng):
    # Circle times line has constant |H| and parallel mean curvature.
    assert sub.parallel_h_check(cylinder, 2, rng) < 1e-5


def test_remark_umbilic_in_constant_hsc_ambient_has_parallel_h(rng):
    for imm, expect in models.builtin_immersions():
        if expect["umbilic"]:
            assert sub.parallel_h_check(imm, 2, rng) < 1e-5


# ------------------------------------------------------ immersion validation


def test_immersion_leaving_chart_detected():
    fs2 = models.build_model("builtin:fs:2")
    imm = sub.Immersion(
        fs2,
        1,
        [ex.mul(ex.const(3.0), ex.u(1)), ex.const(0)],
        sub.box(-1.0, 1.0),
        name="escape",
    )
    with pytest.raises(geo.DomainError, match="chart"):
        imm.value([0.9])


def test_immersion_component_count_checked():
    fs2 = models.build_model("builtin:fs:2")
    with pytest.raises(ValueError, match="component"):
        sub.Immersion(fs2, 1, [ex.u(1)], sub.box(-1.0, 1.0))


def test_parameter_point_outside_box(sphere):
    with pytest.raises(sub.ParameterDomainError):
        sub.induced_metric(sphere, [10.0, 0.5])


@pytest.mark.parametrize("fixture", ["linear", "cp1"])
def test_state_runs_the_ambient_tape_once(fixture, request, rng, monkeypatch):
    imm = request.getfixturevalue(fixture)
    u = imm.domain.sample(rng)
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    sub._state(imm, u)
    assert sum(tape is imm.ambient.tape for tape in runs) == 1


@pytest.mark.parametrize("fixture", ["linear", "sphere", "cp1"])
def test_state_and_alpha_run_the_immersion_tape_once(fixture, request, rng, monkeypatch):
    imm = request.getfixturevalue(fixture)
    u = imm.domain.sample(rng)
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    sub._second_fundamental_form(sub._state(imm, u))
    assert sum(tape is imm.tape for tape in runs) == 1


def test_weingarten_split_runs_one_tape_for_the_normal_field(sphere, rng, monkeypatch):
    xi = [ex.mul(ex.const(-1.0), c) for c in sphere.components]
    u = sphere.domain.sample(rng)
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    sub.weingarten_split(sphere, u, xi, [0.3, 0.8])
    own = [t for t in runs if t is not sphere.tape and t is not sphere.ambient.tape]
    assert len(own) == 1


def test_codazzi_residuals_are_one_array_per_point(sphere, linear, rng):
    for imm in (sphere, linear):
        u = imm.domain.sample(rng)
        general = sub._codazzi_general(imm, u)
        reduced = sub._codazzi_umbilical(imm, u)
        n = imm.n
        assert general.shape == reduced.shape == (n, n, n)
        assert sub.codazzi_residual_general(imm, u, 0, 1, n - 1) == general[0, 1, n - 1]
        assert sub.codazzi_residual_umbilical(imm, u, 0, 1, n - 1) == reduced[0, 1, n - 1]
