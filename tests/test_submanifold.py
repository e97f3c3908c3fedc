"""Second fundamental form, mean curvature, Weingarten identity, Codazzi."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models
from kahlercheck import submanifold as sub
from kahlercheck.oracle import richardson_derivative


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
    g = sub.state(imm, [0.3, -0.4]).induced
    assert np.allclose(g, 2.0 * np.eye(2), atol=1e-14)


def test_sphere_induced_metric_is_round(sphere):
    u = np.array([1.0, 2.0])
    g = sub.state(sphere, u).induced
    expected = np.diag([1.0, math.sin(1.0) ** 2])
    assert np.allclose(g, expected, atol=1e-12)


def test_induced_metric_symmetric(ellipsoid, rng):
    u = ellipsoid.domain.sample(rng)
    g = sub.state(ellipsoid, u).induced
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
        sub.state(degenerate, [0.1, 0.1])


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
    tangents = ellipsoid.jets(u, 2)[1]
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


def test_real_slice_tangent_plane_is_antiholomorphic(real_slice, rng):
    u = real_slice.domain.sample(rng)
    tangents = [geo.RealTangentVector(t) for t in real_slice.jets(u, 2)[1]]
    gm = geo.metric_at(real_slice.ambient, real_slice.value(u))
    for a in tangents:
        for b in tangents:
            assert abs(gm.inner_j(a, b)) < 1e-12


# ------------------------------------------------------------- weingarten


def _flat_derivatives(imm, xi, u):
    """A field xi over the parameters and its derivatives d_a xi, shape (n, m),
    at ``u``.  In a flat chart d_a xi is the ambient derivative along T_a."""
    dag = ex.Dag()
    fields = [dag.intern_id(c) for c in xi]
    us = [dag.intern_id(ex.Var(ex.U, a + 1)) for a in range(imm.n)]
    partials = [dag.derive(c, v) for v in us for c in fields]
    values = np.array(dag.lower(fields + partials).run(imm.assignment(u)))
    return values[: len(xi)], values[len(xi) :].reshape(imm.n, len(xi))


def _assert_weingarten_identity(imm, xi, u):
    # For a normal field xi, g(d_a xi, T_b) = -g(xi, nabla_{T_a} T_b) = -g(alpha(T_a, T_b), xi):
    # an independent route to the normal components of alpha.
    gm = geo.metric_at(imm.ambient, imm.value(u))
    alpha = sub.second_fundamental_form(imm, u)
    tangents = imm.jets(u, 2)[1]
    xi0, dxi = _flat_derivatives(imm, xi, u)
    for a in range(imm.n):
        assert abs(2.0 * gm.hermitian_product(xi0, tangents[a]).real) < 1e-12
        for b in range(imm.n):
            lhs = 2.0 * gm.hermitian_product(dxi[a], tangents[b]).real
            rhs = -2.0 * gm.hermitian_product(alpha[a, b], xi0).real
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


def test_weingarten_constant_normal_on_linear_subspace(linear, rng):
    _assert_weingarten_identity(linear, [ex.const(0), ex.const(0), ex.const(1)], linear.domain.sample(rng))


def test_weingarten_sphere_shape_operator(sphere, rng):
    # Inward unit normal xi = -f / (sqrt(2) rho): A_xi = (1/r) id, so g(alpha(X, Y), xi) = ghat(X, Y).
    rho = 1.0 / math.sqrt(2.0)
    xi = [ex.mul(ex.const(-1.0 / (math.sqrt(2.0) * rho)), c) for c in sphere.components]
    u = sphere.domain.sample(rng)
    _assert_weingarten_identity(sphere, xi, u)
    st, xi0 = sub.state(sphere, u), _flat_derivatives(sphere, xi, u)[0]
    got = 2.0 * st.metric.hermitian_product(st.alpha, xi0).real
    assert np.max(np.abs(got - st.induced)) < 1e-10


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
    _assert_weingarten_identity(ellipsoid, _ellipsoid_normal_field((0.7, 0.9, 0.55)), ellipsoid.domain.sample(rng))


# ---------------------------------------------------------------- codazzi


def test_codazzi_general_linear_subspace(linear, rng):
    u = linear.domain.sample(rng)
    assert sub.codazzi_residual_general(linear, u, 0, 1, 2) < 1e-12


def test_codazzi_general_sphere(sphere, rng):
    for _ in range(3):
        u = sphere.domain.sample(rng)
        for c in range(2):
            assert sub.codazzi_residual_general(sphere, u, 0, 1, c) < 1e-12


def test_codazzi_general_cp1(cp1, rng):
    u = cp1.domain.sample(rng)
    for c in range(2):
        assert sub.codazzi_residual_general(cp1, u, 0, 1, c) < 1e-12


def test_codazzi_general_ellipsoid(ellipsoid, rng):
    # Codazzi holds on every immersion, umbilical or not.
    u = ellipsoid.domain.sample(rng)
    for c in range(2):
        assert sub.codazzi_residual_general(ellipsoid, u, 0, 1, c) < 1e-12


def test_codazzi_umbilical_sphere(sphere, rng):
    for _ in range(2):
        u = sphere.domain.sample(rng)
        for c in range(2):
            assert sub.codazzi_residual_umbilical(sphere, u, 0, 1, c) < 1e-12


def test_codazzi_umbilical_cp1(cp1, rng):
    u = cp1.domain.sample(rng)
    for c in range(2):
        assert sub.codazzi_residual_umbilical(cp1, u, 0, 1, c) < 1e-12


def test_codazzi_umbilical_rejects_ellipsoid(ellipsoid, rng):
    # The reduced relation needs umbilicity: off it, the residual is at least the umbilical one.
    u = ellipsoid.domain.sample(rng)
    assert sub.codazzi_residual_umbilical(ellipsoid, u, 0, 1, 0) > 1e-3


def test_codazzi_umbilical_fails_on_the_cylinder(cylinder, rng):
    # Parallel H in a flat ambient: the reduced relation itself holds to
    # round-off, so only the umbilical residual can fail the check.
    st = sub.state(cylinder, cylinder.domain.sample(rng))
    assert inv.CHECKS["codazzi-umbilical"].value(st) == st.umbilical > 1e-3


def test_umbilical_reduction_consistency(sphere, rng):
    # On umbilical immersions the general and reduced residuals agree.
    u = sphere.domain.sample(rng)
    for c in range(2):
        general = sub.codazzi_residual_general(sphere, u, 0, 1, c)
        reduced = sub.codazzi_residual_umbilical(sphere, u, 0, 1, c)
        assert abs(general - reduced) < 1e-12


def test_codazzi_holds_on_every_builtin_fixture(rng):
    # Universal identity: general Codazzi residual at round-off on all
    # fixtures at 5 interior parameter points.
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
            assert worst < 1e-12, (imm.name, u, worst)


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
                    assert abs(general - reduced) < 1e-12


def test_per_point_codazzi_is_the_worst_per_triple_residual(rng):
    # The CLI's per-point residual and the public per-triple functions
    # select from one computation, so they agree exactly.
    for imm, _ in models.builtin_immersions():
        u = imm.domain.sample(rng)
        n = imm.n
        triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(n)]
        general = max(sub.codazzi_residual_general(imm, u, *t) for t in triples)
        assert inv.CHECKS["codazzi-general"].value(sub.state(imm, u)) == general, imm.name
        reduced = max(sub.codazzi_residual_umbilical(imm, u, *t) for t in triples)
        assert inv.CHECKS["codazzi-umbilical"].value(sub.state(imm, u)) == reduced, imm.name


def test_codazzi_exact_at_box_edge(sphere):
    u = np.array([0.35, 3.0])  # on the box edge in u1
    assert sub.codazzi_residual_general(sphere, u, 0, 1, 0) < 1e-12


# Immersions into charts without the symmetry of the fixtures, where the
# normal part of the ambient curvature on the tangent planes is far from 0.
GENERIC_IMMERSIONS = {
    "surface-fs2": (
        "builtin:fs:2",
        2,
        ["0.4*u1 + 0.3i*u2 + 0.2*u1*u2", "0.3*u2 + 0.25i*u1^2 - 0.1*u2^2"],
        "box -0.6 0.6 -0.6 0.6",
    ),
    "surface-product": (
        "builtin:product:fs:1:fs:2",
        2,
        ["0.3*u1 + 0.2i*u2^2", "0.2*u2 + 0.3i*u1*u2", "0.25i*u1 + 0.15*u2 + 0.1*u1^2"],
        "box -0.6 0.6 -0.6 0.6",
    ),
    "threefold-chyp3": (
        "builtin:chyp:3",
        3,
        ["0.3*u1 + 0.1i*u2*u3", "0.25*u2 + 0.2i*u1 + 0.1*u3^2", "0.2*u3 + 0.15i*u1*u2 + 0.1i*u2"],
        "box -0.5 0.5 -0.5 0.5 -0.5 0.5",
    ),
}


def _generic_immersion(name):
    ambient, n, components, domain = GENERIC_IMMERSIONS[name]
    lines = [f"ambient = {ambient}", f"parameters = {n}"]
    lines += [f'component{k} = "{c}"' for k, c in enumerate(components, 1)]
    return models.parse_immersion_spec("\n".join(lines + [f"domain = {domain}"]), name)


@pytest.fixture(scope="module", params=sorted(GENERIC_IMMERSIONS))
def generic(request):
    return _generic_immersion(request.param)


def _richardson_derivatives(imm, u, h=1e-5):
    """Normal parts of D_x alpha and D_x H from a Richardson difference of
    states around ``u``: the independent route for ``_State.derivatives``."""
    st, n = sub.state(imm, u), imm.n

    def fields(v):
        s = sub.state(imm, v)
        return np.vstack([s.alpha.reshape(-1, s.alpha.shape[-1]), s.h])

    diffs = [richardson_derivative(lambda t: fields(u + t * np.eye(n)[x]), h) for x in range(n)]
    correction = np.einsum("kij,xi,rj->xrk", st.gamma, st.tangents, fields(u))
    out = sub._normal_part(st, np.array(diffs) + correction)
    return out[:, :-1].reshape(n, n, n, -1), out[:, -1]


def test_exact_derivatives_match_richardson_on_generic_charts(generic, rng):
    for _ in range(2):
        u = generic.domain.sample(rng)
        exact = sub.state(generic, u).derivatives
        for got, want in zip(exact, _richardson_derivatives(generic, u)):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(got)), generic.name


def test_codazzi_at_round_off_where_normal_curvature_is_large(generic, rng):
    for _ in range(2):
        u = generic.domain.sample(rng)
        st = sub.state(generic, u)
        normal_curvature = st.metric.norm(geo.RealTangentVector(st.codazzi_lhs))
        assert sub._worst_triple(normal_curvature) >= 1e-2, generic.name
        assert inv.CHECKS["codazzi-general"].value(st) <= 1e-12, generic.name


def _generic_stack(imm, rng, points=5):
    return sub.stack(imm, sub.point_jets(imm, imm.domain.sample(rng, points)))


def test_stacked_curvature_operator_matches_a_solve_per_vector(generic, rng):
    # The index is raised by the metric's inverse, one product per point; the
    # reference solves g^T v = R(X, Y, Z, .) for each vector alone.
    st = _generic_stack(generic, rng)
    curv = geo.curvature_tensor(st.point, st.metric, st.jets[:4])
    t = st.tangents
    x, y, z = (geo.RealTangentVector(np.expand_dims(t, a)) for a in ((-3, -2), (-4, -2), (-4, -3)))
    got = geo.curvature_operator(curv, st.metric, x, y, z)
    n = generic.n
    assert got.shape == (len(t), n, n, n, generic.ambient.m)
    for p, (r, g) in enumerate(zip(curv.tensor, st.metric.matrix)):
        for a in range(n):
            for b in range(n):
                w = np.outer(t[p, a], t[p, b].conj()) - np.outer(t[p, b], t[p, a].conj())
                for c in range(n):
                    want = np.linalg.solve(g.T, np.einsum("ij,ijkl,k->l", w, r, t[p, c]))
                    scale = max(np.max(np.abs(want)), 1e-300)
                    assert np.max(np.abs(got[p, a, b, c] - want)) <= 1e-13 * scale, (generic.name, p, a, b, c)


def test_the_normal_part_is_orthogonal_to_every_tangent(generic, rng):
    st = _generic_stack(generic, rng)
    m = generic.ambient.m
    w = rng.normal(size=(len(st.u), 7, m)) + 1j * rng.normal(size=(len(st.u), 7, m))
    for vectors in (w, st.d3f, st.nabla):
        normal = sub._normal_part(st, vectors)
        assert normal.shape == vectors.shape
        # g(N, T_a) = 2 Re h(N, T_a), for every stacked N and tangent T_a
        flat = normal.reshape(len(st.u), -1, m)
        products = 2.0 * np.real(flat @ st.metric.matrix @ np.swapaxes(st.tangents.conj(), -1, -2))
        lengths = st.metric.norm(geo.RealTangentVector(vectors)).reshape(len(st.u), -1, 1)
        tangents = st.metric.norm(geo.RealTangentVector(st.tangents))[:, None, :]
        assert np.all(np.abs(products) <= 1e-14 * lengths * tangents), generic.name


def test_codazzi_fails_with_the_curvature_sign_flipped(generic, rng, monkeypatch):
    real_operator = geo.curvature_operator
    monkeypatch.setattr(geo, "curvature_operator", lambda *a: -real_operator(*a))
    u = generic.domain.sample(rng)
    assert inv.CHECKS["codazzi-general"].value(sub.state(generic, u)) >= 1e-3, generic.name


def test_runtime_import_graph_leaves_out_the_oracle():
    # Finite differences are a reference for the tests and the benchmark only.
    env = dict(os.environ, PYTHONPATH=str(Path(sub.__file__).resolve().parents[1]))
    code = "import sys, kahlercheck.cli; print('kahlercheck.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


# ----------------------------------------------------------- parallel mean


def test_parallel_h_sphere(sphere, rng):
    assert sub.parallel_h_check(sphere, 3, rng) < 1e-12


def test_parallel_h_geodesic_fixtures(linear, cp1, rng):
    assert sub.parallel_h_check(linear, 2, rng) < 1e-12
    assert sub.parallel_h_check(cp1, 2, rng) < 1e-12


def test_parallel_h_fails_on_ellipsoid(ellipsoid, rng):
    assert sub.parallel_h_check(ellipsoid, 3, rng) > 1e-3


def test_parallel_h_check_rejects_zero_points_by_name(sphere, rng):
    with pytest.raises(ValueError, match="points >= 1, got 0"):
        sub.parallel_h_check(sphere, 0, rng)


def test_parallel_h_cylinder(cylinder, rng):
    # Circle times line has constant |H| and parallel mean curvature.
    assert sub.parallel_h_check(cylinder, 2, rng) < 1e-12


def test_remark_umbilic_in_constant_hsc_ambient_has_parallel_h(rng):
    for imm, expect in models.builtin_immersions():
        if expect["umbilic"]:
            assert sub.parallel_h_check(imm, 2, rng) < 1e-12


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
        sub.state(sphere, [10.0, 0.5])
    # a stack names its first point outside, and carries its index
    with pytest.raises(sub.ParameterDomainError, match=r"parameter point \[10\. .* outside the box") as info:
        sub.point_jets(sphere, [[1.0, 0.5], [10.0, 0.5], [20.0, 0.5]])
    assert info.value.index == (1,)


@pytest.mark.parametrize("fixture", ["linear", "cp1"])
def test_state_runs_the_ambient_tape_once(fixture, request, rng, monkeypatch):
    imm = request.getfixturevalue(fixture)
    u = imm.domain.sample(rng)
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    sub.state(imm, u)
    ambient = [tape for tape in runs if tape in (imm.ambient.tape, imm.ambient.immersion_tape)]
    assert ambient == [imm.ambient.immersion_tape]


@pytest.mark.parametrize("fixture", ["linear", "sphere", "cp1"])
def test_state_and_alpha_run_the_immersion_tape_once(fixture, request, rng, monkeypatch):
    imm = request.getfixturevalue(fixture)
    u = imm.domain.sample(rng)
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    sub.state(imm, u).alpha
    assert sum(tape is imm.tape for tape in runs) == 1


@pytest.mark.parametrize("check", sorted(inv.IMMERSION_CHECKS))
def test_each_state_builds_nabla_once(check, sphere, rng, monkeypatch):
    # Every field of a state is derived once, whichever checks read it.
    nablas, projections = [], []
    real_nabla, real_coeffs = sub._State.nabla.func, sub._tangential_coeffs
    nabla = functools.cached_property(lambda st: nablas.append(st) or real_nabla(st))
    nabla.__set_name__(sub._State, "nabla")
    monkeypatch.setattr(sub._State, "nabla", nabla)
    monkeypatch.setattr(sub, "_tangential_coeffs", lambda *a: projections.append(a) or real_coeffs(*a))
    st = sub.state(sphere, sphere.domain.sample(rng))
    inv.CHECKS[check].value(st)
    assert len(projections) <= 3
    st.alpha, st.h, st.derivatives
    assert len(nablas) == 1
    # A stack of the 8 points of a run derives each field once for all of them.
    run = sub.stack(sphere, sub.point_jets(sphere, sphere.domain.sample(rng, 8)))
    inv.CHECKS[check].value(run)
    run.alpha, run.h, run.derivatives
    assert nablas == [st, run]
    assert run.nabla.shape == (8, *st.nabla.shape)


BUILTIN_IMMERSIONS = (
    "linear-flat3", "sphere-flat2-r1", "ellipsoid-flat2", "cylinder-flat2", "cp1-in-cp2", "real-slice-flat2",
)


@pytest.mark.parametrize("name", [*BUILTIN_IMMERSIONS, *sorted(GENERIC_IMMERSIONS)])
def test_a_stacked_state_equals_the_loop_over_its_points(name, rng):
    # The per-point loop is the reference: the stacked fields and residuals
    # equal it bit for bit, point by point.
    imm = _generic_immersion(name) if name in GENERIC_IMMERSIONS else models.builtin_immersion(name)
    for points in (1, 3, 8):
        us = [imm.domain.sample(rng) for _ in range(points)]
        loop = [sub.state(imm, u) for u in us]
        run = sub.stack(imm, sub.point_jets(imm, np.array(us)))
        for check in inv.IMMERSION_CHECKS:
            residual = inv.CHECKS[check].value
            got = residual(run)
            assert got.shape == (points,)
            assert np.array_equal(got, [residual(st) for st in loop]), (name, check, points)
        for i, st in enumerate(loop):
            for field in ("alpha", "h"):
                assert np.array_equal(getattr(run, field)[i], getattr(st, field)), (name, field, i)
            for block, want in zip(run.derivatives, st.derivatives):
                assert np.array_equal(block[i], want), (name, i)


@pytest.mark.parametrize("name", BUILTIN_IMMERSIONS)
def test_a_batched_parameter_draw_equals_the_one_point_draws(name):
    # A run draws all its points in one call; the generator gives the same
    # bits as one call per point, and is left in the same state.
    domain = models.builtin_immersion(name).domain
    batched, one = np.random.default_rng(11), np.random.default_rng(11)
    draw = domain.sample(batched, 7)
    assert draw.shape == (7, domain.n)
    assert np.array_equal(draw, [domain.sample(one) for _ in range(7)])
    assert batched.random() == one.random()


def _with_metric_and_differential(imm, u, scale_g, scale_df):
    """``point_jets`` at ``u`` with the ambient metric and the differential scaled."""
    u, f, df, *rest = (np.copy(x) for x in sub.point_jets(imm, u))
    rest[2] *= scale_g
    return (u, f, df * scale_df, *rest)


@pytest.mark.parametrize(
    "scale_g, scale_df, error",
    [(-1.0, 0.0, geo.MetricError), (1.0, 0.0, sub.RankError), (1.0, np.nan, sub.RankError)],
    ids=["metric-first", "rank", "non-finite-differential"],
)
def test_the_tested_stage_at_one_point(scale_g, scale_df, error, cp1, rng, monkeypatch):
    # At one point the metric test comes before the rank test; a
    # differential with a NaN entry fails the rank test, naming the point.
    u = cp1.domain.sample(rng)
    good, evaluated = sub.point_jets(cp1, u), _with_metric_and_differential(cp1, u, scale_g, scale_df)
    with pytest.raises(error) as info:
        sub.stack(cp1, tuple(np.stack(blocks) for blocks in zip(good, evaluated)))
    assert info.value.index == (1,)
    monkeypatch.setattr(sub, "point_jets", lambda imm, u: evaluated)
    with pytest.raises(error, match=r"at (u=)?\[") as info:
        sub.state(cp1, u)
    assert info.value.index == ()


@pytest.mark.parametrize(
    "block, message",
    [(4, "immersion derivatives not finite at ["), (6, "metric derivatives not finite at ["), (9, "metric derivatives not finite at [")],
    ids=["d3f", "dg", "ddg"],
)
def test_the_tested_stage_names_a_point_whose_jets_are_not_finite(block, message, cp1, rng):
    # Every jet the fields read is tested, after the metric: a NaN in one
    # entry of a block at point 1 of 3 names point 1, at the stack or alone.
    evaluated = [np.copy(b) for b in sub.point_jets(cp1, cp1.domain.sample(rng, 3))]
    evaluated[block][1].flat[-1] = np.nan
    for stacked, index in ((tuple(evaluated), (1,)), (tuple(b[1] for b in evaluated), ())):
        with pytest.raises(geo.GeometryError) as info:
            sub.stack(cp1, stacked)
        assert str(info.value).startswith(message) and info.value.index == index


def test_codazzi_residuals_are_one_array_per_point(sphere, linear, rng):
    for imm in (sphere, linear):
        u = imm.domain.sample(rng)
        st = sub.state(imm, u)
        general = sub._codazzi_general(st)
        reduced = sub._codazzi_umbilical(st)
        n = imm.n
        assert general.shape == reduced.shape == (n, n, n)
        assert sub.codazzi_residual_general(imm, u, 0, 1, n - 1) == general[0, 1, n - 1]
        assert sub.codazzi_residual_umbilical(imm, u, 0, 1, n - 1) == reduced[0, 1, n - 1]
