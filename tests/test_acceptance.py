"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math

import numpy as np

from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models
from kahlercheck import submanifold as sub
from kahlercheck.cli import main
from kahlercheck.oracle import real_curvature_fd, real_point, riemann_tensor_fd

SEED = 20260810


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _unit_vecs(pd, rng, count):
    return [geo.random_unit_tangent(pd.metric, pd.m, rng) for _ in range(count)]


def test_criterion_1_oracle_equivalence(flat2, fs2, fs3, chyp2):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for manifold in (flat2, fs2, fs3, chyp2):
        for _ in range(5):
            p = manifold.sample_point(rng)
            gm = geo.metric_at(manifold, p)
            rc = geo.curvature_at(manifold, p)
            riem = riemann_tensor_fd(manifold, real_point(manifold, p))
            for _ in range(50):
                vecs = [
                    geo.random_unit_tangent(gm, manifold.m, rng) for _ in range(4)
                ]
                a = geo.real_curvature(rc, *vecs)
                b = real_curvature_fd(riem, *vecs)
                worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    ok = worst <= 1e-5
    _line(
        "criterion 1 (oracle equivalence, 4 models x 5 points x 50 quadruples)",
        ok,
        f"max relative deviation {worst:.3e} <= 1e-5",
    )
    assert ok


def test_criterion_2_bochner_calibration(fs3, flat3):
    rng = np.random.default_rng(SEED)
    worst_fs = 0.0
    for _ in range(5):
        pd = inv.point_data(fs3, fs3.sample_point(rng))
        for _ in range(200):
            worst_fs = max(worst_fs, abs(inv.bochner_at(pd, *_unit_vecs(pd, rng, 4))))
    worst_flat = 0.0
    for _ in range(5):
        pd = inv.point_data(flat3, flat3.sample_point(rng))
        for _ in range(200):
            worst_flat = max(
                worst_flat, abs(inv.bochner_at(pd, *_unit_vecs(pd, rng, 4)))
            )
    ok = worst_fs < 1e-8 and worst_flat < 1e-13
    _line(
        "criterion 2 (Bochner calibration)",
        ok,
        f"round model max |B| {worst_fs:.3e} < 1e-8; flat max |B| {worst_flat:.3e} < 1e-13",
    )
    assert ok


def _max_lemma(manifold, rng, points, samples):
    worst = 0.0
    for _ in range(points):
        p = manifold.sample_point(rng)
        pd = inv.point_data(manifold, p)
        for _ in range(samples):
            frame = geo.orthonormal_antiholomorphic_frame(
                manifold, p, 3, rng, pd.metric
            )
            worst = max(worst, abs(inv.lemma_residual(pd, *frame)))
    return worst


def test_criterion_3_three_frame_criterion(fs3, chyp3, product):
    rng = np.random.default_rng(SEED)
    worst_fs = _max_lemma(fs3, rng, points=5, samples=200)
    worst_chyp = _max_lemma(chyp3, rng, points=5, samples=200)
    best_product = _max_lemma(product, rng, points=5, samples=200)
    ok = worst_fs < 1e-8 and worst_chyp < 1e-8 and best_product > 1e-3
    _line(
        "criterion 3 (3-frame criterion, 1000 frames per model)",
        ok,
        f"round {worst_fs:.3e} and hyperbolic {worst_chyp:.3e} < 1e-8; "
        f"product best violation {best_product:.3e} > 1e-3",
    )
    assert ok


def test_criterion_4_basis_sum(fs3, product):
    rng = np.random.default_rng(SEED)

    def std_of_sums(manifold):
        p = manifold.sample_point(rng)
        pd = inv.point_data(manifold, p)
        sums = [
            inv.basis_sum(
                pd, geo.orthonormal_holomorphic_basis(manifold, p, rng, pd.metric)
            )
            for _ in range(50)
        ]
        return float(np.std(sums))

    fs_std = std_of_sums(fs3)
    product_std = std_of_sums(product)
    ok = fs_std < 1e-9 and product_std > 1e-4
    _line(
        "criterion 4 (basis-sum criterion, 50 bases)",
        ok,
        f"round std {fs_std:.3e} < 1e-9; product std {product_std:.3e} > 1e-4",
    )
    assert ok


def test_criterion_5_reconstruction(flat2, flat3, fs2, fs3, chyp2, chyp3, product):
    rng = np.random.default_rng(SEED)
    worst_identity = 0.0
    for manifold in (flat2, flat3, fs2, fs3, chyp2, chyp3, product):
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        for _ in range(100):
            vecs = _unit_vecs(pd, rng, 4)
            r = geo.real_curvature(pd.curvature, *vecs)
            rhs = inv.reconstruct_curvature_from_ricci(pd, *vecs)
            b = inv.bochner_at(pd, *vecs)
            worst_identity = max(worst_identity, abs(abs(r - rhs) - abs(b)))
    worst_fs = 0.0
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    for _ in range(200):
        vecs = _unit_vecs(pd, rng, 4)
        r = geo.real_curvature(pd.curvature, *vecs)
        worst_fs = max(
            worst_fs, abs(r - inv.reconstruct_curvature_from_ricci(pd, *vecs))
        )
    ok = worst_identity < 1e-12 and worst_fs < 1e-8
    _line(
        "criterion 5 (curvature reconstruction)",
        ok,
        f"identity residual {worst_identity:.3e} < 1e-12 on all builtins; "
        f"round model reconstruction {worst_fs:.3e} < 1e-8",
    )
    assert ok


def test_criterion_6_einstein_and_offdiagonal(flat3, fs3, chyp3, product):
    rng = np.random.default_rng(SEED)
    good, bad = 0.0, math.inf
    for manifold in (flat3, fs3, chyp3):
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        good = max(good, inv.einstein_residual(pd, 100, rng))
        good = max(good, inv.ricci_offdiagonal_check(pd, 100, rng))
    pd = inv.point_data(product, product.sample_point(rng))
    bad = min(
        inv.einstein_residual(pd, 200, rng),
        inv.ricci_offdiagonal_check(pd, 200, rng),
    )
    ok = good < 1e-8 and bad > 1e-4
    _line(
        "criterion 6 (Einstein + off-diagonal Ricci)",
        ok,
        f"flat/round/hyperbolic max residual {good:.3e} < 1e-8; "
        f"product min residual {bad:.3e} > 1e-4",
    )
    assert ok


def test_criterion_7_constant_hsc(fs3, chyp3, product):
    rng = np.random.default_rng(SEED)
    c_fs, spread_fs = inv.chsc_fit(fs3, points=5, samples=100, rng=rng)
    c_ch, spread_ch = inv.chsc_fit(chyp3, points=5, samples=100, rng=rng)
    _, spread_pr = inv.chsc_fit(product, points=5, samples=100, rng=rng)
    ok = (
        spread_fs < 1e-9
        and c_fs > 0
        and spread_ch < 1e-9
        and c_ch < 0
        and spread_pr > 1e-6
    )
    _line(
        "criterion 7 (constant holomorphic sectional curvature)",
        ok,
        f"round c={c_fs:.6g} spread {spread_fs:.3e}; hyperbolic c={c_ch:.6g} "
        f"spread {spread_ch:.3e}; product spread {spread_pr:.3e} > 1e-6",
    )
    assert ok


def test_criterion_8_submanifold_suite():
    rng = np.random.default_rng(SEED)
    sphere = models.sphere_in_flat2(1.0)
    cp1 = models.cp1_in_cp2()
    ellipsoid = models.ellipsoid_in_flat2()

    u = sphere.domain.sample(rng)
    umb = sub.umbilical_residual(sphere, u)
    h = sub.mean_curvature(sphere, u)
    gm = geo.metric_at(sphere.ambient, sphere.value(u))
    h_norm = math.sqrt(2.0 * gm.hermitian_product(h, h).real)
    par = sub.parallel_h_check(sphere, 3, rng)
    cod_gen = max(
        sub.codazzi_residual_general(sphere, u, 0, 1, c) for c in range(2)
    )
    cod_umb = max(
        sub.codazzi_residual_umbilical(sphere, u, 0, 1, c) for c in range(2)
    )

    u2 = cp1.domain.sample(rng)
    alpha = sub.second_fundamental_form(cp1, u2)
    gm2 = geo.metric_at(cp1.ambient, cp1.value(u2))
    alpha_norm = max(
        math.sqrt(2.0 * gm2.hermitian_product(alpha[a, b], alpha[a, b]).real)
        for a in range(2)
        for b in range(2)
    )

    ell = sub.umbilical_residual(ellipsoid, ellipsoid.domain.sample(rng))

    ok = (
        umb < 1e-8
        and abs(h_norm - 1.0) <= 1e-6
        and par < 1e-5
        and cod_gen < 1e-5
        and cod_umb < 1e-5
        and alpha_norm < 1e-8
        and ell > 1e-3
    )
    _line(
        "criterion 8 (submanifold suite)",
        ok,
        f"sphere: umbilical {umb:.3e}, |H|-1 = {h_norm - 1.0:.3e}, "
        f"parallel-H {par:.3e}, Codazzi {cod_gen:.3e}/{cod_umb:.3e}; "
        f"geodesic slice alpha {alpha_norm:.3e} < 1e-8; "
        f"ellipsoid umbilical {ell:.3e} > 1e-3",
    )
    assert ok


def test_criterion_9_orthogonal_curvature_scenario():
    rng = np.random.default_rng(SEED)
    linear = models.linear_subspace_in_flat3()
    u = linear.domain.sample(rng)
    point = linear.value(u)
    gm = geo.metric_at(linear.ambient, point)
    rc = geo.curvature_at(linear.ambient, point)
    # x, y, Jx, Jy span the tangent plane; z is normal.
    x = geo.tangent([1, 0, 0])
    y = geo.tangent([0, 1, 0])
    z = geo.tangent([0, 0, 1])
    first = abs(geo.real_curvature(rc, x, x.j(), y, z))
    second = abs(geo.real_curvature(rc, x, y, x.j(), z))
    ok = first < 1e-10 and second < 1e-10
    _line(
        "criterion 9 (curvature vanishes on umbilic-adapted frames)",
        ok,
        f"|R(x,Jx,y,z)| = {first:.3e}, |R(x,y,Jx,z)| = {second:.3e} < 1e-10",
    )
    assert ok


def test_criterion_10_suite_determinism(tmp_path):
    args = ["suite", "--manifold", "builtin:fs:3", "--seed", "7", "--points", "3",
            "--samples", "60"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = main(args + ["--json", str(out1)])
    rc2 = main(args + ["--json", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for r in a + b:
        r.pop("timestamp")
    same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    ok = same and rc1 == 0 and rc2 == 0
    _line(
        "criterion 10 (suite determinism)",
        ok,
        "two runs with seed 7 identical modulo timestamp"
        if same
        else "reports differ",
    )
    assert ok
