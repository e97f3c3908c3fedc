"""Bochner tensor, 3-frame criterion, basis sums, Einstein and HSC checks."""

import numpy as np
import pytest

from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models


def _unit_vecs(pd, rng, count):
    return [geo.random_unit_tangent(pd.metric, pd.m, rng) for _ in range(count)]


def _max_bochner(manifold, rng, points, samples):
    worst = 0.0
    for _ in range(points):
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        for _ in range(samples):
            worst = max(worst, abs(inv.bochner_at(pd, *_unit_vecs(pd, rng, 4))))
    return worst


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


# ----------------------------------------------------------------- bochner


def test_bochner_flat_zero(flat3, rng):
    pd = inv.point_data(flat3, flat3.sample_point(rng))
    for _ in range(20):
        assert abs(inv.bochner_at(pd, *_unit_vecs(pd, rng, 4))) < 1e-13


def test_bochner_vanishes_on_fs3(fs3, rng):
    assert _max_bochner(fs3, rng, points=5, samples=200) < 1e-9


def test_bochner_nonzero_on_product(product, rng):
    assert _max_bochner(product, rng, points=2, samples=200) > 1e-3


def test_bochner_inherits_curvature_symmetries(fs2, product, rng):
    for manifold in (fs2, product):
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        for _ in range(10):
            x, y, z, u = _unit_vecs(pd, rng, 4)
            b = inv.bochner_at(pd, x, y, z, u)
            assert abs(b + inv.bochner_at(pd, y, x, z, u)) < 1e-10
            assert abs(b + inv.bochner_at(pd, x, y, u, z)) < 1e-10
            assert abs(b - inv.bochner_at(pd, z, u, x, y)) < 1e-10
            assert abs(b - inv.bochner_at(pd, x.j(), y.j(), z, u)) < 1e-10


# ------------------------------------------------------- 3-frame criterion


def test_lemma_residual_flat_zero(flat3, rng):
    p = flat3.sample_point(rng)
    pd = inv.point_data(flat3, p)
    frame = geo.orthonormal_antiholomorphic_frame(flat3, p, 3, rng)
    assert inv.lemma_residual(pd, *frame) == 0.0


def test_lemma_residual_small_on_fs3(fs3, rng):
    assert _max_lemma(fs3, rng, points=5, samples=200) < 1e-9


def test_lemma_residual_large_on_product(product, rng):
    assert _max_lemma(product, rng, points=2, samples=500) > 1e-3


def test_lemma_rejects_bad_frame(fs3, rng):
    p = fs3.sample_point(rng)
    pd = inv.point_data(fs3, p)
    x = geo.random_unit_tangent(pd.metric, 3, rng)
    with pytest.raises(inv.FrameConditionError):
        inv.lemma_residual(pd, x, x, x)


def test_frame_error_names_the_first_bad_pair(fs3, rng):
    p = fs3.sample_point(rng)
    pd = inv.point_data(fs3, p)
    x, y, _ = geo.orthonormal_antiholomorphic_frame(fs3, p, 3, rng, pd.metric)
    with pytest.raises(inv.FrameConditionError, match=r"pair 1,2: g=1\.000e\+00"):
        inv.lemma_residual(pd, x, y, y)
    with pytest.raises(inv.FrameConditionError, match=r"pair 0,1: g=\S+, g\(\.,J\.\)=-1\.000e\+00"):
        inv.lemma_residual(pd, x, x.j(), y)


def test_lemma_bochner_equivalence_at_sampling_fidelity(
    flat3, fs3, chyp3, product, rng
):
    # Bochner-flatness and the 3-frame identity hold or fail together.
    for manifold in (flat3, fs3, chyp3, product):
        b = _max_bochner(manifold, rng, points=2, samples=100)
        l = _max_lemma(manifold, rng, points=2, samples=100)
        assert (b < 1e-8) == (l < 1e-8)


# --------------------------------------------------------------- basis sum


def _basis_sums(manifold, rng, count):
    p = manifold.sample_point(rng)
    pd = inv.point_data(manifold, p)
    return np.array(
        [
            inv.basis_sum(
                pd, geo.orthonormal_holomorphic_basis(manifold, p, rng, pd.metric)
            )
            for _ in range(count)
        ]
    )


def test_basis_sum_flat_zero(flat3, rng):
    assert np.max(np.abs(_basis_sums(flat3, rng, 10))) < 1e-14


def test_basis_sum_independent_on_fs3(fs3, rng):
    assert _basis_sums(fs3, rng, 50).std() < 1e-9


def test_basis_sum_depends_on_basis_for_product(product, rng):
    assert _basis_sums(product, rng, 50).std() > 1e-4


def test_basis_sum_needs_full_basis(fs3, rng):
    p = fs3.sample_point(rng)
    pd = inv.point_data(fs3, p)
    frame = geo.orthonormal_antiholomorphic_frame(fs3, p, 2, rng)
    with pytest.raises(inv.FrameConditionError):
        inv.basis_sum(pd, frame)


# ------------------------------------------- holomorphic sectional curvature


def test_hsc_flat_zero(flat3, rng):
    pd = inv.point_data(flat3, flat3.sample_point(rng))
    x = geo.random_unit_tangent(pd.metric, 3, rng)
    assert inv.holomorphic_sectional_curvature(pd, x) == 0.0


def test_hsc_scale_invariant(fs3, rng):
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    x = geo.random_unit_tangent(pd.metric, 3, rng)
    h1 = inv.holomorphic_sectional_curvature(pd, x)
    h2 = inv.holomorphic_sectional_curvature(pd, geo.RealTangentVector(3.7 * x.components))
    assert abs(h1 - h2) < 1e-10 * max(1.0, abs(h1))


def test_hsc_constant_on_fs3(fs3, rng):
    values = []
    for _ in range(5):
        pd = inv.point_data(fs3, fs3.sample_point(rng))
        values += [
            inv.holomorphic_sectional_curvature(
                pd, geo.random_unit_tangent(pd.metric, 3, rng)
            )
            for _ in range(100)
        ]
    values = np.array(values)
    assert np.ptp(values) < 1e-9 * abs(values.mean())


def test_hsc_differs_between_product_factors(product, rng):
    pd = inv.point_data(product, np.zeros(3, dtype=complex))
    in_first = inv.holomorphic_sectional_curvature(pd, geo.tangent([1, 0, 0]))
    in_second = inv.holomorphic_sectional_curvature(pd, geo.tangent([0, 1, 0]))
    assert abs(in_first - in_second) > 1e-6


def test_hsc_rejects_zero_vector(fs3, rng):
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    with pytest.raises(ValueError):
        inv.holomorphic_sectional_curvature(pd, geo.tangent([0, 0, 0]))


# -------------------------------------------------- einstein / off-diagonal


def test_einstein_residual_flat(flat3, rng):
    pd = inv.point_data(flat3, flat3.sample_point(rng))
    assert inv.einstein_residual(pd, 50, rng) == 0.0


def test_einstein_residual_fs3(fs3, rng):
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    assert inv.einstein_residual(pd, 100, rng) < 1e-9


def test_einstein_residual_product(product, rng):
    pd = inv.point_data(product, product.sample_point(rng))
    assert inv.einstein_residual(pd, 100, rng) > 1e-3


def test_ricci_offdiagonal_fs3(fs3, rng):
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    assert inv.ricci_offdiagonal_check(pd, 100, rng) < 1e-9


def test_ricci_offdiagonal_product(product, rng):
    pd = inv.point_data(product, product.sample_point(rng))
    assert inv.ricci_offdiagonal_check(pd, 200, rng) > 1e-4


# ------------------------------------------------------------ reconstruction


def test_reconstruction_identity_on_all_builtins(
    flat3, fs3, chyp3, product, rng
):
    # R - reconstruction equals B identically, on every manifold: the
    # real-vector blocks against the index-level Bochner tensor.
    for manifold in (flat3, fs3, chyp3, product):
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        for _ in range(30):
            vecs = _unit_vecs(pd, rng, 4)
            r = geo.real_curvature(pd.curvature, *vecs)
            rhs = inv.reconstruct_curvature_from_ricci(pd, *vecs)
            b = inv.bochner_at(pd, *vecs)
            assert abs(r - rhs - b) < 1e-12


def test_reconstruction_matches_curvature_on_fs3(fs3, rng):
    worst = 0.0
    for _ in range(2):
        pd = inv.point_data(fs3, fs3.sample_point(rng))
        for _ in range(200):
            vecs = _unit_vecs(pd, rng, 4)
            r = geo.real_curvature(pd.curvature, *vecs)
            rhs = inv.reconstruct_curvature_from_ricci(pd, *vecs)
            worst = max(worst, abs(r - rhs))
    assert worst < 1e-9


# --------------------------------------------------------------------- chsc


def test_chsc_fit_flat(flat3, rng):
    c, spread = inv.chsc_fit(flat3, points=2, samples=30, rng=rng)
    assert c == 0.0 and spread == 0.0


@pytest.mark.parametrize("argument", ["points", "samples"])
def test_chsc_fit_rejects_zero_counts_by_name(fs2, rng, argument):
    counts = {"points": 2, "samples": 5, argument: 0}
    with pytest.raises(ValueError, match=f"{argument} >= 1"):
        inv.chsc_fit(fs2, rng=rng, **counts)


def test_chsc_fit_flat_pullback(flat_pullback_path, rng):
    from kahlercheck import models

    manifold = models.load_manifold(flat_pullback_path)
    c, spread = inv.chsc_fit(manifold, points=2, samples=100, rng=rng)
    assert abs(c) < 1e-14 and spread < 1e-14


def test_chsc_fit_fs3_positive(fs3, rng):
    c, spread = inv.chsc_fit(fs3, points=3, samples=60, rng=rng)
    assert spread < 1e-9
    assert c > 0


def test_chsc_fit_chyp3_negative(chyp3, rng):
    c, spread = inv.chsc_fit(chyp3, points=3, samples=60, rng=rng)
    assert spread < 1e-9
    assert c < 0


def test_chsc_fit_product_spread(product, rng):
    _, spread = inv.chsc_fit(product, points=2, samples=60, rng=rng)
    assert spread > 1e-6


def test_bochner_flat_einstein_implies_constant_hsc(flat3, fs3, chyp3, product, rng):
    # Bochner-flat + Einstein at sampling fidelity implies constant HSC.
    for manifold in (flat3, fs3, chyp3, product):
        b = _max_bochner(manifold, rng, points=2, samples=100)
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        e = inv.einstein_residual(pd, 100, rng)
        if b < 1e-8 and e < 1e-8:
            _, spread = inv.chsc_fit(manifold, points=2, samples=50, rng=rng)
            assert spread < 1e-7


# ------------------------------------------------------------------ reports


def test_check_report_verdict_matches_tolerance():
    base = dict(
        manifold="m", check="c", seed=1, points=1, samples=1, tolerance=1e-8
    )
    good = inv.CheckReport(max_residual=5e-9, mean_residual=1e-9, **base)
    bad = inv.CheckReport(max_residual=2e-8, mean_residual=1e-9, **base)
    assert good.verdict == "pass" and good.passed
    assert bad.verdict == "fail" and not bad.passed


def test_check_report_json_schema():
    report = inv.CheckReport(
        manifold="m",
        check="c",
        seed=1,
        points=1,
        samples=1,
        tolerance=1e-8,
        max_residual=0.0,
        mean_residual=0.0,
        worst_cases=[
            inv.WorstCase(
                point=np.array([1 + 2j]),
                frame=[np.array([0.5 - 0.5j])],
                residual=0.0,
            )
        ],
    )
    d = report.to_json_dict()
    assert set(d) == {
        "manifold",
        "check",
        "seed",
        "points",
        "samples",
        "tolerance",
        "max_residual",
        "mean_residual",
        "verdict",
        "worst_cases",
        "timestamp",
    }
    assert d["worst_cases"][0]["point"] == [[1.0, 2.0]]
    assert d["worst_cases"][0]["frame"] == [[[0.5, -0.5]]]


# ----------------------------------------------------------- jets per point


def _tape_runs(monkeypatch):
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    return runs


def test_point_data_runs_the_jet_tape_once(fs3, rng, monkeypatch):
    p = fs3.sample_point(rng)
    runs = _tape_runs(monkeypatch)
    pd = inv.point_data(fs3, p)
    assert runs == [fs3.tape]
    # The chsc floor reads the jets the point already holds.
    inv._spread([(pd, None, np.array([1.0, 2.0]))])
    assert runs == [fs3.tape]


# ------------------------------------------------------------ stacked checks


@pytest.mark.parametrize("chart", ["fs3", "product", "flat_pullback_path"])
def test_stacked_values_match_one_frame_calls(chart, request, rng):
    manifold = request.getfixturevalue(chart)
    if chart == "flat_pullback_path":
        manifold = models.load_manifold(manifold)
    for name, check in inv.CHECKS.items():
        if manifold.m < check.min_dim:
            continue
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        _, frames, values = inv.draw(name, pd, 7, rng)
        assert frames.shape == (7, check.k or manifold.m, manifold.m), name
        singles = [check.value(pd, [geo.RealTangentVector(v) for v in f]) for f in frames]
        assert all(np.ndim(s) == 0 for s in singles), name
        scale = max(1.0, float(np.max(np.abs(singles))))
        assert values.shape == (7,) and np.max(np.abs(values - singles)) <= 1e-14 * scale, name


@pytest.mark.parametrize("name", ["bochner", "basis-sum", "chsc"])
def test_worst_case_frames_are_copies(name, fs3, rng):
    sampled = inv.sample(name, fs3, 2, 20, rng)
    _, worst = inv.reduce_samples(name, sampled)
    for case in worst:
        assert not any(np.shares_memory(case.frame, frames) for _, frames, _ in sampled)
        assert any(
            np.array_equal(case.frame, row) for _, frames, _ in sampled for row in frames
        )


def test_stacked_frame_error_names_the_first_bad_pair(fs3, rng):
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    frames = geo.antiholomorphic_frames(pd.metric, 4, 3, rng)
    frames[2, 2] = frames[2, 1]
    frames[3, 1] = frames[3, 0]
    legs = [geo.RealTangentVector(frames[:, a]) for a in range(3)]
    with pytest.raises(inv.FrameConditionError, match=r"pair 1,2: g=1\.000e\+00"):
        inv.lemma_residual(pd, *legs)
