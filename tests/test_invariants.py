"""Bochner tensor, 3-frame criterion, basis sums, Einstein and HSC checks."""

import numpy as np
import pytest

from kahlercheck import cli
from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models
from test_jets import _mixed_chart


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


def test_a_frame_with_a_nan_component_is_rejected(fs3, rng):
    # A NaN fails the frame test rather than passing it as "not too far".
    p = fs3.sample_point(rng)
    pd = inv.point_data(fs3, p)
    frame = geo.orthonormal_antiholomorphic_frame(fs3, p, 3, rng, pd.metric)
    broken = frame[2].components.copy()
    broken[1] = np.nan
    frame[2] = geo.tangent(broken)
    with pytest.raises(inv.FrameConditionError, match=r"pair 0,2: g=nan"):
        inv.lemma_residual(pd, *frame)
    with pytest.raises(inv.FrameConditionError, match=r"pair 0,2: g=nan"):
        inv.basis_sum(pd, frame)


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
    inv._spread((pd, None, np.array([1.0, 2.0])))
    assert runs == [fs3.tape]


# ------------------------------------------------------------ stacked checks


@pytest.mark.parametrize("chart", ["fs3", "product", "flat_pullback_path"])
def test_stacked_values_match_one_frame_calls(chart, request, rng):
    manifold = request.getfixturevalue(chart)
    if chart == "flat_pullback_path":
        manifold = models.load_manifold(manifold)
    for name, check in inv.CHECKS.items():
        if check.kind != "manifold" or manifold.m < check.min_dim:
            continue
        pd = inv.point_data(manifold, manifold.sample_point(rng))
        _, frames, values = inv.draw(name, pd, 7, rng)
        assert frames.shape == (7, check.k or manifold.m, manifold.m), name
        singles = [check.value(pd, f) for f in frames]
        assert all(np.ndim(s) == 0 for s in singles), name
        scale = max(1.0, float(np.max(np.abs(singles))))
        assert values.shape == (7,) and np.max(np.abs(values - singles)) <= 1e-14 * scale, name


class _Share:
    """Generator stand-in for one point of a stacked draw: ``normal`` and
    ``standard_normal`` hand out, in turn, the point's rows of each of the
    stack's draws."""

    def __init__(self, draws, point):
        self.draws, self.point = iter(draws), point

    def normal(self, size):
        return next(self.draws)[self.point * size[0] : (self.point + 1) * size[0]]

    def standard_normal(self, size):
        return next(self.draws)[self.point * size[0] : (self.point + 1) * size[0]]


@pytest.mark.parametrize("checks", [inv.MANIFOLD_CHECKS, ("einstein",), ("chsc", "bochner"), ()])
def test_streams_build_the_children_of_the_seed_for_the_checks_asked(checks):
    # Each generator draws the bits of its child of SeedSequence(seed).spawn(8):
    # the points' first, then each manifold check's by its place in the table.
    children = np.random.SeedSequence(7).spawn(8)
    points, frames = inv.streams(np.random.default_rng(7), checks)
    assert tuple(frames) == tuple(name for name in inv.MANIFOLD_CHECKS if name in checks)
    pairs = [(points, children[0])] + [(frames[n], children[1 + inv.MANIFOLD_CHECKS.index(n)]) for n in frames]
    for rng, child in pairs:
        assert np.array_equal(rng.integers(0, 2**63, 8), np.random.default_rng(child).integers(0, 2**63, 8))
    # A reused rng is advanced as rng.spawn(8) advances it.
    reused, spawned = np.random.default_rng(7), np.random.default_rng(7)
    inv.streams(reused, checks)
    spawned.spawn(8)
    assert inv.streams(reused)[0].random() == spawned.spawn(8)[0].random()


def test_a_check_run_builds_the_frame_generator_of_its_own_check_only(monkeypatch):
    seen, real = [], inv.streams

    def streams(rng, checks):
        points, frames = real(rng, checks)
        seen.append(tuple(frames))
        return points, frames

    monkeypatch.setattr(inv, "streams", streams)
    cli.run_check(cli.RunConfig("builtin:fs:2", "einstein", points=1, samples=2))
    inv.sample("chsc", models.build_model("builtin:fs:2"), 1, 2, np.random.default_rng(0))
    cli.run_suite("builtin:fs:2", points=1, samples=2)
    suite = tuple(name for name in inv.MANIFOLD_CHECKS if inv.CHECKS[name].min_dim <= 2)
    assert seen == [("einstein",), ("chsc",), suite]


@pytest.mark.parametrize("points", [1, 3, 8])
@pytest.mark.parametrize("chart", ["fs3", "product", "flat_pullback_path"])
def test_a_stacked_run_equals_the_loop_over_its_points(chart, points, request):
    # One stacked PointData per run against point_data and draw at each point,
    # on the same points and each point's share of the stacked frame draw:
    # every field and value agrees bit for bit.
    manifold = request.getfixturevalue(chart)
    if chart == "flat_pullback_path":
        manifold = models.load_manifold(manifold)
    for name, check in inv.CHECKS.items():
        if check.kind != "manifold" or manifold.m < check.min_dim:
            continue
        run, frames, values = inv.sample(name, manifold, points, 5, np.random.default_rng(11))
        rng, streams = inv.streams(np.random.default_rng(11))
        # The stacked draw of real, then imaginary parts, as one point's rows each.
        size = (points * 5, check.k or manifold.m, manifold.m)
        draws = [streams[name].normal(size=size) for _ in range(2)]
        loop = [
            inv.draw(name, inv.point_data(manifold, manifold.sample_point(rng)), 5, _Share(draws, i))
            for i in range(points)
        ]
        assert frames.shape == (points, 5, check.k or manifold.m, manifold.m), name
        assert values.shape == (points, 5) and run.tau.shape == run.term_scale.shape == (points,), name
        for i, (pd, f, v) in enumerate(loop):
            assert isinstance(pd.tau, float) and np.ndim(pd.term_scale) == 0
            assert np.array_equal(run.point[i], pd.point)
            assert np.array_equal(frames[i], f) and np.array_equal(values[i], v), name
            assert run.tau[i] == pd.tau and run.term_scale[i] == pd.term_scale
            assert np.array_equal(run.ricci.matrix[i], pd.ricci.matrix)
            assert np.array_equal(run.bochner.tensor[i], pd.bochner.tensor)


@pytest.mark.parametrize("name", ["bochner", "basis-sum", "chsc"])
def test_worst_case_frames_are_copies(name, fs3, rng):
    sampled = inv.sample(name, fs3, 2, 20, rng)
    _, worst = inv.reduce_samples(inv.CHECKS[name].reduce, sampled)
    run, frames, _ = sampled
    for case in worst:
        assert not np.shares_memory(case.frame, frames)
        assert not np.shares_memory(case.point, run.point)
        assert any(np.array_equal(case.frame, row) for per_point in frames for row in per_point)


def test_worst_cases_keep_three_arrays_and_give_fresh_copies(fs3, rng):
    # A kept report holds one array of points, frames and residuals each;
    # every item access copies its row, so a caller's edit changes nothing.
    _, worst = inv.reduce_samples("max", inv.sample("bochner", fs3, 3, 4, rng))
    assert (worst.points.shape, worst.frames.shape, worst.residuals.shape) == ((3, 3), (3, 4, 3), (3,))
    case = worst[0]
    case.point[:] = 0.0
    assert not np.array_equal(worst[0].point, case.point)
    assert [c.residual for c in worst] == worst.residuals.tolist() and worst[-1].residual == worst.residuals[2]


@pytest.mark.parametrize("name", ["bochner", "basis-sum"])
def test_reduction_matches_a_loop_over_points(name, product, rng):
    # Reference: each point reduced on its own, as one 1-D array.
    sampled = inv.sample(name, product, 3, 25, rng)
    how = inv.CHECKS[name].reduce
    residuals, worst = inv.reduce_samples(how, sampled)
    want = []
    run, stacked_frames, stacked_values = sampled
    for point, frames, values, case in zip(run.point, stacked_frames, stacked_values, worst):
        far = np.abs(values - (values.mean() if how == "std" else 0.0))
        r = [float(values.std())] if how == "std" else far.tolist()
        want += r
        assert case.residual == max(r) and np.array_equal(case.frame, frames[int(np.argmax(far))])
        assert np.array_equal(case.point, point)
    assert residuals.tolist() == want


def test_unknown_reduction_raises(fs3, rng):
    sampled = inv.sample("bochner", fs3, 1, 3, rng)
    with pytest.raises(ValueError, match="unknown reduction 'mean'"):
        inv.reduce_samples("mean", sampled)


def test_stacked_frame_error_names_the_first_bad_pair(fs3, rng):
    pd = inv.point_data(fs3, fs3.sample_point(rng))
    frames = geo.antiholomorphic_frames(pd.metric, 4, 3, rng)
    frames[2, 2] = frames[2, 1]
    frames[3, 1] = frames[3, 0]
    legs = [geo.RealTangentVector(frames[:, a]) for a in range(3)]
    with pytest.raises(inv.FrameConditionError, match=r"pair 1,2: g=1\.000e\+00"):
        inv.lemma_residual(pd, *legs)


# ------------------------------------------------ kernels against index sums


def _h(a, v, w):
    """Index-level ``v^i a_{i jbar} conj(w^j)``, broadcasting like the kernels."""
    return np.einsum("...i,ij,...j->...", v, a, np.conj(w))


def _real_curvature_sum(r, x, y, z, u):
    """Index-level R(X, Y, Z, U): the four products of the mixed components."""
    return (
        np.einsum("ijkl,...i,...j,...k,...l->...", r, x, np.conj(y), z, np.conj(u))
        - np.einsum("ijkl,...i,...j,...k,...l->...", r, x, np.conj(y), u, np.conj(z))
        - np.einsum("ijkl,...i,...j,...k,...l->...", r, y, np.conj(x), z, np.conj(u))
        + np.einsum("ijkl,...i,...j,...k,...l->...", r, y, np.conj(x), u, np.conj(z))
    ).real


def _blocks_by_terms(pd, x, y, z, u):
    """The Bochner blocks term by term, as the paper writes them."""

    def g(a, b):
        return 2.0 * _h(pd.metric.matrix, a, b).real

    def s(a, b):
        return 2.0 * _h(pd.ricci.matrix, a, b).real

    jy, jz, ju = 1j * y, 1j * z, 1j * u
    ricci = (
        g(x, u) * s(y, z) - g(x, z) * s(y, u) + g(y, z) * s(x, u) - g(y, u) * s(x, z)
        + g(x, ju) * s(y, jz) - g(x, jz) * s(y, ju) + g(y, jz) * s(x, ju) - g(y, ju) * s(x, jz)
        - 2.0 * g(x, jy) * s(z, ju) - 2.0 * g(z, ju) * s(x, jy)
    )
    metric = (
        g(x, u) * g(y, z) - g(x, z) * g(y, u) + g(x, ju) * g(y, jz) - g(x, jz) * g(y, ju)
        - 2.0 * g(x, jy) * g(z, ju)
    )
    return ricci, metric


def _close(got, want):
    """Equal shapes (0-d for single vectors) and values to rtol 1e-13."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


def test_kernels_match_index_level_sums(product, rng):
    pd = inv.point_data(product, product.sample_point(rng))
    m = pd.m
    stack = geo.unit_tangents(pd.metric, 6, 4, rng)
    single = geo.unit_tangents(pd.metric, 1, 4, rng)[0]
    # Legs of a stack; the legs of one frame, whose values are 0-d; one
    # vector broadcast against a stack.
    legs_of_stack = [stack[:, a] for a in range(4)]
    for vs in (legs_of_stack, list(single), [single[0]] + legs_of_stack[1:]):
        x, y, z, u = (geo.RealTangentVector(v) for v in vs)
        want_h = _h(pd.metric.matrix, vs[0], vs[1])
        _close(pd.metric.hermitian_product(vs[0], vs[1]), want_h)
        _close(pd.metric.inner(x, y), 2.0 * want_h.real)
        _close(pd.metric.inner_j(x, y), 2.0 * want_h.imag)
        _close(pd.ricci(x, y), 2.0 * _h(pd.ricci.matrix, vs[0], vs[1]).real)
        # The one-wedge form on R, on B and on R - B, which inherit the
        # conjugation symmetry of R, against the four-term index sum.
        r_minus_b = pd.curvature.tensor - pd.bochner.tensor
        for t in (pd.curvature.tensor, pd.bochner.tensor, r_minus_b):
            _close(geo.real_curvature(geo.ComplexCurvature(t), x, y, z, u), _real_curvature_sum(t, *vs))
        # J-pairs as Hermitian squares: R(X, JX, JX, X).
        ix = 1j * vs[0]
        _close(geo.holomorphic_square(pd.curvature, x), _real_curvature_sum(pd.curvature.tensor, vs[0], ix, ix, vs[0]))

        legs = (x, y, z, u)
        ricci, metric = _blocks_by_terms(pd, *vs)
        g, s = inv._gram(pd.metric.matrix, legs), inv._gram(pd.ricci.matrix, legs)
        _close(inv._ricci_block(g, s), ricci)
        _close(inv._metric_block(g), metric)
        want = ricci / (2.0 * (m + 2)) - pd.tau * metric / (4.0 * (m + 1) * (m + 2))
        _close(inv.reconstruct_curvature_from_ricci(pd, *legs), want)
    # Squares of a stack of stacked vectors (a basis per frame, as basis-sum
    # takes them), and the lemma, whose first term goes through a square.
    r = pd.curvature.tensor
    _close(geo.holomorphic_square(pd.curvature, geo.RealTangentVector(stack)),
           _real_curvature_sum(r, stack, 1j * stack, 1j * stack, stack))
    frames = geo.antiholomorphic_frames(pd.metric, 6, 3, rng)
    x, y, z = (frames[:, a] for a in range(3))
    want = _real_curvature_sum(r, x, 1j * x, y, z) - 2.0 * _real_curvature_sum(r, x, y, 1j * x, z)
    _close(inv.lemma_residual(pd, *(geo.RealTangentVector(v) for v in (x, y, z))), want)
    # term_scale: the larger Frobenius norm of the two terms of R in a g-unit frame.
    c = np.linalg.inv(np.linalg.cholesky(pd.metric.matrix)).T
    terms = geo._curvature_terms(pd.metric, pd.jets)
    in_frame = [np.einsum("ijkl,ia,jb,kc,ld->abcd", t, c, c.conj(), c, c.conj()) for t in terms]
    _close(pd.term_scale, max(np.linalg.norm(t) for t in in_frame))


_CHARTS = ["builtin:fs:1", "builtin:fs:2", "builtin:fs:3", "builtin:fs:4", "builtin:chyp:3", "builtin:product:fs:1:fs:2", "mixed"]


def _stacked_point_data(uri, tmp_path, count=3):
    if uri == "mixed":
        manifold = _mixed_chart(tmp_path)
    else:
        manifold = models.build_model(uri)
    rng = np.random.default_rng(17)
    points = np.array([manifold.sample_point(rng) for _ in range(count)])
    return geo.stack(manifold, geo.point_jets(manifold, points)), rng


@pytest.mark.parametrize("uri", _CHARTS)
def test_hermitian_squares_match_index_level_sums(uri, tmp_path):
    # The real form of R on the real coordinates of x x^H, per point of a
    # stack, on charts with and without U(m) symmetry.
    pd, rng = _stacked_point_data(uri, tmp_path)
    r = pd.curvature.tensor
    x = geo.unit_tangents(pd.metric, 5, 2, rng)
    want = np.array([_real_curvature_sum(r[i], x[i], 1j * x[i], 1j * x[i], x[i]) for i in range(len(x))])
    _close(geo.holomorphic_square(pd.curvature, geo.RealTangentVector(x)), want)
    e = geo.antiholomorphic_frames(pd.metric, 5, pd.m, rng)
    want = np.array([_real_curvature_sum(r[i], e[i], 1j * e[i], 1j * e[i], e[i]).sum(axis=-1) for i in range(len(e))])
    _close(inv.basis_sum(pd, inv._legs(e)), want)


@pytest.mark.parametrize("uri", _CHARTS)
def test_the_reconstruction_reads_the_entries_of_full_grams(uri, tmp_path):
    # Only the entries a < b of the two Grams are computed; the blocks on
    # full Grams give the same bits.
    pd, rng = _stacked_point_data(uri, tmp_path)
    legs = inv._legs(geo.unit_tangents(pd.metric, 5, 4, rng))
    g, s = inv._gram(pd.metric.matrix, legs), inv._gram(pd.ricci.matrix, legs)
    metric = inv._metric_block(g)
    m = pd.m
    want = inv._ricci_block(g, s) / (2.0 * (m + 2)) - geo._per_point(pd.tau, metric, 0) * metric / (4.0 * (m + 1) * (m + 2))
    got = inv.reconstruct_curvature_from_ricci(pd, *legs)
    assert got.tobytes() == want.tobytes()
