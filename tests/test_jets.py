"""Shared mixed partials: each distinct one is built once and every other
index order of a jet block is the same node.

The reference here differentiates every index order separately, through
``Dag.derive`` in a table of its own, and so builds the twins of each
partial as differently associated sums.  The two routes must agree to
round-off, and the blocks the charts give must be exactly symmetric.

The blocks of a stack of points are filled from the tape outputs in one
call, and the quadratic term of the curvature is contracted as two matrix
products; the last tests hold those to the jets of each point alone and to
an index-level sum.
"""

import itertools

import numpy as np
import pytest

from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import models
from kahlercheck import submanifold as sub
from kahlercheck.expr import Var

# A chart without U(m) symmetry: a product of a round and a hyperbolic factor
# of different dimensions, so no unitary change of coordinates mixes them.
MIXED_SPEC = """dimension = 3
potential = "log(1 + z1*zb1) - log(1 - z2*zb2 - z3*zb3)"
domain = ball 0.6
"""


# A map into that chart whose partials are not polynomial in u, so the
# every-order reference builds twins that round differently.
MIXED_COMPONENTS = ("0.3*u1*exp(u1*u2)", "0.2*log(1 + u1^2 + u2)", "0.1*u1*u2^2/(1 + u2^2)")


def _mixed_chart(tmp_path):
    path = tmp_path / "mixed.manifold"
    path.write_text(MIXED_SPEC)
    return models.load_manifold(str(path))


def _every_order_manifold_jets(manifold, p):
    """(g, dg, dgb, d2g, ddg) at ``p``, each entry differentiated in its own index order."""
    m, r = manifold.m, range(manifold.m)
    dag = ex.Dag()
    d = dag.derive
    zs = [dag.intern_id(Var("z", i + 1)) for i in r]
    zbs = [dag.intern_id(Var("zb", i + 1)) for i in r]
    K = dag.fold_id(dag.intern_id(manifold.potential))
    g = [d(d(K, zs[i]), zbs[j]) for i in r for j in r]
    dg = [d(g[i * m + j], zs[a]) for a in r for i in r for j in r]
    dgb = [d(g[i * m + j], zbs[b]) for b in r for i in r for j in r]
    d2g = [d(dg[(i * m + k) * m + l], zbs[j]) for i in r for j in r for k in r for l in r]
    ddg = [d(e, z) for z in zs for e in dg]
    layout = geo.jet_layout([(m, m), (m, m, m), (m, m, m), (m, m, m, m), (m, m, m, m)])
    return geo.run_jets(dag.lower(g + dg + dgb + d2g + ddg), manifold.assignment(p), layout)


def _every_order_immersion_jets(immersion, u):
    """(f, df, d2f, d3f) at ``u``, each entry differentiated in its own index order."""
    m, n = immersion.ambient.m, immersion.n
    dag = ex.Dag()
    us = [dag.intern_id(Var("u", a + 1)) for a in range(n)]
    f = [dag.fold_id(dag.intern_id(c)) for c in immersion.components]
    df = [dag.derive(f[i], us[a]) for a in range(n) for i in range(m)]
    d2f = [dag.derive(df[a * m + i], us[b]) for a in range(n) for b in range(n) for i in range(m)]
    d3f = [dag.derive(e, us[x]) for x in range(n) for e in d2f]
    layout = geo.jet_layout([(m,), (n, m), (n, n, m), (n, n, n, m)])
    return geo.run_jets(dag.lower(f + df + d2f + d3f), immersion.assignment(u), layout)


def _assert_close(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * np.max(np.abs(b), initial=0.0)


def _assert_swaps_bit_equal(block, swaps):
    for axes in swaps:
        assert np.array_equal(block, block.transpose(axes))


@pytest.fixture(params=["fs3", "chyp3", "product", "flat_pullback", "mixed"])
def chart(request, tmp_path):
    if request.param == "flat_pullback":
        return models.load_manifold(request.getfixturevalue("flat_pullback_path"))
    if request.param == "mixed":
        return _mixed_chart(tmp_path)
    return request.getfixturevalue(request.param)


def test_manifold_jets_match_every_order_reference(chart):
    rng = np.random.default_rng(16)
    for _ in range(3):
        p = chart.sample_point(rng)
        jets = chart.jets(p, 5)
        _assert_close(jets, _every_order_manifold_jets(chart, p))
        _, dg, dgb, d2g, ddg = jets
        _assert_swaps_bit_equal(dg, [(1, 0, 2)])
        _assert_swaps_bit_equal(dgb, [(2, 1, 0)])
        _assert_swaps_bit_equal(d2g, [(2, 1, 0, 3), (0, 3, 2, 1)])
        _assert_swaps_bit_equal(ddg, [(1, 0, 2, 3), (2, 1, 0, 3)])


@pytest.mark.parametrize("name", [f.name for f, _ in models.builtin_immersions()] + ["mixed"])
def test_immersion_jets_match_every_order_reference(name, tmp_path):
    if name == "mixed":
        components = [ex.parse_expression(c, 2, (ex.U,)) for c in MIXED_COMPONENTS]
        box = sub.ParameterBox((-0.5, -0.5), (0.5, 0.5))
        immersion = sub.Immersion(_mixed_chart(tmp_path), 2, components, box)
    else:
        immersion = models.builtin_immersion(name)
    rng = np.random.default_rng(16)
    for _ in range(3):
        u = immersion.domain.sample(rng)
        jets = immersion.jets(u, 4)
        _assert_close(jets, _every_order_immersion_jets(immersion, u))
        _, _, d2f, d3f = jets
        _assert_swaps_bit_equal(d2f, [(1, 0, 2)])
        _assert_swaps_bit_equal(d3f, [(1, 0, 2, 3), (2, 1, 0, 3)])


# ---------------------------------------------- the stacked fill and contraction


@pytest.mark.parametrize("chart", ["fs3", "product", "mixed"], indirect=True)
def test_a_stacked_fill_equals_the_jets_of_each_point(chart):
    # The fill of a stack of tape outputs gives each point the blocks that
    # ``jets`` gives it alone, bit for bit, whatever the leading axes.
    rng = np.random.default_rng(24)
    points = [chart.sample_point(rng) for _ in range(4)]
    for blocks in range(1, 6):
        values = np.array([chart.tape_values(p, blocks) for p in points])
        stacked = chart.fill(values, blocks)
        square = chart.fill(values.reshape(2, 2, -1), blocks)
        assert len(stacked) == len(square) == blocks
        for k, p in enumerate(points):
            for got, grid, want in zip(stacked, square, chart.jets(p, blocks)):
                assert np.array_equal(got[k], want)
                assert np.array_equal(grid[divmod(k, 2)], want)
    pd = geo.stack(chart, geo.point_jets(chart, np.array(points)))
    for k, p in enumerate(points):
        assert all(np.array_equal(got[k], want) for got, want in zip(pd.jets, chart.jets(p)))


def _quadratic_reference(inverse, dg, dgb):
    """``g^{p qbar} dg[i, k, q] dgb[j, p, l]``, summed index by index."""
    r = range(dg.shape[-1])
    quadratic = np.zeros((len(r),) * 4, dtype=complex)
    for i, j, k, l in itertools.product(r, repeat=4):
        quadratic[i, j, k, l] = sum(inverse[q, p] * dg[i, k, q] * dgb[j, p, l] for q in r for p in r)
    return quadratic


@pytest.mark.parametrize("chart", ["product", "mixed", "flat_pullback"], indirect=True)
def test_the_quadratic_curvature_term_matches_an_index_level_sum(chart):
    # On charts that are not U(m)-symmetric, at one point and on a stack.
    rng = np.random.default_rng(24)
    points = [chart.sample_point(rng) for _ in range(3)]
    pd = geo.stack(chart, geo.point_jets(chart, np.array(points)))
    stacked = geo._curvature_terms(pd.metric, pd.jets)
    for k, p in enumerate(points):
        one = geo.point_data(chart, p)
        d2g_term, quadratic = geo._curvature_terms(one.metric, one.jets)
        _, dg, dgb, d2g = one.jets
        want = _quadratic_reference(one.metric.inverse, dg, dgb)
        assert np.max(np.abs(want)) > 0
        for got in (quadratic, stacked[1][k]):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(d2g_term, d2g) and np.array_equal(stacked[0][k], d2g)
