"""Builtin models, expectation tables, and spec-file parsing."""

import ast
import hashlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FLAT_PULLBACK_SPEC
from kahlercheck import cli
from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models
from kahlercheck.expr import Var
from kahlercheck.models import MANIFOLD_CHECKS, ModelError
from kahlercheck.submanifold import Immersion, box
from test_jets import MIXED_SPEC


def test_flat_model_curvature_zero(flat2, rng):
    r = geo.curvature_at(flat2, flat2.sample_point(rng))
    assert np.max(np.abs(r.tensor)) == 0.0


def test_fs_scale_changes_curvature_constant(rng):
    half = models.build_model("builtin:fs:2:0.5")
    c, spread = inv.chsc_fit(half, points=2, samples=40, rng=rng)
    assert spread < 1e-9
    assert abs(c - 1.0) < 1e-9  # c = 2 * scale


def test_chyp_domain_radius():
    m = models.build_model("builtin:chyp:2")
    assert m.domain.kind == "ball"
    assert m.domain.radii == (0.9,)


def test_product_metric_block_diagonal(product, rng):
    g = geo.metric_at(product, product.sample_point(rng)).matrix
    assert abs(g[0, 1]) < 1e-14 and abs(g[0, 2]) < 1e-14


def test_product_factor_scales_differ(product):
    pd = inv.point_data(product, np.zeros(3, dtype=complex))
    c1 = inv.holomorphic_sectional_curvature(pd, geo.tangent([1, 0, 0]))
    c2 = inv.holomorphic_sectional_curvature(pd, geo.tangent([0, 1, 0]))
    assert abs(c1 - 2.0) < 1e-12
    assert abs(c2 - 4.0) < 1e-12


@pytest.mark.parametrize(
    "uri",
    [
        "builtin:nope:2",
        "builtin:fs",
        "builtin:fs:0",
        "builtin:fs:2:-1",
        "builtin:fs:3:nan",
        "builtin:chyp:3:inf",
        "builtin:product:fs:1:chyp:2",
        "flat:2",
    ],
)
def test_bad_uris_rejected(uri):
    with pytest.raises(ModelError):
        models.build_model(uri)


def test_descriptors_cover_all_checks():
    descriptors = models.builtin_descriptors()
    assert {d.uri for d in descriptors} == {
        "builtin:flat:3",
        "builtin:fs:3",
        "builtin:chyp:3",
        "builtin:product:fs:1:fs:2",
    }
    for d in descriptors:
        assert set(MANIFOLD_CHECKS) <= set(d.expectations)


def test_descriptor_signs_match_models(rng):
    for d in models.builtin_descriptors():
        manifold = models.build_model(d.uri)
        c, spread = inv.chsc_fit(manifold, points=2, samples=40, rng=rng)
        if d.hsc_sign == 0:
            assert c == 0.0
        elif spread < 1e-8:
            assert np.sign(c) == d.hsc_sign


def test_expectation_tables_reproduced_by_check_suite():
    # Backbone: the full check suite reproduces every expectation table.
    from kahlercheck.cli import run_suite

    for d in models.builtin_descriptors():
        reports, _ = run_suite(d.uri, seed=13, points=2, samples=60)
        for report in reports:
            assert report.passed == d.expectations[report.check], (
                d.uri,
                report.check,
            )


def test_builtin_immersions_expectations_present():
    fixtures = models.builtin_immersions()
    names = {imm.name for imm, _ in fixtures}
    assert {
        "linear-flat3",
        "sphere-flat2-r1",
        "ellipsoid-flat2",
        "cylinder-flat2",
        "cp1-in-cp2",
        "real-slice-flat2",
    } <= names
    for _, expect in fixtures:
        assert {"umbilic", "totally_geodesic", "parallel_h", "mean_curvature"} <= set(
            expect
        )


def test_builtin_immersions_keep_their_order():
    names = [imm.name for imm, _ in models.builtin_immersions()]
    assert names == [
        "linear-flat3",
        "sphere-flat2-r1",
        "ellipsoid-flat2",
        "cylinder-flat2",
        "cp1-in-cp2",
        "real-slice-flat2",
    ]


def test_builtin_immersion_lookup():
    imm = models.builtin_immersion("sphere-flat2-r1")
    assert imm.ambient.name == "builtin:flat:2"
    with pytest.raises(ModelError, match="unknown immersion"):
        models.builtin_immersion("nope")


def test_builtin_immersion_builds_only_the_named_fixture(monkeypatch):
    built = []
    real_build = models.build_model
    monkeypatch.setattr(models, "build_model", lambda uri: built.append(uri) or real_build(uri))
    imm = models.load_immersion("builtin:cp1-in-cp2")
    assert imm.name == "cp1-in-cp2"
    assert built == ["builtin:fs:2"]
    for fixture, _ in models.builtin_immersions():
        assert models.builtin_immersion(fixture.name).name == fixture.name


# Jet-tape op counts, measured once each distinct mixed partial was built
# only once (from sorted indices), times about 1.5.  Exceeding one means
# derivative swell, or a jet block differentiated in every index order, has
# come back.
@pytest.mark.parametrize(
    "uri, measured",
    [
        ("builtin:fs:3", 460),
        ("builtin:chyp:3", 558),
        ("builtin:fs:4", 1070),
        ("builtin:product:fs:1:fs:2", 259),
        ("builtin:flat:3", 0),
    ],
)
def test_jet_tape_size_is_capped(uri, measured):
    assert len(models.build_model(uri).tape) <= int(1.5 * measured)


@pytest.mark.parametrize(
    "uri, measured",
    [("builtin:fs:2", 226), ("builtin:fs:3", 686), ("builtin:fs:4", 1635)],
)
def test_immersion_tape_size_is_capped(uri, measured):
    assert len(models.build_model(uri).immersion_tape) <= int(1.5 * measured)


def _tape_digest(tape):
    leaves = [(v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v for v in tape._leaves]
    python = {ex._UFUNCS[op]: fn for op, fn in ex._FNS.items()}  # each op by its Python operator
    record = (
        [(python[ufunc].__name__, i, j) for ufunc, i, j in tape._ops],
        leaves,
        tape._outputs,
        tape._ends,
        [(v.kind, v.index) for v in tape._variables],
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _chart(name, tmp_path):
    if name.startswith("builtin:"):
        return models.build_model(name)
    path = tmp_path / f"{name}.manifold"
    path.write_text({"flat-pullback": FLAT_PULLBACK_SPEC, "mixed": MIXED_SPEC}[name])
    return models.load_manifold(str(path))


def _full_jet_roots(chart, ddg=False):
    """Node ids of every entry of ``g, dg, dgb, d2g`` (and ``ddg``), each its
    own root, built from ``chart``'s node table as the chart tapes were built
    before they left out ``dgb`` and the conjugate half of ``d2g``."""
    m, dag, r = chart.m, chart._dag, range(chart.m)
    d = dag.derive
    zs = [dag.intern_id(Var(geo.Z, i + 1)) for i in r]
    zbs = [dag.intern_id(Var(geo.ZB, j + 1)) for j in r]
    g, dg = chart._roots[: m * m], chart._dg
    dgb = [d(g[i * m + min(b, j)], zbs[max(b, j)]) for b in r for i in r for j in r]
    d2g = [d(dg[(i * m + k) * m + min(j, l)], zbs[max(j, l)]) for i in r for j in r for k in r for l in r]
    roots = g + dg + dgb + d2g
    if ddg:
        roots += [
            d(dg[(x * m + y) * m + l], zs[w])
            for a in r for i in r for j in r for l in r
            for x, y, w in [sorted((a, i, j))]
        ]
    return roots


def _full_jet_tape(chart, ddg=False):
    return chart._dag.lower(_full_jet_roots(chart, ddg))


# SHA-256 of each tape's op functions, slot pairs, leaves (as exact bits),
# outputs, prefix ends and variables, taken before charts and immersions
# were built in an integer-coded table.  ``tape`` and ``immersion_tape``
# here are the full jet tapes of ``_full_jet_tape``, every entry of every
# block its own output; ``fixture`` is an immersion fixture's tape.  Every
# tape must stay the same, op for op, so that residual bits and the
# subexpressions errors name stay the same too.
TAPE_DIGESTS = [
    ("tape", "builtin:fs:2", "0baa8cc42428ad10e524ffe22e57ebfcda9cd5b2c06d0da5870abf0dc8ceccef"),
    ("tape", "builtin:fs:3", "905beddeadc16532f0979c428e8b2ee021be7ae36eee71084faf7e4e55a7fdfc"),
    ("tape", "builtin:fs:4", "7b72095dd129df7d3ee8640e87a7d2a7c5ed5fe687d722fdc151e52dfd2e433f"),
    ("tape", "builtin:fs:6", "86c4028320c905e99af954db2d9c7ec28467f7a39628cf605b04fb77d8c4d498"),
    ("tape", "builtin:chyp:3", "cb0d8a18ddfe3eff9256dc25aaa7d81b3d6291e48367fd4e2e4362f4bf2959e8"),
    ("tape", "builtin:flat:3", "dd059480a76d1329490c0b55e57c7e42bbbf08bc9790bd3f8244b847e9af47df"),
    ("tape", "builtin:product:fs:1:fs:2", "8ad7e1dcdc3ec19f053f4f98e143ab952dd6d006e5c8052d68c8c507a69b70d8"),
    ("tape", "builtin:fs:3:1e8", "9f7eebb0f0775344810777baef7a55a0c8f522f8ee9977488924e7da82b24fa6"),
    ("tape", "flat-pullback", "d6386bc2bac28ee315a0bf353bd578671020a5f214fae667b83091c2f15a1266"),
    ("tape", "mixed", "8db2fdba1b8be1de0748bda083990d1fca4a36b864d4590cee06a1a4b649a917"),
    ("immersion_tape", "builtin:fs:2", "d4d4ebbab69ed4372db62b9f4d8319cd896fbe7fad995d3de890919d0597461f"),
    ("immersion_tape", "builtin:fs:3", "e0c29cf5168bb9c70df21c8dcd071c0899ab3a8bb4d44caa45e41b41f0541ac0"),
    ("immersion_tape", "builtin:fs:4", "54f761ee429724c559e32229c620ede59fec49cfebdce0e99bcf71f561daca86"),
    ("immersion_tape", "mixed", "a2302b361be9910f9d413883b1d14f98cc55c04a3d1c24564eb8b6f83e5449e4"),
    ("fixture", "linear-flat3", "eb2e6ad0bbdfb136e8a1b5cb25620d6f74b6e033414dadb0b2374d308c34ed0c"),
    ("fixture", "sphere-flat2-r1", "793f45e4c8424d9621a008ca540c7849e6b3a50b662e16de4e6324ee65ce8c4e"),
    ("fixture", "ellipsoid-flat2", "52e05439e917e5d6e4a6a4f0d3aaeb0d9f239b0fe56e9d4636d156e479e6b4f8"),
    ("fixture", "cylinder-flat2", "27078a9df4bbf99111be518168495acc49c34ad7a6aefa1a04bc17c72445e4de"),
    ("fixture", "cp1-in-cp2", "eb23ccb4528f9fd990e41e63bb013e6502d33b7a7a3016da3113cbfaa469d282"),
    ("fixture", "real-slice-flat2", "3914361d7de98bb49c97d7e3673ef29f2c58748cbbf6dff793b481c536f898fd"),
]


@pytest.mark.parametrize("which, name, digest", TAPE_DIGESTS)
def test_tapes_keep_their_pinned_fingerprints(which, name, digest, tmp_path):
    if which == "fixture":
        tape = models.builtin_immersion(name).tape
    else:
        tape = _full_jet_tape(_chart(name, tmp_path), ddg=which == "immersion_tape")
    assert _tape_digest(tape) == digest


# The chart's own ``tape`` and ``immersion_tape``: ``g``, ``dg`` and one
# ``d2g`` entry per pair of sorted index pairs, taken once they stopped
# holding ``dgb`` and the conjugate half of ``d2g``.
CHART_TAPE_DIGESTS = [
    ("tape", "builtin:fs:2", "ee67773498181a56b3f76bda90cdfff8fefa4015ddd3a9046342de9cec3106ab"),
    ("tape", "builtin:fs:3", "f91393141f6de2bfe6ce9e2dd3176aa4b8a65f98ad24f8866e94d112b8449f9e"),
    ("tape", "builtin:fs:4", "008576efa5469cba7eababeefb2e7c68313df5df90b8315a4f6ab1bc031ad03f"),
    ("tape", "builtin:fs:6", "f04ce6b29aceb67f60013c46e5575f78ef0b3af834e52aa8b566642f0f5d5fce"),
    ("tape", "builtin:chyp:3", "8b60ea658ddd89b6c37abb1521419b70f13d74ff0ca73366472f95a428b9d78b"),
    ("tape", "builtin:flat:3", "283dc8bcbc2ac308254749a8b1cc2cf8eb0af2ca53d126802478b250518990c9"),
    ("tape", "builtin:product:fs:1:fs:2", "7edc1a110a77c3fb2befe65143c63103725a4b9df51bdc807e08a1212d6f6942"),
    ("tape", "builtin:fs:3:1e8", "1aaaa56124ba27c44c33d46ca485f0cbd32036ec5aa754b83aac2102afd882ec"),
    ("tape", "flat-pullback", "8d4e8c7d8bf55159aded5d103d456fd0cc2e695e350790dc680e710f95042108"),
    ("tape", "mixed", "0ccb22295c1ba9054adcefbc31f201c729dee1daa0541938f70df41d7cdf2da7"),
    ("immersion_tape", "builtin:fs:2", "7747fea696b96c15c2fffd02bc8228a6da0b160cdcdab5677cdc038c873cd2b7"),
    ("immersion_tape", "builtin:fs:3", "625956555a25d4ed32d846542ec0342f112768a91d9cee405b6cfd7fdc0785f2"),
    ("immersion_tape", "builtin:fs:4", "ca73ebe460c9004ca4e216348bce1c4a08a6a3d6c1fa83a669a960910b3a41e9"),
    ("immersion_tape", "mixed", "942fc6ba705207bd09ea4eac4a13c7772ecd2c34c9f50c59f27d2d026830acda"),
]


@pytest.mark.parametrize("which, name, digest", CHART_TAPE_DIGESTS)
def test_chart_tapes_keep_their_pinned_fingerprints(which, name, digest, tmp_path):
    assert _tape_digest(getattr(_chart(name, tmp_path), which)) == digest


@pytest.mark.parametrize("name", ["builtin:fs:3", "builtin:product:fs:1:fs:2", "flat-pullback", "mixed"])
def test_jets_match_the_full_jet_tape(name, tmp_path):
    # The entries the chart tape holds are the same nodes as in the full
    # tape, so they agree bit for bit; the entries ``jets`` fills by
    # conjugation agree with their direct derivatives to round-off.
    chart = _chart(name, tmp_path)
    m, full = chart.m, _full_jet_tape(chart, ddg=True)
    pairs = [(i, k) for i in range(m) for k in range(i, m)]
    held = np.zeros((m, m, m, m), bool)
    for h, (i, k) in enumerate(pairs):
        for j, l in pairs[h:]:
            held[i, j, k, l] = True
    rng = np.random.default_rng(23)
    for _ in range(3):
        p = chart.sample_point(rng)
        expected = np.array(full.run(chart.assignment(p)))
        g, dg, dgb, d2g, ddg = chart.jets(p, blocks=5)
        blocks = np.split(expected, np.cumsum([m**2, m**3, m**3, m**4]))
        assert np.array_equal(g.ravel(), blocks[0])
        assert np.array_equal(dg.ravel(), blocks[1])
        assert np.array_equal(d2g[held], blocks[3].reshape(m, m, m, m)[held])
        assert np.array_equal(ddg.ravel(), blocks[4])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(dgb.ravel() - blocks[2])) <= 1e-13 * scale
        assert np.max(np.abs(d2g.ravel() - blocks[3])) <= 1e-13 * scale


def test_sphere_radius_must_be_positive():
    with pytest.raises(ValueError):
        models.sphere_in_flat2(0.0)


# ------------------------------------------------------------- spec files


MANIFOLD_FILE = """
# round chart, two complex dimensions
dimension = 2
potential = "log(1 + z1*zb1 + z2*zb2)"
domain = ball 0.8
"""


def test_manifold_file_round_trip(tmp_path, rng):
    path = tmp_path / "round.manifold"
    path.write_text(MANIFOLD_FILE)
    m = models.load_manifold(str(path))
    assert m.m == 2
    assert m.domain.contains([0.5, 0.5]) and not m.domain.contains([0.7, 0.7])
    c, spread = inv.chsc_fit(m, points=2, samples=30, rng=rng)
    assert spread < 1e-9 and abs(c - 2.0) < 1e-9


def test_manifold_file_polydisc(tmp_path):
    path = tmp_path / "poly.manifold"
    path.write_text(
        'dimension = 2\npotential = "z1*zb1 + z2*zb2"\ndomain = polydisc 0.5 1.5\n'
    )
    m = models.load_manifold(str(path))
    assert m.domain.kind == "polydisc"
    assert m.domain.contains([0.4, 1.2]) and not m.domain.contains([1.2, 0.4])


@pytest.mark.parametrize(
    "text,match",
    [
        ("potential = \"z1*zb1\"\ndomain = ball 1", "missing 'dimension'"),
        ("dimension = 1\ndomain = ball 1", "missing 'potential'"),
        ("dimension = 1\npotential = \"z1*zb1\"\ndomain = cube 1", "domain"),
        ("dimension = 1\npotential = \"z1*zb1\"\nbad line\n", "key = value"),
        (
            "dimension = 1\npotential = \"z1*zb1\"\ndomian = ball 0.3",
            r"<test>:3: unknown key 'domian' \(known: dimension, potential, domain\)",
        ),
        ("dimension = 1\npotential = \"z1*zb1\"\ndomain = ball abc", "<test>:3: domain: could not convert"),
        ("dimension = 1\npotential = \"z1*zb1\"\ndomain = ball -1", "<test>:3: domain: .* positive"),
        ("dimension = 2\npotential = \"z1*zb1\"\ndomain = polydisc 1 nan", "<test>:3: domain: .* finite"),
        ("dimension = x\npotential = \"z1*zb1\"", "<test>:1: dimension: invalid dimension"),
        ("dimension = 1\npotential = \"z1*\"", "<test>:2: potential: unexpected end of input"),
        ("dimension = 1\npotential = \"z2*zb1\"", "<test>:2: potential: variable index out of range"),
        (
            "dimension = 1\npotential = \"z1*zb1\"\npotential = \"2*z1*zb1\"",
            r"<test>:3: key 'potential' given again \(first at <test>:2\)",
        ),
    ],
)
def test_manifold_file_errors(text, match):
    with pytest.raises(ModelError, match=match):
        models.parse_manifold_spec(text, "<test>")


IMMERSION_FILE = """
ambient = builtin:flat:2
parameters = 2
component1 = "u1 + 1i*u2"
component2 = "0"
domain = box -0.5 0.5 -0.5 0.5
"""


def test_immersion_file_round_trip(tmp_path):
    path = tmp_path / "disc.immersion"
    path.write_text(IMMERSION_FILE)
    imm = models.load_immersion(str(path))
    assert imm.n == 2
    assert imm.ambient.m == 2
    value = imm.value([0.25, -0.25])
    assert abs(value[0] - (0.25 - 0.25j)) < 1e-15


def test_immersion_file_ambient_from_neighbor_file(tmp_path):
    (tmp_path / "amb.manifold").write_text(MANIFOLD_FILE)
    path = tmp_path / "slice.immersion"
    path.write_text(
        "ambient = amb.manifold\nparameters = 1\n"
        'component1 = "u1"\ncomponent2 = "0"\ndomain = box -0.5 0.5\n'
    )
    imm = models.load_immersion(str(path))
    assert imm.ambient.m == 2


def test_immersion_file_missing_component():
    text = (
        "ambient = builtin:flat:2\nparameters = 1\n"
        'component1 = "u1"\ndomain = box -1 1\n'
    )
    with pytest.raises(ModelError, match="component2"):
        models.parse_immersion_spec(text)


@pytest.mark.parametrize(
    "lineno,line,match",
    [
        (4, 'componnet2 = "0"', r"<test>:4: unknown key 'componnet2' \(known: .*component1, component2\)"),
        (5, "domain = box a 1", "<test>:5: domain: could not convert"),
        (5, "domain = box 1 -1", "<test>:5: domain: .*lo < hi"),
        (4, 'component2 = "u2"', "<test>:4: component2: variable index out of range"),
        (5, 'component1 = "2*u1"', r"<test>:5: key 'component1' given again \(first at <test>:3\)"),
    ],
)
def test_immersion_file_errors(lineno, line, match):
    lines = ["ambient = builtin:flat:2", "parameters = 1", 'component1 = "u1"', 'component2 = "0"', "domain = box -1 1"]
    lines[lineno - 1] = line
    with pytest.raises(ModelError, match=match):
        models.parse_immersion_spec("\n".join(lines), "<test>")


# The builds check the variables of trees that no parser has seen.
@pytest.mark.parametrize("potential, message", [
    (ex.mul(ex.u(1), ex.zb(1)), "variable kind 'u' not allowed here"),
    (ex.add(ex.mul(ex.z(1), ex.zb(1)), ex.mul(ex.z(2), ex.zb(1))), "variable index out of range: 'z2' with dimension 1"),
])
def test_a_chart_built_from_a_tree_rejects_its_bad_variable(potential, message):
    with pytest.raises(ValueError) as err:
        geo.KahlerManifold(1, potential, geo.ball(1.0))
    assert str(err.value) == message


@pytest.mark.parametrize("component, message", [
    (ex.mul(ex.const(2), ex.z(1)), "variable kind 'z' not allowed here"),
    (ex.add(ex.u(1), ex.u(2)), "variable index out of range: 'u2' with dimension 1"),
])
def test_an_immersion_built_from_trees_rejects_its_bad_variable(flat2, component, message):
    with pytest.raises(ValueError) as err:
        Immersion(flat2, 1, [ex.u(1), component], box(-0.5, 0.5))
    assert str(err.value) == message


def test_the_first_bad_variable_in_reading_order_is_named(flat2):
    # Several bad variables: the one named does not depend on hashing.
    potential = ex.add(ex.mul(ex.zb(3), ex.z(1)), ex.mul(ex.z(2), ex.u(1)))
    with pytest.raises(ValueError, match="^variable index out of range: 'zb3' with dimension 1$"):
        geo.KahlerManifold(1, potential, geo.ball(1.0))
    with pytest.raises(ValueError, match="^variable kind 'z' not allowed here$"):
        Immersion(flat2, 1, [ex.u(1), ex.add(ex.z(2), ex.u(3))], box(-0.5, 0.5))


# SHA-256 of a node table: each node and the exact bits of its constant, in
# id order, taken while the build walks recursed.  ``builtin:fs:3`` is taken
# after its ``immersion_tape`` has added ``ddg``.  The walks must make the
# same nodes under the same ids.
NODE_TABLE_DIGESTS = {
    "builtin:fs:3": "d3d9a6f2e2e978305383ed86ec26c970cd4aa8bb590556cf04b5face9f32bd6c",
    "ellipsoid-flat2": "f62949e7de4820c2dfca362d8431d82aefd1de59ffdb6adcb3fd01f8304cd5ce",
}


@pytest.mark.parametrize("name", list(NODE_TABLE_DIGESTS))
def test_node_tables_keep_their_pinned_fingerprints(name):
    if name.startswith("builtin:"):
        chart = models.build_model(name)
        chart.immersion_tape
        dag = chart._dag
    else:
        dag = models.builtin_immersion(name).tape._dag
    bits = [v if v is None else (v.real.hex(), v.imag.hex()) for v in dag._values]
    record = list(zip(dag._nodes, bits))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == NODE_TABLE_DIGESTS[name]


def test_a_sum_of_100000_terms_builds_at_the_default_recursion_limit():
    # A left-deep tree 100,000 nodes deep, far deeper than the recursion limit.
    limit = sys.getrecursionlimit()
    term = ex.mul(ex.const(0.001), ex.mul(ex.z(1), ex.zb(1)))
    tree = term
    for _ in range(99_999):
        tree = ex.add(tree, term)
    chart = geo.KahlerManifold(1, tree)
    dag = chart._dag
    assert ex.unparse(dag.expr(dag.intern_id(tree))) == ex.unparse(tree)
    assert sys.getrecursionlimit() == limit


def test_a_potential_of_shared_subtrees_builds_at_the_cost_of_its_nodes():
    # 60 doublings of z1*zb1: 2^60 paths through the tree, 62 nodes in the table.
    potential = ex.mul(ex.z(1), ex.zb(1))
    for _ in range(60):
        potential = ex.add(potential, potential)
    start = time.perf_counter()
    chart = geo.KahlerManifold(1, potential, geo.ball(1.0))
    assert time.perf_counter() - start < 0.5
    assert chart.jets([0.5 + 0j], 1)[0][0, 0] == 2.0**60


def test_manifold_checks_are_the_keys_of_one_table():
    assert models.MANIFOLD_CHECKS is cli.MANIFOLD_CHECKS is inv.MANIFOLD_CHECKS
    assert inv.MANIFOLD_CHECKS == tuple(name for name, c in inv.CHECKS.items() if c.kind == "manifold")


def test_immersion_checks_are_the_keys_of_one_table():
    assert cli.IMMERSION_CHECKS == tuple(name for name, c in inv.CHECKS.items() if c.kind == "immersion")
    assert cli.IMMERSION_CHECKS == ("umbilical", "parallel-h", "codazzi-general", "codazzi-umbilical")


def test_every_check_is_one_entry_of_one_table():
    manifold = ("bochner", "lemma", "basis-sum", "einstein", "ricci-offdiag", "chsc", "reconstruct-2-3")
    immersion = ("umbilical", "parallel-h", "codazzi-general", "codazzi-umbilical")
    # Dict keys are unique; manifold checks come first, so a suite reports
    # and ``check`` lists its choices in this order.
    assert tuple(inv.CHECKS) == manifold + immersion
    assert [inv.CHECKS[name].kind for name in inv.CHECKS] == ["manifold"] * 7 + ["immersion"] * 4
    assert all(inv.CHECKS[name].reduce == "max" for name in immersion)
    assert models.MANIFOLD_CHECKS is cli.MANIFOLD_CHECKS is inv.MANIFOLD_CHECKS == manifold
    assert cli.IMMERSION_CHECKS is inv.IMMERSION_CHECKS == immersion
    # One property per entry, a key of the one property table; None is an identity.
    assert {name: inv.CHECKS[name].tests for name in inv.CHECKS} == {
        "bochner": "Bochner-flat",
        "lemma": "Bochner-flat",
        "basis-sum": "Bochner-flat",
        "einstein": "Einstein",
        "ricci-offdiag": "Einstein",
        "chsc": "constant HSC",
        "reconstruct-2-3": None,
        "umbilical": "totally umbilical",
        "parallel-h": "parallel mean curvature",
        "codazzi-general": None,
        "codazzi-umbilical": "totally umbilical",
    }
    assert {check.tests for check in inv.CHECKS.values()} - {None} == set(inv.PROPERTIES)
    # No code of the runner or the models names a check: both read the table.
    for module in (cli, models):
        literals = {node.value for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
                    if isinstance(node, ast.Constant)}
        assert not literals & set(inv.CHECKS), module.__name__
    # The frame streams are the 7 children after the points' one, keyed by
    # the manifold checks in this order: adding an immersion check moves none.
    _, frames = inv.streams(np.random.default_rng(5))
    children = np.random.SeedSequence(5).spawn(8)[1:]
    assert tuple(frames) == manifold
    for rng, child in zip(frames.values(), children):
        assert rng.random() == np.random.default_rng(child).random()
