"""Builtin models, expectation tables, and spec-file parsing."""

import numpy as np
import pytest

from kahlercheck import cli
from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models
from kahlercheck import submanifold as sub
from kahlercheck.models import MANIFOLD_CHECKS, ModelError


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


def test_manifold_checks_are_the_keys_of_one_table():
    assert models.MANIFOLD_CHECKS is cli.MANIFOLD_CHECKS is inv.MANIFOLD_CHECKS
    assert inv.MANIFOLD_CHECKS == tuple(inv.CHECKS)


def test_immersion_checks_are_the_keys_of_one_table():
    assert cli.IMMERSION_CHECKS == tuple(sub.CHECKS)
    assert cli.IMMERSION_CHECKS == ("umbilical", "parallel-h", "codazzi-general", "codazzi-umbilical")
