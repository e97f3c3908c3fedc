"""The check/suite/parse commands, reports, exit codes, determinism."""

import json

import numpy as np
import pytest

from kahlercheck import cli
from kahlercheck import expr as ex
from kahlercheck import geometry as geo
from kahlercheck import invariants as inv
from kahlercheck import models
from kahlercheck import submanifold as sub
from kahlercheck.cli import MANIFOLD_CHECKS, ConfigError, RunConfig, main, run_check, run_suite


def test_bochner_fs3_passes():
    cfg = RunConfig(
        manifold="builtin:fs:3", check="bochner", points=3, samples=50, seed=42
    )
    report = run_check(cfg)
    assert report.passed
    assert report.max_residual < 1e-8
    assert len(report.worst_cases) == 3


def test_bochner_flat3_near_machine_zero():
    cfg = RunConfig(
        manifold="builtin:flat:3", check="bochner", points=2, samples=30, seed=42
    )
    report = run_check(cfg)
    assert report.passed
    assert report.max_residual <= 1e-14


def test_lemma_product_fails_with_worst_frame():
    cfg = RunConfig(
        manifold="builtin:product:fs:1:fs:2",
        check="lemma",
        points=2,
        samples=100,
        seed=42,
    )
    report = run_check(cfg)
    assert not report.passed
    worst = max(w.residual for w in report.worst_cases)
    assert worst > 1e-3
    assert all(len(w.frame) == 3 for w in report.worst_cases)


def test_lemma_requires_three_complex_dimensions():
    cfg = RunConfig(manifold="builtin:fs:2", check="lemma", points=1, samples=5)
    with pytest.raises(ConfigError, match=">= 3"):
        run_check(cfg)


def test_ricci_offdiag_requires_two_complex_dimensions():
    cfg = RunConfig(manifold="builtin:fs:1", check="ricci-offdiag", points=1, samples=5)
    with pytest.raises(ConfigError, match=r"check 'ricci-offdiag' needs complex dimension >= 2 \(got m=1\)"):
        run_check(cfg)


def _point(manifold, rng):
    return inv.point_data(manifold, manifold.sample_point(rng))


@pytest.mark.parametrize(
    "check, points, library",
    [
        ("einstein", 1, lambda m, k, rng: inv.einstein_residual(_point(m, rng), k, rng)),
        ("ricci-offdiag", 1, lambda m, k, rng: inv.ricci_offdiagonal_check(_point(m, rng), k, rng)),
        ("chsc", 2, lambda m, k, rng: inv.chsc_fit(m, 2, k, rng)[1]),
    ],
)
def test_library_helpers_agree_with_the_cli(check, points, library):
    source = "builtin:product:fs:1:fs:2"
    value = library(models.load_manifold(source), 30, np.random.default_rng(13))
    report = run_check(RunConfig(manifold=source, check=check, points=points, samples=30, seed=13))
    assert value > 0.0
    assert value == report.max_residual


def test_unknown_check_rejected():
    with pytest.raises(ConfigError, match="unknown check"):
        RunConfig(manifold="builtin:fs:2", check="bogus")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", points=0)
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", seed=2**64)


def test_immersion_check_needs_immersion():
    cfg = RunConfig(manifold="builtin:flat:2", check="umbilical")
    with pytest.raises(ConfigError, match="--immersion"):
        run_check(cfg)


def test_umbilical_check_on_builtin_sphere():
    cfg = RunConfig(
        manifold=None,
        check="umbilical",
        immersion="builtin:sphere-flat2-r1",
        points=3,
        samples=1,
        seed=5,
    )
    report = run_check(cfg)
    assert report.passed
    assert "sphere-flat2-r1" in report.manifold


def test_codazzi_check_on_builtin_sphere():
    cfg = RunConfig(
        manifold=None,
        check="codazzi-general",
        immersion="builtin:sphere-flat2-r1",
        points=2,
        samples=1,
        seed=5,
        tol=1e-5,
    )
    assert run_check(cfg).passed


@pytest.mark.parametrize(
    "check", ["umbilical", "parallel-h", "codazzi-general", "codazzi-umbilical"]
)
def test_one_stencil_and_one_curvature_per_parameter_point(check, monkeypatch):
    # linear-flat3 has n = 4 parameters, so 4n + 1 = 17 states: the centre
    # and a four-point Richardson stencil per direction, shared by every
    # index triple.  The ambient curvature is evaluated once per point, from
    # the jets of the centre state, so the ambient tape runs once per state.
    imm = models.load_immersion("builtin:linear-flat3")
    states, curvatures, runs = [], [], []
    real_state, real_curvature, real_run = sub._state, geo.curvature_tensor, ex.Tape.run
    monkeypatch.setattr(sub, "_state", lambda *a: states.append(a) or real_state(*a))
    monkeypatch.setattr(geo, "curvature_tensor", lambda *a: curvatures.append(a) or real_curvature(*a))
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    points = 2
    cfg = RunConfig(manifold=None, check=check, immersion=imm.name, points=points, seed=3)
    assert cli._run_loaded(cfg, imm).passed
    assert len(states) <= 17 * points
    assert len(curvatures) == (points if check.startswith("codazzi") else 0)
    assert sum(tape is imm.ambient.tape for tape in runs) == len(states)


def test_parallel_h_check_fails_on_ellipsoid():
    cfg = RunConfig(
        manifold=None,
        check="parallel-h",
        immersion="builtin:ellipsoid-flat2",
        points=3,
        samples=1,
        seed=5,
    )
    report = run_check(cfg)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_report_json_written(tmp_path):
    out = tmp_path / "report.json"
    cfg = RunConfig(
        manifold="builtin:fs:2",
        check="einstein",
        points=2,
        samples=20,
        seed=9,
        output=str(out),
    )
    run_check(cfg)
    payload = json.loads(out.read_text())
    assert payload["check"] == "einstein"
    assert payload["verdict"] == "pass"
    assert isinstance(payload["worst_cases"][0]["point"][0], list)


@pytest.mark.parametrize("check", MANIFOLD_CHECKS)
def test_run_check_deterministic(check):
    cfg = dict(manifold="builtin:product:fs:1:fs:2", check=check, points=2, samples=20, seed=11)
    a = run_check(RunConfig(**cfg)).to_json_dict()
    b = run_check(RunConfig(**cfg)).to_json_dict()
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_suite_fs3_all_pass():
    reports, lines = run_suite("builtin:fs:3", seed=7, points=2, samples=40)
    assert all(r.passed for r in reports)
    assert {r.check for r in reports} == {
        "bochner",
        "lemma",
        "basis-sum",
        "einstein",
        "ricci-offdiag",
        "chsc",
        "reconstruct-2-3",
    }
    assert any("constant holomorphic sectional curvature: yes" in l for l in lines)


def test_run_suite_product_fails_expected_checks():
    reports, lines = run_suite(
        "builtin:product:fs:1:fs:2", seed=7, points=2, samples=60
    )
    verdicts = {r.check: r.passed for r in reports}
    for name in ("bochner", "lemma", "basis-sum", "einstein", "chsc"):
        assert not verdicts[name], name
    assert verdicts["reconstruct-2-3"]
    assert any("constant holomorphic sectional curvature: no" in l for l in lines)


@pytest.mark.parametrize("uri", ["builtin:fs:3", "builtin:product:fs:1:fs:2"])
def test_reconstruct_fails_when_the_metric_block_is_perturbed(uri, monkeypatch):
    cfg = RunConfig(manifold=uri, check="reconstruct-2-3", points=2, samples=20, seed=7)
    assert run_check(cfg).passed
    real_block = inv._metric_block
    monkeypatch.setattr(inv, "_metric_block", lambda *a: 1.01 * real_block(*a))
    assert not run_check(cfg).passed


def test_reconstruct_passes_on_flat_pullback(flat_pullback_path):
    cfg = RunConfig(
        manifold=flat_pullback_path, check="reconstruct-2-3", points=3, samples=50, seed=7
    )
    assert run_check(cfg).passed


def test_run_suite_builds_the_chart_once(monkeypatch):
    from kahlercheck import models

    loads = []
    real_load = models.load_manifold
    monkeypatch.setattr(models, "load_manifold", lambda src: loads.append(src) or real_load(src))
    run_suite("builtin:fs:3", seed=7, points=1, samples=5)
    assert loads == ["builtin:fs:3"]


def test_chsc_passes_on_flat_pullback_chart(flat_pullback_path):
    report = run_check(
        RunConfig(manifold=flat_pullback_path, check="chsc", points=2, samples=600, seed=7)
    )
    assert report.passed and report.max_residual < 1e-14


def test_chsc_fails_on_product_with_large_spread():
    report = run_check(
        RunConfig(manifold="builtin:product:fs:1:fs:2", check="chsc", points=2, samples=100, seed=7)
    )
    assert not report.passed and report.max_residual > 1e-6


def test_run_suite_flat2_skips_lemma():
    reports, lines = run_suite("builtin:flat:2", seed=3, points=2, samples=20)
    assert all(r.passed for r in reports)
    assert "lemma" not in {r.check for r in reports}
    assert any("skipped" in l for l in lines)
    assert any("c = 0" in l for l in lines)


def test_run_suite_fs1_skips_lemma_and_ricci_offdiag():
    reports, lines = run_suite("builtin:fs:1", seed=3, points=1, samples=5)
    assert [r.check for r in reports] == [
        c for c in MANIFOLD_CHECKS if c not in ("lemma", "ricci-offdiag")
    ]
    assert "skipped lemma (needs complex dimension >= 3)" in lines
    assert "skipped ricci-offdiag (needs complex dimension >= 2)" in lines


# --------------------------------------------------------------- main(argv)


def test_main_check_pass_exit_zero(capsys):
    rc = main(
        [
            "check",
            "bochner",
            "--manifold",
            "builtin:fs:2",
            "--points",
            "2",
            "--samples",
            "20",
            "--seed",
            "42",
        ]
    )
    assert rc == 0
    assert "[pass] bochner" in capsys.readouterr().out


def test_main_check_fail_exit_one(capsys):
    rc = main(
        [
            "check",
            "einstein",
            "--manifold",
            "builtin:product:fs:1:fs:2",
            "--points",
            "1",
            "--samples",
            "30",
        ]
    )
    assert rc == 1
    assert "[fail]" in capsys.readouterr().out


def test_main_error_exit_two(capsys):
    rc = main(["check", "bochner", "--manifold", "builtin:wrong:1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_parse_command(capsys):
    rc = main(["parse", "--expr", "z1*zb1 + z2*zb2", "--dim", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "z1 * zb1 + z2 * zb2" in out
    assert "nodes: 7" in out


def test_main_parse_error_exit_two(capsys):
    rc = main(["parse", "--expr", "z1 + ", "--dim", "1"])
    assert rc == 2
    assert "offset 5" in capsys.readouterr().err


def test_main_suite_json_deterministic(tmp_path):
    args = [
        "suite",
        "--manifold",
        "builtin:fs:2",
        "--seed",
        "7",
        "--points",
        "2",
        "--samples",
        "20",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for r in a + b:
        r.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ------------------------------------------------ checks that cannot pass vacuously


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["basis-sum", "--samples", "1"], "samples >= 2"),
        (["chsc", "--points", "1", "--samples", "1"], "points x samples >= 2"),
    ],
)
def test_one_value_std_or_spread_is_a_config_error(argv, needs, capsys):
    # On the product chart both pass with residual 0 when one value is reduced.
    rc = main(["check", *argv, "--manifold", "builtin:product:fs:1:fs:2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert argv[0] in err and needs in err


def test_minimum_samples_follow_the_reduction():
    RunConfig(manifold="builtin:fs:2", check="chsc", points=2, samples=1)
    RunConfig(manifold="builtin:fs:2", check="bochner", points=1, samples=1)
    with pytest.raises(ConfigError, match="'basis-sum' needs samples >= 2"):
        RunConfig(manifold="builtin:fs:2", check="basis-sum", points=3, samples=1)
    with pytest.raises(ConfigError, match="'basis-sum' needs samples >= 2"):
        run_suite("builtin:fs:2", points=3, samples=1)


def test_basis_sum_with_two_samples_fails_on_product():
    report = run_check(
        RunConfig(manifold="builtin:product:fs:1:fs:2", check="basis-sum", points=1, samples=2)
    )
    assert not report.passed


def test_immersion_worst_cases_run_the_tape_once_each(monkeypatch):
    imm = models.load_immersion("builtin:sphere-flat2-r1")
    runs = []
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    cfg = RunConfig(manifold=None, check="umbilical", immersion=imm.name, points=3, seed=5)
    report = cli._run_loaded(cfg, imm)
    # One state per point, then one (f, df) run per reported point.
    assert sum(tape is imm.tape for tape in runs) == 6
    assert len(report.worst_cases) == 3
    for case in report.worst_cases:
        assert case.point.shape == (imm.ambient.m,) and len(case.frame) == imm.n
