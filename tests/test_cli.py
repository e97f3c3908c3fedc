"""The check/suite/parse commands, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

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


def _on_streams(helper, check, manifold, samples, seed):
    """``helper(pd, samples, rng)`` at the first point of the run at ``seed``,
    drawing from the frame stream of ``check``, as the CLI does."""
    points, frames = inv.streams(np.random.default_rng(seed))
    return helper(_point(manifold, points), samples, frames[check])


@pytest.mark.parametrize(
    "check, points, library",
    [
        ("einstein", 1, lambda m, k, seed: _on_streams(inv.einstein_residual, "einstein", m, k, seed)),
        (
            "ricci-offdiag",
            1,
            lambda m, k, seed: _on_streams(inv.ricci_offdiagonal_check, "ricci-offdiag", m, k, seed),
        ),
        ("chsc", 2, lambda m, k, seed: inv.chsc_fit(m, 2, k, np.random.default_rng(seed))[1]),
    ],
)
def test_library_helpers_agree_with_the_cli(check, points, library):
    source = "builtin:product:fs:1:fs:2"
    value = library(models.load_manifold(source), 30, 13)
    report = run_check(RunConfig(manifold=source, check=check, points=points, samples=30, seed=13))
    assert value > 0.0
    assert value == report.max_residual


@pytest.mark.parametrize(
    "check, points, samples, library",
    [
        ("chsc", 1, 1, lambda pd, imm, rng: inv.chsc_fit(pd.manifold, 1, 1, rng)),
        ("einstein", 1, 0, lambda pd, imm, rng: inv.einstein_residual(pd, 0, rng)),
        ("ricci-offdiag", 1, 0, lambda pd, imm, rng: inv.ricci_offdiagonal_check(pd, 0, rng)),
        ("parallel-h", 0, 1, lambda pd, imm, rng: sub.parallel_h_check(imm, 0, rng)),
    ],
)
def test_the_library_helpers_reject_the_counts_that_check_rejects(check, points, samples, library):
    # On the product chart, chsc_fit of one value read (1.339..., 0.0), a
    # constant HSC, and the residual helpers of no sample read 0.0.
    with pytest.raises(ConfigError) as cli_error:
        RunConfig(manifold=None, check=check, points=points, samples=samples)
    rng = np.random.default_rng(1)
    pd = _point(models.load_manifold("builtin:product:fs:1:fs:2"), rng)
    with pytest.raises(ConfigError) as library_error:
        library(pd, models.load_immersion("builtin:ellipsoid-flat2"), rng)
    assert str(library_error.value) == str(cli_error.value)


def _failure(run, errors):
    """``run()``'s failing point and the text of its cause, None if it passes."""
    try:
        run()
    except errors as err:
        return err.index, str(err.__cause__)
    return None


def test_chsc_fit_names_the_point_that_check_names(tmp_path):
    # The mixed chart fails at 68 of these seeds.  At four of them (44, 65,
    # 78 and 118) the first point that fails in the stack is not the first
    # that fails at all: at seed 118 point 4 fails the metric test, and point
    # 1 only the later test of the curvature's finiteness.
    path = tmp_path / "mixed.manifold"
    path.write_text(MIXED_SPECS["mixed-exp"])
    manifold = models.load_manifold(str(path))
    named = {}
    for seed in range(120):
        cfg = RunConfig(manifold=str(path), check="chsc", points=5, samples=2, seed=seed)
        runs = (partial(cli._run_loaded, cfg, manifold), partial(inv.chsc_fit, manifold, 5, 2, np.random.default_rng(seed)))
        want, got = (_failure(run, (cli.PointError, geo.StageError)) for run in runs)
        assert got == want, seed
        named[seed] = want
    assert sum(v is not None for v in named.values()) == 68
    assert named[118][0] == 1


def test_unknown_check_rejected():
    with pytest.raises(ConfigError, match="unknown check"):
        RunConfig(manifold="builtin:fs:2", check="bogus")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", points=0)
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            RunConfig(manifold="x", check="bochner", tol=tol)
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(manifold="x", check="bochner", seed=2**64)


def test_immersion_check_needs_immersion():
    cfg = RunConfig(manifold="builtin:flat:2", check="umbilical")
    with pytest.raises(ConfigError, match="--immersion"):
        run_check(cfg)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check", "bochner", "--manifold", "builtin:fs:2", "--immersion", "builtin:sphere-flat2-r1"],
            "check 'bochner' takes --manifold, not --immersion",
        ),
        (
            ["check", "umbilical", "--immersion", "builtin:sphere-flat2-r1", "--manifold", "builtin:fs:2"],
            "check 'umbilical' takes --immersion, not --manifold",
        ),
    ],
)
def test_a_check_given_both_target_flags_is_a_config_error(argv, message, capsys):
    # The flag of the other kind is not left unread: the run stops before any build.
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    with pytest.raises(ConfigError, match="--manifold, not --immersion"):
        run_check(RunConfig(manifold="builtin:fs:2", check="einstein", immersion="builtin:sphere-flat2-r1"))


@pytest.mark.parametrize(
    "flags, check, message",
    [
        (
            ["--immersion", "builtin:sphere-flat2-r1", "--manifold", "builtin:fs:2"],
            ["umbilical"],
            "takes --immersion, not --manifold",
        ),
        ([], ["bochner"], "needs --manifold"),
    ],
    ids=["both", "neither"],
)
def test_a_suite_given_both_target_flags_or_neither_is_a_config_error(flags, check, message, monkeypatch, capsys):
    # The texts of ``check`` with "suite" for the check's name; nothing is built.
    monkeypatch.setattr(models, "load_manifold", lambda source: pytest.fail("built a manifold"))
    monkeypatch.setattr(models, "load_immersion", lambda source: pytest.fail("built an immersion"))
    assert main(["check", *check, *flags]) == 2
    assert capsys.readouterr().err == f"error: check {check[0]!r} {message}\n"
    assert main(["suite", *flags]) == 2
    assert capsys.readouterr().err == f"error: suite {message}\n"


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
    "check", ["umbilical", "parallel-h", "codazzi-general", "codazzi-umbilical", None]
)
def test_one_stencil_and_one_curvature_per_parameter_point(check, monkeypatch):
    # One per-point stage per run, on the stack of its parameter points: the
    # derivatives of alpha and H along every direction are closed forms in
    # the jets, shared by every index triple.  The ambient curvature is
    # evaluated once, from the same jets, in one call on the stack, and each
    # tape runs once for all the points.  A suite (check None) shares all
    # of it between its four checks: both Codazzi checks read one curvature.
    imm = models.load_immersion("builtin:linear-flat3")
    monkeypatch.setattr(models, "load_immersion", lambda source: imm)
    evaluated, curvatures, runs = [], [], []
    real_point_jets, real_curvature, real_run = sub.point_jets, geo.curvature_tensor, ex.Tape.run
    monkeypatch.setattr(sub, "point_jets", lambda *a: evaluated.append(a) or real_point_jets(*a))
    monkeypatch.setattr(geo, "curvature_tensor", lambda *a: curvatures.append(a) or real_curvature(*a))
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    points = 2
    cfg = RunConfig(manifold=None, check=check, immersion=imm.name, points=points, seed=3)
    reports, _ = cli._run(cfg)
    assert [r.check for r in reports] == ([check] if check else list(cli.IMMERSION_CHECKS))
    assert all(r.passed for r in reports)
    assert [len(u) for _, u in evaluated] == [points]
    assert [len(a[0]) for a in curvatures] == ([] if check in ("umbilical", "parallel-h") else [points])
    assert runs == [imm.tape, imm.ambient.immersion_tape]
    # The chart's own jet tape is never lowered, so it never runs.
    assert "tape" not in vars(imm.ambient)
    assert not any(tape is imm.ambient.tape for tape in runs)


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


def test_an_immersion_suite_builds_its_immersion_once(monkeypatch):
    # One build and one points stage for the four checks.
    loads, stages = [], []
    real_load, real_point_jets = models.load_immersion, sub.point_jets
    monkeypatch.setattr(models, "load_immersion", lambda src: loads.append(src) or real_load(src))
    monkeypatch.setattr(sub, "point_jets", lambda imm, u: stages.append(len(u)) or real_point_jets(imm, u))
    reports, _ = run_suite(None, seed=7, points=3, immersion="builtin:cp1-in-cp2")
    assert [r.check for r in reports] == list(cli.IMMERSION_CHECKS)
    assert (loads, stages) == (["builtin:cp1-in-cp2"], [3])


# The keys of each report of a --json file.
REPORT_KEYS = {
    "manifold", "check", "seed", "points", "samples", "tolerance",
    "max_residual", "mean_residual", "verdict", "worst_cases", "timestamp",
}


@pytest.mark.parametrize("fixture, verdict, status", [("cp1-in-cp2", "yes", 0), ("ellipsoid-flat2", "no", 1)])
def test_an_immersion_suite_states_its_properties(fixture, verdict, status, tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert main(["suite", "--immersion", f"builtin:{fixture}", "--seed", "3", "--json", str(out)]) == status
    assert capsys.readouterr().out.splitlines()[4:] == [
        f"totally umbilical at sampling fidelity: {verdict}",
        f"parallel mean curvature at sampling fidelity: {verdict}",
    ]
    assert [set(r) for r in json.loads(out.read_text())] == [REPORT_KEYS] * 4


# fs:3 plus eps times |z1|^4 + z1^2 zb2 zb3 + zb1^2 z2 z3, on ball 0.5: for a
# small eps the checks of the curvature sit at the tolerance.
def _perturbed_fs3(eps: str) -> str:
    return (
        "dimension = 3\n"
        f'potential = "log(1 + z1*zb1 + z2*zb2 + z3*zb3) + {eps}*((z1*zb1)^2 + z1^2*zb2*zb3 + zb1^2*z2*z3)"\n'
        "domain = ball 0.5\n"
    )


PRODUCT_1E9_SPEC = 'dimension = 3\npotential = "1e9*log(1 + z1*zb1) + 0.5e9*log(1 + z2*zb2 + z3*zb3)"\ndomain = ball 1.2\n'


@pytest.mark.parametrize(
    "spec, verdicts, failing, broken",
    [
        (
            "builtin:fs:3:1e8",
            ("no", "no", "yes (c = 2e+08)"),
            {"bochner", "lemma", "basis-sum", "einstein", "ricci-offdiag", "reconstruct-2-3"},
            {
                "identity checks pass": ["reconstruct-2-3"],
                "for m >= 2, constant HSC iff Bochner-flat and Einstein": list(MANIFOLD_CHECKS[:6]),
            },
        ),
        (
            _perturbed_fs3("2e-9"),
            ("yes", "no", "yes (c = 2)"),
            {"einstein", "ricci-offdiag"},
            {"for m >= 2, constant HSC iff Bochner-flat and Einstein": list(MANIFOLD_CHECKS[:6])},
        ),
        (
            _perturbed_fs3("5e-9"),
            ("no", "no", "no"),
            {"lemma", "basis-sum", "einstein", "ricci-offdiag", "chsc"},
            {"checks of one property agree": ["bochner", "lemma", "basis-sum"]},
        ),
        (
            PRODUCT_1E9_SPEC,
            ("yes", "yes", "no"),
            {"chsc"},
            {"for m >= 2, constant HSC iff Bochner-flat and Einstein": list(MANIFOLD_CHECKS[:6])},
        ),
    ],
    ids=["fs3-1e8", "eps-2e-9", "eps-5e-9", "product-1e9"],
)
def test_a_suite_names_each_rule_its_verdicts_break(spec, verdicts, failing, broken, tmp_path, capsys):
    source = spec
    if not spec.startswith("builtin:"):
        source = str(tmp_path / "chart.manifold")
        Path(source).write_text(spec)
    assert main(["suite", "--manifold", source, "--seed", "7"]) == 1
    out = capsys.readouterr().out.splitlines()
    reports = {line.split()[1]: line for line in out[:7]}
    assert {name for name, line in reports.items() if line.startswith("[fail]")} == failing
    assert out[7:10] == [
        f"Bochner-flat at sampling fidelity: {verdicts[0]}",
        f"Einstein at sampling fidelity: {verdicts[1]}",
        f"constant holomorphic sectional curvature: {verdicts[2]}",
    ]
    assert [line.split(": ")[1] for line in out[10:]] == list(broken)
    for line, names in zip(out[10:], broken.values()):
        # Each check named with the max residual its report line gives.
        named = line.split(": ", 2)[2].split(", ")
        assert [entry.split()[0] for entry in named] == names
        for entry in named:
            name, residual = entry.split()
            assert f" {residual} " in reports[name]


def test_a_curvature_of_two_huge_cancelling_terms_gets_a_verdict(tmp_path, capsys):
    # R is the difference of -d2g and the quadratic term, both near 1e300 in
    # z2 here: their round-off passes the symmetry test, scaled by the larger.
    path = tmp_path / "huge.manifold"
    path.write_text('dimension = 2\npotential = "z1*zb1 - 0.5*(z1*zb1)^2 + 1e300*(z2*zb2)^3"\ndomain = ball 0.6\n')
    assert main(["check", "einstein", "--manifold", str(path), "--seed", "2"]) == 1
    assert "[fail] einstein on" in capsys.readouterr().out
    report = run_check(RunConfig(manifold=str(path), check="einstein", seed=2))
    assert report.max_residual == pytest.approx(5.18, abs=0.005)


def test_a_ricci_flat_chart_with_large_route_terms_gets_a_verdict(tmp_path):
    # The pullback of flat C^2 by (z1 + 100 z2^2, z2): S = 0, but the traces
    # of the log-determinant route are near 1e8, and so is their round-off.
    path = tmp_path / "pullback.manifold"
    path.write_text('dimension = 2\npotential = "(z1 + 100*z2^2)*(zb1 + 100*zb2^2) + z2*zb2"\ndomain = ball 0.5\n')
    for seed in range(4):
        assert run_check(RunConfig(manifold=str(path), check="einstein", seed=seed)).max_residual < 1e-7


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


@pytest.mark.parametrize(
    "argv, status",
    [
        # true identities at a round-off tolerance
        ("codazzi-general --immersion builtin:sphere-flat2-r1 --tol 1e-12", 0),
        ("codazzi-general --immersion builtin:sphere-flat2-r1 --points 40 --tol 1e-12", 0),
        ("codazzi-general --immersion builtin:cp1-in-cp2 --tol 1e-12", 0),
        ("codazzi-umbilical --immersion builtin:cp1-in-cp2 --points 40 --tol 1e-12", 0),
        ("parallel-h --immersion builtin:sphere-flat2-r1 --tol 1e-12", 0),
        ("einstein --manifold builtin:fs:4 --points 30 --samples 2 --tol 1e-13", 0),
        ("bochner --manifold builtin:fs:4 --points 30 --samples 2 --tol 1e-13", 0),
        ("ricci-offdiag --manifold builtin:fs:4 --points 30 --samples 2 --tol 1e-13", 0),
        ("basis-sum --manifold builtin:fs:4 --tol 1e-12", 0),
        ("chsc --manifold builtin:chyp:3 --tol 1e-12", 0),
        # a flat ambient, whose jet tape has only constant outputs
        ("codazzi-general --immersion builtin:linear-flat3 --points 2", 0),
        # the largest builtin chart, whose build is most of its run
        ("einstein --manifold builtin:fs:6 --points 2 --samples 5", 0),
        # frames drawn on metrics scaled by 1e-16 and 1e-20; the lemma's
        # residual is absolute, so on curvature near 1e20 it fails
        ("chsc --manifold builtin:fs:1:1e16 --points 2 --samples 50", 0),
        ("lemma --manifold builtin:fs:3:1e20 --points 1 --samples 5", 1),
    ],
)
def test_a_check_exits_with_its_verdict(argv, status, capsys):
    assert main(["check", *argv.split()]) == status
    assert capsys.readouterr().out.startswith(f"[{'fail' if status else 'pass'}] {argv.split()[0]} on ")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("bochner --immersion builtin:sphere-flat2-r1", "check 'bochner' needs --manifold"),
        ("umbilical --manifold builtin:fs:2", "check 'umbilical' needs --immersion"),
        ("lemma --manifold builtin:fs:2", "check 'lemma' needs complex dimension >= 3 (got m=2)"),
        ("einstein --manifold builtin:fs:2 --tol inf", "tolerance must be positive and finite"),
    ],
)
def test_a_check_it_cannot_run_is_a_config_error(argv, message, capsys):
    # The wrong kind of target or too small a chart, as the check table
    # gives them, and a tolerance that every residual would pass.
    assert main(["check", *argv.split()]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Left-deep sums: the parse nests no parentheses, and the build walks keep
# stacks of their own, so neither Python's recursion limit nor the number of
# terms bounds what builds.
DEEP_POTENTIAL = " + ".join(["0.001*z1*zb1"] * 1000)
DEEP_COMPONENT = " + ".join(["0.001*u1"] * 1000)


@pytest.mark.parametrize(
    "text, command",
    [
        (
            'dimension = 1\npotential = "%s"\n' % " + ".join(["0.001*z1*zb1"] * 450),
            ["check", "einstein", "--manifold"],
        ),
        (f'dimension = 1\npotential = "{DEEP_POTENTIAL}"\n', ["check", "einstein", "--manifold"]),
        (
            f'ambient = builtin:flat:1\nparameters = 1\ncomponent1 = "{DEEP_COMPONENT}"\ndomain = box -1 1\n',
            ["check", "umbilical", "--immersion"],
        ),
    ],
    ids=["potential-450", "potential-1000", "component-1000"],
)
def test_a_long_sum_builds_and_checks(text, command, tmp_path, capsys):
    path = tmp_path / ("long.immersion" if "--immersion" in command else "long.manifold")
    path.write_text(text)
    assert main([*command, str(path), "--points", "1", "--samples", "2"]) == 0
    assert f"[pass] {command[1]}" in capsys.readouterr().out


def test_parse_prints_a_long_sum(capsys):
    assert main(["parse", "--expr", DEEP_POTENTIAL, "--dim", "1"]) == 0
    text, nodes, variables = capsys.readouterr().out.splitlines()
    assert (nodes, variables) == ("nodes: 5999", "variables: z1, zb1")
    # Compared as text: == on two trees this deep would recurse.
    assert ex.unparse(ex.parse_expression(text, 1)) == text == ex.unparse(ex.parse_expression(DEEP_POTENTIAL, 1))


_TWO_COMPONENTS = (
    'ambient = builtin:flat:2\nparameters = 2\ncomponent1 = "%s"\ncomponent2 = "%s"\ndomain = box -1 1 -1 1\n'
)
_MANIFOLD = ["check", "einstein", "--manifold"]
_IMMERSION = ["check", "umbilical", "--immersion"]


@pytest.mark.parametrize(
    "name, text, command, where, subexpression",
    [
        (
            "overflow.manifold",
            'dimension = 1\npotential = "z1*zb1 + 1e300^2"\n',
            _MANIFOLD,
            "overflow.manifold:2: potential",
            "1e+300^2",
        ),
        (
            "overflow.immersion",
            _TWO_COMPONENTS % ("u1 + 1e300^2", "u2"),
            _IMMERSION,
            "overflow.immersion:3: component1",
            "1e+300^2",
        ),
        (
            "exp.manifold",
            'dimension = 1\npotential = "z1*zb1 + exp(1000)"\n',
            _MANIFOLD,
            "exp.manifold:2: potential",
            "exp(1000.0)",
        ),
        (
            "exp.immersion",
            _TWO_COMPONENTS % ("u1", "u2 + exp(1000)"),
            _IMMERSION,
            "exp.immersion:4: component2",
            "exp(1000.0)",
        ),
        (
            # the component that overflows is named, not the larger one
            "smaller.immersion",
            _TWO_COMPONENTS % ("u1 + u1 + u1 + u1", "u2 + 1e300^2"),
            _IMMERSION,
            "smaller.immersion:4: component2",
            "1e+300^2",
        ),
        (
            # of two components that overflow, the first
            "first.immersion",
            _TWO_COMPONENTS % ("u1 + 1e300^2", "u2 + u2 + u2 + exp(1000)"),
            _IMMERSION,
            "first.immersion:3: component1",
            "1e+300^2",
        ),
    ],
)
def test_a_constant_that_overflows_in_the_build_names_its_line(
    name, text, command, where, subexpression, tmp_path, capsys
):
    # Folding a constant subexpression overflows while the target is built.
    path = tmp_path / name
    path.write_text(text)
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path.parent / where}: build: overflow in subexpression '{subexpression}'\n"


DEEP_PARENTHESES = "(" * 400 + "z1*zb1" + ")" * 400


def test_parentheses_too_deep_to_parse_are_a_parse_error(tmp_path, capsys):
    # The parser nests at most 100 deep, however deep its caller is: every
    # route names the 101st parenthesis, at offset 100.
    path = tmp_path / "deep.manifold"
    path.write_text(f'dimension = 1\npotential = "{DEEP_PARENTHESES}"\n')
    assert main(["check", "einstein", "--manifold", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: potential: expression nested too deeply at offset 100\n"
    assert main(["parse", "--expr", DEEP_PARENTHESES, "--dim", "1"]) == 2
    assert capsys.readouterr().err == "error: expression nested too deeply at offset 100\n"
    with pytest.raises(ex.ParseError, match="^expression nested too deeply at offset 100$"):
        ex.parse_expression(DEEP_PARENTHESES, 1)
    # 100 levels parse, of parentheses and of function calls alike.
    assert ex.parse_expression("(" * 100 + "z1*zb1" + ")" * 100, 1) == ex.parse_expression("z1*zb1", 1)
    with pytest.raises(ex.ParseError, match="at offset 403$"):
        ex.parse_expression("log(" * 101 + "z1" + ")" * 101, 1)
    assert ex.node_count(ex.parse_expression("log(" * 100 + "z1" + ")" * 100, 1)) == 101


def test_a_non_real_potential_names_its_line(tmp_path, capsys):
    path = tmp_path / "nonreal.manifold"
    path.write_text('dimension = 1\n# holomorphic, so not real\npotential = "z1*z1"\n')
    assert main(["check", "einstein", "--manifold", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:3: potential is not real on the chart: K([")
    assert captured.out == ""


@pytest.mark.parametrize("command", [["check", "einstein"], ["suite"]])
def test_non_finite_metric_is_an_error_naming_the_point(command, tmp_path, capsys):
    # 1e300*1e300 folds to inf, so g is inf everywhere; no verdict is given on it.
    path = tmp_path / "overflow.manifold"
    path.write_text('dimension = 1\npotential = "1e300*1e300*z1*zb1"\n')
    assert main([*command, "--manifold", str(path), "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert "metric not finite at [" in captured.err
    assert "[fail]" not in captured.out


# The metric of this potential is indefinite for |z1| > 1/sqrt(2).
INDEFINITE_SPEC = 'dimension = 1\npotential = "z1*zb1 - 0.5*(z1*zb1)^2"\ndomain = ball 1.0\n'
# Both components are u1, so the differential has rank 1 everywhere.
RANK_DEFICIENT_SPEC = (
    'ambient = builtin:flat:2\nparameters = 2\ncomponent1 = "u1"\ncomponent2 = "u1"\n'
    "domain = box -1 1 -1 1\n"
)
# The box reaches past the unit ball of the ambient chart at its corners.
ESCAPING_SPEC = (
    'ambient = builtin:chyp:2\nparameters = 2\ncomponent1 = "u1"\ncomponent2 = "u2"\n'
    "domain = box -0.8 0.8 -0.8 0.8\n"
)


@pytest.mark.parametrize(
    "argv, spec, prefix, cause",
    [
        (
            ["check", "einstein", "--seed", "3", "--manifold"],
            INDEFINITE_SPEC,
            "einstein: point 0 of 5, seed 3: ",
            "metric not positive definite at [",
        ),
        (
            # Points 0 to 3 are good: the stacked metric test names point 4.
            ["check", "einstein", "--seed", "13", "--manifold"],
            INDEFINITE_SPEC,
            "einstein: point 4 of 5, seed 13: ",
            "metric not positive definite at [-0.3323726-0.64966559j]: smallest eigenvalue -6.507386e-02\n",
        ),
        (
            ["check", "chsc", "--seed", "3", "--manifold"],
            INDEFINITE_SPEC,
            "chsc: point 0 of 5, seed 3: ",
            "metric not positive definite at [",
        ),
        (
            ["suite", "--seed", "3", "--manifold"],
            INDEFINITE_SPEC,
            "bochner: point 0 of 5, seed 3: ",
            "metric not positive definite at [",
        ),
        (
            ["check", "codazzi-umbilical", "--seed", "3", "--immersion"],
            RANK_DEFICIENT_SPEC,
            "codazzi-umbilical: point 0 of 5, seed 3: ",
            "immersion differential rank deficient at u=[",
        ),
        (
            # Points 0 to 3 are good: the run stops at point 4, before the stacked stage.
            ["check", "umbilical", "--seed", "5", "--immersion"],
            ESCAPING_SPEC,
            "umbilical: point 4 of 5, seed 5: ",
            "immersion leaves the ambient chart domain at u=[-0.6497889   0.71881361]\n",
        ),
    ],
    ids=[
        "check-einstein",
        "check-einstein-late-point",
        "check-chsc",
        "suite",
        "check-codazzi-umbilical",
        "check-umbilical-late-point",
    ],
)
def test_a_failing_point_is_named_by_check_index_and_seed(argv, spec, prefix, cause, tmp_path, capsys):
    # ``argv`` ends with the flag that takes the spec file.
    path = tmp_path / "spec"
    path.write_text(spec)
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {prefix}{cause}")
    assert captured.out == ""


@pytest.mark.parametrize("first", [0, 2, 3])
def test_a_stacked_stage_error_names_its_first_failing_point(first, monkeypatch):
    # Only the ambient curvature's symmetry test can fail once a run's points
    # are stacked; it is named like an error at a point, by its first one.
    imm = models.load_immersion("builtin:cp1-in-cp2")
    real_stack = sub.stack
    rng = np.random.default_rng(3)
    point = [sub.state(imm, imm.domain.sample(rng)).point for _ in range(4)][first]

    def broken_stack(imm, evaluated):
        run = real_stack(imm, evaluated)
        for k in {first, 3}:  # break the (i, k) pair symmetry of d2g at these points only
            run.jets[3][k, 0, 1, 1, 0] += 1e-3
        return run

    monkeypatch.setattr(sub, "stack", broken_stack)
    cfg = RunConfig(manifold=None, check="codazzi-general", immersion=imm.name, points=4, seed=3)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, imm)
    err = info.value
    assert (err.check, err.index, err.seed) == ("codazzi-general", first, 3)
    assert isinstance(err.__cause__, geo.GeometryError)
    assert str(err) == f"codazzi-general: point {first} of 4, seed 3: curvature symmetries violated at {point}"


def test_one_curvature_and_one_ricci_call_per_manifold_run(monkeypatch):
    # The jet tape, curvature and Ricci each run once, on the stack of all
    # the run's points.
    manifold = models.load_manifold("builtin:fs:3")
    calls, runs = [], []
    for name in ("curvature_tensor", "ricci_tensor"):
        real = getattr(geo, name)

        def counted(*a, name=name, real=real):
            calls.append((name, len(a[0])))
            return real(*a)

        monkeypatch.setattr(geo, name, counted)
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    for check in MANIFOLD_CHECKS:
        calls.clear()
        runs.clear()
        cfg = RunConfig(manifold=manifold.name, check=check, points=4, samples=3, seed=2)
        cli._run_loaded(cfg, manifold)
        assert calls == [("curvature_tensor", 4), ("ricci_tensor", 4)], check
        assert runs == [manifold.tape], check


def test_a_suite_evaluates_its_points_once(monkeypatch):
    # Seven checks share one point set: one tape run, metric test,
    # curvature and Ricci for the whole stack.
    manifold = models.load_manifold("builtin:fs:3")
    monkeypatch.setattr(models, "load_manifold", lambda source: manifold)
    calls, runs = [], []
    for name in ("hermitian_metric", "curvature_tensor", "ricci_tensor"):
        real = getattr(geo, name)

        def counted(*a, name=name, real=real):
            calls.append(name)
            return real(*a)

        monkeypatch.setattr(geo, name, counted)
    real_run = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda tape, *a: runs.append(tape) or real_run(tape, *a))
    reports, _ = run_suite("builtin:fs:3", points=4, samples=3, seed=2)
    assert len(reports) == len(MANIFOLD_CHECKS)
    assert calls == ["hermitian_metric", "curvature_tensor", "ricci_tensor"]
    assert runs == [manifold.tape]


def _broken_ricci(monkeypatch, bad):
    """Make route (b) of the Ricci cross-check, which alone reads d2g from
    the jets, disagree at the ``bad``-th point of the run (counted from 0),
    wherever that point stands in a stack; the first call is on the stack
    of all the run's points.  Gives the real ``ricci_tensor``."""
    real, stacks = geo.ricci_tensor, []

    def broken_ricci(p, metric, curvature, jets):
        stacks.append(p)
        d2g = jets[3].copy()
        d2g[np.all(p == stacks[0][bad], axis=-1), 0, 0, 0, 0] += 1e-3
        return real(p, metric, curvature, [*jets[:3], d2g])

    monkeypatch.setattr(geo, "ricci_tensor", broken_ricci)
    return real


@pytest.mark.parametrize("bad", [0, 2])
def test_a_ricci_disagreement_in_a_stack_names_its_point(bad, monkeypatch):
    # A change of d2g at one point of the stack makes the routes disagree there.
    manifold = models.load_manifold("builtin:fs:3")
    real_ricci = _broken_ricci(monkeypatch, bad)
    cfg = RunConfig(manifold=manifold.name, check="einstein", points=4, samples=3, seed=3)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, manifold)
    err = info.value
    monkeypatch.setattr(geo, "ricci_tensor", real_ricci)
    point = inv.sample("einstein", manifold, 4, 3, np.random.default_rng(3))[0].point[bad]
    assert (err.check, err.index, err.seed) == ("einstein", bad, 3)
    assert isinstance(err.__cause__, geo.GeometryError) and err.__cause__.index == (bad,)
    assert str(err) == f"einstein: point {bad} of 4, seed 3: Ricci computation routes disagree at {point}"


@pytest.mark.parametrize("source", ["builtin:fs:3", "builtin:product:fs:1:fs:2"])
def test_a_check_run_equals_its_report_in_the_suite(source):
    # The suite evaluates one point set for all checks; each check draws its
    # frames from its own stream, so running it alone changes nothing.
    def key(report):
        return {k: v for k, v in report.to_json_dict().items() if k != "timestamp"}

    settings = dict(points=3, samples=20, seed=5)
    reports, _ = cli.run_suite(source, **settings)
    assert [r.check for r in reports] == list(MANIFOLD_CHECKS)
    for report in reports:
        alone = run_check(RunConfig(manifold=source, check=report.check, **settings))
        assert key(alone) == key(report), report.check


def _stub_failure(row: int) -> ValueError:
    """An error raised at row ``row`` of a stack, with its ``index`` as a
    tape run gives it."""
    err = ValueError("stub tape failure")
    err.index = (row,)
    return err


def _stubbed_jets(monkeypatch, manifold, failing):
    """Make the jet tape raise, at its row, on any stack that holds the
    ``failing``-th point of the run (counted from 0); the run's first tape
    call is on the stack of all its points."""
    real, stacks = manifold.tape_values, []

    def tape_values(p, *a):
        stacks.append(p)
        rows = np.flatnonzero(np.all(p == stacks[0][failing], axis=-1))
        if rows.size:
            raise _stub_failure(int(rows[0]))
        return real(p, *a)

    monkeypatch.setattr(manifold, "tape_values", tape_values)


@pytest.mark.parametrize("seed, named", [(18, 2), (17, 3)])
def test_an_earlier_metric_failure_comes_before_a_later_point_error(seed, named, tmp_path, monkeypatch):
    # At seed 18, point 2 has an indefinite metric; at seed 17 points 0 to 3
    # are good.  Point 3 fails in the per-point stage: an earlier point whose
    # metric fails is still the one named.
    path = tmp_path / "indefinite.manifold"
    path.write_text(INDEFINITE_SPEC)
    manifold = models.load_manifold(str(path))
    _stubbed_jets(monkeypatch, manifold, 3)
    cfg = RunConfig(manifold=str(path), check="einstein", points=5, samples=3, seed=seed)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, manifold)
    err = info.value
    assert (err.check, err.index, err.seed) == ("einstein", named, seed)
    assert isinstance(err.__cause__, ValueError if named == 3 else geo.MetricError)
    assert str(err).startswith(f"einstein: point {named} of 5, seed {seed}: ")


def test_an_earlier_ricci_disagreement_comes_before_a_later_point_error(monkeypatch):
    # The whole stacked stage, not the metric test alone, runs on the points
    # before one that fails alone: point 1 fails the Ricci cross-check.
    manifold = models.load_manifold("builtin:fs:3")
    _broken_ricci(monkeypatch, 1)
    _stubbed_jets(monkeypatch, manifold, 3)
    cfg = RunConfig(manifold=manifold.name, check="einstein", points=5, samples=3, seed=3)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, manifold)
    assert (info.value.index, type(info.value.__cause__)) == (1, geo.GeometryError)
    assert str(info.value).startswith("einstein: point 1 of 5, seed 3: Ricci computation routes disagree at [")


def test_point_error_carries_the_point_and_chains_the_original(tmp_path):
    path = tmp_path / "indefinite.manifold"
    path.write_text(INDEFINITE_SPEC)
    cfg = RunConfig(manifold=str(path), check="einstein", points=5, samples=10, seed=18)
    with pytest.raises(cli.PointError) as info:
        run_check(cfg)
    err = info.value
    assert (err.check, err.index, err.seed) == ("einstein", 2, 18)
    assert isinstance(err.__cause__, geo.MetricError)
    assert str(err) == f"einstein: point 2 of 5, seed 18: {err.__cause__}"
    # Points 0 and 1 are good: a run of those two alone raises nothing.
    run_check(RunConfig(manifold=str(path), check="einstein", points=2, samples=10, seed=18))
    # Outside the runner the library keeps its own error types.
    manifold = models.load_manifold(str(path))
    with pytest.raises(geo.MetricError):
        inv.point_data(manifold, np.array([0.8 + 0.0j]))


def test_main_parse_command(capsys):
    rc = main(["parse", "--expr", "z1*zb1 + z2*zb2", "--dim", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "z1 * zb1 + z2 * zb2" in out
    assert "nodes: 7" in out


def test_main_parse_kinds_may_carry_spaces(capsys):
    rc = main(["parse", "--expr", "z1*zb1", "--dim", "1", "--kinds", "z, zb"])
    assert rc == 0
    assert "variables: z1, zb1" in capsys.readouterr().out
    # A kind outside the grammar is still named, without the space.
    assert main(["parse", "--expr", "z1", "--dim", "1", "--kinds", "z, w"]) == 2
    assert "unknown variable kind 'w'" in capsys.readouterr().err


def test_main_parse_error_exit_two(capsys):
    rc = main(["parse", "--expr", "z1 + ", "--dim", "1"])
    assert rc == 2
    assert "offset 5" in capsys.readouterr().err


def test_a_number_out_of_range_names_its_line(tmp_path, capsys):
    path = tmp_path / "1e400.manifold"
    path.write_text('dimension = 1\npotential = "1e400*z1*zb1"\n')
    assert main(["check", "einstein", "--manifold", str(path)]) == 2
    assert f"{path}:2: potential: number out of range at offset 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "potential, message",
    [
        ("z1*", "potential: unexpected end of input at offset 3 (expected number or variable or function or '(')\n"),
        # not real, and overflowing at 5 of the 8 points of the reality check
        ("(1 + 0.5i)*exp(2000*z1*zb1)", "potential is not real on the chart: K([-0.3352157+0.46429241j]) = ("),
    ],
    ids=["cut-off", "not-real-and-overflowing"],
)
def test_a_potential_that_cannot_be_built_names_its_line(potential, message, tmp_path, capsys):
    path = tmp_path / "spec.manifold"
    path.write_text(f'dimension = 1\npotential = "{potential}"\ndomain = ball 1.0\n')
    assert main(["check", "einstein", "--manifold", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: {message}")


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
    assert [set(r) for r in a] == [REPORT_KEYS] * 6
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


@pytest.mark.parametrize("target, flags, message", [
    ("--manifold builtin:fs:2", "--points 0", "suite needs points >= 1, got 0"),
    ("--manifold builtin:fs:2", "--samples 0", "suite needs samples >= 1, got 0"),
    ("--immersion builtin:cp1-in-cp2", "--points 0", "suite needs points >= 1, got 0"),
    ("--immersion builtin:cp1-in-cp2", "--samples 0", "suite needs samples >= 1, got 0"),
    # the rule of one check still names that check
    ("--manifold builtin:fs:2", "--samples 1", "check 'basis-sum' needs samples >= 2"),
])
def test_a_suite_names_itself_in_the_counts_every_check_needs(target, flags, message, capsys):
    assert main(["suite", *target.split(), *flags.split()]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_check_of_a_suite_config_is_a_config_error():
    with pytest.raises(ConfigError, match="^run_check runs one check, and cfg names none; a suite is run_suite$"):
        run_check(RunConfig("builtin:fs:2", None, points=1, samples=3))


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
    report, residuals = cli._run_loaded(cfg, imm)
    # One stacked state serves the check and the report: one tape run.
    assert sum(tape is imm.tape for tape in runs) == 1
    assert len(report.worst_cases) == 3
    assert np.array_equal(residuals, [case.residual for case in report.worst_cases])
    for case in report.worst_cases:
        assert case.point.shape == (imm.ambient.m,) and len(case.frame) == imm.n


# An umbilic and a non-umbilic fixture; on the ellipsoid the reduced Codazzi
# check fails with a report, as every check does where its relation fails.
_IMMERSION_RUNS = [
    (fixture, check)
    for fixture in ("sphere-flat2-r1", "ellipsoid-flat2")
    for check in cli.IMMERSION_CHECKS
]


@pytest.mark.parametrize("fixture, check", _IMMERSION_RUNS)
def test_immersion_report_is_a_max_reduction_of_the_state_residuals(fixture, check):
    # The per-point loop and reduction of the manifold checks, fed one value
    # per parameter point, give the report an immersion check stands for.
    imm = models.load_immersion(f"builtin:{fixture}")
    cfg = RunConfig(manifold=None, check=check, immersion=imm.name, points=4, seed=9)
    report, values = cli._run_loaded(cfg, imm)
    rng = np.random.default_rng(9)
    states = [sub.state(imm, imm.domain.sample(rng)) for _ in range(4)]
    want = np.array([inv.CHECKS[check].value(st) for st in states])
    assert np.array_equal(values, want)
    assert report.max_residual == float(np.max(want)) and report.mean_residual == float(np.mean(want))
    for case, st, residual in zip(report.worst_cases, states, want):
        assert case.residual == residual
        assert np.array_equal(case.point, st.point) and np.array_equal(case.frame, st.tangents)


def test_an_immersion_run_tests_its_metric_and_rank_once(monkeypatch):
    # The tapes run at each point; the metric test and the rank test of the
    # differential each run once, on the stack of all the run's points.
    imm = models.load_immersion("builtin:cp1-in-cp2")
    calls = []
    real_metric, real_svd = geo.hermitian_metric, np.linalg.svd
    monkeypatch.setattr(geo, "hermitian_metric", lambda p, g: calls.append(("metric", g.shape)) or real_metric(p, g))
    monkeypatch.setattr(np.linalg, "svd", lambda a, **k: calls.append(("svd", a.shape)) or real_svd(a, **k))
    for check in cli.IMMERSION_CHECKS:
        calls.clear()
        cfg = RunConfig(manifold=None, check=check, immersion=imm.name, points=6, seed=4)
        cli._run_loaded(cfg, imm)
        assert calls == [("metric", (6, 2, 2)), ("svd", (6, 4, 2))], check


def test_parallel_h_check_is_the_run_of_its_check():
    # The library helper draws its points in one call and runs them through
    # the same two stages as ``check parallel-h --seed s``.
    source = "builtin:ellipsoid-flat2"
    cfg = RunConfig(manifold=None, check="parallel-h", immersion=source, points=4, seed=9)
    imm = models.load_immersion(source)
    assert sub.parallel_h_check(imm, 4, np.random.default_rng(9)) == run_check(cfg).max_residual


def _broken_point_jets(monkeypatch, metric=(), rank=(), fail=None):
    """Make the per-point stage give an indefinite metric at the points of
    the run in ``metric``, a zero differential at those in ``rank``, and
    raise, at its row, on any stack that holds point ``fail``, all counted
    from 0 by their position in the run; its first call is on the stack of
    all of them."""
    real, stacks = sub.point_jets, []

    def point_jets(imm, u):
        stacks.append(u)
        where = [next(k for k, v in enumerate(stacks[0]) if np.array_equal(v, row)) for row in u]
        if fail in where:
            raise _stub_failure(where.index(fail))
        u, f, df, *rest = (np.copy(x) for x in real(imm, u))
        for row, k in enumerate(where):
            if k in metric:
                rest[2][row] = -rest[2][row]  # the ambient metric g
            if k in rank:
                df[row] = 0
        return (u, f, df, *rest)

    monkeypatch.setattr(sub, "point_jets", point_jets)


@pytest.mark.parametrize(
    "broken, named, cause",
    [
        (dict(metric={1}, fail=3), 1, "metric not positive definite at ["),
        (dict(rank={1}, fail=3), 1, "immersion differential rank deficient at u=["),
        (dict(metric={3}, fail=1), 1, "stub tape failure"),
        (dict(metric={3}, rank={1}), 1, "immersion differential rank deficient at u=["),
        (dict(metric={1}, rank={3}), 1, "metric not positive definite at ["),
        (dict(metric={2}, rank={2}), 2, "metric not positive definite at ["),
    ],
    ids=[
        "metric-before-point-error",
        "rank-before-point-error",
        "point-error-before-metric",
        "rank-before-metric",
        "metric-before-rank",
        "metric-and-rank-at-one-point",
    ],
)
def test_an_immersion_run_names_its_first_failing_point(broken, named, cause, monkeypatch):
    # Every test of a point counts, whichever stage runs it; at one point
    # the metric test comes before the rank test.
    imm = models.load_immersion("builtin:cp1-in-cp2")
    _broken_point_jets(monkeypatch, **broken)
    cfg = RunConfig(manifold=None, check="umbilical", immersion=imm.name, points=5, seed=3)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, imm)
    err = info.value
    assert (err.check, err.index, err.seed) == ("umbilical", named, 3)
    assert str(err).startswith(f"umbilical: point {named} of 5, seed 3: {cause}")
    # The library's parallel-H run has the same points stage.
    with pytest.raises(geo.StageError) as library:
        sub.parallel_h_check(imm, 5, np.random.default_rng(3))
    assert (library.value.index, str(library.value.__cause__)) == (named, str(err.__cause__))


def test_an_indefinite_ambient_metric_names_its_parameter_point(tmp_path, capsys):
    # The immersion stays inside the ambient ball, but the ambient metric is
    # indefinite for |z1| > 1/sqrt(2): points 0 to 3 are good.
    (tmp_path / "indefinite.manifold").write_text(INDEFINITE_SPEC)
    path = tmp_path / "indefinite.immersion"
    path.write_text('ambient = indefinite.manifold\nparameters = 1\ncomponent1 = "u1"\ndomain = box -0.95 0.95\n')
    assert main(["check", "umbilical", "--immersion", str(path), "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: umbilical: point 4 of 5, seed 5: metric not positive definite at [-0.7627785+0.j]: "
        "smallest eigenvalue -1.636621e-01\n"
    )
    assert captured.out == ""


def test_an_immersion_far_outside_a_ball_chart_is_named_quietly(tmp_path, capsys, recwarn):
    # |f| is about 1e157 to 1e165: finite, but its square overflows, which
    # must read as outside the ball without a numpy warning.
    path = tmp_path / "far.immersion"
    path.write_text(
        'ambient = builtin:chyp:2\nparameters = 2\ncomponent1 = "exp(400*u1)"\ncomponent2 = "u2"\n'
        "domain = box 0.9 0.95 -0.5 0.5\n"
    )
    assert main(["check", "umbilical", "--immersion", str(path), "--seed", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: umbilical: point 0 of 5, seed 4: "
        "immersion leaves the ambient chart domain at u=[0.94493752 0.0101948 ]\n"
    )
    assert not recwarn.list


# exp(1000 |z1|^2) overflows towards the rim of the unit ball: its tape
# raises there, or, where a product overflows silently, gives jets that are
# not finite.
OVERFLOW_SPEC = 'dimension = 1\npotential = "exp(1000*z1*zb1)"\ndomain = ball 1.0\n'


@pytest.mark.parametrize(
    "seed, message",
    [
        (3, "point 0 of 5, seed 3: overflow in subexpression 'exp(1000.0 * z1 * zb1)'"),
        (5, "point 3 of 5, seed 5: metric not finite at [0.00882007-0.83854463j]"),
        (7, "point 3 of 5, seed 7: metric derivatives not finite at [0.74523309-0.36824493j]"),
        (8, "point 2 of 5, seed 8: overflow in subexpression 'exp(1000.0 * z1 * zb1)'"),
        (11, "point 3 of 5, seed 11: overflow in subexpression 'exp(1000.0 * z1 * zb1)'"),
    ],
)
def test_an_overflowing_potential_names_its_point_and_fault(seed, message, tmp_path, capsys, recwarn):
    # The points and faults that evaluating one point at a time named; at
    # seed 7 the metric is finite but its derivatives are not, which the
    # curvature reports before any product, with no numpy warning.
    path = tmp_path / "overflow.manifold"
    path.write_text(OVERFLOW_SPEC)
    assert main(["check", "einstein", "--manifold", str(path), "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == f"error: einstein: {message}\n"
    assert not recwarn.list


# The indefinite chart in z1 beside an overflowing potential in z2: a point
# may fail the metric test, a tape or a test of the curvature.
MIXED_SPECS = {
    "mixed-exp": 'dimension = 2\npotential = "z1*zb1 - 0.5*(z1*zb1)^2 + exp(1000*z2*zb2)"\ndomain = ball 1.0\n',
    "mixed-power": 'dimension = 2\npotential = "z1*zb1 - 0.5*(z1*zb1)^2 + 1e300*(z2*zb2)^3"\ndomain = ball 1.0\n',
}


def _first_failing_alone(manifold, points):
    """The index and error text of the first of ``points`` at which
    ``geometry.point_data`` raises alone, or None if none does."""
    for index, p in enumerate(points):
        try:
            geo.point_data(manifold, p)
        except Exception as err:
            return index, str(err)
    return None


@pytest.mark.parametrize(
    "spec", [INDEFINITE_SPEC, OVERFLOW_SPEC, *MIXED_SPECS.values()], ids=["indefinite", "overflow", *MIXED_SPECS]
)
def test_a_run_names_the_first_point_that_fails_alone(spec, tmp_path):
    # An independent route: the run's points evaluated one at a time, in order.
    path = tmp_path / "chart.manifold"
    path.write_text(spec)
    manifold = models.load_manifold(str(path))
    failing = 0
    for seed in range(50):
        cfg = RunConfig(manifold=str(path), check="einstein", samples=2, seed=seed)
        rng, _ = inv.streams(np.random.default_rng(seed))
        want = _first_failing_alone(manifold, [manifold.sample_point(rng) for _ in range(cfg.points)])
        try:
            cli._run_loaded(cfg, manifold)
            got = None
        except cli.PointError as err:
            got = (err.index, str(err.__cause__))
        assert got == want, seed
        failing += want is not None
    assert failing >= 10


def test_an_earlier_point_that_fails_a_later_test_is_named(tmp_path, capsys):
    # At seed 118 of the mixed chart, point 4 fails the metric test and point
    # 1 only the curvature's finiteness test, which runs after it: point 1 is
    # named, with the text that a run of its first 2 points gives.
    path = tmp_path / "mixed.manifold"
    path.write_text(MIXED_SPECS["mixed-exp"])
    cause = "metric derivatives not finite at [-0.01900549-0.24035771j  0.80398002-0.20693955j]"
    for points in (5, 2):
        assert main(["check", "einstein", "--manifold", str(path), "--seed", "118", "--points", str(points)]) == 2
        assert capsys.readouterr().err == f"error: einstein: point 1 of {points}, seed 118: {cause}\n"


def test_a_stacked_metric_test_names_the_first_failing_point(monkeypatch):
    # The metric tests run one after another over the stack: point 2 fails
    # the first (finiteness), point 1 a later one (positivity), point 3 the
    # Hermiticity test between them, and the run names point 1.
    manifold = models.load_manifold("builtin:fs:3")
    real, stacks = geo.hermitian_metric, []

    def broken_metric(p, g):
        stacks.append(p)
        g = g.copy()
        for row, q in enumerate(p):
            k = next(k for k, v in enumerate(stacks[0]) if np.array_equal(v, q))
            if k == 2:
                g[row, 0, 0] = np.nan
            elif k == 1:
                g[row] = -g[row]
            elif k == 3:
                g[row, 0, 1] += 1.0
        return real(p, g)

    monkeypatch.setattr(geo, "hermitian_metric", broken_metric)
    cfg = RunConfig(manifold=manifold.name, check="einstein", points=5, samples=3, seed=6)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, manifold)
    err = info.value
    assert (err.stage, err.index, type(err.__cause__)) == ("stack", 1, geo.MetricError)
    assert str(err).startswith(f"einstein: point 1 of 5, seed 6: metric not positive definite at {stacks[0][1]}: ")


@pytest.mark.parametrize("check", ["parallel-h", "umbilical", "codazzi-general"])
def test_an_immersion_whose_ambient_jets_are_not_finite_names_its_point(check, tmp_path, capsys, recwarn):
    # exp(1000 |z1|^2) and its metric are finite at point 2, u1 = 0.827, but
    # not all its derivatives: every check stops there, with no NaN residual
    # and no numpy warning.
    (tmp_path / "overflow.manifold").write_text(OVERFLOW_SPEC)
    path = tmp_path / "rim.immersion"
    path.write_text('ambient = overflow.manifold\nparameters = 1\ncomponent1 = "u1"\ndomain = box 0.80 0.835\n')
    assert main(["check", check, "--immersion", str(path), "--seed", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: {check}: point 2 of 5, seed 3: metric derivatives not finite at [0.82699015+0.j]\n"
    )
    assert not recwarn.list


class _Ones:
    """Generator stand-in whose every draw is all ones: no frame of two or
    more legs drawn from it is ever independent."""

    def normal(self, size):
        return np.ones(size)

    def standard_normal(self, size):
        return np.ones(size)


@pytest.mark.parametrize(
    "stage, spec, check, seed, index, cause",
    [
        ("points", OVERFLOW_SPEC, "einstein", 8, 2, ex.EvaluationDomainError),
        ("stack", INDEFINITE_SPEC, "einstein", 18, 2, geo.MetricError),
        ("check", None, "ricci-offdiag", 3, 0, geo.FrameError),
    ],
)
def test_a_point_error_names_its_stage(stage, spec, check, seed, index, cause, tmp_path, monkeypatch):
    # One failure per stage of a run: the tape of one point alone overflows,
    # a stacked metric test fails, and the frame draws of the check are never
    # independent.  The message is the same for every stage.
    source = "builtin:fs:3"
    if spec is not None:
        source = str(tmp_path / "bad.manifold")
        Path(source).write_text(spec)
    manifold = models.load_manifold(source)
    if stage == "check":
        points, frames = inv.streams(np.random.default_rng(seed))
        monkeypatch.setattr(inv, "streams", lambda rng: (points, {name: _Ones() for name in frames}))
    cfg = RunConfig(manifold=source, check=check, seed=seed)
    with pytest.raises(cli.PointError) as info:
        cli._run_loaded(cfg, manifold)
    err = info.value
    assert (err.stage, err.check, err.index, err.seed) == (stage, check, index, seed)
    assert isinstance(err.__cause__, cause)
    assert str(err) == f"{check}: point {index} of 5, seed {seed}: {err.__cause__}"


def test_immersion_worst_cases_own_their_arrays():
    # A view would keep the whole (f, df, d2f, d3f) array of the point alive
    # for as long as the report is kept.
    cfg = RunConfig(manifold=None, check="codazzi-general", immersion="builtin:cp1-in-cp2", points=2, seed=5)
    for case in run_check(cfg).worst_cases:
        assert case.point.flags.owndata and case.frame.flags.owndata


def test_module_form_runs_quietly():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "kahlercheck", "parse", "--expr", "z1", "--dim", "1"],
        capture_output=True, text=True, env=env,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "variables: z1" in done.stdout


def test_benchmark_selfcheck_passes():
    # The benchmark's known answers call library functions by name; a removed
    # or renamed one shows here, not only as a refused benchmark run.
    script = Path(cli.__file__).resolve().parents[2] / "perfbench" / "selfcheck.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
