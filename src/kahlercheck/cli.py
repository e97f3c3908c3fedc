"""Command-line front end.

Commands::

    check <name> [--manifold URI|PATH] [--immersion PATH|builtin:NAME]
                 [--points N] [--samples K] [--tol T] [--seed S] [--json PATH]
    suite --manifold URI|PATH [--tol T] [--seed S] [--points N] [--samples K]
                 [--json PATH]
    parse --expr TEXT --dim M [--kinds z,zb,u]

Exit status: 0 when every requested check passes, 1 on a failed verdict,
2 on configuration or evaluation errors.

All randomness flows from one seeded generator per check, drawn
sequentially, so a report is a deterministic function of its RunConfig
(up to the timestamp field).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import invariants as inv
from . import models
from . import submanifold as sub
from .invariants import MANIFOLD_CHECKS, CheckReport, WorstCase

IMMERSION_CHECKS = tuple(sub.CHECKS)
ALL_CHECKS = MANIFOLD_CHECKS + IMMERSION_CHECKS


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    manifold: str | None
    check: str
    immersion: str | None = None
    points: int = 5
    samples: int = 200
    tol: float = 1e-8
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if self.check not in ALL_CHECKS:
            raise ConfigError(
                f"unknown check {self.check!r}; known: {', '.join(ALL_CHECKS)}"
            )
        if self.points < 1 or self.samples < 1:
            raise ConfigError("points and samples must be >= 1")
        # A standard deviation or a spread of one value is 0 whatever the chart.
        how = inv.CHECKS[self.check].reduce if self.check in inv.CHECKS else "max"
        if {"std": self.samples, "spread": self.points * self.samples}.get(how, 2) < 2:
            what = "samples" if how == "std" else "points x samples"
            raise ConfigError(f"check {self.check!r} needs {what} >= 2")
        if not self.tol > 0:
            raise ConfigError("tolerance must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


def _finish(
    cfg: RunConfig,
    name: str,
    residuals: list[float],
    worst: list[WorstCase],
) -> CheckReport:
    return CheckReport(
        manifold=name,
        check=cfg.check,
        seed=cfg.seed,
        points=cfg.points,
        samples=cfg.samples,
        tolerance=cfg.tol,
        max_residual=float(np.max(residuals)),
        mean_residual=float(np.mean(residuals)),
        worst_cases=worst,
    )


def _run_manifold_check(cfg: RunConfig, manifold: geo.KahlerManifold, rng) -> tuple:
    """The report of a manifold check and the values of all its samples."""
    check = inv.CHECKS[cfg.check]
    if manifold.m < check.min_dim:
        raise ConfigError(
            f"check {cfg.check!r} needs complex dimension >= {check.min_dim} "
            f"(got m={manifold.m})"
        )
    sampled = inv.sample(cfg.check, manifold, cfg.points, cfg.samples, rng)
    report = _finish(cfg, manifold.name, *inv.reduce_samples(cfg.check, sampled))
    return report, np.concatenate([values for _, _, values in sampled])


def _run_immersion_check(cfg: RunConfig, immersion: sub.Immersion, rng) -> CheckReport:
    states = (sub.state(immersion, immersion.domain.sample(rng)) for _ in range(cfg.points))
    # Copies: a view would keep the point's whole jet array alive with the report.
    worst = [WorstCase(s.point.copy(), s.tangents.copy(), sub.CHECKS[cfg.check](s)) for s in states]
    return _finish(cfg, f"{immersion.ambient.name}::{immersion.name}", [w.residual for w in worst], worst)


def _run_loaded(cfg: RunConfig, target: geo.KahlerManifold | sub.Immersion) -> CheckReport:
    """Run ``cfg.check`` on an already built manifold or immersion."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.check in MANIFOLD_CHECKS:
        return _run_manifold_check(cfg, target, rng)[0]
    return _run_immersion_check(cfg, target, rng)


def run_check(cfg: RunConfig) -> CheckReport:
    """Run one named check deterministically from its configuration."""
    if cfg.check in MANIFOLD_CHECKS:
        if cfg.manifold is None:
            raise ConfigError(f"check {cfg.check!r} needs --manifold")
        report = _run_loaded(cfg, models.load_manifold(cfg.manifold))
    else:
        if cfg.immersion is None:
            raise ConfigError(f"check {cfg.check!r} needs --immersion")
        report = _run_loaded(cfg, models.load_immersion(cfg.immersion))
    if cfg.output:
        with open(cfg.output, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def run_suite(
    manifold_source: str,
    tol: float = 1e-8,
    seed: int = 0,
    points: int = 5,
    samples: int = 200,
) -> tuple[list[CheckReport], list[str]]:
    """Run every manifold-level check and summarize the verification pipeline.

    Returns the reports plus human-readable summary lines stating whether
    the manifold is (at sampling fidelity) Bochner-flat, Einstein, and of
    constant holomorphic sectional curvature.
    """
    manifold = models.load_manifold(manifold_source)
    reports = []
    skipped = []
    for name in MANIFOLD_CHECKS:
        if manifold.m < inv.CHECKS[name].min_dim:
            skipped.append(name)
            continue
        cfg = RunConfig(
            manifold=manifold_source,
            check=name,
            points=points,
            samples=samples,
            tol=tol,
            seed=seed,
        )
        report, values = _run_manifold_check(cfg, manifold, np.random.default_rng(seed))
        reports.append(report)
        if name == "chsc":
            c_value = float(np.mean(values))
    by_name = {r.check: r for r in reports}

    def ok(name: str) -> bool:
        return name in skipped or (name in by_name and by_name[name].passed)

    bochner_flat = ok("bochner") and ok("basis-sum") and ok("lemma")
    einstein = ok("einstein") and ok("ricci-offdiag")
    constant = ok("chsc")
    lines = []
    for name in skipped:
        lines.append(f"skipped {name} (needs complex dimension >= {inv.CHECKS[name].min_dim})")
    lines.append(f"Bochner-flat at sampling fidelity: {'yes' if bochner_flat else 'no'}")
    lines.append(f"Einstein at sampling fidelity: {'yes' if einstein else 'no'}")
    lines.append(
        "constant holomorphic sectional curvature: "
        + (f"yes (c = {c_value:.6g})" if constant else "no")
    )
    return reports, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlercheck",
        description="Numerical verification of curvature identities for "
        "Kähler charts defined by symbolic potentials.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="run one named check")
    check.add_argument("name", choices=ALL_CHECKS)
    check.add_argument("--manifold", help="builtin URI or manifold spec file")
    check.add_argument("--immersion", help="immersion spec file or builtin:<name>")
    check.add_argument("--points", type=int, default=5)
    check.add_argument("--samples", type=int, default=200)
    check.add_argument("--tol", type=float, default=1e-8)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--json", dest="output", help="write the report as JSON")

    suite = commands.add_parser("suite", help="run all manifold checks")
    suite.add_argument("--manifold", required=True)
    suite.add_argument("--points", type=int, default=5)
    suite.add_argument("--samples", type=int, default=200)
    suite.add_argument("--tol", type=float, default=1e-8)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--json", dest="output")

    parse = commands.add_parser("parse", help="parse an expression (debugging aid)")
    parse.add_argument("--expr", required=True)
    parse.add_argument("--dim", type=int, required=True)
    parse.add_argument("--kinds", default="z,zb,u")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "parse":
            tree = ex.parse_expression(args.expr, args.dim, args.kinds.split(","))
            print(ex.unparse(tree))
            print(f"nodes: {ex.node_count(tree)}")
            names = sorted(ex.unparse(v) for v in ex.variables(tree))
            print(f"variables: {', '.join(names) if names else '(none)'}")
            return 0
        if args.command == "check":
            cfg = RunConfig(
                manifold=args.manifold,
                check=args.name,
                immersion=args.immersion,
                points=args.points,
                samples=args.samples,
                tol=args.tol,
                seed=args.seed,
                output=args.output,
            )
            report = run_check(cfg)
            print(report.summary_line())
            if not report.passed and report.worst_cases:
                worst = max(report.worst_cases, key=lambda w: w.residual)
                print(f"  worst residual {worst.residual:.3e} at point "
                      f"{np.array2string(np.asarray(worst.point), precision=4)}")
            return 0 if report.passed else 1
        # suite
        reports, lines = run_suite(
            args.manifold,
            tol=args.tol,
            seed=args.seed,
            points=args.points,
            samples=args.samples,
        )
        for report in reports:
            print(report.summary_line())
        for line in lines:
            print(line)
        if args.output:
            payload = [r.to_json_dict() for r in reports]
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0 if all(r.passed for r in reports) else 1
    except BrokenPipeError:
        raise
    except Exception as err:  # config, parse, domain and numeric errors -> 2
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
