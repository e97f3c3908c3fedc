"""Command-line front end.

Commands::

    check <name> [--manifold URI|PATH] [--immersion PATH|builtin:NAME]
                 [--points N] [--samples K] [--tol T] [--seed S] [--json PATH]
    suite [--manifold URI|PATH] [--immersion PATH|builtin:NAME]
                 [--points N] [--samples K] [--tol T] [--seed S] [--json PATH]
    parse --expr TEXT --dim M [--kinds z,zb,u]

Exit status: 0 when every requested check passes, 1 on a failed verdict,
2 on configuration or evaluation errors.

A manifold run spawns its generators from ``--seed``
(``np.random.SeedSequence(seed).spawn(8)``, see ``invariants.streams``):
the first draws every chart point, and one per check draws that check's
frames.  A suite evaluates one set of points for all its checks, so
``check X --seed s`` gives the X report of ``suite --seed s``.  An
immersion run draws all its parameter points in one call of one generator
seeded with ``--seed``, so the same holds for immersions.  Every check is
one entry of ``invariants.CHECKS``, and a check is a suite of one: ``_run``
loads a target of the checks' kind.  The CLI and the library helpers share
each check's count rule (``geometry.require_counts``) and the points stage
(``invariants.run_points``): the domain tests and each tape run once over
the stack of all the run's points, then the tests of the stack run once.
Every test raises with the ``index`` of the first point that fails it, and
one rule names the run's first failing point (``geometry.run_stages``):
when point k > 0 fails, both stages run again on the points before it, and
k is named only if they pass.  From the stack on, every check takes one
path: ``invariants.draw``, ``invariants.reduce_samples``, a
``CheckReport``.  A suite of manifold checks makes each check's first
frame draw ahead, on one helper thread that ends with the run
(``_DrawsAhead``); the reports keep their bits.  A suite's summary is read
from the property each check tests (``invariants.summary``).  A report is
a deterministic function of its RunConfig (up to the timestamp field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import invariants as inv
from . import models
from . import submanifold as sub
from .geometry import ConfigError
from .invariants import IMMERSION_CHECKS, MANIFOLD_CHECKS, CheckReport


class PointError(Exception):
    """A check failed at the ``index``-th point, counted from 0, of the run
    with ``seed``: the first failing point of its points stage, with that
    ``stage`` (see ``geometry.StageError``), or a point of the check's
    frames and values (stage "check").  The original error is the cause."""

    def __init__(self, cfg: RunConfig, stage: str, index: int, err: Exception):
        super().__init__(f"{cfg.check}: point {index} of {cfg.points}, seed {cfg.seed}: {err}")
        self.check, self.index, self.seed, self.stage = cfg.check, index, cfg.seed, stage


@dataclass
class RunConfig:
    """The settings of a run: of the check ``check``, or of a suite when
    ``check`` is None."""

    manifold: str | None
    check: str | None
    immersion: str | None = None
    points: int = 5
    samples: int = 200
    tol: float = 1e-8
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if self.check is not None and self.check not in inv.CHECKS:
            raise ConfigError(f"unknown check {self.check!r}; known: {', '.join(inv.CHECKS)}")
        # A suite tests the counts that every check needs; each of its checks adds its own rule (``_run``).
        how = inv.CHECKS[self.check].reduce if self.check else "max"
        geo.require_counts(self.check, self.points, self.samples, how)
        # An infinite tolerance would pass every check whatever its residuals.
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tolerance must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


class _DrawsAhead:
    """The first frame draw (``geometry.first_draw``) of each check of a
    manifold suite, made on one helper thread from that check's own
    generator while the points stage and the earlier checks run on the
    caller's.  ``start`` is the ``ahead`` of ``invariants.run_points``,
    ``take`` waits for one check's draw and hands it over, and ``join`` ends
    the thread.  The helper makes only the first draw of each generator, and
    its check's sampler draws again only after taking it, so each generator
    is used by one thread at a time and every frame keeps its bits."""

    def __init__(self, points: int, samples: int, m: int):
        self.points, self.samples, self.m = points, samples, m
        self.draws: dict[str, np.ndarray | Exception] = {}
        self.ready: dict[str, threading.Event] = {}
        self.thread = None

    def start(self, frames: dict[str, np.random.Generator]) -> None:
        self.ready = {name: threading.Event() for name in frames}
        self.thread = threading.Thread(target=self._draw, args=(frames,), name="kahlercheck-draws")
        self.thread.start()

    def _draw(self, frames: dict[str, np.random.Generator]) -> None:
        for name, rng in frames.items():
            k = inv.CHECKS[name].k or self.m
            try:
                self.draws[name] = geo.first_draw(rng, (self.points,), self.samples, k, self.m, at_once=True)
            except Exception as err:  # raised by ``take``, in the check that draws
                self.draws[name] = err
            self.ready[name].set()

    def take(self, name: str) -> np.ndarray:
        self.ready[name].wait()
        if isinstance(first := self.draws.pop(name), Exception):
            raise first
        return first

    def join(self) -> None:
        if self.thread is not None:
            self.thread.join()


def _run_points(
    cfg: RunConfig, target: inv.KahlerManifold | sub.Immersion, checks: list[str], ahead: _DrawsAhead | None = None
) -> tuple:
    """The points stage of the run of ``cfg`` (``invariants.run_points``),
    a failure named as a ``PointError``: the target's name in the report,
    the run's points as one stack and the frame generator of each manifold
    check of ``checks``.  ``ahead`` starts on those generators."""
    try:
        start = ahead.start if ahead else None
        run, frames = inv.run_points(target, cfg.points, np.random.default_rng(cfg.seed), checks, start)
    except geo.StageError as err:
        raise PointError(cfg, err.stage, err.index, err.__cause__) from err.__cause__
    name = f"{target.ambient.name}::{target.name}" if isinstance(target, sub.Immersion) else target.name
    return name, run, frames


def _run_loaded(
    cfg: RunConfig,
    target: inv.KahlerManifold | sub.Immersion,
    shared: tuple | None = None,
    ahead: _DrawsAhead | None = None,
) -> tuple:
    """Run ``cfg.check`` on an already built manifold or immersion.

    Returns the report and one array of the values it was reduced from:
    every sample of a manifold check, one per point of an immersion check.
    The points stage (``_run_points``, or the ``shared`` one of a suite)
    gives the run's points as one stack; then, for either kind, ``inv.draw``
    computes the check's frames and values once for all of them, from the
    first draw that a suite's ``ahead`` made.  A ``PointError`` names the
    stage that failed (see its ``stage``).
    """
    name, run, frames = shared or _run_points(cfg, target, [cfg.check])
    first = ahead.take(cfg.check) if ahead else None
    try:
        sampled = inv.draw(cfg.check, run, cfg.samples, frames.get(cfg.check), first)
    except geo.GeometryError as err:
        raise PointError(cfg, "check", err.index[0], err) from err
    residuals, worst = inv.reduce_samples(inv.CHECKS[cfg.check].reduce, sampled)
    report = CheckReport(
        manifold=name, check=cfg.check, seed=cfg.seed, points=cfg.points, samples=cfg.samples, tolerance=cfg.tol,
        max_residual=float(np.max(residuals)), mean_residual=float(np.mean(residuals)), worst_cases=worst,
    )
    return report, sampled[2].ravel()


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(cfg: RunConfig) -> tuple[list[CheckReport], list[str]]:
    """Load the target of ``cfg`` and run ``cfg.check`` on it or, for a
    suite, every check of its kind that the target's dimension allows, all
    on one points stage.  Gives the reports and, for a suite, its lines:
    the checks skipped, then ``invariants.summary``.

    A run of two or more manifold checks makes their first frame draws on
    one helper thread (``_DrawsAhead``), started as soon as the points stage
    has made the generators and joined before the run returns or raises.  A
    single check and an immersion run start no thread."""
    names = [cfg.check] if cfg.check else list(MANIFOLD_CHECKS if cfg.immersion is None else IMMERSION_CHECKS)
    kind = inv.CHECKS[names[0]].kind  # names the RunConfig field, flag and loader
    other = "immersion" if kind == "manifold" else "manifold"
    what = f"check {cfg.check!r}" if cfg.check else "suite"
    if getattr(cfg, kind) is None:
        raise ConfigError(f"{what} needs --{kind}")
    if getattr(cfg, other) is not None:
        raise ConfigError(f"{what} takes --{kind}, not --{other}")
    configs = [replace(cfg, check=name) for name in names]
    target = getattr(models, f"load_{kind}")(getattr(cfg, kind))
    m = target.m if kind == "manifold" else target.ambient.m  # the complex dimension of its chart
    skipped = [name for name in names if m < inv.CHECKS[name].min_dim]
    if skipped and cfg.check:
        raise ConfigError(f"{what} needs complex dimension >= {inv.CHECKS[cfg.check].min_dim} (got m={m})")
    configs = [c for c in configs if c.check not in skipped]
    # One point set for every check; an error there is named by the first check.
    ahead = _DrawsAhead(cfg.points, cfg.samples, m) if kind == "manifold" and len(configs) > 1 else None
    try:
        shared = _run_points(configs[0], target, [c.check for c in configs], ahead)
        runs = {c.check: _run_loaded(c, target, shared, ahead) for c in configs}
    finally:
        if ahead:
            ahead.join()
    reports = [report for report, _ in runs.values()]
    if cfg.check:
        return reports, []
    lines = [f"skipped {name} (needs complex dimension >= {inv.CHECKS[name].min_dim})" for name in skipped]
    return reports, lines + inv.summary(runs, m)


def run_check(cfg: RunConfig) -> CheckReport:
    """Run one named check deterministically from its configuration."""
    if cfg.check is None:
        raise ConfigError("run_check runs one check, and cfg names none; a suite is run_suite")
    (report,), _ = _run(cfg)
    if cfg.output:
        _write_json(cfg.output, report.to_json_dict())
    return report


def run_suite(
    manifold: str | None,
    tol: float = RunConfig.tol,
    seed: int = RunConfig.seed,
    points: int = RunConfig.points,
    samples: int = RunConfig.samples,
    immersion: str | None = None,
) -> tuple[list[CheckReport], list[str]]:
    """Run every check of the target given, the immersion if any, and
    summarize it: the reports, then the lines of ``_run``."""
    return _run(RunConfig(manifold, None, immersion, points, samples, tol, seed))


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The target flags and run settings of ``check`` and ``suite``, with
    RunConfig's defaults."""
    parser.add_argument("--manifold", help="builtin URI or manifold spec file")
    parser.add_argument("--immersion", help="immersion spec file or builtin:<name>")
    helps = {"samples": "frames per point (immersion checks ignore it; their report records it)"}
    for name in ("points", "samples", "tol", "seed"):
        default = getattr(RunConfig, name)
        parser.add_argument(f"--{name}", type=type(default), default=default, help=helps.get(name))
    parser.add_argument("--json", dest="output", help="write the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlercheck",
        description="Numerical verification of curvature identities for "
        "Kähler charts defined by symbolic potentials.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="run one named check")
    check.add_argument("check", choices=inv.CHECKS)
    _add_run_flags(check)
    _add_run_flags(commands.add_parser("suite", help="run every check of one manifold or immersion"))

    parse = commands.add_parser("parse", help="parse an expression (debugging aid)")
    parse.add_argument("--expr", required=True)
    parse.add_argument("--dim", type=int, required=True)
    parse.add_argument("--kinds", default="z,zb,u")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "parse":
            tree = ex.parse_expression(args.expr, args.dim, [k.strip() for k in args.kinds.split(",")])
            print(ex.unparse(tree))
            print(f"nodes: {ex.node_count(tree)}")
            (dag := ex.Dag()).intern_id(tree)
            names = sorted(ex.unparse(v) for v in dag.variables())
            print(f"variables: {', '.join(names) if names else '(none)'}")
            return 0
        if args.command == "check":
            report = run_check(RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)}))
            print(report.summary_line())
            if not report.passed and report.worst_cases:
                worst = max(report.worst_cases, key=lambda w: w.residual)
                print(f"  worst residual {worst.residual:.3e} at point "
                      f"{np.array2string(np.asarray(worst.point), precision=4)}")
            return 0 if report.passed else 1
        reports, lines = run_suite(args.manifold, args.tol, args.seed, args.points, args.samples, args.immersion)
        for line in [r.summary_line() for r in reports] + lines:
            print(line)
        if args.output:
            _write_json(args.output, [r.to_json_dict() for r in reports])
        return 0 if all(r.passed for r in reports) else 1
    except BrokenPipeError:
        raise
    except Exception as err:  # config, parse, domain and numeric errors -> 2
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
