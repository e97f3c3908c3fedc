"""Time to verdict of kahlercheck, end to end and layer by layer.

    python3 perfbench/run.py --workload suite-chsc --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process runs the workload as a closed loop of whole rounds,
each round the same back-to-back calls into ``cli.run_suite`` and
``cli.run_check``, until ``--seconds`` have passed; numpy/BLAS get one
thread.  An operation is one check verdict: it fails when the call raises,
or when the verdict differs from the known answer in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
cold set-ups in fresh interpreters; ``wall_s``, the mean over rounds of the
time spent in the calls; ``residuals_per_s``, the residual values the
configuration asks for per round divided by ``wall_s``; ``peak_rss_mb`` of
this process.  Times are in reference seconds: ``speed.py`` samples the
machine's drifting speed while the program runs and scales them to it.
``--trace 1`` alternates untraced and traced rounds on the same inputs and
reports the per-layer self times and counts of ``spans.py`` (medians over
the traced rounds), the share of the traced round that named layers below
the CLI cover, and the tracing overhead.  The last line of standard output
is the result as one JSON object; it and the spans of the first traced round are also written under
``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import IMMERSION_CHECKS, MANIFOLD_CHECKS, WORKLOADS  # noqa: E402

# Cold set-ups per run: at least 3, and up to 5 while they take under 6 s
# in all, so cheap set-ups get a steadier median without slow ones costing
# the run more time.
SETUP_SAMPLES = (3, 5)
SETUP_BUDGET_S = 6.0
SETUP_TIMEOUT_S = 170
# Known answers are checked at the first points the first round's reports
# name, up to this many per chart; the oracle at the first few of them.
KNOWN_POINTS = 8
ORACLE_POINTS = 2
IMMERSION_POINTS = 4


def end_to_end_units() -> dict[str, str]:
    return {"wall_s": "s", "residuals_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    from spans import COUNTERS, LAYERS

    units = {f"{layer}_s": "s" for layer in LAYERS}
    units["cli.self_s"] = "s"
    units.update({f"cli.check_s.{check}": "s" for check in MANIFOLD_CHECKS + IMMERSION_CHECKS})
    units.update({name: "count" for name in COUNTERS})
    units["trace.coverage_pct"] = "%"
    units["trace.overhead_pct"] = "%"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload) -> float:
    times = []
    least, most = SETUP_SAMPLES
    while len(times) < least or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def round_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_round(workload, seed: int, probe=None):
    """One round of calls; returns the time spent in them, less the time
    ``probe`` spent in its kernel, and each outcome: ``(reports, summary
    lines)``, or the traceback text if the call raised."""
    from kahlercheck import cli

    wall = 0.0
    outcomes = []
    for call in workload.calls:
        s = call.fixed_seed if call.fixed_seed is not None else seed
        spent = probe.spent if probe else 0.0
        start = perf_counter()
        try:
            if call.check is None:
                outcome = cli.run_suite(call.chart.source, seed=s, points=call.points, samples=call.samples)
            else:
                cfg = cli.RunConfig(
                    manifold=call.chart.source if call.chart else None,
                    immersion=call.fixture.uri if call.fixture else None,
                    check=call.check,
                    points=call.points,
                    samples=call.samples,
                    seed=s,
                )
                outcome = ([cli.run_check(cfg)], [])
        except Exception:  # a raising check is a failed operation, not a crash
            outcome = traceback.format_exc()
        wall += perf_counter() - start - ((probe.spent - spent) if probe else 0.0)
        outcomes.append(outcome)
    return wall, outcomes


def score(workload, rounds) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all rounds, with the reasons."""
    import known

    attempted = failed = 0
    reasons = []
    for outcomes in rounds:
        for call, outcome in zip(workload.calls, outcomes):
            expected = call.expected()
            attempted += len(expected)
            target = call.chart.source if call.chart else call.fixture.name
            if isinstance(outcome, str):
                failed += len(expected)
                reasons.append(f"{target}: raised\n{outcome}")
                continue
            for name in known.verdict_mismatches(outcome[0], expected):
                failed += 1
                reasons.append(f"{target}: {name} verdict differs from {expected[name]}")
    return attempted, failed, reasons


def known_answers(workload, outcomes, seed: int) -> list[str]:
    """Known-answer checks on the first round's outputs."""
    import numpy as np

    import known
    from kahlercheck import models

    rng = np.random.default_rng([seed, 1])
    problems = []
    cases = {}  # chart -> worst cases of the reports whose verdict is right
    for call, outcome in zip(workload.calls, outcomes):
        if call.chart is None or isinstance(outcome, str):
            continue
        reports, lines = outcome
        expected = call.expected()
        right = [r for r in reports if r.verdict == expected.get(r.check)]
        if call.check is None and any(r.check == "chsc" for r in right):
            problems += known.suite_constant(lines, call.chart.hsc, call.chart.source)
        cases.setdefault(call.chart, []).extend(w for r in right for w in r.worst_cases)
    built = {imm.name: imm for imm, _ in models.builtin_immersions()} if workload.fixtures() else {}
    checks = [(chart.source, chart_answers, (chart, worst, rng)) for chart, worst in cases.items()]
    checks += [(f.name, fixture_answers, (f, built[f.name], rng)) for f in workload.fixtures()]
    for label, check, args in checks:
        try:
            problems += check(*args)
        except Exception as err:  # a raising check is a wrong answer, not a crash
            problems.append(f"{label}: known-answer check raised {err!r}")
    return problems


def chart_answers(chart, worst, rng) -> list[str]:
    import numpy as np

    import known
    from kahlercheck import invariants as inv
    from kahlercheck import models
    from kahlercheck.geometry import RealTangentVector

    manifold = models.load_manifold(chart.source)
    pds = {}
    for w in worst:
        key = tuple(complex(c) for c in w.point)
        if key not in pds and len(pds) < KNOWN_POINTS:
            pds[key] = inv.point_data(manifold, w.point)
    label = chart.source
    problems = known.scalar_curvature(pds.values(), chart.tau, label)
    if chart.einstein is not None:
        problems += known.einstein_constant(pds.values(), chart.einstein, label)
    if chart.hsc_range is not None:
        values = [
            inv.holomorphic_sectional_curvature(pds[key], RealTangentVector(np.asarray(v)))
            for w in worst
            if (key := tuple(complex(c) for c in w.point)) in pds
            for v in w.frame
        ]
        problems += known.hsc_range(values, *chart.hsc_range, label)
    problems += known.oracle_agreement(manifold, list(pds.values())[:ORACLE_POINTS], rng, label)
    return problems


def fixture_answers(fixture, imm, rng) -> list[str]:
    import numpy as np

    import known

    lo, hi = np.asarray(imm.domain.lo), np.asarray(imm.domain.hi)
    us = [lo + (hi - lo) * (0.1 + 0.8 * rng.random(imm.n)) for _ in range(IMMERSION_POINTS)]
    problems = []
    if fixture.mean_curvature is not None:
        problems += known.mean_curvature_norm(imm, us, fixture.mean_curvature, fixture.name)
    if fixture.totally_geodesic:
        problems += known.totally_geodesic(imm, us, fixture.name)
    return problems


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    from spans import COUNTERS, LAYERS

    values = {f"{layer}_s": tracer.self_s[layer] for layer in LAYERS}
    values["cli.self_s"] = tracer.self_s["cli"] + tracer.self_s["cli.suite"]
    values.update({f"cli.check_s.{check}": tracer.check_s[check] for check in MANIFOLD_CHECKS + IMMERSION_CHECKS})
    values.update({name: tracer.counts[name] for name in COUNTERS})
    values["trace.coverage_pct"] = 100.0 * sum(tracer.self_s[layer] for layer in LAYERS) / wall
    return values


def write_spans(path: Path, tracer, origin: float) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(["id", "name", "start_s", "end_s", "parent"]) + "\n")
        for span_id, name, start, end, parent in tracer.records:
            fh.write(json.dumps([span_id, name, round(start - origin, 7), round(end - origin, 7), parent]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kahlercheck" / "__init__.py").is_file():
        print(f"error: no kahlercheck sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup(workload) if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    from spans import Tracer, instrumented
    from speed import SpeedProbe

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    rounds = []
    walls = []
    layer_rounds = []
    traced_walls = []
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    deadline = perf_counter() + args.seconds
    while not rounds or perf_counter() < deadline:
        seed = round_seed(args.seed, len(walls))
        wall, outcomes = run_round(workload, seed, probe)
        walls.append(wall)
        rounds.append(outcomes)
        if args.trace:
            tracer = Tracer(keep_records=not layer_rounds)
            origin = perf_counter()
            with instrumented(tracer):
                traced_wall, traced_outcomes = run_round(workload, seed)
            if not layer_rounds:
                write_spans(OUT / f"spans-{tag}.jsonl", tracer, origin)
            layer_rounds.append(layer_metrics(tracer, traced_wall))
            traced_walls.append(traced_wall)
            rounds.append(traced_outcomes)
    if probe:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, reasons = score(workload, rounds)
    problems = known_answers(workload, rounds[0], args.seed)
    for line in list(dict.fromkeys(reasons)) + problems:
        print(f"# {line}", file=sys.stderr)

    if args.trace:
        units = per_layer_units()
        values = {name: statistics.median(r[name] for r in layer_rounds) for name in units if name != "trace.overhead_pct"}
        values["trace.overhead_pct"] = 100.0 * (sum(traced_walls) / sum(walls) - 1.0)
    else:
        units = end_to_end_units()
        # Times in reference seconds (speed.py); the machine's speed drifts
        # over seconds, so the mean of the rounds varies less from run to run
        # than their median.
        wall_s = probe.scaled(statistics.mean(walls))
        values = {
            "wall_s": wall_s,
            "residuals_per_s": workload.residuals() / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"workload {workload.name}, seed {args.seed}: {len(walls)} rounds, "
          f"{attempted} operations, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if probe:
        print(f"  machine speed: {probe.scale():.4f} reference s per s, over {len(probe.samples)} kernel runs")
    detail = dict(result, rounds=len(walls), round_walls_s=walls, traced_round_walls_s=traced_walls,
                  speed_scale=probe.scale() if probe else None,
                  failures=reasons, known_answer_problems=problems)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
