"""Show that every known-answer check of the benchmark can fail.

    python3 perfbench/selfcheck.py

Each check runs once on true outputs of the program, where it must pass,
and once on a wrong expected value or a perturbed report, where it must
trip.  The script also checks that ``BENCHMARK.json`` lists exactly the
metrics ``run.py`` prints.  Exit status 0 when everything behaves, 1 if not.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import known  # noqa: E402
import run  # noqa: E402
from kahlercheck import cli, models  # noqa: E402
from kahlercheck import geometry as geo  # noqa: E402
from kahlercheck import invariants as inv  # noqa: E402
from kahlercheck.geometry import ComplexCurvature  # noqa: E402
from workloads import FIXTURES, FLAT_PULLBACK, FS3, PRODUCT  # noqa: E402

failures = []


def expect(title: str, true_case: list[str], broken_case: list[str]) -> None:
    ok = not true_case and bool(broken_case)
    print(f"[{'ok' if ok else 'BAD'}] {title}: true case {len(true_case)} problems, "
          f"broken case {len(broken_case)} problems")
    if not ok:
        failures.append(title)
        for line in true_case:
            print(f"    true case: {line}")


def point_datas(chart, count: int, rng) -> tuple[object, list]:
    manifold = models.load_manifold(chart.source)
    return manifold, [inv.point_data(manifold, manifold.sample_point(rng)) for _ in range(count)]


def main() -> int:
    rng = np.random.default_rng(2024)

    reports, lines = cli.run_suite(FS3.source, seed=3, points=1, samples=20)
    expected = {c: FS3.expected(c) for c in FS3.checks()}
    flipped = dict(expected, bochner="fail")
    expect("verdicts against the known pattern", known.verdict_mismatches(reports, expected),
           known.verdict_mismatches(reports, flipped))
    perturbed = [dataclasses.replace(r, max_residual=1.0) if r.check == "einstein" else r for r in reports]
    expect("verdicts of a perturbed report", [], known.verdict_mismatches(perturbed, expected))

    expect("suite constant c = 2s", known.suite_constant(lines, FS3.hsc, "fs:3"),
           known.suite_constant(lines, 2.5, "fs:3"))
    edited = [line.replace("(c = 2)", "(c = 2.1)") for line in lines]
    expect("suite constant in a perturbed summary", [], known.suite_constant(edited, FS3.hsc, "fs:3"))
    expect("suite constant where none is expected", [], known.suite_constant(lines, None, "fs:3"))

    manifold, pds = point_datas(FS3, 3, rng)
    expect("scalar curvature 2m(m+1)s", known.scalar_curvature(pds, FS3.tau, "fs:3"),
           known.scalar_curvature(pds, FS3.tau + 1e-6, "fs:3"))
    expect("Einstein constant (m+1)s", known.einstein_constant(pds, FS3.einstein, "fs:3"),
           known.einstein_constant(pds, FS3.einstein * (1 + 1e-6), "fs:3"))
    bent = [dataclasses.replace(pd, curvature=ComplexCurvature(pd.curvature.tensor * (1 + 1e-3))) for pd in pds[:1]]
    expect("finite-difference oracle", known.oracle_agreement(manifold, pds[:1], rng, "fs:3"),
           known.oracle_agreement(manifold, bent, rng, "fs:3"))

    _, flat_pds = point_datas(FLAT_PULLBACK, 2, rng)
    expect("flat chart tau = 0", known.scalar_curvature(flat_pds, FLAT_PULLBACK.tau, "flat"),
           known.scalar_curvature(flat_pds, 1e-6, "flat"))

    _, prod_pds = point_datas(PRODUCT, 2, rng)
    expect("product tau = 28", known.scalar_curvature(prod_pds, PRODUCT.tau, "product"),
           known.scalar_curvature(prod_pds, 24.0, "product"))
    values = [
        inv.holomorphic_sectional_curvature(pd, v)
        for pd in prod_pds
        for v in (geo.random_unit_tangent(pd.metric, pd.m, rng) for _ in range(50))
    ]
    expect("product H in [4/3, 4]", known.hsc_range(values, *PRODUCT.hsc_range, "product"),
           known.hsc_range(values + [4.01], *PRODUCT.hsc_range, "product"))

    built = {imm.name: imm for imm, _ in models.builtin_immersions()}
    sphere = built["sphere-flat2-r1"]
    sphere_fixture = next(f for f in FIXTURES if f.name == sphere.name)
    us = [sphere.domain.sample(rng) for _ in range(2)]
    expect("sphere |H| = 1/r", known.mean_curvature_norm(sphere, us, sphere_fixture.mean_curvature, "sphere"),
           known.mean_curvature_norm(sphere, us, 1.0 + 1e-6, "sphere"))
    for name in ("linear-flat3", "cp1-in-cp2", "real-slice-flat2"):
        imm = built[name]
        us = [imm.domain.sample(rng) for _ in range(2)]
        expect(f"alpha = 0 on {name}", known.totally_geodesic(imm, us, name),
               known.totally_geodesic(sphere, [sphere.domain.sample(rng)], "sphere as " + name))

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.end_to_end_units()), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            failures.append(f"BENCHMARK.json {key}")
            print(f"[BAD] BENCHMARK.json {key} differs from run.py: "
                  f"{sorted(set(listed.items()) ^ set(units.items()))}")
        else:
            print(f"[ok] BENCHMARK.json {key} matches run.py ({len(units)} metrics)")

    print("all checks can fail" if not failures else f"{len(failures)} checks misbehave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
