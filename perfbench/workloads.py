"""The four workloads: what each round calls, and the known answers.

This module imports nothing from kahlercheck, so ``setup_probe.py`` and
``run.py`` can read the workload list before the package is imported.

Known answers follow from the geometry of each chart.  A round chart
``fs:m`` at scale ``s`` has holomorphic sectional curvature ``2s``, Einstein
constant ``(m+1)s`` and scalar curvature ``2m(m+1)s``; ``chyp`` is the same
with ``-s``; a flat chart has zero curvature.  The product of ``fs:1`` at
scale 1 and ``fs:2`` at scale 2 has scalar curvature ``4 + 24 = 28`` and
holomorphic sectional curvature between ``c1 c2 / (c1 + c2) = 4/3`` and
``max(c1, c2) = 4`` for factor curvatures ``c1 = 2``, ``c2 = 4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

MANIFOLD_CHECKS = (
    "bochner",
    "lemma",
    "basis-sum",
    "einstein",
    "ricci-offdiag",
    "chsc",
    "reconstruct-2-3",
)
IMMERSION_CHECKS = ("umbilical", "parallel-h", "codazzi-general", "codazzi-umbilical")
_MIN_DIM = {"lemma": 3, "ricci-offdiag": 2}


@dataclass(frozen=True)
class Chart:
    source: str  # builtin URI, or spec file path
    m: int
    tau: float
    einstein: float | None = None  # Einstein constant; None when not Einstein
    hsc: float | None = None  # constant HSC; None when not constant
    hsc_range: tuple[float, float] | None = None

    @property
    def bochner_flat(self) -> bool:
        return self.hsc is not None

    def checks(self) -> tuple[str, ...]:
        return tuple(c for c in MANIFOLD_CHECKS if self.m >= _MIN_DIM.get(c, 1))

    def expected(self, check: str) -> str:
        # Constant HSC makes every check pass.  The product fails each
        # Bochner, Einstein and constant-HSC check; reconstruct-2-3 passes.
        if check == "reconstruct-2-3":
            return "pass"
        return "pass" if self.bochner_flat else "fail"


def round_chart(kind: str, m: int) -> Chart:
    s = 1.0 if kind == "fs" else -1.0  # scale 1, the URI default
    return Chart(f"builtin:{kind}:{m}", m, tau=2 * m * (m + 1) * s, einstein=(m + 1) * s, hsc=2 * s)


FS3 = round_chart("fs", 3)
CHYP3 = round_chart("chyp", 3)
FS4 = round_chart("fs", 4)
# Holomorphic pullback of the flat metric: K = |F1|^2 + |F2|^2 with F
# holomorphic, so the curvature vanishes although no term is U(2)-symmetric.
FLAT_PULLBACK = Chart(str(HERE / "flat-pullback.manifold"), 2, tau=0.0, einstein=0.0, hsc=0.0)
PRODUCT = Chart("builtin:product:fs:1:fs:2", 3, tau=28.0, hsc_range=(4.0 / 3.0, 4.0))


@dataclass(frozen=True)
class Fixture:
    name: str
    n: int
    umbilic: bool
    parallel_h: bool
    mean_curvature: float | None = None  # |H| where it is constant
    totally_geodesic: bool = False

    @property
    def uri(self) -> str:
        return f"builtin:{self.name}"

    def checks(self) -> tuple[str, ...]:
        # The reduced Codazzi relation only holds on umbilic immersions.
        return IMMERSION_CHECKS if self.umbilic else IMMERSION_CHECKS[:3]

    def expected(self, check: str) -> str:
        # Codazzi holds on every immersion.
        ok = {"umbilical": self.umbilic, "parallel-h": self.parallel_h}.get(check, True)
        return "pass" if ok else "fail"


FIXTURES = (
    Fixture("linear-flat3", 4, umbilic=True, parallel_h=True, mean_curvature=0.0, totally_geodesic=True),
    # Sphere of metric radius r = 1: |H| = 1/r.
    Fixture("sphere-flat2-r1", 2, umbilic=True, parallel_h=True, mean_curvature=1.0),
    Fixture("ellipsoid-flat2", 2, umbilic=False, parallel_h=False),
    Fixture("cylinder-flat2", 2, umbilic=False, parallel_h=True),
    Fixture("cp1-in-cp2", 2, umbilic=True, parallel_h=True, mean_curvature=0.0, totally_geodesic=True),
    Fixture("real-slice-flat2", 2, umbilic=True, parallel_h=True, mean_curvature=0.0, totally_geodesic=True),
)


@dataclass(frozen=True)
class Call:
    """One call into the CLI layer: ``run_suite`` when ``check`` is None."""

    check: str | None
    points: int
    samples: int
    chart: Chart | None = None
    fixture: Fixture | None = None
    fixed_seed: int | None = None  # inputs that must not follow --seed

    def expected(self) -> dict[str, str]:
        if self.check is None:
            return {c: self.chart.expected(c) for c in self.chart.checks()}
        target = self.chart if self.chart is not None else self.fixture
        return {self.check: target.expected(self.check)}

    def residuals(self) -> int:
        """Residual values the configuration asks for; the program's
        implementation cannot change this count."""
        if self.chart is not None:
            return self.points * self.samples * len(self.expected())
        n = self.fixture.n
        per_point = {
            "umbilical": n * n,
            "parallel-h": n,
            "codazzi-general": n * (n - 1) // 2 * n,
            "codazzi-umbilical": n * (n - 1) // 2 * n,
        }[self.check]
        return self.points * per_point


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]

    def charts(self) -> list[Chart]:
        return list(dict.fromkeys(c.chart for c in self.calls if c.chart is not None))

    def fixtures(self) -> list[Fixture]:
        return list(dict.fromkeys(c.fixture for c in self.calls if c.fixture is not None))

    def residuals(self) -> int:
        return sum(c.residuals() for c in self.calls)


# Seed of the flat chart's suite.  Its chsc verdict fails through a fault in
# the program (relative spread of round-off, see CHANGES.md); it failed on
# each of 40 seeds tried, and is kept as the one counted failure on inputs
# that do not depend on --seed.
FLAT_SEED = 7

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-chsc",
            tuple(
                Call(None, points=2, samples=600, chart=chart, fixed_seed=seed)
                for chart, seed in ((FS3, None), (CHYP3, None), (FLAT_PULLBACK, FLAT_SEED))
            ),
        ),
        Workload("suite-product", (Call(None, points=5, samples=200, chart=PRODUCT),)),
        Workload(
            "points-fs4",
            tuple(
                Call(check, points=30, samples=2, chart=FS4)
                for check in ("einstein", "ricci-offdiag", "bochner")
            ),
        ),
        Workload(
            "immersion-checks",
            tuple(
                Call(check, points=8, samples=200, fixture=f)
                for f in FIXTURES
                for check in f.checks()
            ),
        ),
    )
}
