"""Pointwise curvature-identity checks.

Implements the Bochner curvature combination of curvature, Ricci and scalar
curvature, the antiholomorphic 3-frame criterion, the basis-sum criterion,
Einstein and off-diagonal Ricci diagnostics, the curvature reconstruction
from Ricci data, and the constant holomorphic-sectional-curvature fit.

The pointwise functions are pure over a ``PointData`` bundle and give one
value per stacked tangent vector; on a ``PointData`` of a stack of points
(``geometry.stack``) the vectors stack along the same leading point axis.
``CHECKS`` is the one table of checks, of manifolds and of immersions; a
manifold check names the least complex dimension it needs, the frames it
draws, its value on them and how the values reduce to residuals.  A
manifold run draws from the ``streams`` of one seed.  The first draws all
the run's chart points; the jet tape runs once over all of them, and
``geometry.stack`` then fills their jets and evaluates them as one stack.
Each check then draws the frames of every point in one call from its own
stream (``draw``), and computes its values once for the stack.  So a seed
fixes every residual, and every check of a suite sees the same points.
``sample`` runs one check this way, under the count and point rules of ``check``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from . import geometry as geo
from . import submanifold as sub
# ``point_data`` is re-exported as the one-point entry of the library.
from .geometry import KahlerManifold, PointData, RealTangentVector, point_data


class FrameConditionError(Exception):
    """Input vectors do not satisfy the required frame conditions."""


def _stack(legs: Sequence[RealTangentVector]) -> np.ndarray:
    """The legs' components broadcast and stacked as one ``(..., k, m)`` frame array."""
    return np.stack(np.broadcast_arrays(*(x.components for x in legs)), axis=-2)


def _legs(f: np.ndarray) -> list[RealTangentVector]:
    """The legs of the frames ``f`` (``(..., k, m)``): leg a stacks the a-th vector of each."""
    return [RealTangentVector(f[..., a, :]) for a in range(f.shape[-2])]


def _gram(matrix: np.ndarray, legs: np.ndarray | Sequence[RealTangentVector], pairs=None) -> np.ndarray:
    """``(..., k, k)`` values ``2 a(v_a, v_b)`` of the Hermitian form ``a`` on
    the legs: for the metric ``g(x_a, x_b) + i g(x_a, J x_b)``, for the Ricci
    matrix ``S(x_a, x_b) + i S(x_a, J x_b)``.  ``legs`` is a ``(..., k, m)``
    frame array, or its legs (``_stack``).  Each entry (a, b) of ``pairs``
    (default: all) is one product; the others are left unset."""
    f = legs if isinstance(legs, np.ndarray) else _stack(legs)
    k = f.shape[-2]
    # The rows of 2a: the factor 2 is exact, so these are the bits of 2 a(v_a, v_b).
    rows, conj = geo._rows(f, 2.0 * matrix), np.conj(f)
    gram = np.empty((k, k, *f.shape[:-2]), dtype=complex)
    for a, b in itertools.product(range(k), repeat=2) if pairs is None else pairs:
        np.einsum("...i,...i->...", rows[..., a, :], conj[..., b, :], out=gram[a, b, ...])
    return np.moveaxis(gram, (0, 1), (-2, -1))


# The Bochner blocks read the metric Gram ``g`` and the Ricci Gram ``s`` of
# the legs 0..3 = x, y, z, u, at the entries a < b (``_PAIRS``) only.
# ``Re(g_ab conj(s_cd)) = g(a, b) S(c, d) + g(a, Jb) S(c, Jd)`` gives two
# terms of the combination at once.
_PAIRS = tuple(itertools.combinations(range(4), 2))


def _ricci_block(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The ten metric-Ricci cross terms of the Bochner combination."""

    def pair(a: int, b: int, c: int, d: int) -> np.ndarray:
        return (g[..., a, b] * np.conj(s[..., c, d])).real

    return (
        pair(0, 3, 1, 2)
        - pair(0, 2, 1, 3)
        + pair(1, 2, 0, 3)
        - pair(1, 3, 0, 2)
        - 2.0 * g[..., 0, 1].imag * s[..., 2, 3].imag  # g(x, Jy) S(z, Ju)
        - 2.0 * g[..., 2, 3].imag * s[..., 0, 1].imag  # g(z, Ju) S(x, Jy)
    )


def _metric_block(g: np.ndarray) -> np.ndarray:
    """The five pure metric terms of the Bochner combination."""
    return (
        (g[..., 0, 3] * np.conj(g[..., 1, 2])).real
        - (g[..., 0, 2] * np.conj(g[..., 1, 3])).real
        - 2.0 * g[..., 0, 1].imag * g[..., 2, 3].imag  # g(x, Jy) g(z, Ju)
    )


def bochner_at(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """Value of the Bochner curvature tensor B(X, Y, Z, U).

    Vanishes identically on constant holomorphic-sectional-curvature
    models; its identical vanishing is what "Bochner-flat" means.
    """
    return geo.real_curvature(pd.bochner, x, y, z, u)


def reconstruct_curvature_from_ricci(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
    u: RealTangentVector,
) -> float:
    """Curvature value rebuilt from metric, Ricci and scalar curvature alone.

    This is the paper's real-vector route, through ``_ricci_block`` and
    ``_metric_block`` on the metric and Ricci Gram entries of the four legs.
    For Bochner-flat manifolds it reproduces R(X, Y, Z, U); in general
    ``R - reconstruction`` equals B identically.
    """
    return _reconstruction(pd, _stack((x, y, z, u)))


def _reconstruction(pd: PointData, f: np.ndarray) -> np.ndarray:
    m = pd.m
    g, s = (_gram(matrix, f, _PAIRS) for matrix in (pd.metric.matrix, pd.ricci.matrix))
    metric_block = _metric_block(g)
    tau = geo._per_point(pd.tau, metric_block, 0)
    return _ricci_block(g, s) / (2.0 * (m + 2)) - tau * metric_block / (4.0 * (m + 1) * (m + 2))


_FRAME_TOL = 1e-8


def _check_antiholomorphic_frame(pd: PointData, f: np.ndarray) -> None:
    """Raise unless each ``(k, m)`` frame of ``f`` is orthonormal and
    antiholomorphic, naming the first pair a <= b of the first frame that is not."""
    a, b = np.triu_indices(f.shape[-2])
    gram = _gram(pd.metric.matrix, f, zip(a, b))[..., a, b]
    # written as "not within", so that a NaN entry fails too
    bad = ~((np.abs(gram.real - (a == b)) <= _FRAME_TOL) & (np.abs(gram.imag) <= _FRAME_TOL))
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise FrameConditionError(
            f"vectors do not form an orthonormal antiholomorphic {f.shape[-2]}-frame "
            f"(pair {a[first[-1]]},{b[first[-1]]}: g={gram[first].real:.3e}, g(.,J.)={gram[first].imag:.3e})"
        )


def lemma_residual(
    pd: PointData,
    x: RealTangentVector,
    y: RealTangentVector,
    z: RealTangentVector,
) -> float:
    """Residual ``R(x,Jx,y,z) - 2 R(x,y,Jx,z)`` on an antiholomorphic 3-frame.

    Vanishes for all such frames exactly when the Bochner tensor vanishes
    (in complex dimension >= 3).
    """
    return _lemma(pd, _stack((x, y, z)))


def _lemma(pd: PointData, f: np.ndarray) -> np.ndarray:
    _check_antiholomorphic_frame(pd, f)
    x, y, z = _legs(f)
    rc = pd.curvature
    # R(x, Jx, y, z) through the Hermitian square of x, as in
    # ``geometry.holomorphic_square``: w(x, Jx) = -2i x conj(x).
    rows = geo._curvature_rows(rc, geo._outer(x.components, x.components))
    first = 4.0 * geo._pair(rows, y.components, z.components).imag
    return first - 2.0 * geo.real_curvature(rc, x, y, x.j(), z)


def basis_sum(pd: PointData, basis: Sequence[RealTangentVector]) -> float:
    """``sum_i R(e_i, Je_i, Je_i, e_i)`` over a holomorphic orthonormal basis.

    Independent of the basis exactly when the Bochner tensor vanishes.
    """
    if len(basis) != pd.m:
        raise FrameConditionError(f"expected {pd.m} basis vectors, got {len(basis)}")
    return _basis_sum(pd, _stack(basis))


def _basis_sum(pd: PointData, f: np.ndarray) -> np.ndarray:
    _check_antiholomorphic_frame(pd, f)
    return geo.holomorphic_square(pd.curvature, RealTangentVector(f)).sum(axis=-1)


def holomorphic_sectional_curvature(pd: PointData, x: RealTangentVector) -> float:
    """H(x) = R(x, Jx, Jx, x) / g(x, x)^2; invariant under scaling of x."""
    gxx = pd.metric.inner(x, x)
    if np.any(gxx <= 0.0) or not np.all(np.isfinite(x.components)):
        raise ValueError("holomorphic sectional curvature requires a nonzero vector")
    return geo.holomorphic_square(pd.curvature, x) / gxx**2


# --------------------------------------------------------------------------
# Sampled checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One check of the table.

    A manifold check draws at each point ``samples`` frames of k legs from
    ``geometry.<sampler>`` (k = None: the complex dimension), one
    ``(points, samples, k, m)`` draw for a stacked ``pd``; ``value(pd, f)``
    is its signed value on every frame of that array ``f``.
    An immersion check has no sampler: ``value(state)`` is one residual per
    point of a stacked state.  The sampler sets the ``kind`` of the check.
    ``tests`` is the property the check tests, a key of ``PROPERTIES``, or
    None for an identity, which holds on every target.
    ``reduce`` is "max" (each |value| is a residual), "std" (one residual
    per point: the standard deviation of its values) or "spread" (one
    residual: the ``_spread`` of all values).  Samplers, and the public
    functions that the bochner and chsc values call, are looked up by module
    name, so a module-attribute wrapper sees each call.
    """

    value: Callable
    tests: str | None
    reduce: str
    sampler: str | None = None
    k: int | None = None
    min_dim: int = 1

    @property
    def kind(self) -> str:
        return "manifold" if self.sampler else "immersion"


def _einstein(pd: PointData, f: np.ndarray) -> np.ndarray:
    x, y = _legs(f)
    inner = pd.metric.inner(x, y)
    return pd.ricci(x, y) - geo._per_point(pd.tau, inner, 0) / (2.0 * pd.m) * inner


def _reconstruct(pd: PointData, f: np.ndarray) -> np.ndarray:
    # (R - B) - reconstruction: the real-vector blocks against the index-level
    # B, with R - B contracted once.
    r_minus_b = geo.ComplexCurvature(pd.curvature.tensor - pd.bochner.tensor)
    return geo.real_curvature(r_minus_b, *_legs(f)) - _reconstruction(pd, f)


# The line of a suite's summary that states each property a check tests.
PROPERTIES = {
    "Bochner-flat": "Bochner-flat at sampling fidelity",
    "Einstein": "Einstein at sampling fidelity",
    "constant HSC": "constant holomorphic sectional curvature",
    "totally umbilical": "totally umbilical at sampling fidelity",
    "parallel mean curvature": "parallel mean curvature at sampling fidelity",
}
_UNIT, _ANTI = "unit_tangents", "antiholomorphic_frames"
CHECKS: dict[str, Check] = {
    "bochner": Check(lambda pd, f: bochner_at(pd, *_legs(f)), "Bochner-flat", "max", _UNIT, 4),
    "lemma": Check(_lemma, "Bochner-flat", "max", _ANTI, 3, min_dim=3),
    "basis-sum": Check(_basis_sum, "Bochner-flat", "std", _ANTI),
    "einstein": Check(_einstein, "Einstein", "max", _UNIT, 2),
    "ricci-offdiag": Check(lambda pd, f: pd.ricci(*_legs(f)), "Einstein", "max", _ANTI, 2, min_dim=2),
    "chsc": Check(lambda pd, f: holomorphic_sectional_curvature(pd, *_legs(f)), "constant HSC", "spread", _UNIT, 1),
    "reconstruct-2-3": Check(_reconstruct, None, "max", _UNIT, 4),
    "umbilical": Check(lambda st: st.umbilical, "totally umbilical", "max"),
    "parallel-h": Check(sub._parallel_h_residual, "parallel mean curvature", "max"),
    "codazzi-general": Check(lambda st: sub._worst_triple(sub._codazzi_general(st)), None, "max"),
    "codazzi-umbilical": Check(lambda st: sub._worst_triple(sub._codazzi_umbilical(st)), "totally umbilical", "max"),
}
MANIFOLD_CHECKS = tuple(name for name, check in CHECKS.items() if check.kind == "manifold")
IMMERSION_CHECKS = tuple(name for name, check in CHECKS.items() if check.kind == "immersion")

# One check on its points: a record with the ``point`` data (a PointData, or
# the state of an immersion check), its frames and their values.  ``draw``
# gives one point's (samples, k, m) frames and (samples,) values; on a
# stacked PointData all three have a leading point axis.
PointSamples = tuple[Any, np.ndarray, np.ndarray]


def streams(rng: np.random.Generator) -> tuple[np.random.Generator, dict[str, np.random.Generator]]:
    """The generators of a manifold run, spawned from ``rng``: the first
    draws every chart point, and one per check of ``MANIFOLD_CHECKS``, in
    order, draws that check's frames.  From ``np.random.default_rng(seed)``
    they are the children of ``np.random.SeedSequence(seed).spawn(8)``,
    which is how ``check`` and ``suite`` draw: every check of a suite sees
    the same points, and a check's frames do not depend on the other checks.
    ``Generator.spawn`` needs numpy 1.25."""
    points, *frames = rng.spawn(1 + len(MANIFOLD_CHECKS))
    return points, dict(zip(MANIFOLD_CHECKS, frames))


def draw(name: str, pd: Any, samples: int, rng: np.random.Generator | None) -> PointSamples:
    """``samples`` frames of check ``name`` at each point of ``pd`` in one
    draw, and the check's value on each frame.  An immersion check, on a
    stacked state, has one frame per point: its tangents."""
    check = CHECKS[name]
    if check.sampler is None:
        return pd, pd.tangents[:, None], check.value(pd)[:, None]
    frames = getattr(geo, check.sampler)(pd.metric, samples, check.k or pd.m, rng)
    return pd, frames, check.value(pd, frames)


def run_points(target: KahlerManifold | sub.Immersion, points: int, rng: np.random.Generator) -> tuple[Any, dict]:
    """The points stage of a run: ``points`` points of a manifold (from the
    first of the ``streams`` of ``rng``) or of an immersion through the two
    stages of ``geometry.run_stages``, and each manifold check's frame generator."""
    if isinstance(target, sub.Immersion):
        return sub.run_points(target, points, rng), {}
    points_rng, frames = streams(rng)
    drawn = np.array([target.sample_point(points_rng) for _ in range(points)])
    return geo.run_stages(drawn, partial(geo.point_jets, target), partial(geo.stack, target)), frames


def sample(
    name: str, target: KahlerManifold | sub.Immersion, points: int, samples: int, rng: np.random.Generator
) -> PointSamples:
    """The run of check ``name`` on ``target``: its count rule
    (``geometry.require_counts``), ``run_points``, then ``draw``.  With
    ``rng = np.random.default_rng(seed)`` this is the run that ``check``
    makes at that seed, down to the counts it rejects and the point it names."""
    geo.require_counts(name, points, samples, CHECKS[name].reduce)
    run, frames = run_points(target, points, rng)
    return draw(name, run, samples, frames.get(name))


def _spread(sampled: PointSamples) -> tuple[np.ndarray, float, float]:
    """All values sampled, their mean and their relative spread.

    The spread is ``(max - min) / max(|mean|, floor)``.  The floor is the
    largest ``PointData.term_scale`` over the points: the size of the two
    terms of R that cancel, which sets the round-off in every value.  On a
    flat chart the mean is itself round-off, so dividing by it alone would
    turn round-off into an O(1) spread.
    """
    pd, _, values = sampled
    values = values.ravel()
    mean = float(values.mean())
    width = float(values.max() - values.min())
    if width == 0.0:
        return values, mean, 0.0
    return values, mean, width / max(abs(mean), float(np.max(pd.term_scale)))


def reduce_samples(how: str, sampled: PointSamples) -> tuple[np.ndarray, WorstCases]:
    """Residuals and worst cases of a run's record under the reduction
    ``how`` (see ``Check``): at each point the first largest sample ("max")
    or the one farthest from the point's mean ("std"); for "spread", the one
    sample farthest from the mean of all.  Points and frames are copies,
    never views of jets or stacks."""
    run, frames, values = sampled  # values: (points, samples)
    if how == "spread":
        flat, mean, spread = _spread(sampled)
        point, i = divmod(int(np.argmax(np.abs(flat - mean))), values.shape[1])
        return np.array([spread]), WorstCases(run.point[[point]], frames[[point], [i]], np.array([spread]))
    if how not in ("max", "std"):
        raise ValueError(f"unknown reduction {how!r}")
    far = np.abs(values - (values.mean(axis=1, keepdims=True) if how == "std" else 0.0))
    per_point = values.std(axis=1) if how == "std" else far.max(axis=1)
    worst = WorstCases(run.point.copy(), frames[np.arange(len(far)), far.argmax(axis=1)], per_point)
    return per_point if how == "std" else far.ravel(), worst


def _hsc_rule(checks: dict[str | None, list[str]], passed: dict[str, bool], m: int) -> list[str]:
    # For m >= 2, constant HSC holds exactly when B = 0 and the metric is
    # Einstein (Bryant, "Bochner-Kähler metrics", J. AMS 14, 2001, section 1).
    names = [checks[prop] for prop in ("Bochner-flat", "Einstein", "constant HSC")]
    flat, einstein, hsc = (all(passed[name] for name in group) for group in names)
    if m < 2 or not all(names) or hsc == (flat and einstein):
        return []
    return [name for group in names for name in group]


# The rules a suite's verdicts keep.  A rule reads the run's checks of each
# property (key None: the identities), each check's verdict and the
# complex dimension, and gives the checks that break it, none if it holds.
RULES: dict[str, Callable[[dict, dict, int], list[str]]] = {
    "checks of one property agree": lambda checks, passed, m: [
        name for prop, names in checks.items() if prop and len({passed[n] for n in names}) > 1 for name in names
    ],
    "identity checks pass": lambda checks, passed, m: [name for name in checks[None] if not passed[name]],
    "for m >= 2, constant HSC iff Bochner-flat and Einstein": _hsc_rule,
}


def summary(runs: dict[str, tuple[CheckReport, np.ndarray]], m: int) -> list[str]:
    """The summary lines of a suite's ``runs`` (each check's report and
    values) on a chart of complex dimension ``m``.  Each property that a
    check of the run tests gets its ``PROPERTIES`` line: "yes" when all its
    checks pass, with the mean value of a "spread" check as its constant,
    else "no".  Each rule of ``RULES`` that the verdicts break adds one line
    naming the checks that break it and their max residuals."""
    checks = {prop: [name for name in runs if CHECKS[name].tests == prop] for prop in (*PROPERTIES, None)}
    passed = {name: report.passed for name, (report, _) in runs.items()}
    lines = []
    for prop, line in PROPERTIES.items():
        if checks[prop]:
            fits = [f" (c = {float(np.mean(runs[n][1])):.6g})" for n in checks[prop] if CHECKS[n].reduce == "spread"]
            held = all(passed[name] for name in checks[prop])
            lines.append(f"{line}: yes{''.join(fits)}" if held else f"{line}: no")
    for rule, broken in RULES.items():
        if names := broken(checks, passed, m):
            residuals = ", ".join(f"{name} max={runs[name][0].max_residual:.3e}" for name in names)
            lines.append(f"rule broken: {rule}: {residuals}")
    return lines


def _largest(name: str, pd: PointData, samples: int, rng: np.random.Generator) -> float:
    """max |value| of check ``name`` over ``samples`` frames drawn from
    ``rng`` at each point of ``pd``, under the count rule of ``check``."""
    geo.require_counts(name, np.size(pd.tau), samples, CHECKS[name].reduce)
    return float(np.max(np.abs(draw(name, pd, samples, rng)[2])))


def einstein_residual(pd: PointData, samples: int, rng: np.random.Generator) -> float:
    """max |S(X, Y) - (tau / 2m) g(X, Y)| over random unit vector pairs."""
    return _largest("einstein", pd, samples, rng)


def ricci_offdiagonal_check(pd: PointData, samples: int, rng: np.random.Generator) -> float:
    """max |S(y, z)| over pairs with g(y,z) = g(y,Jz) = 0.

    The pairs are the first two legs of random antiholomorphic 2-frames,
    which satisfy both orthogonality constraints by construction.
    """
    return _largest("ricci-offdiag", pd, samples, rng)


def chsc_fit(manifold: KahlerManifold, points: int, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Estimate the holomorphic sectional curvature constant.

    The run of ``check chsc`` (``sample``), with its count rule and its
    first failing point, on ``points`` chart points and ``samples`` random
    directions at each; returns ``(mean H, relative spread)`` as ``_spread``
    defines them.  The curvature is constant at sampling fidelity when the
    spread is below tolerance.
    """
    _, mean, spread = _spread(sample("chsc", manifold, points, samples, rng))
    return mean, spread


# --------------------------------------------------------------------------
# Check reports
# --------------------------------------------------------------------------


def _complex_pairs(vec: Sequence[complex]) -> list[list[float]]:
    return [[float(np.real(c)), float(np.imag(c))] for c in np.asarray(vec, dtype=complex)]


@dataclass(slots=True)
class WorstCase:
    point: np.ndarray  # chart point (complex coordinates)
    frame: Sequence[np.ndarray]  # the vectors involved in the worst sample
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "point": _complex_pairs(self.point),
            "frame": [_complex_pairs(v) for v in self.frame],
            "residual": self.residual,
        }


class WorstCases(Sequence[WorstCase]):
    """A report's worst cases as three arrays, one row per case: the chart
    points, the frames and the residuals.  Item ``i`` is a ``WorstCase`` of
    fresh copies of row ``i``.  A kept report thus holds three small arrays
    however many points its run had, not one object per array of each case."""

    __slots__ = ("points", "frames", "residuals")

    def __init__(self, points: np.ndarray, frames: np.ndarray, residuals: np.ndarray):
        self.points, self.frames, self.residuals = points, frames, residuals

    def __len__(self) -> int:
        return len(self.residuals)

    def __getitem__(self, i: int) -> WorstCase:
        i = operator.index(i)
        return WorstCase(self.points[i].copy(), self.frames[i].copy(), float(self.residuals[i]))


@dataclass(slots=True)
class CheckReport:
    """Outcome of one verification run.

    ``verdict`` is "pass" exactly when ``max_residual <= tolerance``.
    """

    manifold: str
    check: str
    seed: int
    points: int
    samples: int
    tolerance: float
    max_residual: float
    mean_residual: float
    worst_cases: Sequence[WorstCase] = field(default_factory=list)
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    @property
    def verdict(self) -> str:
        return "pass" if self.max_residual <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "check": self.check,
            "seed": self.seed,
            "points": self.points,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "verdict": self.verdict,
            "worst_cases": [w.to_json_dict() for w in self.worst_cases],
            "timestamp": self.timestamp,
        }

    def summary_line(self) -> str:
        return (
            f"[{self.verdict}] {self.check} on {self.manifold}: "
            f"max={self.max_residual:.3e} mean={self.mean_residual:.3e} "
            f"tol={self.tolerance:.1e} (seed={self.seed})"
        )
