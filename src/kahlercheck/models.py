"""Built-in model manifolds and immersion fixtures with known behavior.

URIs:

* ``builtin:flat:<m>``: flat chart, potential ``sum z_k zb_k``, zero curvature
* ``builtin:fs:<m>[:<scale>]``: round chart ``(1/s) log(1 + sum z_k zb_k)``;
  constant holomorphic sectional curvature ``2 s``
* ``builtin:chyp:<m>[:<scale>]``: ``-(1/s) log(1 - sum z_k zb_k)`` on the
  ball of radius 0.9; constant holomorphic sectional curvature ``-2 s``
* ``builtin:product:fs:<m1>:fs:<m2>``: product of two round factors on
  disjoint coordinate blocks.  The factors get unequal default scales
  (1 and 2) so the factor curvatures differ; the product is neither
  Einstein nor Bochner-flat.

The immersion fixtures label spheres by their radius in the ambient metric
(g doubles the Euclidean coordinate metric of the flat chart, so coordinate
radius is r / sqrt(2)).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import expr as ex
from .expr import Expr
from .geometry import ChartDomain, KahlerManifold, ball
from .invariants import MANIFOLD_CHECKS
from .submanifold import Immersion, ParameterBox, box


class ModelError(ValueError):
    """Unknown URI or invalid model parameters."""


def _sum_zzb(lo: int, hi: int) -> Expr:
    total: Expr = ex.mul(ex.z(lo), ex.zb(lo))
    for k in range(lo + 1, hi + 1):
        total = ex.add(total, ex.mul(ex.z(k), ex.zb(k)))
    return total


def flat_potential(m: int) -> Expr:
    return _sum_zzb(1, m)


def fs_potential(m: int, scale: float = 1.0, offset: int = 0) -> Expr:
    body = ex.log(ex.add(ex.const(1), _sum_zzb(offset + 1, offset + m)))
    return body if scale == 1.0 else ex.div(body, ex.const(scale))


def chyp_potential(m: int, scale: float = 1.0) -> Expr:
    body = ex.log(ex.sub(ex.const(1), _sum_zzb(1, m)))
    return ex.neg(body if scale == 1.0 else ex.div(body, ex.const(scale)))


_PRODUCT_SCALES = (1.0, 2.0)


def _require_dim(text: str) -> int:
    if not re.fullmatch(r"[1-9][0-9]*", text):
        raise ModelError(f"invalid dimension {text!r}")
    return int(text)


def _require_scale(text: str) -> float:
    try:
        s = float(text)
    except ValueError:
        raise ModelError(f"invalid scale {text!r}") from None
    if s <= 0:
        raise ModelError(f"scale must be positive, got {s}")
    return s


def build_model(uri: str) -> KahlerManifold:
    """Construct a builtin manifold from its URI."""
    parts = uri.split(":")
    if parts[0] != "builtin" or len(parts) < 2:
        raise ModelError(f"unknown manifold uri {uri!r}")
    kind = parts[1]
    args = parts[2:]
    if kind == "flat":
        if len(args) != 1:
            raise ModelError(f"usage: builtin:flat:<m>, got {uri!r}")
        m = _require_dim(args[0])
        return KahlerManifold(m, flat_potential(m), ball(2.0), name=uri)
    if kind in ("fs", "chyp"):
        if len(args) not in (1, 2):
            raise ModelError(f"usage: builtin:{kind}:<m>[:<scale>], got {uri!r}")
        m = _require_dim(args[0])
        scale = _require_scale(args[1]) if len(args) == 2 else 1.0
        if kind == "fs":
            return KahlerManifold(m, fs_potential(m, scale), ball(1.5), name=uri)
        return KahlerManifold(m, chyp_potential(m, scale), ball(0.9), name=uri)
    if kind == "product":
        if len(args) != 4 or args[0] != "fs" or args[2] != "fs":
            raise ModelError(f"usage: builtin:product:fs:<m1>:fs:<m2>, got {uri!r}")
        m1, m2 = _require_dim(args[1]), _require_dim(args[3])
        s1, s2 = _PRODUCT_SCALES
        potential = ex.add(
            fs_potential(m1, s1),
            fs_potential(m2, s2, offset=m1),
        )
        return KahlerManifold(m1 + m2, potential, ball(1.2), name=uri)
    raise ModelError(f"unknown manifold uri {uri!r}")


@dataclass(frozen=True)
class ModelDescriptor:
    """Expected outcomes for one builtin model, per check.

    ``expectations`` maps every manifold check name to the expected verdict
    (True = pass at the default 1e-8 tolerance); ``hsc_sign`` is the sign of
    the constant holomorphic sectional curvature when it exists.
    """

    uri: str
    expectations: dict[str, bool]
    hsc_sign: int  # -1, 0, +1; meaningful when constant-HSC

    def __post_init__(self):
        missing = set(MANIFOLD_CHECKS) - set(self.expectations)
        if missing:
            raise ValueError(f"expectation table incomplete for {self.uri}: {missing}")


def builtin_descriptors() -> list[ModelDescriptor]:
    def table(good: bool) -> dict[str, bool]:
        return {name: good for name in MANIFOLD_CHECKS} | {"reconstruct-2-3": True}

    return [
        ModelDescriptor(
            uri="builtin:flat:3",
            expectations=table(True),
            hsc_sign=0,
        ),
        ModelDescriptor(
            uri="builtin:fs:3",
            expectations=table(True),
            hsc_sign=+1,
        ),
        ModelDescriptor(
            uri="builtin:chyp:3",
            expectations=table(True),
            hsc_sign=-1,
        ),
        ModelDescriptor(
            uri="builtin:product:fs:1:fs:2",
            # The reconstruction check compares two routes to the Bochner
            # decomposition of R and passes on every manifold; all genuine
            # flatness checks fail.
            expectations=table(False),
            hsc_sign=+1,
        ),
    ]


# --------------------------------------------------------------------------
# Immersion fixtures
# --------------------------------------------------------------------------


def _sin(v: Expr) -> Expr:
    iv = ex.mul(ex.const(1j), v)
    niv = ex.mul(ex.const(-1j), v)
    return ex.div(ex.sub(ex.exp(iv), ex.exp(niv)), ex.const(2j))


def _cos(v: Expr) -> Expr:
    iv = ex.mul(ex.const(1j), v)
    niv = ex.mul(ex.const(-1j), v)
    return ex.div(ex.add(ex.exp(iv), ex.exp(niv)), ex.const(2))


def linear_subspace_in_flat3() -> Immersion:
    """Holomorphic linear 2-plane (u1 + i u2, u3 + i u4, 0) in the flat chart."""
    ambient = build_model("builtin:flat:3")
    u1, u2, u3, u4 = ex.u(1), ex.u(2), ex.u(3), ex.u(4)
    components = [
        ex.add(u1, ex.mul(ex.const(1j), u2)),
        ex.add(u3, ex.mul(ex.const(1j), u4)),
        ex.const(0),
    ]
    return Immersion(
        ambient,
        4,
        components,
        box(-0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5),
        name="linear-flat3",
    )


def sphere_in_flat2(radius: float = 1.0) -> Immersion:
    """Round 2-sphere of metric radius ``radius`` in a real 3-plane of flat C^2.

    Coordinate radius is radius / sqrt(2); mean curvature norm is 1/radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    ambient = build_model("builtin:flat:2")
    rho = radius / math.sqrt(2.0)
    u1, u2 = ex.u(1), ex.u(2)
    f1 = ex.mul(
        ex.const(rho),
        ex.mul(_sin(u1), ex.exp(ex.mul(ex.const(1j), u2))),
    )
    f2 = ex.mul(ex.const(rho), _cos(u1))
    return Immersion(
        ambient,
        2,
        [f1, f2],
        box(0.35, 2.75, 0.1, 6.0),
        name=f"sphere-flat2-r{radius:g}",
    )


def ellipsoid_in_flat2(axes: tuple[float, float, float] = (0.7, 0.9, 0.55)) -> Immersion:
    """Triaxial ellipsoid in a real 3-plane of flat C^2 (not umbilical)."""
    a, b, c = axes
    ambient = build_model("builtin:flat:2")
    u1, u2 = ex.u(1), ex.u(2)
    f1 = ex.add(
        ex.mul(ex.const(a), ex.mul(_sin(u1), _cos(u2))),
        ex.mul(ex.const(1j * b), ex.mul(_sin(u1), _sin(u2))),
    )
    f2 = ex.mul(ex.const(c), _cos(u1))
    return Immersion(
        ambient, 2, [f1, f2], box(0.5, 2.6, 0.1, 6.0), name="ellipsoid-flat2"
    )


def cylinder_in_flat2(rho: float = 0.6) -> Immersion:
    """Circle times line in flat C^2: distinct principal curvatures."""
    ambient = build_model("builtin:flat:2")
    u1, u2 = ex.u(1), ex.u(2)
    f1 = ex.mul(ex.const(rho), ex.exp(ex.mul(ex.const(1j), u1)))
    return Immersion(
        ambient, 2, [f1, u2], box(0.05, 6.2, -0.6, 0.6), name="cylinder-flat2"
    )


def cp1_in_cp2() -> Immersion:
    """Chart embedding z -> (z, 0) of the totally geodesic round 2-sphere
    inside the round 4-manifold (holomorphic linear slice)."""
    ambient = build_model("builtin:fs:2")
    u1, u2 = ex.u(1), ex.u(2)
    components = [ex.add(u1, ex.mul(ex.const(1j), u2)), ex.const(0)]
    return Immersion(
        ambient, 2, components, box(-0.6, 0.6, -0.6, 0.6), name="cp1-in-cp2"
    )


def real_slice_in_flat2() -> Immersion:
    """Real 2-plane (u1, u2) in flat C^2; its tangent plane is antiholomorphic."""
    ambient = build_model("builtin:flat:2")
    return Immersion(
        ambient,
        2,
        [ex.u(1), ex.u(2)],
        box(-0.7, 0.7, -0.7, 0.7),
        name="real-slice-flat2",
    )


# One row per fixture: its name, its factory, then its expected value for
# each key of _EXPECTATION_KEYS.
_EXPECTATION_KEYS = ("umbilic", "totally_geodesic", "parallel_h", "mean_curvature", "tangent_plane")
_IMMERSION_FIXTURES = {
    "linear-flat3": (linear_subspace_in_flat3, True, True, True, 0.0, "holomorphic"),
    "sphere-flat2-r1": (sphere_in_flat2, True, False, True, 1.0, None),
    "ellipsoid-flat2": (ellipsoid_in_flat2, False, False, False, None, None),
    "cylinder-flat2": (cylinder_in_flat2, False, False, True, None, None),
    "cp1-in-cp2": (cp1_in_cp2, True, True, True, 0.0, "holomorphic"),
    "real-slice-flat2": (real_slice_in_flat2, True, True, True, 0.0, "antiholomorphic"),
}


def builtin_immersions() -> list[tuple[Immersion, dict]]:
    """Immersion fixtures with their expectation tables."""
    return [
        (factory(), dict(zip(_EXPECTATION_KEYS, expect)))
        for factory, *expect in _IMMERSION_FIXTURES.values()
    ]


def builtin_immersion(name: str) -> Immersion:
    """Build the one fixture named ``name``."""
    if name not in _IMMERSION_FIXTURES:
        known = ", ".join(_IMMERSION_FIXTURES)
        raise ModelError(f"unknown immersion {name!r} (known: {known})")
    return _IMMERSION_FIXTURES[name][0]()


# --------------------------------------------------------------------------
# Spec files (key = value per line; values may be quoted; '#' comments)
# --------------------------------------------------------------------------


def _parse_kv(text: str, path: str) -> tuple[dict[str, str], dict[str, str]]:
    """The entries of a spec file, and the ``path:line`` of each key."""
    entries: dict[str, str] = {}
    where: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        entries[key] = value
        where[key] = f"{path}:{lineno}"
    return entries, where


def _require_keys(
    where: dict[str, str], path: str, required: Sequence[str], optional: Sequence[str] = ()
) -> None:
    known = (*required, *optional)
    for key in where:
        if key not in known:
            raise ModelError(f"{where[key]}: unknown key {key!r} (known: {', '.join(known)})")
    for key in required:
        if key not in where:
            raise ModelError(f"{path}: missing '{key}'")


def _read(entries: dict[str, str], where: dict[str, str], key: str, parse: Callable, *args):
    """``parse(entries[key], *args)``; a ValueError from it names the key's line."""
    try:
        return parse(entries[key], *args)
    except ValueError as err:
        raise ModelError(f"{where[key]}: {key}: {err}") from None


def _parse_domain(value: str, m: int) -> ChartDomain:
    kind, *radii = value.split() or [""]
    if (kind, len(radii)) not in (("ball", 1), ("polydisc", m)):
        raise ValueError(f"must be 'ball <radius>' or 'polydisc <r1> ... <r{m}>'")
    return ChartDomain(kind, tuple(float(r) for r in radii))


def parse_manifold_spec(text: str, path: str = "<text>") -> KahlerManifold:
    entries, where = _parse_kv(text, path)
    _require_keys(where, path, ("dimension", "potential"), ("domain",))
    m = _read(entries, where, "dimension", _require_dim)
    potential = ex.parse_expression(entries["potential"], m, ("z", "zb"))
    domain = _read(entries, where, "domain", _parse_domain, m) if "domain" in entries else ball(1.0)
    return KahlerManifold(m, potential, domain, name=path)


def load_manifold(source: str) -> KahlerManifold:
    """Load a manifold from a builtin URI or a spec file path."""
    if source.startswith("builtin:"):
        return build_model(source)
    path = Path(source)
    return parse_manifold_spec(path.read_text(), str(path))


def _parse_box(value: str, n: int) -> ParameterBox:
    kind, *bounds = value.split() or [""]
    if kind != "box" or len(bounds) != 2 * n:
        raise ValueError(f"must be 'box lo1 hi1 ... lo{n} hi{n}'")
    return box(*(float(b) for b in bounds))


def parse_immersion_spec(text: str, path: str = "<text>") -> Immersion:
    entries, where = _parse_kv(text, path)
    if "ambient" not in entries:
        raise ModelError(f"{path}: missing 'ambient'")
    ambient_src = entries["ambient"]
    if not ambient_src.startswith("builtin:") and path != "<text>":
        candidate = Path(path).parent / ambient_src
        if candidate.exists():
            ambient_src = str(candidate)
    ambient = load_manifold(ambient_src)
    components = [f"component{k}" for k in range(1, ambient.m + 1)]
    _require_keys(where, path, ("ambient", "parameters", "domain", *components))
    n = _read(entries, where, "parameters", _require_dim)
    expressions = [ex.parse_expression(entries[key], n, ("u",)) for key in components]
    domain = _read(entries, where, "domain", _parse_box, n)
    return Immersion(ambient, n, expressions, domain, name=path)


def load_immersion(source: str) -> Immersion:
    """Load an immersion from ``builtin:<name>`` or a spec file path."""
    if source.startswith("builtin:"):
        return builtin_immersion(source.split(":", 1)[1])
    path = Path(source)
    return parse_immersion_spec(path.read_text(), str(path))
