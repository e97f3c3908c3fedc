"""Spans and counters around the public functions of kahlercheck.

The program has no tracing of its own, so this module wraps module and
class attributes from outside for the length of one traced round and
restores them afterwards.  Each wrapper records a span (name, start, end,
parent) and bumps its counters; the evaluator closures, up to a million
calls a round, only add their time and counts.  A layer's self time is the
duration of its spans minus the part covered by child spans.

A call into a layer that is already the innermost open span is folded into
that span (``orthonormal_holomorphic_basis`` calling
``orthonormal_antiholomorphic_frame``, ``chsc_fit`` calling
``holomorphic_sectional_curvature``): its counters still count, but it opens
no span of its own.  The recursive expression routines are timed at their
outermost call only; during that call the original function is put back in
its module, so the recursion runs unwrapped.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

# Layers below the CLI whose self time is reported, in report order.  The
# CLI entry points are spans too ("cli", "cli.suite"); their self time is
# reported as one figure.
LAYERS = (
    "models.build",
    "expr.differentiate",
    "expr.fold",
    "expr.compile",
    "expr.parse",
    "expr.evaluate",
    "geometry.metric",
    "geometry.curvature",
    "geometry.ricci",
    "geometry.christoffel",
    "invariants.point_data",
    "geometry.frame",
    "geometry.real_curvature",
    "invariants.residual",
    "submanifold.residual",
)

COUNTERS = (
    "models.builds",
    "expr.tree_nodes",
    "expr.evaluator_calls",
    "expr.nodes_evaluated",
    "geometry.metric_calls",
    "geometry.curvature_calls",
    "geometry.ricci_calls",
    "geometry.christoffel_calls",
    "invariants.point_data_calls",
    "geometry.frame_draws",
    "geometry.real_curvature_calls",
    "invariants.residual_calls",
    "submanifold.states",
    "submanifold.hessian_calls",
    "oracle.fd_derivatives",
)

# Spans of the per-evaluation and per-sample layers, tens of thousands per
# round, are aggregated but not kept as records, so the span file stays small.
_UNRECORDED = frozenset({"geometry.frame", "geometry.real_curvature", "invariants.residual"})


class Tracer:
    """Span stack, per-layer self times, counters and span records."""

    def __init__(self, keep_records: bool = False):
        self.keep_records = keep_records
        self.records: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.check_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0

    def span(self, layer: str, name: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = [layer, self._next_id, 0.0]
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if self.keep_records and layer not in _UNRECORDED:
                self.records.append((frame[1], name, start, end, parent))


def _traced(tracer: Tracer, layer: str | None, name: str, fn, counter: str | None):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        if counter is not None:
            counts[counter] += 1
        if layer is None:
            return fn(*args, **kwargs)
        return tracer.span(layer, name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _outermost(tracer: Tracer, module, attr: str, layer: str, fn, after=None):
    """Time only the outermost call of a self-recursive module function."""
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

    def unwrapped(*args, **kwargs):
        setattr(module, attr, fn)
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(module, attr, wrapper)

    def wrapper(*args, **kwargs):
        result = tracer.span(layer, name, unwrapped, args, kwargs)
        return after(args, result) if after is not None else result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_evaluator(tracer: Tracer, fn, nodes: int):
    """Evaluator closures run up to a million times a round, each a few
    microseconds, so they skip the span stack: their time goes straight to
    the layer and to the enclosing span's child time."""
    counts = tracer.counts
    self_s = tracer.self_s
    stack = tracer._stack

    def evaluator(a):
        counts["expr.evaluator_calls"] += 1
        counts["expr.nodes_evaluated"] += nodes
        start = perf_counter()
        value = fn(a)
        duration = perf_counter() - start
        self_s["expr.evaluate"] += duration
        if stack:
            stack[-1][2] += duration
        return value

    return evaluator


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the public functions of every kahlercheck module for one block.

    A function the program no longer has is skipped, so its metrics read 0.
    """
    from kahlercheck import cli
    from kahlercheck import expr as ex
    from kahlercheck import geometry as geo
    from kahlercheck import invariants as inv
    from kahlercheck import models
    from kahlercheck import submanifold as sub

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is not None:
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def plain(owner, attr, layer, counter=None):
        owner_name = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
        patch(owner, attr, lambda fn: _traced(tracer, layer, f"{owner_name}.{attr}", fn, counter))

    def outermost(attr, layer, after=None):
        patch(ex, attr, lambda fn: _outermost(tracer, ex, attr, layer, fn, after))

    def compiled(args, evaluator):
        # Counting nodes is the tracer's own work: its span belongs to no layer.
        nodes = tracer.span("trace", "trace.node_count", ex.node_count, args[:1], {})
        tracer.counts["expr.tree_nodes"] += nodes
        return _counted_evaluator(tracer, evaluator, nodes)

    def timed_check(fn):
        # Self time goes to "cli"; inclusive time is kept per check name.
        def run_check(cfg):
            start = perf_counter()
            try:
                return tracer.span("cli", "cli.run_check", fn, (cfg,), {})
            finally:
                tracer.check_s[cfg.check] += perf_counter() - start

        run_check.__wrapped__ = fn
        return run_check

    try:
        # Model build: chart and immersion construction, and the loaders.
        plain(geo.KahlerManifold, "__init__", "models.build", "models.builds")
        plain(sub.Immersion, "__init__", "models.build")
        plain(models, "load_manifold", "models.build")
        plain(models, "load_immersion", "models.build")
        # Expression engine, outermost calls.
        outermost("wirtinger_derivative", "expr.differentiate")
        outermost("constant_fold", "expr.fold")
        outermost("compile_evaluator", "expr.compile", compiled)
        plain(ex, "parse_expression", "expr.parse")
        # Pointwise tensors.
        plain(geo, "metric_at", "geometry.metric", "geometry.metric_calls")
        plain(geo, "curvature_at", "geometry.curvature", "geometry.curvature_calls")
        plain(geo, "ricci_at", "geometry.ricci", "geometry.ricci_calls")
        plain(geo, "christoffel_at", "geometry.christoffel", "geometry.christoffel_calls")
        plain(inv, "point_data", "invariants.point_data", "invariants.point_data_calls")
        # Per-sample work.
        plain(geo, "random_unit_tangent", "geometry.frame", "geometry.frame_draws")
        plain(geo, "orthonormal_antiholomorphic_frame", "geometry.frame", "geometry.frame_draws")
        plain(geo, "orthonormal_holomorphic_basis", "geometry.frame")
        plain(geo, "real_curvature", "geometry.real_curvature", "geometry.real_curvature_calls")
        for attr in (
            "bochner_at",
            "lemma_residual",
            "basis_sum",
            "holomorphic_sectional_curvature",
            "reconstruct_curvature_from_ricci",
        ):
            plain(inv, attr, "invariants.residual", "invariants.residual_calls")
        plain(inv, "chsc_fit", "invariants.residual")
        # Immersions.
        plain(sub.Immersion, "jacobian", None, "submanifold.states")
        plain(sub.Immersion, "hessian", None, "submanifold.hessian_calls")
        plain(sub, "richardson_derivative", None, "oracle.fd_derivatives")
        for attr in (
            "umbilical_residual",
            "parallel_h_residual_at",
            "codazzi_residual_general",
            "codazzi_residual_umbilical",
        ):
            plain(sub, attr, "submanifold.residual")
        # Entry points.
        patch(cli, "run_check", timed_check)
        plain(cli, "run_suite", "cli.suite")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
