"""Symbolic expression trees with exact Wirtinger differentiation.

Expressions are built from constants, indexed variables of three kinds
(holomorphic ``z``, antiholomorphic ``zb``, real parameter ``u``), the four
arithmetic operators, integer powers, and ``log``/``exp``.  ``z_k`` and
``zb_k`` are formally independent variables; the coupling ``zb_k = conj(z_k)``
is imposed only when an evaluation assignment is built.  All nodes are
immutable, so trees can share subtrees.  The constructors ``add``, ``mul``,
... build plain nodes; nothing folds outside a table.

A ``Dag`` is the node table of one build.  It stores each distinct node once,
under an integer id, runs the one set of folding and derivative rules on
those ids, and lowers a list of roots to one ``Tape``, the single
evaluator, which runs at one point or over a stack of points with numpy.
A tree enters a table through ``Dag.intern_id``; ``Dag.expr``
gives the tree of an id back.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import struct
from dataclasses import dataclass
from itertools import islice
from typing import Container, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

Z = "z"
ZB = "zb"
U = "u"
VAR_KINDS = (Z, ZB, U)


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    """Syntax or variable-validation failure, with source position."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        hint = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {position}{hint}")


class EvaluationDomainError(ExprError):
    """log(0), division by zero, 0 raised to a negative power, overflow, or another fault (``Dag._value``).

    Raised by a tape run, it carries the leading-axis ``index`` of the
    point of the stack where it rose (see ``Tape.run``); else ``index`` is None."""

    index: tuple[int, ...] | None = None

    def __init__(self, message: str, node: "Expr"):
        self.node = node
        super().__init__(f"{message} in subexpression '{unparse(node)}'")


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    kind: str
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "log" | "exp"
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Unary, Binary, Power]

Assignment = Mapping[Var, complex]


def const(value: complex) -> Const:
    return Const(complex(value))


def var(kind: str, index: int) -> Var:
    if kind not in VAR_KINDS:
        raise ValueError(f"unknown variable kind {kind!r}")
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    return Var(kind, index)


def z(index: int) -> Var:
    return var(Z, index)


def zb(index: int) -> Var:
    return var(ZB, index)


def u(index: int) -> Var:
    return var(U, index)


def add(l: Expr, r: Expr) -> Expr:
    return Binary("+", l, r)


def sub(l: Expr, r: Expr) -> Expr:
    return Binary("-", l, r)


def mul(l: Expr, r: Expr) -> Expr:
    return Binary("*", l, r)


def div(l: Expr, r: Expr) -> Expr:
    return Binary("/", l, r)


def neg(e: Expr) -> Expr:
    return Unary("neg", e)


def log(e: Expr) -> Expr:
    return Unary("log", e)


def exp(e: Expr) -> Expr:
    return Unary("exp", e)


def power(base: Expr, exponent: int) -> Expr:
    return Power(base, int(exponent))


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    return (e.base,) if isinstance(e, Power) else ()


# The op of a table node: a leaf, a power, or the op of a Unary or Binary node.
_CONST, _VAR, _POW = "c", "v", "^"
_CONST_NODE = (_CONST, -1, -1)
_BITS = struct.Struct("<2d").pack  # the exact bits of a constant: its key in a table
_OPERANDS_READ = object()  # marks the stack of ``Dag.intern_id``
_BINARY_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# The Python operator of each op of a tape node, and the ufunc that runs it over a stack of points.
_FNS = {"neg": operator.neg, "log": cmath.log, "exp": cmath.exp, _POW: operator.pow, **_BINARY_FNS}
_UFUNCS = {
    "neg": np.negative, "log": np.log, "exp": np.exp, _POW: np.power,
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
}


# The domain error a node of each op can raise itself.  A power raises it
# only at a negative exponent: at any other, Python's ``pow`` raises nothing
# but ``OverflowError``.  Overflow is not counted, so a fold may drop a
# subtree that can only overflow: ``0*z1^3`` folds to 0.
_FAULTS = {"log": "log of zero", "/": "division by zero", _POW: "zero raised to a negative power"}


class Dag:
    """The node table of one build, with the folding and derivative rules.

    Each distinct node is stored once, under an integer id given in creation
    order, so a node's children have smaller ids than the node.  A node is
    ``(op, a, b)``: a unary node's child ``a`` and ``b = -1``, a binary
    node's children, a power's base and exponent, or a variable's kind and
    index.  One dict maps each node to its id; a constant's key is its exact
    bits, so 0.0 and -0.0 (which differ under log's branch cut) stay apart.
    Flat per-id lists hold each node, its constant value (None for every
    other node), whether evaluating it can raise a domain error (overflow is
    not counted) and whether it is provably nonzero; the last two are worked
    out once, when the node is made.

    The smart constructors fold constant subtrees and 0/1 identities as
    nodes are made.  A subtree whose evaluation could raise is never folded
    away, so folding cannot turn a domain error into a success; a constant
    that faults raises (``_value``).  Folds are memoized per id, and
    derivatives per id in one memo per variable.

    Charts and immersions are built on ids: ``intern_id``, ``check_variables``,
    ``fold_id``, ``derive`` and ``lower``.  ``expr`` gives the tree of an id,
    one object per id, built on first use, for error text and a tape's
    variable keys; a ``Tape`` builds its failing node only when it raises.
    ``fold_id``, ``derive``, ``lower`` and ``expr`` loop over ``_post_order``, the one walk of the table.
    The table lives as long as its build and is never cached; the per-shape
    tables of a chart build live in ``geometry`` (``_reality_points``, ``_conjugate_fill``).
    """

    def __init__(self):
        self._ids: dict[tuple | bytes, int] = {}
        self._nodes: list[tuple] = []
        self._values: list[complex | None] = []
        self._risky: list[bool] = []
        self._nonzero: list[bool] = []
        self._exprs: dict[int, Expr] = {}
        self._folds: dict[int, int] = {}
        self._derivatives: dict[int, dict[int, int]] = {}  # variable -> node -> derivative
        self._zero = self._const(0j)
        self._one = self._const(1 + 0j)

    # ------------------------------------------------------------ nodes

    def _leaf(self, key: tuple | bytes, value: complex | None) -> int:
        """A new constant, or a variable when ``value`` is None: it raises
        nothing, and only a nonzero constant is nonzero."""
        n = self._ids[key] = len(self._nodes)
        self._nodes.append(key if value is None else _CONST_NODE)
        self._values.append(value)
        self._risky.append(False)
        self._nonzero.append(value is not None and value != 0)
        return n

    def _const(self, value: complex) -> int:
        key = _BITS(value.real, value.imag)
        n = self._ids.get(key)
        return self._leaf(key, value) if n is None else n

    def _var(self, kind: str, index: int) -> int:
        key = (_VAR, kind, index)
        n = self._ids.get(key)
        return self._leaf(key, None) if n is None else n

    def _node(self, op: str, a: int, b=-1) -> int:
        key = (op, a, b)
        n = self._ids.get(key)
        if n is None:
            n = self._ids[key] = len(self._nodes)
            self._nodes.append(key)
            self._values.append(None)
            risky, nonzero = self._risky, self._nonzero
            if op in _BINARY_FNS:
                risky.append(risky[a] or risky[b] or op in _FAULTS)
                nonzero.append(op == "*" and nonzero[a] and nonzero[b])
            else:  # unary (b = -1), or a power of the base ``a`` (b = its exponent)
                risky.append(risky[a] or (op in _FAULTS and b < 0))
                nonzero.append(op == "exp" or (op != "log" and nonzero[a]))
        return n

    # ------------------------------------------------ smart constructors

    def _add(self, l: int, r: int) -> int:
        x, y = self._values[l], self._values[r]
        if x is not None and y is not None:
            return self._const(x + y)
        if x == 0:
            return r
        if y == 0:
            return l
        return self._node("+", l, r)

    def _sub(self, l: int, r: int) -> int:
        x, y = self._values[l], self._values[r]
        if x is not None and y is not None:
            return self._const(x - y)
        if y == 0:
            return l
        if x == 0:
            return self._neg(r)
        return self._node("-", l, r)

    def _mul(self, l: int, r: int) -> int:
        x, y = self._values[l], self._values[r]
        if x is None and y is None:
            return self._node("*", l, r)
        if x is not None and y is not None:
            return self._const(x * y)
        if x == 0 and not self._risky[r]:
            return self._zero
        if y == 0 and not self._risky[l]:
            return self._zero
        if x == 1:
            return r
        if y == 1:
            return l
        return self._node("*", l, r)

    def _div(self, l: int, r: int) -> int:
        x, y = self._values[l], self._values[r]
        if x is not None and y is not None:
            return self._const(self._value("/", l, r, x, y))
        if y == 1:
            return l
        if x == 0 and self._nonzero[r]:
            return self._zero
        return self._node("/", l, r)

    def _neg(self, e: int) -> int:
        x = self._values[e]
        if x is not None:
            return self._const(-x)
        op, a, _ = self._nodes[e]
        if op == "neg":
            return a
        return self._node("neg", e)

    def _log(self, e: int) -> int:
        x = self._values[e]
        if x is not None:
            return self._const(self._value("log", e, -1, x))
        return self._node("log", e)

    def _exp(self, e: int) -> int:
        x = self._values[e]
        if x is not None:
            return self._const(self._value("exp", e, -1, x))
        return self._node("exp", e)

    def _power(self, base: int, exponent: int) -> int:
        exponent = int(exponent)
        x = self._values[base]
        if x is not None:
            return self._const(self._value(_POW, base, exponent, x, exponent))
        if exponent == 1:
            return base
        if exponent == 0 and not self._risky[base]:
            return self._one
        return self._node(_POW, base, exponent)

    def _value(self, op: str, a: int, b: int, *args: complex) -> complex:
        """The node ``(op, a, b)``'s Python operator (``_FNS``) on its operands'
        values ``args``: the one fault rule of folds and tape points.  Its
        ``OverflowError``, ``ZeroDivisionError`` or ``ValueError`` raises
        ``EvaluationDomainError`` with "overflow", the ``_FAULTS`` text or its
        own, naming the node, which is added to the table only then."""
        try:
            return _FNS[op](*args)
        except (OverflowError, ZeroDivisionError, ValueError) as err:
            fault = "overflow" if isinstance(err, OverflowError) else _FAULTS.get(op, str(err))
            raise EvaluationDomainError(fault, self.expr(self._node(op, a, b))) from None

    _RULES = {"+": _add, "-": _sub, "*": _mul, "/": _div, "neg": _neg, "log": _log, "exp": _exp}

    # ------------------------------------------------------- id methods

    def _post_order(self, root: int, done: Container[int]) -> Iterator[int]:
        """The one walk of the table: yield each id under ``root`` not in ``done``
        after its operands, left first, as a left-to-right recursion would; the
        caller adds each id to ``done`` before it asks for the next.  Its own
        stack holds ``~id`` of a node whose operands are pending, and operands to walk."""
        if root in done:
            return
        nodes, stack, n = self._nodes, [], root
        while True:  # n is not done
            op, a, b = nodes[n]
            left = op != _CONST and op != _VAR and a not in done
            right = op in _BINARY_FNS and b not in done
            if left or right:  # walk its first pending operand now, the other later
                stack.append(~n)
                if left and right:
                    stack.append(b)
                n = a if left else b
                continue
            yield n
            while stack:
                n = stack.pop()
                if n < 0:
                    yield ~n
                elif n not in done:
                    break
            else:
                return

    def intern_id(self, e: Expr) -> int:
        """The id of ``e``, adding it and its subtrees as needed, each after
        its operands, left first; a subtree shared by object is read once."""
        done, stack = {}, [e]  # done: id() of each node read -> its id; ``e`` keeps them alive
        while stack:
            x = stack.pop()
            if x is _OPERANDS_READ:  # the operands of the next node are read
                x = stack.pop()
                if isinstance(x, Binary):
                    done[id(x)] = self._node(x.op, done[id(x.left)], done[id(x.right)])
                elif isinstance(x, Unary):
                    done[id(x)] = self._node(x.op, done[id(x.arg)])
                else:
                    done[id(x)] = self._node(_POW, done[id(x.base)], x.exponent)
            elif isinstance(x, Var):
                done[id(x)] = self._var(x.kind, x.index)
            elif isinstance(x, Const):
                done[id(x)] = self._const(complex(x.value))
            elif id(x) not in done:
                stack += (x, _OPERANDS_READ, x.right, x.left) if isinstance(x, Binary) else (x, _OPERANDS_READ, *_children(x))
        return done[id(e)]

    def fold_id(self, n: int) -> int:
        """The id of ``n`` with constant subtrees and 0/1 identities collapsed;
        a subtree whose evaluation could raise is never folded away."""
        nodes, folds, rules = self._nodes, self._folds, self._RULES
        for k in self._post_order(n, folds):
            op, a, b = nodes[k]
            if op == _CONST or op == _VAR:
                folds[k] = k
            elif op in _BINARY_FNS:
                folds[k] = rules[op](self, folds[a], folds[b])
            else:
                folds[k] = self._power(folds[a], b) if op == _POW else rules[op](self, folds[a])
        return folds[n]

    def derive(self, n: int, v: int) -> int:
        """The id of the exact derivative of ``n`` by the variable ``v``.  Other
        variables (``zb_k`` under ``d/dz_k`` too) are held constant, and a
        constant factor or divisor is carried through (``d(c x) = c dx``), so
        no dead ``x * 0`` term is built around a subtree that could raise.
        Every operand is derived, a constant one and the base of ``x^0`` too."""
        memo = self._derivatives.get(v)
        if memo is None:
            memo = self._derivatives[v] = {}
        if n in memo:
            return memo[n]
        nodes, values = self._nodes, self._values
        for e in self._post_order(n, memo):
            op, a, b = nodes[e]
            if op in _BINARY_FNS:
                if op == "+" or op == "-":
                    d = self._RULES[op](self, memo[a], memo[b])
                elif op == "*":
                    if values[a] is not None:
                        d = self._mul(a, memo[b])
                    elif values[b] is not None:
                        d = self._mul(memo[a], b)
                    else:
                        d = self._add(self._mul(memo[a], b), self._mul(a, memo[b]))
                elif values[b] is not None:
                    d = self._div(memo[a], b)
                else:  # quotient rule
                    num = self._sub(self._mul(memo[a], b), self._mul(a, memo[b]))
                    d = self._div(num, self._power(b, 2))
            elif op == _CONST or op == _VAR:
                d = self._one if e == v else self._zero
            elif op == "neg":
                d = self._neg(memo[a])
            elif op == "log":
                d = self._div(memo[a], a)
            elif op == "exp":
                d = self._mul(e, memo[a])
            elif b == 0:  # a power to the 0th
                d = self._mul(self._zero, e)  # still raises wherever e does
            else:  # a power
                scale = self._mul(self._const(complex(b)), self._power(a, b - 1))
                d = self._mul(scale, memo[a])
            memo[e] = d
        return memo[n]

    def lower(self, roots: Sequence[int]) -> "Tape":
        """Lower the nodes ``roots`` to one straight-line tape.  Ops follow
        ``_post_order`` over the roots in turn, so the ops any prefix of the
        roots needs form a prefix of the tape, and the first op to fail is the
        subexpression a left-to-right recursive evaluation would fail at."""
        nodes, done = self._nodes, set()
        consts, variables, ops, ends = [], [], [], []  # ends: ops needed by each prefix of the roots
        for root in roots:
            if root not in done:  # most roots of a jet tape share an earlier root's ops
                for n in self._post_order(root, done):
                    done.add(n)
                    op = nodes[n][0]
                    (consts if op == _CONST else variables if op == _VAR else ops).append(n)
            ends.append(len(ops))
        return Tape(self, consts, variables, ops, roots, ends)

    def variables(self) -> list[Var]:
        """The variables of the table, in the order they were added."""
        return [Var(kind, index) for op, kind, index in self._nodes if op == _VAR]

    def check_variables(self, dimension: int, kinds: Sequence[str]) -> None:
        """Raise ``ValueError`` naming the first variable added to the table
        whose kind is not in ``kinds`` or whose index is not in 1..dimension."""
        for v in self.variables():
            if v.kind not in kinds:
                raise ValueError(f"variable kind '{v.kind}' not allowed here")
            if not 1 <= v.index <= dimension:
                raise ValueError(f"variable index out of range: '{unparse(v)}' with dimension {dimension}")

    def expr(self, n: int) -> Expr:
        """The tree of node ``n``: one object per id, built on first use."""
        nodes, exprs = self._nodes, self._exprs
        for k in self._post_order(n, exprs):
            op, a, b = nodes[k]
            if op == _CONST or op == _VAR:
                exprs[k] = Const(self._values[k]) if op == _CONST else Var(a, b)
            elif op in _BINARY_FNS:
                exprs[k] = Binary(op, exprs[a], exprs[b])
            else:
                exprs[k] = Power(exprs[a], b) if op == _POW else Unary(op, exprs[a])
        return exprs[n]


class Tape:
    """Straight-line program that evaluates several expressions together,
    at one point or at a stack of points in one pass.

    Slots hold, in order: constants, the integer exponents of powers, the
    variables, then one value per op.  An op is ``(ufunc, i, j)`` and stores
    ``ufunc(slot[i])`` (``j < 0``) or ``ufunc(slot[i], slot[j])``, where
    ``ufunc`` runs the Python operator of the node (``operator.pow`` for a
    power).  A run gives every slot a row with one double-precision complex
    value per point and applies each op to whole rows, so the ops run once
    for the whole stack.  Each point's value is
    elementwise numpy arithmetic, the same bits at any position of any
    stack; numpy's complex ``*`` and ``/`` may differ from Python's in the
    last bit.

    Faults are Python's.  From the first op at which numpy raises a
    floating-point flag (or from the start, if a leaf is not finite), the
    ops run with the flags ignored, and every point where an op's value is
    not finite goes to the op's Python operator on the same operands
    (``Dag._value``).  Where that raises, the run raises as a recursive
    evaluation would; where it does not (an overflowing ``*``, which Python
    allows), numpy's value stands.

    Built by ``Dag.lower`` from the table's node ids, and immutable
    afterwards; it keeps the table, from which it builds the tree of a
    failing op for the error only when one fails.
    """

    def __init__(
        self,
        dag: Dag,
        consts: Sequence[int],
        variables: Sequence[int],
        nodes: Sequence[int],
        roots: Sequence[int],
        ends: Sequence[int],
    ):
        table, values = dag._nodes, dag._values
        exponents = sorted({table[n][2] for n in nodes if table[n][0] == _POW})
        first_var = len(consts) + len(exponents)
        base = first_var + len(variables)
        slot = [-1] * (len(table) + 1)  # by node id; a unary op's b = -1 reads the extra last entry
        for s, n in (*enumerate(consts), *enumerate(variables, first_var)):
            slot[n] = s
        exponent_slot = dict(zip(exponents, range(len(consts), first_var)))
        ops = []
        for s, n in enumerate(nodes, base):  # in post-order: an op's operands have their slots
            op, a, b = table[n]
            slot[n] = s
            ops.append((_UFUNCS[op], slot[a], exponent_slot[b] if op == _POW else slot[b]))
        self._leaves: list = [values[n] for n in consts] + exponents
        self._leaf_rows = np.array(self._leaves, dtype=complex).reshape(-1, 1)
        self._finite_leaves = bool(np.isfinite(self._leaf_rows).all())
        self._variables = tuple(dag.expr(n) for n in variables)
        self._ops = ops
        self._dag = dag
        self._op_nodes = nodes
        self._first_var = first_var
        self._base = base
        self._outputs = [slot[r] for r in roots]
        self._ends = list(ends)

    def __len__(self) -> int:
        """Number of ops (leaves excluded)."""
        return len(self._ops)

    def run(self, assignment: Assignment, outputs: int | None = None) -> np.ndarray:
        """Values of the first ``outputs`` roots (all by default), shape
        ``(*points, outputs)``.

        The values of ``assignment`` are scalars for one point, or arrays
        whose broadcast shape ``points`` is the stack.  Runs only the tape
        prefix those roots need.  Raises ``EvaluationDomainError`` naming
        the first subexpression, in tape order, that fails at any point of
        the stack (see ``Dag._value``), with the leading-axis ``index`` of
        the first point where its op fails, and ``ValueError`` when a
        variable has no value.
        """
        n = len(self._outputs) if outputs is None else outputs
        try:
            given = [np.asarray(assignment[v], dtype=complex) for v in self._variables]
        except KeyError as err:
            raise ValueError(f"no value assigned to '{unparse(err.args[0])}'") from None
        shapes = {np.shape(x) for x in assignment.values()}
        points = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        base, stop = self._base, self._base + (self._ends[n - 1] if n else 0)
        slots = np.empty((stop, math.prod(points)), dtype=complex)
        slots[: self._first_var] = self._leaf_rows
        variables = slots[self._first_var : base].reshape(len(given), *points)
        for k, x in enumerate(given):
            variables[k] = x
        rows = list(slots)
        k = base
        if self._finite_leaves and np.isfinite(variables).all():
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    for k, (fn, i, j) in enumerate(islice(self._ops, stop - base), base):
                        fn(rows[i], rows[k]) if j < 0 else fn(rows[i], rows[j], rows[k])
                k = stop
            except FloatingPointError:
                pass  # op k raised a flag: it and the rest run checked
        if k < stop:
            self._run_checked(rows, k, stop, points)
        return slots[self._outputs[:n]].T.reshape(*points, n)

    def _run_checked(self, rows: list[np.ndarray], start: int, stop: int, points: tuple[int, ...]) -> None:
        """Run the ops of slots ``start`` to ``stop`` with numpy's flags
        ignored, giving each point where an op's value is not finite to
        its Python operator, which raises where a recursive evaluation would,
        with the ``index`` of that point in the stack of shape ``points``."""
        with np.errstate(all="ignore"):
            for k in range(start, stop):
                fn, i, j = self._ops[k - self._base]
                fn(rows[i], rows[k]) if j < 0 else fn(rows[i], rows[j], rows[k])
                for point in np.flatnonzero(~np.isfinite(rows[k])):
                    try:
                        self._python_op(k, [rows[s][point].item() for s in (i, j) if s >= 0])
                    except EvaluationDomainError as err:
                        err.index = tuple(map(int, np.unravel_index(point, points)))
                        raise

    def _python_op(self, k: int, args: list[complex]) -> None:
        """Apply the Python operator of the op of slot ``k`` to ``args`` by
        the fault rule of ``Dag._value``."""
        op, a, b = self._dag._nodes[self._op_nodes[k - self._base]]
        if op == _POW:
            args[1] = b  # the integer exponent
        self._dag._value(op, a, b, *args)


def node_count(e: Expr) -> int:
    count, stack = 0, [e]
    while stack:
        count += 1
        stack.extend(_children(stack.pop()))
    return count


# --------------------------------------------------------------------------
# Parsing.  Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('-')? atom ('^' integer)?
#   atom   := number | var | func '(' expr ')' | '(' expr ')'
#   func   := 'log' | 'exp'
#   var    := 'z' index | 'zb' index | 'u' index ;  index := [1-9][0-9]*
# Numbers are decimal literals; a trailing 'i' (or a bare 'i') makes an
# imaginary constant, so immersion components can carry complex constants.
# A literal too large for a double is an error, since 'inf' does not re-parse.
# Parentheses, a function's included, nest at most _MAX_NESTING deep: the
# parser descends five calls per level, well inside Python's recursion limit.
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?i?")
_NAME_RE = re.compile(r"[A-Za-z]+[0-9]*")
_VAR_RE = re.compile(r"(zb|z|u)([0-9]+)$")
_OPS = "+-*/^()"
_MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one of _OPS | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(_Token("number", m.group(0), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(_Token("name", m.group(0), pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], dimension: int, allowed_kinds: frozenset[str]):
        self.tokens = tokens
        self.i = 0
        self.dimension = dimension
        self.allowed = allowed_kinds
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"unexpected {self.cur.kind} {self.cur.text!r}", self.cur.pos, (kind,)
            )
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.cur.kind != "end":
            raise ParseError(
                f"unexpected trailing input {self.cur.text!r}", self.cur.pos
            )
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.cur.kind in "+-":
            op = self.advance().kind
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.cur.kind in "*/":
            op = self.advance().kind
            e = Binary(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        negate = False
        if self.cur.kind == "-":
            self.advance()
            negate = True
        e = self.atom()
        if self.cur.kind == "^":
            self.advance()
            e = Power(e, self.integer())
        return Unary("neg", e) if negate else e

    def integer(self) -> int:
        sign = 1
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        tok = self.cur
        if tok.kind != "number" or not tok.text.isdigit():
            raise ParseError("exponent must be an integer", tok.pos, ("integer",))
        self.advance()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            value = float(tok.text.rstrip("i"))
            if not math.isfinite(value):
                raise ParseError("number out of range", tok.pos)
            return Const(complex(0.0, value) if tok.text.endswith("i") else complex(value))
        if tok.kind == "name":
            return self.name_atom()
        if tok.kind == "(":
            return self.nested()
        raise ParseError(
            f"unexpected {tok.kind} {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            ("number", "variable", "function", "'('"),
        )

    def nested(self) -> Expr:
        """``'(' expr ')'``, at most ``_MAX_NESTING`` deep."""
        tok = self.expect("(")
        if self.depth == _MAX_NESTING:
            raise ParseError("expression nested too deeply", tok.pos)
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        self.expect(")")
        return e

    def name_atom(self) -> Expr:
        tok = self.advance()
        name = tok.text
        if name in ("log", "exp"):
            return Unary(name, self.nested())
        if name == "i":
            return Const(1j)
        m = _VAR_RE.match(name)
        if m:
            kind, idx_text = m.group(1), m.group(2)
            if idx_text.startswith("0"):
                raise ParseError(f"invalid variable index in {name!r}", tok.pos)
            index = int(idx_text)
            if kind not in self.allowed:
                raise ParseError(f"variable kind '{kind}' not allowed here", tok.pos)
            if index > self.dimension:
                raise ParseError(
                    f"variable index out of range: {name!r} with dimension {self.dimension}",
                    tok.pos,
                )
            return Var(kind, index)
        raise ParseError(f"unknown identifier {name!r}", tok.pos)


def parse_expression(
    text: str,
    dimension: int,
    allowed_kinds: Iterable[str] = VAR_KINDS,
) -> Expr:
    """Parse ``text`` into an expression tree.

    ``dimension`` bounds variable indices; ``allowed_kinds`` whitelists the
    variable kinds that may appear (e.g. ``{"z", "zb"}`` for potentials,
    ``{"u"}`` for immersion components).  Raises ``ValueError`` naming any
    kind of ``allowed_kinds`` that is not a variable kind.
    """
    allowed = frozenset(allowed_kinds)
    if unknown := sorted(allowed.difference(VAR_KINDS)):
        raise ValueError(f"unknown variable kind {', '.join(map(repr, unknown))}")
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text), dimension, allowed).parse()


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _format_const(v: complex) -> tuple[str, int]:
    if v.imag == 0:
        # copysign, so that -0.0 is bracketed like any other negative number
        text = repr(v.real)
        return text, (_LEVEL_NEG if math.copysign(1.0, v.real) < 0 else _LEVEL_ATOM)
    if v.real == 0:
        text = repr(v.imag) + "i"
        return text, (_LEVEL_NEG if v.imag < 0 else _LEVEL_ATOM)
    return f"({v.real!r} + {v.imag!r}i)" if v.imag >= 0 else f"({v.real!r} - {abs(v.imag)!r}i)", _LEVEL_ATOM


def _level(e: Expr) -> int:
    """The binding level of the text of ``e``."""
    if isinstance(e, Const):
        return _format_const(complex(e.value))[1]
    if isinstance(e, Binary):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Power):
        return _LEVEL_POW
    return _LEVEL_NEG if isinstance(e, Unary) and e.op == "neg" else _LEVEL_ATOM


def _operand(e: Expr, bound: int) -> tuple:
    """``e``, in parentheses where its level is at most ``bound``."""
    return ("(", e, ")") if _level(e) <= bound else (e,)


def unparse(e: Expr) -> str:
    """Render ``e`` as text that re-parses to an evaluation-equivalent tree.
    The walk keeps its own stack of the texts and subtrees still to write,
    so a tree of any depth renders."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, str):
            out.append(e)
        elif isinstance(e, (Const, Var)):
            out.append(_format_const(complex(e.value))[0] if isinstance(e, Const) else f"{e.kind}{e.index}")
        elif isinstance(e, Binary):
            # The parser nests operators of one level to the left, so a right
            # operand at the operator's own level keeps its parentheses.
            own = _level(e)
            stack += reversed((*_operand(e.left, own - 1), f" {e.op} ", *_operand(e.right, own)))
        elif isinstance(e, Power):
            stack += reversed((*_operand(e.base, _LEVEL_POW), f"^{e.exponent}"))
        else:
            stack += reversed(("-", *_operand(e.arg, _LEVEL_NEG)) if e.op == "neg" else (f"{e.op}(", e.arg, ")"))
    return "".join(out)
