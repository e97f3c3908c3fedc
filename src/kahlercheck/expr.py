"""Symbolic expression trees with exact Wirtinger differentiation.

Expressions are built from constants, indexed variables of three kinds
(holomorphic ``z``, antiholomorphic ``zb``, real parameter ``u``), the four
arithmetic operators, integer powers, and ``log``/``exp``.  ``z_k`` and
``zb_k`` are formally independent variables; the coupling ``zb_k = conj(z_k)``
is imposed only when an evaluation assignment is built.  All nodes are
immutable, so trees can be shared and evaluated concurrently without
synchronization.

A ``Dag`` is the hash-consing table of one build: it interns nodes and
memoizes derivatives, folds and domain risk on them, and lowers a list of
roots to one ``Tape``, the single evaluator.  ``evaluate`` and
``compile_evaluator`` lower one expression through a fresh table.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence, Union

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
    """log(0), division by zero, 0 raised to a negative power, or overflow."""

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


_ZERO = Const(0j)
_ONE = Const(1 + 0j)


def _is_const(e: Expr, value: complex | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    return (e.base,) if isinstance(e, Power) else ()


def _domain_fault(node: Expr) -> str | None:
    """The domain error ``node`` itself can raise, or None; overflow is not counted."""
    if isinstance(node, Unary) and node.op == "log":
        return "log of zero"
    if isinstance(node, Binary) and node.op == "/":
        return "division by zero"
    if isinstance(node, Power) and node.exponent < 0:
        return "zero raised to a negative power"
    return None


def _risky(e: Expr, memo: dict[int, bool]) -> bool:
    # ``memo`` is keyed on node identity; its caller keeps the nodes alive.
    hit = memo.get(id(e))
    if hit is None:
        hit = _domain_fault(e) is not None
        for child in _children(e):
            hit = hit or _risky(child, memo)
        memo[id(e)] = hit
    return hit


def has_domain_risk(e: Expr) -> bool:
    """True if evaluating ``e`` can hit log(0), division by zero or zero
    raised to a negative power for some assignment (overflow is not counted)."""
    return _risky(e, {})


def _provably_nonzero(e: Expr) -> bool:
    # Conservative syntactic test; used to justify folding 0/x -> 0.
    if isinstance(e, Const):
        return e.value != 0
    if isinstance(e, Unary):
        if e.op == "exp":
            return True
        if e.op == "neg":
            return _provably_nonzero(e.arg)
        return False
    if isinstance(e, Binary) and e.op == "*":
        return _provably_nonzero(e.left) and _provably_nonzero(e.right)
    if isinstance(e, Power):
        return _provably_nonzero(e.base)
    return False


class _Builder:
    """Smart constructors: constant subtrees and 0/1 identities fold as
    nodes are built.

    A subtree whose evaluation could raise a domain error is never folded
    away, so folding cannot turn a domain error into a success.  The plain
    builder makes ordinary trees; ``Dag`` interns what it makes.
    """

    def _make(self, node: Expr) -> Expr:
        return node

    def _has_risk(self, e: Expr) -> bool:
        return has_domain_risk(e)

    def add(self, l: Expr, r: Expr) -> Expr:
        if isinstance(l, Const) and isinstance(r, Const):
            return self._make(Const(l.value + r.value))
        if _is_const(l, 0):
            return r
        if _is_const(r, 0):
            return l
        return self._make(Binary("+", l, r))

    def sub(self, l: Expr, r: Expr) -> Expr:
        if isinstance(l, Const) and isinstance(r, Const):
            return self._make(Const(l.value - r.value))
        if _is_const(r, 0):
            return l
        if _is_const(l, 0):
            return self.neg(r)
        return self._make(Binary("-", l, r))

    def mul(self, l: Expr, r: Expr) -> Expr:
        if isinstance(l, Const) and isinstance(r, Const):
            return self._make(Const(l.value * r.value))
        if _is_const(l, 0) and not self._has_risk(r):
            return self._make(_ZERO)
        if _is_const(r, 0) and not self._has_risk(l):
            return self._make(_ZERO)
        if _is_const(l, 1):
            return r
        if _is_const(r, 1):
            return l
        return self._make(Binary("*", l, r))

    def div(self, l: Expr, r: Expr) -> Expr:
        if isinstance(l, Const) and isinstance(r, Const) and r.value != 0:
            return self._make(Const(l.value / r.value))
        if _is_const(r, 1):
            return l
        if _is_const(l, 0) and _provably_nonzero(r):
            return self._make(_ZERO)
        return self._make(Binary("/", l, r))

    def neg(self, e: Expr) -> Expr:
        if isinstance(e, Const):
            return self._make(Const(-e.value))
        if isinstance(e, Unary) and e.op == "neg":
            return e.arg
        return self._make(Unary("neg", e))

    def log(self, e: Expr) -> Expr:
        if isinstance(e, Const) and e.value != 0:
            return self._make(Const(cmath.log(e.value)))
        return self._make(Unary("log", e))

    def exp(self, e: Expr) -> Expr:
        if isinstance(e, Const):
            return self._make(Const(cmath.exp(e.value)))
        return self._make(Unary("exp", e))

    def power(self, base: Expr, exponent: int) -> Expr:
        exponent = int(exponent)
        if isinstance(base, Const) and not (base.value == 0 and exponent < 0):
            try:
                return self._make(Const(base.value**exponent))
            except OverflowError:
                raise EvaluationDomainError("overflow", Power(base, exponent)) from None
        if exponent == 1:
            return base
        if exponent == 0 and not self._has_risk(base):
            return self._make(_ONE)
        return self._make(Power(base, exponent))


_TREES = _Builder()
add = _TREES.add
sub = _TREES.sub
mul = _TREES.mul
div = _TREES.div
neg = _TREES.neg
log = _TREES.log
exp = _TREES.exp
power = _TREES.power


def _key(e: Expr) -> tuple:
    # Children enter the key by identity, so it is only meaningful for nodes
    # whose children are interned; a constant enters by its exact bits, so
    # 0.0 and -0.0 (which differ under log's branch cut) stay apart.
    if isinstance(e, Const):
        c = complex(e.value)
        return (Const, c.real.hex(), c.imag.hex())
    if isinstance(e, Var):
        return (Var, e.kind, e.index)
    if isinstance(e, Unary):
        return (Unary, e.op, id(e.arg))
    if isinstance(e, Binary):
        return (Binary, e.op, id(e.left), id(e.right))
    return (Power, id(e.base), e.exponent)


class Dag(_Builder):
    """Hash-consing table for one build, with memoized calculus.

    Every node the table makes or interns is the one object for its
    structure, so a derivative tree with repeated subexpressions is a DAG
    with each subexpression stored once.  Derivatives, folds and domain
    risk are memoized on node identity.  Keys never use the nodes' own
    ``__hash__``, which walks the whole subtree on every call.  The table
    lives as long as the build that owns it; nothing is cached globally.
    """

    def __init__(self):
        self._nodes: dict[tuple, Expr] = {}
        # id of an outside node -> (that node, kept alive so its id stays
        # unique; its interned twin)
        self._seen: dict[int, tuple[Expr, Expr]] = {}
        self._risks: dict[int, bool] = {}
        self._folds: dict[int, Expr] = {}
        self._derivatives: dict[tuple[int, int], Expr] = {}
        self._zero = self._make(_ZERO)
        self._one = self._make(_ONE)

    def _make(self, node: Expr) -> Expr:
        return self._nodes.setdefault(_key(node), node)

    def _has_risk(self, e: Expr) -> bool:
        return _risky(e, self._risks)

    def intern(self, e: Expr) -> Expr:
        """The table's node equal to ``e``, adding it and its subtrees as needed."""
        hit = self._seen.get(id(e))
        if hit is not None:
            return hit[1]
        if self._nodes.get(_key(e)) is e:
            return e
        if isinstance(e, Unary):
            arg = self.intern(e.arg)
            node = e if arg is e.arg else Unary(e.op, arg)
        elif isinstance(e, Binary):
            left, right = self.intern(e.left), self.intern(e.right)
            node = e if (left is e.left and right is e.right) else Binary(e.op, left, right)
        elif isinstance(e, Power):
            base = self.intern(e.base)
            node = e if base is e.base else Power(base, e.exponent)
        else:
            node = e
        node = self._make(node)
        self._seen[id(e)] = (e, node)
        return node

    def fold(self, e: Expr) -> Expr:
        """Collapse constant subtrees and 0/1 identities.

        The result is evaluation-equivalent to ``e``; subtrees whose
        evaluation could raise a domain error are never folded away.
        """
        return self._fold(self.intern(e))

    def _fold(self, e: Expr) -> Expr:
        done = self._folds.get(id(e))
        if done is not None:
            return done
        if isinstance(e, (Const, Var)):
            done = e
        elif isinstance(e, Unary):
            done = {"neg": self.neg, "log": self.log, "exp": self.exp}[e.op](self._fold(e.arg))
        elif isinstance(e, Binary):
            ops = {"+": self.add, "-": self.sub, "*": self.mul, "/": self.div}
            done = ops[e.op](self._fold(e.left), self._fold(e.right))
        else:
            done = self.power(self._fold(e.base), e.exponent)
        self._folds[id(e)] = done
        return done

    def derivative(self, e: Expr, v: Var) -> Expr:
        """Exact symbolic derivative of ``e`` with respect to the variable ``v``.

        Variables of other kinds or indices (in particular ``zb_k`` under
        ``d/dz_k`` and conversely) are held constant.  A constant factor or
        divisor is carried through as such (``d(c x) = c dx``,
        ``d(x / c) = dx / c``), so no dead ``x * 0`` term is built around a
        subtree that could raise.
        """
        return self._derive(self.intern(e), self.intern(v))

    def _derive(self, e: Expr, v: Expr) -> Expr:
        key = (id(e), id(v))
        d = self._derivatives.get(key)
        if d is None:
            d = self._derivatives[key] = self._derivative_rule(e, v)
        return d

    def _derivative_rule(self, e: Expr, v: Expr) -> Expr:
        if isinstance(e, Const):
            return self._zero
        if isinstance(e, Var):
            return self._one if e is v else self._zero
        if isinstance(e, Unary):
            d = self._derive(e.arg, v)
            if e.op == "neg":
                return self.neg(d)
            if e.op == "log":
                return self.div(d, e.arg)
            return self.mul(e, d)  # exp
        if isinstance(e, Binary):
            l, r = e.left, e.right
            if e.op == "*" and isinstance(l, Const):
                return self.mul(l, self._derive(r, v))
            if e.op == "*" and isinstance(r, Const):
                return self.mul(self._derive(l, v), r)
            if e.op == "/" and isinstance(r, Const):
                return self.div(self._derive(l, v), r)
            dl, dr = self._derive(l, v), self._derive(r, v)
            if e.op == "+":
                return self.add(dl, dr)
            if e.op == "-":
                return self.sub(dl, dr)
            if e.op == "*":
                return self.add(self.mul(dl, r), self.mul(l, dr))
            # quotient rule
            num = self.sub(self.mul(dl, r), self.mul(l, dr))
            return self.div(num, self.power(r, 2))
        if e.exponent == 0:
            return self.mul(self._zero, e)  # still raises wherever e does
        db = self._derive(e.base, v)
        scale = self.mul(self._make(Const(complex(e.exponent))), self.power(e.base, e.exponent - 1))
        return self.mul(scale, db)

    def tape(self, roots: Sequence[Expr]) -> "Tape":
        """Lower ``roots`` to one straight-line tape.

        Ops follow a depth-first post-order over the roots in turn, so the
        ops any prefix of the roots needs form a prefix of the tape, and the
        first op to fail is the subexpression a left-to-right recursive
        evaluation would fail at.
        """
        roots = [self.intern(r) for r in roots]
        order: list[Expr] = []
        visited: set[int] = set()
        ends: list[int] = []  # ops needed by each prefix of the roots
        n_ops = 0

        def visit(e: Expr) -> None:
            nonlocal n_ops
            if id(e) in visited:
                return
            visited.add(id(e))
            if isinstance(e, Unary):
                visit(e.arg)
            elif isinstance(e, Binary):
                visit(e.left)
                visit(e.right)
            elif isinstance(e, Power):
                visit(e.base)
            if not isinstance(e, (Const, Var)):
                n_ops += 1
            order.append(e)

        for r in roots:
            visit(r)
            ends.append(n_ops)
        return Tape(order, roots, ends)


_UNARY_FNS = {"neg": operator.neg, "log": cmath.log, "exp": cmath.exp}
_BINARY_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class Tape:
    """Straight-line program that evaluates several expressions together.

    Slots hold, in order: constants, the integer exponents of powers, the
    variables, then one value per op.  An op is ``(fn, i, j)`` and stores
    ``fn(slot[i])`` (``j < 0``) or ``fn(slot[i], slot[j])``.  Values are
    double-precision complex scalars, computed by the same Python operators
    a recursive evaluation would apply, so they agree with it bit for bit.
    Built by ``Dag.tape``; immutable afterwards.
    """

    def __init__(self, order: Sequence[Expr], roots: Sequence[Expr], ends: Sequence[int]):
        consts = [e for e in order if isinstance(e, Const)]
        exponents = sorted({e.exponent for e in order if isinstance(e, Power)})
        variables = [e for e in order if isinstance(e, Var)]
        nodes = [e for e in order if not isinstance(e, (Const, Var))]
        slot = {id(e): k for k, e in enumerate(consts)}
        exponent_slot = {n: len(consts) + k for k, n in enumerate(exponents)}
        first_var = len(consts) + len(exponents)
        slot.update((id(e), first_var + k) for k, e in enumerate(variables))
        base = first_var + len(variables)
        slot.update((id(e), base + k) for k, e in enumerate(nodes))
        ops = []
        for e in nodes:
            if isinstance(e, Unary):
                ops.append((_UNARY_FNS[e.op], slot[id(e.arg)], -1))
            elif isinstance(e, Binary):
                ops.append((_BINARY_FNS[e.op], slot[id(e.left)], slot[id(e.right)]))
            else:
                ops.append((operator.pow, slot[id(e.base)], exponent_slot[e.exponent]))
        self._leaves: list = [complex(e.value) for e in consts] + exponents
        self._variables = tuple(variables)
        self._ops = ops
        self._nodes = nodes
        self._base = base
        self._outputs = [slot[id(r)] for r in roots]
        self._ends = list(ends)

    def __len__(self) -> int:
        """Number of ops (leaves excluded)."""
        return len(self._ops)

    def run(self, assignment: Assignment, outputs: int | None = None) -> list[complex]:
        """Values of the first ``outputs`` roots (all by default).

        Runs only the tape prefix those roots need.  Raises
        ``EvaluationDomainError`` naming the first failing subexpression
        for log(0), division by zero, zero raised to a negative power and
        overflow, and ``ValueError`` when a variable has no value.
        """
        n = len(self._outputs) if outputs is None else outputs
        try:
            vals = self._leaves + [complex(assignment[v]) for v in self._variables]
        except KeyError as err:
            raise ValueError(f"no value assigned to '{unparse(err.args[0])}'") from None
        end = self._ends[n - 1] if n else 0
        ops = self._ops if end == len(self._ops) else islice(self._ops, end)
        append = vals.append
        try:
            for fn, i, j in ops:
                append(fn(vals[i]) if j < 0 else fn(vals[i], vals[j]))
        except OverflowError:
            raise EvaluationDomainError("overflow", self._nodes[len(vals) - self._base]) from None
        except (ZeroDivisionError, ValueError):
            node = self._nodes[len(vals) - self._base]
            fault = _domain_fault(node)
            if fault is None:
                raise
            raise EvaluationDomainError(fault, node) from None
        return [vals[k] for k in self._outputs[:n]]


def wirtinger_derivative(e: Expr, v: Var) -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``v`` (see ``Dag.derivative``)."""
    return Dag().derivative(e, v)


def constant_fold(e: Expr) -> Expr:
    """Collapse constant subtrees and 0/1 identities (see ``Dag.fold``)."""
    return Dag().fold(e)


def evaluate(e: Expr, assignment: Assignment) -> complex:
    """Evaluate ``e`` in double-precision complex arithmetic.

    ``assignment`` maps every variable occurring in ``e`` to a complex value.
    Raises ``EvaluationDomainError`` for log(0), division by zero, zero
    raised to a negative power (log uses the principal branch) and
    overflow, and ``ValueError`` for a variable without a value.
    """
    return Dag().tape([e]).run(assignment)[0]


def compile_evaluator(e: Expr) -> Callable[[Assignment], complex]:
    """Lower ``e`` to a tape once and return ``assignment -> complex``.

    Same values and the same errors as ``evaluate``, without re-lowering
    ``e`` on every call.
    """
    tape = Dag().tape([e])
    return lambda assignment: tape.run(assignment)[0]


def variables(e: Expr) -> frozenset[Var]:
    out: set[Var] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node)
        stack.extend(_children(node))
    return frozenset(out)


def node_count(e: Expr) -> int:
    count, stack = 0, [e]
    while stack:
        count += 1
        stack.extend(_children(stack.pop()))
    return count


def validate_variables(e: Expr, dimension: int, allowed_kinds: Iterable[str]) -> None:
    """Check every variable of ``e`` against a dimension and kind whitelist."""
    allowed = frozenset(allowed_kinds)
    for v in variables(e):
        if v.kind not in allowed:
            raise ValueError(f"variable kind '{v.kind}' not allowed here")
        if not 1 <= v.index <= dimension:
            raise ValueError(
                f"variable index out of range: '{unparse(v)}' with dimension {dimension}"
            )


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
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?i?")
_NAME_RE = re.compile(r"[A-Za-z]+[0-9]*")
_VAR_RE = re.compile(r"(zb|z|u)([0-9]+)$")
_OPS = "+-*/^()"


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
            if tok.text.endswith("i"):
                return Const(complex(0.0, float(tok.text[:-1])))
            return Const(complex(float(tok.text)))
        if tok.kind == "name":
            return self.name_atom()
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(
            f"unexpected {tok.kind} {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            ("number", "variable", "function", "'('"),
        )

    def name_atom(self) -> Expr:
        tok = self.advance()
        name = tok.text
        if name in ("log", "exp"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Unary(name, arg)
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
    ``{"u"}`` for immersion components).
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text), dimension, frozenset(allowed_kinds)).parse()


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


def _unparse(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _format_const(complex(e.value))
    if isinstance(e, Var):
        return f"{e.kind}{e.index}", _LEVEL_ATOM
    if isinstance(e, Unary):
        if e.op == "neg":
            text, level = _unparse(e.arg)
            if level < _LEVEL_POW:
                text = f"({text})"
            return f"-{text}", _LEVEL_NEG
        inner, _ = _unparse(e.arg)
        return f"{e.op}({inner})", _LEVEL_ATOM
    if isinstance(e, Binary):
        if e.op in "+-":
            own, sub_right = _LEVEL_ADD, _LEVEL_MUL if e.op == "-" else _LEVEL_ADD
        else:
            own, sub_right = _LEVEL_MUL, _LEVEL_NEG if e.op == "/" else _LEVEL_MUL
        lt, ll = _unparse(e.left)
        rt, rl = _unparse(e.right)
        if ll < own:
            lt = f"({lt})"
        if rl < sub_right or (e.op in "*/" and rl == _LEVEL_ADD):
            rt = f"({rt})"
        return f"{lt} {e.op} {rt}", own
    bt, bl = _unparse(e.base)
    if bl < _LEVEL_ATOM:
        bt = f"({bt})"
    return f"{bt}^{e.exponent}", _LEVEL_POW


def unparse(e: Expr) -> str:
    """Render ``e`` as text that re-parses to an evaluation-equivalent tree."""
    return _unparse(e)[0]
