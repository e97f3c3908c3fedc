"""Expression trees: parsing, and the node table's Wirtinger differentiation,
folding, interning and evaluation tape."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import evaluate
from kahlercheck import expr as ex
from kahlercheck.expr import (
    Binary,
    Const,
    EvaluationDomainError,
    ParseError,
    Power,
    Unary,
    Var,
)
from kahlercheck.oracle import wirtinger_fd


def _leaves(e):
    if isinstance(e, (Const, Var)):
        return [e]
    if isinstance(e, Unary):
        return _leaves(e.arg)
    if isinstance(e, Binary):
        return _leaves(e.left) + _leaves(e.right)
    return _leaves(e.base)


def _random_assignment(rng, dim=2, kinds=("z", "zb")):
    a = {}
    for i in range(1, dim + 1):
        if "z" in kinds:
            v = complex(rng.normal(), rng.normal())
            a[ex.z(i)] = v
            a[ex.zb(i)] = v.conjugate()
        if "u" in kinds:
            a[ex.u(i)] = complex(rng.normal())
    return a


def _eval_equal(e1, e2, dim=2, kinds=("z", "zb"), tol=1e-14, samples=20):
    rng = np.random.default_rng(99)
    for _ in range(samples):
        a = _random_assignment(rng, dim, kinds)
        v1 = evaluate(e1, a)
        v2 = evaluate(e2, a)
        assert abs(v1 - v2) <= tol * max(1.0, abs(v1), abs(v2))


# ----------------------------------------------------------------- parsing


def test_parse_product_sum():
    e = ex.parse_expression("z1*zb1 + z2*zb2", 2, ("z", "zb"))
    assert isinstance(e, Binary) and e.op == "+"
    assert len(_leaves(e)) == 4
    assert all(isinstance(l, Var) for l in _leaves(e))


def test_parse_log_over_add():
    e = ex.parse_expression("log(1 + z1*zb1)", 1, ("z", "zb"))
    assert isinstance(e, Unary) and e.op == "log"
    assert isinstance(e.arg, Binary) and e.arg.op == "+"


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        ex.parse_expression("z1 + ", 1, ("z", "zb"))
    assert err.value.position == 5


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        ex.parse_expression("z3", 2, ("z", "zb"))


def test_parse_disallowed_kind():
    with pytest.raises(ParseError, match="not allowed"):
        ex.parse_expression("u1 + z1", 2, ("z", "zb"))


def test_parse_rejects_leading_zero_index():
    with pytest.raises(ParseError):
        ex.parse_expression("z01", 2, ("z", "zb"))


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        ex.parse_expression("sin(z1)", 1, ("z", "zb"))


def test_parse_empty():
    with pytest.raises(ParseError):
        ex.parse_expression("   ", 1, ("z", "zb"))


@pytest.mark.parametrize(
    "text, position", [("1e400*z1*zb1", 0), ("z1 + 1e400i", 5), ("1" + "0" * 400, 0)]
)
def test_parse_rejects_a_number_out_of_range(text, position):
    # An infinite constant would unparse as 'inf', which does not parse.
    with pytest.raises(ParseError, match="number out of range") as err:
        ex.parse_expression(text, 1, ("z", "zb"))
    assert err.value.position == position


def test_parse_rejects_an_unknown_allowed_kind():
    with pytest.raises(ValueError, match="unknown variable kind ' u', 'w'"):
        ex.parse_expression("u1", 1, ["z", " u", "w"])


def test_parse_imaginary_constants():
    e = ex.parse_expression("u1 + 2i*u2", 2, ("u",))
    val = evaluate(e, {ex.u(1): 1.0, ex.u(2): 3.0})
    assert val == 1.0 + 6.0j
    e2 = ex.parse_expression("i*u1", 1, ("u",))
    assert evaluate(e2, {ex.u(1): 2.0}) == 2.0j


def test_parse_integer_powers():
    e = ex.parse_expression("z1^3 + z1^-2", 1, ("z", "zb"))
    a = {ex.z(1): 2.0 + 0j, ex.zb(1): 2.0 - 0j}
    assert abs(evaluate(e, a) - (8.0 + 0.25)) < 1e-14
    with pytest.raises(ParseError, match="integer"):
        ex.parse_expression("z1^2.5", 1, ("z", "zb"))


def test_parse_precedence_and_unary_minus():
    e = ex.parse_expression("-z1^2 + 2*(z1 - 1)", 1, ("z", "zb"))
    a = {ex.z(1): 3.0 + 0j, ex.zb(1): 3.0 - 0j}
    assert abs(evaluate(e, a) - (-9.0 + 4.0)) < 1e-14


# ------------------------------------------------------------- derivatives


def test_derivative_product_rule():
    dag = ex.Dag()
    d = dag.derive(dag.intern_id(ex.mul(ex.z(1), ex.zb(1))), dag.intern_id(ex.z(1)))
    assert dag.expr(dag.fold_id(d)) == ex.zb(1)


def test_derivative_chain_rule_log():
    dag = ex.Dag()
    e = ex.log(ex.add(ex.const(1), ex.mul(ex.z(1), ex.zb(1))))
    d = dag.expr(dag.derive(dag.intern_id(e), dag.intern_id(ex.z(1))))
    want = ex.div(ex.zb(1), ex.add(ex.const(1), ex.mul(ex.z(1), ex.zb(1))))
    _eval_equal(d, want, dim=1)


def test_derivative_absent_variable():
    dag = ex.Dag()
    d = dag.derive(dag.intern_id(ex.mul(ex.z(1), ex.zb(1))), dag.intern_id(ex.zb(2)))
    assert dag.expr(dag.fold_id(d)) == Const(0j)


def test_mixed_partials_commute():
    e = ex.parse_expression(
        "log(1 + z1*zb1 + z2*zb2) + exp(z1*zb2) / (2 + z2*zb1)", 2, ("z", "zb")
    )
    dag = ex.Dag()
    n, z1, zb2 = (dag.intern_id(x) for x in (e, ex.z(1), ex.zb(2)))
    d12 = dag.derive(dag.derive(n, z1), zb2)
    d21 = dag.derive(dag.derive(n, zb2), z1)
    _eval_equal(dag.expr(d12), dag.expr(d21), dim=2, tol=1e-12)


# ------------------------------------------------------------- evaluation


def test_evaluate_product():
    e = ex.mul(ex.z(1), ex.zb(1))
    assert evaluate(e, {ex.z(1): 2 + 0j, ex.zb(1): 2 - 0j}) == 4 + 0j


def test_evaluate_log_identity_case():
    e = ex.log(ex.add(ex.const(1), ex.mul(ex.z(1), ex.zb(1))))
    assert evaluate(e, {ex.z(1): 0j, ex.zb(1): 0j}) == 0j


def test_evaluate_division_by_zero():
    e = ex.parse_expression("z1/z2", 2, ("z", "zb"))
    a = {ex.z(1): 1 + 0j, ex.z(2): 0j, ex.zb(1): 1 - 0j, ex.zb(2): 0j}
    with pytest.raises(EvaluationDomainError, match="division by zero"):
        evaluate(e, a)


def test_evaluate_log_of_zero():
    with pytest.raises(EvaluationDomainError, match="log of zero"):
        evaluate(ex.log(ex.z(1)), {ex.z(1): 0j})


@pytest.mark.parametrize(
    "run, node",
    [
        (lambda: evaluate(ex.power(ex.z(1), -1), {ex.z(1): 2.2e-313 + 0j}), "z1^-1"),
        (lambda: evaluate(ex.power(ex.z(1), 3), {ex.z(1): 1e200 + 0j}), "z1^3"),
        (lambda: evaluate(ex.exp(ex.z(1)), {ex.z(1): 1e3 + 0j}), "exp(z1)"),
        (
            lambda: (dag := ex.Dag()).fold_id(
                dag.intern_id(Power(Const(2.2250738585e-313 + 0j), -1))
            ),
            "^-1",
        ),
    ],
)
def test_overflow_is_a_domain_error_naming_the_node(run, node):
    with pytest.raises(EvaluationDomainError, match="overflow") as err:
        run()
    assert node in str(err.value)


def test_derivative_of_zeroth_power_builds_no_negative_power():
    dag = ex.Dag()
    z1 = dag.intern_id(ex.z(1))
    tiny = Power(Const(2.2250738585e-313 + 0j), 0)
    assert dag.expr(dag.derive(dag.intern_id(tiny), z1)) == Const(0j)
    # z1^0 is 1 at z1 = 0, and so is defined there; its derivative too.
    d = dag.derive(dag.intern_id(Power(ex.z(1), 0)), z1)
    assert dag.lower([d]).run({ex.z(1): 0j}) == [0j]
    # A base that can fail keeps failing in the derivative.
    risky = dag.derive(dag.intern_id(Power(Unary("log", ex.z(1)), 0)), z1)
    with pytest.raises(EvaluationDomainError, match="log of zero"):
        dag.lower([risky]).run({ex.z(1): 0j})


def test_a_deep_failing_node_names_its_subexpression():
    # 1 / (z1 + ... + z1), 1,000 terms: the error text renders the whole sum.
    total = ex.z(1)
    for _ in range(999):
        total = ex.add(total, ex.z(1))
    dag = ex.Dag()
    tape = dag.lower([dag.intern_id(ex.div(ex.const(1), total))])
    with pytest.raises(EvaluationDomainError) as err:
        tape.run({ex.z(1): 0j})
    assert str(err.value).startswith("division by zero in subexpression '1.0 / (z1 + z1")


def test_evaluate_missing_assignment():
    with pytest.raises(ValueError, match="no value assigned"):
        evaluate(ex.z(1), {})


def test_one_tape_runs_like_a_fresh_tape_per_assignment():
    rng = np.random.default_rng(5)
    e = ex.parse_expression(
        "exp(z1*zb2) * log(2 + z2*zb2) - z1^3 / (1 + z2*zb1)", 2, ("z", "zb")
    )
    dag = ex.Dag()
    tape = dag.lower([dag.intern_id(e)])
    for _ in range(20):
        a = _random_assignment(rng)
        [got] = tape.run(a)
        assert abs(got - evaluate(e, a)) < 1e-14 * max(1.0, abs(got))


# ---------------------------------------------------------------- folding


def test_fold_zero_and_constants():
    dag = ex.Dag()
    e = dag.intern_id(ex.parse_expression("0*z1 + z2", 2, ("z", "zb")))
    assert dag.expr(dag.fold_id(e)) == ex.z(2)
    six = dag.intern_id(ex.parse_expression("2*3", 1, ()))
    assert dag.expr(dag.fold_id(six)) == Const(6 + 0j)


def test_fold_leaves_unfoldable_alone():
    dag = ex.Dag()
    e = ex.parse_expression("log(1 + z1*zb1)", 1, ("z", "zb"))
    assert dag.expr(dag.fold_id(dag.intern_id(e))) == e


def test_fold_preserves_domain_errors():
    # 0 * log(z1) must not fold to 0: at z1 = 0 the original raises.
    dag = ex.Dag()
    folded = dag.fold_id(dag.intern_id(Binary("*", Const(0j), Unary("log", ex.z(1)))))
    assert dag.expr(folded) != Const(0j)
    tape = dag.lower([folded])
    with pytest.raises(EvaluationDomainError):
        tape.run({ex.z(1): 0j})
    assert tape.run({ex.z(1): 1 + 0j}) == [0j]


def test_fold_drops_a_subtree_that_can_only_overflow():
    # Overflow is not a fault of _FAULTS: 0*z1^3 folds to 0, though z1^3
    # overflows for |z1| > 5.6e102, where the unfolded tape raises.
    dag = ex.Dag()
    n = dag.intern_id(ex.parse_expression("0*z1^3", 1, ("z",)))
    assert dag.expr(dag.fold_id(n)) == Const(0j)
    with pytest.raises(EvaluationDomainError, match=r"^overflow in subexpression 'z1\^3'$"):
        dag.lower([n]).run({ex.z(1): 1e200 + 0j})


@pytest.mark.parametrize(
    "text, message",
    [
        ("log(0)", "log of zero in subexpression 'log(0.0)'"),
        ("1/(1 - 1)", "division by zero in subexpression '1.0 / 0.0'"),
        ("0^-2", "zero raised to a negative power in subexpression '0.0^-2'"),
        ("exp(1i*1e300*1e300)", "math domain error in subexpression 'exp(infi)'"),
    ],
)
def test_a_constant_that_faults_stops_the_fold(text, message):
    # The fault rule of a tape point, with the folded operands in the text.
    dag = ex.Dag()
    n = dag.intern_id(ex.parse_expression(text, 1, ()))
    with pytest.raises(EvaluationDomainError) as err:
        dag.fold_id(n)
    assert str(err.value) == message and err.value.index is None


def test_fold_zero_numerator_guard():
    # 0 / z1 must stay a division (error at z1 = 0), but 0 / exp(z1) may fold.
    dag = ex.Dag()
    e = Binary("/", Const(0j), ex.z(1))
    assert dag.expr(dag.fold_id(dag.intern_id(e))) == e
    safe = Binary("/", Const(0j), Unary("exp", ex.z(1)))
    assert dag.expr(dag.fold_id(dag.intern_id(safe))) == Const(0j)


# --------------------------------------------------- interning and the tape


def _nodes(e):
    yield e
    if isinstance(e, Unary):
        yield from _nodes(e.arg)
    elif isinstance(e, Binary):
        yield from _nodes(e.left)
        yield from _nodes(e.right)
    elif isinstance(e, Power):
        yield from _nodes(e.base)


def _times_zero(e):
    return [
        n
        for n in _nodes(e)
        if isinstance(n, Binary) and n.op == "*" and (n.left == Const(0j) or n.right == Const(0j))
    ]


@pytest.mark.parametrize(
    "text", ["log(1 + z1*zb1) / 2", "3 * log(1 + z1*zb1)", "log(1 + z1*zb1) * 3"]
)
def test_constant_operand_rules_build_no_dead_terms(text):
    dag = ex.Dag()
    d1 = dag.derive(dag.intern_id(ex.parse_expression(text, 1, ("z", "zb"))), dag.intern_id(ex.z(1)))
    d2 = dag.derive(d1, dag.intern_id(ex.zb(1)))
    d1, d2 = dag.expr(d1), dag.expr(d2)
    assert _times_zero(d1) == [] and _times_zero(d2) == []
    want = ex.parse_expression("1 / (1 + z1*zb1)^2", 1, ("z", "zb"))
    scale = 0.5 if "/" in text else 3.0
    _eval_equal(d2, ex.mul(ex.const(scale), want), dim=1)


def test_intern_id_gives_one_id_per_distinct_node():
    dag = ex.Dag()
    n = dag.intern_id(
        ex.parse_expression("log(1 + z1*zb1) * (z1*zb1) + log(1 + z1*zb1)", 1, ("z", "zb"))
    )
    # ``expr`` builds one object per id, so shared nodes are shared objects.
    e = dag.expr(n)
    log_term = e.right
    assert e.left.left is log_term
    assert log_term.arg.right is e.left.right
    # An equal tree read in separately gets the same id.
    again = dag.intern_id(ex.parse_expression("log(1 + z1*zb1)", 1, ("z", "zb")))
    assert again == dag.intern_id(log_term)
    assert dag.expr(again) is log_term
    assert dag.intern_id(e) == n
    z1 = dag.intern_id(ex.z(1))
    assert dag.derive(n, z1) == dag.derive(n, z1)
    # Equal under ==, but not under log's branch cut: kept apart.
    assert dag.intern_id(Const(complex(-1.0, -0.0))) != dag.intern_id(Const(complex(-1.0, 0.0)))
    assert dag.intern_id(Const(complex(-0.0, 0.0))) != dag.intern_id(Const(0j))


def test_interning_reads_a_shared_subtree_once():
    # 61 distinct nodes on 2^60 paths: the per-call memo keeps interning linear.
    e = ex.z(1)
    for _ in range(60):
        e = ex.add(e, e)
    dag = ex.Dag()
    assert len(dag.lower([dag.intern_id(e)])) == 60


def test_tape_prefix_runs_only_the_ops_it_needs():
    dag = ex.Dag()
    tape = dag.lower([dag.intern_id(ex.mul(ex.z(1), ex.z(1))), dag.intern_id(ex.log(ex.z(2)))])
    a = {ex.z(1): 3 + 0j, ex.z(2): 0j}
    assert tape.run(a, 1) == [9 + 0j]
    with pytest.raises(EvaluationDomainError, match="log of zero"):
        tape.run(a)
    with pytest.raises(ValueError, match="no value assigned to 'z2'"):
        tape.run({ex.z(1): 1 + 0j})


def _stack_tape(text):
    dag = ex.Dag()
    return dag.lower([dag.intern_id(ex.parse_expression(text, 2, ("z",)))])


@pytest.mark.parametrize(
    "text, bad, message",
    [
        ("log(z1)", 0j, "log of zero in subexpression 'log(z1)'"),
        ("z2 / z1", 0j, "division by zero in subexpression 'z2 / z1'"),
        ("z1^-2", 0j, "zero raised to a negative power in subexpression 'z1^-2'"),
        ("z1^3", 1e200 + 0j, "overflow in subexpression 'z1^3'"),
        ("exp(z1)", 1e3 + 0j, "overflow in subexpression 'exp(z1)'"),
        # a silent overflow first (Python's * allows it), then inf / 0
        ("z1 * z1 / (z1 - 1e200)", 1e200 + 0j, "division by zero in subexpression 'z1 * z1 / (z1 - 1e+200)'"),
    ],
)
def test_a_stacked_run_raises_the_fault_of_its_failing_point(text, bad, message):
    # One run over a stack whose third point fails: the op's Python operator
    # names the fault, with the text a run at that point alone gives.
    tape = _stack_tape(text)
    z1 = np.array([0.5, 2j, bad, 0.25])
    a = {ex.z(1): z1, ex.z(2): np.ones(4, complex)}
    with pytest.raises(EvaluationDomainError) as stacked:
        tape.run(a)
    with pytest.raises(EvaluationDomainError) as alone:
        tape.run({ex.z(1): bad, ex.z(2): 1 + 0j})
    assert str(stacked.value) == str(alone.value) == message
    good = tape.run({ex.z(1): z1[[0, 1, 3]], ex.z(2): np.ones(3, complex)})
    assert good.shape == (3, 1) and np.isfinite(good).all()


@pytest.mark.parametrize(
    "text, bad, error, message",
    [
        ("log(z1)", 0j, EvaluationDomainError, "log of zero in subexpression 'log(z1)'"),
        ("exp(z1)", 1e3 + 0j, EvaluationDomainError, "overflow in subexpression 'exp(z1)'"),
        # cmath.exp of an infinite imaginary part names no fault of its own:
        # the operator's text names it, with the subexpression and the index
        ("exp(z1)", complex(0, np.inf), EvaluationDomainError, "math domain error in subexpression 'exp(z1)'"),
    ],
)
def test_a_tape_error_carries_the_index_of_its_point(text, bad, error, message):
    # Only point 1 of a 3-point stack fails; on a (2, 2) grid the index has
    # both leading axes, and at one point it is ().
    tape = _stack_tape(text)
    for z1, index in ((np.array([0.5, bad, 0.25]), (1,)), (np.array([[0.5, 2j], [bad, 0.25]]), (1, 0)), (bad, ())):
        with pytest.raises(error) as info:
            tape.run({ex.z(1): z1, ex.z(2): np.ones_like(z1, dtype=complex)})
        assert str(info.value) == message and info.value.index == index


def test_a_silent_overflow_gives_inf_with_no_error(recwarn):
    # Python lets a complex * overflow through; so does the tape, without a
    # warning, and the other points of the stack keep their values.
    tape = _stack_tape("z1 * z1")
    got = tape.run({ex.z(1): np.array([3 + 0j, 1e200 + 0j]), ex.z(2): np.zeros(2, complex)})
    assert got[0, 0] == 9 and np.isinf(got[1, 0].real)
    assert not recwarn.list


def test_a_run_has_the_shape_of_its_assignment():
    # One point gives (outputs,); a stack gives its axes first, even on a
    # tape whose outputs are all constants.
    dag = ex.Dag()
    tape = dag.lower([dag.intern_id(ex.parse_expression(t, 1, ("z",))) for t in ("z1 + 1", "2")])
    assert tape.run({ex.z(1): 1j}).shape == (2,)
    assert tape.run({ex.z(1): np.zeros((3, 2), complex)}).shape == (3, 2, 2)
    assert np.array_equal(tape.run({ex.z(1): np.zeros(3, complex)}, 2)[:, 1], [2, 2, 2])


def test_metric_prefix_equals_g_slice_of_full_run(fs3, product, rng):
    for manifold in (fs3, product):
        m = manifold.m
        p = manifold.sample_point(rng)
        full = np.array(manifold.tape.run(manifold.assignment(p)))
        assert np.array_equal(manifold.metric_matrix(p).ravel(), full[: m * m])
        g, dg, _, d2g = manifold.jets(p)
        assert np.array_equal(np.concatenate([g.ravel(), dg.ravel()]), full[: m * m + m**3])
        # The tape holds one d2g entry per sorted holomorphic pair (i, k) <=
        # sorted antiholomorphic pair (j, l), in that order.
        pairs = [(i, k) for i in range(m) for k in range(i, m)]
        stored = [d2g[i, j, k, l] for (i, k) in pairs for (j, l) in pairs if (i, k) <= (j, l)]
        assert np.array_equal(np.array(stored), full[m * m + m**3 :])


# The ufunc and the Python operator of each node op.
_OPS = {
    "neg": (np.negative, lambda v: -v), "log": (np.log, cmath.log), "exp": (np.exp, cmath.exp),
    "+": (np.add, lambda l, r: l + r), "-": (np.subtract, lambda l, r: l - r),
    "*": (np.multiply, lambda l, r: l * r), "/": (np.divide, lambda l, r: l / r),
}


def _reference_evaluate(e, a):
    """Recursive evaluator: the semantics the tape must reproduce.  A node's
    value is the numpy ufunc of its op on one-element arrays of its
    operands; where the node's Python operator raises on the same operands,
    the node fails with the error a recursive Python evaluation raises."""
    if isinstance(e, Const):
        return np.array([complex(e.value)])
    if isinstance(e, Var):
        return np.array([complex(a[e])])
    if isinstance(e, Power):
        b = _reference_evaluate(e.base, a)
        ufunc, fn, args, python = np.power, pow, [b, np.array([complex(e.exponent)])], [b[0].item(), e.exponent]
    else:
        children = [e.arg] if isinstance(e, Unary) else [e.left, e.right]
        args = [_reference_evaluate(c, a) for c in children]
        (ufunc, fn), python = _OPS[e.op], [x[0].item() for x in args]
    try:
        fn(*python)
    except OverflowError:
        raise EvaluationDomainError("overflow", e) from None
    except (ZeroDivisionError, ValueError) as err:
        fault = {"log": "log of zero", "/": "division by zero", "^": "zero raised to a negative power"}
        raise EvaluationDomainError(fault.get(getattr(e, "op", "^"), str(err)), e) from None
    with np.errstate(all="ignore"):
        return ufunc(*args)


def _reference_value(e, a):
    return _reference_evaluate(e, a)[0]


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except EvaluationDomainError as err:
        return "domain", (str(err), err.node)
    except OverflowError:
        return "overflow", None


def _same_value(x, y):
    return x == y or (cmath.isnan(x) and cmath.isnan(y))


def _shared_exprs():
    """Trees that reuse subtrees, with unguarded logs, divisions and negative
    powers, so domain errors occur."""
    leaves = st.one_of(
        st.sampled_from([ex.z(1), ex.zb(1), ex.z(2), ex.zb(2)]),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]).map(lambda v: Const(complex(v))),
    )
    ops = st.sampled_from("+-*/")

    def extend(children):
        return st.one_of(
            st.tuples(ops, children, children).map(lambda t: Binary(*t)),
            st.tuples(ops, children).map(lambda t: Binary(t[0], t[1], t[1])),
            st.tuples(ops, ops, children, children).map(
                lambda t: Binary(t[0], t[2], Binary(t[1], t[3], t[2]))
            ),
            st.tuples(st.sampled_from(["neg", "exp", "log"]), children).map(lambda t: Unary(*t)),
            st.tuples(children, st.integers(min_value=-2, max_value=3)).map(lambda t: Power(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(
    tree=_shared_exprs(),
    values=st.lists(st.sampled_from([0.0, 1.0, -0.5, 0.3 + 0.7j, 2.0j]), min_size=2, max_size=2),
)
def test_tape_matches_reference_evaluator(tree, values):
    a = {}
    for i, v in enumerate(values, start=1):
        a[ex.z(i)] = complex(v)
        a[ex.zb(i)] = complex(v).conjugate()
    kind, want = _outcome(_reference_value, tree, a)
    got_kind, got = _outcome(evaluate, tree, a)
    assert got_kind == kind
    if kind == "value":
        assert _same_value(got, want)
    elif kind == "domain":
        assert got == want  # same message, same failing subexpression
    # Several roots in one tape: every prefix gives the reference values.
    children = (getattr(tree, name, None) for name in ("left", "right", "arg", "base"))
    roots = [tree] + [c for c in children if c is not None]
    outcomes = [_outcome(_reference_value, r, a) for r in roots]
    dag = ex.Dag()
    tape = dag.lower([dag.intern_id(r) for r in roots])
    for k in range(1, len(roots) + 1):
        if all(o[0] == "value" for o in outcomes[:k]):
            got = tape.run(a, k)
            assert all(_same_value(x, o[1]) for x, o in zip(got, outcomes[:k]))


# ---------------------------------------------------- property-based tests


def _exprs(dim=2, kinds=("z", "zb")):
    leaf_vars = [ex.var(k, i) for k in kinds for i in range(1, dim + 1)]
    leaves = st.one_of(
        st.sampled_from(leaf_vars),
        st.floats(min_value=-2.0, max_value=2.0).map(lambda v: Const(complex(v))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Binary("+", *t)),
            st.tuples(children, children).map(lambda t: Binary("-", *t)),
            st.tuples(children, children).map(lambda t: Binary("*", *t)),
            st.tuples(children, children).map(lambda t: Binary("/", *t)),
            children.map(lambda c: Unary("neg", c)),
            children.map(lambda c: Unary("exp", c)),
            children.map(lambda c: Unary("log", Binary("+", Const(4 + 0j), c))),
            st.tuples(children, st.integers(min_value=0, max_value=3)).map(
                lambda t: Power(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _safe_value(e, a):
    try:
        v = evaluate(e, a)
    except (EvaluationDomainError, OverflowError):
        return None
    if not (abs(v) < 1e6):
        return None
    return v


def _well_conditioned(e, a, margin=1e-2):
    """Every log argument, denominator and inverted base stays ``margin``
    away from its singularity, so a 1e-6 difference stencil is resolved."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Unary):
        if e.op == "log" and not (_guarded_mag(e.arg, a) > margin):
            return False
        return _well_conditioned(e.arg, a, margin)
    if isinstance(e, Binary):
        if e.op == "/" and not (_guarded_mag(e.right, a) > margin):
            return False
        return _well_conditioned(e.left, a, margin) and _well_conditioned(
            e.right, a, margin
        )
    if e.exponent < 0 and not (_guarded_mag(e.base, a) > margin):
        return False
    return _well_conditioned(e.base, a, margin)


def _guarded_mag(e, a):
    v = _safe_value(e, a)
    return -1.0 if v is None else abs(v)


class _FixedDraw:
    """Stands in for ``st.data()`` in an explicit example: every draw
    returns ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


@settings(max_examples=100, deadline=None)
@given(tree=_exprs(), data=st.data())
# d(x^0) once built x^-1, whose constant fold overflowed.
@example(tree=Power(Const(2.2250738585e-313 + 0j), 0), data=_FixedDraw(0))
def test_derivative_matches_wirtinger_finite_differences(tree, data):
    """Symbolic derivative vs central differences through the Wirtinger
    combination, at a random point, for both variable kinds."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = _random_assignment(rng)
    if _safe_value(tree, a) is None or not _well_conditioned(tree, a):
        return
    dag = ex.Dag()
    n = dag.intern_id(tree)
    for target in (ex.z(1), ex.zb(1)):
        sym = _safe_value(dag.expr(dag.derive(n, dag.intern_id(target))), a)
        if sym is None or abs(sym) > 1e4:
            continue

        def f(value, _target=target):
            b = dict(a)
            b[_target] = value
            return evaluate(tree, b)

        try:
            dz, dzb = wirtinger_fd(f, a[target], step=1e-6)
            dz2, _ = wirtinger_fd(f, a[target], step=2e-6)
        except (EvaluationDomainError, OverflowError):
            continue
        if abs(dz - dz2) > 1e-4 * max(1.0, abs(dz)):
            continue  # stencil does not resolve f here; oracle invalid
        # The tree is holomorphic in each formal slot, so the slot derivative
        # is the dz component and the dzb component must vanish.
        assert abs(sym - dz) <= 1e-6 * max(1.0, abs(sym), abs(dz))
        assert abs(dzb) <= 1e-6 * max(1.0, abs(dz))


@settings(max_examples=80, deadline=None)
@given(tree=_exprs())
@example(tree=Power(Const(complex(-0.0, 0.0)), 0))
@example(tree=Unary("neg", Const(complex(-0.0, 0.0))))
# Unparsed without the parentheses of its right factor, this overflows at a point where it does not.
@example(tree=ex.parse_expression("log(4 + (z1/1.1125369292536007e-308) * (z1*0))", 2, ("z", "zb")))
def test_parse_unparse_round_trip(tree):
    text = ex.unparse(tree)
    back = ex.parse_expression(text, 2, ("z", "zb"))
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = _random_assignment(rng)
        v1 = _safe_value(tree, a)
        v2 = _safe_value(back, a)
        if v1 is None or v2 is None:
            assert v1 is None and v2 is None
            continue
        assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1), abs(v2))


@pytest.mark.parametrize(
    "text",
    [
        "z1*zb1 + z2*zb2",
        "log(1 + z1*zb1) - exp(z2/(1 + zb2))",
        "-z1^2 + (z1 - zb2)^3 / 2",
        "2.5e-1 * z1 + 1i * zb1 - (0.5 - 1.0i)",
        "z1^-2 * (1 + z2*zb1)",
    ],
)
def test_unparse_of_parse_is_semantic_identity(text):
    tree = ex.parse_expression(text, 2, ("z", "zb"))
    again = ex.parse_expression(ex.unparse(tree), 2, ("z", "zb"))
    _eval_equal(tree, again, dim=2, tol=1e-14)


@pytest.mark.parametrize(
    "text", ["z1 * (z2 / zb1)", "z1 + (z2 + zb1)", "log(4 + (z1/1.1125369292536007e-308) * (z1*0))"]
)
def test_unparse_keeps_the_parentheses_of_a_right_operand_at_its_own_level(text):
    # The parser nests one level's operators to the left, so without them
    # the text would re-parse as another tree, with other rounding.
    tree = ex.parse_expression(text, 2, ("z", "zb"))
    assert ex.parse_expression(ex.unparse(tree), 2, ("z", "zb")) == tree


def test_round_trip_on_builtin_potentials(fs3, chyp3, product):
    for manifold in (fs3, chyp3, product):
        text = ex.unparse(manifold.potential)
        back = ex.parse_expression(text, manifold.m, ("z", "zb"))
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = manifold.assignment(manifold.sample_point(rng))
            v1 = evaluate(manifold.potential, a)
            v2 = evaluate(back, a)
            assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1))


def test_potential_reality_on_builtins(fs3, chyp3, product, flat3):
    rng = np.random.default_rng(8)
    for manifold in (fs3, chyp3, product, flat3):
        for _ in range(10):
            value = evaluate(
                manifold.potential, manifold.assignment(manifold.sample_point(rng))
            )
            assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))
