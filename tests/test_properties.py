"""Property tests of the expression layers over generated dags.

Dags are drawn as random programs over the operators in `OPS`, with
variables, numeric constants and placeholders as leaves.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srsub.dag import (
    BINARY_OPS,
    OPS,
    UNARY_OPS,
    Const,
    DagBuilder,
    bind_placeholders,
    compose,
    evaluate,
    invertible_path,
    solve_for,
    variable,
)
from srsub.exprtext import parse, to_text

from oracles import evaluate_nodewise

_CONSTANTS = (0.5, 1.0, 2.0, -3.0, 2.5066282746310002, 1e-3, 1e20)


def _apply(draw, b, names, root, pool):
    """Apply a drawn op from `names` to `root`; a binary op takes its other
    operand, on a drawn side, from `pool`."""
    name = draw(st.sampled_from(names))
    if OPS[name].arity == 2:
        other = draw(st.sampled_from(pool))
        return b.binary(name, root, other) if draw(st.booleans()) else b.binary(name, other, root)
    node = b.nodes[root]
    if name == "neg" and isinstance(node, Const) and not node.is_placeholder:
        return b.const(-node.value)  # the parser reads -(2) as the constant -2
    return b.unary(name, root)


@st.composite
def dags(draw, arity=3, constants=True, placeholders=True, max_ops=5):
    """A random program over `arity` inputs.  Each op takes the previous one
    as an operand, so every drawn op is reachable from the root, and a
    binary op may share any earlier node."""
    b = DagBuilder()
    pool = [b.var(i) for i in range(arity)]
    if constants:
        pool.append(b.const(draw(st.sampled_from(_CONSTANTS))))
    if placeholders:
        pool += [b.param("c0"), b.param("c1")]
    root = draw(st.sampled_from(pool))
    for _ in range(draw(st.integers(1, max_ops))):
        root = _apply(draw, b, tuple(OPS), root, pool)
        pool.append(root)
    return b.extract(root, arity)


@st.composite
def constant_operand_dags(draw, arity=3):
    """A random program whose first op takes a constant or a placeholder:
    a unary op on a constant, a binary op on two constants, or, with no op,
    a constant root."""
    b = DagBuilder()
    leaves = [b.const(draw(st.sampled_from(_CONSTANTS + (0.0, 1e160)))), b.param("c0")]
    pool = [b.var(i) for i in range(arity)] + leaves
    root = draw(st.sampled_from(leaves))
    for _ in range(draw(st.integers(0, 4))):
        root = _apply(draw, b, tuple(OPS), root, pool)
        pool.append(root)
    return b.extract(root, arity)


@st.composite
def solvable(draw, arity=3):
    """(lhs, target): x_target occurs once in lhs, under invertible ops
    only; the other operands may use any op."""
    target = draw(st.integers(0, arity - 1))
    b = DagBuilder()
    pool = [b.var(i) for i in range(arity) if i != target]
    pool.append(b.const(draw(st.sampled_from(_CONSTANTS))))
    pool.append(_apply(draw, b, tuple(OPS), draw(st.sampled_from(pool)), pool))
    invertible = tuple(name for name, op in OPS.items() if op.inverse is not None)
    root = b.var(target)
    for _ in range(draw(st.integers(1, 4))):
        root = _apply(draw, b, invertible, root, pool)
    return b.extract(root, arity), target


def points(arity, rows=24):
    """Rows mixing exact zeros and ones, where the domain guards act, with
    ordinary values."""
    element = st.one_of(st.sampled_from((0.0, 1.0, -1.0)),
                        st.floats(-4.0, 4.0, allow_nan=False))
    return arrays(np.float64, (rows, arity), elements=element)


def guard_points(arity, rows=24):
    """Like `points`, plus entries that push results past the 1e150 guard or
    overflow them to inf."""
    element = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 1e160, -1e200, 710.0)),
                        st.floats(-4.0, 4.0, allow_nan=False))
    return arrays(np.float64, (rows, arity), elements=element)


def _agree_where_finite(got, want):
    # `/` maps a zero divisor to nan but `inv` maps 0 to inf, so rewriting
    # c/x as inv(x) once c is 1 can turn exp(-(c/x)) at x = 0 from nan
    # into 0; only rows finite on both sides are compared
    ok = np.isfinite(got) & np.isfinite(want)
    np.testing.assert_array_equal(got[ok], want[ok])


@settings(max_examples=300, deadline=None)
@given(outer=dags(arity=2, placeholders=False),
       inner=st.lists(dags(placeholders=False), min_size=2, max_size=2),
       X=points(3))
def test_compose_commutes_with_evaluate(outer, inner, X):
    stacked = np.column_stack([evaluate(g, X) for g in inner])
    want = evaluate(outer, stacked)
    got = evaluate(compose(outer, inner, 3), X)
    rows = np.isfinite(stacked).all(axis=1)
    _agree_where_finite(got[rows], want[rows])


@settings(max_examples=300, deadline=None)
@given(dag=dags(), values=st.lists(st.one_of(st.just(1.0), st.floats(-5.0, 5.0)),
                                   min_size=2, max_size=2),
       X=points(3))
def test_bind_placeholders_matches_evaluate_with_params(dag, values, X):
    params = dict(zip(("c0", "c1"), values))
    bound = bind_placeholders(dag, params)
    assert not bound.placeholders()
    _agree_where_finite(evaluate(bound, X), evaluate(dag, X, params))


_PARAM = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 1e155)), st.floats(-5.0, 5.0))


@settings(max_examples=400, deadline=None)
@given(dag=st.one_of(dags(), constant_operand_dags()), c0=_PARAM, c1=_PARAM,
       X=guard_points(3))
def test_evaluate_bitwise_equal_to_nodewise(dag, c0, c1, X):
    params = {"c0": c0, "c1": c1}
    got = evaluate(dag, X, params)
    want = evaluate_nodewise(dag, X, params)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(X),)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _constant_operand_cases():
    """Hand-built dags whose ops see only constants and placeholders."""
    cases = []
    for op in UNARY_OPS:
        b = DagBuilder()
        cases.append(b.extract(b.binary("+", b.unary(op, b.const(2.0)), b.var(0)), 1))
        b = DagBuilder()
        cases.append(b.extract(b.unary(op, b.param("c0")), 1))
    for op in BINARY_OPS:
        for right in (0.0, 2.0):
            b = DagBuilder()
            node = b.binary(op, b.param("c0"), b.const(right))
            cases.append(b.extract(node, 1))
            cases.append(b.extract(b.unary("exp", node), 1))
    cases.append(parse("3.5", arity=1))
    b = DagBuilder()
    cases.append(b.extract(b.param("c0"), 1))
    return cases


@pytest.mark.parametrize("dag", _constant_operand_cases(), ids=str)
def test_evaluate_constant_operands_bitwise(dag):
    X = np.array([[0.0], [1.0], [-3.0], [1e160]])
    # the last three are a numpy scalar, a 0-d array and an int
    for c0 in (0.0, 1.0, -2.5, 1e160, np.float64(0.5), np.array(-0.5), 3):
        got = evaluate(dag, X, {"c0": c0})
        want = evaluate_nodewise(dag, X, {"c0": c0})
        assert got.shape == want.shape == (4,)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(dag=dags())
def test_parse_inverts_to_text(dag):
    assert parse(to_text(dag), arity=dag.arity) == dag


@settings(max_examples=300, deadline=None)
@given(case=solvable())
def test_solve_for_round_trips(case):
    lhs, target = case
    assert invertible_path(lhs, target)
    # solve lhs(x) = y for x_target, with y in slot 3
    sol = solve_for(lhs, variable(3, 4), target, check=False)
    assert target not in sol.var_indices()
    X = np.random.default_rng(0).uniform(0.5, 2.0, size=(64, 3))
    y = evaluate(lhs, X)
    X_back = X.copy()
    X_back[:, target] = evaluate(sol, np.column_stack([X, y]))
    y_back = evaluate(lhs, X_back)
    ok = np.isfinite(y) & np.isfinite(y_back)
    np.testing.assert_allclose(y_back[ok], y[ok], rtol=1e-6, atol=1e-9)


def _fold(op, value):
    try:
        return op.fold(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        return float("nan")


@pytest.mark.parametrize("name", tuple(OPS))
@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from((0.0, 1.0, -1.0)),
                                 st.floats(-1e3, 1e3, allow_nan=False)),
                       min_size=2, max_size=2))
def test_op_table_backends_agree(name, values):
    op = OPS[name]
    args = values[:op.arity]
    symbols = sp.symbols("a b", real=True)[:op.arity]
    lambdified = sp.lambdify(symbols, op.sympy(*symbols), modules="numpy")
    with np.errstate(all="ignore"):
        results = [float(op.numpy(*(np.array([v]) for v in args))[0]),
                   float(lambdified(*(np.array([v]) for v in args))[0])]
    if op.arity == 1:
        results.append(_fold(op, args[0]))
    else:
        assert op.fold is None
    if all(np.isfinite(results)):
        np.testing.assert_allclose(results[1:], results[0], rtol=1e-12, atol=1e-300)
