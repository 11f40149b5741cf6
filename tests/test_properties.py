"""Property tests of the expression layers and the search over generated dags.

Dags are drawn as random programs over the operators in `OPS`, with
variables, numeric constants and placeholders as leaves.
"""

import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srsub import (
    BeamConfig,
    Dataset,
    GrammarBudget,
    InputSub,
    OutInputSub,
    codec,
    depends_on,
    enumerate_dags,
    nrmse,
    search,
    simplify,
    symbolic,
)
from srsub.dag import (
    BINARY_OPS,
    OPS,
    UNARY_OPS,
    Compiled,
    Const,
    DagBuilder,
    ExprDag,
    Unary,
    bind_placeholders,
    compose,
    evaluate,
    invertible_path,
    solve_for,
    variable,
)
from srsub.errors import Inconclusive
from srsub.grammar import DEFAULT_OPS
from srsub.exprtext import parse, to_text

from oracles import enumerate_by_programs, evaluate_nodewise, nrmse_masked, validate_dataset

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


@settings(max_examples=300, deadline=None)
@given(outer=dags(arity=2, placeholders=False),
       inner=st.lists(dags(placeholders=False), min_size=2, max_size=2),
       X=points(3))
def test_compose_commutes_with_evaluate(outer, inner, X):
    stacked = np.column_stack([evaluate(g, X) for g in inner])
    want = evaluate(outer, stacked)
    got = evaluate(compose(outer, inner, 3), X)
    rows = np.isfinite(stacked).all(axis=1)
    np.testing.assert_array_equal(got[rows], want[rows])


@settings(max_examples=300, deadline=None)
@given(dag=dags(), values=st.lists(st.one_of(st.just(1.0), st.floats(-5.0, 5.0)),
                                   min_size=2, max_size=2),
       X=points(3))
def test_bind_placeholders_matches_evaluate_with_params(dag, values, X):
    params = dict(zip(("c0", "c1"), values))
    bound = bind_placeholders(dag, params)
    assert not bound.placeholders()
    np.testing.assert_array_equal(evaluate(bound, X), evaluate(dag, X, params))


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


@settings(max_examples=300, deadline=None)
@given(dag=st.one_of(dags(), constant_operand_dags()), c0=_PARAM, c1=_PARAM,
       X=guard_points(3))
def test_compiled_program_reused_across_calls_equals_nodewise(dag, c0, c1, X):
    # one program called along a fit's sequence of constants: each call
    # overwrites the last one's values, and none may leak into the next
    names = ("c0", "c1")
    with np.errstate(all="ignore"):
        program = Compiled(dag, X, names)
        for theta in ((1.0, 1.0), (1.0 + 1e-6, 1.0), (0.0, 0.0), (1e155, 1e155), (c0, c1)):
            got = program(np.array(theta))
            want = evaluate_nodewise(dag, X, dict(zip(names, theta)))
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


def _on_square_branch(lhs, target, X):
    """The rows where every `square` above x_target has a non-negative
    argument.  `solve_for` inverts square on that branch only; on the other
    branch the sqrt constraints it records can fail."""
    rows = np.ones(len(X), dtype=bool)
    for node in lhs.nodes:
        if isinstance(node, Unary) and node.op == "square":
            arg = ExprDag(lhs.nodes[:node.child + 1], node.child, lhs.arity, key="")
            if arg.var_tree_occurrences(target):
                rows &= evaluate(arg, X) >= 0
    return rows


@settings(max_examples=300, deadline=None)
@given(case=solvable())
# x2 - sqrt(x1) < 0 on 25 of the 64 rows; 3 of them miss by up to 0.52
# unless rows off the square's non-negative branch are left out
@example(case=(parse("(x2-sqrt(x1))*(x2-sqrt(x1))", arity=3), 0))
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
    ok = np.isfinite(y) & np.isfinite(y_back) & _on_square_branch(lhs, target, X)
    np.testing.assert_allclose(y_back[ok], y[ok], rtol=1e-6, atol=1e-9)


def _check_simplify(dag, X, params=None):
    """Check that `simplify` is idempotent and keeps the values where both
    sides are finite."""
    s = simplify(dag)
    assert simplify(s).key == s.key
    a, b = evaluate(dag, X, params), evaluate(s, X, params)
    both = np.isfinite(a) & np.isfinite(b)
    np.testing.assert_allclose(b[both], a[both], rtol=1e-9, atol=1e-9)


# derandomized: about one generated example in several thousand is a case
# like the two below, so a random 300-example run fails now and then
@settings(max_examples=300, deadline=None, derandomize=True)
@given(dag=st.one_of(dags(), dags(placeholders=False)), c0=_PARAM, c1=_PARAM, X=points(3))
def test_simplify_is_idempotent_and_keeps_values(dag, c0, c1, X):
    _check_simplify(dag, X, {"c0": c0, "c1": c1})


@pytest.mark.xfail(strict=True, reason="the rewrite rounds differently, and sin of an argument "
                   "near 1e21 or 1e30 turns one rounding step into a different value")
@pytest.mark.parametrize("text, x", [("sin(x1+x1*(1e20*x1))", 3.81245719),
                                     ("sin((1/x1)/x1)", 1e-15)])
def test_simplify_keeps_values_of_sin_at_huge_arguments(text, x):
    _check_simplify(parse(text, arity=1), np.array([[x]]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(3, 40), d=st.integers(1, 3))
def test_codec_forms_agree_with_ties_and_duplicate_rows(data, n, d):
    # few distinct values, so outputs tie and input rows repeat
    value = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 2.0)), st.floats(-4.0, 4.0))
    X = data.draw(arrays(np.float64, (n, d), elements=value))
    y = data.draw(arrays(np.float64, n, elements=value))
    assume(len(np.unique(y)) > 1)
    assert codec(X, y, form="min") == codec(X, y, form="rewritten")


# outputs whose sum of squares is normal, falls below the normal range
# although they are not zero, overflows, or any of these
_NORMAL, _TINY = st.floats(-1e150, 1e150), st.floats(-1e-155, 1e-155)
_HUGE = st.floats(1e155, 1e300).flatmap(lambda v: st.sampled_from((v, -v)))
_OUTPUTS = (_NORMAL, _TINY, _HUGE, st.one_of(_NORMAL, _TINY, _HUGE))
_PREDICTION = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from((np.nan, np.inf, -np.inf)),
                        st.floats(0.5e200, 2e200).flatmap(lambda v: st.sampled_from((v, -v))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 40))
def test_nrmse_bitwise_equal_to_masked_oracle_on_generated_inputs(data, n):
    y = data.draw(arrays(np.float64, n, elements=data.draw(st.sampled_from(_OUTPUTS))))
    assume(y.any())
    yhat = data.draw(arrays(np.float64, n, elements=st.one_of(_PREDICTION, st.sampled_from(y))))
    got = np.float64(nrmse(y, yhat))
    want = np.float64(nrmse_masked(y, yhat))
    assert got.view(np.int64) == want.view(np.int64)


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


# -- search nodes ---------------------------------------------------------------

# sqrt and log make some candidates drop the rows where their argument is
# negative; about 9% of the sampled values are
_SEARCH_BUDGET = GrammarBudget(max_intermediary_nodes=1,
                               allowed_ops=frozenset({"+", "-", "*", "/", "sqrt", "log"}))


def _search_samples(f, seed, n=60):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.3, 3.0, size=(n, f.arity))
    y = evaluate(f, X)
    ok = np.isfinite(y)
    return Dataset.from_arrays(X[ok], y[ok]) if ok.sum() >= 30 else None


def _validate_every_node(ds):
    """Run a search and check `validate_dataset` on every surviving node;
    the (kind, rows dropped) pairs of their edges."""
    result = search(ds, BeamConfig(beam_size=3, budget=_SEARCH_BUDGET))
    seen = set()
    for level in result.all_levels:
        for node in level:
            validate_dataset(node.dataset, ds)
            seen.add((type(node.edge), node.dataset.n < node.parent.dataset.n))
    return seen


def test_validate_holds_on_search_nodes_of_both_kinds_with_row_drops():
    seen = set()
    for text in ("x1*x2+sqrt(x3)", "x2*x3/(x1*x1)"):
        seen |= _validate_every_node(_search_samples(parse(text), seed=1))
    assert {(InputSub, True), (OutInputSub, True), (OutInputSub, False)} <= seen


@settings(max_examples=30, deadline=None)
@given(f=st.integers(2, 3).flatmap(lambda d: dags(arity=d, placeholders=False, max_ops=4)),
       seed=st.integers(0, 2**16))
def test_validate_holds_on_every_search_node(f, seed):
    ds = _search_samples(f, seed)
    assume(ds is not None)
    _validate_every_node(ds)


# -- exact dependence witness ---------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dag=dags(placeholders=False), targets=st.sets(st.integers(0, 2), min_size=1))
def test_dependence_witness_implies_no_eliminated_form(dag, targets):
    # a witness skips the rewrite chain only where the chain would find no
    # form free of the targets either
    assume(dag.var_indices())
    try:
        expr = symbolic.to_sympy(dag)
    except OverflowError:  # sympy folds exp(exp(1e20)) at once
        assume(False)
    targets = tuple(sorted(targets))
    assume(symbolic._witness(expr, dag.var_indices(), targets))
    assert symbolic.eliminated_form(expr, [symbolic._sym(i) for i in targets]) is None


@pytest.mark.parametrize("text, targets, verdict", [
    ("(x4/x2)*x2+x3", (0, 1), False),
    ("(x1*x2*x3+x1*(x2+log(x2))/x3)/x1", (0,), False),
    ("sin(x1)*sin(x1)+cos(x1)*cos(x1)+x2", (0,), False),
    ("sqrt(x1*x1)/x1", (0,), Inconclusive),
])
def test_dependence_witness_never_fires_on_independence(text, targets, verdict):
    dag = parse(text)
    assert not symbolic._witness(symbolic.to_sympy(dag), dag.var_indices(), targets)
    if verdict is Inconclusive:
        with pytest.raises(Inconclusive):
            depends_on(dag, targets)
    else:
        assert depends_on(dag, targets) is verdict


def test_non_integer_constant_goes_to_rewrite_chain(monkeypatch):
    runs = []
    escalate = symbolic._escalate

    def counting(expr):
        runs.append(expr)
        return escalate(expr)

    monkeypatch.setattr(symbolic, "_escalate", counting)
    s = simplify(parse("x1*0.5+x2"))
    assert symbolic.to_sympy(s).has(sp.Float)
    assert symbolic._symbolic_dependence(s, (0,)) is True
    assert len(runs) == 1


# -- dag enumeration --------------------------------------------------------------

_STREAM_PREFIX = 3_000


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arity=st.integers(1, 3), m=st.integers(0, 2),
       ops=st.sets(st.sampled_from(sorted(DEFAULT_OPS)), min_size=1),
       allow_constants=st.booleans())
@example(arity=1, m=2, ops=DEFAULT_OPS, allow_constants=True)
@example(arity=3, m=2, ops=DEFAULT_OPS, allow_constants=True)
@example(arity=2, m=2, ops={"sqrt", "exp"}, allow_constants=True)
def test_enumerate_dags_equals_program_oracle_in_order(arity, m, ops, allow_constants):
    # regress._skeletons keeps a prefix of the stream, so the order must
    # match as well as the set
    budget = GrammarBudget(max_intermediary_nodes=m, allowed_ops=ops,
                           allow_constants=allow_constants)

    def prefix(dags):
        return [(d.key, d.nodes, d.root, d.arity) for d in itertools.islice(dags, _STREAM_PREFIX)]

    assert prefix(enumerate_dags(arity, budget)) == prefix(enumerate_by_programs(arity, budget))
