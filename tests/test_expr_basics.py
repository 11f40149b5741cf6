"""Evaluation, text round-trips, and equation solving."""

import numpy as np
import pytest

from srsub import GrammarBudget, RegressorSpec, evaluate, parse, solve_for, to_text
from srsub.dag import Compiled, DagBuilder, bind_placeholders, invertible_path, sample_finite
from srsub.errors import NotSolvable, UnsupportedExpression
from srsub.exprtext import _tokenize
from srsub.regress import _skeletons
from srsub.simplify import simplify

from oracles import evaluate_nodewise, parse_recursive

# the introductory capillary-flow formula in its original variable order
# (x1=t, x2=viscosity, x3=surface tension, x4=radius, x5=contact angle)
WASHBURN_ORIG = "sqrt(x3*x4*x1*cos(x5)/(2*x2))"
# the same formula in the reindexed order used by the search walkthrough
WASHBURN = "sqrt(x1*x2*x3*cos(x4)/(2*x5))"


def test_eval_basic_arithmetic():
    dag = parse("x1*x2+x3")
    assert evaluate(dag, np.array([[2.0, 3.0, 4.0]]))[0] == pytest.approx(10.0)


def test_eval_domain_violation_yields_nonfinite():
    dag = parse("log(x1)")
    out = evaluate(dag, np.array([[-1.0]]))
    assert not np.isfinite(out[0])


def test_eval_washburn_row():
    dag = parse(WASHBURN_ORIG)
    row = np.array([[1.0, 1.0, 1.0, 1.0, 0.0]])  # (t, eta, gamma, r, phi)
    assert evaluate(dag, row)[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_eval_division_by_zero():
    dag = parse("x1/x2")
    out = evaluate(dag, np.array([[1.0, 0.0], [4.0, 2.0]]))
    assert not np.isfinite(out[0])
    assert out[1] == pytest.approx(2.0)


def test_inv_and_division_agree_at_zero():
    # binding c0 = 1 turns c0/x1 into inv(x1); both give nan at x1 = 0
    b = DagBuilder()
    dag = b.extract(b.unary("exp", b.unary("neg", b.binary("/", b.param("c0"), b.var(0)))), 1)
    X = np.array([[0.0], [2.0]])
    bound = bind_placeholders(dag, {"c0": 1.0})
    assert "inv" in bound.key
    got, want = evaluate(bound, X), evaluate(dag, X, {"c0": 1.0})
    assert np.isnan(got[0]) and np.isnan(want[0])
    assert got[1] == want[1] == np.exp(-0.5)


def test_eval_never_raises_on_bad_rows():
    dag = parse("sqrt(x1)/log(x2)")
    X = np.array([[-1.0, 0.5], [4.0, 1.0], [4.0, np.e]])
    out = evaluate(dag, X)
    assert not np.isfinite(out[0])
    assert not np.isfinite(out[1])  # log(1) = 0 divisor
    assert out[2] == pytest.approx(2.0)


def _guard_inputs(arity, rng, n=48):
    """Random rows with exact zeros (divisors, logs) and entries whose
    results pass the 1e150 overflow guard or overflow to inf."""
    X = rng.uniform(-3.0, 3.0, size=(n, arity))
    X[::5, 0] = 0.0
    X[2::7, -1] = 0.0
    X[1::9, :] = 1e160
    X[3::11, 0] = -1e200
    X[4::13, -1] = 710.0
    return X


@pytest.mark.parametrize("arity", [1, 2])
def test_evaluate_bitwise_equal_to_nodewise_on_dagsearch_skeletons(arity):
    # every skeleton the default dagsearch fit enumerates for this arity
    spec = RegressorSpec(kind="dagsearch")
    budget = GrammarBudget(spec.max_intermediary_nodes, allow_constants=True)
    rng = np.random.default_rng(arity)
    X = _guard_inputs(arity, rng)
    pool = (0.0, 1.0, -1.0, 1e155, 1e-200)
    for skel in _skeletons(arity, budget, spec.max_skeletons):
        params = {name: (pool[rng.integers(len(pool))] if rng.random() < 0.3
                         else rng.normal(scale=3.0))
                  for name in skel.placeholders()}
        got = evaluate(skel, X, params)
        want = evaluate_nodewise(skel, X, params)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), skel


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_skeleton_table_programs_bitwise_equal_to_compiled(arity):
    # every default skeleton's table program, reading the shared
    # placeholder-free values, against the skeleton compiled on its own;
    # twice per program, since a call overwrites the last one's values
    spec = RegressorSpec(kind="dagsearch")
    budget = GrammarBudget(spec.max_intermediary_nodes, allow_constants=True)
    table = _skeletons(arity, budget, spec.max_skeletons)
    rng = np.random.default_rng(arity)
    X = _guard_inputs(arity, rng)
    pool = (0.0, 1.0, -1.0, 1e155, 1e-200)
    with np.errstate(all="ignore"):
        for skel, program in zip(table, table.programs(X)):
            names = skel.placeholders()
            assert program.names == tuple(names)
            compiled = Compiled(skel, X, names)
            for _ in range(2):
                theta = np.array([pool[rng.integers(len(pool))] if rng.random() < 0.3
                                  else rng.normal(scale=3.0) for _ in names])
                got, want = program(theta), compiled(theta)
                assert got.shape == want.shape == (len(X),)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), skel


@pytest.mark.parametrize("text", [
    "x1+x2",
    "x1*x2+x3",
    "sqrt(x1*x2*x3*cos(x4)/(2*x5))",
    "x1/(2+2*x2)",
    "-(x1*x2)",
    "exp(-(x1*x1)/2)/2.5066282746310002",
    "1/(1/x1+x2/x3)",
    "sin(x1)/sin(x2)",
    "x1*log(x2/x3)/x4",
])
def test_parse_print_roundtrip_structural(text):
    dag = simplify(parse(text))
    again = parse(to_text(dag), arity=dag.arity)
    assert again == dag


def test_parse_print_roundtrip_random_enumerated():
    from srsub import GrammarBudget, enumerate_dags

    count = 0
    for dag in enumerate_dags(2, GrammarBudget(max_intermediary_nodes=1)):
        s = simplify(dag)
        assert parse(to_text(s), arity=s.arity) == s
        count += 1
        if count >= 200:
            break
    assert count >= 100


def test_print_deeper_than_the_recursion_limit():
    # the sum is a chain of 1,499 + nodes, each over the previous one
    assert to_text(parse("+".join(["x1"] * 1500))).count("x1") == 1500


def test_parse_reads_back_a_dag_deeper_than_the_recursion_limit():
    # the printed sum nests 1,499 parenthesized right operands
    dag = parse("+".join(["x1"] * 1500))
    assert parse(to_text(dag)) == dag


_ATOMS = ("x1", "x2", "x3", "y", "c0", "2", "0.5", "3e-2")
_FUNCS = ("sin", "cos", "exp", "log", "sqrt")


def _random_text(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return str(rng.choice(_ATOMS))
    inner = _random_text(rng, depth - 1)
    if r < 0.42:
        return f"{rng.choice(['-', '+'])}{inner}"
    if r < 0.52:
        return f"{rng.choice(_FUNCS)}({inner})"
    if r < 0.62:
        return f"({inner}){rng.choice(['^', '**'])}{rng.choice(['0', '1', '2', '3', '-2', '1.5'])}"
    if r < 0.7:
        return f"({inner})"
    return f"{inner} {rng.choice(list('+-*/'))} {_random_text(rng, depth - 1)}"


def _mutated(rng, text):
    """`text` with one to three tokens deleted, duplicated or replaced."""
    tokens = _tokenize(text)
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(tokens)))
        kind = rng.integers(3)
        if kind == 0 and len(tokens) > 1:
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = str(rng.choice(list(_ATOMS + _FUNCS) + list("+-*/^()") + ["x0", "foo"]))
    return " ".join(tokens)


def _outcome(parser, text):
    try:
        dag = parser(text, var_names={"y": 3})
    except UnsupportedExpression as exc:
        return str(exc)
    return dag.arity, dag.nodes


def test_parse_builds_the_recursive_parsers_dag_on_generated_texts():
    rng = np.random.default_rng(16)
    parsed = 0
    for _ in range(3000):
        text = _random_text(rng, 5)
        if rng.random() < 0.5:
            text = _mutated(rng, text)
        expected = _outcome(parse_recursive, text)
        assert _outcome(parse, text) == expected, text
        parsed += not isinstance(expected, str)
    # both well-formed and malformed texts were compared
    assert 1000 < parsed < 2900


def test_parse_rejects_garbage():
    from srsub.errors import UnsupportedExpression

    with pytest.raises(UnsupportedExpression):
        parse("x1 +* x2")
    with pytest.raises(UnsupportedExpression):
        parse("foo(x1)")


def test_parse_power_notation():
    assert parse("x1^2") == parse("x1*x1")
    assert parse("x1**3") == parse("x1*(x1*x1)")
    # a power binds tighter than unary minus
    assert parse("-x1^2") == parse("-(x1*x1)")
    assert parse("-x1**2") == parse("-(x1*x1)")
    gauss = evaluate(parse("exp(-x1^2/2)"), np.array([[3.0]]))[0]
    assert gauss == pytest.approx(np.exp(-4.5), rel=1e-12)
    # negative exponents are unchanged
    assert parse("x1^-2") == parse("1/(x1*x1)")
    assert parse("2^-1*x1") == parse("1/2*x1")


# -- sampling finite points ----------------------------------------------------


def _recording(fn, sizes):
    def recorded(pts):
        sizes.append(len(pts))
        return fn(pts)
    return recorded


def test_sample_finite_first_draw_lies_in_the_unit_cube():
    sizes = []
    pts, vals = sample_finite(_recording(lambda p: p.sum(axis=1), sizes), 50, 3,
                              np.random.default_rng(0))
    assert pts.shape == (50, 3) and sizes == [50]
    assert np.abs(pts).max() <= 1.0
    assert np.array_equal(vals, pts.sum(axis=1))


def test_sample_finite_grows_the_cube_for_a_partly_finite_fn():
    sizes = []
    f = parse("log(x1-3)*x2")
    pts, vals = sample_finite(_recording(lambda p: evaluate(f, p), sizes), 200, 2,
                              np.random.default_rng(1))
    assert len(pts) == 200 and (pts[:, 0] > 3).all()
    assert np.array_equal(vals, evaluate(f, pts))
    # no row is finite up to half-width 3; each draw takes the missing rows
    assert sizes[:5] == [200] * 5 and len(sizes) > 5
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    assert np.abs(pts).max() <= 1.0 + 0.5 * (len(sizes) - 1)


def test_sample_finite_keeps_to_the_box():
    box = ((2.0, 3.0), (-5.0, -4.0))
    f = parse("log(x1-2.5)", arity=2)
    pts, _ = sample_finite(lambda p: evaluate(f, p), 100, 2, np.random.default_rng(2), box)
    assert len(pts) == 100
    assert (pts[:, 0] > 2.5).all() and (pts[:, 0] <= 3.0).all()
    assert (pts[:, 1] >= -5.0).all() and (pts[:, 1] <= -4.0).all()


def test_sample_finite_returns_no_rows_after_299_draws_of_a_nowhere_finite_fn():
    sizes = []
    pts, vals = sample_finite(_recording(lambda p: np.full(len(p), np.nan), sizes), 10, 2,
                              np.random.default_rng(3))
    assert pts.shape == (0, 2) and vals.shape == (0,)
    assert sizes == [10] * 299


def test_sample_finite_draws_one_column_for_no_variables():
    pts, vals = sample_finite(lambda p: evaluate(parse("3.0"), p), 20, 0,
                              np.random.default_rng(4))
    assert pts.shape == (20, 1)
    assert (vals == 3.0).all()


# -- solving -------------------------------------------------------------------


def test_solve_additive():
    # y - x3 = g  ->  y = g + x3   (y is slot 1, g slot 2 of a 3-slot space)
    lhs = parse("x2-x1", arity=3)
    rhs = parse("x3", arity=3)
    sol = solve_for(lhs, rhs, target=1)
    assert sol == parse("x1+x3", arity=3)


def test_solve_through_sqrt_quotient():
    # y / sqrt(v) = c  ->  y = c * sqrt(v)
    lhs = parse("x2/sqrt(x1)", arity=3)
    rhs = parse("x3", arity=3)
    sol = solve_for(lhs, rhs, target=1)
    assert sol == parse("x3*sqrt(x1)", arity=3)


def test_solve_target_occurs_twice():
    lhs = parse("sin(x1)+x1", arity=2)
    with pytest.raises(NotSolvable):
        solve_for(lhs, parse("x2", arity=2), target=0)


def test_solve_noninvertible_op_on_path():
    lhs = parse("sin(x1)", arity=2)
    with pytest.raises(NotSolvable):
        solve_for(lhs, parse("x2", arity=2), target=0)


def test_solve_roundtrip_residual():
    rng = np.random.default_rng(5)
    cases = [
        ("x1*x2+x3", 0),       # target in a product-sum
        ("log(x1)-x2", 0),     # through log
        ("exp(x1)/x2", 0),     # through exp and division
        ("(x1+x2)/x3", 1),
        ("2*x1/(x2*x3)", 0),
    ]
    for text, target in cases:
        lhs = parse(text, arity=4)
        rhs = parse("x4", arity=4)
        sol = solve_for(lhs, rhs, target=target)
        pts = rng.uniform(0.5, 2.0, size=(100, 4))
        sol_vals = evaluate(sol, pts)
        pts[:, target] = sol_vals
        lv = evaluate(lhs, pts)
        rv = evaluate(rhs, pts)
        ok = np.isfinite(lv) & np.isfinite(rv)
        assert ok.sum() >= 50
        assert np.all(np.abs(lv[ok] - rv[ok]) <= 1e-9 * (1 + np.abs(rv[ok])))


def test_invertible_path_helper():
    assert invertible_path(parse("x2/sqrt(x1)", arity=2), 1)
    assert not invertible_path(parse("sin(x2)+x1", arity=2), 1)
    assert not invertible_path(parse("x1+x1", arity=2), 1)  # no occurrence


def test_solve_square_nonnegative_branch():
    # v * y^2 = g  ->  y = sqrt(g / v), declared non-negative branch
    lhs = parse("x1*(x2*x2)", arity=3)
    rhs = parse("x3", arity=3)
    sol = solve_for(lhs, rhs, target=1)
    assert sol == parse("sqrt(x3/x1)", arity=3)
