"""Evaluation, text round-trips, and equation solving."""

import numpy as np
import pytest

from srsub import GrammarBudget, RegressorSpec, evaluate, parse, solve_for, to_text
from srsub.dag import invertible_path
from srsub.errors import NotSolvable
from srsub.regress import _skeletons
from srsub.simplify import simplify

from oracles import evaluate_nodewise

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
        sol = solve_for(lhs, rhs, target=target, rng=rng)
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
