"""Canonical simplification, complexity, and subexpression sets."""

import numpy as np
import pytest

from srsub import complexity, evaluate, parse, simplify, subexpressions, to_text
from srsub import GrammarBudget, enumerate_dags

WASHBURN = "sqrt(x1*x2*x3*cos(x4)/(2*x5))"


def test_identity_elimination():
    assert simplify(parse("(x1*1)+0")) == parse("x1")
    assert simplify(parse("x1/1")) == parse("x1")
    assert simplify(parse("x1*0")) == parse("0", arity=1)


def test_inverse_pairs():
    assert simplify(parse("exp(log(x1))")) == parse("x1")
    assert simplify(parse("log(exp(x1))")) == parse("x1")
    assert to_text(simplify(parse("-(-(x1))"))) == "x1"


def test_chain_cancellation():
    got = simplify(parse("(x1*x2/x2)+x3"))
    assert got == parse("x1+x3")


def test_constant_folding():
    assert simplify(parse("2+3*4")) == parse("14", arity=0)
    assert simplify(parse("cos(0)")) == parse("1", arity=0)
    assert to_text(simplify(parse("sqrt(4)"))) == "2"


def test_simplify_keeps_repeated_terms():
    # no coefficient synthesis: x1 + x1 stays a two-term sum
    s = simplify(parse("x1+x1"))
    assert s == parse("x1+x1")


def test_simplify_idempotent_on_enumerated():
    budget = GrammarBudget(max_intermediary_nodes=1)
    count = 0
    for dag in enumerate_dags(2, budget):
        s = simplify(dag)
        assert simplify(s) == s
        count += 1
        if count >= 300:
            break


def test_simplify_preserves_semantics_randomized():
    rng = np.random.default_rng(123)
    budget = GrammarBudget(max_intermediary_nodes=1)
    checked = 0
    for i, dag in enumerate(enumerate_dags(3, budget)):
        if i >= 100:
            break
        s = simplify(dag)
        pts = rng.uniform(0.2, 2.5, size=(10, 3))
        a = evaluate(dag, pts)
        b = evaluate(s, pts)
        both = np.isfinite(a) & np.isfinite(b)
        assert np.all(np.abs(a[both] - b[both]) <= 1e-9 * (1 + np.abs(a[both])))
        checked += both.sum()
    assert checked >= 500


def test_complexity_washburn():
    assert complexity(parse(WASHBURN)) == 13


def test_complexity_small_cases():
    assert complexity(parse("x1")) == 1
    assert complexity(parse("x1*x2+x3")) == 5


def test_subexpressions_washburn_contains_pair_product():
    subs = subexpressions(parse(WASHBURN))
    assert parse("x3*cos(x4)", arity=5) in subs


def test_subexpressions_single_variable():
    assert subexpressions(parse("x1")) == {parse("x1")}


def test_subexpressions_set_semantics():
    subs = subexpressions(parse("x1+x1"))
    assert subs == {parse("x1"), parse("x1+x1")}


@pytest.mark.parametrize("text", ["1e200*(1e200*x1)", "1e308+(1e308+x1)"])
def test_simplify_and_complexity_fold_to_infinity_without_raising(text):
    # folding the two constants overflows to inf, which the node key prints
    s = simplify(parse(text))
    assert "inf" in s.key
    assert complexity(parse(text)) >= 1
