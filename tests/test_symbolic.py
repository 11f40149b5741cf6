"""Dependence and equivalence decision procedures."""

import numpy as np
import pytest
import sympy as sp

from srsub import (
    GrammarBudget,
    InputSub,
    OutInputSub,
    depends_on,
    equivalent,
    parse,
    substitution,
    symbolic,
)
from srsub.dag import OPS, Const, bind_placeholders, evaluate
from srsub.errors import Inconclusive
from srsub.grammar import enumerate_dags

from oracles import numeric_constant_batched, numeric_depends_redrawn


def test_depends_cancelling_product():
    # (gamma / x2) * x2 + x3 with gamma in slot 4: free of x1 and x2
    dag = parse("(x4/x2)*x2+x3")
    assert depends_on(dag, {0, 1}) is False


def test_depends_simple_true():
    assert depends_on(parse("x1+x3"), {0}) is True


def test_depends_difference_cancellation():
    assert depends_on(parse("(x1*x2+x3)-x3"), {2}) is False


def test_depends_requires_cas_rewrite():
    # x1 cancels only after putting the sum over a common denominator
    dag = parse("(x1*x2*x3+x1*(x2+log(x2))/x3)/x1")
    assert depends_on(dag, {0}) is False


def test_depends_inconclusive_on_branch_mismatch():
    # sqrt(x1^2)/x1 is +-1 depending on sign: a positivity rewrite claims
    # constant while numerics on the symmetric domain disagree
    dag = parse("sqrt(x1*x1)/x1")
    with pytest.raises(Inconclusive):
        depends_on(dag, {0})


@pytest.mark.parametrize("sym_dep, num_dep, want", [
    (False, False, False),
    (True, True, True),
    # without numeric evidence a CAS verdict of independence stands
    (False, None, False),
    (True, None, Inconclusive),
    (True, False, Inconclusive),
    (False, True, Inconclusive),
])
def test_cas_and_probe_verdict_rule(sym_dep, num_dep, want):
    if want is Inconclusive:
        with pytest.raises(Inconclusive):
            symbolic._agreed(sym_dep, num_dep)
    else:
        assert symbolic._agreed(sym_dep, num_dep) is want


def test_equivalent_commutativity():
    assert equivalent(parse("x1*x2+x3"), parse("x3+x2*x1"))


def test_equivalent_scalar_multiple():
    f = parse("x1*x2+x3")
    assert equivalent(f, parse("2*(x1*x2+x3)"))


def test_equivalent_additive_offset():
    f = parse("x1*x2+x3")
    assert equivalent(f, parse("x1*x2+x3+7"))


def test_not_equivalent():
    assert not equivalent(parse("x1*x2"), parse("x1+x2", arity=2))


def test_equivalent_rejects_zero_ratio():
    zero = parse("x1-x1")
    assert not equivalent(zero, parse("x1"))
    assert not equivalent(parse("x1"), zero)


def test_equivalent_accepts_a_tiny_multiplicative_constant():
    # a non-zero ratio counts however small it is, in either order
    assert equivalent(parse("2.268e-18*x1"), parse("x1"))
    assert equivalent(parse("x1"), parse("2.268e-18*x1"))
    assert equivalent(parse("1e-13*x1"), parse("x1"))
    # a ratio that is exactly zero still does not
    assert not equivalent(parse("x1-x1"), parse("x1"))
    assert not equivalent(parse("x1"), parse("0", arity=1))


def test_equivalent_is_false_for_a_model_sympy_cannot_build():
    # sympy folds exp(exp(1e20)) to an integer too large to hold
    huge = parse("x1+exp(exp(1e20))")
    with pytest.raises(OverflowError):
        symbolic.to_sympy(huge)
    assert equivalent(huge, parse("x1")) is False
    assert equivalent(parse("x1"), huge) is False


def test_equivalent_reflexive_symmetric_on_random_corpus():
    from srsub import GrammarBudget, enumerate_dags

    rng = np.random.default_rng(9)
    dags = []
    for i, dag in enumerate(enumerate_dags(2, GrammarBudget(max_intermediary_nodes=1))):
        if i >= 50:
            break
        dags.append(dag)
    idx = rng.choice(len(dags), size=10, replace=False)
    picked = [dags[i] for i in idx]
    for d in picked:
        assert equivalent(d, d)
    for a, b in zip(picked[:-1], picked[1:]):
        assert equivalent(a, b) == equivalent(b, a)


def _enumeration_queries(monkeypatch, budget):
    """Every (dag, expression, symbols, targets) query that candidate
    enumeration under `budget` makes of `independent_form`, enumerating from
    an empty cache.  The dag is the one `depends_on` was asked about: distinct
    canonical dags can share a sympy expression, such as x1*(x2+x2) and
    x2*(x1+x1)."""
    queries = []
    asked = []
    ask, verdict = symbolic.depends_on, symbolic.independent_form

    def asking(dag, variables):
        asked.append(dag)
        return ask(dag, variables)

    def recording(expr, symbols, targets, fn=None):
        queries.append((asked[-1], expr, tuple(symbols), tuple(targets)))
        return verdict(expr, symbols, targets, fn=fn)

    substitution.input_candidate_dags.cache_clear()
    substitution.outinput_candidate_dags.cache_clear()
    monkeypatch.setattr(symbolic, "depends_on", asking)
    monkeypatch.setattr(symbolic, "independent_form", recording)
    for arity in (2, 3):
        substitution.input_candidate_dags(arity, budget)
    for n_inputs in (1, 2):
        substitution.outinput_candidate_dags(n_inputs, budget)
    return queries


def test_witness_verdicts_equal_rewrite_chain_verdicts(monkeypatch):
    # the exact witness only skips the chain: on every query that candidate
    # enumeration makes, a witness fires only where the chain finds no form
    # free of the targets either
    budgets = [GrammarBudget(), GrammarBudget(max_intermediary_nodes=0),
               GrammarBudget(allowed_ops=frozenset({"+", "-", "*", "/"})),
               GrammarBudget(allowed_ops=frozenset(OPS))]
    queries = set()
    for budget in budgets:
        queries.update(_enumeration_queries(monkeypatch, budget))
    assert len(queries) == 250
    witnessed = 0
    for _, expr, symbols, targets in queries:
        if symbolic._witness(expr, symbols, targets):
            witnessed += 1
            assert symbolic.eliminated_form(expr, [symbols[t] for t in targets]) is None, expr
    assert witnessed > 200


def test_default_enumeration_runs_rewrite_chain_at_most_four_times(monkeypatch):
    runs = []
    escalate = symbolic._escalate

    def counting(expr):
        runs.append(expr)
        return escalate(expr)

    monkeypatch.setattr(symbolic, "_escalate", counting)
    queries = _enumeration_queries(monkeypatch, GrammarBudget())
    assert len(queries) == 236
    assert len(set(queries)) == 236  # no question is asked twice
    assert len(runs) <= 4, runs


def test_witness_gives_up_on_exp_towers():
    # evalf of exp(exp(exp(exp(7/5)))) would need about 1e25 extra bits; the
    # tower goes to the rewrite chain instead, which finds it dependent
    dag = parse("exp(exp(exp(exp(exp(x1)))))+x2")
    symbols = [symbolic._sym(i) for i in range(dag.arity)]
    assert symbolic._witness(symbolic.to_sympy(parse("exp(x1)+x2")), symbols, (0,))
    assert not symbolic._witness(symbolic.to_sympy(dag), symbols, (0,))
    assert depends_on(dag, {0}) is True


def test_witness_takes_the_coordinate_of_its_slot():
    x1, x2, x3, g = (sp.Symbol(name, real=True) for name in ("x1", "x2", "x3", "g_0"))
    assert symbolic._witness(x1 * x2, [x1, x2], (0,))
    assert not symbolic._witness(x1 * x2, [x1, x2, x3], (2,))
    # the reduced formula of the invalid edge x1+x2 -> g for x1*x2+x3: the
    # fresh symbol g takes the slot after the formula's variables
    assert symbolic._witness((g - x2) * x2 + x3, [x1, x2, x3, g], (0, 1))
    # a symbol outside `symbols` leaves no witness
    assert not symbolic._witness(x1 * g, [x1, x2], (0,))


def test_verification_skips_the_rewrite_chain_where_a_witness_fires(monkeypatch):
    runs = []
    escalate = symbolic._escalate

    def counting(expr):
        runs.append(expr)
        return escalate(expr)

    monkeypatch.setattr(symbolic, "_escalate", counting)
    truth, symbols = substitution.sympy_truth(parse("x1*x2+x3"))
    for sub, valid in ((InputSub(parse("x1+x2", arity=2), (0, 1)), False),
                       (OutInputSub(parse("x2/x1", arity=2), (2,)), False),
                       (InputSub(parse("x1*x2", arity=2), (0, 1)), True)):
        runs.clear()
        assert substitution.reduce_truth(truth, symbols, sub)[0] is valid
        assert len(runs) == (1 if valid else 0), (sub, runs)


def test_probes_agree_with_their_batched_references():
    # the swap probe and the constancy probe, each one sample_finite call,
    # give the verdicts of the round-after-round references on every
    # arity-2 dag of one intermediary node, placeholders bound
    verdicts = []
    for dag in enumerate_dags(2, GrammarBudget(allow_constants=True)):
        names = sorted(node.name for node in dag.nodes
                       if isinstance(node, Const) and node.is_placeholder)
        bound = bind_placeholders(dag, dict(zip(names, (1.7, -0.6))))

        def fn(pts, bound=bound):
            return evaluate(bound, pts)

        for targets in ((0,), (1,), (0, 1)):
            verdict = symbolic.numeric_depends(fn, 2, targets)
            assert verdict == numeric_depends_redrawn(fn, 2, targets), (bound, targets)
            verdicts.append(verdict)
        assert symbolic.numeric_constant(fn, 2) == numeric_constant_batched(fn, 2), bound
    assert len(verdicts) == 3024
    assert {True, False, None} <= set(verdicts)
