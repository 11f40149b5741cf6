"""Candidate generation, dataset transforms, and substitution verification."""

import hashlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from srsub import (
    Dataset,
    GrammarBudget,
    InputSub,
    OutInputSub,
    codec,
    parse,
    sample_problem,
    verify_input_sub,
    verify_outinput_sub,
)
from srsub.bench import Problem
from srsub.errors import TooFewRows, Unverifiable
from srsub.substitution import (
    _quartiles_and_range,
    aifeynman_candidates,
    apply_substitution,
    column_maps,
    degenerate_column,
    gen_input_candidates,
    gen_outinput_candidates,
    input_candidate_dags,
    outinput_candidate_dags,
    reduce_truth,
    sympy_truth,
)

from oracles import validate_dataset

WASHBURN = "sqrt(x1*x2*x3*cos(x4)/(2*x5))"


def _math_comb(n, k):
    import math

    return math.comb(n, k)


# -- generation ------------------------------------------------------------------


def test_default_budget_candidate_dags_unchanged():
    # digest of the candidate keys, in order, recorded before the CAS
    # verdicts behind them were memoized
    budget = GrammarBudget()
    keys = (tuple(d.key for d in input_candidate_dags(2, budget)),
            tuple(d.key for d in input_candidate_dags(3, budget)),
            tuple(d.key for d in outinput_candidate_dags(1, budget)),
            tuple(d.key for d in outinput_candidate_dags(2, budget)))
    assert [len(k) for k in keys] == [168, 68, 114, 68]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "d7bca03f3f944049b5ea27941dcfe8442b8cdfd7fd5e2c03722104125ab5d995")


@pytest.mark.parametrize("budget, lengths, digest", [
    (GrammarBudget(max_intermediary_nodes=0), [6, 0, 6, 0],
     "8f686bcf1bbe2353f7939dc10023d587a1961f68a432b4792671dd066978bf1d"),
    (GrammarBudget(max_intermediary_nodes=1, allowed_ops=frozenset({"+", "-", "*", "/"})),
     [78, 68, 48, 68],
     "3711f04a4859d201a1da2b7d22468907c9e50318ae2642755c2c6699ab1d9d8e"),
])
def test_small_budget_candidate_dags_unchanged(budget, lengths, digest):
    # recorded while out-input candidates had an enumeration loop of their own
    keys = (tuple(d.key for d in input_candidate_dags(2, budget)),
            tuple(d.key for d in input_candidate_dags(3, budget)),
            tuple(d.key for d in outinput_candidate_dags(1, budget)),
            tuple(d.key for d in outinput_candidate_dags(2, budget)))
    assert [len(k) for k in keys] == lengths
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def test_input_candidates_include_four_classics():
    budget = GrammarBudget(max_intermediary_nodes=0,
                           allowed_ops=frozenset({"+", "-", "*", "/"}))
    subs = list(gen_input_candidates(2, budget))
    texts = {(s.I, s.g.key) for s in subs}
    for t in ("x1+x2", "x1*x2", "x1-x2", "x1/x2"):
        assert ((0, 1), parse(t).key) in texts


def test_input_candidates_exclude_single_variable_dags():
    budget = GrammarBudget(max_intermediary_nodes=0,
                           allowed_ops=frozenset({"+", "-", "*", "/"}))
    for s in gen_input_candidates(2, budget):
        assert s.g.var_indices() == {0, 1}


def test_triple_product_candidate_present_at_one_intermediary():
    budget = GrammarBudget(max_intermediary_nodes=1)
    found = False
    for s in gen_input_candidates(5, budget):
        if len(s.I) == 3 and s.g == parse("x1*(x2*x3)"):
            found = True
            break
    assert found


def test_outinput_candidates_require_output_slot():
    budget = GrammarBudget(max_intermediary_nodes=1)
    subs = list(gen_outinput_candidates(3, budget))
    assert subs, "expected out-input candidates"
    for s in subs:
        y_slot = len(s.I)
        assert s.h.var_tree_occurrences(y_slot) == 1
    keys = {s.h.key for s in subs if len(s.I) == 1}
    assert parse("x2/sqrt(x1)", arity=2).key in keys  # y / sqrt(x)
    assert parse("x2*sqrt(x1)", arity=2).key in keys  # y * sqrt(x)
    assert parse("x2/x1", arity=2).key in keys        # y / x


def test_aifeynman_mode_counts():
    for d in (3, 5):
        subs = list(aifeynman_candidates(d))
        assert len(subs) == 4 * _math_comb(d, 2)


# -- application ------------------------------------------------------------------


def _washburn_dataset(n=400, seed=5):
    p = Problem(id="w", d=5, f_true=parse(WASHBURN))
    return sample_problem(p, n, seed)


def test_apply_input_product_triple():
    ds = _washburn_dataset()
    sub = InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2))
    out = apply_substitution(ds, sub)
    assert out.d == 3
    assert column_maps(ds.d, [sub])[0][0] == parse("x1*(x2*x3)", arity=5)
    assert np.allclose(out.X[:, 0], ds.X[:, 0] * ds.X[:, 1] * ds.X[:, 2])
    validate_dataset(out, ds, [sub])


def test_apply_input_drops_domain_violations():
    X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0], [4.0, 4.0], [5.0, 8.0]])
    y = np.arange(5.0) + 1
    ds = Dataset.from_arrays(X, y)
    sub = InputSub(g=parse("x1/x2"), I=(0, 1))
    out = apply_substitution(ds, sub)
    assert out.n == 4  # the x2 = 0 row dropped
    assert 1 - out.n / ds.n == pytest.approx(0.2)
    validate_dataset(out, ds, [sub])


def test_apply_input_too_many_drops():
    X = np.column_stack([np.full(10, 2.0), np.concatenate([np.zeros(5), np.ones(5)])])
    ds = Dataset.from_arrays(X, np.arange(10.0) + 1)
    with pytest.raises(TooFewRows):
        apply_substitution(ds, InputSub(g=parse("x1/x2"), I=(0, 1)))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("sub", [InputSub(g=parse("x1*x2"), I=(0, 2)),
                                 OutInputSub(h=parse("x2-x1", arity=2), I=(1,))],
                         ids=["input", "outinput"])
def test_child_that_keeps_every_row_shares_the_parents_arrays(order, sub):
    rng = np.random.default_rng(3)
    X = np.asarray(rng.uniform(0.5, 2.0, size=(50, 3)), order=order)
    ds = Dataset.from_arrays(X, X.sum(axis=1))
    out = apply_substitution(ds, sub)
    assert out.n == ds.n
    assert out.origin_rows is ds.origin_rows
    assert (out.y is ds.y) == isinstance(sub, InputSub)
    assert out.X.flags.c_contiguous and not np.shares_memory(out.X, ds.X)
    validate_dataset(out, ds, [sub])


@pytest.mark.parametrize("sub", [InputSub(g=parse("x1/x2"), I=(0, 1)),
                                 OutInputSub(h=parse("x2/x1", arity=2), I=(1,))],
                         ids=["input", "outinput"])
def test_child_that_drops_a_row_owns_fresh_arrays(sub):
    X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0], [4.0, 4.0], [5.0, 8.0]])
    ds = Dataset.from_arrays(X, np.arange(5.0) + 1)
    out = apply_substitution(ds, sub)
    assert out.n == 4
    for child, parent in ((out.X, ds.X), (out.y, ds.y), (out.origin_rows, ds.origin_rows)):
        assert not np.shares_memory(child, parent)
    assert out.X.flags.c_contiguous


def test_apply_outinput_composes_output_map():
    from testdata import positive_washburn_dataset

    ds = positive_washburn_dataset()
    sub = InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2))
    step2 = apply_substitution(ds, sub)
    h = OutInputSub(h=parse("x2/sqrt(x1)", arity=2), I=(0,))
    step3 = apply_substitution(step2, h)
    assert step3.d == 2
    assert np.allclose(step3.y, step2.y / np.sqrt(step2.X[:, 0]))
    validate_dataset(step3, ds, [sub, h])
    # compose once more: multiply by sqrt of the (now second) column = x5
    h2 = OutInputSub(h=parse("x2*sqrt(x1)", arity=2), I=(1,))
    step4 = apply_substitution(step3, h2)
    assert step4.d == 1
    validate_dataset(step4, ds, [sub, h, h2])
    expect = ds.y * np.sqrt(ds.X[:, 4] / (ds.X[:, 0] * ds.X[:, 1] * ds.X[:, 2]))
    assert np.allclose(step4.y, expect, rtol=1e-9)


def test_apply_outinput_constant_output_is_scorable_reject():
    X = np.column_stack([np.linspace(1, 2, 50), np.linspace(3, 4, 50)])
    y = X[:, 0].copy()
    ds = Dataset.from_arrays(X, y)
    out = apply_substitution(ds, OutInputSub(h=parse("x2-x1", arity=2), I=(0,)))
    from srsub.substitution import near_constant

    assert near_constant(out.y)


def test_valid_input_sub_keeps_codec_score():
    ds = _washburn_dataset(n=600, seed=9)
    before = codec(ds.X, ds.y)
    out = apply_substitution(ds, InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2)))
    after = codec(out.X, out.y)
    assert after >= before - 0.05


# -- verification -----------------------------------------------------------------


def test_verify_input_product_valid():
    f = parse("x1*x2+x3")
    assert verify_input_sub(f, InputSub(g=parse("x1*x2"), I=(0, 1))) is True


def test_verify_input_sum_invalid():
    f = parse("x1*x2+x3")
    assert verify_input_sub(f, InputSub(g=parse("x1+x2"), I=(0, 1))) is False


def test_verify_input_washburn_triple():
    f = parse(WASHBURN)
    assert verify_input_sub(f, InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2))) is True


def test_verify_input_unverifiable():
    f = parse("x1+x2")
    sub = InputSub(g=parse("sin(x1)+sin(x2)"), I=(0, 1))
    with pytest.raises(Unverifiable):
        verify_input_sub(f, sub)


def test_verify_outinput_difference_valid():
    f = parse("x1*x2+x3")
    h = OutInputSub(h=parse("x2-x1", arity=2), I=(2,))  # y - x3
    assert verify_outinput_sub(f, h) is True


def test_verify_outinput_ratio_invalid():
    f = parse("x1*x2+x3")
    h = OutInputSub(h=parse("x2/x1", arity=2), I=(2,))  # y / x3
    assert verify_outinput_sub(f, h) is False


def test_verify_outinput_three_variable_example():
    f = parse("x1*x2*x3+x1*(x2+log(x2))/x3")
    h = OutInputSub(h=parse("x2/x1", arity=2), I=(0,))  # y / x1
    assert verify_outinput_sub(f, h) is True


def test_reduce_truth_input_puts_the_fresh_symbol_first():
    truth, symbols = sympy_truth(parse("x1*x2+x3"))
    valid, reduced, kept = reduce_truth(truth, symbols, InputSub(g=parse("x1*x2"), I=(0, 1)))
    assert valid is True
    gamma, x3 = kept
    assert gamma not in symbols and x3 == symbols[2]
    assert reduced.free_symbols == {gamma, x3}
    assert sp.expand(reduced - (gamma + x3)) == 0


def test_reduce_truth_outinput_keeps_the_other_symbols():
    truth, symbols = sympy_truth(parse("x1*x2+x3"))
    valid, reduced, kept = reduce_truth(truth, symbols,
                                        OutInputSub(h=parse("x2-x1", arity=2), I=(2,)))
    assert valid is True
    assert kept == symbols[:2]
    assert sp.expand(reduced - symbols[0] * symbols[1]) == 0


def test_reduce_truth_chains_on_its_own_result():
    # x1*x2 -> gamma leaves gamma + x3; then y - x3 leaves gamma alone
    truth, symbols = sympy_truth(parse("x1*x2+x3"))
    valid, truth, symbols = reduce_truth(truth, symbols, InputSub(g=parse("x1*x2"), I=(0, 1)))
    assert valid is True
    valid, reduced, kept = reduce_truth(truth, symbols,
                                        OutInputSub(h=parse("x2-x1", arity=2), I=(1,)))
    assert valid is True
    assert kept == symbols[:1]
    assert sp.expand(reduced - symbols[0]) == 0


@pytest.mark.parametrize("sub", [
    InputSub(g=parse("x1*x2"), I=(0, 4)),
    OutInputSub(h=parse("x2-x1", arity=2), I=(3,)),
])
def test_reduce_truth_rejects_an_index_past_the_formula(sub):
    truth, symbols = sympy_truth(parse("x1*x2+x3"))
    with pytest.raises(ValueError):
        reduce_truth(truth, symbols, sub)


@pytest.mark.parametrize("kind, expr, I", [
    (InputSub, "x1*x2", (1, 1)),
    (OutInputSub, "x3-x1*x2", (0, 0)),
])
def test_substitutions_reject_repeated_indices(kind, expr, I):
    with pytest.raises(ValueError, match="distinct"):
        kind(parse(expr, arity=len(I) + (kind is OutInputSub)), I)


# -- degenerate columns -----------------------------------------------------------


def _degenerate_by_quantile(x):
    """The decision written with np.quantile, as the reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        q25, q75 = np.quantile(x, [0.25, 0.75])
        lo, hi = float(np.min(x)), float(np.max(x))
        if hi == lo:
            return True
        return (q75 - q25) <= 1e-12 * (hi - lo)


def _degenerate_column_cases():
    rng = np.random.default_rng(53)
    bulk = rng.normal(size=800)
    outliers = bulk.copy()
    outliers[::100] = 1e300
    one_sided = np.full(800, 1.0)
    one_sided[:150] = rng.uniform(size=150) * 1e-3
    return {
        "constant": np.full(800, 2.5),
        "constant_one_row": np.array([7.0]),
        "two_values": rng.integers(0, 2, size=800).astype(float),
        "many_ties": np.round(bulk, 1),
        "tied_bulk_spread_tail": one_sided,
        "extreme_outliers": outliers,
        "collapsed_bulk": np.concatenate([np.full(700, 1.0), rng.normal(size=100) * 1e15]),
        "bulk_below_resolution": 1.0 + rng.normal(size=800) * 1e-17 + (np.arange(800) == 0) * 1e6,
        "smooth": bulk,
    }


@pytest.mark.parametrize("name", sorted(_degenerate_column_cases()))
def test_degenerate_column_matches_quantile_decision(name):
    x = _degenerate_column_cases()[name]
    assert degenerate_column(x) == _degenerate_by_quantile(x)


def test_degenerate_column_cases_cover_both_decisions():
    decisions = {degenerate_column(x) for x in _degenerate_column_cases().values()}
    assert decisions == {True, False}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0, -1e308, 1e308])),
                min_size=1, max_size=60))
def test_quartiles_equal_numpy_quantile_bitwise(values):
    x = np.array(values)
    q25, q75, lo, hi = _quartiles_and_range(x)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = np.quantile(x, [0.25, 0.75])
    assert np.array_equal([q25, q75], ref, equal_nan=True)
    assert (lo, hi) == (float(np.min(x)), float(np.max(x)))
    assert degenerate_column(x) == _degenerate_by_quantile(x)
