"""Dependence and equivalence decision procedures."""

import numpy as np
import pytest

from srsub import depends_on, equivalent, parse, symbolic
from srsub.errors import Inconclusive


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


def test_depends_on_memoized_verdict_keeps_rng_stream():
    # the second call reuses the CAS verdict but still draws its numeric
    # check from the caller's generator, exactly as the first call did
    dag = parse("(x1*x2*x3+x1*(x2+log(x2))/x3)/x1+x4")
    symbolic._symbolic_dependence.cache_clear()
    streams = []
    for _ in range(2):
        rng = np.random.default_rng(5)
        assert depends_on(dag, {0, 3}, rng=rng) is True
        streams.append(rng.random(4))
    info = symbolic._symbolic_dependence.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    np.testing.assert_array_equal(streams[0], streams[1])


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
