"""Regressors: polynomial, dag-skeleton search, external bridge, pipeline."""

import hashlib
import sys
import textwrap
import warnings

import numpy as np
import pytest

from srsub import (
    BeamConfig,
    Dataset,
    GrammarBudget,
    RegressorSpec,
    equivalent,
    evaluate,
    fit_dagsearch,
    fit_external,
    fit_poly,
    nrmse,
    parse,
    search,
    solve_pipeline,
)
from srsub import regress
from srsub.beamsearch import SearchNode, _score_dataset, SearchResult
from srsub.dag import Compiled, Const, DagBuilder
from srsub.errors import DegenerateY, ExternalFailure
from srsub.exprtext import to_text
from srsub.regress import holdout_mask

from oracles import nrmse_direct, nrmse_masked


def _dataset(f_text, n=300, seed=0, low=0.5, high=2.5):
    rng = np.random.default_rng(seed)
    f = parse(f_text)
    X = rng.uniform(low, high, size=(n, f.arity))
    return Dataset.from_arrays(X, evaluate(f, X))


# -- nrmse -----------------------------------------------------------------------


def test_nrmse_perfect_predictions():
    y = np.array([1.0, 2.0, 3.0])
    assert nrmse(y, y) == 0.0


def test_nrmse_zero_predictor_is_one():
    y = np.array([3.0, -1.0, 2.0])
    assert nrmse(y, np.zeros(3)) == pytest.approx(1.0)


def test_nrmse_matches_direct_oracle():
    rng = np.random.default_rng(1)
    y = rng.normal(size=200)
    yhat = y + 0.1 * rng.normal(size=200)
    assert nrmse(y, yhat) == pytest.approx(nrmse_direct(y, yhat), rel=1e-12)


def test_nrmse_nonfinite_penalty_cap():
    y = np.ones(4)
    yhat = np.full(4, np.nan)
    assert nrmse(y, yhat) == pytest.approx(10.0)


def test_nrmse_bitwise_equal_to_unconditional_penalty_formula():
    rng = np.random.default_rng(11)
    y = rng.normal(size=300)
    cases = [y + 0.1 * rng.normal(size=300), y.copy()]
    bad = cases[0].copy()
    bad[::7] = np.nan
    bad[3::11] = np.inf
    bad[5::13] = -np.inf
    bad[6::17] = 1e200  # finite prediction, overflowing squared error
    cases.append(bad)
    cases.append(np.full(300, np.nan))
    for yhat in cases:
        got = np.float64(nrmse(y, yhat))
        want = np.float64(nrmse_masked(y, yhat))
        assert got.view(np.int64) == want.view(np.int64)


def test_nrmse_when_sum_of_squares_overflows():
    # sum(y * y) is inf here; the ratio is computed on y / max|y|
    y = np.array([1e160, 2e160, 3e160])
    with np.errstate(over="ignore"):
        total = float(np.sum(y * y))
    assert total == np.inf
    assert nrmse(y, 0.5 * y) == pytest.approx(0.5, rel=1e-12)
    assert nrmse(y, 0 * y) == 1.0
    assert nrmse(y, y * (1 + 1e-12)) == pytest.approx(1e-12, rel=1e-3)
    # one non-finite row of three costs penalty^2 * mean(y^2)
    assert nrmse(y, np.array([1e160, np.nan, 3e160])) == pytest.approx(
        10.0 / np.sqrt(3), rel=1e-12)
    # the dagsearch objective shares the formula
    assert regress._nrmse(y, 0.5 * y, total) == pytest.approx(0.5, rel=1e-12)


def test_nrmse_when_sum_of_squares_underflows():
    # sum(y * y) is 0 or subnormal here though y is not zero; the ratio is
    # computed on y / max|y|, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nrmse([1e-170], [0.0]) == 1.0
        # the scaled squared error overflows, so the row costs the penalty
        assert nrmse([1e-160], [1.0]) == 10.0
        y = np.array([1e-160, 2e-160, 3e-160])
        total = float(np.sum(y * y))
        assert 0.0 < total < sys.float_info.min
        assert nrmse(y, 0.5 * y) == pytest.approx(0.5, rel=1e-12)
        assert regress._nrmse(y, 0.5 * y, total) == pytest.approx(0.5, rel=1e-12)
        assert regress._nrmse(y[:1], y[:1], 0.0) == 0.0


def test_nrmse_degenerate():
    with pytest.raises(DegenerateY):
        nrmse(np.zeros(3), np.ones(3))


# -- polynomial regressor -----------------------------------------------------------


def test_poly_recovers_quadratic():
    ds = _dataset("3*x1*x2+2", n=200, seed=2)
    expr = fit_poly(ds)
    assert equivalent(expr, parse("3*x1*x2+2", arity=2))
    pred = evaluate(expr, ds.X)
    assert nrmse(ds.y, pred) < 1e-8


def test_poly_coefficients_match_pseudoinverse():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(120, 2))
    y = 1.5 + 0.5 * X[:, 0] - 2.0 * X[:, 1] + 0.25 * X[:, 0] * X[:, 1]
    ds = Dataset.from_arrays(X, y)
    expr = fit_poly(ds)
    from srsub.regress import _design_matrix, _monomial_exponents

    exps = _monomial_exponents(2, 2)
    A = _design_matrix(X, exps)
    coef_oracle = np.linalg.pinv(A) @ y
    pred = evaluate(expr, X)
    pred_oracle = A @ coef_oracle
    assert np.allclose(pred, pred_oracle, atol=1e-8)


def test_poly_narrow_sine_is_not_recovered():
    rng = np.random.default_rng(4)
    X = rng.uniform(-0.01, 0.01, size=(100, 1))
    ds = Dataset.from_arrays(X, np.sin(X[:, 0]))
    expr = fit_poly(ds)
    assert not equivalent(expr, parse("sin(x1)"))


def test_poly_needs_enough_rows():
    ds = _dataset("x1+x2", n=300)
    small = ds.restrict_rows(np.arange(ds.n) < 5)
    with pytest.raises(ValueError):
        fit_poly(small)


# -- dag skeleton search ---------------------------------------------------------------


def test_dagsearch_recovers_product():
    ds = _dataset("x1*x2", n=200, seed=5)
    expr = fit_dagsearch(ds, GrammarBudget(max_intermediary_nodes=1, allow_constants=True),
                         max_skeletons=2000)
    assert nrmse(ds.y, evaluate(expr, ds.X)) < 1e-9
    assert equivalent(expr, parse("x1*x2"))


def test_dagsearch_recovers_scaled_cosine():
    ds = _dataset("cos(x1)/2", n=200, seed=6, low=0.1, high=1.4)
    expr = fit_dagsearch(ds, max_skeletons=10_000)
    assert equivalent(expr, parse("cos(x1)/2"))


def test_dagsearch_skeleton_stream_matches_enumeration():
    from srsub.grammar import enumerate_dags
    from srsub.regress import _skeletons

    budget = GrammarBudget(max_intermediary_nodes=1, allow_constants=True)
    direct = list(enumerate_dags(1, budget))
    cached = _skeletons(1, budget, 10_000)
    assert [d.key for d in cached[: len(direct)]] == [d.key for d in direct]


@pytest.mark.parametrize("arity, length, digest", [
    (1, 9_489, "65591d241c3cfb8ea0d6a05a11bd35c83ca41f86cdc4dfa837a19f5ca8866434"),
    (2, 10_000, "a24ef528a001d471276a6c9e51e0be12deed16eabbd82d9a77d54ee697195f4b"),
    (3, 10_000, "11296c7035478adb3d86a34446a8ed8728f8fb0d09b6e7a5b64f4f743c671248"),
])
def test_default_skeleton_stream_unchanged(arity, length, digest):
    # recorded while every program was built in its own DagBuilder; the cap
    # keeps a prefix, so the order is pinned along with the dags
    from srsub.regress import _skeletons

    budget = GrammarBudget(max_intermediary_nodes=2, allow_constants=True)
    stream = [(d.key, d.nodes, d.root, d.arity) for d in _skeletons(arity, budget, 10_000)]
    assert len(stream) == length
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == digest


def test_skeleton_cache_keys_on_allow_constants():
    from srsub.grammar import DEFAULT_OPS, enumerate_dags
    from srsub.regress import _skeletons

    _skeletons.cache_clear()
    plain = GrammarBudget(max_intermediary_nodes=0, allow_constants=False)
    with_constants = GrammarBudget(max_intermediary_nodes=0, allow_constants=True)
    assert len(_skeletons(1, plain, 100)) == 9
    assert [d.key for d in _skeletons(1, with_constants, 100)] == [
        d.key for d in enumerate_dags(1, with_constants)]
    # a budget built from a plain set is the same cache key
    same = GrammarBudget(max_intermediary_nodes=0, allowed_ops=set(DEFAULT_OPS))
    assert _skeletons(1, same, 100) is _skeletons(1, plain, 100)


def test_dagsearch_constant_fallback():
    rng = np.random.default_rng(7)
    X = rng.uniform(1, 2, size=(50, 1))
    y = np.full(50, 4.25)
    ds = Dataset.from_arrays(X, y)
    expr = fit_dagsearch(ds, GrammarBudget(max_intermediary_nodes=0, allow_constants=True),
                         max_skeletons=50)
    pred = evaluate(expr, X)
    assert np.allclose(pred, 4.25, atol=1e-9)


def test_dagsearch_all_zero_y_is_the_constant_zero(monkeypatch):
    # every error would be the penalty, and no model is simpler than 0, so
    # the fit returns the constant model without enumerating skeletons
    def no_skeletons(*args):
        raise AssertionError("skeletons enumerated for an all-zero y")

    monkeypatch.setattr(regress, "_skeletons", no_skeletons)
    X = np.random.default_rng(7).uniform(1, 2, size=(50, 2))
    expr = fit_dagsearch(Dataset.from_arrays(X, np.zeros(50)))
    assert expr.nodes == (Const(0.0),) and expr.arity == 2


def _three_variable_dataset(text):
    rng = np.random.default_rng(2024)
    f = parse(text)
    X = rng.uniform(0.5, 2.5, size=(200, 3))
    return Dataset.from_arrays(X, evaluate(f, X) + 0.01 * rng.normal(size=200))


@pytest.mark.parametrize("text, max_skeletons, want_expr, want_nrmse", [
    ("x1*x2+x3", 10_000, "x3+x2*((-0.00012793619579865023)+x1)", "0x1.50768147083fbp-9"),
    ("2.5*x1*x2+x3", 3000, "2.6358142566473077+x2*(x1+x1)", "0x1.c37052fe1967fp-4"),
])
def test_dagsearch_golden_fit(text, max_skeletons, want_expr, want_nrmse):
    # recorded before the fit stopped repeating work; the constants print
    # with repr, so equal text pins every fitted constant bit for bit
    ds = _three_variable_dataset(text)
    expr = fit_dagsearch(ds, max_skeletons=max_skeletons)
    assert to_text(expr) == want_expr
    assert nrmse(ds.y, evaluate(expr, ds.X)).hex() == want_nrmse


def test_fit_after_warm_skeletons_builds_no_table():
    from srsub.regress import _skeletons

    budget = GrammarBudget(max_intermediary_nodes=1, allow_constants=True)
    _skeletons(2, budget, 2000)
    misses = _skeletons.cache_info().misses
    fit_dagsearch(_dataset("x1*x2", n=100, seed=14), budget, max_skeletons=2000)
    assert _skeletons.cache_info().misses == misses


def test_dagsearch_fit_drops_each_shared_value_after_its_last_reader():
    # arity 3 at n = 800 computes 5,540 placeholder-free arrays of 6.4 kB;
    # kept to the end of the pass they would peak near 38 MB, and they peak
    # near 2.3 MB when each is dropped after the last skeleton that reads it
    import tracemalloc

    from srsub.regress import _skeletons

    ds = _dataset("x1*x2+x3", n=800, seed=15)
    _skeletons(3, GrammarBudget(max_intermediary_nodes=regress.DAGSEARCH_NODES,
                                allow_constants=True), regress.DAGSEARCH_SKELETONS)
    tracemalloc.start()
    try:
        fit_dagsearch(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


class _Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.results = []

    def __call__(self, *args, **kwargs):
        self.calls += 1
        out = self.fn(*args, **kwargs)
        self.results.append(out)
        return out


def _affine_skeleton():
    # c0*x1 + c1: two placeholders, finite at every constant value
    b = DagBuilder()
    node = b.binary("+", b.binary("*", b.param("c0"), b.var(0)), b.param("c1"))
    return b.extract(node, 1)


def _affine_data():
    rng = np.random.default_rng(12)
    X = rng.uniform(0.5, 2.0, size=(80, 1))
    return X, 3.0 * X[:, 0] - 0.5 + 0.01 * rng.normal(size=80)


def _count_program_calls(monkeypatch):
    """Count the calls of every compiled program from here on."""
    counter = _Counter(Compiled.__call__)
    monkeypatch.setattr(Compiled, "__call__", lambda self, theta: counter(self, theta))
    return counter


def test_first_pass_evaluates_each_point_once(monkeypatch):
    # one evaluation at theta = 1, one per placeholder for the Jacobian and
    # one at the Gauss-Newton point: k + 2
    skel = _affine_skeleton()
    names = skel.placeholders()
    X, y = _affine_data()
    counter = _count_program_calls(monkeypatch)
    theta, err = regress._fit_constants(Compiled(skel, X, names), y, float(np.sum(y * y)))
    assert counter.calls == len(names) + 2
    assert err < 0.01
    assert err == nrmse(y, evaluate(skel, X, dict(zip(names, theta))))


def test_refine_evaluates_once_per_simplex_evaluation(monkeypatch):
    skel = _affine_skeleton()
    names = skel.placeholders()
    X, y = _affine_data()
    total = float(np.sum(y * y))
    program = Compiled(skel, X, names)
    theta, err = regress._fit_constants(program, y, total)
    evaluations = _count_program_calls(monkeypatch)
    simplex = _Counter(regress.minimize)
    monkeypatch.setattr(regress, "minimize", simplex)
    _, refined = regress._refine_constants(program, y, total, theta, err)
    assert simplex.calls == 1
    assert evaluations.calls == simplex.results[0].nfev
    assert refined <= err


def test_dagsearch_binds_only_refined_winners(monkeypatch):
    ds = _dataset("x1*x2", n=100, seed=13)
    counter = _Counter(regress.bind_placeholders)
    monkeypatch.setattr(regress, "bind_placeholders", counter)
    monkeypatch.setattr(regress, "REFINE_TOP", 5)
    fit_dagsearch(ds, GrammarBudget(max_intermediary_nodes=1, allow_constants=True),
                  max_skeletons=2000)
    assert 1 <= counter.calls <= 5


# -- external bridge ---------------------------------------------------------------------


def _stub_script(tmp_path, body):
    path = tmp_path / "stub.py"
    path.write_text(textwrap.dedent(body))
    return f"{sys.executable} {path}"


def test_external_echo_stub(tmp_path):
    cmd = _stub_script(tmp_path, """
        print("x1+x2")
    """)
    ds = _dataset("x1+x2", n=60)
    spec = RegressorSpec(kind="external", command=cmd + " {csv}")
    expr = fit_external(ds, spec)
    assert expr == parse("x1+x2")


@pytest.mark.parametrize("csv", ["{csv}", '"{csv}"'])
def test_external_template_replaces_only_csv(csv):
    # the awk program's braces pass through; the header row of the CSV the
    # command reads is x1,x2,y
    ds = _dataset("x1*x2", n=60)
    spec = RegressorSpec(kind="external", command="awk -F, 'NR==1{print $1\"*\"$2}' " + csv)
    assert fit_external(ds, spec) == parse("x1*x2")


def test_external_command_needs_csv():
    with pytest.raises(ValueError, match="{csv}"):
        RegressorSpec(kind="external", command="echo x1")


def test_external_nonzero_exit(tmp_path):
    cmd = _stub_script(tmp_path, """
        import sys
        sys.exit(3)
    """)
    ds = _dataset("x1+x2", n=60)
    with pytest.raises(ExternalFailure):
        fit_external(ds, RegressorSpec(kind="external", command=cmd + " {csv}"))


def test_external_csv_roundtrip_reproduces_nrmse(tmp_path):
    # the stub reads the CSV it is given and prints a known formula; the
    # internally recomputed training NRMSE must match a direct computation
    cmd = _stub_script(tmp_path, """
        import csv, sys
        with open(sys.argv[1]) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"x1", "x2", "y"}
        print("x1*x2")
    """)
    ds = _dataset("x1*x2", n=80, seed=8)
    expr = fit_external(ds, RegressorSpec(kind="external", command=cmd + " {csv}"))
    internal = nrmse(ds.y, evaluate(expr, ds.X))
    assert internal == pytest.approx(0.0, abs=1e-12)


def test_external_unparsable_output(tmp_path):
    cmd = _stub_script(tmp_path, """
        print("this is not an expression !!!")
    """)
    ds = _dataset("x1+x2", n=60)
    with pytest.raises(ExternalFailure):
        fit_external(ds, RegressorSpec(kind="external", command=cmd + " {csv}"))


# -- pipeline ----------------------------------------------------------------------------


def test_pipeline_constant_function_resolved_at_root():
    rng = np.random.default_rng(9)
    X = rng.uniform(1, 2, size=(200, 2))
    y = np.full(200, 5.0)
    ds = Dataset.from_arrays(X, y)
    root = SearchNode(dataset=ds, score=float("-inf"))
    result = SearchResult(best_path=[root], all_levels=[])
    sol = solve_pipeline(result, RegressorSpec(kind="poly"),
                         ds.restrict_rows(holdout_mask(ds.n, 0.2, seed=1)))[0]
    assert sol.source_node_depth == 0
    assert equivalent(sol.expr, parse("5", arity=2))


def test_pipeline_beats_or_matches_root_fit():
    ds = _dataset("x1*x2*x3", n=400, seed=10)
    mask = holdout_mask(ds.n, 0.2, seed=3)
    holdout = ds.restrict_rows(mask)
    result = search(ds.restrict_rows(~mask), BeamConfig())
    spec = RegressorSpec(kind="poly")
    fits = solve_pipeline(result, spec, holdout)
    root = next(sol for sol in fits if sol.source_node_depth == 0)
    assert fits[0].nrmse_test <= root.nrmse_test + 1e-12
    # the root's entry is the fit of a root-only path
    (root_only,) = solve_pipeline(SearchResult(best_path=[result.root], all_levels=[]),
                                  spec, holdout)
    assert root.expr.key == root_only.expr.key
    assert root.nrmse_test == root_only.nrmse_test


def test_pipeline_fits_best_first_in_path_order_among_ties(monkeypatch):
    ds = _dataset("x1*x2*x3", n=400, seed=10)
    mask = holdout_mask(ds.n, 0.2, seed=3)
    holdout = ds.restrict_rows(mask)
    result = search(ds.restrict_rows(~mask), BeamConfig())
    assert len(result.best_path) > 1
    spec = RegressorSpec(kind="poly")
    errors = [sol.nrmse_test for sol in solve_pipeline(result, spec, holdout)]
    assert errors == sorted(errors)

    monkeypatch.setattr(regress, "nrmse", lambda y, yhat: 0.5)
    fits = solve_pipeline(result, spec, holdout)
    assert [sol.source_node_depth for sol in fits] == [node.depth for node in result.best_path]
    assert fits[0].source_node_depth == 0


@pytest.mark.parametrize("split_first", [False, True])
def test_pipeline_never_fits_on_holdout_rows(monkeypatch, split_first):
    # split_first=False searches every row and holds out rows the search saw;
    # split_first=True holds the test rows out before the search
    ds = _dataset("x1*x2*x3", n=400, seed=10)
    mask = holdout_mask(ds.n, 0.2, seed=3)
    holdout = ds.restrict_rows(mask)
    result = search(ds.restrict_rows(~mask) if split_first else ds, BeamConfig())
    assert len(result.best_path) > 1

    fitted = []
    real_fit = regress.fit

    def recording_fit(fit_ds, spec):
        fitted.append(fit_ds.origin_rows.tolist())
        return real_fit(fit_ds, spec)

    monkeypatch.setattr(regress, "fit", recording_fit)
    solve_pipeline(result, RegressorSpec(kind="poly"), holdout)

    test_rows = set(holdout.origin_rows.tolist())
    expected = [[r for r in node.dataset.origin_rows.tolist() if r not in test_rows]
                for node in result.best_path]
    assert fitted == expected
    if split_first:
        assert fitted == [node.dataset.origin_rows.tolist() for node in result.best_path]


def test_pipeline_rejects_a_substituted_holdout():
    ds = _dataset("x1*x2*x3", n=400, seed=10)
    mask = holdout_mask(ds.n, 0.2, seed=3)
    result = search(ds.restrict_rows(~mask), BeamConfig())
    substituted = result.best_path[1].dataset
    assert substituted.d < result.root.dataset.d == ds.d
    with pytest.raises(ValueError, match="unsubstituted"):
        solve_pipeline(result, RegressorSpec(kind="poly"), substituted)


def test_holdout_mask_deterministic():
    a = holdout_mask(100, 0.2, seed=5)
    b = holdout_mask(100, 0.2, seed=5)
    assert np.array_equal(a, b)
    assert a.sum() == 20


def test_dagsearch_root_only_cannot_recover_washburn():
    # the full formula needs far more operator nodes than the desk-scale
    # skeleton budget admits, so a root-only fit must not reach recovery
    from testdata import WASHBURN, positive_washburn_dataset

    ds = positive_washburn_dataset(n=400, seed=30)
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    result = SearchResult(best_path=[root], all_levels=[])
    sol = solve_pipeline(result, RegressorSpec(kind="dagsearch", max_skeletons=3000),
                         ds.restrict_rows(holdout_mask(ds.n, 0.2, seed=6)))[0]
    assert not equivalent(parse(WASHBURN), sol.expr)
