"""Beam search behavior: discipline, determinism, reconstruction."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from srsub import (
    BeamConfig,
    Dataset,
    GrammarBudget,
    InputSub,
    OutInputSub,
    parse,
    reconstruct,
    sample_problem,
    search,
    to_text,
)
from srsub.beamsearch import SearchNode, _score_dataset, score_candidate, trace_records
from srsub.bench import Problem, reduction_rate
from srsub.depmeasure import compute_ranks
from srsub.regress import holdout_mask
from srsub.substitution import apply_substitution, column_maps

from oracles import beam_levels_by_sorting, point_set_key, standardize_columns
from testdata import WASHBURN, positive_washburn_dataset


def _dataset_from(f_text, n=400, seed=0, low=0.5, high=2.0):
    rng = np.random.default_rng(seed)
    f = parse(f_text)
    X = rng.uniform(low, high, size=(n, f.arity))
    from srsub import evaluate

    y = evaluate(f, X)
    return Dataset.from_arrays(X, y)


def test_two_variable_sum_single_step():
    ds = _dataset_from("x1+x2")
    cfg = BeamConfig(budget=GrammarBudget(max_intermediary_nodes=0,
                                          allowed_ops=frozenset({"+", "-", "*", "/"})),
                     sub_types=frozenset({"input"}))
    res = search(ds, cfg)
    assert res.best.n_vars == 1
    assert res.best.depth == 1
    edge = res.best.edge
    assert isinstance(edge, InputSub) and edge.g == parse("x1+x2")
    # with both substitution types the problem still reduces in one step
    res_full = search(ds, BeamConfig())
    assert res_full.best.n_vars == 1 and res_full.best.depth == 1


def test_entangled_function_under_plus_grammar_stays_at_root():
    ds = _dataset_from("sin(x1*x2+x3)*exp(x1)")
    cfg = BeamConfig(budget=GrammarBudget(max_intermediary_nodes=0,
                                          allowed_ops=frozenset({"+"})))
    res = search(ds, cfg)
    assert len(res.best_path) == 1
    assert res.best.depth == 0


def test_beam_discipline_and_monotone_dimension():
    ds = positive_washburn_dataset(n=500, seed=3)
    cfg = BeamConfig(beam_size=3)
    res = search(ds, cfg)
    for level in res.all_levels:
        assert 1 <= len(level) <= 3
    for node in res.best_path[1:]:
        assert node.n_vars < node.parent.n_vars
    # survivors at each level are the top scorers among their level's records
    for level in res.all_levels:
        scores = [n.score for n in level]
        assert scores == sorted(scores, reverse=True)


def test_search_determinism():
    ds = positive_washburn_dataset(n=400, seed=8)
    cfg = BeamConfig()
    r1 = search(ds, cfg)
    r2 = search(ds, cfg)
    assert len(r1.best_path) == len(r2.best_path)
    for a, b in zip(r1.best_path, r2.best_path):
        assert a.score == b.score
        assert a.n_vars == b.n_vars
        assert (a.edge is None) == (b.edge is None)
        if a.edge is not None:
            assert type(a.edge) is type(b.edge)
            assert a.edge.I == b.edge.I


def test_washburn_search_reaches_one_variable():
    p = Problem(id="w", d=5, f_true=parse(WASHBURN))
    ds = sample_problem(p, 1000, seed=3)
    res = search(ds, BeamConfig())
    assert res.best.n_vars == 1
    assert res.best_path[-1].depth >= 3


def test_score_candidate_orders_valid_above_invalid():
    ds = positive_washburn_dataset(n=1000, seed=11)
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    good = score_candidate(root, InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2)), "codec")
    bad = score_candidate(root, InputSub(g=parse("x1+x2"), I=(3, 4)), "codec")
    assert good is not None and bad is not None
    assert good[1] >= 0.9
    assert bad[1] < good[1]
    # the pipeline value equals the score on analytically transformed data
    from srsub import codec

    Xt = np.column_stack([ds.X[:, 0] * ds.X[:, 1] * ds.X[:, 2], ds.X[:, 3], ds.X[:, 4]])
    assert good[1] == codec(Xt, ds.y)


def test_score_candidate_rejects_constant_output():
    ds = _dataset_from("x1+x2")
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    sub = OutInputSub(h=parse("x2-x1", arity=2), I=(0,))  # y - x1 leaves x2 only
    out = score_candidate(root, sub, "codec")
    assert out is not None  # y - x1 = x2 is not constant
    zero_ds = Dataset.from_arrays(ds.X, ds.X[:, 0])
    zero_root = SearchNode(dataset=zero_ds, score=_score_dataset(zero_ds, "codec"))
    rejected = score_candidate(zero_root, OutInputSub(h=parse("x2-x1", arity=2), I=(0,)), "codec")
    assert rejected is None


def test_near_constant_parent_rejects_each_input_child_by_a_call(monkeypatch):
    # input children that keep every row share the parent's y and its
    # verdict; each rejection still comes from a near_constant call that
    # returns True, one per rejected child
    import srsub.beamsearch as bs
    from srsub.substitution import near_constant

    rng = np.random.default_rng(7)
    X = rng.uniform(0.5, 2.0, size=(100, 3))
    ds = Dataset.from_arrays(X, 5.0 + 1e-13 * rng.uniform(size=100))
    parent = SearchNode(dataset=ds, score=0.0)
    verdicts = []

    def spy(y):
        verdicts.append(near_constant(y))
        return verdicts[-1]

    monkeypatch.setattr(bs, "near_constant", spy)
    subs = [InputSub(g=parse(t), I=I) for t in ("x1*x2", "x1+x2") for I in ((0, 1), (1, 2))]
    for sub in subs:
        verdicts.clear()
        assert score_candidate(parent, sub, "codec") is None
        assert verdicts[-1] is True
    out = score_candidate(parent, OutInputSub(h=parse("x2-x1", arity=2), I=(0,)), "codec")
    assert out is not None and out[0].y is not ds.y


def test_root_score_participates():
    # a problem with no usable reduction: best node should be the root
    ds = _dataset_from("sin(x1*x2+x3)*exp(x1)", n=300)
    cfg = BeamConfig(budget=GrammarBudget(max_intermediary_nodes=0,
                                          allowed_ops=frozenset({"+"})))
    res = search(ds, cfg)
    assert res.best is res.root
    assert res.root.score == _score_dataset(ds, "codec")


def _node(parent, edge):
    """The child of `parent` along `edge`, scored like its parent."""
    return SearchNode(dataset=apply_substitution(parent.dataset, edge), score=parent.score,
                      parent=parent, edge=edge, depth=parent.depth + 1)


def test_reconstruct_identity_at_root():
    ds = _dataset_from("x1*x2+x3")
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    sol = parse("x1*x2+x3")
    out = reconstruct(root, sol)
    assert out == sol


def test_reconstruct_outinput_chain():
    # y - x3 = x1*x2  ->  y = x1*x2 + x3
    ds = _dataset_from("x1*x2+x3")
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    child = _node(root, OutInputSub(h=parse("x2-x1", arity=2), I=(2,)))
    sol = parse("x1*x2")
    out = reconstruct(child, sol)
    assert out == parse("x1*x2+x3")


def test_reconstruct_washburn_leaf():
    ds = positive_washburn_dataset(n=500, seed=13)
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    a = _node(root, InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2)))
    b = _node(a, OutInputSub(h=parse("x2/sqrt(x1)", arity=2), I=(0,)))
    c = _node(b, OutInputSub(h=parse("x2*sqrt(x1)", arity=2), I=(1,)))
    assert c.path() == [root, a, b, c]
    sol = parse("sqrt(cos(x1)/2)")  # solution of the final 1-variable problem
    out = reconstruct(c, sol)
    from srsub import equivalent

    assert equivalent(out, parse(WASHBURN))


def test_reconstruction_soundness_numeric_inversion():
    # route A: evaluate the reconstructed expression on held-out rows;
    # route B: solve the output map (x, y) = node_prediction for y per row
    # by bisection
    from scipy.optimize import brentq

    from srsub import evaluate
    from srsub.regress import nrmse

    ds = positive_washburn_dataset(n=300, seed=21)
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    a = _node(root, InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2)))
    b = _node(a, OutInputSub(h=parse("x2/sqrt(x1)", arity=2), I=(0,)))
    n2 = b.dataset
    sol = parse("sqrt(cos(x1)/(2*x2))")  # exact solution of node-2 problem
    recon = reconstruct(b, sol)

    hold = ds.X[n2.origin_rows[:50]]
    hold_y = ds.y[n2.origin_rows[:50]]
    route_a = evaluate(recon, hold)

    _, output = column_maps(ds.d, [a.edge, b.edge])
    node_pred = evaluate(sol, n2.X[:50])
    route_b = []
    for i in range(50):
        row = hold[i]

        def g(t, row=row, i=i):
            return evaluate(output, np.concatenate([row, [t]])[None, :])[0] - node_pred[i]

        route_b.append(brentq(g, 1e-9, 50.0))
    route_b = np.array(route_b)
    both = np.isfinite(route_a) & np.isfinite(route_b)
    assert both.all()
    assert nrmse(hold_y, route_a) == pytest.approx(nrmse(hold_y, route_b), abs=1e-9)


def test_search_composes_no_column_maps(monkeypatch):
    # a candidate's dataset is its arrays; column maps are composed only
    # where a path node is reconstructed or written out
    from srsub import beamsearch, substitution

    calls = []
    real = substitution.compose

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(substitution, "compose", counting)
    monkeypatch.setattr(beamsearch, "compose", counting)
    result = search(_dataset_from("x1*x2+x3"), BeamConfig())
    assert result.best.depth >= 1
    assert len(calls) == 0
    reconstruct(result.best, parse("x1"))
    assert len(calls) > 0


def test_trace_records_schema():
    ds = _dataset_from("x1+x2")
    res = search(ds, BeamConfig())
    recs = trace_records(res)
    assert recs[0]["depth"] == 0 and recs[0]["substitution"] is None
    for rec in recs:
        assert set(rec) == {"depth", "substitution", "score", "n_vars", "rows_dropped"}


def test_root_needs_thirty_rows():
    ds = _dataset_from("x1+x2", n=10)
    with pytest.raises(ValueError):
        search(ds, BeamConfig())


@pytest.mark.parametrize("kwargs", [
    {"sub_types": frozenset()},  # no candidate at all
    {"grammar": "aifeynman", "sub_types": frozenset({"outinput"})},  # input subs only
])
def test_beam_config_rejects_settings_the_search_would_ignore(kwargs):
    with pytest.raises(ValueError):
        BeamConfig(**kwargs)


def test_beam_config_accepts_the_aifeynman_arm():
    assert BeamConfig(grammar="aifeynman").sub_types == frozenset({"input", "outinput"})
    assert BeamConfig(grammar="aifeynman", sub_types=frozenset({"input"})).grammar == "aifeynman"


def test_node_ranks_computed_once_on_first_use(monkeypatch):
    # every child that keeps its parent's y is scored with the parent's
    # ranks; a parent computes them at most once, and only when asked
    import srsub.beamsearch as bs

    ranked = []

    def counting(y):
        ranked.append(y)
        return compute_ranks(y)

    monkeypatch.setattr(bs, "compute_ranks", counting)
    ds = _dataset_from("x1*x2+x3")
    node = SearchNode(dataset=ds, score=0.0)
    assert ranked == []
    assert node.ranks is node.ranks and len(ranked) == 1
    assert np.array_equal(node.ranks.r, compute_ranks(ds.y).r)
    ranked.clear()
    result = search(ds, BeamConfig(beam_size=3, budget=GrammarBudget(max_intermediary_nodes=0)))
    # at most once per node: the root and the survivors of every level
    assert 0 < len(ranked) <= 1 + sum(len(level) for level in result.all_levels)


def test_each_output_array_ranked_once(monkeypatch):
    # a node that keeps its parent's y reads its parent's ranks, and the
    # root's codec score is taken with the root's ranks, so the nodes rank
    # every distinct output array once and the root's y is ranked once in all
    import srsub.beamsearch as bs
    import srsub.depmeasure as dm

    by_nodes, by_scores = [], []

    def counting(into):
        def ranks(y):
            into.append(y)
            return compute_ranks(y)
        return ranks

    monkeypatch.setattr(bs, "compute_ranks", counting(by_nodes))
    monkeypatch.setattr(dm, "compute_ranks", counting(by_scores))
    ds = _dataset_from("x1*x2+x3")
    result = search(ds, BeamConfig(beam_size=3, budget=GrammarBudget(max_intermediary_nodes=0)))
    assert len({id(y) for y in by_nodes}) == len(by_nodes) >= 2
    assert [y for y in by_nodes + by_scores if y is ds.y] == [ds.y]
    # the shared ranks are the ranks of the shared array, and the scores
    # are those of a search whose root ranks its y inside codec
    for level in result.all_levels:
        for node in level:
            assert np.array_equal(node.ranks.r, compute_ranks(node.dataset.y).r)
    monkeypatch.setattr(bs, "SearchNode", _NodeRankingItsOwnOutput)
    unshared = search(ds, BeamConfig(beam_size=3, budget=GrammarBudget(max_intermediary_nodes=0)))
    scores = [[node.score for node in level] for level in result.all_levels]
    assert result.root.score == unshared.root.score
    assert scores == [[node.score for node in level] for level in unshared.all_levels]


class _NodeRankingItsOwnOutput(SearchNode):
    """A search node that ranks its own output, as nodes did before they
    read their parent's ranks."""

    @property
    def ranks(self):
        return compute_ranks(self.dataset.y)


def _washburn_first_pick(seed: int, split_first: bool) -> float:
    """The reduction rate of a beam-1 codec search on the Washburn sample
    at `seed` (n = 1000), with or without its test rows dropped first."""
    p = Problem(id="washburn", d=5, f_true=parse(WASHBURN))
    ds = sample_problem(p, 1000, seed=seed)
    if split_first:
        ds = ds.restrict_rows(~holdout_mask(ds.n, 0.2, seed + 1))
    return reduction_rate(search(ds, BeamConfig(beam_size=1, measure="codec")), p)[0]


# how many Washburn sample seeds, out of 0-19, end on a verified
# one-variable problem (reduction rate 0.8), keyed by split-first; a
# selection rule that gains raises these floors
_RESAMPLING_FLOORS = {False: 19, True: 14}


@pytest.mark.slow
def test_first_pick_survives_resampling_floors():
    seeds = range(20)
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        rates = {split: list(pool.map(_washburn_first_pick, seeds, [split] * len(seeds)))
                 for split in (False, True)}
    for split, floor in _RESAMPLING_FLOORS.items():
        failed = [seed for seed, rate in zip(seeds, rates[split]) if rate != 0.8]
        print(f"split-first {split}: {20 - len(failed)}/20 at rate 0.8, failed {failed}")
        assert 20 - len(failed) >= floor


def _record_scoring(monkeypatch):
    """Log (parent, sub, transformed dataset, score) for the root and for
    every candidate that reaches scoring; the root has no parent or sub."""
    import srsub.beamsearch as bs

    calls = []
    current = []
    score_candidate_orig = bs.score_candidate
    score_dataset_orig = bs._score_dataset

    def score_candidate_spy(parent, sub, *args, **kwargs):
        current.append((parent, sub))
        try:
            return score_candidate_orig(parent, sub, *args, **kwargs)
        finally:
            current.pop()

    def score_dataset_spy(ds, measure, *args, **kwargs):
        score = score_dataset_orig(ds, measure, *args, **kwargs)
        parent, sub = current[-1] if current else (None, None)
        calls.append((parent, sub, ds, score))
        return score

    monkeypatch.setattr(bs, "score_candidate", score_candidate_spy)
    monkeypatch.setattr(bs, "_score_dataset", score_dataset_spy)
    return calls


def test_shared_neighbor_maps_give_fresh_codec_scores(monkeypatch):
    from srsub import codec

    # y is negative on a few percent of rows, so out-input candidates such
    # as sqrt(y) or log(y) drop rows
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0.5, 2.0, 300), rng.uniform(0.5, 2.0, 300),
                         rng.uniform(-0.6, 2.0, 300)])
    ds = Dataset.from_arrays(X, X[:, 0] * X[:, 1] + X[:, 2])
    calls = _record_scoring(monkeypatch)
    search(ds, BeamConfig(beam_size=3))
    outinput = [(p, s, c) for p, s, c, _ in calls if isinstance(s, OutInputSub)]
    assert any(c.n < p.dataset.n for p, _, c in outinput)
    for _, _, child, score in calls:
        assert score == codec(child.X, child.y)


def test_neighbor_map_built_once_per_point_set(monkeypatch):
    import srsub.depmeasure as dm

    # one-operator substitutions keep level-1 children at two columns, so
    # level 2 expands several parents; zeros in x3 make y/x3 drop rows, and
    # x1-x2 and x2-x1 see one point set up to the sign of a column
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.uniform(0.5, 2.0, 300), rng.uniform(0.5, 2.0, 300),
                         rng.uniform(-1.0, 2.0, 300)])
    X[::20, 2] = 0.0
    ds = Dataset.from_arrays(X, X[:, 0] * X[:, 1] + X[:, 2])
    cfg = BeamConfig(beam_size=3, budget=GrammarBudget(max_intermediary_nodes=0))
    nn_inputs = []
    nearest_neighbors_orig = dm.nearest_neighbors

    def recording_nearest_neighbors(Z):
        nn_inputs.append(point_set_key(Z))
        return nearest_neighbors_orig(Z)

    monkeypatch.setattr(dm, "nearest_neighbors", recording_nearest_neighbors)
    calls = _record_scoring(monkeypatch)
    search(ds, cfg)
    standardized = [standardize_columns(child.X) for _, _, child, _ in calls]
    keys = {point_set_key(Z) for Z in standardized}
    children = [(parent, sub, child) for parent, sub, child, _ in calls if sub is not None]
    assert {"x1-x2", "x2-x1"} <= {to_text(sub.g) for _, sub, _ in children
                                  if isinstance(sub, InputSub)}
    assert len({id(parent) for parent, _, _ in children}) > 1
    assert any(child.n < parent.dataset.n for parent, _, child in children)
    # some point sets reach the search under more than one column sign
    assert len({Z.tobytes() for Z in standardized}) > len(keys)
    # one call per distinct point set, the root's included, and none twice
    assert len(nn_inputs) == len(set(nn_inputs)) < len(children)
    assert set(nn_inputs) == keys


def test_shared_neighbor_map_keyed_by_surviving_rows():
    # two out-input candidates on the same column drop equally many rows,
    # but different ones: sqrt(y) drops y < 0, sqrt(x1 - y) drops y > x1
    from srsub import codec

    rng = np.random.default_rng(59)
    X = rng.uniform(0.5, 2.0, size=(200, 2))
    y = rng.uniform(0.1, 0.4, size=200)
    y[:10] = -1.0
    y[10:20] = 5.0
    ds = Dataset.from_arrays(X, y)
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    memo = {}
    children = []
    for h in ("sqrt(x2)*x1", "sqrt(x1-x2)"):
        scored = score_candidate(root, OutInputSub(h=parse(h, arity=2), I=(0,)), "codec",
                                 memo=memo)
        assert scored is not None
        children.append(scored)
    (a, score_a), (b, score_b) = children
    assert a.n == b.n and not np.array_equal(a.origin_rows, b.origin_rows)
    assert len(memo) == 2
    assert score_a == codec(a.X, a.y)
    assert score_b == codec(b.X, b.y)


def _level_records(levels):
    return [[(node.seq, node.parent.seq, node.edge, node.score, node.n_vars)
             for node in level] for level in levels]


def _tied_columns_dataset():
    # x4 repeats x3, so substitutions on (i, 3) and (i, 4) score alike and
    # the tie goes to the child found first
    rng = np.random.default_rng(2)
    X = rng.uniform(0.5, 2.0, size=(200, 3))
    X = np.column_stack([X, X[:, 2]])
    return Dataset.from_arrays(X, X[:, 0] * X[:, 1] + X[:, 2] * X[:, 3])


@pytest.mark.parametrize("beam_size", [1, 2, 3, 4])
@pytest.mark.parametrize("which", ["sampled", "tied"])
def test_survivors_equal_sorting_every_child(beam_size, which):
    if which == "sampled":
        ds = sample_problem(Problem(id="m", d=4, f_true=parse("x1*x2+x3*x4")), 200, seed=1)
    else:
        ds = _tied_columns_dataset()
    cfg = BeamConfig(beam_size=beam_size, budget=GrammarBudget(max_intermediary_nodes=0))
    result = search(ds, cfg)
    want = beam_levels_by_sorting(result.root, cfg)
    assert _level_records(result.all_levels) == _level_records(want)
    # the best node is the first with the top score, root first
    nodes = [result.root] + [node for level in want for node in level]
    top = max(node.score for node in nodes)
    first = next(node for node in nodes if node.score == top)
    assert result.best.seq == first.seq
    assert [node.seq for node in result.best_path][-1] == first.seq


@pytest.mark.parametrize("measure", ["xi", "codec", "kmac", "volume"])
def test_scores_equal_fresh_scores_under_every_measure(monkeypatch, measure):
    # zeros in x3 make out-input candidates such as y/x3 drop rows, and
    # out-input children of one parent share neighbour maps; level 2
    # children have one column, where xi is the univariate coefficient
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.uniform(0.5, 2.0, 300), rng.uniform(0.5, 2.0, 300),
                         rng.uniform(-1.0, 2.0, 300)])
    X[::20, 2] = 0.0
    ds = Dataset.from_arrays(X, X[:, 0] * X[:, 1] + X[:, 2])
    calls = _record_scoring(monkeypatch)
    result = search(ds, BeamConfig(beam_size=3, measure=measure,
                                   budget=GrammarBudget(max_intermediary_nodes=0)))
    survivors = [node for level in result.all_levels for node in level]
    assert {node.depth for node in survivors} == {1, 2}
    assert any(isinstance(s, OutInputSub) and c.n < p.dataset.n for p, s, c, _ in calls)
    # every scored child, survivors included, as if scored with no shared
    # ranks or neighbour maps
    for _, _, child, score in calls:
        assert score == _score_dataset(child, measure)


def _pinned_search_dataset(which):
    """x1*x2+x3 sampled at n = 300 (seed 5), or x1*x2+x3/x4 with 1 % noise."""
    from srsub.bench import add_noise

    if which == "x1*x2+x3":
        return sample_problem(Problem(id="a", d=3, f_true=parse(which)), 300, seed=5)
    ds = sample_problem(Problem(id="b", d=4, f_true=parse(which)), 300, seed=5)
    return Dataset.from_arrays(ds.X, add_noise(ds.y, 0.01, 5))


def _score_records(result):
    return [[rec["substitution"], float(rec["score"]).hex()] for rec in trace_records(result)]


@pytest.mark.parametrize("which, budget, measure, pin", [
    ("x1*x2+x3", GrammarBudget(), "codec",
     "b715f497313a09f52601461f21d74422f78674edd7784629f4f4e64343180982"),
    ("x1*x2+x3", GrammarBudget(), "volume",
     "8591447688dd6fafaf326fcdb2a54032a45cccd5d0f58b0796e0c9e74a73e1ca"),
    ("x1*x2+x3/x4", GrammarBudget(max_intermediary_nodes=0), "codec",
     "6d5e81f640deb643288f04d9c6a7db4ffd35b405ac374f77f3b59f32a8cfc2d2"),
    ("x1*x2+x3/x4", GrammarBudget(max_intermediary_nodes=0), "volume",
     "33828eeda4f48db406e6613dfd9465166211d0ecc625a8c92ab19d4790b30f79"),
])
def test_search_scores_are_pinned(which, budget, measure, pin):
    # (substitution, score bits) of every surviving node, root first; a
    # change to any kernel behind a score moves the digest
    import hashlib
    import json

    result = search(_pinned_search_dataset(which),
                    BeamConfig(beam_size=3, measure=measure, budget=budget))
    records = json.dumps(_score_records(result)).encode()
    assert hashlib.sha256(records).hexdigest() == pin


@pytest.mark.parametrize("measure", ["codec", "volume"])
def test_fortran_ordered_root_searches_like_c_ordered(measure):
    ds = _pinned_search_dataset("x1*x2+x3/x4")
    cfg = BeamConfig(beam_size=3, measure=measure,
                     budget=GrammarBudget(max_intermediary_nodes=0))
    fortran = Dataset.from_arrays(np.asfortranarray(ds.X), ds.y)
    assert not fortran.X.flags.c_contiguous
    assert trace_records(search(fortran, cfg)) == trace_records(search(ds, cfg))


@pytest.mark.parametrize("measure", ["codec", "volume"])
def test_search_writes_into_no_dataset_array(measure):
    # children that keep every row share the root's y and origin_rows, so a
    # write anywhere in the search would raise on these read-only arrays
    ds = _pinned_search_dataset("x1*x2+x3")
    before = [a.tobytes() for a in (ds.X, ds.y, ds.origin_rows)]
    for a in (ds.X, ds.y, ds.origin_rows):
        a.flags.writeable = False
    result = search(ds, BeamConfig(beam_size=3, measure=measure))
    assert any(node.dataset.origin_rows is ds.origin_rows
               for level in result.all_levels for node in level)
    assert [a.tobytes() for a in (ds.X, ds.y, ds.origin_rows)] == before
