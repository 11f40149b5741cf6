"""Benchmark harness: sampler, noise, metrics, reports."""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from srsub import (
    BeamConfig,
    GrammarBudget,
    InputSub,
    NoiseLevel,
    OutInputSub,
    Problem,
    RegressorSpec,
    add_noise,
    jaccard,
    load_corpus,
    parse,
    recovery,
    reduction_rate,
    run_benchmark,
    sample_problem,
    search,
)
from srsub import bench, regress
from srsub.bench import _chain_verify, chain_stats, run_problem
from srsub.errors import Unsampleable, UnsupportedExpression

from oracles import arms_fitted_separately, benchmark_search


def test_sampler_total_domain_single_round():
    p = Problem(id="sum", d=2, f_true=parse("x1+x2"))
    ds = sample_problem(p, 1000, seed=0)
    assert ds.n == 1000
    assert np.abs(ds.X).max() <= 1.0  # everything accepted at the first interval


def test_sampler_rejects_invalid_rows_but_completes():
    p = Problem(id="log", d=1, f_true=parse("log(x1)"))
    ds = sample_problem(p, 500, seed=1)
    assert ds.n == 500
    assert (ds.X[:, 0] > 0).all()


def test_sampler_unsampleable():
    p = Problem(id="far", d=1, f_true=parse("log(x1-200)"))
    with pytest.raises(Unsampleable):
        sample_problem(p, 50, seed=2)


def test_sampler_box_mode():
    p = Problem(id="boxed", d=2, f_true=parse("x1/x2"), box=((1.0, 5.0), (1.0, 5.0)))
    ds = sample_problem(p, 400, seed=3)
    assert ds.X.min() >= 1.0 and ds.X.max() <= 5.0


@pytest.mark.parametrize("text, d, n, seed, box, pin", [
    ("x1+x2", 2, 1000, 0, None, "c7f26c623d3dd14e"),
    ("log(x1)", 1, 500, 1, None, "8abad2b25cf7e8fe"),
    # grows the cube past half-width 3 before any row is finite
    ("sqrt(x1-3)*x2", 2, 300, 4, None, "33d8e0d48737d571"),
    ("x1/x2", 2, 400, 3, ((1.0, 5.0), (1.0, 5.0)), "52481814de7aadae"),
    ("log(x1-2)*x2", 2, 300, 6, ((1.0, 5.0), (-1.0, 1.0)), "e12f15eb2fa11b9f"),
])
def test_sampler_rows_are_pinned(text, d, n, seed, box, pin):
    ds = sample_problem(Problem(id="pin", d=d, f_true=parse(text), box=box), n, seed)
    assert hashlib.sha256(ds.X.tobytes() + ds.y.tobytes()).hexdigest()[:16] == pin


def test_noise_zero_is_identity():
    y = np.linspace(-2, 7, 100)
    out = add_noise(y, 0.0, seed=0)
    assert np.array_equal(out, y)


def test_noise_std_matches_level():
    y = np.ones(10_000)
    out = add_noise(y, 0.1, seed=4)
    assert 0.095 <= (out - y).std() <= 0.105


def test_noise_std_scales_linearly():
    rng = np.random.default_rng(5)
    y = rng.uniform(1, 3, size=20_000)
    rms = np.sqrt(np.mean(y * y))
    stds = []
    for gamma in (0.01, 0.05, 0.1):
        out = add_noise(y, gamma, seed=6)
        stds.append((out - y).std() / rms)
    assert stds[0] == pytest.approx(0.01, rel=0.05)
    assert stds[1] == pytest.approx(0.05, rel=0.05)
    assert stds[2] == pytest.approx(0.10, rel=0.05)


# -- metrics ------------------------------------------------------------------------


def test_recovery_additive_and_multiplicative():
    f = parse("x1*x2+x3")
    assert recovery(f, parse("x1*x2+x3+7"))
    assert recovery(f, parse("2*(x1*x2+x3)"))
    assert not recovery(parse("x1*x2"), parse("x1+x2", arity=2))


def test_jaccard_identical_is_one():
    f = parse("x1*x2+x3")
    assert jaccard(f, f) == 1.0


def test_jaccard_disjoint_variables():
    assert jaccard(parse("x1", arity=2), parse("x2", arity=2)) == 0.0


def test_jaccard_manual_set_oracle():
    f = parse("x1*x2+x3")
    fh = parse("x1*x2", arity=3)
    # S = {x1, x2, x3, x1*x2, x1*x2+x3}, S_hat = {x1, x2, x1*x2} -> 3/5
    assert jaccard(f, fh) == pytest.approx(3 / 5)


def test_recovery_does_not_imply_jaccard_one():
    f = parse("x1*x2+x3")
    fh = parse("x1*x2+x3+7")
    assert recovery(f, fh)
    assert jaccard(f, fh) < 1.0


def test_reduction_rate_formula_washburn_style():
    p = Problem(id="w", d=5, f_true=parse("sqrt(x1*x2*x3*cos(x4)/(2*x5))"))
    ds = sample_problem(p, 800, seed=3)
    result = search(ds, BeamConfig())
    rate, all_valid = reduction_rate(result, p)
    assert rate == pytest.approx(0.8)
    assert all_valid is True


def test_reduction_rate_no_valid_substitution():
    p = Problem(id="hard", d=2, f_true=parse("x1*x1*x1/(exp(x1*x2)-1)"))
    ds = sample_problem(p, 400, seed=7)
    from srsub import GrammarBudget

    cfg = BeamConfig(budget=GrammarBudget(max_intermediary_nodes=0,
                                          allowed_ops=frozenset({"+"})))
    result = search(ds, cfg)
    rate, _ = reduction_rate(result, p)
    assert rate == 0.0


def test_reduction_rate_one_third():
    p = Problem(id="pq", d=3, f_true=parse("x1*x2+x3"))
    ds = sample_problem(p, 600, seed=8)
    from srsub import GrammarBudget

    # product-only pair grammar: the only valid reduction is x1*x2
    cfg = BeamConfig(budget=GrammarBudget(max_intermediary_nodes=0,
                                          allowed_ops=frozenset({"*"})),
                     sub_types=frozenset({"input"}))
    result = search(ds, cfg)
    rate, _ = reduction_rate(result, p)
    assert rate == pytest.approx(1 / 3)


def test_chain_stats_with_invalid_parent():
    # values recorded while chain verification was a recursive closure
    p = Problem(id="mixed", d=4, f_true=parse("x1*x2+x3*x4"))
    ds = sample_problem(p, 200, seed=1)
    cfg = BeamConfig(beam_size=3, budget=GrammarBudget(max_intermediary_nodes=0,
                                                       allowed_ops=frozenset({"*", "/"})))
    result = search(ds, cfg)
    nodes = [node for level in result.all_levels for node in level]
    assert {type(node.edge) for node in nodes} == {InputSub, OutInputSub}
    verified = _chain_verify(result, p)
    assert [id(node) in verified for node in nodes] == [
        True, True, False, True, True, False, False, False, False]
    # the last survivor's parent failed verification
    assert id(nodes[-1].parent) not in verified
    assert chain_stats(result, p) == {
        "reduction_rate": 0.5,
        "reduction_rate_unfiltered": 0.75,
        "valid_sub_fraction": 4 / 9,
        "best_path_valid": True,
    }


# -- benchmark loop -------------------------------------------------------------------


def _smoke_corpus(tmp_path):
    lines = [
        "s1\t2\tx1*x2",
        "s2\t2\tx1/x2",
        "s3\t3\tx1*x2*x3",
        "s4\t2\tx1+x2",
        "s5\t1\texp(x1)",
        "s6\t3\tx1*x2+x3",
        "s7\t2\tx1*x1*x2",
        "s8\t3\tsqrt(x1*x2/x3)",
        "s9\t2\tcos(x1)*x2",
        "s10\t1\t3*x1",
    ]
    path = tmp_path / "smoke.tsv"
    path.write_text("# smoke corpus\n" + "\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("bad, error", [
    ("b\tx\tx1+x2", ValueError),  # d is not an integer
    ("b\t2\tx1+x2\t1:", ValueError),  # a range without its upper end
    ("b\t2\tx1$x2", UnsupportedExpression),  # untokenizable expression
    ("b\t1\tx1+x2", UnsupportedExpression),  # a variable past d
    ("b\t2\tx1+x2\t1:2,1:2,1:2", ValueError),  # three ranges for two variables
    ("b\t0\t3.0\t1:5", ValueError),  # a range for no variables
])
def test_load_corpus_names_the_malformed_line(tmp_path, bad, error):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# corpus\na\t2\tx1*x2\n{bad}\n")
    with pytest.raises(error, match=r"^line 3: "):
        load_corpus(path)


def test_run_benchmark_smoke(tmp_path):
    problems = load_corpus(_smoke_corpus(tmp_path))
    assert len(problems) == 10
    rep = run_benchmark(problems, BeamConfig(), RegressorSpec(kind="poly"),
                        NoiseLevel(0.0), seed=11, n_samples=300, workers=1)
    assert len(rep.rows) == 10
    ok = [r for r in rep.rows if r["status"] == "ok"]
    assert len(ok) == 10
    for key in ("reduction_rate", "base_nrmse", "beam_nrmse", "wall_time"):
        vals = [float(r[key]) for r in ok]
        assert rep.aggregates[key] == pytest.approx(np.mean(vals), abs=1e-12)


def test_run_benchmark_deterministic(tmp_path):
    problems = load_corpus(_smoke_corpus(tmp_path))[:4]
    kwargs = dict(cfg=BeamConfig(), spec=RegressorSpec(kind="poly"),
                  noise=NoiseLevel(0.01), seed=13, n_samples=200, workers=1)
    r1 = run_benchmark(problems, **kwargs)
    r2 = run_benchmark(problems, **kwargs)
    for a, b in zip(r1.rows, r2.rows):
        for key, val in a.items():
            if key == "wall_time":
                continue
            assert b[key] == val, key


def test_run_benchmark_worker_count_does_not_change_results(tmp_path):
    problems = load_corpus(_smoke_corpus(tmp_path))[:4]
    kwargs = dict(cfg=BeamConfig(), spec=RegressorSpec(kind="poly"),
                  noise=NoiseLevel(0.0), seed=17, n_samples=200)
    r1 = run_benchmark(problems, workers=1, **kwargs)
    r2 = run_benchmark(problems, workers=2, **kwargs)
    for a, b in zip(r1.rows, r2.rows):
        assert a["reduction_rate"] == b["reduction_rate"]
        assert a.get("beam_nrmse") == b.get("beam_nrmse")


def test_run_benchmark_crashed_worker_costs_one_row(tmp_path, monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers inherit the monkeypatched crash")
    problems = load_corpus(_smoke_corpus(tmp_path))[:4]
    kwargs = dict(cfg=BeamConfig(), spec=RegressorSpec(kind="poly"),
                  noise=NoiseLevel(0.0), seed=29, n_samples=200, fit_models=False)
    serial = run_benchmark(problems, workers=1, **kwargs)
    crash = problems[1].id
    unpatched = bench.run_problem

    def run_or_crash(p, *args):
        if p.id == crash:
            os._exit(1)
        return unpatched(p, *args)

    monkeypatch.setattr(bench, "run_problem", run_or_crash)
    pooled = run_benchmark(problems, workers=2, **kwargs)
    assert [r["id"] for r in pooled.rows] == [p.id for p in problems]
    broken = pooled.rows[1]
    assert broken["status"] == "BrokenProcessPool"
    assert broken["d"] == problems[1].d and broken["error"]
    for want, got in zip(serial.rows, pooled.rows):
        if want["id"] != crash:
            assert {k: v for k, v in got.items() if k != "wall_time"} == \
                {k: v for k, v in want.items() if k != "wall_time"}
    assert pooled.traces == [rec for rec in serial.traces if rec["id"] != crash]
    assert pooled.aggregates["n_ok"] == 3


@pytest.mark.parametrize("text", ["x1*x2*x3", "x1*x2+x3"])
def test_run_problem_fits_each_path_node_once(monkeypatch, text):
    # both nodes of x1*x2+x3 fit it exactly, so the tie goes to the root
    p = Problem(id="fit-once", d=3, f_true=parse(text))
    cfg, spec, noise = BeamConfig(), RegressorSpec(kind="poly"), NoiseLevel(0.0)
    result, holdout = benchmark_search(p, cfg, noise, seed=11, n_samples=300)
    assert len(result.best_path) >= 2

    fitted, checked = [], []
    real_fit, real_recovery = regress.fit, bench.recovery

    def counting_fit(ds, spec):
        fitted.append(ds.d)
        return real_fit(ds, spec)

    def counting_recovery(f_true, f_hat):
        checked.append(f_hat.key)
        return real_recovery(f_true, f_hat)

    monkeypatch.setattr(regress, "fit", counting_fit)
    monkeypatch.setattr(bench, "recovery", counting_recovery)
    row, _ = run_problem(p, cfg, spec, noise, seed=11, n_samples=300)
    assert row["status"] == "ok"
    assert len(fitted) == len(result.best_path)
    # one recovery check per distinct model: when the beam arm picks the
    # root's fit, both arms read that one check
    assert (row["beam_depth"] == 0) == (text == "x1*x2+x3")
    assert len(checked) == (1 if row["beam_depth"] == 0 else 2)

    expected = arms_fitted_separately(p, spec, result, holdout)
    assert [key for key in row if key.startswith(("base_", "beam_"))] == list(expected)
    assert {key: row[key] for key in expected} == expected


def test_run_problem_without_a_root_fit_fails_the_row(monkeypatch):
    p = Problem(id="no-root-fit", d=3, f_true=parse("x1*x2*x3"))
    real_fit = regress.fit

    def fit_below_root(ds, spec):
        if ds.d == 3:
            raise ValueError("no root fit")
        return real_fit(ds, spec)

    monkeypatch.setattr(regress, "fit", fit_below_root)
    row, _ = run_problem(p, BeamConfig(), RegressorSpec(kind="poly"), NoiseLevel(0.0),
                         seed=11, n_samples=300)
    assert row["status"] == "ExternalFailure"
    assert row["error"] == "no node of the path produced a usable model"
    assert not any(key.startswith(("base_", "beam_")) for key in row)


def test_run_benchmark_records_failures(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("ok1\t2\tx1+x2\nbad1\t1\tlog(x1-200)\n")
    problems = load_corpus(path)
    rep = run_benchmark(problems, BeamConfig(), RegressorSpec(kind="poly"),
                        NoiseLevel(0.0), seed=19, n_samples=100, workers=1)
    assert rep.rows[0]["status"] == "ok"
    assert rep.rows[1]["status"] == "Unsampleable"


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_samples=0), "n must be >= 1"),
    (dict(holdout_fraction=1.5), r"holdout fraction must be in \(0, 1\)"),
    (dict(holdout_fraction=0.0), r"holdout fraction must be in \(0, 1\)"),
])
def test_run_benchmark_rejects_settings_before_any_problem(tmp_path, monkeypatch, kwargs,
                                                          message):
    problems = load_corpus(_smoke_corpus(tmp_path))[:2]
    ran = []
    monkeypatch.setattr(bench, "run_problem", lambda p, *args: ran.append(p.id))
    with pytest.raises(ValueError, match=message):
        run_benchmark(problems, BeamConfig(), RegressorSpec(kind="poly"), NoiseLevel(0.0),
                      seed=3, workers=1, fit_models=False, **kwargs)
    assert ran == []


def test_report_csv_roundtrip(tmp_path):
    problems = load_corpus(_smoke_corpus(tmp_path))[:3]
    rep = run_benchmark(problems, BeamConfig(), RegressorSpec(kind="poly"),
                        NoiseLevel(0.0), seed=23, n_samples=150, workers=1)
    out = tmp_path / "report.csv"
    rep.to_csv(out)
    text = out.read_text().splitlines()
    assert text[0] == ",".join(rep.rows[0])  # every row ok: the first row's columns
    assert any(line.startswith("AGGREGATE_MEAN") for line in text)


def test_report_csv_with_failed_first_row(tmp_path):
    import csv

    path = tmp_path / "bad_first.tsv"
    path.write_text("bad1\t1\tlog(x1-200)\nok1\t2\tx1+x2\n")
    rep = run_benchmark(load_corpus(path), BeamConfig(), RegressorSpec(kind="poly"),
                        NoiseLevel(0.0), seed=19, n_samples=100, workers=1)
    assert [r["status"] for r in rep.rows] == ["Unsampleable", "ok"]
    out = tmp_path / "report.csv"
    rep.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["id"] for r in rows] == ["bad1", "ok1", "AGGREGATE_MEAN"]
    # the failed row's missing metrics are blank, the ok row's are filled in
    assert rows[0]["status"] == "Unsampleable" and rows[0]["beam_nrmse"] == ""
    assert float(rows[1]["beam_nrmse"]) == rep.rows[1]["beam_nrmse"]
    assert float(rows[2]["reduction_rate"]) == rep.aggregates["reduction_rate"]


def test_bundled_corpora_load():
    fey = load_corpus("feynman-desk")
    epo = load_corpus("eponymous-desk")
    assert len(fey) == 30 and len(epo) == 30
    assert all(p.box is not None for p in fey)
    assert all(p.box is None for p in epo)


# base and beam recovery floors of the dagsearch regressor over the d <= 3
# problems, measured at seed 42; a change that gains raises them
_DAGSEARCH_FLOORS = {"feynman-desk": (19, 4, 11), "eponymous-desk": (27, 7, 17)}


@pytest.mark.slow
@pytest.mark.parametrize("corpus", sorted(_DAGSEARCH_FLOORS))
def test_dagsearch_recovery_floors(corpus):
    problems = [p for p in load_corpus(corpus) if p.d <= 3]
    n_problems, base_floor, beam_floor = _DAGSEARCH_FLOORS[corpus]
    rep = run_benchmark(problems, BeamConfig(), RegressorSpec(kind="dagsearch"),
                        NoiseLevel(0.0), seed=42, n_samples=1000,
                        fit_models=True, workers=min(2, os.cpu_count() or 1))
    for row in rep.rows:
        print(f"{row['id']}: base {row.get('base_recovered')} beam {row.get('beam_recovered')}")
    base = sum(bool(row.get("base_recovered")) for row in rep.rows)
    beam = sum(bool(row.get("beam_recovered")) for row in rep.rows)
    print(f"{corpus}: base {base}/{len(problems)}, beam {beam}/{len(problems)}, "
          f"reduction rate {rep.aggregates['reduction_rate']:.3f}")
    assert len(problems) == n_problems
    assert [row["status"] for row in rep.rows] == ["ok"] * n_problems
    assert base >= base_floor and beam >= beam_floor
