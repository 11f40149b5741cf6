"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The statistical criteria reuse session-scoped benchmark
fixtures so repeated tolerances come from one deterministic run.
"""

import sys
import time

import numpy as np
import pytest

from srsub import (
    BeamConfig,
    Dataset,
    InputSub,
    OutInputSub,
    Problem,
    RegressorSpec,
    chatterjee_xi,
    codec,
    evaluate,
    kmac,
    parse,
    recovery,
    reduction_rate,
    sample_problem,
    search,
    solve_pipeline,
    verify_input_sub,
    verify_outinput_sub,
)
from srsub.beamsearch import SearchNode, SearchResult, _score_dataset, score_candidate
from srsub.depmeasure import compute_ranks
from srsub.regress import holdout_mask

WASHBURN = "sqrt(x1*x2*x3*cos(x4)/(2*x5))"


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d} {status}: {detail}", file=sys.stderr)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_xi_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for n in (4, 10, 100):
        x = np.arange(1.0, n + 1)
        y = np.exp(x / n)  # strictly increasing, distinct
        got = chatterjee_xi(x, y).value
        worst = max(worst, abs(got - (1 - 3 / (n + 1))))
    _report(1, worst <= 1e-12,
            f"xi closed form max deviation {worst:.2e} (runtime {time.monotonic() - t0:.2f}s)")


def test_criterion_02_codec_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        n, d = 200, 1 + trial % 3
        X = rng.normal(size=(n, d))
        if trial % 2:
            y = X[:, 0] ** 2 + 0.5 * rng.normal(size=n)
        else:
            y = rng.normal(size=n)
        a = codec(X, y, form="min").value
        b = codec(X, y, form="rewritten").value
        worst = max(worst, abs(a - b))
    _report(2, worst <= 1e-12,
            f"codec numerator forms max |diff| {worst:.2e} (runtime {time.monotonic() - t0:.2f}s)")


def test_criterion_03_dependence_limits():
    t0 = time.monotonic()
    functional = [
        "x1*x1+x2", "x1*x2", "sin(x1)+cos(x2)", "exp(x1-x2)", "x1/(1+x2)",
        "sqrt(x1)+x2*x2", "log(1+x1)*x2", "x1", "x1*x1*x2*x2", "cos(x1*x2)",
    ]
    n = 500
    ok = True
    details = []
    for i, text in enumerate(functional):
        rng = np.random.default_rng(100 + i)
        X = rng.uniform(0.0, 1.0, size=(n, 2))
        y = evaluate(parse(text, arity=2), X)
        c = codec(X, y).value
        k = kmac(X, y).value
        if c < 0.8 or k < 0.8:
            ok = False
            details.append(f"{text}: codec={c:.3f} kmac={k:.3f}")
    for i in range(10):
        rng = np.random.default_rng(200 + i)
        X = rng.uniform(0.0, 1.0, size=(n, 2))
        y = rng.normal(size=n)
        c = codec(X, y).value
        k = kmac(X, y).value
        if abs(c) > 0.2 or abs(k) > 0.2:
            ok = False
            details.append(f"indep {i}: codec={c:.3f} kmac={k:.3f}")
    _report(3, ok,
            f"functional >= 0.8, independent <= 0.2 "
            f"({'ok' if ok else '; '.join(details)}; runtime {time.monotonic() - t0:.1f}s)")


def test_criterion_04_washburn_end_to_end():
    t0 = time.monotonic()
    p = Problem(id="washburn", d=5, f_true=parse(WASHBURN))
    ds = sample_problem(p, 1000, seed=3)
    result = search(ds, BeamConfig(beam_size=1, measure="codec"))
    rate, all_valid = reduction_rate(result, p)
    sol = solve_pipeline(result, RegressorSpec(kind="dagsearch"),
                         ds.restrict_rows(holdout_mask(ds.n, 0.2, seed=4)))
    recovered = recovery(p.f_true, sol.expr)
    elapsed = time.monotonic() - t0
    ok = rate == pytest.approx(0.8) and all_valid and recovered and elapsed < 120
    _report(4, ok,
            f"reduction rate {rate:.2f} (valid path {all_valid}), recovery {recovered}, "
            f"runtime {elapsed:.1f}s < 120s")


@pytest.mark.slow
def test_criterion_05_desk_scale_reduction_rates(feynman_report_poly, eponymous_report):
    fey = feynman_report_poly.aggregates["reduction_rate"]
    epo = eponymous_report.aggregates["reduction_rate"]
    ok = abs(fey - 0.49) <= 0.15 and abs(epo - 0.35) <= 0.15
    _report(5, ok,
            f"mean reduction rates: physics-style {fey:.3f} (target 0.49+-0.15), "
            f"named-equation {epo:.3f} (target 0.35+-0.15)")


@pytest.mark.slow
def test_criterion_06_ablation_direction(feynman_report_poly, feynman_rates_by_arm):
    both = feynman_report_poly.aggregates["reduction_rate"]
    inp = feynman_rates_by_arm["input"]
    aif = feynman_rates_by_arm["aifeynman"]
    ok = both >= inp >= aif and (both - inp) >= 0.05
    _report(6, ok,
            f"out+input {both:.3f} >= input {inp:.3f} >= pairwise-classic {aif:.3f}, "
            f"gap {both - inp:.3f} >= 0.05")


@pytest.mark.slow
def test_criterion_07_noise_robustness(feynman_rates_by_noise):
    gaps = {g: feynman_rates_by_noise[(g, "codec")] - feynman_rates_by_noise[(g, "volume")]
            for g in (0.01, 0.1)}
    ok = all(gap >= 0.15 for gap in gaps.values())
    detail = ", ".join(
        f"gamma={g}: codec {feynman_rates_by_noise[(g, 'codec')]:.3f} vs "
        f"volume {feynman_rates_by_noise[(g, 'volume')]:.3f} (gap {gaps[g]:.3f})"
        for g in (0.01, 0.1)
    )
    _report(7, ok, detail + "; required gap >= 0.15")


@pytest.mark.slow
def test_criterion_08_poly_recovery_boost(feynman_report_poly):
    base = feynman_report_poly.aggregates["base_recovered"]
    beam = feynman_report_poly.aggregates["beam_recovered"]
    ok = (beam - base) >= 0.15
    _report(8, ok, f"poly recovery base {base:.3f} -> beam {beam:.3f} "
                   f"(boost {beam - base:.3f} >= 0.15)")


def test_criterion_09_verification_oracle_suite():
    t0 = time.monotonic()
    f = parse("x1*x2+x3")
    checks = [
        verify_input_sub(f, InputSub(g=parse("x1*x2"), I=(0, 1))) is True,
        verify_outinput_sub(f, OutInputSub(h=parse("x2-x1", arity=2), I=(2,))) is True,
        verify_outinput_sub(parse("x1*x2*x3+x1*(x2+log(x2))/x3"),
                            OutInputSub(h=parse("x2/x1", arity=2), I=(0,))) is True,
        verify_input_sub(f, InputSub(g=parse("x1+x2"), I=(0, 1))) is False,
    ]
    ok = all(checks)
    _report(9, ok, f"worked verification examples {checks} (runtime {time.monotonic() - t0:.1f}s)")


def test_criterion_10_external_bridge_roundtrip(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    f = parse("x1*x2+x3")
    X = rng.uniform(0.5, 2.0, size=(200, 3))
    ds = Dataset.from_arrays(X, evaluate(f, X))
    stub = tmp_path / "stub.py"
    stub.write_text("print('x1*x2+x3')\n")
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    result = SearchResult(best_path=[root], all_levels=[])
    spec = RegressorSpec(kind="external", command=f"{sys.executable} {stub} {{csv}}")
    sol = solve_pipeline(result, spec, ds.restrict_rows(holdout_mask(ds.n, 0.2, seed=5)))
    recovered = recovery(f, sol.expr)
    ok = recovered and sol.nrmse_test < 1e-9
    _report(10, ok, f"stub recovery {recovered}, NRMSE {sol.nrmse_test:.2e} < 1e-9 "
                    f"(runtime {time.monotonic() - t0:.1f}s)")


def test_criterion_11_scoring_throughput():
    p = Problem(id="washburn", d=5, f_true=parse(WASHBURN))
    ds = sample_problem(p, 1000, seed=3)
    root = SearchNode(dataset=ds, score=_score_dataset(ds, "codec"))
    ranks = compute_ranks(ds.y)
    sub = InputSub(g=parse("x1*(x2*x3)"), I=(0, 1, 2))
    times = []
    for _ in range(31):
        t0 = time.perf_counter()
        out = score_candidate(root, sub, "codec", ranks)
        times.append(time.perf_counter() - t0)
    assert out is not None
    median_ms = float(np.median(times)) * 1000
    ok = median_ms < 50.0
    _report(11, ok, f"codec candidate scoring median {median_ms:.2f} ms < 50 ms (n=1000, d=5)")
