"""Benchmark harness: corpus ingestion, sampling, noise, metrics, reports.

A corpus file holds one problem per line (``id<TAB>d<TAB>expression``,
``#`` comments).  For every problem the harness samples the formula, adds
noise, searches, and fits the regressor once per node of the best path.  The
root's fit is the base arm and the path's best fit the beam arm; both are
scored on one holdout.  Per problem it reports reduction metrics together
with per-arm recovery, fit and complexity numbers.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .beamsearch import BeamConfig, SearchResult, search, trace_records
from .dag import ExprDag, evaluate, sample_finite
from .errors import ExternalFailure, SrsubError, Unsampleable, Unverifiable
from .exprtext import parse
from .regress import RegressorSpec, SolveResult, holdout_mask, solve_pipeline
from .simplify import subexpressions
from .substitution import Dataset, reduce_truth, sympy_truth
from .symbolic import equivalent

BUNDLED_CORPORA = {
    "feynman-desk": "feynman_desk.tsv",
    "eponymous-desk": "eponymous_desk.tsv",
}


@dataclass
class Problem:
    id: str
    d: int
    f_true: ExprDag
    # optional fixed sampling box, one (lo, hi) per variable; None selects
    # the interval-growing sampler
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.f_true.arity != self.d:
            raise ValueError(f"{self.id}: formula arity {self.f_true.arity} != d {self.d}")
        if self.box is not None:
            if self.d == 0:
                raise ValueError(f"{self.id}: a formula of no variables takes no sampling box")
            if len(self.box) != self.d:
                raise ValueError(f"{self.id}: box needs one range per variable")
            if any(not lo < hi for lo, hi in self.box):
                raise ValueError(f"{self.id}: empty sampling box")


@dataclass(frozen=True)
class NoiseLevel:
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass
class Report:
    rows: list[dict]
    aggregates: dict
    traces: list[dict]

    def to_csv(self, path: str | Path) -> None:
        ok_rows = [r for r in self.rows if r.get("status") == "ok"]
        # a failed row lacks the metric columns, so take every row's keys
        fields = list(dict.fromkeys(key for row in self.rows for key in row))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
            if ok_rows:
                agg = {k: self.aggregates.get(k, "") for k in fields}
                agg["id"] = "AGGREGATE_MEAN"
                writer.writerow(agg)


def load_corpus(source: str | Path) -> list[Problem]:
    """Read problems from a corpus file or a bundled corpus name."""
    name = str(source)
    if name in BUNDLED_CORPORA:
        ref = importlib.resources.files("srsub").joinpath("data", BUNDLED_CORPORA[name])
        text = ref.read_text(encoding="utf-8")
    else:
        text = Path(source).read_text(encoding="utf-8")
    problems = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                problems.append(_problem(line))
            except (ValueError, SrsubError) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
    return problems


def _problem(line: str) -> Problem:
    """The problem on one corpus line."""
    parts = line.split("\t")
    if len(parts) not in (3, 4):
        raise ValueError("expected id<TAB>d<TAB>expression[<TAB>lo:hi]")
    pid, d_text, expr_text = parts[:3]
    d = int(d_text)
    box = None
    if len(parts) == 4:
        ranges = parts[3].split(",")
        if len(ranges) == 1:
            ranges = ranges * d
        box = tuple((float(lo), float(hi)) for lo, hi in (r.split(":") for r in ranges))
    return Problem(id=pid, d=d, f_true=parse(expr_text, arity=d), box=box)


def sample_problem(p: Problem, n: int, seed: int) -> Dataset:
    """Sample observations of a known formula: `dag.sample_finite`'s rows
    of the formula, from the problem's box or else from its growing cube.
    Raises Unsampleable when fewer than n finite rows come back.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    X, y = sample_finite(lambda pts: evaluate(p.f_true, pts), n, p.d,
                         np.random.default_rng(seed), p.box)
    if len(y) < n:
        raise Unsampleable(f"{p.id}: sampler stopped with {len(y)}/{n} finite rows")
    return Dataset.from_arrays(X, y)


def add_noise(y: np.ndarray, gamma: float, seed: int) -> np.ndarray:
    """Additive Gaussian noise with standard deviation gamma * RMS(y)."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    y = np.asarray(y, dtype=float)
    if gamma == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    scale = gamma * float(np.sqrt(np.mean(y * y)))
    return y + rng.normal(0.0, scale, size=len(y))


# -- verification of search results ---------------------------------------------


def _chain_verify(result: SearchResult, p: Problem) -> set[int]:
    """The ids of the surviving nodes whose full edge chain is valid.

    Levels are walked in order, so each node's parent (the root or a
    survivor of the previous level) is settled before the node.
    Unverifiable edges count as not verified.
    """
    # the reduced formula and symbols of every verified node
    reduced = {id(result.root): sympy_truth(p.f_true)}
    for level in result.all_levels:
        for node in level:
            parent = reduced.get(id(node.parent))
            if parent is None:
                continue
            try:
                ok, truth, symbols = reduce_truth(*parent, node.edge)
            except Unverifiable:
                continue
            if ok:
                reduced[id(node)] = (truth, symbols)
    return set(reduced)


def reduction_rate(result: SearchResult, p: Problem) -> tuple[float, bool]:
    """1 - (fewest variables over verified nodes) / (original variables).

    Only nodes whose entire edge chain verifies enter the minimum;
    `all_valid` reports whether the best-scoring path verified end to end.
    """
    stats = chain_stats(result, p)
    return stats["reduction_rate"], stats["best_path_valid"]


def chain_stats(result: SearchResult, p: Problem) -> dict:
    """Reduction rates plus verification bookkeeping for report rows."""
    verified = _chain_verify(result, p)
    d0 = result.root.dataset.d
    best_vars = d0
    best_vars_unfiltered = d0
    n_nodes = 0
    n_valid = 0
    for level in result.all_levels:
        for node in level:
            n_nodes += 1
            best_vars_unfiltered = min(best_vars_unfiltered, node.n_vars)
            if id(node) in verified:
                n_valid += 1
                best_vars = min(best_vars, node.n_vars)
    return {
        "reduction_rate": 1.0 - best_vars / d0,
        "reduction_rate_unfiltered": 1.0 - best_vars_unfiltered / d0,
        "valid_sub_fraction": (n_valid / n_nodes) if n_nodes else 1.0,
        "best_path_valid": id(result.best) in verified,
    }


# -- expression-level metrics ------------------------------------------------------


def recovery(f_true: ExprDag, f_hat: ExprDag) -> bool:
    """Symbolic equivalence up to an additive or multiplicative constant."""
    return equivalent(f_true, f_hat)


def jaccard(f_true: ExprDag, f_hat: ExprDag) -> float:
    """Overlap of the simplified subexpression sets."""
    s_true = {e.key for e in subexpressions(f_true)}
    s_hat = {e.key for e in subexpressions(f_hat)}
    union = s_true | s_hat
    if not union:
        return 1.0
    return len(s_true & s_hat) / len(union)


# -- benchmark loop ------------------------------------------------------------------


_AGGREGATE_FIELDS = (
    "reduction_rate",
    "reduction_rate_unfiltered",
    "valid_sub_fraction",
    "best_path_valid",
    "base_recovered",
    "base_nrmse",
    "base_complexity",
    "base_jaccard",
    "beam_recovered",
    "beam_nrmse",
    "beam_complexity",
    "beam_jaccard",
    "wall_time",
)


def _arm_metrics(sol: SolveResult, p: Problem) -> dict:
    return {
        "recovered": bool(recovery(p.f_true, sol.expr)),
        "nrmse": sol.nrmse_test,
        "complexity": sol.complexity,
        "jaccard": jaccard(p.f_true, sol.expr),
    }


def run_problem(p: Problem, cfg: BeamConfig, spec: RegressorSpec,
                noise: NoiseLevel, seed: int, n_samples: int = 1000,
                holdout_fraction: float = 0.2, fit_models: bool = True) -> tuple[dict, list[dict]]:
    """Both arms for one problem; returns (report row, trace records)."""
    t0 = time.monotonic()
    row: dict = {"id": p.id, "d": p.d, "status": "ok", "error": ""}
    try:
        ds = sample_problem(p, n_samples, seed)
        y_noisy = add_noise(ds.y, noise.gamma, seed + 1)
        full = Dataset.from_arrays(ds.X, y_noisy)
        mask = holdout_mask(full.n, holdout_fraction, seed + 2)
        holdout = full.restrict_rows(mask)

        result = search(full.restrict_rows(~mask), cfg)
        row.update(chain_stats(result, p))
        traces = [dict(rec, id=p.id) for rec in trace_records(result)]

        if fit_models:
            fits = solve_pipeline(result, spec, holdout)
            base = next((sol for sol in fits if sol.source_node_depth == 0), None)
            if base is None:
                raise ExternalFailure("no node of the path produced a usable model")
            base_metrics = _arm_metrics(base, p)
            beam_metrics = base_metrics if fits[0] is base else _arm_metrics(fits[0], p)
            for tag, metrics in (("base", base_metrics), ("beam", beam_metrics)):
                for key, value in metrics.items():
                    row[f"{tag}_{key}"] = value
            row["beam_depth"] = fits[0].source_node_depth
    except Exception as exc:  # per-problem failures become rows, never aborts
        row["status"] = type(exc).__name__
        row["error"] = str(exc)[:200]
        traces = []
    row["wall_time"] = time.monotonic() - t0
    return row, traces


def _run_problem_star(args) -> tuple[dict, list[dict]]:
    return run_problem(*args)


def _run_pooled(tasks: list[tuple], workers: int) -> list[tuple[dict, list[dict]]]:
    """`_run_problem_star` over `tasks` on `workers` processes, in task order.

    A worker that dies breaks the pool and every task still in it.  Each
    task left without a result then runs alone in a fresh one-worker pool,
    and a task that breaks that pool too becomes a row with status
    `BrokenProcessPool`.
    """
    outcomes: list = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_problem_star, task) for task in tasks]
        for i, future in enumerate(futures):
            try:
                outcomes[i] = future.result()
            except BrokenProcessPool:
                pass
    for i, task in enumerate(tasks):
        if outcomes[i] is None:
            outcomes[i] = _run_alone(task)
    return outcomes


def _run_alone(task: tuple) -> tuple[dict, list[dict]]:
    t0 = time.monotonic()
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_run_problem_star, task).result()
        except BrokenProcessPool as exc:
            p = task[0]
            row = {"id": p.id, "d": p.d, "status": type(exc).__name__,
                   "error": str(exc)[:200], "wall_time": time.monotonic() - t0}
            return row, []


def run_benchmark(problems: Sequence[Problem], cfg: BeamConfig, spec: RegressorSpec,
                  noise: NoiseLevel, seed: int, n_samples: int = 1000,
                  holdout_fraction: float = 0.2, fit_models: bool = True,
                  workers: int = 1) -> Report:
    """Evaluate every problem with a per-problem derived seed.

    Failures are recorded as rows with a status, never aborting the run;
    a problem whose worker process dies is a `BrokenProcessPool` row (see
    `_run_pooled`).  Aggregates are the means of the ok rows.  Deterministic
    per seed, independent of the worker count.  Raises ValueError before
    any problem runs when `n_samples` < 1 or `holdout_fraction` is outside
    (0, 1).
    """
    if n_samples < 1:
        raise ValueError("n must be >= 1")
    if not 0 < holdout_fraction < 1:
        raise ValueError("holdout fraction must be in (0, 1)")
    seeds = [seed + 1000 * i for i in range(len(problems))]
    tasks = [
        (p, cfg, spec, noise, s, n_samples, holdout_fraction, fit_models)
        for p, s in zip(problems, seeds)
    ]
    if workers > 1 and len(problems) > 1:
        outcomes = _run_pooled(tasks, workers)
    else:
        outcomes = [_run_problem_star(t) for t in tasks]
    rows = [row for row, _ in outcomes]
    traces = [rec for _, recs in outcomes for rec in recs]
    ok = [r for r in rows if r["status"] == "ok"]
    aggregates: dict = {"n_problems": len(rows), "n_ok": len(ok)}
    for key in _AGGREGATE_FIELDS:
        vals = [float(r[key]) for r in ok if key in r]
        if vals:
            aggregates[key] = float(np.mean(vals))
    return Report(rows=rows, aggregates=aggregates, traces=traces)
