"""Symbolic regressors for reduced problems.

Three backends: least-squares polynomial regression up to a degree bound, a
skeleton-enumeration regressor that reuses the dag grammar with fitted
constant placeholders, and a subprocess bridge that feeds CSV to an external
command and parses one expression line from its stdout.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .beamsearch import SearchResult, reconstruct
from .dag import DagBuilder, ExprDag, bind_placeholders, evaluate
from .errors import DegenerateY, ExternalFailure, IllConditionedWarning, NotSolvable
from .exprtext import parse
from .grammar import GrammarBudget, enumerate_dags
from .simplify import complexity
from .substitution import Dataset

NONFINITE_PENALTY = 10.0


@dataclass(frozen=True)
class RegressorSpec:
    kind: str = "poly"  # poly | dagsearch | external
    max_intermediary_nodes: int = 2
    max_skeletons: int = 10_000
    command: str | None = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "dagsearch", "external"):
            raise ValueError(f"unknown regressor kind {self.kind!r}")
        if self.kind == "dagsearch" and (self.max_intermediary_nodes < 1 or self.max_skeletons < 1):
            raise ValueError("dagsearch budgets must be >= 1")
        if self.kind == "external" and not self.command:
            raise ValueError("external regressor needs a command template")


@dataclass
class SolveResult:
    expr: ExprDag
    nrmse_test: float
    complexity: int
    source_node_depth: int = 0


def nrmse(y: np.ndarray, yhat: np.ndarray) -> float:
    """Root-mean-square error normalized by the root-mean-square of y.

    Rows with non-finite predictions (or non-finite squared error) contribute
    NONFINITE_PENALTY^2 * mean(y^2) each, so diverging models stay on a
    finite scale.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        total = float(np.sum(y * y))
    if total == 0.0:
        raise DegenerateY("zero output norm")
    return _nrmse(y, yhat, total)


def _nrmse(y: np.ndarray, yhat: np.ndarray, total: float) -> float:
    """`nrmse` of flat float arrays given total = sum(y * y), which is not 0."""
    if not math.isfinite(total):
        # sum(y * y) overflowed; the ratio does not depend on the scale of y
        scale = float(np.max(np.abs(y)))
        y, yhat = y / scale, yhat / scale
        total = float(np.sum(y * y))
    with np.errstate(all="ignore"):
        sq = (y - yhat) ** 2
    finite = np.isfinite(sq)
    if not finite.all():
        sq = np.where(finite, sq, NONFINITE_PENALTY * NONFINITE_PENALTY * total / len(y))
    return float(np.sqrt(np.sum(sq) / total))


# -- polynomial regression -----------------------------------------------------


def _monomial_exponents(d: int, max_degree: int) -> list[tuple[int, ...]]:
    exps = []
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), total):
            e = [0] * d
            for j in combo:
                e[j] += 1
            exps.append(tuple(e))
    return exps


def _design_matrix(X: np.ndarray, exps: Sequence[tuple[int, ...]]) -> np.ndarray:
    cols = []
    for e in exps:
        col = np.ones(len(X))
        for j, p in enumerate(e):
            if p:
                col = col * X[:, j] ** p
        cols.append(col)
    return np.column_stack(cols)


def fit_poly(ds: Dataset, max_degree: int = 2) -> ExprDag:
    """Least squares over all monomials of total degree <= max_degree.

    Coefficients below 1e-8 of the largest are pruned.  A numerically
    singular system falls back to a ridge solve (1e-10) and warns.
    """
    X, y = ds.X, ds.y
    exps = _monomial_exponents(ds.d, max_degree)
    if ds.n <= len(exps):
        raise ValueError(f"need more than {len(exps)} rows for degree {max_degree}")
    A = _design_matrix(X, exps)
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        warnings.warn("singular normal system; ridge fallback", IllConditionedWarning)
        AtA = A.T @ A + 1e-10 * np.eye(A.shape[1])
        coef = np.linalg.solve(AtA, A.T @ y)
    keep = np.abs(coef) >= 1e-8 * np.max(np.abs(coef)) if np.any(coef) else np.zeros(len(coef), bool)
    b = DagBuilder()
    terms = []
    for c, e, used in zip(coef, exps, keep):
        if not used:
            continue
        factors = [b.const(float(c))]
        for j, p in enumerate(e):
            for _ in range(p):
                factors.append(b.var(j))
        node = factors[0]
        for f in factors[1:]:
            node = b.binary("*", node, f)
        terms.append(node)
    if not terms:
        return b.extract(b.const(0.0), ds.d)
    node = terms[0]
    for t in terms[1:]:
        node = b.binary("+", node, t)
    return b.extract(node, ds.d)


# -- dag skeleton search ---------------------------------------------------------


_skeleton_cache: dict[tuple, tuple[ExprDag, ...]] = {}


def _skeletons(arity: int, budget: GrammarBudget, cap: int) -> tuple[ExprDag, ...]:
    key = (arity, budget.max_intermediary_nodes, tuple(sorted(budget.allowed_ops)), cap)
    if key not in _skeleton_cache:
        gen = enumerate_dags(arity, budget)
        _skeleton_cache[key] = tuple(itertools.islice(gen, cap))
    return _skeleton_cache[key]


def _fit_error(y: np.ndarray, pred: np.ndarray, total: float) -> float:
    """The fit objective: `nrmse`, or the penalty when y is all zeros."""
    return NONFINITE_PENALTY if total == 0.0 else _nrmse(y, pred, total)


def _fit_constants(dag: ExprDag, names: list[str], X: np.ndarray, y: np.ndarray,
                   total: float) -> tuple[np.ndarray, float]:
    """Fit placeholders by one finite-difference Gauss-Newton step from 1.0;
    (theta, error), where theta stays at 1.0 unless the step lowers the error.

    `total` is sum(y * y).
    """
    theta = np.ones(len(names))
    pred0 = evaluate(dag, X, dict(zip(names, theta)))
    best = _fit_error(y, pred0, total)
    if not np.isfinite(pred0).all():
        return theta, best
    # linearization step
    try:
        eps = 1e-6
        J = np.empty((len(y), len(names)))
        for j in range(len(names)):
            tj = theta.copy()
            tj[j] += eps
            pj = evaluate(dag, X, dict(zip(names, tj)))
            if not np.isfinite(pj).all():
                return theta, best
            J[:, j] = (pj - pred0) / eps
        step, *_ = np.linalg.lstsq(J, y - pred0, rcond=None)
        cand = theta + step
        val = _fit_error(y, evaluate(dag, X, dict(zip(names, cand))), total)
        if np.isfinite(val) and val < best:
            theta, best = cand, val
    except (ValueError, FloatingPointError):
        pass
    return theta, best


def _refine_constants(dag: ExprDag, names: list[str], X: np.ndarray, y: np.ndarray,
                      total: float, theta: np.ndarray, best: float) -> tuple[np.ndarray, float]:
    """Bounded Nelder-Mead from `_fit_constants`' (theta, best); the simplex
    result replaces them only when its error is lower."""

    def objective(t: np.ndarray) -> float:
        return _fit_error(y, evaluate(dag, X, dict(zip(names, t))), total)

    res = minimize(objective, theta, method="Nelder-Mead",
                   options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12})
    if np.isfinite(res.fun) and res.fun < best:
        return res.x, float(res.fun)
    return theta, best


def fit_dagsearch(ds: Dataset, budget: GrammarBudget | None = None,
                  max_skeletons: int = 10_000, refine_top: int = 200) -> ExprDag:
    """Enumerate dag skeletons with constant placeholders, fit the constants,
    and return the minimum-NRMSE expression (ties to lower complexity).

    The worst case is the constant model y = mean.
    """
    if ds.n < 20:
        raise ValueError("need at least 20 rows")
    if budget is None:
        budget = GrammarBudget(max_intermediary_nodes=2, allow_constants=True)
    X, y = ds.X, ds.y
    with np.errstate(over="ignore"):
        total = float(np.sum(y * y))

    b = DagBuilder()
    const_model = b.extract(b.const(float(np.mean(y))), ds.d)
    best_err = _fit_error(y, np.full(ds.n, float(np.mean(y))), total)
    best_expr = const_model

    # (error, skeleton position, fitted constants or None without placeholders)
    skeletons = _skeletons(ds.d, budget, max_skeletons)
    candidates: list[tuple[float, int, np.ndarray | None]] = []
    for pos, skel in enumerate(skeletons):
        names = skel.placeholders()
        if not names:
            if total == 0.0:
                continue
            candidates.append((_nrmse(y, evaluate(skel, X), total), pos, None))
        else:
            theta, err = _fit_constants(skel, names, X, y, total)
            candidates.append((err, pos, theta))

    candidates.sort(key=lambda item: (item[0], item[1]))
    for err, pos, theta in candidates[:refine_top]:
        expr = skeletons[pos]
        if theta is not None:
            names = expr.placeholders()
            theta, err = _refine_constants(expr, names, X, y, total, theta, err)
            expr = bind_placeholders(expr, dict(zip(names, theta)))
        if err < best_err - 1e-15 or (
            abs(err - best_err) <= 1e-15 and complexity(expr) < complexity(best_expr)
        ):
            best_err, best_expr = err, expr
    return best_expr


# -- external bridge -------------------------------------------------------------


def write_csv(path: str | os.PathLike, X: np.ndarray, y: np.ndarray) -> None:
    d = X.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(d)] + ["y"])
    data = np.column_stack([X, y])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def fit_external(ds: Dataset, spec: RegressorSpec) -> ExprDag:
    """Write the dataset as CSV, run the command template, and parse the
    first non-empty stdout line as an expression."""
    if spec.command is None:
        raise ValueError("external regressor needs a command")
    fd, path = tempfile.mkstemp(suffix=".csv", prefix="srsub_")
    os.close(fd)
    try:
        write_csv(path, ds.X, ds.y)
        cmd = spec.command.format(csv=path) if "{csv}" in spec.command else f"{spec.command} {path}"
        try:
            proc = subprocess.run(
                cmd, shell=True, capture_output=True, text=True, timeout=spec.timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise ExternalFailure(f"external regressor timed out after {spec.timeout}s") from exc
        if proc.returncode != 0:
            raise ExternalFailure(f"external regressor exited {proc.returncode}: {proc.stderr.strip()[:200]}")
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line:
                try:
                    return parse(line, arity=ds.d)
                except Exception as exc:
                    raise ExternalFailure(f"cannot parse output line {line!r}") from exc
        raise ExternalFailure("external regressor produced no output")
    finally:
        os.unlink(path)


def fit(ds: Dataset, spec: RegressorSpec) -> ExprDag:
    if spec.kind == "poly":
        return fit_poly(ds)
    if spec.kind == "dagsearch":
        budget = GrammarBudget(max_intermediary_nodes=spec.max_intermediary_nodes,
                               allow_constants=True)
        return fit_dagsearch(ds, budget, spec.max_skeletons)
    return fit_external(ds, spec)


# -- end-to-end pipeline ----------------------------------------------------------


def holdout_mask(n: int, fraction: float, seed: int) -> np.ndarray:
    """Deterministic boolean test mask with max(1, round(fraction * n)) rows."""
    if not 0 < fraction < 1:
        raise ValueError("holdout fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=k, replace=False)] = True
    return mask


def solve_pipeline(result: SearchResult, spec: RegressorSpec, holdout: Dataset) -> SolveResult:
    """Fit the regressor at every node on the best path, reconstruct each
    solution to the original coordinates, and keep the minimum test NRMSE.

    `holdout` holds the test rows of the problem's sample, as
    `restrict_rows` of the full or root dataset; its original coordinates
    are the test data.  Each node is fitted on its rows minus the holdout
    rows, so no fit sees a test row; a node left with fewer than 3 rows is
    skipped.
    """
    best: SolveResult | None = None
    for i, node in enumerate(result.best_path):
        train = ~np.isin(node.dataset.origin_rows, holdout.origin_rows)
        if train.sum() < 3:
            continue
        try:
            sol = fit(node.dataset.restrict_rows(train), spec)
            expr = reconstruct(result.best_path[:i + 1], sol)
            err = nrmse(holdout.origin_y, evaluate(expr, holdout.origin_X))
        except (NotSolvable, DegenerateY, ExternalFailure, ValueError):
            continue
        if best is None or err < best.nrmse_test:
            best = SolveResult(expr=expr, nrmse_test=err,
                               complexity=complexity(expr),
                               source_node_depth=node.depth)
    if best is None:
        raise ExternalFailure("no node of the path produced a usable model")
    return best
