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
import sys
import tempfile
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .beamsearch import SearchResult, reconstruct
from .dag import Compiled, DagBuilder, ExprDag, bind_placeholders, evaluate
from .errors import DegenerateY, ExternalFailure, IllConditionedWarning, NotSolvable
from .exprtext import parse
from .grammar import GrammarBudget, enumerate_dags
from .simplify import complexity
from .substitution import Dataset

NONFINITE_PENALTY = 10.0
# fit_dagsearch refines the constants of this many best skeletons
REFINE_TOP = 200
# fit_poly fits every monomial of total degree up to this
POLY_DEGREE = 2
# fit_external stops the command after this many seconds
EXTERNAL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class RegressorSpec:
    kind: str = "poly"  # poly | dagsearch | external
    max_intermediary_nodes: int = 2
    max_skeletons: int = 10_000
    command: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "dagsearch", "external"):
            raise ValueError(f"unknown regressor kind {self.kind!r}")
        if self.kind == "dagsearch" and (self.max_intermediary_nodes < 1 or self.max_skeletons < 1):
            raise ValueError("dagsearch budgets must be >= 1")
        if self.kind == "external" and "{csv}" not in (self.command or ""):
            raise ValueError("external regressor needs a command template with {csv}")


@dataclass
class SolveResult:
    """One node's fit: the model in the original coordinates, its test NRMSE
    and complexity, and the depth of the path node it was fitted at."""

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
    with np.errstate(all="ignore"):
        total = float(np.add.reduce(y * y))
        if _all_zero(y, total):
            raise DegenerateY("zero output norm")
        return _nrmse(y, yhat, total)


def _all_zero(y: np.ndarray, total: float) -> bool:
    """Whether y is all zeros, given total = sum(y * y).  A y with nonzero
    entries can still underflow total to 0."""
    return total == 0.0 and not y.any()


def _nrmse(y: np.ndarray, yhat: np.ndarray, total: float) -> float:
    """`nrmse` of flat float arrays given total = sum(y * y); y is not all
    zeros.  Call it under `np.errstate(all="ignore")`."""
    if not sys.float_info.min <= total < math.inf:
        # sum(y * y) overflowed or fell below the normal range; the ratio
        # does not depend on the scale of y
        scale = float(np.max(np.abs(y)))
        y, yhat = y / scale, yhat / scale
        total = float(np.add.reduce(y * y))
    sq = (y - yhat) ** 2
    err = np.add.reduce(sq)
    # a finite sum has only finite terms; a non-finite one has a non-finite
    # term or overflowed
    if not math.isfinite(err):
        finite = np.isfinite(sq)
        if not finite.all():
            err = np.add.reduce(np.where(finite, sq, NONFINITE_PENALTY * NONFINITE_PENALTY
                                         * total / len(y)))
    return float(np.sqrt(err / total))


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


def fit_poly(ds: Dataset) -> ExprDag:
    """Least squares over all monomials of total degree <= POLY_DEGREE.

    Coefficients below 1e-8 of the largest are pruned.  A numerically
    singular system falls back to a ridge solve (1e-10) and warns.
    """
    X, y = ds.X, ds.y
    exps = _monomial_exponents(ds.d, POLY_DEGREE)
    if ds.n <= len(exps):
        raise ValueError(f"need more than {len(exps)} rows for degree {POLY_DEGREE}")
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
    key = (arity, budget, cap)
    if key not in _skeleton_cache:
        gen = enumerate_dags(arity, budget)
        _skeleton_cache[key] = tuple(itertools.islice(gen, cap))
    return _skeleton_cache[key]


def _fit_error(y: np.ndarray, pred: np.ndarray, total: float) -> float:
    """The fit objective: `nrmse`, or the penalty when y is all zeros."""
    return NONFINITE_PENALTY if _all_zero(y, total) else _nrmse(y, pred, total)


def _fit_constants(f: Compiled, y: np.ndarray, total: float) -> tuple[np.ndarray, float]:
    """Fit the placeholders of the compiled skeleton `f` by one
    finite-difference Gauss-Newton step from 1.0; (theta, error), where
    theta stays at 1.0 unless the step lowers the error.

    `total` is sum(y * y).  Call it under `np.errstate(all="ignore")`.
    """
    k = len(f.names)
    theta = np.ones(k)
    pred0 = f(theta)
    best = _fit_error(y, pred0, total)
    if not np.isfinite(pred0).all():
        return theta, best
    # linearization step
    try:
        eps = 1e-6
        J = np.empty((len(y), k))
        for j in range(k):
            tj = theta.copy()
            tj[j] += eps
            pj = f(tj)
            if not np.isfinite(pj).all():
                return theta, best
            J[:, j] = (pj - pred0) / eps
        step, *_ = np.linalg.lstsq(J, y - pred0, rcond=None)
        cand = theta + step
        val = _fit_error(y, f(cand), total)
        if np.isfinite(val) and val < best:
            theta, best = cand, val
    except (ValueError, FloatingPointError):
        pass
    return theta, best


def _refine_constants(f: Compiled, y: np.ndarray, total: float, theta: np.ndarray,
                      best: float) -> tuple[np.ndarray, float]:
    """Bounded Nelder-Mead over the placeholders of the compiled skeleton
    `f` from `_fit_constants`' (theta, best); the simplex result replaces
    them only when its error is lower.  Call it under
    `np.errstate(all="ignore")`."""

    def objective(t: np.ndarray) -> float:
        return _fit_error(y, f(t), total)

    res = minimize(objective, theta, method="Nelder-Mead",
                   options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12})
    if np.isfinite(res.fun) and res.fun < best:
        return res.x, float(res.fun)
    return theta, best


def fit_dagsearch(ds: Dataset, budget: GrammarBudget | None = None,
                  max_skeletons: int = 10_000) -> ExprDag:
    """Enumerate dag skeletons with constant placeholders, fit the constants,
    refine those of the `REFINE_TOP` best skeletons, and return the
    minimum-NRMSE expression (ties to lower complexity).

    The worst case is the constant model y = mean.
    """
    if ds.n < 20:
        raise ValueError("need at least 20 rows")
    if budget is None:
        budget = GrammarBudget(max_intermediary_nodes=2, allow_constants=True)
    X, y = ds.X, ds.y
    skeletons = _skeletons(ds.d, budget, max_skeletons)
    # one errstate for both passes; each skeleton is compiled once per pass,
    # and a first-pass program is dropped after its fit
    with np.errstate(all="ignore"):
        total = float(np.add.reduce(y * y))
        b = DagBuilder()
        const_model = b.extract(b.const(float(np.mean(y))), ds.d)
        best_err = _fit_error(y, np.full(ds.n, float(np.mean(y))), total)
        best_expr = const_model

        # (error, skeleton position, fitted constants or None without placeholders)
        candidates: list[tuple[float, int, np.ndarray | None]] = []
        for pos, skel in enumerate(skeletons):
            names = skel.placeholders()
            if not names:
                if _all_zero(y, total):
                    continue
                candidates.append((_nrmse(y, Compiled(skel, X, names)(()), total), pos, None))
            else:
                theta, err = _fit_constants(Compiled(skel, X, names), y, total)
                candidates.append((err, pos, theta))

        candidates.sort(key=lambda item: (item[0], item[1]))
        for err, pos, theta in candidates[:REFINE_TOP]:
            expr = skeletons[pos]
            if theta is not None:
                names = expr.placeholders()
                theta, err = _refine_constants(Compiled(expr, X, names), y, total, theta, err)
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
    """Write the dataset as CSV, run the command template with its `{csv}`
    replaced by the file's path, and parse the first non-empty stdout line
    as an expression.  Other braces in the template pass through."""
    fd, path = tempfile.mkstemp(suffix=".csv", prefix="srsub_")
    os.close(fd)
    try:
        write_csv(path, ds.X, ds.y)
        cmd = spec.command.replace("{csv}", path)
        try:
            proc = subprocess.run(
                cmd, shell=True, capture_output=True, text=True, timeout=EXTERNAL_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:
            raise ExternalFailure(f"external regressor timed out after {EXTERNAL_TIMEOUT_S}s") from exc
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


def solve_pipeline(result: SearchResult, spec: RegressorSpec, holdout: Dataset) -> list[SolveResult]:
    """Fit the regressor at every node on the best path and reconstruct each
    solution to the original coordinates; the fits, best first.

    The list holds one entry per node that yields a usable model, in
    ascending test NRMSE and in path order among equal errors, so `[0]` is
    the earliest node with the least error.  `holdout` holds the test rows
    of the problem's sample, as `restrict_rows` of the full or root dataset,
    and its `X` and `y` are the test data; a holdout with substituted
    columns raises ValueError.  Each node is fitted on its rows minus the
    holdout rows, so no fit sees a test row; a node left with fewer than 3
    rows is skipped.
    """
    if holdout.d != holdout.d_original:
        raise ValueError("holdout must be rows of the original, unsubstituted dataset")
    fits: list[SolveResult] = []
    for node in result.best_path:
        train = ~np.isin(node.dataset.origin_rows, holdout.origin_rows)
        if train.sum() < 3:
            continue
        try:
            sol = fit(node.dataset.restrict_rows(train), spec)
            expr = reconstruct(node.dataset, sol)
            err = nrmse(holdout.y, evaluate(expr, holdout.X))
        except (NotSolvable, DegenerateY, ExternalFailure, ValueError):
            continue
        fits.append(SolveResult(expr=expr, nrmse_test=err, complexity=complexity(expr),
                                source_node_depth=node.depth))
    if not fits:
        raise ExternalFailure("no node of the path produced a usable model")
    fits.sort(key=lambda sol: sol.nrmse_test)  # stable: path order among ties
    return fits
