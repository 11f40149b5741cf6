"""Symbolic regressors for reduced problems.

Three backends: least-squares polynomial regression up to a degree bound, a
skeleton-enumeration regressor that reuses the dag grammar with fitted
constant placeholders, and a subprocess bridge that feeds CSV to an external
command and parses one expression line from its stdout.

The skeleton regressor reads its stream from one `SkeletonTable` per
(arity, budget, cap), built once per process.  The table interns every
placeholder-free node of the stream once, so a fit computes each of them
once, when the stream first reads it, and drops it after its last reader.
Each skeleton's program then computes only its placeholder-reading nodes
for the first-pass fit of its constants.  The best `REFINE_TOP` are rebuilt
as `ExprDag`s, compiled, and refined by `minimize`, a Nelder-Mead that takes
scipy's exact steps.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tempfile
import warnings
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .beamsearch import SearchResult, reconstruct
from .dag import (OPS, Compiled, Const, DagBuilder, ExprDag, Program, Unary, Var, bind_placeholders,
                  evaluate)
from .errors import DegenerateY, ExternalFailure, IllConditionedWarning, NotSolvable
from .exprtext import parse
from .grammar import GrammarBudget, enumerate_dags
from .simplify import complexity
from .substitution import Dataset

NONFINITE_PENALTY = 10.0
# fit_dagsearch refines the constants of this many best skeletons
REFINE_TOP = 200
# fit_dagsearch's default skeleton budget: operator nodes and how many skeletons
DAGSEARCH_NODES = 2
DAGSEARCH_SKELETONS = 10_000
# fit_poly fits every monomial of total degree up to this
POLY_DEGREE = 2
# fit_external stops the command after this many seconds
EXTERNAL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class RegressorSpec:
    kind: str = "poly"  # poly | dagsearch | external
    max_intermediary_nodes: int = DAGSEARCH_NODES
    max_skeletons: int = DAGSEARCH_SKELETONS
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
    sq = y - yhat
    sq *= sq
    err = np.add.reduce(sq)
    # a finite sum has only finite terms; a non-finite one has a non-finite
    # term or overflowed
    if not math.isfinite(err):
        finite = np.isfinite(sq)
        if not finite.all():
            err = np.add.reduce(np.where(finite, sq, NONFINITE_PENALTY * NONFINITE_PENALTY
                                         * total / len(y)))
    return math.sqrt(err / total)


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


# node codes of a skeleton table: an operator's position in OPS, or a leaf
_OP_NAMES = tuple(OPS)
_OP_CODES = {name: code for code, name in enumerate(_OP_NAMES)}
_OP_FNS = tuple(OPS[name].numpy for name in _OP_NAMES)
_BINARY = tuple(OPS[name].arity == 2 for name in _OP_NAMES)
_VAR = len(_OP_NAMES)
_PARAM = _VAR + 1


class SkeletonTable(Sequence):
    """A skeleton stream as flat integer arrays that do not depend on X.

    As a sequence it is the stream of `ExprDag`s, each rebuilt when it is
    read.  Per node of each skeleton, in storage order, it keeps a code (an
    op, `_VAR` or `_PARAM`), two operands (a variable index or child
    positions) and the node's id in the stream's table of placeholder-free
    nodes, or -1 for a node that reads a placeholder.  That table interns
    each placeholder-free node once across the stream: ids below the arity
    are the variables, and every later id is an op over smaller ids.
    `programs(X)` computes each of them once, in the order the stream first
    reads them.

    A skeleton is what `enumerate_dags` yields: variables, placeholders
    named c0, c1, ... in storage order, and ops whose root is the last node;
    a placeholder is only ever a binary op's operand beside a non-constant,
    so `Compiled` spreads no constant to a column for it.
    """

    def __init__(self, dags: Iterable[ExprDag], arity: int) -> None:
        self.arity = arity
        code, left, right, ids = array("B"), array("H"), array("H"), array("i")
        starts = array("i", [0])
        # the placeholder-free nodes: code and operand ids, the variables first
        free_code = array("B", [_VAR] * arity)
        free_left, free_right = array("i", range(arity)), array("i", [-1] * arity)
        interned: dict[tuple[int, int, int], int] = {}
        # per placeholder-free node, the first and the last skeleton that
        # reads it
        first, last = [-1] * arity, [-1] * arity

        def read(g: int, pos: int) -> None:
            if first[g] < 0:
                first[g] = pos
            last[g] = pos

        for pos, dag in enumerate(dags):
            if dag.arity != arity or dag.root != len(dag.nodes) - 1:
                raise ValueError("not a skeleton of this stream")
            base = len(ids)
            n_params = 0
            for node in dag.nodes:
                kind = type(node)
                if kind is Var:
                    c, a, b, gid = _VAR, node.index, 0, node.index
                elif kind is Const:
                    if node.value is not None or node.name != f"c{n_params}":
                        raise ValueError("a skeleton's constants are placeholders c0, c1, ... "
                                         "in storage order")
                    c, a, b, gid = _PARAM, 0, 0, -1
                    n_params += 1
                else:
                    c = _OP_CODES[node.op]
                    if kind is Unary:
                        a, b = node.child, 0
                        ga, gb = ids[base + a], -1
                        if code[base + a] == _PARAM:
                            raise ValueError("a unary op on a placeholder")
                    else:
                        a, b = node.left, node.right
                        ga, gb = ids[base + a], ids[base + b]
                        if code[base + a] == _PARAM and code[base + b] == _PARAM:
                            raise ValueError("a binary op on two placeholders")
                    if ga >= 0 and (gb >= 0 or kind is Unary):
                        key = (c, ga, gb)
                        gid = interned.get(key, -1)
                        if gid < 0:
                            gid = interned[key] = len(free_code)
                            free_code.append(c)
                            free_left.append(ga)
                            free_right.append(gb)
                            first.append(-1)
                            last.append(-1)
                    else:
                        # a placeholder-reading step reads its other operands
                        gid = -1
                        for g in (ga, gb):
                            if g >= 0:
                                read(g, pos)
                code.append(c)
                left.append(a)
                right.append(b)
                ids.append(gid)
            if ids[-1] >= 0:  # a constant-free skeleton reads its root
                read(ids[-1], pos)
            starts.append(len(ids))
        self._code, self._left, self._right, self._ids = code, left, right, ids
        self._starts = starts
        self._free = (free_code, free_left, free_right)
        # a node is computed when its first reader needs it and dropped
        # after its last reader; a parent, whose id is larger, reads its
        # operands when it is computed
        for g in range(len(free_code) - 1, arity - 1, -1):
            for child in (free_left[g], free_right[g]):
                if child >= arity:
                    if first[child] < 0 or first[g] < first[child]:
                        first[child] = first[g]
                    last[child] = max(last[child], first[g])
        count = len(starts) - 1
        self._compute = _grouped(first[arity:], arity, count)
        self._drop = _grouped(last[arity:], arity, count)

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, index: int | slice) -> ExprDag | list[ExprDag]:
        if isinstance(index, slice):
            return [self[pos] for pos in range(*index.indices(len(self)))]
        pos = range(len(self))[index]
        # the nodes were built canonically, so a builder adds them unchanged
        builder = DagBuilder()
        nids: list[int] = []
        n_params = 0
        for i in range(self._starts[pos], self._starts[pos + 1]):
            c, a, b = self._code[i], self._left[i], self._right[i]
            if c == _VAR:
                nids.append(builder.var(a))
            elif c == _PARAM:
                nids.append(builder.param(f"c{n_params}"))
                n_params += 1
            elif _BINARY[c]:
                nids.append(builder.binary(_OP_NAMES[c], nids[a], nids[b]))
            else:
                nids.append(builder.unary(_OP_NAMES[c], nids[a]))
        return builder.extract(nids[-1], self.arity)

    def programs(self, X: np.ndarray) -> Iterator[Program]:
        """Each skeleton on the (n, d) matrix `X`, d >= the arity, as a
        function of its placeholders, in stream order: `Compiled`'s values,
        bit for bit.

        A program is valid until the next one is drawn: every
        placeholder-free node is computed before its first reader is
        yielded and dropped once its last reader is done.  Call it under
        the `np.errstate` the values should be computed with.
        """
        X = np.asarray(X, dtype=float)
        free_code, free_left, free_right = self._free
        vals: list = [X[:, i] for i in range(self.arity)]
        vals += [None] * (len(free_code) - self.arity)
        compute, compute_starts = self._compute
        drop, drop_starts = self._drop
        code, left, right, ids = self._code, self._left, self._right, self._ids
        starts = self._starts
        for pos in range(len(starts) - 1):
            for j in range(compute_starts[pos], compute_starts[pos + 1]):
                g = compute[j]
                c, a, b = free_code[g], free_left[g], free_right[g]
                vals[g] = _OP_FNS[c](vals[a], vals[b]) if _BINARY[c] else _OP_FNS[c](vals[a])
            lo, hi = starts[pos], starts[pos + 1]
            root = ids[hi - 1]
            if root >= 0:
                yield Program((), [vals[root]], (), (), 0)
            else:
                regs: list = [None] * (hi - lo)
                params = []
                steps = []
                for i in range(lo, hi):
                    if ids[i] >= 0:
                        continue
                    c = code[i]
                    if c == _PARAM:
                        params.append((i - lo, len(params)))
                        continue
                    a, b = left[i], right[i]
                    if ids[lo + a] >= 0:
                        regs[a] = vals[ids[lo + a]]
                    if not _BINARY[c]:
                        b = None
                    elif ids[lo + b] >= 0:
                        regs[b] = vals[ids[lo + b]]
                    steps.append((i - lo, _OP_FNS[c], a, b))
                names = [f"c{j}" for j in range(len(params))]
                yield Program(names, regs, params, steps, hi - lo - 1)
            for j in range(drop_starts[pos], drop_starts[pos + 1]):
                vals[drop[j]] = None


def _grouped(owner: list[int], offset: int, count: int) -> tuple[array, array]:
    """The ids `offset + i`, grouped by `owner[i]` in 0..count-1 and ascending
    within a group, and the start of each group: (ids, starts)."""
    sizes = [0] * (count + 1)
    for o in owner:
        sizes[o + 1] += 1
    starts = array("i", itertools.accumulate(sizes))
    fill = list(starts[:-1])
    ids = array("i", [0]) * len(owner)
    for i, o in enumerate(owner):
        ids[fill[o]] = offset + i
        fill[o] += 1
    return ids, starts


@cache
def _skeletons(arity: int, budget: GrammarBudget, cap: int) -> SkeletonTable:
    """The first `cap` skeletons of the grammar as one table; built once
    per process."""
    return SkeletonTable(itertools.islice(enumerate_dags(arity, budget), cap), arity)


def _fit_constants(f: Program, y: np.ndarray, total: float) -> tuple[np.ndarray, float]:
    """Fit the placeholders of the skeleton program `f` by one
    finite-difference Gauss-Newton step from 1.0; (theta, error), where
    theta stays at 1.0 unless the step lowers the error.

    `total` is sum(y * y), and y is not all zeros.  Call it under
    `np.errstate(all="ignore")`.
    """
    k = len(f.names)
    theta = np.ones(k)
    pred0 = f(theta)
    best = _nrmse(y, pred0, total)
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
        val = _nrmse(y, f(cand), total)
        if math.isfinite(val) and val < best:
            theta, best = cand, val
    except (ValueError, FloatingPointError):
        pass
    return theta, best


# Nelder-Mead as scipy 1.17 runs it with method="Nelder-Mead" and options
# {"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12}: reflection, expansion,
# contraction and shrink coefficients, the start simplex's relative and
# absolute steps, and no cap on evaluations
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
REFINE_MAXITER = 200
REFINE_XATOL = 1e-10
REFINE_FATOL = 1e-12


@dataclass(frozen=True)
class Minimum:
    """Where `minimize` stopped: the best vertex, its value (nan if any
    vertex's value is nan) and how many times the objective was called."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun: Callable[[list[float]], float], x0: Sequence[float]) -> Minimum:
    """Nelder-Mead from `x0`, step for step and bit for bit the simplex
    scipy 1.17 walks with the settings above.

    `fun` takes a list of floats, which it must leave as it is.  The
    arithmetic is scipy's, done on Python floats, which round as numpy's
    float64 does; the vertices are ordered by `np.argsort` after every
    iteration, as scipy orders them, so equal values keep scipy's order too
    (numpy's sort is not stable).
    """
    start = np.asarray(x0, dtype=float).reshape(-1).tolist()
    n = len(start)
    sim = [start]
    for k in range(n):
        vertex = list(start)
        vertex[k] = (1 + _NONZDELT) * vertex[k] if vertex[k] != 0 else _ZDELT
        sim.append(vertex)
    fsim = [float(fun(vertex)) for vertex in sim]
    nfev = n + 1
    # scipy orders the start simplex twice
    for _ in range(2):
        sim, fsim = _ordered(sim, fsim)

    iterations = 1
    while iterations < REFINE_MAXITER:
        best, worst = sim[0], sim[-1]
        if all(abs(v - b) <= REFINE_XATOL for vertex in sim[1:] for v, b in zip(vertex, best)) \
                and all(abs(fsim[0] - f) <= REFINE_FATOL for f in fsim[1:]):
            break
        xbar = []
        for j in range(n):
            total = 0.0
            for vertex in sim[:-1]:
                total += vertex[j]
            xbar.append(total / n)
        xr = [(1 + _RHO) * c - _RHO * w for c, w in zip(xbar, worst)]
        fxr = float(fun(xr))
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = [(1 + _RHO * _CHI) * c - _RHO * _CHI * w for c, w in zip(xbar, worst)]
            fxe = float(fun(xe))
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            # outside contraction
            xc = [(1 + _PSI * _RHO) * c - _PSI * _RHO * w for c, w in zip(xbar, worst)]
            fxc = float(fun(xc))
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            # inside contraction
            xcc = [(1 - _PSI) * c + _PSI * w for c, w in zip(xbar, worst)]
            fxcc = float(fun(xcc))
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [b + _SIGMA * (v - b) for v, b in zip(sim[j], best)]
                fsim[j] = float(fun(sim[j]))
                nfev += 1
        iterations += 1
        sim, fsim = _ordered(sim, fsim)
    return Minimum(np.array(sim[0]), np.array(fsim).min(), nfev)


def _ordered(sim: list[list[float]], fsim: list[float]) -> tuple[list[list[float]], list[float]]:
    """The vertices and their values in `np.argsort` order of the values."""
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _refine_constants(f: Compiled, y: np.ndarray, total: float, theta: np.ndarray,
                      best: float) -> tuple[np.ndarray, float]:
    """Nelder-Mead (`minimize`) over the placeholders of the compiled
    skeleton `f` from `_fit_constants`' (theta, best); the simplex result
    replaces them only when its error is lower.  Call it under
    `np.errstate(all="ignore")`."""

    def objective(t: list[float]) -> float:
        return _nrmse(y, f(t), total)

    res = minimize(objective, theta)
    if np.isfinite(res.fun) and res.fun < best:
        return res.x, float(res.fun)
    return theta, best


def fit_dagsearch(ds: Dataset, budget: GrammarBudget | None = None,
                  max_skeletons: int = DAGSEARCH_SKELETONS) -> ExprDag:
    """Enumerate dag skeletons with constant placeholders, fit the constants,
    refine those of the `REFINE_TOP` best skeletons, and return the
    minimum-NRMSE expression (ties to lower complexity).

    The worst case is the constant model y = mean, which is also the model
    for a y of all zeros.
    """
    if ds.n < 20:
        raise ValueError("need at least 20 rows")
    if budget is None:
        budget = GrammarBudget(max_intermediary_nodes=DAGSEARCH_NODES, allow_constants=True)
    X, y = ds.X, ds.y
    # one errstate for both passes.  The first pass runs each skeleton's
    # program over the table's shared placeholder-free values and drops it
    # after its fit; the refined skeletons are rebuilt and compiled
    with np.errstate(all="ignore"):
        total = float(np.add.reduce(y * y))
        b = DagBuilder()
        best_expr = b.extract(b.const(float(np.mean(y))), ds.d)
        if _all_zero(y, total):
            return best_expr
        skeletons = _skeletons(ds.d, budget, max_skeletons)
        best_err = _nrmse(y, np.full(ds.n, float(np.mean(y))), total)

        # (error, skeleton position, fitted constants or None without placeholders)
        candidates: list[tuple[float, int, np.ndarray | None]] = []
        for pos, program in enumerate(skeletons.programs(X)):
            if not program.names:
                candidates.append((_nrmse(y, program(()), total), pos, None))
            else:
                theta, err = _fit_constants(program, y, total)
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
    and its `X` and `y` are the test data; a holdout whose width differs
    from the root's raises ValueError.  Each node is fitted on its rows
    minus the holdout rows, so no fit sees a test row; a node left with
    fewer than 3 rows is skipped.
    """
    if holdout.d != result.root.dataset.d:
        raise ValueError("holdout must be rows of the original, unsubstituted dataset")
    fits: list[SolveResult] = []
    for node in result.best_path:
        train = ~np.isin(node.dataset.origin_rows, holdout.origin_rows)
        if train.sum() < 3:
            continue
        try:
            sol = fit(node.dataset.restrict_rows(train), spec)
            expr = reconstruct(node, sol)
            err = nrmse(holdout.y, evaluate(expr, holdout.X))
        except (NotSolvable, DegenerateY, ExternalFailure, ValueError):
            continue
        fits.append(SolveResult(expr=expr, nrmse_test=err, complexity=complexity(expr),
                                source_node_depth=node.depth))
    if not fits:
        raise ExternalFailure("no node of the path produced a usable model")
    fits.sort(key=lambda sol: sol.nrmse_test)  # stable: path order among ties
    return fits
