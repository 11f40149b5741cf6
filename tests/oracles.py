"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
code under test: quadratic-time counting instead of sorting, exhaustive tree
enumeration instead of program enumeration, cofactor expansion instead of
LAPACK, direct formula transcriptions instead of vectorized rewrites.
"""

from __future__ import annotations

import math

import numpy as np

from srsub.dag import OPS, Const, DagBuilder, Unary, Var
from srsub.grammar import GrammarBudget

# -- quadratic-time ranks ------------------------------------------------------


def ranks_quadratic(y):
    n = len(y)
    r = [sum(1 for j in range(n) if y[j] <= y[i]) for i in range(n)]
    l = [sum(1 for j in range(n) if y[j] >= y[i]) for i in range(n)]
    return np.array(r), np.array(l)


def xi_direct(x, y):
    """Consecutive-rank formula computed termwise on python ints."""
    n = len(x)
    order = sorted(range(n), key=lambda i: (x[i], i))
    ys = [y[i] for i in order]
    r, l = ranks_quadratic(ys)
    num = sum(abs(int(r[i + 1]) - int(r[i])) for i in range(n - 1))
    den = sum(int(l[i]) * (n - int(l[i])) for i in range(n))
    return 1.0 - (n * num) / (2.0 * den)


def nn_bruteforce(X):
    """Lowest-index nearest neighbor by scanning all pairs."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    nu = []
    for i in range(n):
        dists = [(float(np.sum((X[i] - X[j]) ** 2)), j) for j in range(n) if j != i]
        dmin = min(d for d, _ in dists)
        nu.append(min(j for d, j in dists if d <= dmin * (1 + 1e-12) + 1e-300))
    return np.array(nu)


def standardize_columns(X):
    X = np.asarray(X, dtype=float)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (X - mu) / sd


def codec_direct(X, y):
    """Direct transcription of the minimum-rank formula with brute-force NN."""
    X = standardize_columns(np.asarray(X, dtype=float))
    n = len(y)
    r, l = ranks_quadratic(y)
    nu = nn_bruteforce(X)
    num = sum(n * min(int(r[i]), int(r[nu[i]])) - int(l[i]) ** 2 for i in range(n))
    den = sum(int(l[i]) * (n - int(l[i])) for i in range(n))
    return num / den


def kmac_direct(X, y, bandwidth):
    """Full O(n^2) kernel association over the brute-force 1-NN graph."""
    X = standardize_columns(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    nu = nn_bruteforce(X)

    def k(a, b):
        return math.exp(-((a - b) ** 2) / (2.0 * bandwidth * bandwidth))

    local = sum(k(y[i], y[nu[i]]) for i in range(n)) / n
    cross = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j) / (n * (n - 1))
    return (local - cross) / (1.0 - cross)


def det_cofactor(M):
    M = [list(map(float, row)) for row in M]
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += ((-1) ** j) * M[0][j] * det_cofactor(minor)
    return total


def nrmse_direct(y, yhat):
    num = sum((float(a) - float(b)) ** 2 for a, b in zip(y, yhat))
    den = sum(float(a) ** 2 for a in y)
    return math.sqrt(num / den)


# -- node-by-node evaluation ------------------------------------------------------


def _div_nodewise(l, r):
    return np.where(r != 0, l / np.where(r != 0, r, 1.0), np.nan)


def _inv_nodewise(c):
    return np.where(c != 0, 1.0 / np.where(c != 0, c, 1.0), np.inf)


_NODEWISE_NUMPY = {**{name: op.numpy for name, op in OPS.items()},
                   "/": _div_nodewise, "inv": _inv_nodewise}


def evaluate_nodewise(dag, X, params=None):
    """Evaluate every node on a full column: constants as n-arrays, then
    non-finite or |v| > 1e150 results set to nan by masked assignment."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    n = X.shape[0]
    vals = []
    with np.errstate(all="ignore"):
        for node in dag.nodes:
            if isinstance(node, Var):
                vals.append(X[:, node.index])
            elif isinstance(node, Const):
                v = params[node.name] if node.is_placeholder else node.value
                vals.append(np.full(n, v))
            elif isinstance(node, Unary):
                vals.append(_NODEWISE_NUMPY[node.op](vals[node.child]))
            else:
                vals.append(_NODEWISE_NUMPY[node.op](vals[node.left], vals[node.right]))
    out = np.array(vals[dag.root], dtype=float, copy=True)
    out[~np.isfinite(out)] = np.nan
    out[np.abs(out) > 1e150] = np.nan
    return out


def nrmse_masked(y, yhat, penalty=10.0):
    """NRMSE with every non-finite squared error replaced by the penalty
    term through one unconditional `np.where`."""
    y = np.asarray(y, dtype=float).reshape(-1)
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    total = float(np.sum(y * y))
    n = len(y)
    with np.errstate(all="ignore"):
        sq = (y - yhat) ** 2
    bad = ~np.isfinite(sq)
    sq = np.where(bad, penalty * penalty * total / n, sq)
    return float(np.sqrt(np.sum(sq) / total))


# -- exhaustive tree enumeration oracle ------------------------------------------

_UNARY = ("sqrt", "log", "exp", "sin", "cos", "neg", "inv", "square")
_BINARY = ("+", "-", "*", "/")


def _trees(arity: int, max_ops: int, ops: frozenset):
    """All expression trees with 1..max_ops operator nodes over the variables
    (no constants), as nested tuples."""
    leaves = [("v", i) for i in range(arity)]

    def build(budget: int):
        # returns list of (tree, ops_used); includes bare leaves
        out = [(leaf, 0) for leaf in leaves]
        if budget == 0:
            return out
        smaller = build(budget - 1)
        for op in _UNARY:
            if op not in ops:
                continue
            for tree, used in smaller:
                if used + 1 <= budget:
                    out.append(((op, tree), used + 1))
        pairs = build(budget - 1)
        for op in _BINARY:
            if op not in ops:
                continue
            for lt, lu in pairs:
                for rt, ru in pairs:
                    if lu + ru + 1 <= budget:
                        out.append(((op, lt, rt), lu + ru + 1))
        return out

    seen = set()
    result = []
    for tree, used in build(max_ops):
        if used == 0:
            continue
        if tree in seen:
            continue
        seen.add(tree)
        result.append(tree)
    return result


def _tree_to_dag(tree, arity: int):
    b = DagBuilder()

    def rec(t):
        if t[0] == "v":
            return b.var(t[1])
        if len(t) == 2:
            return b.unary(t[0], rec(t[1]))
        return b.binary(t[0], rec(t[1]), rec(t[2]))

    return b.extract(rec(tree), arity)


def enumerate_by_trees(arity: int, budget: GrammarBudget) -> set[str]:
    """Independent enumeration: unroll every tree whose dag form fits the
    intermediary-node budget, return the set of structural keys."""
    m = budget.max_intermediary_nodes
    max_tree_ops = (2 ** (m + 1)) - 1  # full sharing unrolled
    keys = set()
    for tree in _trees(arity, max_tree_ops, frozenset(budget.allowed_ops)):
        dag = _tree_to_dag(tree, arity)
        if 1 <= dag.op_count() <= m + 1:
            keys.add(dag.key)
    return keys
