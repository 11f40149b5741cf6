"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
code under test: quadratic-time counting instead of sorting, exhaustive tree
enumeration instead of program enumeration, every program built in its own
builder instead of pruned prefixes in a shared one, cofactor expansion
instead of LAPACK, direct formula transcriptions instead of vectorized
rewrites, recursive descent instead of explicit parser stacks.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from srsub.dag import BINARY_OPS, OPS, UNARY_OPS, Binary, Const, DagBuilder, Unary, Var, evaluate
from srsub.errors import UnsupportedExpression
from srsub.exprtext import _FUNCTIONS, _tokenize
from srsub.grammar import GrammarBudget
from srsub.substitution import column_maps

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


def volumes_bruteforce(Z):
    """|det| of the differences from each row to the `dim` other rows first
    in (squared distance, index) order, by cofactor expansion."""
    Z = np.asarray(Z, dtype=float)
    n, dim = Z.shape
    vols = []
    for i in range(n):
        others = sorted((float(np.sum((Z[j] - Z[i]) ** 2)), j) for j in range(n) if j != i)
        vols.append(abs(det_cofactor([Z[j] - Z[i] for _, j in others[:dim]])))
    return np.array(vols)


def point_set_key(Z):
    """The columns of Z, each negated when its first entry is negative or
    -0.0, as (shape, bytes) with every -0.0 written as 0.0: equal keys mean
    the same points up to the sign of each column."""
    Z = np.array(Z, dtype=float)
    for j in range(Z.shape[1]):
        if math.copysign(1.0, Z[0, j]) < 0:
            Z[:, j] = -Z[:, j]
    Z[Z == 0] = 0.0
    return Z.shape, Z.tobytes()


def nrmse_direct(y, yhat):
    num = sum((float(a) - float(b)) ** 2 for a, b in zip(y, yhat))
    den = sum(float(a) ** 2 for a in y)
    return math.sqrt(num / den)


# -- the simplex refine ---------------------------------------------------------


def nelder_mead_scipy(fun, x0):
    """scipy's own Nelder-Mead with the options the dagsearch refine uses;
    the reference that `regress.minimize` reproduces.  `fun` gets an array."""
    from scipy.optimize import minimize

    # values of inf make scipy's convergence test subtract inf from inf
    with np.errstate(invalid="ignore"):
        return minimize(fun, x0, method="Nelder-Mead",
                        options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12})


# -- node-by-node evaluation ------------------------------------------------------


def _div_nodewise(l, r):
    return np.where(r != 0, l / np.where(r != 0, r, 1.0), np.nan)


def _inv_nodewise(c):
    return np.where(c != 0, 1.0 / np.where(c != 0, c, 1.0), np.nan)


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
    term through one unconditional `np.where`.  When sum(y * y) is not a
    normal finite float, y and yhat are first divided by max|y|."""
    y = np.asarray(y, dtype=float).reshape(-1)
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    with np.errstate(all="ignore"):
        total = float(np.sum(y * y))
        if not (total >= np.finfo(float).tiny and np.isfinite(total)):
            scale = np.max(np.abs(y))
            y, yhat = y / scale, yhat / scale
            total = float(np.sum(y * y))
    n = len(y)
    with np.errstate(all="ignore"):
        sq = (y - yhat) ** 2
    bad = ~np.isfinite(sq)
    sq = np.where(bad, penalty * penalty * total / n, sq)
    return float(np.sqrt(np.sum(sq) / total))


# -- numeric probes that draw batch after batch ---------------------------------


def sample_valid_points(fn, arity, n_points, rng, max_grow=150.0):
    """Rows where `fn` is finite, from batches of max(2n, 32) uniform points
    on [-c, c]^arity, c growing from 1 by 0.5 up to `max_grow`."""
    points, values = [], []
    total = 0
    c = 1.0
    while total < n_points and c <= max_grow:
        pts = rng.uniform(-c, c, size=(max(2 * n_points, 32), max(arity, 1)))
        vals = fn(pts)
        mask = np.isfinite(vals)
        if mask.any():
            points.append(pts[mask][: n_points - total])
            values.append(vals[mask][: n_points - total])
            total += len(points[-1])
        c += 0.5
    if not points:
        return np.empty((0, max(arity, 1))), np.empty(0)
    return np.vstack(points), np.concatenate(values)


def numeric_depends_redrawn(fn, arity, targets, seed=17):
    """Dependence by redrawing the targets uniformly at valid base points,
    round after round on a cube that widens by 2 up to half-width 60, until
    100 comparisons are made; None below 20 comparisons."""
    rng = np.random.default_rng(seed)
    targets = list(targets)
    compared = 0
    c = 1.0
    while compared < 100 and c <= 60.0:
        base, v0 = sample_valid_points(fn, arity, 100, rng, max_grow=c)
        if len(base):
            pert = base.copy()
            pert[:, targets] = rng.uniform(-c, c, size=(len(base), len(targets)))
            v1 = fn(pert)
            ok = np.isfinite(v1)
            if ok.any():
                diff = np.abs(v0[ok] - v1[ok])
                if np.any(diff > 1e-9 * (1.0 + np.abs(v0[ok]))):
                    return True
                compared += int(ok.sum())
        c += 2.0
    return None if compared < 20 else False


def numeric_constant_batched(fn, arity, seed=17):
    """Constancy to a relative spread of 1e-6 over the first 100 valid
    points of `sample_valid_points`; None below 10 points."""
    _, vals = sample_valid_points(fn, arity, 100, np.random.default_rng(seed))
    if len(vals) < 10:
        return None
    spread = float(np.max(vals) - np.min(vals))
    return spread <= 1e-6 * (1.0 + float(np.max(np.abs(vals))))


# -- beam levels by sorting every child --------------------------------------------


def beam_levels_by_sorting(root, cfg):
    """The survivors of every beam level below the search node `root`: every
    child of the level is scored with `score_candidate`, all of them are
    sorted by (-score, n_vars, discovery order), and the first `beam_size`
    are kept.  One memo serves every level, as in `search`."""
    from srsub.beamsearch import SearchNode, _candidates, score_candidate
    from srsub.substitution import CANDIDATE_CAP

    levels = []
    beam = [root]
    seq = 0
    memo = {}
    for depth in range(1, max(root.dataset.d - 1, 0) + 1):
        children = []
        for parent in beam:
            if parent.dataset.d <= 1:
                continue
            for i, sub in enumerate(_candidates(parent.dataset.d, cfg)):
                if i == CANDIDATE_CAP:
                    break
                scored = score_candidate(parent, sub, cfg.measure, memo)
                if scored is not None:
                    seq += 1
                    children.append(SearchNode(dataset=scored[0], score=scored[1],
                                               parent=parent, edge=sub, depth=depth, seq=seq))
        children.sort(key=lambda node: (-node.score, node.n_vars, node.seq))
        beam = children[:cfg.beam_size]
        if not beam:
            break
        levels.append(beam)
    return levels


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


# -- dataset maps re-evaluated on the original rows --------------------------------

_VALIDATE_TOL = 1e-9


def validate_dataset(ds, sample, subs) -> None:
    """Check that the maps `column_maps` composes for the edges `subs` from
    the unsubstituted `sample` to `ds`, re-evaluated on the dataset's
    original rows (`ds.origin_rows` of `sample`), reproduce its current
    columns."""
    columns, output = column_maps(sample.d, subs)
    origin_X = sample.X[ds.origin_rows]
    base = np.column_stack([origin_X, sample.y[ds.origin_rows]])
    for i, col in enumerate(columns):
        got = evaluate(col, origin_X)
        if not np.allclose(got, ds.X[:, i], rtol=_VALIDATE_TOL, atol=_VALIDATE_TOL):
            raise AssertionError(f"column map {i} does not reproduce column {i}")
    got = evaluate(output, base)
    if not np.allclose(got, ds.y, rtol=_VALIDATE_TOL, atol=_VALIDATE_TOL):
        raise AssertionError("the output map does not reproduce the output column")


# -- program enumeration with one builder per program -----------------------------


def _programs(arity: int, k: int, budget: GrammarBudget):
    """Every program of k + 1 operator nodes, in grammar order: node j takes
    its operands from the variables, a fresh constant ("c",) and nodes < j."""
    def pool(defined):
        out = [("v", i) for i in range(arity)]
        if budget.allow_constants:
            out.append(("c",))
        return out + [("n", j) for j in range(defined)]

    def specs(defined):
        for op in BINARY_OPS:
            if op in budget.allowed_ops:
                for a in pool(defined):
                    for b in pool(defined):
                        if not a == b == ("c",):
                            yield (op, a, b)
        for op in UNARY_OPS:
            if op in budget.allowed_ops:
                for a in pool(defined):
                    if a != ("c",):
                        yield (op, a)

    def rec(acc):
        if len(acc) == k + 1:
            yield acc
            return
        for spec in specs(len(acc)):
            yield from rec(acc + [spec])

    yield from rec([])


def _build_program(specs, arity: int):
    """The program's dag in a fresh builder, placeholders named c0, c1, ...
    in spec order, or None when the last node does not reach every node."""
    used = set()
    stack = [len(specs) - 1]
    while stack:
        j = stack.pop()
        if j not in used:
            used.add(j)
            stack.extend(tok[1] for tok in specs[j][1:] if tok[0] == "n")
    if len(used) != len(specs):
        return None
    b = DagBuilder()
    ids = []
    names = (f"c{i}" for i in itertools.count())

    def operand(tok):
        if tok[0] == "v":
            return b.var(tok[1])
        if tok[0] == "c":
            return b.param(next(names))
        return ids[tok[1]]

    for op, *args in specs:
        args = [operand(tok) for tok in args]
        ids.append(b.binary(op, *args) if len(args) == 2 else b.unary(op, *args))
    return b.extract(ids[-1], arity)


def _renumbered(dag):
    """`dag` with placeholders renamed c0, c1, ... by first occurrence in a
    left-first walk from the root."""
    order = []

    def visit(nid):
        node = dag.nodes[nid]
        if isinstance(node, Const) and node.is_placeholder and node.name not in order:
            order.append(node.name)
        elif isinstance(node, Unary):
            visit(node.child)
        elif isinstance(node, Binary):
            visit(node.left)
            visit(node.right)

    visit(dag.root)
    if order == [f"c{i}" for i in range(len(order))]:
        return dag
    b = DagBuilder()
    names = {name: f"c{i}" for i, name in enumerate(order)}
    return b.extract(b.copy_from(dag, param=lambda name: b.param(names[name])), dag.arity)


def enumerate_by_programs(arity: int, budget: GrammarBudget):
    """Yield the grammar's dags the slow way: build every program in its own
    builder, drop the ones that leave a node unreached or collapse into a
    smaller operator count, renumber the placeholders and drop repeated
    keys."""
    seen = set()
    for k in range(budget.max_intermediary_nodes + 1):
        for specs in _programs(arity, k, budget):
            dag = _build_program(specs, arity)
            if dag is None or dag.op_count() != k + 1:
                continue
            dag = _renumbered(dag)
            if dag.key not in seen:
                seen.add(dag.key)
                yield dag


# -- benchmark arms with the root fitted twice ------------------------------------


def _earliest_strict_minimum(fits):
    """The pick of a loop over the path that keeps a fit only when its test
    error is strictly lower than the kept one's."""
    best = None
    for sol in sorted(fits, key=lambda sol: sol.source_node_depth):
        if best is None or sol.nrmse_test < best.nrmse_test:
            best = sol
    return best


def benchmark_search(p, cfg, noise, seed, n_samples):
    """The search result and test rows of `bench.run_problem`, rebuilt step
    by step."""
    from srsub.beamsearch import search
    from srsub.bench import add_noise, sample_problem
    from srsub.regress import holdout_mask
    from srsub.substitution import Dataset

    ds = sample_problem(p, n_samples, seed)
    full = Dataset.from_arrays(ds.X, add_noise(ds.y, noise.gamma, seed + 1))
    mask = holdout_mask(full.n, 0.2, seed + 2)
    return search(full.restrict_rows(~mask), cfg), full.restrict_rows(mask)


def arms_fitted_separately(p, spec, result, holdout):
    """The base and beam columns of a benchmark row, in report order, each
    arm with its own `solve_pipeline` call: a root-only path for the base
    arm, then the whole best path for the beam arm, which fits the root
    again."""
    from srsub.beamsearch import SearchResult
    from srsub.bench import jaccard, recovery
    from srsub.regress import solve_pipeline

    columns = {}
    for tag, arm in (("base", SearchResult(best_path=[result.root], all_levels=[])),
                     ("beam", result)):
        sol = _earliest_strict_minimum(solve_pipeline(arm, spec, holdout))
        columns[f"{tag}_recovered"] = bool(recovery(p.f_true, sol.expr))
        columns[f"{tag}_nrmse"] = sol.nrmse_test
        columns[f"{tag}_complexity"] = sol.complexity
        columns[f"{tag}_jaccard"] = jaccard(p.f_true, sol.expr)
    columns["beam_depth"] = sol.source_node_depth
    return columns


# -- recursive-descent infix parser ---------------------------------------------


class _RecursiveParser:
    """One method per grammar level, recursing once per parenthesis: the
    reference for `exprtext.parse`, which keeps explicit stacks instead."""

    def __init__(self, tokens, builder, var_names):
        self.tokens = tokens
        self.pos = 0
        self.b = builder
        self.var_names = var_names or {}
        self.max_index = -1

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise UnsupportedExpression("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise UnsupportedExpression(f"expected {tok!r}, got {got!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise UnsupportedExpression(f"trailing input at {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = self.b.binary(op, node, self.term())
        return node

    def term(self):
        node = self.signed()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = self.b.binary(op, node, self.signed())
        return node

    def signed(self):
        # unary minus applies to a whole power: -x^2 is -(x^2)
        if self.peek() == "-":
            self.take()
            inner = self.signed()
            node = self.b.nodes[inner]
            if isinstance(node, Const) and not node.is_placeholder:
                return self.b.const(-node.value)
            return self.b.unary("neg", inner)
        if self.peek() == "+":
            self.take()
            return self.signed()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            neg = False
            tok = self.take()
            if tok == "-":
                neg = True
                tok = self.take()
            try:
                exp = int(tok)
            except ValueError:
                raise UnsupportedExpression(f"only integer exponents supported, got {tok!r}")
            node = self._int_power(base, exp)
            return self.b.unary("inv", node) if neg else node
        return base

    def _int_power(self, base, exp):
        if exp < 0:
            return self.b.unary("inv", self._int_power(base, -exp))
        if exp == 0:
            return self.b.const(1.0)
        if exp == 1:
            return base
        half = self._int_power(base, exp // 2)
        sq = self.b.unary("square", half)
        return sq if exp % 2 == 0 else self.b.binary("*", base, sq)

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok in _FUNCTIONS:
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return self.b.unary(tok, node)
        if re.fullmatch(r"x\d+", tok):
            index = int(tok[1:]) - 1
            if index < 0:
                raise UnsupportedExpression("variables are numbered from x1")
            self.max_index = max(self.max_index, index)
            return self.b.var(index)
        if re.fullmatch(r"c\d+", tok):
            return self.b.param(tok)
        if tok in self.var_names:
            index = self.var_names[tok]
            self.max_index = max(self.max_index, index)
            return self.b.var(index)
        try:
            return self.b.const(float(tok))
        except ValueError:
            raise UnsupportedExpression(f"unknown identifier {tok!r}")


def parse_recursive(text, arity=None, var_names=None):
    """`exprtext.parse` by recursive descent."""
    builder = DagBuilder()
    parser = _RecursiveParser(_tokenize(text), builder, var_names)
    root = parser.parse()
    inferred = parser.max_index + 1
    if arity is None:
        arity = inferred
    elif arity < inferred:
        raise UnsupportedExpression(f"arity {arity} below used variables ({inferred})")
    return builder.extract(root, arity)
