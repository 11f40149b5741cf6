"""Symbolic decision procedures: dependence and equivalence of expressions.

Structural canonicalization lives in `simplify`; the questions answered here
(does an expression still depend on a variable, is a difference or ratio a
constant) escalate through a computer-algebra backend when the cheap
canonical form is not conclusive.  Every symbolic verdict is backed by a
randomized numeric check on the sampling domain; when the two sides disagree
the result is reported as Inconclusive rather than guessed.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

import numpy as np
import sympy as sp

from .dag import OPS, Const, DagBuilder, ExprDag, Unary, Var, evaluate
from .errors import Inconclusive
from .simplify import simplify

DEFAULT_SEED = 17
_NUMERIC_DEP_TOL = 1e-9
_CONST_TOL = 1e-6
_SIMPLIFY_SIZE_CAP = 300

_real_syms: list[sp.Symbol] = []
_pos_syms: list[sp.Symbol] = []


def _symbol(name: str, positive: bool) -> sp.Symbol:
    return sp.Symbol(name, positive=True) if positive else sp.Symbol(name, real=True)


def _sym(i: int, positive: bool = False) -> sp.Symbol:
    cache = _pos_syms if positive else _real_syms
    while len(cache) <= i:
        cache.append(_symbol(f"x{len(cache) + 1}", positive))
    return cache[i]


def to_sympy(dag: ExprDag, subs: Sequence[sp.Expr] | None = None) -> sp.Expr:
    """Convert a dag to a sympy expression.

    `subs` optionally supplies the expression for each variable slot;
    by default slot i maps to the real symbol ``x{i+1}``.
    """
    vals: list[sp.Expr] = []
    for node in dag.nodes:
        if isinstance(node, Var):
            if subs is not None:
                vals.append(subs[node.index])
            else:
                vals.append(_sym(node.index))
        elif isinstance(node, Const):
            if node.is_placeholder:
                vals.append(sp.Symbol(node.name or "c", real=True))
            elif abs(node.value) < 1e15 and node.value == int(node.value):
                vals.append(sp.Integer(int(node.value)))
            else:
                vals.append(sp.Float(node.value))
        elif isinstance(node, Unary):
            vals.append(OPS[node.op].sympy(vals[node.child]))
        else:
            vals.append(OPS[node.op].sympy(vals[node.left], vals[node.right]))
    return vals[dag.root]


def _with_assumption(expr: sp.Expr, positive: bool) -> sp.Expr:
    """`expr` with every symbol swapped for its positive (or else real)
    namesake; ``x<i>`` symbols come from the shared cache."""
    mapping = {}
    for s in expr.free_symbols:
        if s.name.startswith("x") and s.name[1:].isdigit():
            mapping[s] = _sym(int(s.name[1:]) - 1, positive)
        else:
            mapping[s] = _symbol(s.name, positive)
    return expr.xreplace(mapping)


def _escalate(expr: sp.Expr) -> Iterable[sp.Expr]:
    """Progressively stronger rewrites of `expr` (cheapest first)."""
    yield expr
    try:
        yield sp.cancel(expr)
    except Exception:
        pass
    pos = _with_assumption(expr, positive=True)
    yield pos
    try:
        yield sp.powsimp(pos)
    except Exception:
        pass
    if sp.count_ops(expr) <= _SIMPLIFY_SIZE_CAP:
        try:
            yield sp.simplify(pos)
        except Exception:
            pass


def eliminated_form(expr: sp.Expr, targets: Sequence[sp.Symbol]) -> sp.Expr | None:
    """The first rewrite of `expr` with every target symbol gone (symbols
    normalized back to their real-assumption variants), or None when no
    rewrite eliminates them."""
    names = {t.name for t in targets}
    for form in _escalate(expr):
        if not names & {s.name for s in form.free_symbols}:
            return _with_assumption(form, positive=False)
    return None


def symbolic_depends(expr: sp.Expr, targets: Sequence[sp.Symbol]) -> bool:
    """True when no rewrite of `expr` eliminates every target symbol."""
    return eliminated_form(expr, targets) is None


def resolve_constant(expr: sp.Expr) -> sp.Expr | None:
    """Return a constant form of `expr` if some rewrite eliminates all
    symbols, else None."""
    for form in _escalate(expr):
        if not form.free_symbols:
            return form
    return None


# -- randomized numeric checks ------------------------------------------------


def sample_valid_points(fn: Callable[[np.ndarray], np.ndarray], arity: int,
                        n_points: int, rng: np.random.Generator,
                        max_grow: float = 150.0) -> np.ndarray:
    """Draw uniform points on a growing cube [-c, c]^arity, keeping rows where
    `fn` evaluates to a finite value, until `n_points` rows are collected."""
    collected: list[np.ndarray] = []
    total = 0
    c = 1.0
    while total < n_points and c <= max_grow:
        pts = rng.uniform(-c, c, size=(max(2 * n_points, 32), max(arity, 1)))
        with np.errstate(all="ignore"):
            vals = fn(pts)
        mask = np.isfinite(vals)
        keep = pts[mask]
        if keep.size:
            collected.append(keep[: n_points - total])
            total += len(collected[-1])
        c += 0.5
    if not collected:
        return np.empty((0, max(arity, 1)))
    return np.vstack(collected)


def numeric_depends(fn: Callable[[np.ndarray], np.ndarray], arity: int,
                    targets: Sequence[int], rng: np.random.Generator,
                    trials: int = 100, tol: float = _NUMERIC_DEP_TOL) -> bool | None:
    """Perturb the target coordinates at valid base points; None when too few
    valid comparisons could be made."""
    targets = list(targets)
    compared = 0
    c = 1.0
    while compared < trials and c <= 60.0:
        base = sample_valid_points(fn, arity, trials, rng, max_grow=c)
        if len(base):
            pert = base.copy()
            pert[:, targets] = rng.uniform(-c, c, size=(len(base), len(targets)))
            with np.errstate(all="ignore"):
                v0 = fn(base)
                v1 = fn(pert)
            ok = np.isfinite(v0) & np.isfinite(v1)
            if ok.any():
                diff = np.abs(v0[ok] - v1[ok])
                if np.any(diff > tol * (1.0 + np.abs(v0[ok]))):
                    return True
                compared += int(ok.sum())
        c += 2.0
    if compared < 20:
        return None
    return False


def numeric_constant(fn: Callable[[np.ndarray], np.ndarray], arity: int,
                     rng: np.random.Generator, n_points: int = 100,
                     tol: float = _CONST_TOL) -> bool | None:
    pts = sample_valid_points(fn, arity, n_points, rng)
    if len(pts) < 10:
        return None
    with np.errstate(all="ignore"):
        vals = fn(pts)
    vals = vals[np.isfinite(vals)]
    if len(vals) < 10:
        return None
    spread = float(np.max(vals) - np.min(vals))
    return spread <= tol * (1.0 + float(np.max(np.abs(vals))))


def _dag_fn(dag: ExprDag) -> Callable[[np.ndarray], np.ndarray]:
    return lambda pts: evaluate(dag, pts)


def lambdify_fn(expr: sp.Expr, symbols: Sequence[sp.Symbol]) -> Callable[[np.ndarray], np.ndarray]:
    missing = {s.name for s in expr.free_symbols} - {s.name for s in symbols}
    if missing:
        raise ValueError(f"expression has unbound symbols {sorted(missing)}")
    f = sp.lambdify(list(symbols), expr, modules="numpy")

    def fn(pts: np.ndarray) -> np.ndarray:
        cols = [pts[:, i] for i in range(len(symbols))]
        with np.errstate(all="ignore"):
            out = f(*cols)
        out = np.asarray(out, dtype=complex)
        res = np.where(np.abs(out.imag) > 1e-12, np.nan, out.real)
        res = np.asarray(res, dtype=float)
        if res.shape != (len(pts),):
            res = np.broadcast_to(res, (len(pts),)).astype(float)
        return res

    return fn


# -- public decision procedures ------------------------------------------------


def depends_on(dag: ExprDag, variables: Iterable[int],
               rng: np.random.Generator | None = None) -> bool:
    """Whether the expression depends on any of the given variable indices.

    The symbolic check (does the variable survive canonical simplification
    and CAS rewrites) and a randomized perturbation check must agree;
    otherwise Inconclusive is raised.
    """
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_SEED)
    targets = tuple(sorted(set(variables)))
    sym_dep = _symbolic_dependence(simplify(dag), targets)
    num_dep = numeric_depends(_dag_fn(dag), dag.arity, targets, rng)
    if num_dep is None:
        if not sym_dep:
            return False
        raise Inconclusive("no valid sample points for the numeric dependence check")
    if sym_dep != num_dep:
        raise Inconclusive(
            f"symbolic ({sym_dep}) and numeric ({num_dep}) dependence checks disagree"
        )
    return sym_dep


@functools.lru_cache(maxsize=4096)
def _symbolic_dependence(s: ExprDag, targets: tuple[int, ...]) -> bool:
    """The symbolic half of `depends_on` for a simplified dag.

    The verdict is a function of the dag's structure, which its key pins, so
    it is kept: enumerating out-input candidates asks again about every dag
    that enumerating input candidates of the same arity already asked about.
    """
    if not (s.var_indices() & set(targets)):
        return False
    return symbolic_depends(to_sympy(s), [_sym(i) for i in targets])


def _constant_verdict(diff_dag: ExprDag, expr: sp.Expr,
                      rng: np.random.Generator) -> sp.Expr | None:
    """Symbolic constancy with mandatory numeric backing; None if not
    constant (or not backed)."""
    s = simplify(diff_dag)
    const_form: sp.Expr | None = None
    if len(s.nodes) == 1 and isinstance(s.nodes[0], Const) and not s.nodes[0].is_placeholder:
        const_form = sp.Float(s.nodes[0].value)
    else:
        const_form = resolve_constant(expr)
    if const_form is None:
        return None
    backed = numeric_constant(_dag_fn(diff_dag), diff_dag.arity, rng)
    if backed is None or backed:
        return const_form
    return None


def equivalent(f: ExprDag, g: ExprDag,
               rng: np.random.Generator | None = None) -> bool:
    """Equality up to an additive or a non-zero multiplicative constant."""
    if f.arity != g.arity:
        raise ValueError("expressions must have the same arity")
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_SEED)
    b = DagBuilder()
    fr, gr = b.copy_from(f), b.copy_from(g)
    diff = b.extract(b.binary("-", fr, gr), f.arity)
    fs, gs = to_sympy(f), to_sympy(g)

    if _constant_verdict(diff, fs - gs, rng) is not None:
        return True

    g_simplified = simplify(g)
    if len(g_simplified.nodes) == 1:
        node = g_simplified.nodes[0]
        if isinstance(node, Const) and not node.is_placeholder and node.value == 0.0:
            return False
    b2 = DagBuilder()
    ratio = b2.extract(b2.binary("/", b2.copy_from(f), b2.copy_from(g)), f.arity)
    const = _constant_verdict(ratio, fs / gs, rng)
    if const is not None:
        try:
            nonzero = abs(complex(const)) > 1e-12
        except (TypeError, ValueError):
            nonzero = True
        return nonzero
    return False
