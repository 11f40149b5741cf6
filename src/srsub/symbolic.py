"""Symbolic decision procedures: dependence and equivalence of expressions.

Structural canonicalization lives in `simplify`; the questions answered here
(does an expression still depend on a variable, is a difference or ratio a
constant) escalate through a computer-algebra backend when the cheap
canonical form is not conclusive.

Every dependence verdict is reached in `independent_form`.  Its symbolic
half works in one of two ways.  An exact witness, two values of the
expression computed from exact rational points of the positive orthant,
proves dependence outright.  Without one, a chain of rewrites looks for a
form free of the variables.  Every form in the chain equals the expression on
the positive orthant, so the chain finds none whenever a witness exists, and
the two ways agree.  The symbolic verdict is then joined with a numeric
probe: `dag.sample_finite`, seeded, draws 100 points where the expression
is finite, each point takes the target coordinates of the point drawn before
it, and any clear change in value is dependence.  When the two sides
disagree the result is reported as Inconclusive rather than guessed.  The
constancy probe behind `equivalent` draws its points the same way.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import sympy as sp

from .dag import OPS, Const, DagBuilder, ExprDag, evaluate, fold, sample_finite
from .errors import Inconclusive
from .simplify import simplify

DEFAULT_SEED = 17
_NUMERIC_DEP_TRIALS = 100
_NUMERIC_DEP_TOL = 1e-9
_CONST_POINTS = 100
_CONST_TOL = 1e-6
_SIMPLIFY_SIZE_CAP = 300
# Per variable slot, its coordinate at the first witness point and, for a
# target slot, at the second: exact, positive, and made of distinct primes so
# that simple combinations of them do not coincide at the two points.
_WITNESS_COORDS = tuple(
    (sp.Rational(p, q), sp.Rational(r, t))
    for p, q, r, t in ((7, 5, 13, 11), (11, 17, 23, 7), (19, 13, 5, 29),
                       (31, 23, 37, 41), (43, 47, 17, 53), (59, 61, 67, 19))
)
_WITNESS_DIGITS = 30
_WITNESS_GAP = 1e-12
_WITNESS_ARG_CAP = 1e4


def _sym(i: int) -> sp.Symbol:
    return sp.Symbol(f"x{i + 1}", real=True)


def to_sympy(dag: ExprDag, subs: Sequence[sp.Expr] | None = None) -> sp.Expr:
    """Convert a dag to a sympy expression.

    `subs` optionally supplies the expression for each variable slot;
    by default slot i maps to the real symbol ``x{i+1}``.
    """

    def var(index: int) -> sp.Expr:
        return _sym(index) if subs is None else subs[index]

    def const(node: Const) -> sp.Expr:
        if node.is_placeholder:
            return sp.Symbol(node.name or "c", real=True)
        if abs(node.value) < 1e15 and node.value == int(node.value):
            return sp.Integer(int(node.value))
        return sp.Float(node.value)

    return fold(dag.nodes, var, const, lambda op, child: OPS[op].sympy(child),
                lambda op, left, right: OPS[op].sympy(left, right))[dag.root]


def _with_assumption(expr: sp.Expr, positive: bool) -> sp.Expr:
    """`expr` with every symbol swapped for its positive (or else real)
    namesake."""
    assumption = {"positive": True} if positive else {"real": True}
    return expr.xreplace({s: sp.Symbol(s.name, **assumption) for s in expr.free_symbols})


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


# -- randomized numeric checks ------------------------------------------------


def numeric_depends(fn: Callable[[np.ndarray], np.ndarray], arity: int,
                    targets: Sequence[int]) -> bool | None:
    """Whether `fn` changes, beyond a relative 1e-9, at 100 points where it
    is finite when each point takes the target coordinates of the point
    drawn before it (the first takes the last one's); None when fewer than
    20 of the moved points are valid.  `fn` must ignore floating-point
    errors itself."""
    targets = list(targets)
    base, v0 = sample_finite(fn, _NUMERIC_DEP_TRIALS, arity,
                             np.random.default_rng(DEFAULT_SEED))
    moved = base.copy()
    moved[:, targets] = np.roll(base[:, targets], 1, axis=0)
    v1 = fn(moved)
    ok = np.isfinite(v1)
    if np.any(np.abs(v0[ok] - v1[ok]) > _NUMERIC_DEP_TOL * (1.0 + np.abs(v0[ok]))):
        return True
    return None if ok.sum() < 20 else False


def numeric_constant(fn: Callable[[np.ndarray], np.ndarray], arity: int) -> bool | None:
    """Whether `fn` is constant, up to a relative spread of 1e-6, at points
    where it is finite; None when fewer than 10 such points were found.
    `fn` must ignore floating-point errors itself."""
    _, vals = sample_finite(fn, _CONST_POINTS, arity, np.random.default_rng(DEFAULT_SEED))
    if len(vals) < 10:
        return None
    spread = float(np.max(vals) - np.min(vals))
    return spread <= _CONST_TOL * (1.0 + float(np.max(np.abs(vals))))


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


def _agreed(sym_dep: bool, num_dep: bool | None) -> bool:
    """The dependence verdict when the CAS verdict `sym_dep` and the numeric
    probe's `num_dep` agree.  The probe may have no evidence (None); a CAS
    verdict of independence then stands, one of dependence does not.
    Raises Inconclusive otherwise."""
    if num_dep is None:
        if sym_dep:
            raise Inconclusive("no numeric evidence for the dependence check")
        return False
    if sym_dep != num_dep:
        raise Inconclusive(
            f"symbolic ({sym_dep}) and numeric ({num_dep}) dependence checks disagree"
        )
    return sym_dep


def _witness(expr: sp.Expr, symbols: Sequence[sp.Symbol], targets: Sequence[int]) -> bool:
    """Whether `expr` takes two exactly computed, clearly different real
    values at two fixed points of the positive orthant that differ only in
    the target slots; slot i of `symbols` takes witness coordinate i.
    False means no witness, not independence."""
    slots = {s: i for i, s in enumerate(symbols)}
    if expr.has(sp.Float) or not expr.free_symbols.issubset(slots):
        return False
    used = [slots[s] for s in expr.free_symbols]
    if not set(used) & set(targets) or max(used) >= len(_WITNESS_COORDS):
        return False
    values = []
    for moved in (False, True):
        point = {symbols[i]: _WITNESS_COORDS[i][moved and i in targets] for i in used}
        try:
            exact = expr.xreplace(point)
            # evalf works to about as many extra bits as the magnitude of an
            # argument of exp, sin or cos, so a tower like exp(exp(exp(exp(x))))
            # would never finish; inner arguments are checked first
            growth = sorted(exact.atoms(sp.exp, sp.sin, sp.cos), key=sp.count_ops)
            if not all(abs(complex(f.args[0].evalf(3))) <= _WITNESS_ARG_CAP for f in growth):
                return False
            value = exact.evalf(_WITNESS_DIGITS)
        except Exception:
            return False
        if not (isinstance(value, sp.Float) and value.is_finite):
            return False
        values.append(value)
    v0, v1 = values
    return bool(abs(v1 - v0) > _WITNESS_GAP * (1 + abs(v0)))


def independent_form(expr: sp.Expr, symbols: Sequence[sp.Symbol], targets: Sequence[int],
                     fn: Callable[[np.ndarray], np.ndarray] | None = None) -> sp.Expr | None:
    """A rewrite of `expr` free of the symbols in the target slots of
    `symbols`, or None when `expr` depends on them.

    The symbolic half asks the exact witness first, whose points lie on the
    positive orthant where every form of the rewrite chain equals `expr`, so
    a witness only skips the chain's work; without one, `eliminated_form`
    looks for the rewrite.  The numeric half perturbs the target slots of
    `fn`, by default `expr` evaluated over `symbols`; without `fn` it is
    left out when `expr` has symbols outside `symbols`.  `_agreed` joins the
    two halves and raises Inconclusive when they disagree.

    Verdicts are not memoized: candidate enumeration, the one caller that
    asks many questions, dedupes its dags by canonical key and caches its
    result per arity and budget, so it never asks the same question twice.
    """
    form = None
    if not _witness(expr, symbols, targets):
        form = eliminated_form(expr, [symbols[t] for t in targets])
    if fn is None:
        try:
            fn = lambdify_fn(expr, symbols)
        except ValueError:
            pass
    num_dep = None if fn is None else numeric_depends(fn, len(symbols), targets)
    return None if _agreed(form is None, num_dep) else form


def depends_on(dag: ExprDag, variables: Iterable[int]) -> bool:
    """Whether the expression depends on any of the given variable indices.

    The symbolic check (does the variable survive canonical simplification
    and CAS rewrites) and a randomized perturbation check must agree;
    otherwise Inconclusive is raised.
    """
    targets = tuple(sorted(set(variables)))
    symbols = [_sym(i) for i in range(dag.arity)]
    return independent_form(to_sympy(simplify(dag)), symbols, targets,
                            fn=_dag_fn(dag)) is None


def _constant_verdict(diff_dag: ExprDag, expr: sp.Expr) -> sp.Expr | None:
    """Symbolic constancy with mandatory numeric backing; None if not
    constant (or not backed)."""
    s = simplify(diff_dag)
    if len(s.nodes) == 1 and isinstance(s.nodes[0], Const) and not s.nodes[0].is_placeholder:
        const_form = sp.Float(s.nodes[0].value)
    else:
        const_form = eliminated_form(expr, list(expr.free_symbols))
    if const_form is None:
        return None
    backed = numeric_constant(_dag_fn(diff_dag), diff_dag.arity)
    if backed is None or backed:
        return const_form
    return None


def equivalent(f: ExprDag, g: ExprDag) -> bool:
    """Equality up to an additive or a non-zero multiplicative constant.

    An expression that sympy cannot build, because it folds a constant past
    any integer it can hold, is equivalent to nothing.
    """
    if f.arity != g.arity:
        raise ValueError("expressions must have the same arity")
    b = DagBuilder()
    fr, gr = b.copy_from(f), b.copy_from(g)
    diff = b.extract(b.binary("-", fr, gr), f.arity)
    try:
        fs, gs = to_sympy(f), to_sympy(g)
    except OverflowError:
        return False

    if _constant_verdict(diff, fs - gs) is not None:
        return True

    g_simplified = simplify(g)
    if len(g_simplified.nodes) == 1:
        node = g_simplified.nodes[0]
        if isinstance(node, Const) and not node.is_placeholder and node.value == 0.0:
            return False
    b2 = DagBuilder()
    ratio = b2.extract(b2.binary("/", b2.copy_from(f), b2.copy_from(g)), f.arity)
    const = _constant_verdict(ratio, fs / gs)
    return const is not None and not const.is_zero
