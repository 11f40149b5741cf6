"""Candidate substitutions: generation, dataset transforms, and verification.

An input substitution replaces a set of input columns by one derived column
g(x_I); an out-input substitution replaces the output column by h(x_I, y) and
drops the columns in I.  A dataset holds arrays only; `column_maps` composes
what its columns and output mean over the search root's coordinates from the
substitutions on its search path, so solutions of reduced problems can be
translated back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np
import sympy as sp

from . import symbolic
from .dag import ExprDag, compose, evaluate, invertible_path, solve_for, variable
from .errors import Inconclusive, NotSolvable, TooFewRows, Unverifiable
from .exprtext import parse
from .grammar import GrammarBudget, enumerate_dags
from .simplify import simplify

MAX_ROW_DROP_FRACTION = 0.2
NEAR_CONSTANT_REL_STD = 1e-10
CANDIDATE_CAP = 50_000


@dataclass(frozen=True)
class InputSub:
    """Replace columns I by the single derived column g(x_I)."""

    g: ExprDag
    I: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.I) < 2:
            raise ValueError("input substitutions need |I| > 1")
        if len(set(self.I)) != len(self.I):
            raise ValueError("substitution indices must be distinct")
        if self.g.arity != len(self.I):
            raise ValueError("g arity must equal |I|")


@dataclass(frozen=True)
class OutInputSub:
    """Replace the output by h(x_I, y) and drop the columns in I.

    h takes |I| + 1 inputs; the last slot is the current output.
    """

    h: ExprDag
    I: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.I) < 1:
            raise ValueError("out-input substitutions need |I| >= 1")
        if len(set(self.I)) != len(self.I):
            raise ValueError("substitution indices must be distinct")
        if self.h.arity != len(self.I) + 1:
            raise ValueError("h arity must equal |I| + 1")
        if not invertible_path(self.h, len(self.I)):
            raise ValueError("output slot must occur once on an invertible path")


Substitution = InputSub | OutInputSub


@dataclass
class Dataset:
    """Observation matrix of a search node.

    origin_rows holds the surviving rows' indices in the problem's full
    sample.  What the columns and the output mean, relative to the search
    root, is not stored: `column_maps` composes it from the node's path.

    The arrays are read-only by convention: nothing in srsub writes into
    them, since a child that keeps every row shares its parent's `y` (an
    input substitution) and `origin_rows`.
    """

    X: np.ndarray
    y: np.ndarray
    origin_rows: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_arrays(cls, X: np.ndarray, y: np.ndarray) -> "Dataset":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) with matching y")
        if X.shape[1] < 1:
            raise ValueError("need at least one input column")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("dataset entries must be finite")
        return cls(X=X, y=y, origin_rows=np.arange(len(y)))

    def restrict_rows(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.X[mask], self.y[mask], self.origin_rows[mask])


# -- candidate generation -----------------------------------------------------


def _depends_on_all(canon: ExprDag) -> bool:
    """Whether `canon` reads and depends on every input; an inconclusive
    verdict counts as no."""
    needed = set(range(canon.arity))
    try:
        return canon.var_indices() == needed and symbolic.depends_on(canon, needed)
    except Inconclusive:
        return False


@cache
def input_candidate_dags(arity: int, budget: GrammarBudget) -> tuple[ExprDag, ...]:
    """Constant-free dags of the given arity that depend on all their inputs,
    deduplicated by canonical form; built once per process."""
    out: list[ExprDag] = []
    seen: set[str] = set()
    for dag in enumerate_dags(arity, replace(budget, allow_constants=False)):
        canon = simplify(dag)
        if canon.key in seen:
            continue
        seen.add(canon.key)
        if _depends_on_all(canon):
            out.append(canon)
    return tuple(out)


@cache
def outinput_candidate_dags(n_inputs: int, budget: GrammarBudget) -> tuple[ExprDag, ...]:
    """Dags over (x_1..x_nI, y) where y occurs once on an invertible path and
    the dag depends on y and on every input: the input candidates over
    n_inputs + 1 columns whose last column lies on an invertible path; built
    once per process."""
    return tuple(dag for dag in input_candidate_dags(n_inputs + 1, budget)
                 if invertible_path(dag, n_inputs))


def gen_input_candidates(d: int, budget: GrammarBudget) -> Iterator[InputSub]:
    """All input substitutions for a d-column problem: every |I| = 2 index
    set (and |I| = 3 when the budget admits ternary dags) with every
    candidate dag of that arity."""
    if d < 2:
        return
    sizes = [2]
    if budget.max_intermediary_nodes >= 1:
        sizes.append(3)
    for size in sizes:
        if size > d:
            continue
        dags = input_candidate_dags(size, budget)
        for I in itertools.combinations(range(d), size):
            for g in dags:
                yield InputSub(g=g, I=I)


def gen_outinput_candidates(d: int, budget: GrammarBudget) -> Iterator[OutInputSub]:
    """All out-input substitutions: every |I| = 1 index set (and |I| = 2 when
    the budget admits ternary dags) with every candidate dag over (x_I, y)."""
    if d < 2:
        return
    sizes = [1]
    if budget.max_intermediary_nodes >= 1:
        sizes.append(2)
    for size in sizes:
        if size >= d:
            continue
        dags = outinput_candidate_dags(size, budget)
        for I in itertools.combinations(range(d), size):
            for h in dags:
                yield OutInputSub(h=h, I=I)


def aifeynman_candidates(d: int) -> Iterator[InputSub]:
    """The four classic bivariate substitutions per unordered pair: sum,
    product, difference, and quotient (one canonical orientation each, since
    the sign- and reciprocal-flipped variants carry the same information)."""
    forms = [parse(t, arity=2) for t in ("x1+x2", "x1*x2", "x1-x2", "x1/x2")]
    for i, j in itertools.combinations(range(d), 2):
        for g in forms:
            yield InputSub(g=g, I=(i, j))


# -- applying substitutions -----------------------------------------------------


def _retained(d: int, I: Sequence[int]) -> list[int]:
    drop = set(I)
    return [j for j in range(d) if j not in drop]


def _finite_rows(values: np.ndarray) -> np.ndarray | None:
    """The rows where a substitution's new values are finite, or None when
    every row is; TooFewRows when more than the limit are dropped."""
    mask = np.isfinite(values)
    kept = int(np.count_nonzero(mask))
    if kept == len(mask):
        return None
    frac = 1.0 - kept / len(mask)
    if frac > MAX_ROW_DROP_FRACTION:
        raise TooFewRows(f"{frac:.1%} of rows dropped")
    return mask


def apply_substitution(ds: Dataset, sub: Substitution) -> Dataset:
    """The transformed dataset.  An input substitution puts the column
    g(x_I) before the retained columns; an out-input substitution replaces
    the output by h(x_I, y) and drops the I columns.  Rows where the new
    values are non-finite are dropped.

    The child's X is always a new C-ordered array.  When no row is dropped
    the child shares the parent's `origin_rows` and, for an input
    substitution, its `y`; otherwise every array is a fresh copy."""
    if any(i >= ds.d for i in sub.I):
        raise ValueError("substitution indices outside dataset columns")
    keep = _retained(ds.d, sub.I)
    if isinstance(sub, InputSub):
        col = evaluate(sub.g, ds.X[:, sub.I])
        mask = _finite_rows(col)
        X, y = np.column_stack([col, ds.X[:, keep]]), ds.y
    else:
        if len(sub.I) >= ds.d:
            raise ValueError("out-input substitution must leave at least one input")
        y = evaluate(sub.h, np.column_stack([ds.X[:, sub.I], ds.y]))
        mask = _finite_rows(y)
        X = np.take(ds.X, keep, axis=1)
    if mask is None:
        return Dataset(X, y, ds.origin_rows)
    return Dataset(X[mask], y[mask], ds.origin_rows[mask])


def column_maps(d: int, subs: Iterable[Substitution]
                ) -> tuple[tuple[ExprDag, ...], ExprDag]:
    """What the columns and the output of a d-column search root mean after
    `subs`, applied in order, relative to that root: one expression per
    column over the root's d inputs, and the output over those inputs plus
    the root's output in slot d."""
    columns = tuple(variable(i, d) for i in range(d))
    output = variable(d, d + 1)
    for sub in subs:
        inner = [columns[i] for i in sub.I]
        kept = tuple(columns[j] for j in _retained(len(columns), sub.I))
        if isinstance(sub, InputSub):
            columns = (compose(sub.g, inner, d),) + kept
        else:
            output = compose(sub.h, inner + [output], d + 1)
            columns = kept
    return columns, output


def near_constant(y: np.ndarray) -> bool:
    """Transformed outputs whose sample spread is numerically negligible:
    y.std() <= NEAR_CONSTANT_REL_STD * |y.mean()|, with the mean summed
    once and the std taken from the same deviations, bit for bit as numpy
    computes both."""
    y = np.asarray(y, dtype=float)
    mean = y.sum() / len(y)
    std = math.sqrt(np.square(y - mean).sum() / len(y))
    return std <= NEAR_CONSTANT_REL_STD * abs(float(mean))


def _quartile_bounds(n: int, q: float) -> tuple[int, int, float]:
    """Order statistics and weight that np.quantile's default linear method
    interpolates between for quantile q of n values."""
    pos = (n - 1) * q
    below = math.floor(pos)
    return below, min(below + 1, n - 1), pos - below


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation, rounding included: from the far end
    when t >= 0.5."""
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _quartiles_and_range(x: np.ndarray) -> tuple[float, float, float, float]:
    """(q25, q75, min, max) of x from one partial sort; q25 and q75 equal
    np.quantile(x, [0.25, 0.75]) bit for bit."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    b25, a25, t25 = _quartile_bounds(n, 0.25)
    b75, a75, t75 = _quartile_bounds(n, 0.75)
    s = np.partition(x, sorted({0, b25, a25, b75, a75, n - 1}))
    return (_lerp(float(s[b25]), float(s[a25]), t25),
            _lerp(float(s[b75]), float(s[a75]), t75),
            float(s[0]), float(s[n - 1]))


def degenerate_column(x: np.ndarray) -> bool:
    """A transformed input column whose bulk collapses below float
    resolution (outliers so extreme that the interquartile range vanishes
    relative to the full range); nearest-neighbor geometry on such a column
    reduces to arbitrary tie-breaking."""
    q25, q75, lo, hi = _quartiles_and_range(x)
    if hi == lo:
        return True
    return (q75 - q25) <= 1e-12 * (hi - lo)


# -- verification against a known formula --------------------------------------

_gamma_counter = itertools.count()


def _fresh_gamma() -> sp.Symbol:
    return sp.Symbol(f"g_{next(_gamma_counter)}", real=True)


def reduce_truth(truth: sp.Expr, symbols: Sequence[sp.Symbol], sub: Substitution
                 ) -> tuple[bool, sp.Expr | None, list[sp.Symbol] | None]:
    """Check a substitution against a known formula over `symbols`.

    Returns (valid, reduced formula, reduced symbol list).  An out-input
    substitution is valid when h(x_I, f(x)) is independent of x_I.  An input
    substitution introduces a fresh symbol for g(x_I), solves for one x_i,
    substitutes it into the formula, and requires the result to be
    independent of x_I; the reduced problem's first column corresponds to
    the fresh symbol.  Raises ValueError when an index is not a variable of
    the formula.
    """
    if max(sub.I) >= len(symbols):
        raise ValueError("substitution indices outside the formula's variables")
    local = [symbols[i] for i in sub.I]
    kept = [symbols[j] for j in _retained(len(symbols), sub.I)]
    if isinstance(sub, OutInputSub):
        transformed = symbolic.to_sympy(sub.h, subs=local + [truth])
        return _reduced(transformed, list(symbols), sub.I, kept)
    size = len(sub.I)
    gamma = _fresh_gamma()
    gamma_slot = variable(size, size + 1)
    solved = None
    for pos in range(size):
        try:
            solved = solve_for(gamma_slot, sub.g, target=pos, check=False)
        except NotSolvable:
            continue
        break
    if solved is None:
        raise Unverifiable("no variable of the candidate is solvable")
    xi_expr = symbolic.to_sympy(solved, subs=local + [gamma])
    substituted = truth.subs(symbols[sub.I[pos]], xi_expr)
    return _reduced(substituted, list(symbols) + [gamma], sub.I, [gamma] + kept)


def _reduced(expr: sp.Expr, symbols: list[sp.Symbol], targets: Sequence[int],
             reduced_symbols: list[sp.Symbol]
             ) -> tuple[bool, sp.Expr | None, list[sp.Symbol] | None]:
    """(True, the target-free rewrite of `expr`, `reduced_symbols`) when
    `expr` does not depend on the target columns; (False, None, None) when
    it does or when the CAS and the numeric probe disagree."""
    try:
        cleaned = symbolic.independent_form(expr, symbols, targets)
    except Inconclusive:
        cleaned = None
    return (False, None, None) if cleaned is None else (True, cleaned, reduced_symbols)


def sympy_truth(f_true: ExprDag) -> tuple[sp.Expr, list[sp.Symbol]]:
    """The known formula as a sympy expression over real symbols x1..xd."""
    symbols = [sp.Symbol(f"x{i + 1}", real=True) for i in range(f_true.arity)]
    return symbolic.to_sympy(f_true, subs=symbols), symbols


def verify_substitution(f_true: ExprDag, sub: Substitution) -> bool:
    """Whether the substitution is valid for the known formula."""
    truth, symbols = sympy_truth(f_true)
    valid, _, _ = reduce_truth(truth, symbols, sub)
    return valid


verify_input_sub = verify_outinput_sub = verify_substitution
