"""Expression DAGs: immutable node graphs with numeric evaluation and inversion.

Expressions are stored as directed acyclic graphs over variable, constant and
operator nodes.  Shared subexpressions are represented once (hash-consing in
the builder), commutative operands are ordered canonically, and every dag
carries a structural key so that two semantically identical constructions
compare equal.

Numeric evaluation has one node walker, `Compiled`: a dag on a fixed design
matrix as a function of its placeholder values.  Building it computes every
node that reads no placeholder; each call computes only the nodes that do.
`evaluate` compiles and calls once; the dagsearch fit compiles a skeleton
once and calls it at every constant vector it tries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

import numpy as np
import sympy as sp

from .errors import NotSolvable


@dataclass(frozen=True)
class Op:
    """Everything the layers need to know about one operator.

    `numpy` evaluates it elementwise with its domain guards, `sympy` builds
    the computer-algebra form, `fold` evaluates a unary op on one float
    (None for binary ops), and `inverse` names the op that undoes it (None
    when the op is not invertible).  `text` is the printed form with
    ``{0}``/``{1}`` for the operands and `prec` its binding strength.
    """

    arity: int
    numpy: Callable
    sympy: Callable
    text: str
    prec: int
    fold: Callable[[float], float] | None = None
    inverse: str | None = None
    commutative: bool = False


def _function(name: str, numpy: Callable, sympy: Callable, fold: Callable,
              inverse: str | None) -> Op:
    return Op(1, numpy, sympy, f"{name}({{0}})", 9, fold, inverse)


def _guarded_log(c):
    return np.log(np.where(c > 0, c, np.nan))


def _guarded_div(l, r):
    return np.where(r != 0, l / r, np.nan)


def _square(c):
    return c * c


# Order matters: enumeration walks the binary ops, then the unary ops, in
# this order, which fixes candidate discovery order and skeleton positions.
OPS: dict[str, Op] = {
    "+": Op(2, operator.add, operator.add, "{0}+{1}", 1, inverse="-", commutative=True),
    "-": Op(2, operator.sub, operator.sub, "{0}-{1}", 1, inverse="+"),
    "*": Op(2, operator.mul, operator.mul, "{0}*{1}", 2, inverse="/", commutative=True),
    "/": Op(2, _guarded_div, operator.truediv, "{0}/{1}", 2, inverse="*"),
    "sqrt": _function("sqrt", np.sqrt, sp.sqrt, math.sqrt, "square"),
    "log": _function("log", _guarded_log, sp.log, math.log, "exp"),
    "exp": _function("exp", np.exp, sp.exp, math.exp, "log"),
    "sin": _function("sin", np.sin, sp.sin, math.sin, None),
    "cos": _function("cos", np.cos, sp.cos, math.cos, None),
    "neg": Op(1, operator.neg, operator.neg, "-({0})", 0, operator.neg, "neg"),
    "inv": Op(1, lambda c: _guarded_div(1.0, c), lambda c: 1 / c, "1/({0})", 2,
              lambda v: 1.0 / v, "inv"),
    # printed as an explicit product to stay within + - * /
    "square": Op(1, _square, lambda c: c ** 2, "(({0})*({0}))", 9, _square, "sqrt"),
}
UNARY_OPS = tuple(name for name, op in OPS.items() if op.arity == 1)
BINARY_OPS = tuple(name for name, op in OPS.items() if op.arity == 2)


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    # value None marks a fitted-constant placeholder identified by `name`.
    value: float | None = None
    name: str | None = None

    @property
    def is_placeholder(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class Unary:
    op: str
    child: int


@dataclass(frozen=True)
class Binary:
    op: str
    left: int
    right: int


Node = Union[Var, Const, Unary, Binary]


def _const_repr(value: float) -> str:
    # the magnitude test comes first: int() raises on inf and nan
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


class DagBuilder:
    """Hash-consing builder: equal subexpressions map to one node id.

    Commutative operands are ordered by (rank, structural key), and two
    local normalizations keep canonical forms tight: ``a*a`` becomes
    ``square(a)`` and ``1/b`` becomes ``inv(b)``.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._keys: list[str] = []
        self._order: list[tuple[int, str]] = []
        self._index: dict[str, int] = {}

    def _intern(self, node: Node, key: str, rank: int) -> int:
        # structural keys are injective, so the key alone identifies a node
        hit = self._index.get(key)
        if hit is not None:
            return hit
        nid = len(self.nodes)
        self.nodes.append(node)
        self._keys.append(key)
        self._order.append((rank, key))
        self._index[key] = nid
        return nid

    def key(self, nid: int) -> str:
        return self._keys[nid]

    def order_key(self, nid: int) -> tuple[int, str]:
        return self._order[nid]

    def var(self, index: int) -> int:
        if index < 0:
            raise ValueError("variable index must be >= 0")
        return self._intern(Var(index), f"V{index:03d}", 2)

    def const(self, value: float) -> int:
        value = float(value)
        if value == 0.0:  # collapse -0.0
            value = 0.0
        return self._intern(Const(value, None), f"C{_const_repr(value)}", 0)

    def param(self, name: str) -> int:
        return self._intern(Const(None, name), f"P{name}", 1)

    def unary(self, op: str, child: int) -> int:
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        key = f"({op} {self._keys[child]})"
        return self._intern(Unary(op, child), key, 3)

    def binary(self, op: str, left: int, right: int) -> int:
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        if OPS[op].commutative and self._order[right] < self._order[left]:
            left, right = right, left
        if op == "*" and left == right:
            return self.unary("square", left)
        if op == "/":
            lnode = self.nodes[left]
            if isinstance(lnode, Const) and lnode.value == 1.0:
                return self.unary("inv", right)
        key = f"({op} {self._keys[left]} {self._keys[right]})"
        return self._intern(Binary(op, left, right), key, 3)

    def copy_from(self, dag: "ExprDag", var: Callable[[int], int] | None = None,
                  param: Callable[[str], int] | None = None,
                  unary: Callable[[str, int], int] | None = None,
                  binary: Callable[[str, int, int], int] | None = None) -> int:
        """Rebuild `dag` in this builder node by node, children first, and
        return the new root id.

        Each callback builds one kind of node from the ids of its rebuilt
        children and defaults to this builder's own method: `var(index)`,
        `param(name)`, `unary(op, child)` and `binary(op, left, right)`.
        """
        var = var or self.var
        param = param or self.param
        unary = unary or self.unary
        binary = binary or self.binary
        memo: list[int] = []
        for node in dag.nodes:
            if isinstance(node, Var):
                memo.append(var(node.index))
            elif isinstance(node, Const):
                memo.append(param(node.name or "c") if node.is_placeholder
                            else self.const(node.value))
            elif isinstance(node, Unary):
                memo.append(unary(node.op, memo[node.child]))
            else:
                memo.append(binary(node.op, memo[node.left], memo[node.right]))
        return memo[dag.root]

    def extract(self, root: int, arity: int) -> "ExprDag":
        """Snapshot the subgraph reachable from `root` as an ExprDag, its
        nodes in left-first post-order."""
        nodes = self.nodes
        remap: dict[int, int] = {}
        out: list[Node] = []
        # the stack holds the path from `root` to the node being finished
        stack = [root]
        while stack:
            nid = stack[-1]
            node = nodes[nid]
            if isinstance(node, Unary):
                child = remap.get(node.child)
                if child is None:
                    stack.append(node.child)
                    continue
                node = Unary(node.op, child)
            elif isinstance(node, Binary):
                left = remap.get(node.left)
                if left is None:
                    stack.append(node.left)
                    continue
                right = remap.get(node.right)
                if right is None:
                    stack.append(node.right)
                    continue
                node = Binary(node.op, left, right)
            stack.pop()
            remap[nid] = len(out)
            out.append(node)
        return ExprDag(tuple(out), remap[root], arity, self._keys[root])


@dataclass(frozen=True)
class ExprDag:
    """Immutable expression DAG.

    nodes are stored in topological order (children precede parents), `root`
    indexes the output node and `arity` is the declared input dimension.
    """

    nodes: tuple[Node, ...]
    root: int
    arity: int
    key: str = field(compare=False)

    def __post_init__(self) -> None:
        for node in self.nodes:
            if isinstance(node, Var) and not 0 <= node.index < self.arity:
                raise ValueError(
                    f"variable index {node.index} outside declared arity {self.arity}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExprDag):
            return NotImplemented
        return self.arity == other.arity and self.key == other.key

    def __hash__(self) -> int:
        return hash((self.arity, self.key))

    def __repr__(self) -> str:
        from .exprtext import to_text

        return f"ExprDag({to_text(self)!r}, arity={self.arity})"

    # -- structural queries -------------------------------------------------

    def var_indices(self) -> set[int]:
        return {n.index for n in self.nodes if isinstance(n, Var)}

    def placeholders(self) -> list[str]:
        names = []
        for n in self.nodes:
            if isinstance(n, Const) and n.is_placeholder and n.name not in names:
                names.append(n.name)
        return names

    def op_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, (Unary, Binary)))

    def var_tree_occurrences(self, index: int) -> int:
        return _occurrences(self.nodes, index)[self.root]


def _occurrences(nodes: Sequence[Node], target: int) -> list[int]:
    """Per node, the occurrences of Var(target) in its expanded tree: a
    shared node's count enters once per parent edge."""
    counts: list[int] = []
    for node in nodes:
        if isinstance(node, Unary):
            counts.append(counts[node.child])
        elif isinstance(node, Binary):
            counts.append(counts[node.left] + counts[node.right])
        else:
            counts.append(1 if isinstance(node, Var) and node.index == target else 0)
    return counts


# -- construction helpers ---------------------------------------------------


def variable(index: int, arity: int) -> ExprDag:
    b = DagBuilder()
    return b.extract(b.var(index), arity)


def compose(dag: ExprDag, replacements: Sequence[ExprDag], arity: int) -> ExprDag:
    """Substitute `replacements[i]` for Var(i); the result has `arity` inputs."""
    if len(replacements) < dag.arity:
        needed = dag.var_indices()
        if needed and max(needed) >= len(replacements):
            raise ValueError("not enough replacement expressions")
    b = DagBuilder()
    roots = [b.copy_from(r) for r in replacements]
    out = b.copy_from(dag, var=roots.__getitem__)
    return b.extract(out, arity)


def bind_placeholders(dag: ExprDag, values: dict[str, float]) -> ExprDag:
    b = DagBuilder()

    def param(name: str) -> int:
        return b.const(values[name]) if name in values else b.param(name)

    return b.extract(b.copy_from(dag, param=param), dag.arity)


# -- numeric evaluation -----------------------------------------------------

_OVERFLOW_GUARD = 1e150


def _on_column(fn: Callable, n: int) -> Callable:
    """`fn` with its first operand, a constant, spread to an n-array."""
    return lambda first, *rest: fn(np.full(n, first), *rest)


class Compiled:
    """`dag` on a fixed (n, d) matrix `X`, as a function of its placeholders.

    Building it computes every node that reads no placeholder.  A call
    `f(theta)` takes the placeholder values in `names` order, computes only
    the nodes that read one, and returns the root as an n-array; entries
    past the overflow guard (|v| > 1e150) are nan.  Each call overwrites the
    values of the previous one.

    Constant nodes stay scalars and broadcast in binary ops.  A unary op on
    a constant, a binary op on two constants and a constant root get the
    constant as an n-array, so every op computes on the same elements as it
    would with a full constant column.  Domain violations yield non-finite
    entries and never raise; the caller chooses the `np.errstate` that
    building and calls run under.
    """

    def __init__(self, dag: ExprDag, X: np.ndarray, names: Sequence[str]) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] < dag.arity:
            raise ValueError(f"dag arity {dag.arity} exceeds data dimension {X.shape[1]}")
        n = X.shape[0]
        self.names = tuple(names)
        position = {name: i for i, name in enumerate(self.names)}
        nodes = dag.nodes
        # while building, a node's value is None exactly when it reads a
        # placeholder
        vals: list = []
        # (node id, position in theta) and (node id, op, operand ids) of
        # the nodes each call computes, in node order
        self._params: list[tuple[int, int]] = []
        self._steps: list[tuple[int, Callable, int, int | None]] = []
        for nid, node in enumerate(nodes):
            if isinstance(node, Var):
                vals.append(X[:, node.index])
                continue
            if isinstance(node, Const):
                if node.is_placeholder:
                    if node.name not in position:
                        raise ValueError(f"unbound placeholder {node.name!r}")
                    self._params.append((nid, position[node.name]))
                    vals.append(None)
                else:
                    vals.append(node.value)
                continue
            fn = OPS[node.op].numpy
            if isinstance(node, Unary):
                a, b = node.child, None
                if isinstance(nodes[a], Const):
                    fn = _on_column(fn, n)
            else:
                a, b = node.left, node.right
                if isinstance(nodes[a], Const) and isinstance(nodes[b], Const):
                    fn = _on_column(fn, n)
            if vals[a] is None or (b is not None and vals[b] is None):
                self._steps.append((nid, fn, a, b))
                vals.append(None)
            else:
                vals.append(fn(vals[a]) if b is None else fn(vals[a], vals[b]))
        self._vals = vals
        self._root = dag.root
        self._n_root = n if isinstance(nodes[dag.root], Const) else None

    def __call__(self, theta: Sequence[float]) -> np.ndarray:
        vals = self._vals
        for nid, pos in self._params:
            vals[nid] = theta[pos]
        for nid, fn, a, b in self._steps:
            vals[nid] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        out = vals[self._root]
        if self._n_root is not None:
            out = np.full(self._n_root, out)
        return np.where(np.abs(out) <= _OVERFLOW_GUARD, out, np.nan)


def evaluate(dag: ExprDag, X: np.ndarray, params: dict[str, float] | None = None) -> np.ndarray:
    """Elementwise evaluation on an (n, d) matrix: `Compiled` once, called
    once at `params`, with every floating-point error ignored.

    Domain violations (log of non-positives, division by zero, sqrt of a
    negative, overflow) yield non-finite entries; they never raise.  An
    unbound placeholder raises ValueError.
    """
    params = params or {}
    with np.errstate(all="ignore"):
        return Compiled(dag, X, list(params))(list(params.values()))


# -- equation solving by path inversion -------------------------------------


def _walk_to_target(nodes: Sequence[Node], counts: list[int],
                    nid: int) -> Iterator[tuple[Unary | Binary, bool]]:
    """The operator nodes from `nid` down to the one target occurrence below
    it, each with whether the walk goes on into its left (or only) operand.

    `counts` are the target's `_occurrences`, and counts[nid] must be 1.
    """
    while not isinstance(node := nodes[nid], Var):
        if isinstance(node, Unary):
            nid = node.child
            yield node, True
        else:
            in_left = counts[node.left] > 0
            nid = node.left if in_left else node.right
            yield node, in_left


def invertible_path(dag: ExprDag, target: int) -> bool:
    """True when `target` occurs exactly once and every operator on the path
    from that occurrence to the root is invertible."""
    counts = _occurrences(dag.nodes, target)
    return counts[dag.root] == 1 and all(
        OPS[node.op].inverse is not None
        for node, _ in _walk_to_target(dag.nodes, counts, dag.root)
    )


def solve_for(lhs: ExprDag, rhs: ExprDag, target: int, check: bool = True) -> ExprDag:
    """Solve lhs(x) = rhs(x) for variable `target`.

    The target must occur exactly once across both sides and every operator
    on the path from that occurrence to its root must be invertible
    (+, -, *, / with the target on either side; sqrt, log, exp, neg, inv,
    and square on its non-negative branch).  Raises NotSolvable otherwise.
    """
    arity = max(lhs.arity, rhs.arity)
    b = DagBuilder()
    side = b.copy_from(lhs)
    acc = b.copy_from(rhs)
    counts = _occurrences(b.nodes, target)
    if counts[side] + counts[acc] != 1:
        raise NotSolvable(f"target x{target + 1} occurs {counts[side] + counts[acc]} times")
    if counts[acc]:
        side, acc = acc, side
    constraints: list[int] = []  # node ids that must be >= 0 for the branch

    for node, in_left in _walk_to_target(b.nodes, counts, side):
        op = OPS[node.op]
        if op.inverse is None:
            raise NotSolvable(f"operator {node.op!r} on the path is not invertible")
        if isinstance(node, Unary):
            if node.op == "sqrt":  # sqrt only reaches values >= 0
                constraints.append(acc)
            # square is inverted on its non-negative branch
            acc = b.unary(op.inverse, acc)
        else:
            other = node.right if in_left else node.left
            if in_left or op.commutative:
                acc = b.binary(op.inverse, acc, other)
            else:
                acc = b.binary(node.op, other, acc)

    solution = b.extract(acc, arity)
    if check:
        _check_solution(lhs, rhs, target, solution,
                        [b.extract(c, arity) for c in constraints])
    return solution


_CHECK_POINTS = 100
_CHECK_TOL = 1e-9


def _check_solution(lhs: ExprDag, rhs: ExprDag, target: int, solution: ExprDag,
                    constraints: list[ExprDag]) -> None:
    rng = np.random.default_rng(0)
    arity = max(lhs.arity, rhs.arity)
    passed = 0
    attempts = 0
    c = 1.0
    while passed < _CHECK_POINTS and attempts < 40:
        attempts += 1
        pts = rng.uniform(-c, c, size=(max(4 * _CHECK_POINTS, 64), arity))
        sol = evaluate(solution, pts)
        mask = np.isfinite(sol)
        for con in constraints:
            cv = evaluate(con, pts)
            mask &= np.isfinite(cv) & (cv >= 0)
        if not mask.any():
            c += 0.5
            continue
        pts = pts[mask]
        pts[:, target] = sol[mask]
        lv = evaluate(lhs, pts)
        rv = evaluate(rhs, pts)
        ok = np.isfinite(lv) & np.isfinite(rv)
        if not ok.any():
            c += 0.5
            continue
        resid = np.abs(lv[ok] - rv[ok])
        scale = 1.0 + np.maximum(np.abs(lv[ok]), np.abs(rv[ok]))
        if np.any(resid > _CHECK_TOL * scale):
            raise NotSolvable("solution failed the randomized residual check")
        passed += int(ok.sum())
        c += 0.5
    if passed == 0:
        raise NotSolvable("no valid sample points for the residual check")
