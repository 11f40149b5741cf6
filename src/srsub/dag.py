"""Expression DAGs: immutable node graphs with numeric evaluation and inversion.

Expressions are stored as directed acyclic graphs over variable, constant and
operator nodes.  Shared subexpressions are represented once (hash-consing in
the builder), commutative operands are ordered canonically, and every dag
carries a structural key so that two semantically identical constructions
compare equal.

Two functions walk a dag's nodes children first and build a value per node.
`fold` is the general one: rebuilding (`DagBuilder.copy_from`), occurrence
counts, the sympy form, the complexity measure and the printed text all go
through it.  Numeric evaluation has its own walker, `Compiled`: a dag on a
fixed design matrix as a `Program` of its placeholder values.  Building it
computes every node that reads no placeholder and records which nodes do,
so each call computes only those; a fold would recompute every node at every
call of the dagsearch fit.  `evaluate` compiles and calls once.  The
dagsearch fit's first pass runs the programs of `regress.SkeletonTable`,
which share each placeholder-free node across the whole skeleton stream and
give `Compiled`'s values bit for bit; it compiles only the skeletons it
refines, and calls each at every constant vector it tries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TypeVar, Union

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
    q = l / r
    # with no zero divisor, every quotient stands
    nonzero = r.all() if isinstance(r, np.ndarray) else r != 0
    return q if nonzero else np.where(r != 0, q, np.nan)


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

T = TypeVar("T")


def fold(nodes: Sequence[Node], var: Callable[[int], T], const: Callable[[Const], T],
         unary: Callable[[str, T], T], binary: Callable[[str, T, T], T]) -> list[T]:
    """Per node of `nodes` (children before parents), in storage order, a
    value built from its children's values: `var(index)`, `const(node)`,
    `unary(op, child value)` or `binary(op, left value, right value)`."""
    vals: list[T] = []
    for node in nodes:
        if isinstance(node, Var):
            vals.append(var(node.index))
        elif isinstance(node, Const):
            vals.append(const(node))
        elif isinstance(node, Unary):
            vals.append(unary(node.op, vals[node.child]))
        else:
            vals.append(binary(node.op, vals[node.left], vals[node.right]))
    return vals


def const_repr(value: float) -> str:
    """A constant's text in node keys and printed formulas: integral values
    below 1e16 without a fraction, others by `repr`."""
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
        return self._intern(Const(value, None), f"C{const_repr(value)}", 0)

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
        param = param or self.param

        def const(node: Const) -> int:
            return param(node.name or "c") if node.is_placeholder else self.const(node.value)

        return fold(dag.nodes, var or self.var, const, unary or self.unary,
                    binary or self.binary)[dag.root]

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
    return fold(nodes, lambda index: int(index == target), lambda node: 0,
                lambda op, child: child, lambda op, left, right: left + right)


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


class Program:
    """Placeholder values in, a column out: the nodes of a dag that read a
    placeholder, as steps over registers that hold every node's value.

    A call `f(theta)` puts the values, in `names` order, into the
    placeholders' registers, runs the steps in order and returns the root
    register as an n-array; entries past the overflow guard (|v| > 1e150)
    are nan.  The other registers hold values computed before the first
    call.  Each call overwrites the values of the previous one.
    """

    def __init__(self, names: Sequence[str], regs: list,
                 params: Sequence[tuple[int, int]],
                 steps: Sequence[tuple[int, Callable, int, int | None]], root: int) -> None:
        self.names = tuple(names)
        self._regs = regs
        # (register, position in theta) per placeholder, and (register, op,
        # operand registers) per step, the second operand None for a unary op
        self._params = params
        self._steps = steps
        self._root = root

    def __call__(self, theta: Sequence[float]) -> np.ndarray:
        regs = self._regs
        for r, pos in self._params:
            regs[r] = theta[pos]
        for r, fn, a, b in self._steps:
            regs[r] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
        out = regs[self._root]
        magnitude = np.abs(out, dtype=float)
        # a nan maximum fails the test too
        if magnitude.max(initial=0.0) <= _OVERFLOW_GUARD:
            magnitude[...] = out
            return magnitude
        return np.where(magnitude <= _OVERFLOW_GUARD, out, np.nan)


class Compiled(Program):
    """`dag` on a fixed (n, d) matrix `X`, as the `Program` of its
    placeholders: building it computes every node that reads no
    placeholder, and a call computes only the nodes that read one.

    Registers are node ids.  Constant nodes stay scalars and broadcast in
    binary ops.  A unary op on a constant, a binary op on two constants and
    a constant root get the constant as an n-array, so every op computes on
    the same elements as it would with a full constant column.  Domain
    violations yield non-finite entries and never raise; the caller chooses
    the `np.errstate` that building and calls run under.
    """

    def __init__(self, dag: ExprDag, X: np.ndarray, names: Sequence[str]) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] < dag.arity:
            raise ValueError(f"dag arity {dag.arity} exceeds data dimension {X.shape[1]}")
        n = X.shape[0]
        position = {name: i for i, name in enumerate(names)}
        nodes = dag.nodes
        # while building, a node's value is None exactly when it reads a
        # placeholder
        vals: list = []
        params: list[tuple[int, int]] = []
        steps: list[tuple[int, Callable, int, int | None]] = []
        for nid, node in enumerate(nodes):
            if isinstance(node, Var):
                vals.append(X[:, node.index])
                continue
            if isinstance(node, Const):
                if node.is_placeholder:
                    if node.name not in position:
                        raise ValueError(f"unbound placeholder {node.name!r}")
                    params.append((nid, position[node.name]))
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
                steps.append((nid, fn, a, b))
                vals.append(None)
            else:
                vals.append(fn(vals[a]) if b is None else fn(vals[a], vals[b]))
        root = dag.root
        if isinstance(nodes[root], Const):
            # one more register: the constant spread to a column
            steps.append((len(vals), _on_column(lambda column: column, n), root, None))
            root = len(vals)
            vals.append(None)
        super().__init__(names, vals, params, steps, root)


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


_SAMPLE_START = 1.0
_SAMPLE_STEP = 0.5
_SAMPLE_LIMIT = 150.0


def sample_finite(fn: Callable[[np.ndarray], np.ndarray], n: int, d: int,
                  rng: np.random.Generator,
                  box: Sequence[tuple[float, float]] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Up to `n` points where `fn` is finite, in draw order, and `fn`'s
    values at them; the one sampler of random points.

    Each draw takes exactly the missing rows, uniformly from `box` (one
    (lo, hi) per column) or else from the cube [-c, c]^d, whose half-width c
    starts at 1 and grows by 0.5 per draw.  Drawing stops at `n` rows or
    after the draw at half-width 150, the 299th; what a short sample means
    is the caller's to decide.  For d = 0 one column is drawn.  `fn` must
    ignore floating-point errors itself, as `evaluate` does.
    """
    cols = max(d, 1)
    bounds = None if box is None else np.array(box, dtype=float).T
    points, values = [np.empty((0, cols))], [np.empty(0)]
    have = 0
    c = _SAMPLE_START
    while have < n and c <= _SAMPLE_LIMIT:
        low, high = (-c, c) if bounds is None else bounds
        pts = rng.uniform(low, high, size=(n - have, cols))
        vals = fn(pts)
        finite = np.isfinite(vals)
        points.append(pts[finite])
        values.append(vals[finite])
        have += int(finite.sum())
        c += _SAMPLE_STEP
    return np.vstack(points), np.concatenate(values)


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


_CHECK_POINTS = 400
_CHECK_TOL = 1e-9


def _check_solution(lhs: ExprDag, rhs: ExprDag, target: int, solution: ExprDag,
                    constraints: list[ExprDag]) -> None:
    """Raise NotSolvable unless lhs = rhs holds, to a relative 1e-9, at 400
    seeded random points where `solution` and its branch `constraints` are
    valid, with `solution` put in for the target."""

    def residual(pts: np.ndarray) -> np.ndarray:
        sol = evaluate(solution, pts)
        valid = np.isfinite(sol)
        for con in constraints:
            valid &= evaluate(con, pts) >= 0
        pts = pts.copy()
        pts[:, target] = sol
        lv, rv = evaluate(lhs, pts), evaluate(rhs, pts)
        gap = np.abs(lv - rv) / (1.0 + np.maximum(np.abs(lv), np.abs(rv)))
        return np.where(valid, gap, np.nan)

    _, gaps = sample_finite(residual, _CHECK_POINTS, max(lhs.arity, rhs.arity),
                            np.random.default_rng(0))
    if not len(gaps):
        raise NotSolvable("no valid sample points for the residual check")
    if np.any(gaps > _CHECK_TOL):
        raise NotSolvable("solution failed the randomized residual check")
