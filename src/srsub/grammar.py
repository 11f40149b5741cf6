"""Enumeration of small expression DAGs.

A dag in the search space has one output operator node and at most
`max_intermediary_nodes` further operator nodes; operands are input
variables, optionally fresh constant placeholders, and previously defined
operator nodes.  Structural duplicates (after node deduplication and
commutative-argument canonicalization) are emitted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .dag import BINARY_OPS, OPS, UNARY_OPS, Binary, Const, DagBuilder, ExprDag, Unary

DEFAULT_OPS = frozenset({"+", "-", "*", "/", "sqrt", "log", "exp", "sin", "cos"})


@dataclass(frozen=True)
class GrammarBudget:
    """Size and operator limits for dag enumeration.  Hashable, so that the
    enumeration caches can key on a budget."""

    max_intermediary_nodes: int = 1
    allowed_ops: frozenset = field(default_factory=lambda: DEFAULT_OPS)
    allow_constants: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_ops", frozenset(self.allowed_ops))
        if self.max_intermediary_nodes < 0:
            raise ValueError("max_intermediary_nodes must be >= 0")
        unknown = set(self.allowed_ops) - set(OPS)
        if unknown:
            raise ValueError(f"unknown operators: {sorted(unknown)}")


# operand tokens: ("v", i) variable, ("c",) fresh constant, ("n", j) op node j
def _operands(arity: int, defined: int, allow_constants: bool) -> list[tuple]:
    ops: list[tuple] = [("v", i) for i in range(arity)]
    if allow_constants:
        ops.append(("c",))
    ops.extend(("n", j) for j in range(defined))
    return ops


def _node_specs(arity: int, defined: int, budget: GrammarBudget) -> Iterator[tuple]:
    pool = _operands(arity, defined, budget.allow_constants)
    for op in BINARY_OPS:
        if op not in budget.allowed_ops:
            continue
        for a in pool:
            for b in pool:
                if a == ("c",) and b == ("c",):
                    continue  # constant-foldable; redundant in skeleton space
                yield (op, a, b)
    for op in UNARY_OPS:
        if op not in budget.allowed_ops:
            continue
        for a in pool:
            if a == ("c",):
                continue  # constant-foldable; redundant in skeleton space
            yield (op, a)


def enumerate_dags(arity: int, budget: GrammarBudget) -> Iterator[ExprDag]:
    """Yield structurally distinct dags, smallest operator count first."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    seen: set[str] = set()
    for k in range(budget.max_intermediary_nodes + 1):
        for spec in _enumerate_programs(arity, k, budget):
            dag = _build_program(spec, arity)
            if dag is None:
                continue
            if dag.op_count() != k + 1:
                continue  # collapsed into a smaller budget class
            dag = _renumber_placeholders(dag)
            if dag.key in seen:
                continue
            seen.add(dag.key)
            yield dag


def _enumerate_programs(arity: int, k: int, budget: GrammarBudget) -> Iterator[list[tuple]]:
    def rec(defined: int, acc: list[tuple]) -> Iterator[list[tuple]]:
        if defined == k + 1:
            yield acc
            return
        for spec in _node_specs(arity, defined, budget):
            yield from rec(defined + 1, acc + [spec])

    yield from rec(0, [])


def _build_program(specs: list[tuple], arity: int) -> ExprDag | None:
    # reachability: the output node must use every intermediary node
    used: set[int] = set()
    stack = [("n", len(specs) - 1)]
    deps: list[list[tuple]] = [list(spec[1:]) for spec in specs]
    while stack:
        kind = stack.pop()
        if kind[0] != "n" or kind[1] in used:
            continue
        used.add(kind[1])
        stack.extend(deps[kind[1]])
    if len(used) != len(specs):
        return None

    b = DagBuilder()
    const_counter = 0
    node_ids: list[int] = []

    def operand(tok: tuple) -> int:
        nonlocal const_counter
        if tok[0] == "v":
            return b.var(tok[1])
        if tok[0] == "c":
            const_counter += 1
            return b.param(f"c{const_counter - 1}")
        return node_ids[tok[1]]

    for spec in specs:
        op = spec[0]
        if len(spec) == 3:
            node_ids.append(b.binary(op, operand(spec[1]), operand(spec[2])))
        else:
            node_ids.append(b.unary(op, operand(spec[1])))
    return b.extract(node_ids[-1], arity)


def _renumber_placeholders(dag: ExprDag) -> ExprDag:
    """Rename placeholders by first occurrence in a canonical traversal so
    structurally equal skeletons share one key."""
    names = dag.placeholders()
    if not names:
        return dag
    order: list[str] = []

    def visit(nid: int) -> None:
        node = dag.nodes[nid]
        if isinstance(node, Const) and node.is_placeholder and node.name not in order:
            order.append(node.name)
        elif isinstance(node, Unary):
            visit(node.child)
        elif isinstance(node, Binary):
            visit(node.left)
            visit(node.right)

    visit(dag.root)
    mapping = {name: f"c{i}" for i, name in enumerate(order)}
    if all(k == v for k, v in mapping.items()):
        return dag
    b = DagBuilder()
    root = b.copy_from(dag, param=lambda name: b.param(mapping[name]))
    return b.extract(root, dag.arity)
