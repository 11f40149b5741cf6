"""Enumeration of small expression DAGs.

A dag in the search space has one output operator node and at most
`max_intermediary_nodes` further operator nodes; operands are input
variables, optionally fresh constant placeholders, and previously defined
operator nodes.  Structural duplicates (after node deduplication and
commutative-argument canonicalization) are emitted once.

Dags are enumerated as programs, one node at a time.  A program counts only
if its last node reaches every node, which holds iff every earlier node is
an operand of a later one, and if its nodes are distinct expressions.  The
recursion carries the nodes no later node uses yet and cuts a prefix as
soon as the operand slots left cannot cover them, or as soon as a node
repeats an earlier one.  All programs with the same operator count share
one `DagBuilder`, so each node is interned once per prefix, a repeated root
is skipped by its id, and only new dags are snapshotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .dag import BINARY_OPS, OPS, UNARY_OPS, DagBuilder, ExprDag

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
    """Yield structurally distinct dags, smallest operator count first.

    Within an operator count the order is that of the programs: node by
    node, each node's spec in `_node_specs` order.  A program is kept when
    its last node reaches every node and no two nodes are the same
    expression; `_class_roots` prunes the others in the recursion, so they
    are never built.  A kept program yields its dag unless an earlier
    program built the same one.  Within a class, equal dags have equal root
    ids unless they have two or more placeholders, which renumbering can
    make equal; dags of different classes differ in operator count.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    renumbered: set[str] = set()
    for k in range(budget.max_intermediary_nodes + 1):
        for b, root, n_params in _class_roots(arity, k, budget):
            dag = b.extract(root, arity)
            if n_params >= 2:  # with fewer, renumbering is the identity
                dag = _renumber_placeholders(dag)
                if dag.key in renumbered:
                    continue
                renumbered.add(dag.key)
            yield dag


def _class_roots(arity: int, k: int, budget: GrammarBudget) -> Iterator[tuple[DagBuilder, int, int]]:
    """(builder, root id, placeholder count) of each program of k + 1 nodes
    whose last node reaches every node and whose nodes are k + 1 distinct
    expressions, in program order, skipping roots already yielded.

    One builder interns the nodes of every program in the class, each node
    once per prefix.  Placeholders are named c0, c1, ... in spec order, left
    operand first.  Hash-consing and commutative ordering are structural,
    so node ids and keys are those that a builder per program would give.
    """
    b = DagBuilder()
    variables = [b.var(i) for i in range(arity)]
    width = 2 if budget.allowed_ops & set(BINARY_OPS) else 1
    # per node position: (op, operand tokens, mask of the node operands)
    levels = [[(spec[0], spec[1:], sum(1 << t[1] for t in set(spec[1:]) if t[0] == "n"))
               for spec in _node_specs(arity, j, budget)] for j in range(k + 1)]
    roots: set[int] = set()

    def rec(ids: list[int], n_params: int, unused: int) -> Iterator[tuple[DagBuilder, int, int]]:
        # `unused`: mask of the nodes so far that no later node takes as operand
        j = len(ids)
        for op, toks, refs in levels[j]:
            uncovered = unused & ~refs
            if j == k:
                if uncovered:
                    continue  # some node stays unreached
            elif (uncovered | 1 << j).bit_count() > width * (k - j):
                continue  # more unused nodes than operand slots left
            args = []
            count = n_params
            for t in toks:
                if t[0] == "v":
                    args.append(variables[t[1]])
                elif t[0] == "c":
                    args.append(b.param(f"c{count}"))
                    count += 1
                else:
                    args.append(ids[t[1]])
            nid = b.binary(op, *args) if len(args) == 2 else b.unary(op, *args)
            if nid in ids:
                continue  # collapses into fewer operator nodes
            if j < k:
                yield from rec(ids + [nid], count, uncovered | 1 << j)
            elif nid not in roots:
                roots.add(nid)
                yield b, nid, count

    try:
        yield from rec([], 0, 0)
    finally:
        # `rec` refers to itself through its closure; breaking that cycle
        # frees the builder now instead of at the next full collection
        rec = None


def _renumber_placeholders(dag: ExprDag) -> ExprDag:
    """Rename placeholders c0, c1, ... by first occurrence in a left-first
    traversal so structurally equal skeletons share one key.  An extracted
    dag lists its nodes in left-first post-order, so `placeholders()`
    already names them in that order."""
    mapping = {name: f"c{i}" for i, name in enumerate(dag.placeholders())}
    if all(k == v for k, v in mapping.items()):
        return dag
    b = DagBuilder()
    root = b.copy_from(dag, param=lambda name: b.param(mapping[name]))
    return b.extract(root, dag.arity)
