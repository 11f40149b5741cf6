"""Canonical rewrite system for expression DAGs.

The rules: constant folding, identity elimination (x+0, x*1, x/1, x*0),
double-negation/inverse collapse, exp/log cancellation on valid domains, and
flattening plus canonical sorting of commutative +/- and */ chains with
pairwise cancellation of matching terms and factors.  Semantics are preserved
on the intersection of the input and output domains.  The rewrite is
idempotent: simplifying a canonical form returns it unchanged.
"""

from __future__ import annotations

import math

from .dag import OPS, Binary, Const, DagBuilder, ExprDag, Unary, fold

_INVERSE_PAIRS = {("exp", "log"), ("log", "exp"), ("neg", "neg"),
                  ("inv", "inv"), ("square", "sqrt")}


def simplify(dag: ExprDag) -> ExprDag:
    """Return the canonical form of `dag` (bounded fixpoint iteration)."""
    current = dag
    for _ in range(4):
        nxt = _simplify_once(current)
        if nxt.key == current.key:
            return nxt
        current = nxt
    return current


def _simplify_once(dag: ExprDag) -> ExprDag:
    b = DagBuilder()

    def unary(op: str, child: int) -> int:
        return _unary(b, op, child)

    def binary(op: str, left: int, right: int) -> int:
        if op in ("+", "-"):
            return _rebuild_add(b, _collect_add(b, op, left, right))
        return _rebuild_mul(b, _collect_mul(b, op, left, right))

    return b.extract(b.copy_from(dag, unary=unary, binary=binary), dag.arity)


def _unary(b: DagBuilder, op: str, child: int) -> int:
    node = b.nodes[child]
    if isinstance(node, Const) and not node.is_placeholder:
        try:
            value = OPS[op].fold(node.value)
        except (ValueError, ZeroDivisionError, OverflowError):
            value = None
        if value is not None and math.isfinite(value):
            return b.const(value)
        return b.unary(op, child)
    if isinstance(node, Unary) and (op, node.op) in _INVERSE_PAIRS:
        return node.child
    if op == "neg" and isinstance(node, Binary) and node.op == "-":
        return b.binary("-", node.right, node.left)
    if op == "inv" and isinstance(node, Binary) and node.op == "/":
        return b.binary("/", node.right, node.left)
    return b.unary(op, child)


# -- additive chains ---------------------------------------------------------


def _collect_add(b: DagBuilder, op: str, left: int, right: int):
    pos: list[int] = []
    neg: list[int] = []
    const = 0.0
    # left operands are popped first, so items and constants accumulate in
    # left-to-right order
    stack = [(right, 1 if op == "+" else -1), (left, 1)]
    while stack:
        nid, sign = stack.pop()
        node = b.nodes[nid]
        if isinstance(node, Binary) and node.op in ("+", "-"):
            stack.append((node.right, sign if node.op == "+" else -sign))
            stack.append((node.left, sign))
        elif isinstance(node, Unary) and node.op == "neg":
            stack.append((node.child, -sign))
        elif isinstance(node, Const) and not node.is_placeholder:
            const += sign * node.value
        else:
            (pos if sign > 0 else neg).append(nid)
    _cancel_pairs(b, pos, neg)
    return pos, neg, const


def _cancel_pairs(b: DagBuilder, first: list[int], second: list[int]) -> None:
    # remove items with matching structural keys pairwise across the lists
    i = 0
    while i < len(first):
        key = b.key(first[i])
        hit = next((j for j, nid in enumerate(second) if b.key(nid) == key), None)
        if hit is None:
            i += 1
        else:
            first.pop(i)
            second.pop(hit)


def _fold_chain(b: DagBuilder, op: str, items: list[int]) -> int:
    ordered = sorted(items, key=b.order_key)
    acc = ordered[-1]
    for nid in reversed(ordered[:-1]):
        acc = b.binary(op, nid, acc)
    return acc


def _rebuild_add(b: DagBuilder, collected) -> int:
    pos, neg, const = collected
    if const > 0.0:
        pos.append(b.const(const))
    elif const < 0.0:
        neg.append(b.const(-const))
    if not pos and not neg:
        return b.const(0.0)
    if not neg:
        return _fold_chain(b, "+", pos)
    if not pos:
        return b.unary("neg", _fold_chain(b, "+", neg))
    return b.binary("-", _fold_chain(b, "+", pos), _fold_chain(b, "+", neg))


# -- multiplicative chains ----------------------------------------------------


def _collect_mul(b: DagBuilder, op: str, left: int, right: int):
    num: list[int] = []
    den: list[int] = []
    cn = cd = 1.0
    sign = 1
    # left operands are popped first, as in `_collect_add`
    stack = [(right, 1 if op == "*" else -1), (left, 1)]
    while stack:
        nid, side = stack.pop()
        node = b.nodes[nid]
        if isinstance(node, Binary) and node.op in ("*", "/"):
            stack.append((node.right, side if node.op == "*" else -side))
            stack.append((node.left, side))
        elif isinstance(node, Unary) and node.op == "inv":
            stack.append((node.child, -side))
        elif isinstance(node, Unary) and node.op == "neg":
            sign = -sign
            stack.append((node.child, side))
        elif isinstance(node, Unary) and node.op == "square":
            stack += [(node.child, side), (node.child, side)]
        elif isinstance(node, Const) and not node.is_placeholder:
            value = node.value
            if value < 0:
                sign = -sign
                value = -value
            if side > 0:
                cn *= value
            else:
                cd *= value
        else:
            (num if side > 0 else den).append(nid)
    _cancel_pairs(b, num, den)
    return num, den, (cn, cd, sign)


def _rebuild_mul(b: DagBuilder, collected) -> int:
    num, den, (cn, cd, sign) = collected

    if cd == 0.0:
        den.append(b.const(0.0))
        cd = 1.0
    if cn == 0.0:
        return b.const(0.0)

    # fold the constant ratio onto one side of the bar
    if cd != 1.0 and cn != 1.0:
        cn, cd = cn / cd, 1.0
    if cn != 1.0:
        num.append(b.const(cn))
    elif cd != 1.0:
        den.append(b.const(cd))

    if num:
        num_tree = _fold_chain(b, "*", num)
    else:
        num_tree = None
    if den:
        den_tree = _fold_chain(b, "*", den)
        if num_tree is None:
            out = b.unary("inv", den_tree)
        else:
            out = b.binary("/", num_tree, den_tree)
    else:
        out = num_tree if num_tree is not None else b.const(1.0)
    return b.unary("neg", out) if sign < 0 else out


# -- derived measures ---------------------------------------------------------


def complexity(dag: ExprDag) -> int:
    """Node count of the simplified expression tree.

    Shared subexpressions count once per occurrence; derived operator nodes
    count as their written-out forms (square(a) as a*a, inv(a) as 1/a, neg as
    one unary-minus node) so the measure matches a plain binary expression
    tree.
    """
    s = simplify(dag)

    def unary(op: str, child: int) -> int:
        if op == "square":
            return 1 + 2 * child
        return (2 if op == "inv" else 1) + child

    return fold(s.nodes, lambda index: 1, lambda node: 1, unary,
                lambda op, left, right: 1 + left + right)[s.root]


def subexpressions(dag: ExprDag) -> set[ExprDag]:
    """Set of simplified subtrees of the simplified expression tree.

    Shared nodes yield one set element, matching set semantics.
    """
    s = simplify(dag)
    b = DagBuilder()
    b.copy_from(s)  # every node of a snapshot is reachable from its root
    return {b.extract(nid, s.arity) for nid in range(len(b.nodes))}
