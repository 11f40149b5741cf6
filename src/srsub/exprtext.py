"""Infix text format for expression DAGs.

Variables are written ``x1..xd``, the functions ``sqrt, log, exp, sin, cos``
are supported together with ``+ - * /`` and parentheses.  Integer powers via
``^``/``**`` and placeholder constants ``c0, c1, ...`` are accepted on input
for robustness; a power binds tighter than unary minus, so ``-x1^2`` is
``-(x1^2)``.  Printing stays within the core operator set.
"""

from __future__ import annotations

import re

from .dag import OPS, Const, DagBuilder, ExprDag, const_repr, fold
from .errors import UnsupportedExpression

# the ops printed in call form, ``name(arg)``
_FUNCTIONS = tuple(name for name, op in OPS.items() if op.text == f"{name}({{0}})")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise UnsupportedExpression(f"cannot tokenize {text[pos:pos + 12]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    """Operator-precedence parser over explicit operand and operator stacks,
    so nesting depth costs no recursion.  The operator stack holds binary
    operators, open groups (``(`` or a function name) and unary minus signs
    (``neg``), which bind a whole power and are applied as soon as their
    operand is complete; nodes are built in recursive-descent order.
    """

    def __init__(self, tokens: list[str], builder: DagBuilder,
                 var_names: dict[str, int] | None):
        self.tokens = tokens
        self.pos = 0
        self.b = builder
        self.var_names = var_names or {}
        self.max_index = -1

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UnsupportedExpression("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise UnsupportedExpression(f"expected {tok!r}, got {got!r}")

    def parse(self) -> int:
        values: list[int] = []
        ops: list[str] = []
        groups = 0  # open groups on the operator stack
        while True:
            tok = self.take()
            while tok in ("-", "+", "(") or tok in _FUNCTIONS:  # signs and openings
                if tok in _FUNCTIONS:
                    self.expect("(")
                if tok != "+":
                    ops.append("neg" if tok == "-" else tok)
                    groups += tok != "-"
                tok = self.take()
            values.append(self.atom(tok))
            while True:  # the operand's power and signs, then the groups it closes
                values[-1] = self.power(values[-1])
                while ops and ops[-1] == "neg":
                    ops.pop()
                    values[-1] = self.negate(values[-1])
                tok = self.peek()
                if tok in _BINARY_PREC or not groups:
                    break
                self.expect(")")
                self.reduce(values, ops, 1)
                opener = ops.pop()
                groups -= 1
                if opener != "(":
                    values[-1] = self.b.unary(opener, values[-1])
            if tok is None:
                self.reduce(values, ops, 1)
                return values[0]
            if tok not in _BINARY_PREC:
                raise UnsupportedExpression(f"trailing input at {tok!r}")
            self.take()
            self.reduce(values, ops, _BINARY_PREC[tok])
            ops.append(tok)

    def reduce(self, values: list[int], ops: list[str], prec: int) -> None:
        """Apply the stacked binary operators of precedence `prec` or above."""
        while ops and _BINARY_PREC.get(ops[-1], 0) >= prec:
            right = values.pop()
            values[-1] = self.b.binary(ops.pop(), values[-1], right)

    def negate(self, inner: int) -> int:
        node = self.b.nodes[inner]
        if isinstance(node, Const) and not node.is_placeholder:
            return self.b.const(-node.value)
        return self.b.unary("neg", inner)

    def power(self, base: int) -> int:
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

    def _int_power(self, base: int, exp: int) -> int:
        if exp < 0:
            return self.b.unary("inv", self._int_power(base, -exp))
        if exp == 0:
            return self.b.const(1.0)
        if exp == 1:
            return base
        half = self._int_power(base, exp // 2)
        sq = self.b.unary("square", half)
        return sq if exp % 2 == 0 else self.b.binary("*", base, sq)

    def atom(self, tok: str) -> int:
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


def parse(text: str, arity: int | None = None,
          var_names: dict[str, int] | None = None) -> ExprDag:
    """Parse infix text into an ExprDag.

    `arity` overrides the inferred input dimension (max variable index).
    `var_names` maps extra identifiers (e.g. ``{"y": 3}``) to variable slots.
    """
    builder = DagBuilder()
    parser = _Parser(_tokenize(text), builder, var_names)
    root = parser.parse()
    inferred = parser.max_index + 1
    if arity is None:
        arity = inferred
    elif arity < inferred:
        raise UnsupportedExpression(f"arity {arity} below used variables ({inferred})")
    return builder.extract(root, arity)


def to_text(dag: ExprDag, var_names: dict[int, str] | None = None) -> str:
    """Render a dag as infix text; parse(to_text(e)) is structurally e."""
    names = var_names or {}

    # each node's value is (text, precedence); atoms get precedence 9
    def var(index: int) -> tuple[str, int]:
        return names.get(index, f"x{index + 1}"), 9

    def const(node: Const) -> tuple[str, int]:
        if node.is_placeholder:
            return node.name or "c0", 9
        if node.value < 0:
            return f"-{const_repr(-node.value)}", 0
        return const_repr(node.value), 9

    def unary(name: str, child: tuple[str, int]) -> tuple[str, int]:
        op = OPS[name]
        return op.text.format(child[0]), op.prec

    def binary(name: str, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
        op = OPS[name]
        (text_l, prec_l), (text_r, prec_r) = left, right
        if prec_l < op.prec:
            text_l = f"({text_l})"
        # parenthesize an equal-precedence right child so the left-associative
        # parser rebuilds the same tree
        if prec_r <= op.prec:
            text_r = f"({text_r})"
        return op.text.format(text_l, text_r), op.prec

    return fold(dag.nodes, var, const, unary, binary)[dag.root][0]
