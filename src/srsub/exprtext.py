"""Infix text format for expression DAGs.

Variables are written ``x1..xd``, the functions ``sqrt, log, exp, sin, cos``
are supported together with ``+ - * /`` and parentheses.  Integer powers via
``^``/``**`` and placeholder constants ``c0, c1, ...`` are accepted on input
for robustness; a power binds tighter than unary minus, so ``-x1^2`` is
``-(x1^2)``.  Printing stays within the core operator set.
"""

from __future__ import annotations

import re

from .dag import OPS, Const, DagBuilder, ExprDag, _const_repr, fold
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


class _Parser:
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
        node = self.expr()
        if self.peek() is not None:
            raise UnsupportedExpression(f"trailing input at {self.peek()!r}")
        return node

    def expr(self) -> int:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = self.b.binary(op, node, self.term())
        return node

    def term(self) -> int:
        node = self.signed()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = self.b.binary(op, node, self.signed())
        return node

    def signed(self) -> int:
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

    def power(self) -> int:
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

    def atom(self) -> int:
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
            return f"-{_const_repr(-node.value)}", 0
        return _const_repr(node.value), 9

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
