"""Recursive-descent parser and evaluator for scalar coefficient expressions.

Grammar (whitespace insignificant, '^' right-associative)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Known identifiers are the variable ``x``, the constants ``pi``, ``e``,
``i``, and the unary functions listed in ``FUNCTIONS``.  Anything else is
rejected at parse time.  Evaluation is IEEE double complex with principal
branches; non-finite results raise :class:`EvaluationError` instead of
propagating silently.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import EvaluationError, ExprSyntaxError

FUNCTIONS = {
    "sin": cmath.sin,
    "cos": cmath.cos,
    "tan": cmath.tan,
    "exp": cmath.exp,
    "log": cmath.log,
    "sqrt": cmath.sqrt,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "tanh": cmath.tanh,
    "abs": abs,
    "conj": lambda z: z.conjugate(),
}

CONSTANTS = {
    "pi": complex(math.pi),
    "e": complex(math.e),
    "i": 1j,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Const, Neg, BinOp, Call]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            # skip over trailing whitespace before declaring failure
            rest = text[pos:]
            if rest.strip() == "":
                break
            offset = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {rest.strip()[0]!r}", offset)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}, found {value!r}", offset)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> ExprAst:
        node = self.unary()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> ExprAst:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> ExprAst:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value == "x":
                return Var()
            if value in CONSTANTS:
                return Const(value)
            raise ExprSyntaxError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def parse(text: str) -> ExprAst:
    """Parse an expression string into an AST."""
    if not isinstance(text, str):
        raise ExprSyntaxError("input is not a string", 0)
    return _Parser(text).parse()


def pretty(ast: ExprAst) -> str:
    """Render an AST to a fully parenthesized string that re-parses to the
    structurally identical tree."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return "x"
    if isinstance(ast, Const):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{pretty(ast.child)})"
    if isinstance(ast, BinOp):
        return f"({pretty(ast.left)}{ast.op}{pretty(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.name}({pretty(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


def references_x(ast: ExprAst) -> bool:
    """Whether the expression depends on the variable ``x``."""
    if isinstance(ast, Var):
        return True
    if isinstance(ast, Neg):
        return references_x(ast.child)
    if isinstance(ast, BinOp):
        return references_x(ast.left) or references_x(ast.right)
    if isinstance(ast, Call):
        return references_x(ast.arg)
    return False


def evaluate(ast: ExprAst, x: float) -> complex:
    """Evaluate an AST at a real point ``x``.

    Raises :class:`EvaluationError` (carrying ``x`` and the offending
    subexpression) if any intermediate value is non-finite or undefined.
    """
    value = _eval(ast, x)
    return value


def _check(value: complex, ast: ExprAst, x: float) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise EvaluationError("non-finite result", x=x, source=pretty(ast))
    return value


def _eval(ast: ExprAst, x: float) -> complex:
    if isinstance(ast, Num):
        return complex(ast.value)
    if isinstance(ast, Var):
        return complex(x)
    if isinstance(ast, Const):
        return CONSTANTS[ast.name]
    if isinstance(ast, Neg):
        value = -_eval(ast.child, x)
        # adding 0.0 clears negative zeros so branch cuts stay principal
        return complex(value.real + 0.0, value.imag + 0.0)
    if isinstance(ast, BinOp):
        left = _eval(ast.left, x)
        right = _eval(ast.right, x)
        try:
            if ast.op == "+":
                value = left + right
            elif ast.op == "-":
                value = left - right
            elif ast.op == "*":
                value = left * right
            elif ast.op == "/":
                value = left / right
            else:
                value = left ** right
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(str(exc), x=x, source=pretty(ast)) from exc
        return _check(complex(value), ast, x)
    if isinstance(ast, Call):
        arg = _eval(ast.arg, x)
        try:
            value = FUNCTIONS[ast.name](arg)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(str(exc), x=x, source=pretty(ast)) from exc
        return _check(complex(value), ast, x)
    raise TypeError(f"not an AST node: {ast!r}")
