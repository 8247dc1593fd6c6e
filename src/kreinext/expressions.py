"""Recursive-descent parser and evaluator for scalar coefficient expressions.

Grammar (whitespace insignificant, '^' right-associative)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Known identifiers are the variable ``x``, the constants ``pi``, ``e``,
``i``, and the unary functions listed in ``FUNCTIONS``.  Anything else is
rejected at parse time.  Evaluation is numpy double complex arithmetic
with principal branches, at one point or at a whole array of points in one
walk of the tree; negative zeros are cleared after every node, and
non-finite results raise :class:`EvaluationError` instead of propagating
silently.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ExprSyntaxError

FUNCTIONS = {
    name: getattr(np, name)
    for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "abs", "conj")
}

OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}

CONSTANTS = {
    "pi": complex(math.pi),
    "e": complex(math.e),
    "i": 1j,
}

_ZERO = np.complex128(0)


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


def evaluate(ast: ExprAst, x=None):
    """Evaluate an AST at a real point ``x``, or at every point of an array
    ``x`` in one walk of the tree; ``None`` evaluates an expression free of x.

    The value is complex, of x's shape.  Raises :class:`EvaluationError`
    (carrying the offending subexpression and, in array order, the first
    point where the value is non-finite or undefined).
    """
    with np.errstate(all="ignore"):
        try:
            value = _eval(ast, x)
        except EvaluationError:
            if not isinstance(x, np.ndarray):
                raise
            # the error is the one of the first point where evaluation fails
            for point in x.ravel().tolist():
                _eval(ast, point)
            raise
    if isinstance(x, np.ndarray) and not isinstance(value, np.ndarray):  # free of x
        return np.full(x.shape, value)
    return value


def _checked(value, ast: ExprAst, x):
    """``value`` if it is finite at every point; cmath checks a scalar, on
    which numpy is much slower."""
    if np.isfinite(value).all() if isinstance(value, np.ndarray) else cmath.isfinite(value):
        return value
    point = None if x is None or isinstance(x, np.ndarray) else float(x)
    raise EvaluationError("non-finite result", x=point, source=pretty(ast))


def _eval(ast: ExprAst, x):
    if isinstance(ast, Num):
        value = ast.value
    elif isinstance(ast, Var):
        value = x
    elif isinstance(ast, Const):
        value = CONSTANTS[ast.name]
    elif isinstance(ast, Neg):
        value = -_eval(ast.child, x)
    elif isinstance(ast, BinOp):
        value = _checked(OPERATORS[ast.op](_eval(ast.left, x), _eval(ast.right, x)), ast, x)
    elif isinstance(ast, Call):
        value = _checked(FUNCTIONS[ast.name](_eval(ast.arg, x)), ast, x)
    else:
        raise TypeError(f"not an AST node: {ast!r}")
    # adding a complex zero makes every value numpy complex, the leaves and
    # abs included, and clears negative zeros, so that every real
    # intermediate stays on the principal branch
    return value + _ZERO
