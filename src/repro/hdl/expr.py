"""Arithmetic expressions over macro parameters.

SCALD macro definitions size their signals with expressions such as
``SIZE-1`` in ``I<0:SIZE-1>`` (Figure 3-5).  This module provides a small,
safe evaluator for integer/float arithmetic over named parameters —
no ``eval``, no attribute access, just ``+ - * / ( )`` and names.

An expression's value depends only on its text and the parameter
environment, and a design repeats a few dozen texts tens of thousands of
times, so each distinct text is compiled once into a closure over the
environment and every later evaluation only runs the closure.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Callable, Mapping

Number = int | float
Compiled = Callable[[Mapping[str, Number]], Number]


class ExpressionError(ValueError):
    """Raised for malformed expressions or unknown parameter names."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"bad character in expression {text!r} at {pos}")
        tokens.append(m.group(m.lastgroup))  # type: ignore[arg-type]
        pos = m.end()
    return tokens


def _parameter(name: str) -> Compiled:
    def lookup(env: Mapping[str, Number]) -> Number:
        try:
            return env[name]
        except KeyError:
            raise ExpressionError(f"unknown parameter {name!r}") from None

    return lookup


def _divide(value: Number, divisor: Number) -> Number:
    if divisor == 0:
        raise ExpressionError("division by zero in expression")
    value = value / divisor
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return value


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _apply(
    op: Callable[[Number, Number], Number], lhs: Compiled, rhs: Compiled
) -> Compiled:
    return lambda env: op(lhs(env), rhs(env))


class _Compiler:
    """Recursive descent over ``expr := term (('+'|'-') term)*``, returning
    a closure per production instead of a value."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self) -> Compiled:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = _BINARY[self.take()]
            value = _apply(op, value, self.term())
        return value

    def term(self) -> Compiled:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = _BINARY[self.take()]
            value = _apply(op, value, self.unary())
        return value

    def unary(self) -> Compiled:
        if self.peek() == "-":
            self.take()
            operand = self.unary()
            return lambda env: -operand(env)
        return self.atom()

    def atom(self) -> Compiled:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ExpressionError("missing closing parenthesis")
            return value
        if re.fullmatch(r"\d+(?:\.\d+)?", tok):
            number = float(tok) if "." in tok else int(tok)
            return lambda env: number
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return _parameter(tok)
        raise ExpressionError(f"unexpected token {tok!r}")


@lru_cache(maxsize=1024)
def compile_expression(text: str) -> Compiled:
    """Compile ``text`` once into a function of the parameter environment.

    Syntax errors raise here; unknown parameters and division by zero
    raise when the compiled function runs.
    """
    compiler = _Compiler(_tokenize(text))
    value = compiler.expr()
    if compiler.peek() is not None:
        raise ExpressionError(f"trailing input in expression {text!r}")
    return value


def evaluate(text: str, env: Mapping[str, Number] | None = None) -> Number:
    """Evaluate an arithmetic expression with parameters from ``env``.

    >>> evaluate("SIZE-1", {"SIZE": 32})
    31
    """
    return compile_expression(text)(env or {})


def evaluate_int(text: str, env: Mapping[str, Number] | None = None) -> int:
    """Evaluate and require an integral result (for widths and counts)."""
    value = evaluate(text, env)
    if isinstance(value, float):
        if not value.is_integer():
            raise ExpressionError(f"expression {text!r} is not an integer")
        value = int(value)
    return value
