"""Tiny expression language for time-dependent decoherence functions.

Grammar (ASCII source, a single free variable ``t``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative exponent
    atom   := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'exp' | 'ln' | 'sin' | 'cos' | 'sqrt'

so ``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``,
which bind tighter than ``+``/``-`` (``-t^2`` is ``-(t^2)``).

Trees are evaluated as dual numbers ``(value, d/dt)``: forward-mode automatic
differentiation, so first derivatives are exact to rounding and no symbolic
manipulation happens anywhere.  A tree is compiled once into nested closures
(:func:`compile_ast`); evaluation works elementwise on numpy arrays of times
as well as on scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ParseError",
    "DomainError",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "ExprAst",
    "DualValue",
    "parse",
    "compile_ast",
    "eval_dual",
]

_FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")


class ParseError(ValueError):
    """Syntax or identifier error; carries the 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation left the real domain; carries the offending time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t!r}")
        self.t = t


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The single time variable ``t``."""


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg', 'exp', 'ln', 'sin', 'cos', 'sqrt'
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^'
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Union[Num, Var, Unary, Binary]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            # optional exponent part
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> ExprAst:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            # exponent re-enters at unary so '2^-t' parses; right-associative
            node = Binary("^", node, self.unary())
        return node

    def atom(self) -> ExprAst:
        tok = self.take()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "t":
                return Var()
            if tok.text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Unary(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def parse(source: str) -> ExprAst:
    """Parse ``source`` into an immutable expression tree.

    Raises :class:`ParseError` (with position) for syntax errors, unknown
    identifiers, and empty input.
    """
    if not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.pos)
    return node


# ---------------------------------------------------------------------------
# Dual-number evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualValue:
    """A value together with its derivative d/dt (forward-mode dual number)."""

    value: Union[float, np.ndarray]
    derivative: Union[float, np.ndarray]


def _check(bad, t: np.ndarray, message: str) -> None:
    # Raise at the first t where ``bad`` (t's shape, or one flag) holds.
    if np.any(bad) and t.size:
        flags = np.broadcast_to(bad, t.shape).reshape(-1)
        raise DomainError(message, float(t.reshape(-1)[flags.argmax()]))


def _ln(v, d, t):
    _check(v <= 0, t, "ln of non-positive argument")
    return np.log(v), d / v


def _sqrt(v, d, t):
    _check(v < 0, t, "sqrt of negative argument")
    root = np.sqrt(v)
    _check(root == 0, t, "sqrt derivative singular at zero argument")
    return root, d / (2.0 * root)


def _div(av, ad, bv, bd, t):
    _check(bv == 0, t, "division by zero")
    val = av / bv
    return val, (ad - val * bd) / bv


def _pow(bv, bd, ev, ed, t):
    _check(bv <= 0, t, "non-positive base with variable exponent")
    bv = np.full_like(ev, bv)  # a constant base too is a full array, as in a tree walk
    val = bv**ev
    return val, val * (ed * np.log(bv) + ev * bd / bv)


# Each rule maps the (value, d/dt) of its operands, and t, to its own.
_UNARY = {
    "neg": lambda v, d, t: (-v, -d),
    "exp": lambda v, d, t: (e := np.exp(v), e * d),
    "ln": _ln,
    "sin": lambda v, d, t: (np.sin(v), np.cos(v) * d),
    "cos": lambda v, d, t: (np.cos(v), -np.sin(v) * d),
    "sqrt": _sqrt,
}
_BINARY = {
    "+": lambda av, ad, bv, bd, t: (av + bv, ad + bd),
    "-": lambda av, ad, bv, bd, t: (av - bv, ad - bd),
    "*": lambda av, ad, bv, bd, t: (av * bv, ad * bv + av * bd),
    "/": _div,
    "^": _pow,
}


def _constant(value, derivative):
    return lambda t: (value, derivative)


def _power(base, fold):
    # A constant exponent is evaluated once, at t = 0; the power rule keeps
    # negative bases working for integer exponents.
    try:
        n = float(fold(np.zeros(1))[0][0])
    except DomainError:
        return lambda t: (base(t), fold(np.zeros(1)))[1]  # raises at t = 0

    def run(t):
        bv, bd = base(t)
        if n != np.floor(n):
            _check(bv <= 0, t, "non-positive base with non-integer exponent")
        elif n < 0:
            _check(bv == 0, t, "zero base with negative exponent")
        elif n == 0:
            return bv**n, np.zeros_like(t)
        return bv**n, n * bv ** (n - 1) * bd

    return run


def _compile(node: ExprAst):
    """``(run, fold)``: ``run(t)`` gives ``(value, d/dt)`` of ``node`` on a
    float array ``t``.  Without ``t`` in ``node``, ``fold`` gives them as
    1-element arrays and ``run`` as floats (or, if that raises, ``run`` is
    ``fold``, which raises at the first ``t``); else ``fold`` is None."""
    if isinstance(node, Var):
        return (lambda t: (t, 1.0)), None
    if isinstance(node, Num):
        value = float(node.value)
        return _constant(value, 0.0), lambda t: (np.full(1, value), np.zeros(1))
    if isinstance(node, Unary) and node.op in _UNARY:
        rule, kids = _UNARY[node.op], [_compile(node.arg)]
    elif isinstance(node, Binary) and node.op in _BINARY:
        rule, kids = _BINARY[node.op], [_compile(node.left), _compile(node.right)]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    const = all(fold is not None for _, fold in kids)
    ops = [fold if const else run for run, fold in kids]
    if rule is _pow and kids[1][1] is not None:
        closure = _power(ops[0], kids[1][1])
    elif len(ops) == 1:
        closure = lambda t, u=ops[0]: rule(*u(t), t)
    else:
        closure = lambda t, a=ops[0], b=ops[1]: rule(*a(t), *b(t), t)
    if not const:
        return closure, None
    try:
        value, derivative = closure(np.zeros(1))
    except DomainError:
        return closure, closure
    return _constant(float(value[0]), float(derivative[0])), _constant(value, derivative)


def compile_ast(ast: ExprAst):
    """``ast`` as nested closures for :func:`eval_dual`, which apply each
    node's numpy operations and domain checks in tree order, so results and
    errors equal a walk of the tree on full arrays bit for bit.  Subtrees
    without ``t`` are evaluated here, once, and enter as Python floats."""
    with np.errstate(all="ignore"):
        return _compile(ast)[0]


def eval_dual(ast, t) -> DualValue:
    """Evaluate ``ast`` and its time derivative at ``t`` (scalar or array).

    ``ast`` is a tree from :func:`parse`, or what :func:`compile_ast` made
    of one (which saves compiling it again).  Returns a :class:`DualValue`;
    raises :class:`DomainError` (carrying the first offending time) when
    evaluation leaves the real domain or produces a non-finite value or
    derivative.
    """
    run = ast if callable(ast) else compile_ast(ast)
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    _check(~np.isfinite(arr), arr, "non-finite evaluation time")
    with np.errstate(all="ignore"):
        # Constants, and ``t`` itself, become arrays of their own.
        value, derivative = (
            x if isinstance(x, np.ndarray) and x.shape == arr.shape and x is not arr
            else np.array(np.broadcast_to(x, arr.shape))
            for x in run(arr)
        )
    _check(~(np.isfinite(value) & np.isfinite(derivative)), arr, "non-finite result")
    if scalar:
        return DualValue(float(value[0]), float(derivative[0]))
    return DualValue(value, derivative)
