"""Scalar functions of time, supplied as text.

Every coefficient entering the solvers (system entries, equation
coefficients, test functions) is parsed from a small fixed grammar over
the single variable ``t``:

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          (right-associative)
    atom   := NUMBER | "t" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := sin|cos|tan|exp|log|sqrt|abs|sinh|cosh

The caret binds tighter than unary minus, so ``-t^2`` is ``-(t^2)``.
There is no constant folding anywhere: what you parse is what you get,
and ``parse(tokenize(print_expr(e)))`` reproduces ``e`` node for node.

Evaluation has one walker, _compile, and three tables of closure
builders with one entry per node type. eval_expr's table checks floats:
it raises DomainError, naming the node, instead of returning NaN or inf
for log of a non-positive argument, sqrt of a negative one, division by
zero and overflow (a sum, difference, product, quotient, power or
function value that is not finite), and it evaluates a divisor before its
dividend and a base before its exponent. sample's table applies numpy
to arrays, constants included; compile_scalar's applies math.* without
checks. Each node keeps its closure per table, outside the dataclass
fields that ==, hash, repr and print_expr read. An interval table, from
a span of t to an enclosure of the values, would be a fourth table for
the same walker.
Differentiation is symbolic; the only unsupported shape is a power with
``t`` in both base and exponent.

Every walker of a tree here recurses once per level, so the parser
refuses, with a :class:`ParseError`, a tree deeper than MAX_DEPTH levels
and text that would take it deeper than MAX_DEPTH levels of its own
recursion (five per parenthesis or function call, one per unary minus,
two per caret). Every tree it accepts is then walked, and its compiled
closures called, well inside Python's default limit of 1000 frames. The
nodes' ==, hash and repr walk the tree in a loop, in one frame.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sinh", "cosh")
MAX_DEPTH = 400


class ExprError(ValueError):
    """Base class for everything this module can complain about."""


class LexError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class DomainError(ExprError):
    """Evaluation left the real domain (log/sqrt of negative, x/0, overflow)."""

    def __init__(self, message: str, t: float, expr: "Expr"):
        super().__init__(f"{message} at t={t!r} in '{print_expr(expr)}'")
        self.t = t
        self.expr = expr


class DifferentiationError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base node. Nodes are frozen dataclasses; == is structural equality,
    and hash and repr follow the structure too."""

    __slots__ = ()

    def __call__(self, t: float) -> float:
        return eval_expr(self, t)

    def __getstate__(self) -> dict:
        """The fields alone: compiled closures are not pickled or copied."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def _preorder(self) -> list[tuple]:
        """One entry per node in preorder: its type and its fields that are
        not nodes. Each type has a fixed number of children, so two trees
        are equal exactly when these lists are."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            values = [getattr(node, name) for name in node.__dataclass_fields__]
            out.append((type(node), *(v for v in values if not isinstance(v, Expr))))
            stack.extend(v for v in reversed(values) if isinstance(v, Expr))
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        """The dataclass form, e.g. Add(left=TimeVar(), right=Constant(value=1.0))."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [f"{type(item).__name__}("]
            for i, name in enumerate(item.__dataclass_fields__):
                value = getattr(item, name)
                parts += [", " if i else "", f"{name}=",
                          value if isinstance(value, Expr) else repr(value)]
            stack.extend(reversed(parts + [")"]))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Constant(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class TimeVar(Expr):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Negate(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    name: str
    arg: Expr

    def __post_init__(self):
        if self.name not in FUNCTIONS:
            raise ExprError(f"unknown function '{self.name}'")


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class Token:
    kind: str  # number, identifier, time-variable, plus, minus, star, slash, caret, lparen, rparen
    lexeme: str
    position: int


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "/": "slash",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
}


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, rejecting anything outside the grammar."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            name = m.group()
            if name == "t":
                tokens.append(Token("time-variable", name, i))
            elif name in FUNCTIONS:
                tokens.append(Token("identifier", name, i))
            else:
                raise LexError(f"unknown identifier '{name}'", i)
            i = m.end()
            continue
        raise LexError(f"unexpected character '{ch}'", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead)


class _Parser:
    """Each parse_* method takes depth, the number of parser frames open
    with it; levels holds the depth of each tree node built, by id (a
    leaf is 1 level)."""

    def __init__(self, tokens: list[Token], source_len: int):
        self.tokens = tokens
        self.pos = 0
        self.source_len = source_len
        self.levels: dict[int, int] = {}

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.source_len)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind}, got end of input", self.source_len)
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, got '{tok.lexeme}'", tok.position)
        return self.take()

    def grown(self, node: Expr, tok: Token, *children: Expr) -> Expr:
        """node, built on children at tok; refused when it makes the tree
        deeper than MAX_DEPTH levels."""
        level = 1 + max(self.levels.get(id(child), 1) for child in children)
        if level > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.position)
        self.levels[id(node)] = level
        return node

    def parse_expr(self, depth: int) -> Expr:
        node = self.parse_term(depth + 1)
        while (tok := self.peek()) is not None and tok.kind in ("plus", "minus"):
            self.take()
            rhs = self.parse_term(depth + 1)
            node = self.grown(Add(node, rhs) if tok.kind == "plus" else Sub(node, rhs),
                              tok, node, rhs)
        return node

    def parse_term(self, depth: int) -> Expr:
        node = self.parse_unary(depth + 1)
        while (tok := self.peek()) is not None and tok.kind in ("star", "slash"):
            self.take()
            rhs = self.parse_unary(depth + 1)
            node = self.grown(Mul(node, rhs) if tok.kind == "star" else Div(node, rhs),
                              tok, node, rhs)
        return node

    def parse_unary(self, depth: int) -> Expr:
        # every cycle of the grammar's recursion passes through here
        tok = self.peek()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} parser levels",
                             self.source_len if tok is None else tok.position)
        if tok is not None and tok.kind == "minus":
            self.take()
            arg = self.parse_unary(depth + 1)
            return self.grown(Negate(arg), tok, arg)
        return self.parse_power(depth + 1)

    def parse_power(self, depth: int) -> Expr:
        base = self.parse_atom(depth + 1)
        tok = self.peek()
        if tok is not None and tok.kind == "caret":
            self.take()
            # right-associative; exponent may carry its own sign
            exponent = self.parse_unary(depth + 1)
            return self.grown(Pow(base, exponent), tok, base, exponent)
        return base

    def parse_atom(self, depth: int) -> Expr:
        tok = self.take()
        if tok.kind == "number":
            return Constant(float(tok.lexeme))
        if tok.kind == "time-variable":
            return TimeVar()
        if tok.kind == "identifier":
            self.expect("lparen")
            arg = self.parse_expr(depth + 1)
            self.expect("rparen")
            return self.grown(Call(tok.lexeme, arg), tok, arg)
        if tok.kind == "lparen":
            inner = self.parse_expr(depth + 1)
            self.expect("rparen")
            return inner
        raise ParseError(f"unexpected token '{tok.lexeme}'", tok.position)


def parse(tokens: list[Token], source_len: int | None = None) -> Expr:
    """Build an AST from a token list; ParseError for a tree, or a nesting
    of the text, deeper than MAX_DEPTH levels."""
    if source_len is None:
        source_len = tokens[-1].position + len(tokens[-1].lexeme) if tokens else 0
    p = _Parser(tokens, source_len)
    node = p.parse_expr(1)
    trailing = p.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token '{trailing.lexeme}'", trailing.position)
    return node


def parse_text(source: str) -> Expr:
    return parse(tokenize(source), len(source))


# ---------------------------------------------------------------------------
# Evaluation: one walker, three tables

_SCALAR_FUNCTIONS = {name: getattr(math, "fabs" if name == "abs" else name)
                     for name in FUNCTIONS}


def _compile(e: Expr, table: dict) -> Callable:
    """e's closure under table: the table's entry for e's type, called with
    e and its children's closures. It is kept on e, outside the dataclass
    fields, under the table's "cache" name. One frame per tree level."""
    build = table.get(type(e))
    if build is None:
        raise TypeError(f"not an Expr node: {e!r}")
    kept = e.__dict__
    closure = kept.get(table["cache"])
    if closure is None:
        if isinstance(e, (Constant, TimeVar)):
            closure = build(e)
        elif isinstance(e, (Negate, Call)):
            closure = build(e, _compile(e.arg, table))
        else:
            closure = build(e, _compile(e.left, table), _compile(e.right, table))
        kept[table["cache"]] = closure
    return closure


def _checked_arithmetic(op: Callable[[float, float], float]) -> Callable:
    """The checked builder of a node that applies op to its two children."""
    def build(e: Expr, left: Callable, right: Callable) -> Callable:
        def arithmetic(t):
            out = op(left(t), right(t))
            if math.isfinite(out):
                return out
            raise DomainError("overflow", t, e)
        return arithmetic
    return build


def _checked_div(e: Div, num: Callable, den: Callable) -> Callable:
    def div(t):
        d = den(t)
        if d == 0.0:
            raise DomainError("division by zero", t, e)
        out = num(t) / d
        if math.isfinite(out):
            return out
        raise DomainError("overflow", t, e)
    return div


def _checked_pow(e: Pow, base: Callable, expo: Callable) -> Callable:
    def power(t):
        b, x = base(t), expo(t)
        try:
            out = math.pow(b, x)
            if math.isfinite(out):
                return out
        except (ValueError, OverflowError):
            pass
        raise DomainError("power outside real domain", t, e)
    return power


def _checked_call(e: Call, arg: Callable) -> Callable:
    name, fn = e.name, _SCALAR_FUNCTIONS[e.name]

    def call(t):
        a = arg(t)
        if name == "log" and a <= 0.0:
            raise DomainError("log of non-positive argument", t, e)
        if name == "sqrt" and a < 0.0:
            raise DomainError("sqrt of negative argument", t, e)
        try:
            return fn(a)
        except (ValueError, OverflowError):
            raise DomainError(f"{name} outside real domain", t, e) from None
    return call


# The same operators on floats and on arrays; default arguments bind a
# node's own value or function when its closure is built. Each closure
# starts a line of its own, so that profilers, which key a function by its
# first line, list it apart from its builder.
_ARITHMETIC = {
    Constant: lambda e:
        lambda t, v=e.value: v,
    TimeVar: lambda e:
        lambda t: t,
    Negate: lambda e, a:
        lambda t: -a(t),
    Add: lambda e, l, r:
        lambda t: l(t) + r(t),
    Sub: lambda e, l, r:
        lambda t: l(t) - r(t),
    Mul: lambda e, l, r:
        lambda t: l(t) * r(t),
    Div: lambda e, l, r:
        lambda t: l(t) / r(t),
}
_CHECKED = {**_ARITHMETIC, "cache": "_checked",
            Add: _checked_arithmetic(operator.add),
            Sub: _checked_arithmetic(operator.sub),
            Mul: _checked_arithmetic(operator.mul),
            Div: _checked_div, Pow: _checked_pow, Call: _checked_call}
_SCALAR = {**_ARITHMETIC, "cache": "_scalar",
           Pow: lambda e, l, r:
               lambda t: math.pow(l(t), r(t)),
           Call: lambda e, a:
               lambda t, fn=_SCALAR_FUNCTIONS[e.name]: fn(a(t))}
# Constants are arrays, not Python scalars: np.power rounds differently
# when its exponent is a scalar.
_SAMPLED = {**_ARITHMETIC, "cache": "_sampled",
            Constant: lambda e:
                lambda ts, v=e.value: np.full_like(ts, v),
            Pow: lambda e, l, r:
                lambda ts: np.power(l(ts), r(ts)),
            Call: lambda e, a:
                lambda ts, fn=getattr(np, e.name): fn(a(ts))}


def eval_expr(e: Expr, t: float) -> float:
    """Evaluate at a single time, raising DomainError outside the real domain."""
    return _compile(e, _CHECKED)(t)


def sample(e: Expr, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an array of times.

    A finite constant is filled in directly. Otherwise the fast path
    computes the whole tree with numpy; if anything non-finite
    shows up, the first offending time is re-evaluated through eval_expr
    so the error message names the exact subexpression.
    """
    ts = np.asarray(ts, dtype=float)
    if isinstance(e, Constant) and math.isfinite(e.value):
        return np.full(ts.shape, e.value, dtype=float)
    with np.errstate(all="ignore"):
        out = _compile(e, _SAMPLED)(ts)
    if not np.isfinite(out).all():
        t_bad = float(ts[np.argmax(~np.isfinite(out))])
        eval_expr(e, t_bad)  # raises DomainError with details
        raise DomainError("non-finite value", t_bad, e)  # overflow fallback
    return out


def compile_scalar(e: Expr) -> Callable[[float], float]:
    """A bare closure over math.* for hot loops.

    No domain checking: math's own ValueError/ZeroDivisionError/OverflowError
    propagate. Integrators catch those and report the time themselves.
    """
    return _compile(e, _SCALAR)


# ---------------------------------------------------------------------------
# Differentiation


def contains_t(e: Expr) -> bool:
    if isinstance(e, TimeVar):
        return True
    if isinstance(e, (Constant,)):
        return False
    if isinstance(e, Negate):
        return contains_t(e.arg)
    if isinstance(e, Call):
        return contains_t(e.arg)
    return contains_t(e.left) or contains_t(e.right)


def _mul(a: Expr, b: Expr) -> Expr:
    # construction-time convenience only; parse() never folds
    if isinstance(a, Constant):
        if a.value == 0.0:
            return Constant(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Constant):
        if b.value == 0.0:
            return Constant(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and a.value == 0.0:
        return b
    if isinstance(b, Constant) and b.value == 0.0:
        return a
    return Add(a, b)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative d/dt."""
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, TimeVar):
        return Constant(1.0)
    if isinstance(e, Negate):
        return Negate(differentiate(e.arg))
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        dl = differentiate(e.left)
        dr = differentiate(e.right)
        if isinstance(dr, Constant) and dr.value == 0.0:
            return dl
        if isinstance(dl, Constant) and dl.value == 0.0:
            return Negate(dr)
        return Sub(dl, dr)
    if isinstance(e, Mul):
        return _add(
            _mul(differentiate(e.left), e.right),
            _mul(e.left, differentiate(e.right)),
        )
    if isinstance(e, Div):
        num = Sub(
            _mul(differentiate(e.left), e.right),
            _mul(e.left, differentiate(e.right)),
        )
        return Div(num, Pow(e.right, Constant(2.0)))
    if isinstance(e, Pow):
        base_t = contains_t(e.left)
        expo_t = contains_t(e.right)
        if base_t and expo_t:
            raise DifferentiationError(
                f"not differentiable symbolically: t in both base and exponent of "
                f"'{print_expr(e)}'"
            )
        if expo_t:
            # c^v -> c^v * log(c) * v'
            return _mul(_mul(e, Call("log", e.left)), differentiate(e.right))
        # u^c -> c * u^(c-1) * u'
        return _mul(
            _mul(e.right, Pow(e.left, Sub(e.right, Constant(1.0)))),
            differentiate(e.left),
        )
    if isinstance(e, Call):
        u = e.arg
        du = differentiate(u)
        if e.name == "sin":
            outer = Call("cos", u)
        elif e.name == "cos":
            outer = Negate(Call("sin", u))
        elif e.name == "tan":
            outer = Div(Constant(1.0), Pow(Call("cos", u), Constant(2.0)))
        elif e.name == "exp":
            outer = e
        elif e.name == "log":
            return Div(du, u)
        elif e.name == "sqrt":
            return Div(du, _mul(Constant(2.0), e))
        elif e.name == "abs":
            # u/|u| * u', valid wherever u != 0
            outer = Div(u, e)
        elif e.name == "sinh":
            outer = Call("cosh", u)
        else:  # cosh
            outer = Call("sinh", u)
        return _mul(outer, du)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Printer

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Negate):
        return _PREC_UNARY
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(v: float) -> str:
    if v != v or math.isinf(v):
        raise ExprError(f"cannot print non-finite constant {v}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


_INFIX = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD),
          Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}


def _wrap(text: str, child: Expr, need: int) -> str:
    """child's text, in parentheses when it binds looser than need."""
    return f"({text})" if _prec(child) < need else text


def print_expr(e: Expr) -> str:
    """Render to text that re-parses to a structurally identical tree.
    Children are printed in this frame, so each level costs one frame."""
    if isinstance(e, Constant):
        # negative literals cannot be tokenized; they re-parse as unary minus.
        # The parser never constructs them, so round-trip stays structural for
        # everything parse() can produce.
        if e.value < 0:
            return "-" + _fmt_number(-e.value)
        return _fmt_number(e.value)
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, Negate):
        return "-" + _wrap(print_expr(e.arg), e.arg, _PREC_UNARY)
    if type(e) in _INFIX:
        op, prec = _INFIX[type(e)]
        left = _wrap(print_expr(e.left), e.left, prec)
        return f"{left} {op} {_wrap(print_expr(e.right), e.right, prec + 1)}"
    if isinstance(e, Pow):
        base = print_expr(e.left)
        if _prec(e.left) <= _PREC_POW:  # power base must be an atom
            base = f"({base})"
        return f"{base} ^ {_wrap(print_expr(e.right), e.right, _PREC_UNARY)}"
    if isinstance(e, Call):
        return f"{e.name}({print_expr(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")
