"""Expression language for equation skeletons.

A skeleton is a short multi-line program with exactly one line per target.
Differential lines use the ``d<name>/dt = <expr>`` form, algebraic lines the
``<name> = <expr>`` form.  Right-hand sides are built from numeric literals,
in-scope variable names, parameter placeholders ``p0, p1, ...``, the operators
``+ - * / ^`` and a fixed set of unary functions.  ``^`` is limited to
constant integer exponents in [-4, 4].  Neither the nesting of parentheses
and calls nor the built tree may be deeper than ``MAX_DEPTH`` levels.

Grammar (EBNF, also published in the README):

    skeleton  = line , { newline , line } ;
    line      = target , "=" , expr ;
    target    = "d" , name , "/dt"          (* differential  *)
              | name ;                      (* algebraic     *)
    expr      = term , { ( "+" | "-" ) , term } ;
    term      = unary , { ( "*" | "/" ) , unary } ;
    unary     = "-" , unary | power ;
    power     = atom , { "^" , exponent } ;
    exponent  = [ "-" ] , integer
              | "(" , [ "-" ] , integer , ")" ;
    atom      = number | name | param
              | function , "(" , expr , ")"
              | "(" , expr , ")" ;
    param     = "p" , digits ;

``parse`` is the accept/reject gate for generated candidates: a skeleton that
parses against the current symbol scope is guaranteed to evaluate without
unbound-symbol failures on any sample whose columns cover that scope.
Everything in this module is immutable and purely functional, so skeletons
can be shared freely across worker threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterator, Mapping, Sequence, Union

FUNCTIONS: tuple[str, ...] = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs")
MAX_EXPONENT = 4
# far above any useful skeleton (a linear seed over twelve symbols is 14 levels
# deep) and far below what the recursive parser and tree walks can descend
MAX_DEPTH = 100

_PARAM_RE = re.compile(r"^p(\d+)$")
_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Skeleton text rejected; names the first offending token."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.column = column


class DslSyntaxError(ParseError):
    pass


class UnknownIdentifier(ParseError):
    def __init__(self, name: str, line: int | None = None, column: int | None = None):
        super().__init__(f"unknown identifier '{name}'", line, column)
        self.name = name


class ArityError(ParseError):
    pass


class MissingTarget(ParseError):
    def __init__(self, name: str):
        super().__init__(f"missing equation for target '{name}'")
        self.name = name


class DuplicateTarget(ParseError):
    def __init__(self, name: str, line: int | None = None):
        super().__init__(f"duplicate equation for target '{name}'", line)
        self.name = name


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Param, Var, Neg, Bin, Pow, Call]

_RESERVED = {"dt"} | set(FUNCTIONS)


def _check_symbol_name(name: str) -> None:
    if not name or not _IDENT_RE.fullmatch(name):
        raise ValueError(f"invalid symbol name {name!r}")
    if name in _RESERVED or _PARAM_RE.match(name):
        raise ValueError(f"symbol name {name!r} is reserved")


@dataclass(frozen=True)
class SymbolScope:
    """Names a skeleton may reference: state names plus admitted variables."""

    states: tuple[str, ...]
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        names = list(self.states) + list(self.variables)
        for n in names:
            _check_symbol_name(n)
        if len(set(names)) != len(names):
            raise ValueError("scope names must be unique")

    def resolves(self, name: str) -> bool:
        return name in self.states or name in self.variables

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.states + self.variables


@dataclass(frozen=True)
class Skeleton:
    """A parsed equation system: one expression per target, canonical slots.

    Forms derived from the fields alone (the canonical text, the evaluator's
    tape) are cached on the instance on first use."""

    kind: str  # "de" | "ae"
    target_names: tuple[str, ...]
    expressions: tuple[Expr, ...]
    n_params: int


# ---------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IDENT OP END
    text: str
    column: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(line, i)
        if m and (ch.isdigit() or ch == "."):
            tokens.append(_Token("NUM", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(line, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()=,":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", lineno, i)
    tokens.append(_Token("END", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence layered per the grammar)

class _LineParser:
    def __init__(self, tokens: list[_Token], scope: SymbolScope, lineno: int):
        self.tokens = tokens
        self.scope = scope
        self.lineno = lineno
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.cur
        if tok.kind != "OP" or tok.text != text:
            raise DslSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of line'!r}",
                self.lineno, tok.column)
        self.advance()

    def parse_expr(self) -> Expr:
        self.depth += 1  # the only recursion: a parenthesis or call argument
        if self.depth > MAX_DEPTH:
            raise DslSyntaxError(f"expression deeper than {MAX_DEPTH} levels",
                                 self.lineno, self.cur.column)
        node = self.parse_term()
        while self.cur.kind == "OP" and self.cur.text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        self.depth -= 1
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.cur.kind == "OP" and self.cur.text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        signs = 0
        while self.cur.kind == "OP" and self.cur.text == "-":
            self.advance()
            signs += 1
        node = self.parse_power()
        for _ in range(signs):
            node = Neg(node)
        return node

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while self.cur.kind == "OP" and self.cur.text == "^":
            self.advance()
            node = Pow(node, self.parse_exponent())
        return node

    def parse_exponent(self) -> int:
        sign = 1
        parens = False
        if self.cur.kind == "OP" and self.cur.text == "(":
            parens = True
            self.advance()
        if self.cur.kind == "OP" and self.cur.text == "-":
            sign = -1
            self.advance()
        tok = self.cur
        if tok.kind != "NUM":
            raise DslSyntaxError(
                f"exponent must be an integer literal, found {tok.text or 'end of line'!r}",
                self.lineno, tok.column)
        value = float(tok.text)
        if value != int(value):
            raise DslSyntaxError(f"exponent must be an integer, found {tok.text!r}",
                                 self.lineno, tok.column)
        self.advance()
        if parens:
            self.expect_op(")")
        exponent = sign * int(value)
        if abs(exponent) > MAX_EXPONENT:
            raise DslSyntaxError(
                f"exponent {exponent} outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]",
                self.lineno, tok.column)
        return exponent

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "NUM":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise DslSyntaxError(f"constant {tok.text!r} is not finite",
                                     self.lineno, tok.column)
            return Const(value)
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if self.cur.kind == "OP" and self.cur.text == "(":
                return self.parse_call(name, tok.column)
            m = _PARAM_RE.match(name)
            if m:
                return Param(int(m.group(1)))
            if not self.scope.resolves(name):
                raise UnknownIdentifier(name, self.lineno, tok.column)
            return Var(name)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise DslSyntaxError(f"unexpected token {tok.text or 'end of line'!r}",
                             self.lineno, tok.column)

    def parse_call(self, name: str, column: int) -> Expr:
        if name not in FUNCTIONS:
            raise UnknownIdentifier(name, self.lineno, column)
        self.expect_op("(")
        if self.cur.kind == "OP" and self.cur.text == ")":
            raise ArityError(f"{name} expects exactly one argument, got none",
                             self.lineno, self.cur.column)
        arg = self.parse_expr()
        if self.cur.kind == "OP" and self.cur.text == ",":
            raise ArityError(f"{name} expects exactly one argument",
                             self.lineno, self.cur.column)
        self.expect_op(")")
        return Call(name, arg)


def _parse_line(line: str, lineno: int, scope: SymbolScope, kind: str) -> tuple[str, Expr]:
    tokens = _tokenize(line, lineno)
    parser = _LineParser(tokens, scope, lineno)
    tok = parser.cur
    if tok.kind != "IDENT":
        raise DslSyntaxError(f"line must start with a target, found {tok.text!r}",
                             lineno, tok.column)
    parser.advance()
    if kind == "de":
        if not (tok.text.startswith("d") and len(tok.text) > 1):
            raise DslSyntaxError(
                f"differential target must look like d<name>/dt, found {tok.text!r}",
                lineno, tok.column)
        target = tok.text[1:]
        parser.expect_op("/")
        dt = parser.cur
        if dt.kind != "IDENT" or dt.text != "dt":
            raise DslSyntaxError(f"expected 'dt' after '/', found {dt.text!r}",
                                 lineno, dt.column)
        parser.advance()
    else:
        target = tok.text
    parser.expect_op("=")
    expr = parser.parse_expr()
    end = parser.cur
    if end.kind != "END":
        raise DslSyntaxError(f"trailing input {end.text!r}", lineno, end.column)
    if _depth(expr) > MAX_DEPTH:  # chains of + * ^ and unary minus are built by loops
        raise DslSyntaxError(f"expression deeper than {MAX_DEPTH} levels", lineno)
    return target, expr


# ---------------------------------------------------------------------------
# Canonicalization and construction

def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Bin):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Depth-first iterator over every node of an expression."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def _depth(expr: Expr) -> int:
    """Levels of an expression tree, a leaf being one, counted without recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in _children(node))
    return deepest


def param_indices(exprs: Sequence[Expr]) -> list[int]:
    seen: set[int] = set()
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Param):
                seen.add(node.index)
    return sorted(seen)


def variables_in(skeleton: Skeleton) -> set[str]:
    names: set[str] = set()
    for expr in skeleton.expressions:
        for node in walk(expr):
            if isinstance(node, Var):
                names.add(node.name)
    return names


def _rewrite(expr: Expr, param_map: Mapping[int, int]) -> Expr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Param):
        return Param(param_map[expr.index])
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Neg):
        child = _rewrite(expr.child, param_map)
        if isinstance(child, Const):  # fold so "-2" has one canonical tree
            return Const(-child.value)
        return Neg(child)
    if isinstance(expr, Bin):
        return Bin(expr.op, _rewrite(expr.left, param_map), _rewrite(expr.right, param_map))
    if isinstance(expr, Pow):
        return Pow(_rewrite(expr.base, param_map), expr.exponent)
    if isinstance(expr, Call):
        return Call(expr.func, _rewrite(expr.arg, param_map))
    raise TypeError(f"not an expression node: {expr!r}")


def monomial(factors: Sequence[str]) -> Expr:
    """The product ``x_a*x_b…`` of the named variables, left to right; 1 for
    none.  A term of ``term_sum`` and of the STLSQ library."""
    return reduce(partial(Bin, "*"), map(Var, factors)) if factors else Const(1.0)


def term_sum(products: Sequence[Sequence[str]], first_slot: int = 0) -> Expr:
    """``p<slot>`` for an empty product and ``p<slot>*(x_a*x_b…)`` for any
    other, summed left to right with slots from ``first_slot``; no terms sum
    to 0.  The builder of the search's linear seed and of sparse models."""
    terms = [Bin("*", Param(slot), monomial(factors)) if factors else Param(slot)
             for slot, factors in enumerate(products, first_slot)]
    return reduce(partial(Bin, "+"), terms) if terms else Const(0.0)


def make_skeleton(kind: str, target_names: Sequence[str],
                  expressions: Sequence[Expr]) -> Skeleton:
    """Build a canonical skeleton from expression trees.

    Canonicalization re-indexes parameter slots into a contiguous 0..n_p-1
    range (ordered by original index) and folds negated constants, so that
    structurally equal systems serialize identically.  The trees are taken
    as valid: ``parse`` is the one gate that checks literals, slots, names,
    exponents and functions.
    """
    if kind not in ("de", "ae"):
        raise ValueError(f"kind must be 'de' or 'ae', got {kind!r}")
    if len(target_names) != len(expressions):
        raise ValueError("one expression per target required")
    indices = param_indices(expressions)
    param_map = {old: new for new, old in enumerate(indices)}
    canon = tuple(_rewrite(e, param_map) for e in expressions)
    return Skeleton(kind=kind, target_names=tuple(target_names),
                    expressions=canon, n_params=len(indices))


def parse(text: str, scope: SymbolScope, target_names: Sequence[str],
          kind: str = "de") -> Skeleton:
    """Parse skeleton text; success is the accept side of the candidate gate.

    Every target must appear exactly once and every identifier must resolve
    against ``scope``; otherwise a ParseError subclass names the offender.
    """
    if kind not in ("de", "ae"):
        raise ValueError(f"kind must be 'de' or 'ae', got {kind!r}")
    wanted = list(target_names)
    parsed: dict[str, Expr] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        target, expr = _parse_line(line, lineno, scope, kind)
        if target not in wanted:
            raise UnknownIdentifier(target, lineno, 0)
        if target in parsed:
            raise DuplicateTarget(target, lineno)
        parsed[target] = expr
    for name in wanted:
        if name not in parsed:
            raise MissingTarget(name)
    exprs = [parsed[name] for name in wanted]
    return make_skeleton(kind, wanted, exprs)


# ---------------------------------------------------------------------------
# Canonical serialization

_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}
_NEG_PREC = 30
_POW_PREC = 40
_ATOM_PREC = 100


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Const):
        text = _format_number(expr.value)
        return text, (_NEG_PREC if expr.value < 0 else _ATOM_PREC)
    if isinstance(expr, Param):
        return f"p{expr.index}", _ATOM_PREC
    if isinstance(expr, Var):
        return expr.name, _ATOM_PREC
    if isinstance(expr, Call):
        inner, _ = _fmt(expr.arg)
        return f"{expr.func}({inner})", _ATOM_PREC
    if isinstance(expr, Neg):
        child, prec = _fmt(expr.child)
        if prec < _NEG_PREC:
            child = f"({child})"
        return f"-{child}", _NEG_PREC
    if isinstance(expr, Pow):
        base, prec = _fmt(expr.base)
        if prec < _POW_PREC:
            base = f"({base})"
        return f"{base}^{expr.exponent}", _POW_PREC
    if isinstance(expr, Bin):
        prec = _BIN_PREC[expr.op]
        left, lp = _fmt(expr.left)
        right, rp = _fmt(expr.right)
        if lp < prec:
            left = f"({left})"
        if rp <= prec:  # right side re-parenthesized so parsing re-associates identically
            right = f"({right})"
        joint = f" {expr.op} " if expr.op in "+-" else expr.op
        return f"{left}{joint}{right}", prec
    raise TypeError(f"not an expression node: {expr!r}")


def serialize(skeleton: Skeleton) -> str:
    """Canonical text: fixed spacing, minimal parentheses, one line per target;
    formatted on first use and cached on the skeleton instance."""
    text = skeleton.__dict__.get("_text")
    if text is None:
        lines = []
        for name, expr in zip(skeleton.target_names, skeleton.expressions):
            lhs = f"d{name}/dt" if skeleton.kind == "de" else name
            lines.append(f"{lhs} = {_fmt(expr)[0]}")
        text = "\n".join(lines)
        object.__setattr__(skeleton, "_text", text)  # Skeleton is frozen
    return text


def code_length(skeleton: Skeleton) -> int:
    """Character count of the canonical serialization."""
    return len(serialize(skeleton))
