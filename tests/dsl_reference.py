"""The earlier parser of ``daedisc.dsl``, kept as the reference that
``dsl.parse`` and ``dsl.make_skeleton`` are tested against: a character loop
that builds a frozen token per token, a recursive descent over them, a walk
of each line's tree for its depth, and canonicalization by a walk for the
parameter slots and a rewrite of every tree.  On the same input, ``parse``
and ``make_skeleton`` here give the skeleton, or raise the error, that the
package's own must give."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from daedisc.dsl import (FUNCTIONS, MAX_DEPTH, MAX_EXPONENT, ArityError, Bin, Call, Const,
                         DslSyntaxError, DuplicateTarget, Expr, MissingTarget, Neg, Param, Pow,
                         Skeleton, SymbolScope, UnknownIdentifier, Var, _depth, walk)

_PARAM_RE = re.compile(r"^p(\d+)$")
_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def param_indices(exprs: Sequence[Expr]) -> list[int]:
    seen: set[int] = set()
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Param):
                seen.add(node.index)
    return sorted(seen)


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


