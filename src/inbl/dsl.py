"""Text DSL for superpositions (.nbl files).

Grammar (whitespace-insensitive, `#` starts a line comment):

    program       := [ 'bits' INT ';' ] superposition
    superposition := ['-'] term (('+'|'-') term)*
    term          := factor ('*' factor)*
    factor        := ref | '(' superposition ')' | builtin
    ref           := 'R' INT '_' ('0'|'1')
    builtin       := ('U'|'EVEN'|'ODD') [ '(' INT ')' ]

Bare builtins (no argument) take the declared system size. The formatter
emits a canonical form: product factors ascending by lowest bit index,
sum terms in lexicographic order.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .errors import ParseError
from .expr import (
    Expr,
    Pattern,
    Product,
    Ref,
    Sum,
    build_even,
    build_odd,
    build_universe,
    ref,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<ref>R(?P<refidx>\d+)_(?P<refval>[01]))
  | (?P<name>[A-Za-z]+)
  | (?P<int>\d+)
  | (?P<sym>[+\-*();])
    """,
    re.VERBOSE,
)

_BUILTINS = {"U": build_universe, "EVEN": build_even, "ODD": build_odd}


class _Token:
    __slots__ = ("kind", "text", "line", "col", "data")

    def __init__(self, kind, text, line, col, data=None):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.data = data


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group(0)
        if kind == "ref":
            tokens.append(
                _Token("ref", raw, line, col, (int(m.group("refidx")), int(m.group("refval"))))
            )
        elif kind == "sym":
            tokens.append(_Token(raw, raw, line, col))
        elif kind in ("name", "int"):
            tokens.append(_Token(kind, raw, line, col))
        # whitespace and comments are skipped, but still advance line/col
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], bits: Optional[int]):
        self.tokens = tokens
        self.pos = 0
        self.bits = bits

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def parse_superposition(self) -> Expr:
        terms: List[Tuple[int, Expr]] = []
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        terms.append((sign, self.parse_term()))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.parse_term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "ref":
            self.advance()
            idx, val = tok.data
            if self.bits is not None and idx > self.bits:
                raise ParseError(
                    f"bit index {idx} exceeds declared size {self.bits}", tok.line, tok.col
                )
            return ref(idx, val)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_superposition()
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.advance()
            builder = _BUILTINS.get(tok.text)
            if builder is None:
                raise ParseError(f"unknown builtin {tok.text!r}", tok.line, tok.col)
            if self.peek().kind == "(":
                self.advance()
                arg_tok = self.expect("int")
                arg = int(arg_tok.text)
                self.expect(")")
                if self.bits is not None and arg > self.bits:
                    raise ParseError(
                        f"builtin size {arg} exceeds declared size {self.bits}",
                        arg_tok.line, arg_tok.col,
                    )
            elif self.bits is not None:
                arg = self.bits
            else:
                raise ParseError(
                    f"bare {tok.text} needs a 'bits M;' header or an explicit size",
                    tok.line, tok.col,
                )
            return builder(arg)
        raise ParseError(f"expected a factor, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def parse_program(text: str) -> Tuple[Expr, Optional[int]]:
    """Parse a DSL program; returns (expr, declared bits or None)."""
    tokens = _tokenize(text)
    bits = None
    start = 0
    if tokens and tokens[0].kind == "name" and tokens[0].text == "bits":
        if len(tokens) < 3 or tokens[1].kind != "int" or tokens[2].kind != ";":
            raise ParseError("malformed 'bits M;' header", tokens[0].line, tokens[0].col)
        bits = int(tokens[1].text)
        if bits < 1:
            raise ParseError("declared size must be >= 1", tokens[1].line, tokens[1].col)
        start = 3
    parser = _Parser(tokens[start:], bits)
    expr = parser.parse_superposition()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         trailing.line, trailing.col)
    return expr, bits


def parse_dsl(text: str) -> Expr:
    """Parse a superposition, ignoring any declared size."""
    return parse_program(text)[0]


def format_dsl(expr: Expr) -> str:
    """Canonical text form; parse(format(e)) expands to the same superposition."""
    cache: Dict[int, Tuple[int, str]] = {}

    def min_bit(node: Expr) -> int:
        if isinstance(node, Ref):
            return node.wire.bit_index
        if isinstance(node, Sum):
            return min(min_bit(t) for _, t in node.terms)
        return min(min_bit(f) for f in node.factors)

    def fmt_factor(node: Expr) -> str:
        if isinstance(node, Ref):
            return f"R{node.wire.bit_index}_{node.wire.bit_value}"
        return "(" + fmt_sup(node) + ")" if isinstance(node, Sum) else "(" + fmt_term(node) + ")"

    def fmt_term(node: Expr) -> str:
        if isinstance(node, Product):
            keyed = sorted((min_bit(f), fmt_factor(f)) for f in node.factors)
            return "*".join(txt for _, txt in keyed)
        return fmt_factor(node)

    def fmt_sup(node: Expr) -> str:
        key = id(node)
        hit = cache.get(key)
        if hit is not None:
            return hit[1]
        if isinstance(node, Sum):
            pieces: List[Tuple[str, int]] = []
            for coeff, term in node.terms:
                txt = fmt_term(term)
                sign = 1 if coeff > 0 else -1
                pieces.extend((txt, sign) for _ in range(abs(coeff)))
            pieces.sort()
            out = []
            for i, (txt, sign) in enumerate(pieces):
                if i == 0:
                    out.append(("-" if sign < 0 else "") + txt)
                else:
                    out.append(("- " if sign < 0 else "+ ") + txt)
            text = " ".join(out)
        else:
            text = fmt_term(node)
        cache[key] = (0, text)
        return text

    return fmt_sup(expr)


def parse_fragments(text: str) -> Pattern:
    """Fragment syntax used on the CLI: '1=0,2=0,4=1'."""
    assignments = {}
    for part in text.split(","):
        part = part.strip()
        m = re.fullmatch(r"(\d+)\s*=\s*([01])", part)
        if m is None:
            raise ParseError(f"bad fragment {part!r}, expected INDEX=BIT", 1, 1)
        assignments[int(m.group(1))] = int(m.group(2))
    return Pattern.fragments(assignments)
