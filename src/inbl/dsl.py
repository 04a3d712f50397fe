"""Text DSL for superpositions (.nbl files).

Grammar (whitespace-insensitive, `#` starts a line comment):

    program       := [ 'bits' INT ';' ] superposition
    superposition := ['-'] term (('+'|'-') term)*
    term          := [INT '*'] factor ('*' factor)*
    factor        := ref | '(' superposition ')' | builtin
    ref           := 'R' INT '_' ('0'|'1')
    builtin       := ('U'|'EVEN'|'ODD') [ '(' INT ')' ]

A term's INT is its integer coefficient, which must be nonzero; the sign
before the term gives its sign. Bare builtins (no argument) take the
declared system size. An INT too long for int() is a ParseError at its
token. The formatter emits a canonical form: product factors ascending by
lowest bit index, sum terms in lexicographic order, and a coefficient c
with |c| >= 2 written once, as `|c|*term`.

Neither pass recurses: the parser is one loop over the tokens with an
explicit stack of open parentheses, and the formatter is one pass over the
DAG's topological order, so nesting depth is limited only by memory.
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
    topological_order,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<ref>R\d+_[01])
  | (?P<name>[A-Za-z]+)
  | (?P<int>\d+)
  | (?P<sym>[+\-*();])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_BUILTINS = {"U": build_universe, "EVEN": build_even, "ODD": build_odd}

# A token is (kind, text, offset); a symbol's kind is its text.
_Token = Tuple[str, str, int]


def _error(text: str, offset: int, message: str, line: int = 1) -> ParseError:
    """ParseError at the 1-based line and column of text[offset], counting
    text's first line as line `line`."""
    line += text.count("\n", 0, offset)
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def parse_int(digits: str, text: str, offset: int, line: int = 1) -> int:
    """The decimal digits at text[offset]; a number longer than int()
    converts (sys.get_int_max_str_digits) is a ParseError there (see _error)."""
    try:
        return int(digits)
    except ValueError:
        raise _error(text, offset, f"integer of {len(digits)} digits is too long", line) from None


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, raw = m.lastgroup, m.group()
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {raw!r}")
        if kind not in ("ws", "comment"):
            tokens.append((raw if kind == "sym" else kind, raw, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _expect(text: str, tok: _Token, kind: str) -> None:
    if tok[0] != kind:
        raise _error(text, tok[2], f"expected {kind!r}, found {tok[1] or 'end of input'!r}")


def _sum(terms: List[Tuple[int, Expr]]) -> Expr:
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return Sum(tuple(terms))


def _parse(text: str, tokens: List[_Token], pos: int, bits: Optional[int]) -> Expr:
    """One loop over the tokens from pos; an explicit stack holds, for each
    open '(', the enclosing superposition's terms, its open term's factors
    and that term's signed coefficient."""
    stack: List[Tuple[List[Tuple[int, Expr]], List[Expr], int]] = []
    terms: List[Tuple[int, Expr]] = []
    factors: List[Expr] = []
    sign = 1
    while True:
        kind, raw, offset = tokens[pos]
        pos += 1
        if kind == "-" and sign == 1 and not (terms or factors):
            sign = -1  # the one leading '-' a superposition may have
            continue
        if kind == "int" and not factors:
            # the open term's coefficient: INT '*' before its first factor
            _expect(text, tokens[pos], "*")
            coeff = parse_int(raw, text, offset)
            if coeff == 0:
                raise _error(text, offset, "a term's coefficient must be nonzero")
            sign *= coeff
            kind, raw, offset = tokens[pos + 1]
            pos += 2
        if kind == "(":
            stack.append((terms, factors, sign))
            terms, factors, sign = [], [], 1
            continue
        if kind == "ref":
            idx = parse_int(raw[1:-2], text, offset)
            if idx < 1:
                raise _error(text, offset, f"bit index must be >= 1, got {idx}")
            if bits is not None and idx > bits:
                raise _error(text, offset, f"bit index {idx} exceeds declared size {bits}")
            factor = ref(idx, int(raw[-1]))
        elif kind == "name":
            builder = _BUILTINS.get(raw)
            if builder is None:
                raise _error(text, offset, f"unknown builtin {raw!r}")
            if tokens[pos][0] == "(":
                arg_tok = tokens[pos + 1]
                _expect(text, arg_tok, "int")
                _expect(text, tokens[pos + 2], ")")
                pos += 3
                arg = parse_int(arg_tok[1], text, arg_tok[2])
                if arg < 1:
                    raise _error(text, arg_tok[2], f"builtin size must be >= 1, got {arg}")
                if bits is not None and arg > bits:
                    raise _error(text, arg_tok[2],
                                 f"builtin size {arg} exceeds declared size {bits}")
            elif bits is not None:
                arg = bits
            else:
                raise _error(text, offset,
                             f"bare {raw} needs a 'bits M;' header or an explicit size")
            factor = builder(arg)
        else:
            raise _error(text, offset, f"expected a factor, found {raw or 'end of input'!r}")
        # the factor is complete; each ')' after it closes a superposition,
        # which becomes a factor of the enclosing term
        while True:
            factors.append(factor)
            kind, raw, offset = tokens[pos]
            if kind == "*":
                pos += 1
                break
            terms.append((sign, factors[0] if len(factors) == 1 else Product(tuple(factors))))
            factors = []
            if kind in ("+", "-"):
                sign = 1 if kind == "+" else -1
                pos += 1
                break
            if not stack:
                if kind != "eof":
                    raise _error(text, offset, f"unexpected trailing input {raw!r}")
                return _sum(terms)
            _expect(text, tokens[pos], ")")
            pos += 1
            factor = _sum(terms)
            terms, factors, sign = stack.pop()


def parse_program(text: str) -> Tuple[Expr, Optional[int]]:
    """Parse a DSL program; returns (expr, declared bits or None)."""
    tokens = _tokenize(text)
    bits = None
    start = 0
    if tokens[0][:2] == ("name", "bits"):
        if len(tokens) < 3 or tokens[1][0] != "int" or tokens[2][0] != ";":
            raise _error(text, tokens[0][2], "malformed 'bits M;' header")
        bits = parse_int(tokens[1][1], text, tokens[1][2])
        if bits < 1:
            raise _error(text, tokens[1][2], "declared size must be >= 1")
        start = 3
    return _parse(text, tokens, start, bits), bits


def parse_dsl(text: str) -> Expr:
    """Parse a superposition, ignoring any declared size."""
    return parse_program(text)[0]


def format_dsl(expr: Expr) -> str:
    """Canonical text form; parse(format(e)) expands to the same superposition
    whenever every coefficient and bit index fits a DSL integer (see
    parse_int): a longer one is a ValueError naming its size. One pass over
    expr's topological order keeps (lowest bit, text) per node. A Sum is
    parenthesized as a factor or a term, a Product as a factor only; the
    root needs neither."""
    done: Dict[int, Tuple[int, str]] = {}
    for node in topological_order(expr):
        if isinstance(node, Ref):
            index = node.wire.bit_index
            try:
                entry = (index, f"R{index}_{node.wire.bit_value}")
            except ValueError:  # str() refuses the decimals parse_int refuses
                raise ValueError(f"a bit index of {index.bit_length()} bits is too long "
                                 "for the DSL") from None
        elif isinstance(node, Sum):
            lows = []
            pieces: List[Tuple[str, bool, int]] = []
            for coeff, term in node.terms:
                low, txt = done[id(term)]
                lows.append(low)
                if isinstance(term, Sum):
                    txt = f"({txt})"
                pieces.append((txt, coeff > 0, abs(coeff)))
            pieces.sort()
            try:
                joined = " ".join(("+ " if positive else "- ") + (f"{size}*" if size > 1 else "")
                                  + txt for txt, positive, size in pieces)
            except ValueError:  # str() refuses the decimals parse_int refuses
                bits = max(size for _, _, size in pieces).bit_length()
                raise ValueError(f"a coefficient of {bits} bits is too long for the DSL") from None
            # the first term's '+' is dropped and its '-' joins the term
            entry = (min(lows), joined[2:] if pieces[0][1] else "-" + joined[2:])
        else:
            keyed = []
            for factor in node.factors:
                low, txt = done[id(factor)]
                keyed.append((low, txt if isinstance(factor, Ref) else f"({txt})"))
            keyed.sort()
            entry = (keyed[0][0], "*".join(txt for _, txt in keyed))
        done[id(node)] = entry
    return done[id(expr)][1]


def parse_fragments(text: str) -> Pattern:
    """Fragment syntax used on the CLI: '1=0,2=0,4=1'."""
    assignments = {}
    column = 1  # of the current part
    for part in text.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*=\s*([01])\s*", part)
        if m is None:
            start = column + len(part) - len(part.lstrip()) if part.strip() else column
            raise ParseError(f"bad fragment {part.strip()!r}, expected INDEX=BIT", 1, start)
        index = parse_int(m.group(1), text, column - 1 + m.start(1))
        if index in assignments:
            raise ParseError(f"bit index {index} is assigned twice", 1, column + m.start(1))
        assignments[index] = int(m.group(2))
        column += len(part) + 1
    return Pattern.fragments(assignments)
