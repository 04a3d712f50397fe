"""Brute-force expansion oracle: ground truth for every protocol.

Expands an expression DAG into its explicit product-string/coefficient
table by distributing products over sums symbolically, in one pass over
the DAG's topological order with one table per distinct node (no
recursion, so nesting depth is limited only by memory). Intentionally
exponential; a hard size cap fails loudly instead of thrashing.

Purely symbolic: it reads no wire, clock or switch, and imports only the
expression types and errors, so it shares no code with the evaluators that
it checks.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from .errors import OracleLimitExceeded
from .expr import Expr, Pattern, Ref, Sum, topological_order

DEFAULT_ORACLE_LIMIT = 24

# A monomial is (mask, values), as in Pattern.mask: bit i of mask is set when
# it uses noise-bit i, and bit i of values is that bit's value. Rendered keys
# use '-' for unused bits, e.g. "10-0" at M=4.


class Expansion:
    """Product-string -> signed integer coefficient, zero entries removed.

    noncanonical is set when some monomial used a bit index twice during
    expansion (same value: a squared wire; opposite values: an annihilated
    monomial). Such expressions have no product-string reading, so the
    DAG-vs-expansion evaluation identity is not claimed for them.
    """

    def __init__(self, entries: Dict[str, int], num_bits: int, noncanonical: bool = False):
        self.entries = {k: v for k, v in entries.items() if v != 0}
        self.num_bits = num_bits
        self.noncanonical = noncanonical

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.num_bits == other.num_bits and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Expansion({self.entries!r}, num_bits={self.num_bits})"

    def strings(self) -> frozenset:
        return frozenset(self.entries)


def _render(mask: int, values: int, num_bits: int) -> str:
    """The key of monomial (mask, values) over bits 1..num_bits. Read as
    hexadecimal, the binary digits of mask >> 1 and values >> 1 add digit by
    digit with no carry (values is within mask), to one digit 0, 1 or 2 per
    bit, highest bit first; reversed, each names '-', '0' or '1'. Every
    conversion has a power-of-two base, so it takes linear time and has no
    digit limit."""
    digits = int(format(mask >> 1, "b"), 16) + int(format(values >> 1, "b"), 16)
    return format(digits, f"0{num_bits}x")[::-1].translate(_KEY_CHARS)


_KEY_CHARS = str.maketrans("012", "-01")


def expand(expr: Expr, num_bits: int, limit: int = DEFAULT_ORACLE_LIMIT) -> Expansion:
    """Explicit expansion of the superposition over num_bits noise-bits."""
    if num_bits > limit:
        raise OracleLimitExceeded(
            f"expansion over {num_bits} bits exceeds the cap of {limit}"
        )
    noncanonical = False
    tables: Dict[int, Dict[Tuple[int, int], int]] = {}
    for node in topological_order(expr):
        if isinstance(node, Ref):
            w = node.wire
            if w.bit_index > num_bits:
                raise ValueError(
                    f"wire bit_index {w.bit_index} exceeds num_bits {num_bits}"
                )
            table = {(1 << w.bit_index, w.bit_value << w.bit_index): 1}
        elif isinstance(node, Sum):
            acc: Dict[Tuple[int, int], int] = {}
            for coeff, term in node.terms:
                for mono, c in tables[id(term)].items():
                    acc[mono] = acc.get(mono, 0) + coeff * c
            table = {m: c for m, c in acc.items() if c != 0}
        else:
            # Product: fold pairwise symbolic multiplication
            table = tables[id(node.factors[0])]
            for factor in node.factors[1:]:
                merged: Dict[Tuple[int, int], int] = {}
                for (ma, va), ca in table.items():
                    for (mb, vb), cb in tables[id(factor)].items():
                        if ma & mb:
                            noncanonical = True
                            if (va ^ vb) & ma & mb:
                                continue
                        key = ma | mb, va | vb
                        merged[key] = merged.get(key, 0) + ca * cb
                table = {m: c for m, c in merged.items() if c != 0}
        tables[id(node)] = table
    return Expansion(
        {_render(m, v, num_bits): c for (m, v), c in tables[id(expr)].items()},
        num_bits,
        noncanonical,
    )


def member(expansion: Expansion, pattern: Pattern) -> int:
    """Coefficient of the full string in the expansion (0 if absent)."""
    if not pattern.is_full(expansion.num_bits):
        raise ValueError(f"member needs a full pattern, got {pattern}")
    key = "".join("01"[v] for _, v in pattern.assignments)
    return expansion.entries.get(key, 0)


def surviving(expansion: Expansion, pattern: Pattern) -> Expansion:
    """Entries that survive grounding the pattern's inverse wires.

    An entry survives iff it does not use the opposite value of any assigned
    bit; entries that leave an assigned bit unused keep no grounded wire and
    survive too.
    """
    pattern.check_fits(expansion.num_bits)
    wanted = pattern.as_dict()
    kept = {
        key: coeff
        for key, coeff in expansion.entries.items()
        if all(key[idx - 1] in ("01"[val], "-") for idx, val in wanted.items())
    }
    return Expansion(kept, expansion.num_bits, expansion.noncanonical)


class BellClass(Enum):
    """The six two-noise-bit configurations where each bit value appears in
    at most one string."""

    S01_PLUS_10 = "S01+10"
    S00_PLUS_11 = "S00+11"
    S00 = "S00"
    S01 = "S01"
    S10 = "S10"
    S11 = "S11"


_BELL_BY_STRINGS = {
    frozenset({"01", "10"}): BellClass.S01_PLUS_10,
    frozenset({"00", "11"}): BellClass.S00_PLUS_11,
    frozenset({"00"}): BellClass.S00,
    frozenset({"01"}): BellClass.S01,
    frozenset({"10"}): BellClass.S10,
    frozenset({"11"}): BellClass.S11,
}


def legal_bell_class(expansion: Expansion) -> Optional[BellClass]:
    """Classify a 2-bit expansion, or None if it is outside the legal set."""
    if expansion.num_bits != 2:
        raise ValueError("Bell classification needs a 2-bit expansion")
    if expansion.noncanonical:
        return None
    if any(coeff != 1 for coeff in expansion.entries.values()):
        return None
    if any("-" in key for key in expansion.entries):
        return None
    return _BELL_BY_STRINGS.get(frozenset(expansion.entries))
