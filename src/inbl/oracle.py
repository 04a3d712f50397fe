"""Brute-force expansion oracle: ground truth for every protocol.

Expands an expression DAG into its explicit product-string/coefficient
table by distributing products over sums symbolically. Intentionally
exponential; a hard size cap fails loudly instead of thrashing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .dyadic import Dyadic, ZERO
from .errors import OracleLimitExceeded
from .expr import Expr, Pattern, Product, Ref, Sum
from .reference import ReferenceSystem, WireId
from .search import BellClass
from .switchboard import SwitchState

DEFAULT_ORACLE_LIMIT = 24

# A monomial maps bit_index -> bit_value for the bits its wires use.
# Rendered keys use '-' for unused bits, e.g. "10-0" at M=4.
_Monomial = Tuple[Tuple[int, int], ...]


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


def _render(mono: _Monomial, num_bits: int) -> str:
    chars = ["-"] * num_bits
    for idx, val in mono:
        chars[idx - 1] = "01"[val]
    return "".join(chars)


def expand(expr: Expr, num_bits: int, limit: int = DEFAULT_ORACLE_LIMIT) -> Expansion:
    """Explicit expansion of the superposition over num_bits noise-bits."""
    if num_bits > limit:
        raise OracleLimitExceeded(
            f"expansion over {num_bits} bits exceeds the cap of {limit}"
        )
    noncanonical = False

    def go(node: Expr) -> Dict[_Monomial, int]:
        nonlocal noncanonical
        if isinstance(node, Ref):
            w = node.wire
            if w.bit_index > num_bits:
                raise ValueError(
                    f"wire bit_index {w.bit_index} exceeds num_bits {num_bits}"
                )
            return {((w.bit_index, w.bit_value),): 1}
        if isinstance(node, Sum):
            acc: Dict[_Monomial, int] = {}
            for coeff, term in node.terms:
                for mono, c in go(term).items():
                    acc[mono] = acc.get(mono, 0) + coeff * c
            return {m: c for m, c in acc.items() if c != 0}
        # Product: fold pairwise symbolic multiplication
        acc = go(node.factors[0])
        for factor in node.factors[1:]:
            rhs = go(factor)
            merged: Dict[_Monomial, int] = {}
            for mono_a, ca in acc.items():
                da = dict(mono_a)
                for mono_b, cb in rhs.items():
                    d = dict(da)
                    dead = False
                    for idx, val in mono_b:
                        prev = d.get(idx)
                        if prev is None:
                            d[idx] = val
                        else:
                            noncanonical = True
                            if prev != val:
                                dead = True
                                break
                    if dead:
                        continue
                    key = tuple(sorted(d.items()))
                    merged[key] = merged.get(key, 0) + ca * cb
            acc = {m: c for m, c in merged.items() if c != 0}
        return acc

    monomials = go(expr)
    return Expansion(
        {_render(m, num_bits): c for m, c in monomials.items()},
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


def eval_via_expansion(
    expansion: Expansion,
    system: ReferenceSystem,
    t: int,
    switches: Optional[SwitchState] = None,
) -> Dyadic:
    """Ground-truth signal value: sum of coefficient * wire-value products."""
    wire_cache: Dict[Tuple[int, str], Dyadic] = {}

    def wire_val(idx: int, ch: str) -> Dyadic:
        key = (idx, ch)
        v = wire_cache.get(key)
        if v is None:
            wire = WireId(idx, int(ch))
            if switches is not None and switches.is_grounded(wire):
                v = ZERO
            else:
                v = system.wire_value(wire, t)
            wire_cache[key] = v
        return v

    total = ZERO
    for key, coeff in expansion.entries.items():
        value = Dyadic(coeff)
        for i, ch in enumerate(key):
            if ch == "-":
                continue
            value = value * wire_val(i + 1, ch)
            if value.is_zero():
                break
        total = total + value
    return total


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
