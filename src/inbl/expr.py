"""Superpositions as immutable expression DAGs over reference wires.

A superposition is a Sum/Product/Ref tree with shared subgraphs allowed.
Factored forms keep exponentially large superpositions polynomial in size;
evaluation memoizes shared nodes so the cost stays polynomial too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Mapping, Optional, Tuple

from .dyadic import Dyadic, ZERO
from .errors import PatternError
from .reference import ReferenceSystem, WireId


class Expr:
    """Base class for expression nodes. Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Ref(Expr):
    wire: WireId


@dataclass(frozen=True)
class Sum(Expr):
    """Integer-weighted sum of subexpressions."""

    terms: Tuple[Tuple[int, Expr], ...]

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("Sum needs at least one term")
        for coeff, term in self.terms:
            if coeff == 0:
                raise ValueError("Sum coefficients must be nonzero")
            if not isinstance(term, Expr):
                raise TypeError(f"Sum term is not an Expr: {term!r}")


@dataclass(frozen=True)
class Product(Expr):
    factors: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("Product needs at least one factor")
        for f in self.factors:
            if not isinstance(f, Expr):
                raise TypeError(f"Product factor is not an Expr: {f!r}")


@lru_cache(maxsize=None)
def ref(bit_index: int, bit_value: int) -> Ref:
    """Interned Ref node; sharing lets evaluation memoize wire reads."""
    return Ref(WireId(bit_index, bit_value))


@dataclass(frozen=True)
class Pattern:
    """Partial or full assignment of bit values: ((bit_index, bit_value), ...)."""

    assignments: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for idx, val in self.assignments:
            if idx < 1:
                raise PatternError(f"bit index must be >= 1, got {idx}")
            if val not in (0, 1):
                raise PatternError(f"bit value must be 0 or 1, got {val}")
            if idx in seen:
                raise PatternError(f"duplicate bit index {idx}")
            seen.add(idx)
        object.__setattr__(self, "assignments", tuple(sorted(self.assignments)))

    @classmethod
    def from_string(cls, bits: str) -> "Pattern":
        """Full pattern from a bit string; position i holds bit i (1-based)."""
        if not bits or any(c not in "01" for c in bits):
            raise PatternError(f"not a bit string: {bits!r}")
        return cls(tuple((i + 1, int(c)) for i, c in enumerate(bits)))

    @classmethod
    def fragments(cls, assignments: Mapping[int, int]) -> "Pattern":
        return cls(tuple(assignments.items()))

    def is_full(self, num_bits: int) -> bool:
        return [idx for idx, _ in self.assignments] == list(range(1, num_bits + 1))

    def check_fits(self, num_bits: int) -> None:
        for idx, _ in self.assignments:
            if idx > num_bits:
                raise PatternError(f"bit index {idx} exceeds system size {num_bits}")

    def as_dict(self) -> Dict[int, int]:
        return dict(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def __str__(self) -> str:
        idxs = [idx for idx, _ in self.assignments]
        if idxs and idxs == list(range(1, len(idxs) + 1)):
            return "".join(str(v) for _, v in self.assignments)
        return ",".join(f"{i}={v}" for i, v in self.assignments)


# --- canonical superposition builders ---


def build_product_string(pattern: Pattern, num_bits: int) -> Product:
    """The single product-string selected by a full pattern."""
    if not pattern.is_full(num_bits):
        raise PatternError(f"pattern {pattern} is not a full {num_bits}-bit assignment")
    return Product(tuple(ref(i, v) for i, v in pattern.assignments))


def _bit_sum(i: int) -> Sum:
    return Sum(((1, ref(i, 0)), (1, ref(i, 1))))


def build_universe(num_bits: int) -> Product:
    """Superposition of all 2**M product-strings from M two-term factors."""
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    return Product(tuple(_bit_sum(i) for i in range(1, num_bits + 1)))


def build_even(num_bits: int) -> Product:
    """All strings whose lowest bit (bit 1) is 0."""
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    factors = [ref(1, 0)]
    factors.extend(_bit_sum(i) for i in range(2, num_bits + 1))
    return Product(tuple(factors))


def build_odd(num_bits: int) -> Sum:
    """Universe minus the even strings, left unexpanded."""
    return Sum(((1, build_universe(num_bits)), (-1, build_even(num_bits))))


# --- structural helpers ---


def iter_wires(expr: Expr) -> Iterator[WireId]:
    """All wires referenced in the DAG (shared nodes visited once)."""
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Ref):
            yield node.wire
        elif isinstance(node, Sum):
            stack.extend(term for _, term in node.terms)
        elif isinstance(node, Product):
            stack.extend(node.factors)


def evaluate(
    expr: Expr,
    system: ReferenceSystem,
    t: int,
    switches: Optional["SwitchState"] = None,
) -> Dyadic:
    """Exact amplitude of the superposition at clock t.

    Grounded wires read as exactly zero; a product short-circuits on the
    first zero factor. Shared subgraphs are evaluated once per call (the
    clock and switch configuration are fixed for the call's duration).
    """
    memo: Dict[int, Dyadic] = {}

    def go(node: Expr) -> Dyadic:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Ref):
            if switches is not None and switches.is_grounded(node.wire):
                value = ZERO
            else:
                value = system.wire_value(node.wire, t)
        elif isinstance(node, Sum):
            value = ZERO
            for coeff, term in node.terms:
                value = value + coeff * go(term)
        else:
            value = go(node.factors[0])
            for factor in node.factors[1:]:
                if value.is_zero():
                    break
                value = value * go(factor)
        memo[key] = value
        return value

    try:
        return go(expr)
    finally:
        del go  # go holds itself in its closure; breaking the cycle frees memo now
