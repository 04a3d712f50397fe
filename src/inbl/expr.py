"""Superpositions as immutable expression DAGs over reference wires.

A superposition is a Sum/Product/Ref tree with shared subgraphs allowed.
Factored forms keep exponentially large superpositions polynomial in size;
evaluation memoizes shared nodes so the cost stays polynomial too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .dyadic import Dyadic, ZERO
from .errors import PatternError
from .reference import ReferenceSystem, WireId, wire_id


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
    return Ref(wire_id(bit_index, bit_value))


@dataclass(frozen=True)
class Pattern:
    """Partial or full assignment of bit values: ((bit_index, bit_value), ...)."""

    assignments: Tuple[Tuple[int, int], ...]
    # bit i of mask is set when the pattern assigns bit index i
    mask: int = field(init=False, repr=False, compare=False)

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
        # the mask's binary digits, highest first, convert in linear time
        digits = bytearray(b"0") * (max(seen, default=0) + 1)
        for idx in seen:
            digits[-1 - idx] = ord("1")
        object.__setattr__(self, "assignments", tuple(sorted(self.assignments)))
        object.__setattr__(self, "mask", int(digits, 2))

    @classmethod
    def from_string(cls, bits: str) -> "Pattern":
        """Full pattern from a bit string; position i holds bit i (1-based)."""
        if not bits or not set(bits) <= {"0", "1"}:
            raise PatternError(f"not a bit string: {bits!r}")
        return cls(tuple(zip(range(1, len(bits) + 1), map(int, bits))))

    @classmethod
    def fragments(cls, assignments: Mapping[int, int]) -> "Pattern":
        return cls(tuple(assignments.items()))

    def is_full(self, num_bits: int) -> bool:
        return self.mask == (1 << num_bits + 1) - 2

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


def topological_order(expr: Expr) -> List[Expr]:
    """The DAG's distinct nodes (by identity), each after all of its
    children, so the root comes last: a depth-first walk that visits a
    node's children last to first. Iterative, so nesting depth is limited
    only by memory; None on the stack marks that the node below it has all
    of its children placed."""
    order: List[Expr] = []
    seen = set()
    stack: List[Optional[Expr]] = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            order.append(stack.pop())
        elif id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Ref):
                order.append(node)
            else:
                stack += (node, None)
                stack.extend([term for _, term in node.terms] if isinstance(node, Sum)
                             else node.factors)
    return order


def iter_wires(expr: Expr) -> Iterator[WireId]:
    """All wires referenced in the DAG (shared nodes visited once)."""
    return (node.wire for node in topological_order(expr) if isinstance(node, Ref))


def evaluate(expr: Expr, system: ReferenceSystem, t: int, grounded: int = 0) -> Dyadic:
    """Exact amplitude of the superposition at clock t.

    The scalar reference evaluator: no protocol calls it (they all read
    through `experiments.ConfigReader`); tests compare the window evaluator
    against it. grounded is a wire mask, the int a `ConfigReader` row takes:
    a wire reads exactly zero when bit `WireId.tag` of it is set, and bits
    of wires that expr does not read are ignored. Each distinct node is
    evaluated once per call, children first, over expr's topological order,
    so nesting depth is limited only by memory.
    """
    values: Dict[int, Dyadic] = {}
    for node in topological_order(expr):
        if isinstance(node, Ref):
            if grounded >> node.wire.tag & 1:
                value = ZERO
            else:
                value = system.wire_value(node.wire, t)
        elif isinstance(node, Sum):
            value = ZERO
            for coeff, term in node.terms:
                value = value + coeff * values[id(term)]
        else:
            value = values[id(node.factors[0])]
            for factor in node.factors[1:]:
                if value.is_zero():
                    break
                value = value * values[id(factor)]
        values[id(node)] = value
    return values[id(expr)]
