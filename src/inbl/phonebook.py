"""Entangled name/number phonebook and its collapse-based lookups.

Names occupy noise-bits 1..N, numbers bits N+1..N+S of one combined
reference system. Both lookup directions run one routine: collapse the book
onto the queried key's single entry by grounding the inverse wires of the
key's side (the N name bits forward, the S number bits inverse), then probe
the other side's wires one by one: grounding the survivor's own wire zeroes
the signal, grounding the other wire of the same digit does nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    DuplicateName,
    NameAbsent,
    NotBijective,
    NumberAbsent,
    ParseError,
    PatternError,
)
from .expr import Expr, Pattern, Product, Sum, evaluate, ref
from .reference import ReferenceSystem, WireId
from .search import DEFAULT_MAX_WAIT, wait_for_live_clock
from .switchboard import ground_inverse


@dataclass(frozen=True)
class PhonebookSpec:
    name_bits: int
    number_bits: int
    entries: Tuple[Tuple[str, str], ...]  # (name bitstring, number bitstring)

    def __post_init__(self):
        if self.name_bits < 1 or self.number_bits < 1:
            raise PatternError("name_bits and number_bits must be >= 1")
        seen = set()
        for name, number in self.entries:
            if len(name) != self.name_bits or any(c not in "01" for c in name):
                raise PatternError(f"bad name {name!r} for {self.name_bits} bits")
            if len(number) != self.number_bits or any(c not in "01" for c in number):
                raise PatternError(f"bad number {number!r} for {self.number_bits} bits")
            if name in seen:
                raise DuplicateName(f"name {name} appears twice")
            seen.add(name)
        if not self.entries:
            raise PatternError("phonebook needs at least one entry")

    @property
    def total_bits(self) -> int:
        return self.name_bits + self.number_bits

    def is_bijective(self) -> bool:
        numbers = [number for _, number in self.entries]
        return len(set(numbers)) == len(numbers)


@dataclass(frozen=True)
class PhonebookExpr:
    expr: Expr
    spec: PhonebookSpec


def build_phonebook(spec: PhonebookSpec) -> PhonebookExpr:
    """Sum over entries of name-product * number-product."""
    terms = []
    for name, number in spec.entries:
        name_factors = tuple(ref(i + 1, int(c)) for i, c in enumerate(name))
        number_factors = tuple(
            ref(spec.name_bits + i + 1, int(c)) for i, c in enumerate(number)
        )
        terms.append((1, Product((Product(name_factors), Product(number_factors)))))
    return PhonebookExpr(Sum(tuple(terms)), spec)


def switching_cost(name_bits: int, number_bits: int, direction: str) -> int:
    """Exact switch-operation count of a lookup: collapse + one-by-one probes."""
    if name_bits < 1 or number_bits < 1:
        raise ValueError("bit widths must be >= 1")
    if direction == "forward":
        return name_bits + 2 * number_bits
    if direction == "inverse":
        return number_bits + 2 * name_bits
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _collapse_and_probe(
    pb: PhonebookExpr,
    system: ReferenceSystem,
    key: str,
    key_offset: int,
    key_width: int,
    probe_offset: int,
    probe_width: int,
    absent: type,
    max_wait: int,
    t_start: int,
) -> Tuple[str, int]:
    """Collapse the book onto the entry whose bits key_offset+1.. spell key,
    then ground/read/restore both wires of each of the probe_width digits
    after probe_offset: the wire whose grounding zeroes the signal is the
    entry's own. Returns (probed digits, switch_ops)."""
    if len(key) != key_width or any(c not in "01" for c in key):
        raise PatternError(f"bad key {key!r} for {key_width} bits")
    if system.num_bits != pb.spec.total_bits:
        raise PatternError(
            f"system has {system.num_bits} bits, book needs {pb.spec.total_bits}"
        )
    t = wait_for_live_clock(pb.expr, system, t_start, max_wait)
    key_pattern = Pattern(tuple((key_offset + i + 1, int(c)) for i, c in enumerate(key)))
    switches = ground_inverse(key_pattern, system.num_bits)
    ops = len(switches.grounded)
    if evaluate(pb.expr, system, t, switches).is_zero():
        raise absent(f"{key} is not in the book")
    digits = []
    for j in range(probe_offset + 1, probe_offset + probe_width + 1):
        zeroed = []
        for v in (0, 1):
            wire = WireId(j, v)
            ops += switches.ground(wire)
            if evaluate(pb.expr, system, t, switches).is_zero():
                zeroed.append(v)
            switches.restore(wire)
        if len(zeroed) != 1:
            raise RuntimeError(
                f"probe inconsistency at bit {j}: groundings zeroing signal = {zeroed}"
            )
        digits.append("01"[zeroed[0]])
    return "".join(digits), ops


def lookup(
    pb: PhonebookExpr,
    system: ReferenceSystem,
    name: str,
    max_wait: int = DEFAULT_MAX_WAIT,
    t_start: int = 0,
) -> Tuple[str, int]:
    """Forward lookup: returns (number, switch_ops). Zero error probability."""
    n, s = pb.spec.name_bits, pb.spec.number_bits
    return _collapse_and_probe(pb, system, name, 0, n, n, s, NameAbsent, max_wait, t_start)


def inverse_lookup(
    pb: PhonebookExpr,
    system: ReferenceSystem,
    number: str,
    max_wait: int = DEFAULT_MAX_WAIT,
    t_start: int = 0,
) -> Tuple[str, int]:
    """Inverse lookup on a one-to-one book: returns (name, switch_ops)."""
    if not pb.spec.is_bijective():
        raise NotBijective("inverse lookup needs distinct numbers")
    n, s = pb.spec.name_bits, pb.spec.number_bits
    return _collapse_and_probe(pb, system, number, n, s, 0, n, NumberAbsent, max_wait, t_start)


def parse_phonebook(text: str) -> PhonebookSpec:
    """Phonebook file: header `names N; numbers S;` then `name -> number` lines."""
    lines = [
        (n, line.split("#", 1)[0].strip())
        for n, line in enumerate(text.splitlines(), start=1)
    ]
    lines = [(n, line) for n, line in lines if line]
    if not lines:
        raise ParseError("empty phonebook file", 1, 1)
    header_no, header = lines[0]
    m = re.fullmatch(r"names\s+(\d+)\s*;\s*numbers\s+(\d+)\s*;", header)
    if m is None:
        raise ParseError("expected header 'names N; numbers S;'", header_no, 1)
    name_bits, number_bits = int(m.group(1)), int(m.group(2))
    entries = []
    for n, line in lines[1:]:
        em = re.fullmatch(r"([01]+)\s*->\s*([01]+)", line)
        if em is None:
            raise ParseError(f"expected 'NAME -> NUMBER', found {line!r}", n, 1)
        entries.append((em.group(1), em.group(2)))
    return PhonebookSpec(name_bits, number_bits, tuple(entries))
