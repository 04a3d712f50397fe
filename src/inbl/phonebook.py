"""Entangled name/number phonebook and its collapse-based lookups.

Names occupy noise-bits 1..N, numbers bits N+1..N+S of one combined
reference system. Both lookup directions run one routine: collapse the book
onto the queried key's single entry by grounding the inverse wires of the
key's side (the N name bits forward, the S number bits inverse), then probe
the other side's wires one by one: grounding the survivor's own wire zeroes
the signal, grounding the other wire of the same digit does nothing.

A lookup is the protocols' one step, `search._probe_at_live_clock`:
collapse, probe, one read at the live clock. The wire draws stay frozen at
that clock, so the switch actions come first and every configuration they
pass through (the collapse, then each probed wire grounded on top of it) is
read in one exact call per window of clocks, beside the un-grounded signal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Tuple

from .errors import (
    DuplicateName,
    NameAbsent,
    NotBijective,
    NumberAbsent,
    ParseError,
    PatternError,
    ProbeInconsistency,
)
from .dsl import parse_int
from .expr import Expr, Pattern, Sum, build_product_string
from .reference import ReferenceSystem, wire_id
from .search import DEFAULT_MAX_WAIT, _probe_at_live_clock


@dataclass(frozen=True)
class PhonebookSpec:
    name_bits: int
    number_bits: int
    entries: Tuple[Tuple[str, str], ...]  # (name bitstring, number bitstring)
    # whether every number is distinct, which an inverse lookup needs
    bijective: bool = field(init=False, repr=False, compare=False)

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
        numbers = {number for _, number in self.entries}
        object.__setattr__(self, "bijective", len(numbers) == len(self.entries))

    @property
    def total_bits(self) -> int:
        return self.name_bits + self.number_bits


@dataclass(frozen=True)
class PhonebookExpr:
    expr: Expr
    spec: PhonebookSpec


def build_phonebook(spec: PhonebookSpec) -> PhonebookExpr:
    """Sum over entries of the product-string that spells name + number."""
    return PhonebookExpr(Sum(tuple(
        (1, build_product_string(Pattern.from_string(name + number), spec.total_bits))
        for name, number in spec.entries)), spec)


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
    then ground/restore both wires of each of the probe_width digits after
    probe_offset, and read every configuration at one live clock: the wire
    whose grounding zeroes the signal is the entry's own. Returns (probed
    digits, switch_ops)."""
    if len(key) != key_width or any(c not in "01" for c in key):
        raise PatternError(f"bad key {key!r} for {key_width} bits")
    if system.num_bits != pb.spec.total_bits:
        raise PatternError(
            f"system has {system.num_bits} bits, book needs {pb.spec.total_bits}"
        )
    key_pattern = Pattern(tuple((key_offset + i + 1, int(c)) for i, c in enumerate(key)))
    probe_bits = range(probe_offset + 1, probe_offset + probe_width + 1)
    probes = [wire_id(j, v) for j in probe_bits for v in (0, 1)]
    live, ops = _probe_at_live_clock(pb.expr, system, [key_pattern], probes, max_wait, t_start)
    readings = live.readings[:, 0].tolist()
    if readings[1] == 0:
        raise absent(f"{key} is not in the book")
    digits = []
    for k, j in enumerate(probe_bits):
        zeroed = [v for v in (0, 1) if readings[2 + 2 * k + v] == 0]
        if len(zeroed) != 1:
            raise ProbeInconsistency(
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
    if not pb.spec.bijective:
        raise NotBijective("inverse lookup needs distinct numbers")
    n, s = pb.spec.name_bits, pb.spec.number_bits
    return _collapse_and_probe(pb, system, number, n, s, 0, n, NumberAbsent, max_wait, t_start)


def parse_phonebook(text: str) -> PhonebookSpec:
    """Phonebook file: header `names N; numbers S;` then `name -> number` lines."""
    lines = [(n, line.split("#", 1)[0]) for n, line in enumerate(text.splitlines(), start=1)]
    lines = [(n, line) for n, line in lines if line.strip()]
    if not lines:
        raise ParseError("empty phonebook file", 1, 1)
    header_no, header = lines[0]
    m = re.fullmatch(r"\s*names\s+(\d+)\s*;\s*numbers\s+(\d+)\s*;\s*", header)
    if m is None:
        raise ParseError("expected header 'names N; numbers S;'", header_no, 1)
    name_bits, number_bits = (parse_int(m.group(g), header, m.start(g), header_no) for g in (1, 2))
    # before any entry is checked against a width of 0
    for g, width in ((1, name_bits), (2, number_bits)):
        if width < 1:
            raise ParseError("name_bits and number_bits must be >= 1", header_no, m.start(g) + 1)
    entries = {}
    for n, line in lines[1:]:
        em = re.fullmatch(r"\s*([01]+)\s*->\s*([01]+)\s*", line)
        if em is None:
            raise ParseError(f"expected 'NAME -> NUMBER', found {line.strip()!r}", n, 1)
        # PhonebookSpec's own checks of an entry, at the entry's position
        for g, kind, width in ((1, "name", name_bits), (2, "number", number_bits)):
            if len(em.group(g)) != width:
                raise ParseError(f"bad {kind} {em.group(g)!r} for {width} bits", n, em.start(g) + 1)
        if em.group(1) in entries:
            raise ParseError(f"name {em.group(1)} appears twice", n, em.start(1) + 1)
        entries[em.group(1)] = em.group(2)
    return PhonebookSpec(name_bits, number_bits, tuple(entries.items()))
