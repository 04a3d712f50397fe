"""Discrete-clock simulator for instantaneous noise-based logic.

Superpositions of noise product-strings are held as polynomial-size factored
expressions over seeded random telegraph reference wires; grounding selected
wires collapses a superposition for deterministic membership measurements.
Everything is validated against a brute-force expansion oracle.
"""

from .dyadic import Dyadic
from .dsl import format_dsl, parse_dsl, parse_program
from .expr import (
    Expr,
    Pattern,
    Product,
    Ref,
    Sum,
    build_even,
    build_odd,
    build_product_string,
    build_universe,
    evaluate,
    ref,
)
from .oracle import Expansion, expand, legal_bell_class, member, surviving
from .phonebook import (
    PhonebookExpr,
    PhonebookSpec,
    build_phonebook,
    inverse_lookup,
    lookup,
    parse_phonebook,
    switching_cost,
)
from .reference import ReferenceSystem, RtwScheme, WireId, derive_wire_seed
from .search import (
    BellClass,
    SearchOutcome,
    Verdict,
    entangle_discriminate,
    fragment_search,
    full_string_search,
    wait_for_live_clock,
)
from .switchboard import SwitchState, ground_inverse

__version__ = "0.1.0"

__all__ = [
    "BellClass",
    "Dyadic",
    "Expansion",
    "Expr",
    "Pattern",
    "PhonebookExpr",
    "PhonebookSpec",
    "Product",
    "Ref",
    "ReferenceSystem",
    "RtwScheme",
    "SearchOutcome",
    "Sum",
    "SwitchState",
    "Verdict",
    "WireId",
    "build_even",
    "build_odd",
    "build_phonebook",
    "build_product_string",
    "build_universe",
    "derive_wire_seed",
    "entangle_discriminate",
    "evaluate",
    "expand",
    "format_dsl",
    "fragment_search",
    "full_string_search",
    "ground_inverse",
    "inverse_lookup",
    "legal_bell_class",
    "lookup",
    "member",
    "parse_dsl",
    "parse_phonebook",
    "parse_program",
    "ref",
    "surviving",
    "switching_cost",
    "wait_for_live_clock",
]
