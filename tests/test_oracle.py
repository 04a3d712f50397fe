import random

import pytest

from inbl.dyadic import ZERO, Dyadic
from inbl.dsl import parse_dsl
from inbl.errors import OracleLimitExceeded
from inbl.expr import (
    Pattern,
    Product,
    Sum,
    build_even,
    build_odd,
    build_product_string,
    build_universe,
    evaluate,
    ref,
)
from inbl.oracle import (
    Expansion,
    eval_via_expansion,
    expand,
    legal_bell_class,
    member,
    surviving,
)
from inbl.reference import ReferenceSystem
from inbl.search import BellClass
from inbl.switchboard import ground_inverse

from conftest import EQ12_TEXT, EQ9_TEXT, random_canonical_expr, random_switches


def brute_force_strings(num_bits):
    return [format(x, f"0{num_bits}b") for x in range(2**num_bits)]


def test_expand_universe_all_strings():
    for m in (1, 2, 3):
        exp = expand(build_universe(m), m)
        assert sorted(exp.entries) == brute_force_strings(m)
        assert set(exp.entries.values()) == {1}
        assert not exp.noncanonical


def test_expand_even_odd_cancellation():
    for m in (1, 2, 3, 4):
        odd = expand(build_odd(m), m)
        # U - Y_even leaves exactly the strings with bit 1 == 1
        assert sorted(odd.entries) == [s for s in brute_force_strings(m) if s[0] == "1"]
        assert set(odd.entries.values()) == {1}
        even = expand(build_even(m), m)
        assert sorted(even.entries) == [s for s in brute_force_strings(m) if s[0] == "0"]


def test_conflicting_monomial_dropped():
    exp = expand(Product((ref(1, 0), ref(1, 1))), 1)
    assert len(exp) == 0
    assert exp.noncanonical


def test_squared_wire_flagged_noncanonical():
    exp = expand(Product((ref(1, 0), ref(1, 0))), 1)
    assert exp.noncanonical


def test_member():
    exp = expand(parse_dsl(EQ9_TEXT), 4)
    assert member(exp, Pattern.from_string("1010")) == 1
    assert member(exp, Pattern.from_string("1111")) == 0
    u = expand(build_universe(3), 3)
    for s in brute_force_strings(3):
        assert member(u, Pattern.from_string(s)) == 1


def test_surviving_eq12_gives_eq13():
    exp = expand(parse_dsl(EQ12_TEXT), 4)
    frag = Pattern.fragments({1: 0, 2: 0, 4: 0})
    survivors = surviving(exp, frag)
    assert sorted(survivors.entries) == ["0000", "0010"]
    eq9 = expand(parse_dsl(EQ9_TEXT), 4)
    assert sorted(surviving(eq9, frag).entries) == ["0010"]
    assert surviving(exp, Pattern(())) == exp


def test_surviving_keeps_partial_monomials():
    # an entry not using an assigned bit has no grounded wire and survives
    exp = expand(ref(1, 0), 3)
    assert list(exp.entries) == ["0--"]
    assert len(surviving(exp, Pattern.fragments({2: 1}))) == 1
    assert len(surviving(exp, Pattern.fragments({1: 1}))) == 0


def test_eval_via_expansion_basics():
    system = ReferenceSystem(4, master_seed=1)
    assert eval_via_expansion(Expansion({}, 4), system, 0) == ZERO
    s = build_product_string(Pattern.from_string("1010"), 4)
    exp = expand(s, 4)
    for t in range(20):
        v = eval_via_expansion(exp, system, t)
        assert abs(v) == Dyadic.pow2(-2)
        assert v == evaluate(s, system, t)


def test_eval_identity_eq9():
    system = ReferenceSystem(4, master_seed=2)
    expr = parse_dsl(EQ9_TEXT)
    exp = expand(expr, 4)
    for t in range(100):
        assert evaluate(expr, system, t) == eval_via_expansion(exp, system, t)


def test_eval_identity_random_with_switches():
    rng = random.Random(2)
    for _ in range(60):
        m = rng.randint(2, 8)
        system = ReferenceSystem(m, master_seed=rng.getrandbits(32))
        expr = random_canonical_expr(rng, m)
        exp = expand(expr, m)
        assert not exp.noncanonical
        switches = random_switches(rng, m)
        for t in range(10):
            assert evaluate(expr, system, t, switches) == eval_via_expansion(
                exp, system, t, switches
            )


def test_survivor_soundness():
    # surviving(expand(e), p) == expand restricted by actually grounding wires
    system = ReferenceSystem(4, master_seed=77)
    expr = parse_dsl(EQ12_TEXT)
    exp = expand(expr, 4)
    for frag in ({1: 0}, {1: 0, 2: 0, 4: 0}, {3: 1}, {2: 1, 3: 1}):
        pattern = Pattern.fragments(frag)
        switches = ground_inverse(pattern, 4)
        survivors = surviving(exp, pattern)
        for t in range(30):
            assert evaluate(expr, system, t, switches) == eval_via_expansion(
                survivors, system, t
            )


def test_linearity():
    rng = random.Random(4)
    for _ in range(20):
        a = random_canonical_expr(rng, 4)
        b = random_canonical_expr(rng, 4)
        ea, eb = expand(a, 4), expand(b, 4)
        esum = expand(Sum(((1, a), (1, b))), 4)
        merged = dict(ea.entries)
        for k, v in eb.entries.items():
            merged[k] = merged.get(k, 0) + v
        assert esum.entries == {k: v for k, v in merged.items() if v != 0}


def test_oracle_limit():
    with pytest.raises(OracleLimitExceeded):
        expand(build_universe(25), 25)
    # overridable
    exp = expand(ref(1, 0), 25, limit=30)
    assert len(exp) == 1


def test_legal_bell_classes():
    cases = {
        "R1_0*R2_1 + R1_1*R2_0": BellClass.S01_PLUS_10,
        "R1_0*R2_0 + R1_1*R2_1": BellClass.S00_PLUS_11,
        "R1_0*R2_0": BellClass.S00,
        "R1_0*R2_1": BellClass.S01,
        "R1_1*R2_0": BellClass.S10,
        "R1_1*R2_1": BellClass.S11,
    }
    for text, expected in cases.items():
        assert legal_bell_class(expand(parse_dsl(text), 2)) is expected


def test_illegal_bell_configurations():
    # bit-2 value 0 used by two strings
    assert legal_bell_class(expand(parse_dsl("R1_0*R2_0 + R1_1*R2_0"), 2)) is None
    # coefficient != 1
    assert legal_bell_class(expand(parse_dsl("R1_0*R2_0 + R1_0*R2_0"), 2)) is None
    # partial monomial
    assert legal_bell_class(expand(ref(1, 0), 2)) is None
