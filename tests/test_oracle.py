import ast
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
    iter_wires,
    ref,
)
from inbl import oracle
from inbl.oracle import (
    Expansion,
    _render,
    expand,
    legal_bell_class,
    member,
    surviving,
)
from inbl.reference import ReferenceSystem
from inbl.search import BellClass
from inbl.switchboard import ground_inverse

from conftest import EQ12_TEXT, EQ9_TEXT, random_canonical_expr, random_switches, wire_mask
from scalar_model import eval_via_expansion


def brute_force_strings(num_bits):
    return [format(x, f"0{num_bits}b") for x in range(2**num_bits)]


def _render_by_character(mask, values, num_bits):
    return "".join(["01"[values >> i & 1] if mask >> i & 1 else "-"
                    for i in range(1, num_bits + 1)])


def test_keys_render_as_by_character_at_every_width():
    # widths past 4,300 bits, where a decimal str <-> int conversion is refused
    rng = random.Random(41)
    for num_bits in [1, 2, 3, 15, 16, 17, 63, 64, 65, 4300, 4301, 5000] + [
            rng.randint(1, 5000) for _ in range(40)]:
        for density in (0.0, 0.5, 1.0):
            mask = sum(1 << i for i in range(1, num_bits + 1) if rng.random() < density)
            values = mask & (rng.getrandbits(num_bits + 1) & ~1)
            assert _render(mask, values, num_bits) == _render_by_character(mask, values, num_bits)
    # a caller that raises the limit expands a 5,000-bit product-string
    bits = "".join(rng.choice("01") for _ in range(5000))
    expr = build_product_string(Pattern.from_string(bits), 5000)
    assert expand(expr, 5000, limit=5000).entries == {bits: 1}


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


@pytest.mark.parametrize("text, entries", [
    # the middle step cancels its cross terms and leaves two squares
    ("(R1_0 + R2_0)*(R2_0 - R1_0)*R3_1", [("0-1", -1), ("-01", 1)]),
    # the middle step annihilates two pairs and keeps two
    ("(R1_0 + R2_1)*(R1_1 + R2_0)*R3_1", [("001", 1), ("111", 1)]),
    # two pairs of the last step merge into one monomial and cancel
    ("(R1_0 + R2_0)*(R1_0 - R2_0)*(R1_0 + R2_0)", [("0--", 1), ("-0-", -1)]),
    ("(R1_0 - R1_1)*(R1_0 + R1_1)*R2_0", [("00-", 1), ("10-", -1)]),
    # the middle step leaves nothing, yet the flag stays set
    ("R2_0*(R1_0*R1_1)*R3_1", []),
])
def test_product_chain_entries_and_flag(text, entries):
    exp = expand(parse_dsl(text), 3)
    assert list(exp.entries.items()) == entries
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
    # the masks' extra wires come from their own stream, so the cases stay
    extra_rng = random.Random(22)
    for _ in range(60):
        m = rng.randint(2, 8)
        system = ReferenceSystem(m, master_seed=rng.getrandbits(32))
        expr = random_canonical_expr(rng, m)
        exp = expand(expr, m)
        assert not exp.noncanonical
        grounded = random_switches(rng, m).mask
        # wires outside the expression, some past the system's 2m wires
        read = wire_mask(iter_wires(expr))
        outside = extra_rng.getrandbits(2 * m + 10) & ~read
        for t in range(10):
            value = evaluate(expr, system, t, grounded)
            assert value == eval_via_expansion(exp, system, t, grounded)
            assert evaluate(expr, system, t, grounded | outside) == value
            assert eval_via_expansion(exp, system, t, grounded | outside) == value


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
            assert evaluate(expr, system, t, switches.mask) == eval_via_expansion(
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


def test_oracle_imports_only_the_expression_types_and_errors():
    # the ground truth shares no code with the evaluators it checks
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [("inbl." if node.level else "") + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        package.update(name for name in names if name.split(".")[0] == "inbl")
    assert package == {"inbl.errors", "inbl.expr"}
