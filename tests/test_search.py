import random

import pytest

from inbl.dsl import parse_dsl
from inbl.dyadic import Dyadic
from inbl.errors import DeadClock, IllegalClass, MaxWaitExceeded
from inbl.expr import Pattern, Sum, build_product_string, build_universe, evaluate, ref
from inbl.oracle import expand, legal_bell_class, member, surviving
from inbl.reference import ReferenceSystem, RtwScheme, WireId
from inbl.search import (
    BellClass,
    Verdict,
    collapse_measure,
    entangle_discriminate,
    fragment_search,
    full_string_search,
    wait_for_live_clock,
)
from inbl.switchboard import SwitchState, ground_inverse

from conftest import EQ12_TEXT, EQ9_TEXT, sum_of_strings


def test_ground_inverse_full_pattern():
    switches = ground_inverse(Pattern.from_string("1010"), 4)
    assert switches.grounded == frozenset(
        {WireId(1, 0), WireId(2, 1), WireId(3, 0), WireId(4, 1)}
    )


def test_ground_inverse_fragment_and_empty():
    switches = ground_inverse(Pattern.fragments({1: 0, 2: 0, 4: 0}), 4)
    assert switches.grounded == frozenset({WireId(1, 1), WireId(2, 1), WireId(4, 1)})
    assert ground_inverse(Pattern(()), 4).grounded == frozenset()


def test_switch_state_idempotent():
    s = SwitchState()
    w = WireId(1, 0)
    assert s.ground(w) and not s.ground(w)
    assert s.grounded == frozenset({w})
    assert s.restore(w) and not s.restore(w)
    assert s.grounded == frozenset()


def test_grounding_order_irrelevant(eq9):
    system = ReferenceSystem(4, master_seed=1)
    wires = [WireId(1, 0), WireId(2, 1), WireId(4, 1)]
    a, b = SwitchState(), SwitchState()
    for w in wires:
        a.ground(w)
    for w in reversed(wires):
        b.ground(w)
        b.ground(w)  # idempotent
    for t in range(50):
        assert evaluate(eq9, system, t, a) == evaluate(eq9, system, t, b)


def test_wait_for_live_clock_asymmetric_universe():
    system = ReferenceSystem(5, RtwScheme.ASYMMETRIC, master_seed=2)
    assert wait_for_live_clock(build_universe(5), system, 17, 100) == 17


def test_wait_for_live_clock_geometric_mean():
    # symmetric 1-bit universe is zero with probability 1/2 per clock
    u = build_universe(1)
    waits = []
    trials = 100_000
    system = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=3)
    t = 0
    for _ in range(trials):
        live = wait_for_live_clock(u, system, t, 1000)
        waits.append(live - t)
        t = live + 1
    mean_extra = sum(waits) / trials
    # waiting time before the live clock is geometric with mean 1
    assert abs(mean_extra - 1.0) < 0.05


def test_wait_for_live_clock_dead_superposition():
    p = build_product_string(Pattern.from_string("10"), 2)
    dead = Sum(((1, p), (-1, p)))
    system = ReferenceSystem(2, master_seed=4)
    with pytest.raises(MaxWaitExceeded):
        wait_for_live_clock(dead, system, 0, 50)


def test_collapse_measure_eq9(eq9):
    system = ReferenceSystem(4, master_seed=5)
    t = wait_for_live_clock(eq9, system, 0, 1000)
    hit = collapse_measure(eq9, system, Pattern.from_string("1010"), t)
    expected = evaluate(build_product_string(Pattern.from_string("1010"), 4), system, t)
    assert hit == expected and not hit.is_zero()
    assert collapse_measure(eq9, system, Pattern.from_string("1111"), t).is_zero()


def test_collapse_measure_dead_clock():
    p = build_product_string(Pattern.from_string("10"), 2)
    dead = Sum(((1, p), (-1, p)))
    system = ReferenceSystem(2, master_seed=6)
    with pytest.raises(DeadClock):
        collapse_measure(dead, system, Pattern.from_string("10"), 0)


def test_collapse_magnitude_is_pow2_of_low_count(eq9):
    system = ReferenceSystem(4, master_seed=7)
    t = wait_for_live_clock(eq9, system, 0, 1000)
    amp = collapse_measure(eq9, system, Pattern.from_string("0010"), t)
    # three Low bits -> magnitude 2**-3
    assert abs(amp) == Dyadic.pow2(-3)


def test_full_string_search_eq9(eq9):
    system = ReferenceSystem(4, master_seed=8)
    out = full_string_search(eq9, system, Pattern.from_string("1010"))
    assert out.verdict is Verdict.PRESENT
    assert out.switch_ops == 4
    assert out.clocks_observed == 1
    assert out.witness_clock is not None and not out.amplitude.is_zero()
    out = full_string_search(eq9, system, Pattern.from_string("1111"))
    assert out.verdict is Verdict.ABSENT
    assert out.switch_ops == 4
    assert out.amplitude.is_zero() and out.witness_clock is None


def test_full_string_search_matches_oracle_batch():
    rng = random.Random(9)
    for case in range(300):
        m = rng.randint(4, 10)
        strings = {format(rng.getrandbits(m), f"0{m}b") for _ in range(rng.randint(1, 8))}
        expr = sum_of_strings(sorted(strings), m)
        system = ReferenceSystem(m, master_seed=case)
        query = format(rng.getrandbits(m), f"0{m}b")
        out = full_string_search(expr, system, Pattern.from_string(query))
        assert out.present == (query in strings)
        assert out.present == (member(expand(expr, m), Pattern.from_string(query)) == 1)


def test_fragment_search_eq9_eq12(eq9, eq12):
    system = ReferenceSystem(4, master_seed=10)
    frag = Pattern.fragments({1: 0, 2: 0, 4: 0})
    out = fragment_search(eq9, system, frag, tau=8)
    assert out.verdict is Verdict.PRESENT
    assert out.switch_ops == 3
    out = fragment_search(eq12, system, frag, tau=8)
    assert out.verdict is Verdict.PRESENT
    assert sorted(surviving(expand(eq12, 4), frag).entries) == ["0000", "0010"]


def test_fragment_search_absent_is_bounded(eq9):
    system = ReferenceSystem(4, master_seed=11)
    out = fragment_search(eq9, system, Pattern.fragments({1: 1, 2: 1}), tau=6)
    assert out.verdict is Verdict.ABSENT_BOUNDED
    assert out.epsilon == Dyadic.pow2(-6)
    assert out.clocks_observed == 6
    # oracle confirms there really is no matching string
    assert len(surviving(expand(eq9, 4), Pattern.fragments({1: 1, 2: 1}))) == 0


def test_fragment_present_verdicts_have_nonempty_survivors(eq12):
    # zero false positives: every Present must be backed by the oracle
    rng = random.Random(12)
    exp = expand(eq12, 4)
    for trial in range(100):
        bits = rng.sample(range(1, 5), rng.randint(1, 3))
        frag = Pattern.fragments({b: rng.randint(0, 1) for b in bits})
        system = ReferenceSystem(4, master_seed=trial)
        out = fragment_search(eq12, system, frag, tau=16)
        if out.present:
            assert len(surviving(exp, frag)) > 0
        else:
            assert out.epsilon == Dyadic.pow2(-16)


BELL_STRINGS = {
    BellClass.S01_PLUS_10: ("01", "10"),
    BellClass.S00_PLUS_11: ("00", "11"),
    BellClass.S00: ("00",),
    BellClass.S01: ("01",),
    BellClass.S10: ("10",),
    BellClass.S11: ("11",),
}


def bell_expr(cls):
    return sum_of_strings(BELL_STRINGS[cls], 2)


def test_entangle_eq7_step_i_amplitude():
    expr = parse_dsl("R1_0*R2_1 + R1_1*R2_0")
    system = ReferenceSystem(2, master_seed=13)
    cls, trace = entangle_discriminate(expr, system)
    assert cls is BellClass.S01_PLUS_10
    # step i grounds R1_1; the reading equals the single surviving product
    t = wait_for_live_clock(expr, system, 0, 1000)
    survivor = build_product_string(Pattern.from_string("01"), 2)
    step_i = next(s for s in trace if s.action.startswith("grounded R1_1"))
    assert step_i.amplitude == evaluate(survivor, system, t)
    assert not step_i.amplitude.is_zero()


@pytest.mark.parametrize("cls", list(BELL_STRINGS))
@pytest.mark.parametrize("partner", [0, 1])
def test_entangle_all_classes_both_variants(cls, partner):
    expr = bell_expr(cls)
    assert legal_bell_class(expand(expr, 2)) is cls
    for seed in range(50):
        system = ReferenceSystem(2, master_seed=seed)
        got, _ = entangle_discriminate(expr, system, probe_partner_value=partner)
        assert got is cls


def test_entangle_illegal_class_detected():
    expr = parse_dsl("R1_0*R2_0 + R1_1*R2_0")  # bit-2 value 0 used twice
    system = ReferenceSystem(2, master_seed=14)
    with pytest.raises(IllegalClass):
        entangle_discriminate(expr, system)


def test_entangle_requires_two_bits():
    system = ReferenceSystem(3, master_seed=15)
    with pytest.raises(ValueError):
        entangle_discriminate(ref(1, 0), system)


def test_outcome_serialization(eq9):
    system = ReferenceSystem(4, master_seed=16)
    out = full_string_search(eq9, system, Pattern.from_string("1010"))
    blob = out.to_json()
    assert blob["verdict"] == "present"
    assert blob["amplitude"]["mantissa"] == str(out.amplitude.mantissa)
    assert isinstance(blob["trace"], list) and blob["trace"]
