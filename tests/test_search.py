import gc
import math
import random
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inbl.dsl import parse_dsl
from inbl.dyadic import Dyadic
from inbl.errors import IllegalClass, MaxWaitExceeded
from inbl import experiments
from inbl.experiments import ConfigReader, _program
from inbl.expr import (
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
    topological_order,
)
from inbl.oracle import expand, legal_bell_class, member, surviving
from inbl.phonebook import PhonebookSpec, build_phonebook, inverse_lookup, lookup
from inbl.reference import BLOCK_CLOCKS, ReferenceSystem, RtwScheme, WireId
from inbl.search import (
    DEFAULT_TAU,
    BellClass,
    SearchOutcome,
    Verdict,
    _probe_at_live_clock,
    entangle_discriminate,
    fragment_search,
    full_string_search,
    wait_for_live_clock,
)
from inbl.switchboard import SwitchState, ground_inverse

from conftest import EQ7_TEXT, EQ12_TEXT, EQ9_TEXT, dags, sum_of_strings, wire_mask
from scalar_model import sign_states


def test_ground_inverse_full_pattern():
    switches = ground_inverse(Pattern.from_string("1010"), 4)
    assert switches.mask == wire_mask(
        {WireId(1, 0), WireId(2, 1), WireId(3, 0), WireId(4, 1)}
    )


def test_ground_inverse_fragment_and_empty():
    switches = ground_inverse(Pattern.fragments({1: 0, 2: 0, 4: 0}), 4)
    assert switches.mask == wire_mask({WireId(1, 1), WireId(2, 1), WireId(4, 1)})
    assert ground_inverse(Pattern(()), 4).mask == 0


def test_switch_state_idempotent():
    s = SwitchState()
    w = WireId(1, 0)
    assert s.ground(w) and not s.ground(w)
    assert s.mask == wire_mask({w})
    assert s.restore(w) and not s.restore(w)
    assert s.mask == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 40), st.integers(0, 1)), max_size=60))
def test_switch_state_change_flags_and_mask_agree(steps):
    # the mask is the one state; ground and restore report each change
    s, want = SwitchState(), set()
    for grounding, bit_index, bit_value in steps:
        w = WireId(bit_index, bit_value)
        changed = s.ground(w) if grounding else s.restore(w)
        assert changed == ((w not in want) if grounding else (w in want))
        (want.add if grounding else want.discard)(w)
        assert s.mask == sum(1 << x.tag for x in want)


def test_switch_state_repr_lists_wires_in_bit_order():
    s = SwitchState()
    assert repr(s) == "SwitchState(grounded=[])"
    for w in (WireId(3, 1), WireId(1, 0), WireId(12, 0), WireId(2, 1), WireId(1, 1)):
        s.ground(w)
    s.restore(WireId(2, 1))
    assert repr(s) == "SwitchState(grounded=[(1, 0), (1, 1), (3, 1), (12, 0)])"


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
        assert evaluate(eq9, system, t, a.mask) == evaluate(eq9, system, t, b.mask)


def test_wait_for_live_clock_asymmetric_universe():
    system = ReferenceSystem(5, RtwScheme.ASYMMETRIC, master_seed=2)
    assert wait_for_live_clock(build_universe(5), system, 17, 100).clock == 17


def test_wait_for_live_clock_geometric_mean():
    # symmetric 1-bit universe is zero with probability 1/2 per clock
    u = build_universe(1)
    waits = []
    trials = 100_000
    system = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=3)
    t = 0
    for _ in range(trials):
        live = wait_for_live_clock(u, system, t, 1000).clock
        waits.append(live - t)
        t = live + 1
    mean_extra = sum(waits) / trials
    # waiting time before the live clock is geometric with mean 1
    assert abs(mean_extra - 1.0) < 0.05


def test_negative_max_wait_is_rejected_by_every_protocol():
    expr = parse_dsl(EQ9_TEXT)
    system = ReferenceSystem(4, master_seed=1)
    bell = ReferenceSystem(2, master_seed=1)
    runs = [
        lambda w: wait_for_live_clock(expr, system, 0, w),
        lambda w: full_string_search(expr, system, Pattern.from_string("1010"), max_wait=w),
        lambda w: fragment_search(expr, system, Pattern(((1, 0),)), tau=3, max_wait=w),
        lambda w: entangle_discriminate(parse_dsl(EQ7_TEXT), bell, max_wait=w),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="max_wait must be >= 0, got -1"):
            run(-1)
    # max_wait 0 reads t_start alone, and this signal is live at clock 0
    assert wait_for_live_clock(expr, system, 0, 0).clock == 0
    assert full_string_search(expr, system, Pattern.from_string("1010"), max_wait=0).present


def test_wait_for_live_clock_reads_1_to_block_clocks():
    expr = parse_dsl(EQ9_TEXT)
    system = ReferenceSystem(4, master_seed=1)
    for reads in (0, BLOCK_CLOCKS + 1):
        with pytest.raises(ValueError, match=f"reads must be between 1 and {BLOCK_CLOCKS}"):
            wait_for_live_clock(expr, system, 0, 10, reads=reads)
    assert wait_for_live_clock(expr, system, 0, 10, reads=5).readings.shape == (1, 5)


def test_wait_for_live_clock_dead_superposition():
    p = build_product_string(Pattern.from_string("10"), 2)
    dead = Sum(((1, p), (-1, p)))
    system = ReferenceSystem(2, master_seed=4)
    with pytest.raises(MaxWaitExceeded):
        wait_for_live_clock(dead, system, 0, 50)


@settings(max_examples=150, deadline=None)
@given(dag=dags(), scheme=st.sampled_from(RtwScheme), data=st.data())
def test_probe_at_live_clock_reads_each_recorded_configuration(dag, scheme, data):
    m, expr, _ = dag
    bit = st.integers(1, m)
    collapses = data.draw(st.lists(
        st.dictionaries(bit, st.integers(0, 1)).map(Pattern.fragments), min_size=1, max_size=3))
    probes = data.draw(st.lists(st.builds(WireId, bit, st.integers(0, 1)), max_size=4))
    if collapses[0].assignments:
        # a probe wire the first collapse already grounds: it stays grounded
        i, v = collapses[0].assignments[0]
        probes.insert(0, WireId(i, 1 - v))
    seed, t_start, reads = data.draw(st.tuples(st.integers(0, 2**32), st.integers(0, 100),
                                               st.integers(1, 4)))
    system = ReferenceSystem(m, scheme, master_seed=seed)
    # the recorded configurations by their definition, in recording order,
    # and the switch actions that change the state
    masks, want_ops = [], 0
    for pattern in collapses:
        collapse = sum(1 << WireId(i, 1 - v).tag for i, v in pattern.assignments)
        masks.append(collapse)
        want_ops += len(pattern)
        for wire in probes:
            masks.append(collapse | 1 << wire.tag)
            want_ops += not collapse >> wire.tag & 1
    try:
        live, ops = _probe_at_live_clock(expr, system, collapses, probes, 30, t_start, reads)
    except MaxWaitExceeded:
        assert all(evaluate(expr, system, t).is_zero() for t in range(t_start, t_start + 31))
        return
    assert all(evaluate(expr, system, t).is_zero() for t in range(t_start, live.clock))
    assert ops == want_ops
    assert live.readings.shape == (1 + len(masks), reads)
    for row, mask in zip(live.readings, [0, *masks]):
        got = [Dyadic(int(x), live.exp2) for x in row]
        assert got == [evaluate(expr, system, live.clock + k, mask) for k in range(reads)]


def test_collapse_measure_eq9(eq9):
    system = ReferenceSystem(4, master_seed=5)
    hit = full_string_search(eq9, system, Pattern.from_string("1010"))
    t = hit.witness_clock
    expected = evaluate(build_product_string(Pattern.from_string("1010"), 4), system, t)
    assert hit.amplitude == expected and not hit.amplitude.is_zero()
    assert full_string_search(eq9, system, Pattern.from_string("1111")).amplitude.is_zero()


def test_collapse_magnitude_is_pow2_of_low_count(eq9):
    system = ReferenceSystem(4, master_seed=7)
    amp = full_string_search(eq9, system, Pattern.from_string("0010")).amplitude
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


def test_flip_half_fragment_miss_rate_is_the_exact_sign_state_rate():
    # fragment 1=0 is present, but G, its grounded signal, is zero unless
    # R2_0 agrees with R2_1 and R3_0 with R3_1: at 3 of 4 sign states. At
    # flip 1/2 the clocks are independent, so a tau-clock search misses at
    # rate P(G=0 | U!=0) * P(G=0)**(tau-1), counted over every sign state
    expr = parse_dsl("R1_0*(R2_0+R2_1)*(R3_0+R3_1) + R1_1*R2_1*R3_1")
    pattern, tau, runs = Pattern.fragments({1: 0}), 4, 2000
    mask = ground_inverse(pattern, 3).mask
    reader = ConfigReader(expr, ReferenceSystem(3, RtwScheme.SYMMETRIC), [0, mask])
    signs = sign_states(len(reader.program.wires))
    assert signs.shape == (6, 64)
    u, g = reader.run(reader.matrices(64), signs)
    live = u != 0
    exact = (Fraction(int(np.count_nonzero(live & (g == 0))), int(np.count_nonzero(live)))
             * Fraction(int(np.count_nonzero(g == 0)), 64) ** (tau - 1))
    assert exact == Fraction(81, 256)
    misses = 0
    for seed in range(runs):
        system = ReferenceSystem(3, RtwScheme.SYMMETRIC, master_seed=seed)
        out = fragment_search(expr, system, pattern, tau=tau, t_start=1000)
        assert out.verdict in (Verdict.PRESENT, Verdict.ABSENT_BOUNDED)
        misses += out.verdict is Verdict.ABSENT_BOUNDED
    sigma = math.sqrt(exact * (1 - exact) / runs)
    assert abs(misses / runs - exact) <= 3 * sigma, misses


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
    cls, live = entangle_discriminate(expr, system)
    assert cls is BellClass.S01_PLUS_10
    # step i grounds R1_1 (row 1); the reading equals the single surviving product
    assert live.clock == wait_for_live_clock(expr, system, 0, 1000).clock
    survivor = build_product_string(Pattern.from_string("01"), 2)
    step_i = Dyadic(int(live.readings[1, 0]), live.exp2)
    assert step_i == evaluate(survivor, system, live.clock)
    assert not step_i.is_zero()


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


@pytest.mark.parametrize("seed", range(1, 6))
def test_entangle_refuses_a_signal_outside_the_legal_classes(seed):
    # three strings: the probes alone named S01+10 or S10, by seed
    expr = parse_dsl("R1_0*R2_0 + R1_0*R2_1 + R1_1*R2_0")
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=seed)
    with pytest.raises(IllegalClass, match="none of the six legal two-bit classes"):
        entangle_discriminate(expr, system)


def test_entangle_requires_two_bits():
    system = ReferenceSystem(3, master_seed=15)
    with pytest.raises(ValueError):
        entangle_discriminate(ref(1, 0), system)


@settings(max_examples=200, deadline=None)
@given(dag=dags(), scheme=st.sampled_from(RtwScheme))
def test_support_certificate_is_sound(dag, scheme):
    # a certified DAG expands to product-strings that all use exactly the
    # support's bits, so a collapse onto the support leaves at most one
    m, expr, _ = dag
    support = _program(expr, scheme).support
    assert support == scalar_support(expr)
    if support is None:
        return
    bits = {i for i in range(1, m + 1) if support >> i & 1}
    for key in expand(expr, m).entries:
        assert {i + 1 for i, c in enumerate(key) if c != "-"} == bits


def test_builders_certify():
    every = lambda m: (1 << (m + 1)) - 2
    for m in (1, 2, 5, 16):
        for build in (build_universe, build_even, build_odd):
            assert _program(build(m), RtwScheme.ASYMMETRIC).support == every(m)
    strings = sum_of_strings(["0110", "1010", "0001"], 4)
    assert _program(strings, RtwScheme.SYMMETRIC).support == every(4)
    book = build_phonebook(PhonebookSpec(2, 3, (("01", "100"), ("10", "111"))))
    assert _program(book.expr, RtwScheme.ASYMMETRIC).support == every(5)
    assert _program(parse_dsl("R1_0 + R1_0*R2_0"), RtwScheme.ASYMMETRIC).support is None
    assert _program(parse_dsl("R1_0*(R1_1 + R2_0)"), RtwScheme.ASYMMETRIC).support is None


def test_certified_fragment_covering_the_support_reads_once(eq9):
    system = ReferenceSystem(4, master_seed=26)
    out = fragment_search(eq9, system, Pattern.fragments({1: 1, 2: 1, 3: 1, 4: 0}), tau=8)
    assert out.verdict is Verdict.ABSENT and out.epsilon is None
    assert out.clocks_observed == 1 and out.amplitude.is_zero()
    out = full_string_search(eq9, system, Pattern.from_string("1010"))
    assert out.verdict is Verdict.PRESENT


MIXED_TEXT = "R1_0 + R1_0*R2_0 + R1_1*R2_1"  # survivors of 00 are 0- and 00


@pytest.mark.parametrize("scheme", list(RtwScheme))
def test_uncertified_full_string_is_never_an_exact_absent(scheme):
    expr = parse_dsl(MIXED_TEXT)
    assert sorted(surviving(expand(expr, 2), Pattern.from_string("00")).entries) == ["0-", "00"]
    for seed in range(2000):
        out = full_string_search(expr, ReferenceSystem(2, scheme, master_seed=seed),
                                 Pattern.from_string("00"))
        assert out.verdict is not Verdict.ABSENT, seed
    # 10 has no survivor: the bounded path reads tau clocks
    out = full_string_search(expr, ReferenceSystem(2, scheme, master_seed=4),
                             Pattern.from_string("10"), tau=5)
    assert out.verdict is Verdict.ABSENT_BOUNDED
    assert out.clocks_observed == 5 and out.epsilon == Dyadic.pow2(-5)


def test_outcome_serialization(eq9):
    system = ReferenceSystem(4, master_seed=16)
    out = full_string_search(eq9, system, Pattern.from_string("1010"))
    blob = out.to_json()
    assert blob["verdict"] == "present"
    assert blob["amplitude"]["mantissa"] == str(out.amplitude.mantissa)
    assert set(blob) == {"verdict", "switch_ops", "clocks_waited", "clocks_observed",
                         "witness_clock", "amplitude", "epsilon"}


def scalar_support(expr):
    """The support certificate by its definition, independent of the
    compiled program: a Ref's bit, the union of a Product's factors' supports
    when no two of them share a bit, a Sum's terms' common support."""
    support = {}
    for node in topological_order(expr):
        if isinstance(node, Ref):
            value = 1 << node.wire.bit_index
        elif isinstance(node, Sum):
            terms = {support[id(term)] for _, term in node.terms}
            value = terms.pop() if len(terms) == 1 else None
        else:
            value = 0
            for factor in node.factors:
                part = support[id(factor)]
                if value is None or part is None or value & part:
                    value = None
                else:
                    value |= part
        support[id(node)] = value
    return support[id(expr)]


def scalar_search(expr, system, pattern, tau, max_wait, t_start):
    """Reference for the windowed searches: one scalar evaluate per clock
    waited and per clock read. tau=None is a full-string search with the
    default tau. One read is exact when the pattern assigns every bit of a
    certified expression's support; any other search reads up to tau."""
    for t in range(t_start, t_start + max_wait + 1):
        if not evaluate(expr, system, t).is_zero():
            break
    else:
        raise MaxWaitExceeded(t_start, max_wait)
    switches = ground_inverse(pattern, system.num_bits)
    outcome = dict(switch_ops=len(pattern), clocks_waited=t - t_start)
    tau = DEFAULT_TAU if tau is None else tau
    support = scalar_support(expr)
    assigned = sum(1 << i for i in pattern.as_dict())
    exact = support is not None and support & assigned == support
    for k in range(1 if exact else tau):
        amp = evaluate(expr, system, t + k, switches.mask)
        if not amp.is_zero():
            return SearchOutcome(verdict=Verdict.PRESENT, clocks_observed=k + 1,
                                 witness_clock=t + k, amplitude=amp, **outcome)
    if exact:
        return SearchOutcome(verdict=Verdict.ABSENT, clocks_observed=1, amplitude=amp, **outcome)
    return SearchOutcome(verdict=Verdict.ABSENT_BOUNDED, clocks_observed=tau,
                         epsilon=Dyadic.pow2(-tau), **outcome)


BELL_BY_PROBES = {
    (1, 0): BellClass.S01_PLUS_10,
    (0, 1): BellClass.S00_PLUS_11,
    (0, None): BellClass.S00,
    (1, None): BellClass.S01,
    (None, 0): BellClass.S10,
    (None, 1): BellClass.S11,
}


def scalar_entangle(expr, system, max_wait, t_start, probe_partner_value):
    """Reference for entangle_discriminate: the oracle's precondition, a
    scalar wait, then one scalar evaluate per configuration at the live
    clock: the un-grounded signal, then per bit-1 value v R1_(1-v) grounded,
    without and with R2_p. Returns (class, clock, the five readings)."""
    if legal_bell_class(expand(expr, 2)) is None:
        raise IllegalClass("the signal is none of the six legal two-bit classes")
    for t in range(t_start, t_start + max_wait + 1):
        if not evaluate(expr, system, t).is_zero():
            break
    else:
        raise MaxWaitExceeded(t_start, max_wait)
    readings = [evaluate(expr, system, t)]
    found = []
    for bit1_value in (0, 1):
        switches = SwitchState()
        switches.ground(WireId(1, 1 - bit1_value))
        side = evaluate(expr, system, t, switches.mask)
        switches.ground(WireId(2, probe_partner_value))
        both = evaluate(expr, system, t, switches.mask)
        readings += [side, both]
        if side.is_zero():
            found.append(None)
        else:
            found.append(probe_partner_value if both.is_zero() else 1 - probe_partner_value)
    cls = BELL_BY_PROBES.get(tuple(found))
    if cls is None:
        raise IllegalClass(
            f"probe readings (bit1=0 -> {found[0]}, bit1=1 -> {found[1]}) match no legal class"
        )
    return cls, t, readings


def windowed_entangle(expr, system, max_wait, t_start, partner):
    cls, live = entangle_discriminate(expr, system, max_wait, t_start, partner)
    assert live.readings.shape == (5, 1)
    return cls, live.clock, [Dyadic(int(x), live.exp2) for x in live.readings[:, 0]]


def entangle_result(run, expr, system, max_wait, t_start, partner):
    """(class, live clock, the five readings), or (exception type, message)."""
    try:
        return run(expr, system, max_wait, t_start, partner)
    except (IllegalClass, MaxWaitExceeded) as exc:
        return type(exc), str(exc)


two_bit_terms = st.lists(
    st.tuples(st.sampled_from(["00", "01", "10", "11"]), st.sampled_from([-2, -1, 1, 3])),
    min_size=1, max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.one_of(
        st.sampled_from(list(BELL_STRINGS)).map(lambda cls: [(s, 1) for s in BELL_STRINGS[cls]]),
        st.sampled_from(["00", "01", "10", "11"]).map(lambda s: [(s, 1), (s, -1)]),
        two_bit_terms,
    ),
    scheme=st.sampled_from(RtwScheme),
    flip=st.sampled_from([Fraction(1, 2), Fraction(1, 100), Fraction(1)]),
    seed=st.integers(0, 2**32),
    t_start=st.integers(0, 300),
    max_wait=st.integers(0, 40),
    partner=st.sampled_from([0, 1]),
)
def test_entangle_matches_scalar_reference(terms, scheme, flip, seed, t_start, max_wait, partner):
    # legal classes, illegal sums, dead signals (p - p) and repeated terms
    expr = Sum(tuple((c, build_product_string(Pattern.from_string(s), 2)) for s, c in terms))
    make_system = lambda: ReferenceSystem(2, scheme, master_seed=seed, flip_prob=flip)
    want = entangle_result(scalar_entangle, expr, make_system(), max_wait, t_start, partner)
    got = entangle_result(windowed_entangle, expr, make_system(), max_wait, t_start, partner)
    assert got == want


def windowed_search(expr, system, pattern, tau, max_wait, t_start):
    if tau is None:
        return full_string_search(expr, system, pattern, max_wait, t_start)
    return fragment_search(expr, system, pattern, tau, max_wait, t_start)


def same_result(expr, make_system, pattern, tau, max_wait, t_start):
    """Both searches on fresh systems: equal to_json(), or both raise
    MaxWaitExceeded. Returns the outcome, or None when no clock was live."""
    try:
        want = scalar_search(expr, make_system(), pattern, tau, max_wait, t_start)
    except MaxWaitExceeded:
        with pytest.raises(MaxWaitExceeded):
            windowed_search(expr, make_system(), pattern, tau, max_wait, t_start)
        return None
    got = windowed_search(expr, make_system(), pattern, tau, max_wait, t_start)
    assert got.to_json() == want.to_json()
    return got


@settings(max_examples=300, deadline=None)
@given(
    dag=dags(),
    scheme=st.sampled_from(RtwScheme),
    flip=st.sampled_from([Fraction(1, 2), Fraction(1, 100), Fraction(1)]),
    seed=st.integers(0, 2**32),
    t_start=st.integers(0, 300),
    max_wait=st.integers(0, 40),
    tau=st.one_of(st.none(), st.integers(1, 20)),
    data=st.data(),
)
def test_windowed_searches_match_scalar_reference(
    dag, scheme, flip, seed, t_start, max_wait, tau, data
):
    m, expr, _ = dag
    if tau is None:
        bits = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        pattern = Pattern(tuple(enumerate(bits, start=1)))
    else:
        assigned = data.draw(st.dictionaries(st.integers(1, m), st.integers(0, 1)))
        pattern = Pattern.fragments(assigned)
    make_system = lambda: ReferenceSystem(m, scheme, master_seed=seed, flip_prob=flip)
    got = same_result(expr, make_system, pattern, tau, max_wait, t_start)
    if got is None or got.clocks_waited == 0:
        return
    # live at exactly t_start + max_wait, and one clock short of it
    waited = got.clocks_waited
    assert same_result(expr, make_system, pattern, tau, waited, t_start).clocks_waited == waited
    assert same_result(expr, make_system, pattern, tau, waited - 1, t_start) is None


@pytest.mark.parametrize("flip", [Fraction(1, 2), Fraction(1, 100)])
def test_windowed_searches_match_reference_on_long_waits(flip):
    # symmetric 3-bit strings cancel pairwise for long runs at flip 1/100, so
    # the scan windows grow; a 2**70 coefficient takes the object path
    a = build_product_string(Pattern.from_string("010"), 3)
    b = build_product_string(Pattern.from_string("100"), 3)
    exprs = [Sum(((1, a), (1, b))), Sum(((2**70, a), (2**70, b)))]
    present, absent = Pattern.fragments({1: 0, 3: 0}), Pattern.fragments({3: 1})
    queries = [(Pattern.from_string("010"), None), (Pattern.from_string("110"), None),
               (present, 1), (present, 40), (absent, 40)]
    for expr in exprs:
        for t_start in (0, 5, 900):
            make_system = lambda: ReferenceSystem(
                3, RtwScheme.SYMMETRIC, master_seed=19, flip_prob=flip)
            for pattern, tau in queries:
                got = same_result(expr, make_system, pattern, tau, 5000, t_start)
                waited = got.clocks_waited
                if waited:
                    same_result(expr, make_system, pattern, tau, waited, t_start)
                    assert same_result(expr, make_system, pattern, tau, waited - 1, t_start) is None


@pytest.mark.parametrize("flip", [Fraction(1, 2), Fraction(1, 100)])
def test_windowed_searches_match_reference_at_every_offset(flip):
    # the symmetric signal has dead runs (0000 + 1000 cancels), and its
    # fragment survivors 0011 and 0101 cancel at live clocks too, so starting
    # at every clock puts the live clock and the first nonzero read at every
    # offset within the scan's windows, and past the window's end
    expr = sum_of_strings(["0011", "0101", "0000", "1000"], 4)
    queries = [(Pattern.from_string("0101"), None), (Pattern.fragments({4: 1}), 3),
               (Pattern.fragments({4: 1}), 16)]
    make_system = lambda: ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=22, flip_prob=flip)
    waits = set()
    for t_start in range(300):
        for pattern, tau in queries:
            waits.add(same_result(expr, make_system, pattern, tau, 5000, t_start).clocks_waited)
    assert max(waits) >= (32 if flip == Fraction(1, 100) else 4)


def test_live_clock_carries_the_window_readings():
    expr = sum_of_strings(["0110", "1010"], 4)
    system = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=20)
    collapse = ground_inverse(Pattern.from_string("0110"), 4)
    live = wait_for_live_clock(expr, system, 3, 1000, [collapse.mask])
    t = live.clock
    assert t == next(t for t in range(3, 1000) if not evaluate(expr, system, t).is_zero())
    assert live.readings.shape[0] == 2 and live.readings.shape[1] >= 1
    for k in range(live.readings.shape[1]):
        assert Dyadic(int(live.readings[0, k]), live.exp2) == evaluate(expr, system, t + k)
        assert Dyadic(int(live.readings[1, k]), live.exp2) == evaluate(
            expr, system, t + k, collapse.mask)


@pytest.mark.parametrize("flip", [Fraction(1, 2), Fraction(1, 100)])
@pytest.mark.parametrize("pass_bytes", [experiments.PASS_BYTES, 4096])
def test_scan_windows_grow_eightfold_within_their_caps(monkeypatch, flip, pass_bytes):
    # a symmetric U(8) is live at about one clock in 256, and at flip 1/100
    # its dead runs last thousands of clocks; from clock 41 on this system
    # waits 671 or 1,670 clocks, so each scan crosses several windows, and a
    # 4 KiB pass of 78 clocks caps their scans within that wait. Each window
    # reads reads - 1 clocks past the clocks it scans, in one pass
    monkeypatch.setattr(experiments, "PASS_BYTES", pass_bytes)
    expr = build_universe(8)
    make_system = lambda: ReferenceSystem(8, RtwScheme.SYMMETRIC, master_seed=1, flip_prob=flip)
    windows = []
    real_read = ConfigReader.read

    def recorded(reader, t0, clocks):
        windows.append((t0, clocks, reader.span))
        return real_read(reader, t0, clocks)

    monkeypatch.setattr(ConfigReader, "read", recorded)
    # a certified full string reads one clock from the live clock on, and
    # the fragment reads tau; both are present at their first read
    for pattern, tau, reads in ((Pattern.from_string("01100101"), None, 1),
                                (Pattern.fragments({1: 0}), 16, 16)):
        want = scalar_search(expr, make_system(), pattern, tau, 10_000, 41)
        live = 41 + want.clocks_waited
        # the second scan is live at exactly t_start + max_wait
        for max_wait in (10_000, want.clocks_waited):
            del windows[:]
            assert windowed_search(expr, make_system(), pattern, tau, max_wait, 41) == want
            end = 41 + max_wait + 1
            t0, clocks, span = windows[0]
            assert (t0, clocks) == (41, 2 * reads - 1)
            assert 2 * reads - 1 <= span
            scans = [(t0, clocks - reads + 1) for t0, clocks, _ in windows]
            assert all(clocks <= span for _, clocks, _ in windows)
            for (t0, scanned), (last_t0, last_scanned) in zip(scans[1:], scans):
                assert t0 == last_t0 + last_scanned
                assert scanned == min(8 * last_scanned, span - reads + 1, end - t0)
            t0, scanned = scans[-1]
            assert t0 <= live < t0 + scanned
            assert len(windows) >= 3
        assert t0 + scanned == end
        with pytest.raises(MaxWaitExceeded):
            windowed_search(expr, make_system(), pattern, tau, want.clocks_waited - 1, 41)


def test_outcome_matches_the_reference_and_keeps_no_window(monkeypatch):
    windows = []
    real_read = ConfigReader.read

    def recorded(reader, t0, clocks):
        ints, exp2 = real_read(reader, t0, clocks)
        windows.append(weakref.ref(ints))
        return ints, exp2

    monkeypatch.setattr(ConfigReader, "read", recorded)
    # dead runs and cancelling survivors (see the every-offset test) put the
    # bounded reads past the last clock a window scans at some starts
    expr = sum_of_strings(["0011", "0101", "0000", "1000"], 4)
    make_system = lambda: ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=22)
    queries = [(Pattern.from_string("0101"), None), (Pattern.from_string("1111"), None),
               (Pattern.fragments({4: 1}), 16), (Pattern.fragments({1: 1, 2: 1}), 8)]
    verdicts = set()
    for t_start in range(40):
        for pattern, tau in queries:
            del windows[:]
            got = windowed_search(expr, make_system(), pattern, tau, 5000, t_start)
            gc.collect()
            assert windows and not any(window() for window in windows)
            want = scalar_search(expr, make_system(), pattern, tau, 5000, t_start)
            assert got.to_json() == want.to_json() and got == want
            verdicts.add(got.verdict)
    assert verdicts == set(Verdict)


def test_a_search_builds_one_reader(monkeypatch):
    # the every-offset setup of the test above: each search prepares one
    # reader, whose window holds every reading, and reads one pass at a time
    readers, reads = [], []
    real_init, real_read = ConfigReader.__init__, ConfigReader.read

    def counted(reader, *args):
        readers.append(reader)
        real_init(reader, *args)

    def recorded(reader, t0, clocks):
        reads.append((clocks, reader.span))
        return real_read(reader, t0, clocks)

    monkeypatch.setattr(ConfigReader, "__init__", counted)
    monkeypatch.setattr(ConfigReader, "read", recorded)
    expr = sum_of_strings(["0011", "0101", "0000", "1000"], 4)
    make_system = lambda: ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=22)
    queries = [(Pattern.from_string("0101"), None), (Pattern.from_string("1111"), None),
               (Pattern.fragments({4: 1}), 16), (Pattern.fragments({1: 1, 2: 1}), 8)]
    for t_start in range(40):
        for pattern, tau in queries:
            del readers[:], reads[:]
            windowed_search(expr, make_system(), pattern, tau, 5000, t_start)
            assert len(readers) == 1
            assert reads and all(clocks <= span for clocks, span in reads)


def test_searches_on_a_deep_chain_without_recursion():
    # 5,000 nested nodes: R1_1 times 2,500 factors of R2_1, under 2,500 sums
    depth = 5000
    chain = ref(1, 1)
    for level in range(depth):
        chain = Product((chain, ref(2, 1))) if level % 2 else Sum(((1, chain),))
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=21)
    for t in range(3):
        expected = system.wire_sign(WireId(1, 1), t) * system.wire_sign(WireId(2, 1), t) ** 2500
        assert evaluate(chain, system, t) == Dyadic(expected)
    make_system = lambda: ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=21)
    out = same_result(chain, make_system, Pattern.from_string("11"), None, 10, 0)
    assert out.verdict is Verdict.PRESENT
    # R2_1 is a factor 2,500 times, so the chain is not certified and a full
    # string that misses it reads its tau clocks
    out = same_result(chain, make_system, Pattern.from_string("01"), None, 10, 0)
    assert out.verdict is Verdict.ABSENT_BOUNDED
    out = same_result(chain, make_system, Pattern.fragments({2: 1}), 4, 10, 0)
    assert out.verdict is Verdict.PRESENT
    out = same_result(chain, make_system, Pattern.fragments({2: 0}), 4, 10, 0)
    assert out.verdict is Verdict.ABSENT_BOUNDED


def test_searches_count_real_ground_calls(monkeypatch, eq12):
    grounds = []
    real_ground = SwitchState.ground

    def counted(self, wire):
        grounds.append(wire)
        return real_ground(self, wire)

    monkeypatch.setattr(SwitchState, "ground", counted)
    system = ReferenceSystem(4, master_seed=24)
    for pattern, tau in ((Pattern.from_string("0010"), None), (Pattern.from_string("1111"), None),
                         (Pattern.fragments({1: 0, 4: 0}), 8), (Pattern(()), 4)):
        del grounds[:]
        out = windowed_search(eq12, system, pattern, tau, 1000, 0)
        assert out.switch_ops == len(grounds) == len(pattern)


def test_protocols_never_call_the_scalar_evaluator(monkeypatch, eq9):
    # patch every binding of the name in the package, not only inbl.expr's
    real = evaluate

    def scalar_read(*args, **kwargs):
        raise AssertionError("a protocol read through the scalar evaluate")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "inbl" and getattr(module, "evaluate", None) is real:
            monkeypatch.setattr(module, "evaluate", scalar_read)
    system = ReferenceSystem(4, master_seed=25)
    assert full_string_search(eq9, system, Pattern.from_string("1010")).present
    assert fragment_search(eq9, system, Pattern.fragments({1: 0}), tau=4).present
    cls, _ = entangle_discriminate(parse_dsl(EQ7_TEXT), ReferenceSystem(2, master_seed=25))
    assert cls is BellClass.S01_PLUS_10
    pb = build_phonebook(PhonebookSpec(2, 2, (("01", "10"), ("10", "11"))))
    book_system = ReferenceSystem(4, master_seed=25)
    assert lookup(pb, book_system, "01")[0] == "10"
    assert inverse_lookup(pb, book_system, "11")[0] == "10"
