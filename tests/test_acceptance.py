"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run `pytest tests/test_acceptance.py -s` to see them.
"""

import math
import random
from fractions import Fraction

import numpy as np

from inbl.dsl import parse_dsl
from inbl.dyadic import Dyadic
from inbl.experiments import run_crosscorr, run_zero_stats, speedup_report
from inbl.expr import (
    Pattern,
    build_even,
    build_odd,
    build_product_string,
    build_universe,
    evaluate,
)
from inbl.oracle import eval_via_expansion, expand, legal_bell_class, surviving
from inbl.reference import ReferenceSystem, RtwScheme
from inbl.search import (
    BellClass,
    Verdict,
    entangle_discriminate,
    fragment_search,
    full_string_search,
)

from conftest import (
    EQ12_TEXT,
    EQ9_TEXT,
    random_canonical_expr,
    random_switches,
    sum_of_strings,
)


def report(number, description):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number:2d}: {description}")
                raise
            print(f"PASS  criterion {number:2d}: {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@report(1, "full-string search reproduces the worked 4-bit example")
def test_criterion_1_full_string_example():
    expr = parse_dsl(EQ9_TEXT)
    system = ReferenceSystem(4, master_seed=1)
    exp = expand(expr, 4)
    out = full_string_search(expr, system, Pattern.from_string("1010"))
    assert out.verdict is Verdict.PRESENT and out.switch_ops == 4
    # verdicts for the other queries follow the term list {1010, 0010, 0110}
    for query in ("0010", "0110", "0111", "1111"):
        out = full_string_search(expr, system, Pattern.from_string(query))
        expected = query in exp.entries
        assert out.present == expected, (query, out.verdict)
        assert out.switch_ops == 4


@report(2, "fragment search reproduces the worked examples and survivor set")
def test_criterion_2_fragment_examples():
    system = ReferenceSystem(4, master_seed=2)
    frag = Pattern.fragments({1: 0, 2: 0, 4: 0})
    out = fragment_search(parse_dsl(EQ9_TEXT), system, frag, tau=8)
    assert out.verdict is Verdict.PRESENT
    survivors = surviving(expand(parse_dsl(EQ12_TEXT), 4), frag)
    assert sorted(survivors.entries) == ["0000", "0010"]
    out = fragment_search(parse_dsl(EQ12_TEXT), system, frag, tau=8)
    assert out.verdict is Verdict.PRESENT


@report(3, "DAG evaluation equals oracle expansion evaluation bit-exactly")
def test_criterion_3_oracle_equivalence():
    rng = random.Random(3)
    for case in range(500):
        m = rng.randint(2, 12)
        system = ReferenceSystem(
            m,
            rng.choice([RtwScheme.ASYMMETRIC, RtwScheme.SYMMETRIC]),
            master_seed=rng.getrandbits(48),
        )
        expr = random_canonical_expr(rng, m)
        exp = expand(expr, m)
        assert not exp.noncanonical
        configs = [None, random_switches(rng, m)]
        for t in range(100):
            switches = configs[t % 2]
            assert evaluate(expr, system, t, switches) == eval_via_expansion(
                exp, system, t, switches
            )


@report(4, "full-string search agrees with oracle membership on 10^4 cases")
def test_criterion_4_zero_error_full_search():
    rng = random.Random(4)
    for case in range(10_000):
        m = rng.randint(4, 12)
        strings = {
            format(rng.getrandbits(m), f"0{m}b") for _ in range(rng.randint(1, 12))
        }
        expr = sum_of_strings(sorted(strings), m)
        system = ReferenceSystem(m, master_seed=case)
        if rng.random() < 0.5 or len(strings) == 2**m:
            query = format(rng.getrandbits(m), f"0{m}b")
        else:
            query = rng.choice(sorted(strings))
        out = full_string_search(expr, system, Pattern.from_string(query))
        assert out.present == (query in strings)
        assert out.switch_ops == m


@report(5, "all six Bell classes identified correctly, both probe variants")
def test_criterion_5_bell_discrimination():
    classes = {
        BellClass.S01_PLUS_10: ("01", "10"),
        BellClass.S00_PLUS_11: ("00", "11"),
        BellClass.S00: ("00",),
        BellClass.S01: ("01",),
        BellClass.S10: ("10",),
        BellClass.S11: ("11",),
    }
    for cls, strings in classes.items():
        expr = sum_of_strings(strings, 2)
        assert legal_bell_class(expand(expr, 2)) is cls
        for seed in range(1000):
            system = ReferenceSystem(2, master_seed=seed)
            for partner in (0, 1):
                got, _ = entangle_discriminate(expr, system, probe_partner_value=partner)
                assert got is cls, (cls, seed, partner)


@report(6, "fragment false-negative rate scales as 2^-tau; Present is exact")
def test_criterion_6_error_scaling():
    # survivor set after the fragment collapse: 0011 and 0101, two strings
    # of equal magnitude 2^-2 sharing wires R1_0 and R4_1; they cancel with
    # probability 1/2 per clock. The third string (bit 4 = 0) keeps the
    # un-grounded superposition alive at every clock, so observation windows
    # are unconditioned.
    expr = sum_of_strings(["0011", "0101", "0000"], 4)
    frag = Pattern.fragments({4: 1})
    assert sorted(surviving(expand(expr, 4), frag).entries) == ["0011", "0101"]
    trials = 100_000
    system = ReferenceSystem(4, master_seed=6)
    for tau in range(1, 9):
        false_negatives = 0
        for trial in range(trials):
            out = fragment_search(
                expr, system, frag, tau=tau, t_start=trial * tau, max_wait=4
            )
            if out.present:
                # zero-error direction: the survivor set really is nonempty,
                # and the witness amplitude is nonzero
                assert not out.amplitude.is_zero()
            else:
                assert out.epsilon == Dyadic.pow2(-tau)
                false_negatives += 1
        p = 2.0**-tau
        sigma = math.sqrt(p * (1 - p) / trials)
        rate = false_negatives / trials
        assert abs(rate - p) <= 3 * sigma, (tau, rate, p)


@report(7, "asymmetric Universe: never zero, bounded, all-Low magnitude 2^-M")
def test_criterion_7_universe_properties():
    M, clocks = 10, 100_000
    system = ReferenceSystem(M, RtwScheme.ASYMMETRIC, master_seed=7)
    from inbl.experiments import eval_array

    values = eval_array(build_universe(M), system, 0, clocks)
    assert np.all(values != 0.0)
    assert np.all(np.abs(values) <= 1.5**M)
    low = eval_array(build_product_string(Pattern.from_string("0" * M), M), system, 0, clocks)
    assert np.all(np.abs(low) == 2.0**-M)
    # exact dyadic spot checks of the same facts
    bound = Fraction(3, 2) ** M
    all_low = build_product_string(Pattern.from_string("0" * M), M)
    for t in range(200):
        v = evaluate(build_universe(M), system, t)
        assert not v.is_zero() and abs(v).as_fraction() <= bound
        assert abs(evaluate(all_low, system, t)) == Dyadic.pow2(-M)


@report(8, "even/odd expansions and the exact Y_even + Y_odd = U identity")
def test_criterion_8_even_odd_identity():
    for m in range(1, 11):
        odd = expand(build_odd(m), m)
        expected = {format(x, f"0{m}b") for x in range(2**m) if format(x, f"0{m}b")[0] == "1"}
        assert odd.strings() == expected
        assert set(odd.entries.values()) == {1}
    M = 10
    system = ReferenceSystem(M, master_seed=8)
    u, even, odd = build_universe(M), build_even(M), build_odd(M)
    for t in range(10_000):
        assert evaluate(even, system, t) + evaluate(odd, system, t) == evaluate(u, system, t)


@report(9, "phonebook forward and inverse lookups, exact costs")
def test_criterion_9_phonebook():
    from inbl.phonebook import (
        PhonebookSpec,
        build_phonebook,
        inverse_lookup,
        lookup,
        switching_cost,
    )

    rng = random.Random(9)
    names = [format(x, "08b") for x in range(256)]
    numbers = [format(rng.getrandbits(8), "08b") for _ in range(256)]
    book = dict(zip(names, numbers))
    pb = build_phonebook(PhonebookSpec(8, 8, tuple(book.items())))
    system = ReferenceSystem(16, master_seed=90)
    for i in range(1000):
        name = rng.choice(names)
        number, ops = lookup(pb, system, name, t_start=i)
        assert number == book[name]
        assert ops == 24 == switching_cost(8, 8, "forward")

    inv_names = rng.sample([format(x, "06b") for x in range(64)], 64)
    inv_numbers = rng.sample([format(x, "06b") for x in range(64)], 64)
    inv_book = dict(zip(inv_names, inv_numbers))
    pb = build_phonebook(PhonebookSpec(6, 6, tuple(inv_book.items())))
    system = ReferenceSystem(12, master_seed=91)
    reverse = {v: k for k, v in inv_book.items()}
    for i in range(1000):
        number = rng.choice(inv_numbers)
        name, ops = inverse_lookup(pb, system, number, t_start=i)
        assert name == reverse[number]
        assert ops == 18 == switching_cost(6, 6, "inverse")


@report(10, "zero-amplitude statistics: fractions and geometric decay")
def test_criterion_10_zero_stats():
    T = 1_000_000
    for m in (1, 2, 4):
        system = ReferenceSystem(m, RtwScheme.SYMMETRIC, master_seed=10 + m)
        stats = run_zero_stats(build_universe(m), system, T)
        expected = 1 - 2.0**-m
        sigma = math.sqrt(expected * (1 - expected) / T)
        assert abs(stats.zero_fraction - expected) <= 3 * sigma, (m, stats.zero_fraction)
    system = ReferenceSystem(4, RtwScheme.ASYMMETRIC, master_seed=10)
    assert run_zero_stats(build_universe(4), system, 100_000).zero_fraction == 0.0
    system = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=11)
    slope = run_zero_stats(build_universe(1), system, T).histogram_slope()
    assert slope is not None
    assert abs(slope + math.log(2)) <= 0.1 * math.log(2), slope


@report(11, "cross-correlation of distinct product-strings stays under 5/sqrt(T)")
def test_criterion_11_crosscorr():
    T = 1_000_000
    M = 8
    rng = random.Random(11)
    system = ReferenceSystem(M, master_seed=12)
    for _ in range(20):
        a, b = rng.sample(range(2**M), 2)
        ea = build_product_string(Pattern.from_string(format(a, f"0{M}b")), M)
        eb = build_product_string(Pattern.from_string(format(b, f"0{M}b")), M)
        estimate = run_crosscorr(ea, eb, system, T)
        assert abs(estimate) <= 5 / math.sqrt(T), (a, b, estimate)


@report(12, "speedup report echoes the quoted complexity formulas")
def test_criterion_12_speedup_report():
    r = speedup_report(4, 8, 8)
    assert r["classical_ratio"] == "4" and r["classical_ratio_value"] == 4.0
    for m in (4, 10, 20):
        r = speedup_report(m)
        assert r["classical_ratio"] == str(Fraction(2**m, m))
        assert r["classical_ratio_value"] == 2**m / m
        assert r["grover_ratio_value"] == 2**m / m**1.5
        assert r["photon_bound"] == m * 2**m
        assert r["superposition_size"] == 2**m
        assert r["search_switch_ops"] == m
