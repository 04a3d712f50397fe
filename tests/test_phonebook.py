import random

import pytest

from inbl.errors import (
    DuplicateName,
    MaxWaitExceeded,
    NotBijective,
    ParseError,
    PatternError,
    ProbeInconsistency,
)
from inbl.experiments import ConfigReader
from inbl.expr import Product, Sum, evaluate, ref
from inbl.oracle import expand
from inbl.phonebook import (
    PhonebookExpr,
    PhonebookSpec,
    build_phonebook,
    inverse_lookup,
    lookup,
    parse_phonebook,
    probe_book,
    switching_cost,
)
from inbl.reference import ReferenceSystem, RtwScheme
from inbl.search import wait_for_live_clock
from inbl.switchboard import SwitchState


def small_book():
    return PhonebookSpec(2, 2, (("01", "10"), ("10", "11")))


def test_spec_validation():
    with pytest.raises(DuplicateName):
        PhonebookSpec(2, 2, (("01", "10"), ("01", "11")))
    with pytest.raises(PatternError):
        PhonebookSpec(2, 2, (("011", "10"),))
    with pytest.raises(PatternError):
        PhonebookSpec(2, 2, ())
    assert small_book().bijective
    assert not PhonebookSpec(2, 2, (("01", "10"), ("10", "10"))).bijective


def test_build_single_entry():
    pb = build_phonebook(PhonebookSpec(1, 1, (("0", "1"),)))
    exp = expand(pb.expr, 2)
    assert sorted(exp.entries) == ["01"]  # name bit 0, number bit 1


def test_build_expansion_splits_into_pairs():
    rng = random.Random(0)
    names = rng.sample([format(x, "02b") for x in range(4)], 4)
    numbers = [format(rng.getrandbits(2), "02b") for _ in range(4)]
    spec = PhonebookSpec(2, 2, tuple(zip(names, numbers)))
    pb = build_phonebook(spec)
    exp = expand(pb.expr, 4)
    assert len(exp) == 4
    assert set(exp.entries.values()) == {1}
    assert {(k[:2], k[2:]) for k in exp.entries} == set(zip(names, numbers))


def test_shared_number_builds_but_rejects_inverse():
    spec = PhonebookSpec(2, 2, (("01", "10"), ("10", "10")))
    pb = build_phonebook(spec)
    system = ReferenceSystem(4, master_seed=1)
    assert lookup(pb, system, "01")[0] == "10"
    with pytest.raises(NotBijective):
        inverse_lookup(pb, system, "10")


def test_lookup_small_book():
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, master_seed=2)
    number, ops = lookup(pb, system, "01")
    assert number == "10"
    assert ops == 6 == switching_cost(2, 2, "forward")
    number, ops = lookup(pb, system, "10")
    assert number == "11"


def test_lookup_absent_name():
    # an absent key is an exact answer: the collapse reads 0 after the
    # lookup's full switch actions
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, master_seed=3)
    assert lookup(pb, system, "11") == (None, switching_cost(2, 2, "forward"))


def test_negative_max_wait_is_rejected():
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, master_seed=2)
    for call, key in ((lookup, "01"), (inverse_lookup, "11")):
        with pytest.raises(ValueError, match="max_wait must be >= 0, got -1"):
            call(pb, system, key, max_wait=-1)
    # max_wait 0 reads t_start alone, and this book is live at clock 0
    assert lookup(pb, system, "01", max_wait=0) == ("10", 6)
    assert inverse_lookup(pb, system, "11", max_wait=0) == ("10", 6)


def test_inverse_lookup_small_book():
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, master_seed=4)
    name, ops = inverse_lookup(pb, system, "11")
    assert name == "10"
    assert ops == 6 == switching_cost(2, 2, "inverse")
    assert inverse_lookup(pb, system, "00") == (None, switching_cost(2, 2, "inverse"))


def test_round_trip_random_bijective_books():
    rng = random.Random(5)
    for trial in range(20):
        n = 16
        names = rng.sample([format(x, "04b") for x in range(16)], n)
        numbers = rng.sample([format(x, "04b") for x in range(16)], n)
        spec = PhonebookSpec(4, 4, tuple(zip(names, numbers)))
        pb = build_phonebook(spec)
        system = ReferenceSystem(8, master_seed=trial)
        name = rng.choice(names)
        number, ops = lookup(pb, system, name)
        assert ops == switching_cost(4, 4, "forward") == 12
        back, inv_ops = inverse_lookup(pb, system, number)
        assert back == name
        assert inv_ops == switching_cost(4, 4, "inverse") == 12


def test_switching_cost_formulas():
    assert switching_cost(8, 8, "forward") == 24
    assert switching_cost(2, 2, "forward") == 6
    assert switching_cost(8, 8, "inverse") == 24
    assert switching_cost(6, 2, "inverse") == 14
    # equal widths: 3N total, matching O(3 log2 n)
    for n in (1, 4, 9):
        assert switching_cost(n, n, "forward") == 3 * n
    with pytest.raises(ValueError):
        switching_cost(1, 1, "sideways")
    with pytest.raises(ValueError):
        switching_cost(0, 1, "forward")


def test_lookup_width_and_system_checks():
    pb = build_phonebook(small_book())
    with pytest.raises(PatternError):
        lookup(pb, ReferenceSystem(4, master_seed=1), "011")
    with pytest.raises(PatternError):
        lookup(pb, ReferenceSystem(3, master_seed=1), "01")
    with pytest.raises(ValueError, match="direction must be 'forward' or 'inverse', got 'name'"):
        probe_book(pb, ReferenceSystem(4, master_seed=1), "01", "name")


def test_parse_phonebook_file():
    text = """
    # two-entry book
    names 2; numbers 2;
    01 -> 10
    10 -> 11   # comment
    """
    spec = parse_phonebook(text)
    assert spec == small_book()
    with pytest.raises(ParseError):
        parse_phonebook("names 2;\n01 -> 10")
    with pytest.raises(ParseError):
        parse_phonebook("names 2; numbers 2;\n01 => 10")
    with pytest.raises(ParseError):
        parse_phonebook("   \n# only comments\n")



@pytest.mark.parametrize("entry, message, column", [
    ("  011 -> 10", "bad name '011' for 2 bits", 3),
    ("01 -> 1", "bad number '1' for 2 bits", 7),
    (" 10 -> 01", "name 10 appears twice", 2),
])
def test_a_bad_entry_is_an_error_at_its_line_and_column(entry, message, column):
    with pytest.raises(ParseError) as caught:
        parse_phonebook(f"names 2; numbers 2;\n10 -> 11\n# a comment\n{entry}\n")
    assert str(caught.value) == f"4:{column}: {message}"
    # the library's own spec keeps its own errors
    with pytest.raises(DuplicateName if "twice" in message else PatternError, match=message):
        PhonebookSpec(2, 2, (("10", "11"), tuple(entry.strip().split(" -> "))))


@pytest.mark.parametrize("header, column", [
    ("names 0; numbers 2;", 7), ("names 1; numbers  00;", 19),
], ids=["names", "numbers"])
def test_a_zero_width_is_an_error_at_its_token_before_any_entry(header, column):
    with pytest.raises(ParseError) as caught:
        parse_phonebook(f"{header}\n0 -> 01\n")
    assert str(caught.value) == f"1:{column}: name_bits and number_bits must be >= 1"


@pytest.mark.parametrize("header, column", [
    (f"names {'9' * 5000}; numbers 2;", 9), (f"names 2; numbers {'9' * 5000};", 20),
], ids=["names", "numbers"])
def test_a_too_long_header_integer_is_an_error_at_its_token(header, column):
    with pytest.raises(ParseError, match="integer of 5000 digits is too long") as caught:
        parse_phonebook(f"# a book\n  {header}\n01 -> 10\n")
    assert (caught.value.line, caught.value.column) == (2, column)


@pytest.mark.parametrize("n, s", [(3, 5), (5, 3)])
def test_unequal_widths_both_directions(n, s):
    # with N != S, a swapped offset or width in the shared routine shows
    rng = random.Random(6)
    size = 2 ** min(n, s)
    names = rng.sample([format(x, f"0{n}b") for x in range(2**n)], size)
    numbers = rng.sample([format(x, f"0{s}b") for x in range(2**s)], size)
    pb = build_phonebook(PhonebookSpec(n, s, tuple(zip(names, numbers))))
    system = ReferenceSystem(n + s, master_seed=7)
    for name, number in zip(names, numbers):
        assert lookup(pb, system, name) == (number, switching_cost(n, s, "forward"))
        assert inverse_lookup(pb, system, number) == (name, switching_cost(n, s, "inverse"))
    assert switching_cost(n, s, "forward") == n + 2 * s
    assert switching_cost(n, s, "inverse") == s + 2 * n
    with pytest.raises(PatternError):
        lookup(pb, system, numbers[0])
    with pytest.raises(PatternError):
        inverse_lookup(pb, system, names[0])


@pytest.mark.parametrize("n, s", [(2, 2), (3, 5), (5, 3)])
def test_switch_ops_count_real_ground_calls(monkeypatch, n, s):
    grounds = []
    real_ground = SwitchState.ground

    def counted(self, wire):
        grounds.append(wire)
        return real_ground(self, wire)

    monkeypatch.setattr(SwitchState, "ground", counted)
    rng = random.Random(8)
    size = 2 ** min(n, s)
    names = rng.sample([format(x, f"0{n}b") for x in range(2**n)], size)
    numbers = rng.sample([format(x, f"0{s}b") for x in range(2**s)], size)
    pb = build_phonebook(PhonebookSpec(n, s, tuple(zip(names, numbers))))
    system = ReferenceSystem(n + s, master_seed=9)
    for call, key, direction in ((lookup, names[1], "forward"),
                                 (inverse_lookup, numbers[1], "inverse")):
        del grounds[:]
        _, ops = call(pb, system, key)
        assert len(grounds) == ops == switching_cost(n, s, direction)


@pytest.mark.parametrize("n, s", [(8, 8), (6, 6), (3, 5)])
def test_lookup_reads_the_configurations_its_switch_actions_made(monkeypatch, n, s):
    # switch_ops is the count of ground calls that changed a switch, and the
    # reader gets one wire mask per configuration those actions passed
    # through: none grounded, the collapse, then the collapse and each probe
    changed, configs = [], []
    real_ground, real_init = SwitchState.ground, ConfigReader.__init__

    def counted(self, wire):
        done = real_ground(self, wire)
        changed.append(done)
        return done

    def recorded(reader, expr, system, grounded):
        configs.append(list(grounded))
        return real_init(reader, expr, system, grounded)

    monkeypatch.setattr(SwitchState, "ground", counted)
    monkeypatch.setattr(ConfigReader, "__init__", recorded)
    rng = random.Random(f"masks-{n}-{s}")
    size = 2 ** min(n, s)
    names = rng.sample([format(x, f"0{n}b") for x in range(2**n)], size)
    numbers = rng.sample([format(x, f"0{s}b") for x in range(2**s)], size)
    pb = build_phonebook(PhonebookSpec(n, s, tuple(zip(names, numbers))))
    system = ReferenceSystem(n + s, master_seed=12)
    for call, key, offset, probes, direction in (
            (lookup, names[3], 0, range(n + 1, n + s + 1), "forward"),
            (inverse_lookup, numbers[5], n, range(1, n + 1), "inverse")):
        del changed[:], configs[:]
        _, ops = call(pb, system, key, t_start=40)
        assert ops == sum(changed) == switching_cost(n, s, direction)
        collapse = sum(1 << (2 * (offset + i + 1) + 1 - int(c)) for i, c in enumerate(key))
        (masks,) = configs
        assert masks == [0, collapse] + [collapse | 1 << (2 * j + v) for j in probes
                                         for v in (0, 1)]


def _dead_clock(pb, system):
    """The first clock where the book's un-grounded signal reads zero."""
    return next(t for t in range(1000) if evaluate(pb.expr, system, t).is_zero())


def test_lookup_waits_past_a_dead_clock(monkeypatch):
    # symmetric: two +/-1 entry products cancel at about half the clocks
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=10)
    dead = _dead_clock(pb, system)
    live = wait_for_live_clock(pb.expr, system, dead).clock
    assert live > dead
    windows = []
    real_read = ConfigReader.read

    def recorded(reader, t0, clocks):
        windows.append((t0, clocks))
        return real_read(reader, t0, clocks)

    monkeypatch.setattr(ConfigReader, "read", recorded)
    for call, key in ((lookup, "01"), (inverse_lookup, "11")):
        del windows[:]
        assert call(pb, system, key, t_start=dead) == ("10", 6)
        # the scan starts at t_start, and its last window holds the live clock
        assert windows[0][0] == dead
        t0, clocks = windows[-1]
        assert t0 <= live < t0 + clocks
    with pytest.raises(MaxWaitExceeded):
        lookup(pb, system, "01", max_wait=0, t_start=dead)
    with pytest.raises(MaxWaitExceeded):
        inverse_lookup(pb, system, "11", max_wait=live - dead - 1, t_start=dead)
    assert lookup(pb, system, "11", t_start=dead) == (None, 6)
    assert inverse_lookup(pb, system, "00", t_start=dead) == (None, 6)


@pytest.mark.parametrize("expr", [
    # two numbers under one name: neither wire of bit 2 zeroes the signal
    Sum(((1, Product((ref(1, 0), ref(2, 0)))), (1, Product((ref(1, 0), ref(2, 1)))))),
    # a term holding both wires of bit 2: either one zeroes the signal
    Sum(((1, Product((ref(1, 0), ref(2, 0), ref(2, 1)))),)),
])
def test_probe_inconsistency_is_typed(expr):
    # asymmetric wires keep R2_0 + R2_1 away from zero, so the collapse is live
    pb = PhonebookExpr(expr, PhonebookSpec(1, 1, (("0", "0"),)))
    system = ReferenceSystem(2, RtwScheme.ASYMMETRIC, master_seed=11)
    with pytest.raises(ProbeInconsistency, match="at bit 2"):
        lookup(pb, system, "0")
