import random

import pytest

from inbl.errors import (
    DuplicateName,
    NameAbsent,
    NotBijective,
    NumberAbsent,
    ParseError,
    PatternError,
)
from inbl.oracle import expand
from inbl.phonebook import (
    PhonebookSpec,
    build_phonebook,
    inverse_lookup,
    lookup,
    parse_phonebook,
    switching_cost,
)
from inbl.reference import ReferenceSystem


def small_book():
    return PhonebookSpec(2, 2, (("01", "10"), ("10", "11")))


def test_spec_validation():
    with pytest.raises(DuplicateName):
        PhonebookSpec(2, 2, (("01", "10"), ("01", "11")))
    with pytest.raises(PatternError):
        PhonebookSpec(2, 2, (("011", "10"),))
    with pytest.raises(PatternError):
        PhonebookSpec(2, 2, ())
    assert small_book().is_bijective()
    assert not PhonebookSpec(2, 2, (("01", "10"), ("10", "10"))).is_bijective()


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
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, master_seed=3)
    with pytest.raises(NameAbsent):
        lookup(pb, system, "11")


def test_inverse_lookup_small_book():
    pb = build_phonebook(small_book())
    system = ReferenceSystem(4, master_seed=4)
    name, ops = inverse_lookup(pb, system, "11")
    assert name == "10"
    assert ops == 6 == switching_cost(2, 2, "inverse")
    with pytest.raises(NumberAbsent):
        inverse_lookup(pb, system, "00")


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
