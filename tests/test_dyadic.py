from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from inbl.dyadic import ZERO, Dyadic

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-100, max_value=100),
)


def test_canonical_form():
    d = Dyadic(12, 0)
    assert (d.mantissa, d.exp2) == (3, 2)
    d = Dyadic(-12, -5)
    assert (d.mantissa, d.exp2) == (-3, -3)
    assert (Dyadic(0, 17).mantissa, Dyadic(0, 17).exp2) == (0, 0)


def test_zero_and_one():
    assert ZERO.is_zero()
    assert not ZERO
    assert Dyadic(1) == Dyadic(2, -1) == Dyadic(1, 0)
    assert Dyadic.pow2(-3) == Dyadic(1, -3)


def test_exact_arithmetic():
    half = Dyadic(1, -1)
    assert half + half == Dyadic(1)
    assert half * half == Dyadic(1, -2)
    assert half - half == ZERO
    assert -half == Dyadic(-1, -1)
    assert 3 * half == Dyadic(3, -1)
    assert Dyadic(3, -1).as_fraction() == Fraction(3, 2)
    assert abs(Dyadic(-9, -2)) == Dyadic(9, -2)


def test_json_roundtrip():
    # reports carry the exact value: the serialized pair rebuilds it
    d = Dyadic(-(3**40), -123)
    obj = d.to_json()
    assert obj == {"mantissa": str(d.mantissa), "exp2": -123}
    assert Dyadic(int(obj["mantissa"]), obj["exp2"]) == d


@given(dyadics, dyadics, dyadics)
def test_ring_laws_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(dyadics, dyadics)
def test_matches_fraction_semantics(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
