import random

import pytest

from inbl.dsl import format_dsl, parse_dsl, parse_fragments, parse_program
from inbl.errors import ParseError
from inbl.expr import Pattern, Product, Sum, build_odd, build_universe, ref
from inbl.oracle import expand

from conftest import EQ9_TEXT, random_canonical_expr


def test_parse_eq9_terms():
    expr = parse_dsl(EQ9_TEXT)
    assert isinstance(expr, Sum)
    assert len(expr.terms) == 3
    assert expr.terms[0] == (1, Product((ref(1, 1), ref(2, 0), ref(3, 1), ref(4, 0))))
    assert sorted(expand(expr, 4).entries) == ["0010", "0110", "1010"]


def test_parse_universe_structural():
    assert parse_dsl("(R1_0+R1_1)*(R2_0+R2_1)") == build_universe(2)


def test_parse_builtin_and_macro():
    assert parse_dsl("U(3)") == build_universe(3)
    expr, bits = parse_program("bits 2;\nU - ( R1_0*(R2_0+R2_1) )")
    assert bits == 2
    assert expand(expr, 2) == expand(build_odd(2), 2)
    # odd strings have bit 1 == 1; keys render bit 1 leftmost
    assert sorted(expand(expr, 2).entries) == ["10", "11"]


def test_bare_builtin_requires_header():
    with pytest.raises(ParseError):
        parse_dsl("U + R1_0")


def test_comments_and_whitespace():
    text = "bits 4;  # the Eq. 9 superposition\n" + EQ9_TEXT.replace("+", "\n +") + "\n"
    expr, bits = parse_program(text)
    assert bits == 4
    assert expand(expr, 4).strings() == {"0010", "0110", "1010"}


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_dsl("R1_0 +\n* R2_1")
    assert err.value.line == 2
    assert err.value.column == 1


def test_bit_index_exceeding_declared_size():
    with pytest.raises(ParseError):
        parse_program("bits 2;\nR3_0")
    with pytest.raises(ParseError):
        parse_program("bits 2;\nU(3)")


def test_trailing_junk_rejected():
    with pytest.raises(ParseError):
        parse_dsl("R1_0 R2_0")
    with pytest.raises(ParseError):
        parse_dsl("R1_0 + ")
    with pytest.raises(ParseError):
        parse_dsl("R1_2")


def test_format_canonical_ordering():
    expr = parse_dsl("R2_1*R1_0 + R1_1*R2_0")
    assert format_dsl(expr) == "R1_0*R2_1 + R1_1*R2_0"


def test_negative_and_coefficients_roundtrip():
    expr = Sum(((-1, ref(1, 0)), (2, ref(1, 1))))
    text = format_dsl(expr)
    assert text == "-R1_0 + R1_1 + R1_1"
    assert expand(parse_dsl(text), 1) == expand(expr, 1)


def test_format_parse_fixed_point():
    rng = random.Random(1)
    for _ in range(100):
        expr = random_canonical_expr(rng, 5)
        text = format_dsl(expr)
        reparsed = parse_dsl(text)
        # canonical form is a fixed point of parse . format
        assert format_dsl(reparsed) == text
        # and the expansion is untouched
        assert expand(reparsed, 5) == expand(expr, 5)


def test_parse_fragments():
    assert parse_fragments("1=0, 2=0,4=1") == Pattern.fragments({1: 0, 2: 0, 4: 1})
    with pytest.raises(ParseError):
        parse_fragments("1:0")
