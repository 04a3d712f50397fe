import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inbl.dsl import format_dsl, parse_dsl, parse_fragments, parse_program
from inbl.errors import ParseError
from inbl.expr import (
    Pattern,
    Product,
    Ref,
    Sum,
    build_odd,
    build_universe,
    ref,
    topological_order,
)
from inbl.oracle import Expansion, expand

from conftest import EQ9_TEXT, dags, random_canonical_expr


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


def test_declared_size_zero_rejected():
    with pytest.raises(ParseError, match="declared size must be >= 1"):
        parse_program("bits 0;\nR1_0")


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
    assert text == "-R1_0 + 2*R1_1"
    assert expand(parse_dsl(text), 1) == expand(expr, 1)


def test_coefficients_are_written_once():
    # a coefficient is one token, whatever its size; texts that repeat a
    # term still parse to the same expansion
    huge = Sum(((2**70, ref(1, 0)),))
    assert format_dsl(huge) == f"{2**70}*R1_0"
    assert expand(parse_dsl(format_dsl(huge)), 1) == Expansion({"0": 2**70}, 1)
    assert format_dsl(Sum(((10**6, ref(1, 1)), (-1, ref(1, 0))))) == "-R1_0 + 1000000*R1_1"
    assert expand(parse_dsl("-R1_0 + R1_1 + R1_1"), 1) == expand(parse_dsl("-R1_0 + 2*R1_1"), 1)
    text = "-3*(R1_0 + 2*R1_1)*R2_0 + 5*R2_1"
    assert expand(parse_dsl(text), 2) == Expansion({"00": -3, "10": -6, "-1": 5}, 2)
    assert format_dsl(parse_dsl(text)) == text


@pytest.mark.parametrize("text, column", [
    ("0*R1_0", 1), ("R1_0 - 00*R1_1", 8), ("(R1_0 + 0*R2_0)", 9),
])
def test_zero_coefficient_is_an_error_at_its_token(text, column):
    with pytest.raises(ParseError, match="coefficient must be nonzero") as caught:
        parse_dsl(text)
    assert (caught.value.line, caught.value.column) == (1, column)


@pytest.mark.parametrize("text", ["2 R1_0", "2*3*R1_0", "2*-R1_0", "1*-R1_0", "R1_0*2*R2_0", "2*"])
def test_a_coefficient_leads_its_term(text):
    with pytest.raises(ParseError):
        parse_dsl(text)


# a decimal longer than int() converts (4,300 digits by default)
LONG = "9" * 5000


@pytest.mark.parametrize("text, line, column", [
    (f"R1_0 + {LONG}*R1_1", 1, 8),  # a term coefficient
    (f"R1_0 +\nU({LONG})", 2, 3),  # a builtin size
    (f"bits {LONG};\nR1_0", 1, 6),  # the bits header
    (f"R1_0*R{LONG}_1", 1, 6),  # a Ref's bit index
], ids=["coefficient", "builtin", "header", "ref"])
def test_a_too_long_integer_is_an_error_at_its_token(text, line, column):
    with pytest.raises(ParseError, match="integer of 5000 digits is too long") as caught:
        parse_program(text)
    assert (caught.value.line, caught.value.column) == (line, column)


def test_a_coefficient_the_parser_refuses_is_not_formatted():
    # 10**5000 has 5,001 digits, which parse_int refuses; 10**4299 has 4,300
    for coeff in (10**5000, -(10**5000)):
        expr = Product((ref(2, 1), Sum(((1, ref(1, 1)), (coeff, ref(1, 0))))))
        with pytest.raises(ValueError, match="^a coefficient of 16610 bits is too long for the DSL$"):
            format_dsl(expr)
    fits = Sum(((1, ref(1, 1)), (10**4299, ref(1, 0))))
    assert expand(parse_dsl(format_dsl(fits)), 1) == expand(fits, 1)


def test_a_bit_index_the_parser_refuses_is_not_formatted():
    # the index of R<5,001 digits>_1 is refused as a coefficient is
    with pytest.raises(ValueError, match="^a bit index of 16610 bits is too long for the DSL$"):
        format_dsl(Sum(((1, ref(10**5000, 1)),)))
    assert format_dsl(Sum(((1, ref(10**4299, 1)),))) == f"R{10**4299}_1"


def test_bit_index_zero_is_an_error_at_its_token():
    with pytest.raises(ParseError, match="bit index must be >= 1, got 0") as caught:
        parse_dsl("R1_0 +\n  R0_1")
    assert (caught.value.line, caught.value.column) == (2, 3)


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


def _written_refs(expr):
    """How many wire reads format_dsl writes for expr, counted without
    writing them: shared nodes are written out once per use, and a term
    once whatever its coefficient."""
    count = {}
    for node in topological_order(expr):
        if isinstance(node, Ref):
            n = 1
        elif isinstance(node, Sum):
            n = sum(count[id(term)] for _, term in node.terms)
        else:
            n = sum(count[id(factor)] for factor in node.factors)
        count[id(node)] = n
    return count[id(expr)]


@settings(max_examples=300, deadline=None)
@given(dags())
def test_dag_round_trips_through_text(dag):
    m, expr, _ = dag
    # a node shared by k later ones is written k times; keep the text small
    assume(_written_refs(expr) <= 2000)
    parsed, bits = parse_program(format_dsl(expr))
    assert bits is None
    assert expand(parsed, m) == expand(expr, m)
    # parsing drops one-factor Products and unit one-term Sums, so the text
    # of the parsed DAG is the canonical one: parse . format keeps it
    canonical = format_dsl(parsed)
    reparsed = parse_dsl(canonical)
    assert format_dsl(reparsed) == canonical
    assert expand(reparsed, m) == expand(expr, m)


def test_deep_chain_round_trip_without_recursion():
    # 5,000 nested nodes built in code; each level is a Sum or a Product
    chain = ref(1, 1)
    for level in range(5000):
        chain = Product((chain, ref(2, 1))) if level % 2 else Sum(((1, chain),))
    expr, bits = parse_program(format_dsl(chain))
    assert bits is None
    assert expand(expr, 2) == expand(chain, 2) == Expansion({"11": 1}, 2)
    text = format_dsl(expr)
    # parsing drops the one-term Sums; the 2,500 Products stay nested
    assert text.count("(") == 2499
    assert format_dsl(parse_dsl(text)) == text


# ints carry a space so that adjacent ones never merge into one huge size
_SOUP = ["R1_0", "R2_1", "R12_1", "U", "EVEN", "ODD", "bits", "0 ", "2 ", "3 ",
         "+", "-", "*", "(", ")", ";", "# note\n", "\n", " ", "@"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=16))
def test_token_soup_parses_or_fails_inside_the_text(soup):
    text = "".join(soup)
    try:
        expr = parse_dsl(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1
        return
    canonical = format_dsl(expr)
    assert format_dsl(parse_dsl(canonical)) == canonical


def test_parse_fragments():
    assert parse_fragments("1=0, 2=0,4=1") == Pattern.fragments({1: 0, 2: 0, 4: 1})
    with pytest.raises(ParseError):
        parse_fragments("1:0")
    # a repeated bit index is an error, whether its bits differ or agree
    for text, column in (("1=0,1=1", 5), ("1=0,1=0", 5), ("2=1, 3=0,  2=1", 12)):
        with pytest.raises(ParseError, match="bit index [12] is assigned twice") as caught:
            parse_fragments(text)
        assert (caught.value.line, caught.value.column) == (1, column)


@pytest.mark.parametrize(
    "text, part, column",
    [("1=0, 2=0, 4:1", "4:1", 11),  # at the part's first non-blank character
     ("1=0,,2=1", "", 5)],  # an empty part, where it starts
    ids=["malformed", "empty"],
)
def test_a_bad_fragment_is_an_error_at_its_own_column(text, part, column):
    with pytest.raises(ParseError, match=f"bad fragment '{part}'") as caught:
        parse_fragments(text)
    assert (caught.value.line, caught.value.column) == (1, column)


def test_a_too_long_fragment_index_is_an_error_at_its_token():
    with pytest.raises(ParseError, match="integer of 5000 digits is too long") as caught:
        parse_fragments(f"1=0, {LONG}=1")
    assert (caught.value.line, caught.value.column) == (1, 6)
