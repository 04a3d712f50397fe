import random
from operator import mul

import pytest
from hypothesis import strategies as st

from inbl.expr import Expr, Pattern, Product, Sum, build_product_string, ref
from inbl.reference import ReferenceSystem, WireId
from inbl.switchboard import SwitchState

EQ9_TEXT = "R1_1*R2_0*R3_1*R4_0 + R1_0*R2_0*R3_1*R4_0 + R1_0*R2_1*R3_1*R4_0"
EQ12_TEXT = (
    "R1_1*R2_0*R3_1*R4_0 + R1_0*R2_0*R3_1*R4_0 + "
    "R1_0*R2_0*R3_0*R4_0 + R1_0*R2_1*R3_1*R4_0"
)
EQ7_TEXT = "R1_0*R2_1 + R1_1*R2_0"


@pytest.fixture
def eq9():
    from inbl.dsl import parse_dsl

    return parse_dsl(EQ9_TEXT)


@pytest.fixture
def eq12():
    from inbl.dsl import parse_dsl

    return parse_dsl(EQ12_TEXT)


def sum_of_strings(strings, num_bits):
    """Superposition with coefficient 1 on each given full bit string."""
    return Sum(
        tuple(
            (1, build_product_string(Pattern.from_string(s), num_bits))
            for s in strings
        )
    )


def random_canonical_expr(rng: random.Random, num_bits: int, max_depth: int = 3) -> Expr:
    """Random expression whose monomials never repeat a bit index: product
    factors always draw from disjoint bit sets."""

    def gen(avail, depth):
        if depth == 0 or len(avail) == 1:
            if len(avail) > 1 and rng.random() < 0.3:
                k = rng.randint(2, min(3, len(avail)))
                return Sum(
                    tuple(
                        (rng.choice([-2, -1, 1, 2]), ref(rng.choice(avail), rng.randint(0, 1)))
                        for _ in range(k)
                    )
                )
            return ref(rng.choice(avail), rng.randint(0, 1))
        kind = rng.choice(["ref", "sum", "product", "product"])
        if kind == "ref":
            return ref(rng.choice(avail), rng.randint(0, 1))
        if kind == "sum":
            k = rng.randint(2, 3)
            return Sum(
                tuple((rng.choice([-2, -1, 1, 2]), gen(avail, depth - 1)) for _ in range(k))
            )
        groups = min(rng.randint(2, 3), len(avail))
        shuffled = list(avail)
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(shuffled)), groups - 1))
        parts = []
        lo = 0
        for cut in cuts + [len(shuffled)]:
            parts.append(shuffled[lo:cut])
            lo = cut
        return Product(tuple(gen(part, depth - 1) for part in parts if part))

    return gen(list(range(1, num_bits + 1)), max_depth)


def random_switches(rng: random.Random, num_bits: int, p: float = 0.25) -> SwitchState:
    switches = SwitchState()
    for i in range(1, num_bits + 1):
        for v in (0, 1):
            if rng.random() < p:
                switches.ground(WireId(i, v))
    return switches


def wire_mask(wires) -> int:
    """The wire mask of the configuration that grounds the given wires: bit
    WireId.tag set per wire, as ConfigReader and wait_for_live_clock take."""
    mask = 0
    for wire in wires:
        mask |= 1 << wire.tag
    return mask


def make_system(num_bits, **kwargs) -> ReferenceSystem:
    return ReferenceSystem(num_bits, **kwargs)


@st.composite
def dags(draw):
    """A random DAG over up to 4 noise-bits: every node may be shared by any
    later one, coefficients may be negative or wide. With wide=True the root
    carries a 2**70 coefficient, whose bound passes 2**63."""
    m = draw(st.integers(1, 4))
    nodes = [ref(i, v) for i in range(1, m + 1) for v in (0, 1)]
    # a sign times a nonzero magnitude: every draw is a nonzero coefficient
    coeff = st.builds(mul, st.sampled_from((1, -1)),
                      st.one_of(st.integers(1, 3), st.integers(1, 2**40)))
    for _ in range(draw(st.integers(1, 8))):
        kids = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
        if draw(st.booleans()):
            nodes.append(Sum(tuple((draw(coeff), kid) for kid in kids)))
        else:
            nodes.append(Product(tuple(kids)))
    wide = draw(st.booleans())
    root = Sum(((2**70, nodes[-1]), (1, ref(1, 0)))) if wide else nodes[-1]
    return m, root, wide
