import random
from fractions import Fraction

import numpy as np
import pytest

from inbl.dyadic import Dyadic, ZERO
from inbl.errors import PatternError
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
    iter_wires,
    ref,
)
from inbl.reference import ReferenceSystem, RtwScheme, WireId
from inbl.switchboard import SwitchState

from conftest import random_canonical_expr


def test_node_validation():
    with pytest.raises(ValueError):
        Sum(())
    with pytest.raises(ValueError):
        Product(())
    with pytest.raises(ValueError):
        Sum(((0, ref(1, 0)),))


def test_pattern_basics():
    p = Pattern.from_string("1010")
    assert p.is_full(4) and not p.is_full(5)
    assert p.as_dict() == {1: 1, 2: 0, 3: 1, 4: 0}
    assert str(p) == "1010"
    frag = Pattern.fragments({4: 0, 1: 0, 2: 0})
    assert str(frag) == "1=0,2=0,4=0"
    with pytest.raises(PatternError):
        Pattern(((1, 0), (1, 1)))
    with pytest.raises(PatternError):
        Pattern.from_string("102")
    with pytest.raises(PatternError):
        Pattern.fragments({5: 1}).check_fits(4)


def test_build_product_string():
    e = build_product_string(Pattern.from_string("1010"), 4)
    assert e == Product((ref(1, 1), ref(2, 0), ref(3, 1), ref(4, 0)))
    single = build_product_string(Pattern.from_string("0"), 1)
    assert single == Product((ref(1, 0),))
    with pytest.raises(PatternError):
        build_product_string(Pattern.fragments({1: 0}), 4)


def test_product_string_amplitude_all_positive_clock():
    # at a clock where every selected wire is positive, the amplitude is
    # +2**-z with z the number of Low bits (each Low wire contributes 1/2)
    system = ReferenceSystem(4, RtwScheme.ASYMMETRIC, master_seed=1)
    pattern = Pattern.from_string("1010")
    e = build_product_string(pattern, 4)
    wires = [WireId(i, v) for i, v in pattern.assignments]
    t = next(
        t for t in range(10_000)
        if all(system.wire_sign(w, t) == 1 for w in wires)
    )
    assert evaluate(e, system, t) == Dyadic.pow2(-2)


def test_build_universe_structure():
    u = build_universe(3)
    # M two-term sums, one per bit, joined by one product
    assert [f.terms for f in u.factors] == [((1, ref(i, 0)), (1, ref(i, 1))) for i in (1, 2, 3)]
    # 2M-1 elementary operations: M two-term additions, M-1 product joins
    joins = sum(len(f.terms) - 1 for f in u.factors) + len(u.factors) - 1
    assert joins == 2 * 3 - 1
    assert build_universe(1) == Product((Sum(((1, ref(1, 0)), (1, ref(1, 1)))),))
    with pytest.raises(ValueError):
        build_universe(0)


def test_universe_m2_worked_clock():
    # find a clock with draws R1_0=+1/2, R1_1=+1, R2_0=-1/2, R2_1=-1:
    # U = (0.5 + 1) * (-0.5 - 1) = -9/4
    system = ReferenceSystem(2, RtwScheme.ASYMMETRIC, master_seed=2)
    want = {(1, 0): 1, (1, 1): 1, (2, 0): -1, (2, 1): -1}
    t = next(
        t for t in range(10_000)
        if all(system.wire_sign(WireId(i, v), t) == s for (i, v), s in want.items())
    )
    assert evaluate(build_universe(2), system, t) == Dyadic(-9, -2)


def test_even_odd_structure():
    even = build_even(3)
    assert even.factors[0] == ref(1, 0)
    odd = build_odd(3)
    assert odd.terms[0] == (1, build_universe(3))
    assert odd.terms[1][0] == -1


def test_even_plus_odd_equals_universe():
    system = ReferenceSystem(4, master_seed=3)
    u, even, odd = build_universe(4), build_even(4), build_odd(4)
    for t in range(200):
        assert evaluate(even, system, t) + evaluate(odd, system, t) == evaluate(u, system, t)


def test_grounded_ref_annihilates_product():
    system = ReferenceSystem(2, master_seed=4)
    e = build_product_string(Pattern.from_string("10"), 2)
    switches = SwitchState()
    switches.ground(WireId(1, 1))
    assert evaluate(e, system, 0, switches) == ZERO
    assert not evaluate(e, system, 0).is_zero()


def test_universe_bound_and_liveness_asymmetric():
    M = 6
    system = ReferenceSystem(M, RtwScheme.ASYMMETRIC, master_seed=5)
    u = build_universe(M)
    bound = Fraction(3, 2) ** M
    for t in range(2000):
        value = evaluate(u, system, t)
        assert not value.is_zero()
        assert abs(value).as_fraction() <= bound


def test_product_string_cross_correlation():
    T = 10_000
    system = ReferenceSystem(4, master_seed=6)
    a = build_product_string(Pattern.from_string("1010"), 4)
    b = build_product_string(Pattern.from_string("0110"), 4)
    va = np.array([float(evaluate(a, system, t)) for t in range(200)])
    vb = np.array([float(evaluate(b, system, t)) for t in range(200)])
    # quick sanity on the scalar path, full bound via the vectorized path
    from inbl.experiments import run_crosscorr

    assert abs(run_crosscorr(a, b, system, T)) <= 5 / T**0.5
    assert va.shape == vb.shape


def test_iter_wires_and_sharing():
    u = build_universe(3)
    assert len(set(iter_wires(u))) == 6
    assert ref(2, 1) is ref(2, 1)


def test_eval_wire_out_of_range():
    system = ReferenceSystem(2, master_seed=1)
    e = ref(5, 0)
    from inbl.errors import InvalidWireError

    with pytest.raises(InvalidWireError):
        evaluate(e, system, 0)


def test_random_exprs_reasonable():
    rng = random.Random(0)
    system = ReferenceSystem(6, master_seed=7)
    for _ in range(50):
        e = random_canonical_expr(rng, 6)
        value = evaluate(e, system, 3)
        assert isinstance(value, Dyadic)
