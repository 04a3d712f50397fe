import math
from fractions import Fraction

import numpy as np
import pytest

from inbl.dyadic import Dyadic
from inbl.errors import InvalidWireError
from inbl.reference import BLOCK_CLOCKS, ReferenceSystem, RtwScheme, WireId, derive_wire_seed


def test_wire_id_validation():
    with pytest.raises(InvalidWireError):
        WireId(0, 0)
    with pytest.raises(InvalidWireError):
        WireId(1, 2)


def test_seed_derivation_injective_and_deterministic():
    s = 0xDEADBEEF
    wires = [WireId(i, v) for i in range(1, 65) for v in (0, 1)]
    seeds = [derive_wire_seed(s, w) for w in wires]
    assert len(set(seeds)) == len(wires)
    assert derive_wire_seed(s, WireId(3, 1)) == derive_wire_seed(s, WireId(3, 1))


def test_seed_derivation_collision_scan():
    # one million distinct master seeds, same wire: never a collision here
    wire = WireId(5, 1)
    seeds = {derive_wire_seed(s, wire) for s in range(1_000_000)}
    assert len(seeds) == 1_000_000


def test_asymmetric_value_domains():
    system = ReferenceSystem(3, RtwScheme.ASYMMETRIC, master_seed=7)
    for t in range(50):
        assert system.wire_value(WireId(2, 0), t) in (Dyadic(1, -1), Dyadic(-1, -1))
        assert system.wire_value(WireId(2, 1), t) in (Dyadic(1), Dyadic(-1))


def test_symmetric_value_domains():
    system = ReferenceSystem(3, RtwScheme.SYMMETRIC, master_seed=7)
    for t in range(50):
        assert system.wire_value(WireId(2, 0), t) in (Dyadic(1), Dyadic(-1))


def test_determinism():
    a = ReferenceSystem(4, master_seed=42)
    b = ReferenceSystem(4, master_seed=42)
    for t in (0, 1, 17, 999):
        for w in a.wires():
            assert a.wire_value(w, t) == b.wire_value(w, t)


def test_distinct_seeds_give_distinct_streams():
    a = ReferenceSystem(2, master_seed=1)
    b = ReferenceSystem(2, master_seed=2)
    w = WireId(1, 1)
    assert [a.wire_sign(w, t) for t in range(64)] != [b.wire_sign(w, t) for t in range(64)]


def test_zero_mean_all_wires():
    T = 10_000
    system = ReferenceSystem(4, master_seed=11)
    for w in system.wires():
        signs = system.sign_array(w, 0, T)
        assert abs(float(np.mean(signs))) <= 5 / math.sqrt(T)


def test_zero_mean_long_run():
    T = 1_000_000
    system = ReferenceSystem(2, master_seed=3)
    signs = system.sign_array(WireId(1, 0), 0, T)
    assert abs(float(np.mean(signs))) <= 5 / math.sqrt(T)


def test_pairwise_independence_proxy():
    T = 10_000
    system = ReferenceSystem(3, master_seed=5)
    wires = list(system.wires())
    arrays = {w: system.sign_array(w, 0, T) for w in wires}
    for i, wa in enumerate(wires):
        for wb in wires[i + 1 :]:
            corr = float(np.mean(arrays[wa] * arrays[wb]))
            assert abs(corr) <= 5 / math.sqrt(T)


def test_scalar_matches_vectorized():
    for flip in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 1)):
        system = ReferenceSystem(2, master_seed=9, flip_prob=flip)
        for w in system.wires():
            arr = system.sign_array(w, 3, 40)
            scalars = [system.wire_sign(w, t) for t in range(3, 43)]
            assert list(arr) == scalars


@pytest.mark.parametrize("flip", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 1)])
def test_sign_array_across_blocks_and_out_of_order(flip):
    # windows spanning several blocks, unaligned starts, and starts that go
    # backwards, which must restart the flip-parity count from clock 0
    n = 2 * BLOCK_CLOCKS + 777
    t_end = 5000 + n
    w = WireId(2, 1)
    scalar = ReferenceSystem(2, master_seed=17, flip_prob=flip)
    expected = np.array([scalar.wire_sign(w, t) for t in range(t_end)], dtype=np.int8)
    system = ReferenceSystem(2, master_seed=17, flip_prob=flip)
    windows = [(5000, n), (123, 4000), (BLOCK_CLOCKS - 9, 20), (0, 1), (t_end - 3, 3),
               (t_end - 1, 1), (0, BLOCK_CLOCKS + 1), (1, 0)]
    for t0, length in windows:
        signs = system.sign_array(w, t0, length)
        assert signs.dtype == np.int8
        assert np.array_equal(signs, expected[t0 : t0 + length]), (t0, length)
        # scalar reads through the parity cache the window left behind
        assert system.wire_sign(w, t0 + length // 2) == expected[t0 + length // 2]


def test_flip_prob_one_alternates():
    system = ReferenceSystem(1, master_seed=1, flip_prob=Fraction(1, 1))
    w = WireId(1, 1)
    signs = [system.wire_sign(w, t) for t in range(20)]
    assert all(signs[t] == -signs[t + 1] for t in range(19))


def test_flip_prob_rate():
    T = 20_000
    system = ReferenceSystem(1, master_seed=4, flip_prob=Fraction(1, 4))
    signs = system.sign_array(WireId(1, 0), 0, T)
    flips = float(np.mean(signs[1:] != signs[:-1]))
    assert abs(flips - 0.25) <= 5 * math.sqrt(0.25 * 0.75 / T)


def test_random_access_matches_forward_scan():
    # parity cache must give identical answers regardless of query order
    sa = ReferenceSystem(1, master_seed=8, flip_prob=Fraction(1, 3))
    sb = ReferenceSystem(1, master_seed=8, flip_prob=Fraction(1, 3))
    w = WireId(1, 0)
    forward = [sa.wire_sign(w, t) for t in range(100)]
    shuffled_order = [73, 2, 99, 0, 50, 50, 17, 88, 1]
    assert [sb.wire_sign(w, t) for t in shuffled_order] == [forward[t] for t in shuffled_order]


def test_invalid_wire_rejected():
    system = ReferenceSystem(2)
    with pytest.raises(InvalidWireError):
        system.wire_value(WireId(3, 0), 0)


def test_flip_prob_validation():
    with pytest.raises(ValueError):
        ReferenceSystem(1, flip_prob=Fraction(0))
    with pytest.raises(ValueError):
        ReferenceSystem(1, flip_prob=Fraction(3, 2))
    with pytest.raises(InvalidWireError):
        ReferenceSystem(0)
