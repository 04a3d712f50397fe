import math
from fractions import Fraction

import numpy as np
import pytest

from inbl.dyadic import Dyadic
from inbl.errors import InvalidWireError
from inbl.experiments import ConfigReader
from inbl.expr import Ref, Sum
from inbl.reference import (
    _SALT_FLIP,
    _SALT_SIGN,
    _TIE_KEY,
    BLOCK_CLOCKS,
    ReferenceSystem,
    RtwScheme,
    WireId,
    _draw,
    derive_wire_seed,
    mix64,
)

from conftest import wire_mask


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


@pytest.mark.parametrize(
    "flip", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 100), Fraction(1, 1), Fraction(1, 3)])
def test_sign_rows_match_wire_sign(flip):
    # several wires at once: windows spanning more than one block, unaligned
    # and backward starts, and wires whose scalar anchors sit at different
    # clocks
    n = 2 * BLOCK_CLOCKS + 777
    t_end = 3000 + n
    scalar = ReferenceSystem(3, master_seed=23, flip_prob=flip)
    wires = list(scalar.wires())
    expected = np.array([[scalar.wire_sign(w, t) for t in range(t_end)] for w in wires],
                        dtype=np.int8)
    system = ReferenceSystem(3, master_seed=23, flip_prob=flip)
    windows = [(3000, n), (123, 4000), (BLOCK_CLOCKS - 9, 20), (t_end - 5, 5), (0, 1),
               (t_end - 40, 30), (17, BLOCK_CLOCKS + 1), (5, 0)]
    if flip == Fraction(1, 2):
        # every start offset within a 64-clock word, inside one word and across
        windows += [(64 * 40 + off, length) for off in range(64) for length in (1, 63, 64, 65)]
    for t0, length in windows:
        signs = system.sign_rows(wires, t0, length)
        assert signs.dtype == np.int8 and signs.shape == (len(wires), length)
        assert np.array_equal(signs, expected[:, t0 : t0 + length]), (t0, length)
    # move the scalar anchors of single wires apart, then read all wires
    # again: the array path counts every wire from clock 0 whatever the
    # anchors, and the scalar path from its own anchors
    system.wire_sign(wires[0], t_end - 1)
    system.sign_array(wires[1], 40, 3)
    system.sign_rows(wires[2:4], 2000, 100)
    for t0, length in ((1990, 50), (30, 60), (t_end - 700, 700)):
        signs = system.sign_rows(wires[::-1], t0, length)
        assert np.array_equal(signs, expected[::-1, t0 : t0 + length]), (t0, length)
        for k, w in enumerate(wires):
            assert system.wire_sign(w, t0 + k) == expected[k, t0 + k]


def test_backward_reads_cost_their_distance(monkeypatch):
    from inbl import reference

    flip = Fraction(1, 100)
    far = 5 * BLOCK_CLOCKS
    w = WireId(1, 1)
    fresh = ReferenceSystem(1, master_seed=24, flip_prob=flip)
    expected = fresh.sign_array(w, 0, far + 1)
    system = ReferenceSystem(1, master_seed=24, flip_prob=flip)
    system.wire_sign(w, far)  # the scalar anchor at far
    drawn, scalar_draws = [], []
    real_draw_into, real_draw = reference._draw_into, reference._draw

    def counting_draw_into(x, tmp, *stream):
        drawn.append(x.size)
        return real_draw_into(x, tmp, *stream)

    def counting_draw(seed, t, salt):
        scalar_draws.append(t)
        return real_draw(seed, t, salt)

    monkeypatch.setattr(reference, "_draw_into", counting_draw_into)
    monkeypatch.setattr(reference, "_draw", counting_draw)
    # a scalar read 10 clocks behind its anchor walks back 10 clocks, 4 to a draw
    assert system.wire_sign(w, far - 10) == expected[far - 10]
    assert len(scalar_draws) <= -(-10 // 4) + 1 and not drawn
    # a read nearer to clock 0 than to the anchor counts from clock 0
    del drawn[:], scalar_draws[:]
    assert np.array_equal(system.sign_array(w, 20, 5), expected[20:25])
    assert sum(drawn) <= 7  # clocks 1..24
    del drawn[:], scalar_draws[:]
    assert system.wire_sign(w, 30) == expected[30]
    assert len(scalar_draws) <= 31
    # re-reading the whole window from clock 0 draws it once, not twice
    system.sign_array(w, 0, far)
    del drawn[:], scalar_draws[:]
    assert np.array_equal(system.sign_array(w, 0, far), expected[:far])
    assert sum(drawn) == far // 4  # clocks 1..far - 1
    # the array path never walks back: a start after the window is refused
    with pytest.raises(ValueError):
        system.draw_sign_rows(np.empty((1, 3), np.int8), system.seed_column([w]), 10,
                              (11, np.ones(1, dtype=bool)))

    # a sign stream counts on from the block it holds: a read that crosses
    # the block's end draws its word-aligned cover's flips, 4 clocks to a
    # draw, and a read before the block counts from clock 0
    wires = [WireId(1, 0), w]
    expr = Sum(((1, Ref(wires[0])), (2, Ref(w))))
    stream_system = ReferenceSystem(1, RtwScheme.SYMMETRIC, master_seed=24, flip_prob=flip)
    want = np.array([1, 2]) @ fresh.sign_rows(wires, 0, far + 1).astype(np.int64)
    reader = ConfigReader(expr, stream_system, [wire_mask(frozenset())])
    stream = reader.stream
    for t0, n, crosses in ((far - 200, 10, False), (far - 130, 5, True), (far - 70, 60, True),
                           (20, 5, False)):
        assert crosses == (stream.start <= t0 < stream.start + stream.block.shape[1] < t0 + n)
        del drawn[:]
        ints, _ = reader.read(t0, n)
        assert np.array_equal(ints[0], want[t0 : t0 + n]), (t0, n)
        if crosses:
            assert sum(drawn) <= len(wires) * (stream.block.shape[1] // 4 + 1), (t0, n)
    assert stream.start == 0 and sum(drawn) == len(wires) * 64 // 4  # clocks 1..63


# the fair-sign layout: clock t is bit t & 63 of the draw at counter t >> 6
FAIR_CLOCKS = (0, 1, 63, 64, 65, 3 * 2**15 + 5, 2**40 + 7)


def _fair_signs(system, wire, t0, n):
    """Signs over [t0, t0 + n) straight from the layout's definition."""
    seed = system.wire_seed(wire)
    words = np.array([_draw(seed, c, _SALT_SIGN) for c in range(t0 >> 6, ((t0 + n - 1) >> 6) + 1)],
                     dtype=np.uint64)
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.reshape(-1)[t0 & 63 : (t0 & 63) + n].astype(np.int8)
    return 2 * bits - 1


def _flip_signs(system, wire, t0, n):
    """Signs over [t0, t0 + n) at flip_prob != 1/2 straight from the lane
    and tie definition, counted from clock 0; also the tie clocks."""
    p, seed = system.flip_prob, system.wire_seed(wire)
    words = np.array([_draw(seed, c, _SALT_FLIP) for c in range(((t0 + n - 1) >> 2) + 1)],
                     dtype=np.uint64)
    # clock t is lane t & 3 of word t >> 2, lane j bits 16j..16j+15
    lanes = ((words[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)).ravel()
    threshold = math.floor(p * 2**16)
    flips = lanes < threshold
    ties = [t for t in np.flatnonzero(lanes == threshold).tolist() if t > 0]
    for t in ties:
        rest, depth = p * 2**16 - threshold, 0  # the fraction part, digit by digit
        while True:
            digit = math.floor(rest * 2**64)
            rest = rest * 2**64 - digit
            draw = _draw(mix64(seed ^ _TIE_KEY ^ depth), t, _SALT_SIGN)
            if draw != digit:
                flips[t] = draw < digit
                break
            depth += 1
    flips[0] = _draw(seed, 0, _SALT_SIGN) >> 63  # the sign bit at clock 0
    bits = np.bitwise_xor.accumulate(flips)[t0 : t0 + n].astype(np.int8)
    return 2 * bits - 1, [t for t in ties if t < t0 + n]


# lane and draw edges (1, 3, 4, 5), the clock BLOCK_CLOCKS, and a clock past
# the first pass of BLOCK_CLOCKS flip draws of one row (2**17 clocks)
FLIP_CLOCKS = (1, 3, 4, 5, 2**15 - 1, 2**15, 2**15 + 1, 2**17 + 3)


@pytest.mark.parametrize("flip", [Fraction(1, 8), Fraction(1, 3), Fraction(1, 100), Fraction(3, 4)])
def test_flip_sign_is_a_lane_of_a_flip_draw(flip):
    system = ReferenceSystem(2, master_seed=0x5EED, flip_prob=flip)
    scalar = ReferenceSystem(2, master_seed=0x5EED, flip_prob=flip)
    n = FLIP_CLOCKS[-1] + 2
    for w in system.wires():
        want, _ = _flip_signs(system, w, 0, n)
        for t in FLIP_CLOCKS:
            assert scalar.wire_sign(w, t) == want[t], (w, t)
            assert system.sign_array(w, t, 1)[0] == want[t], (w, t)
            assert np.array_equal(system.sign_array(w, t - 1, 3), want[t - 1 : t + 2]), (w, t)
        assert np.array_equal(system.sign_array(w, 0, n), want), w


def test_ties_are_settled_alike_by_every_path(monkeypatch):
    # at p = 1/3 a lane equals floor(p * 2**16) with probability 2**-16, so
    # 2**20 clocks on each of 2 wires see about 32 ties in all
    T = 1 << 20
    flip = Fraction(1, 3)
    system = ReferenceSystem(1, master_seed=1976, flip_prob=flip)
    wires = list(system.wires())
    seen = []
    real_tie_flips = ReferenceSystem._tie_flips

    def counting_tie_flips(self, seed, t):
        seen.append((seed, t))
        return real_tie_flips(self, seed, t)

    monkeypatch.setattr(ReferenceSystem, "_tie_flips", counting_tie_flips)
    rows = system.sign_rows(wires, 0, T)
    vector_ties = list(seen)
    assert 8 <= len(vector_ties) <= 64, len(vector_ties)
    scalar = ReferenceSystem(1, master_seed=1976, flip_prob=flip)
    for r, w in enumerate(wires):
        want, ties = _flip_signs(system, w, 0, T)
        assert np.array_equal(rows[r], want), w
        assert sorted(t for seed, t in vector_ties if seed == system.wire_seed(w)) == ties
        for t in ties:
            assert scalar.wire_sign(w, t) == want[t] and scalar.wire_sign(w, t + 1) == want[t + 1]


@pytest.mark.parametrize("flip, seed", [(Fraction(1, 3), 33), (Fraction(1, 100), 100)])
def test_flip_rate_is_the_flip_prob(flip, seed):
    T = 1 << 20
    system = ReferenceSystem(1, master_seed=seed, flip_prob=flip)
    signs = system.sign_array(WireId(1, 1), 0, T)
    p = float(flip)
    assert abs(float(np.mean(signs[1:] != signs[:-1])) - p) <= 3 * math.sqrt(p * (1 - p) / (T - 1))


def test_fair_sign_is_one_bit_of_a_word_draw():
    system = ReferenceSystem(3, master_seed=0x5EED)
    for w in system.wires():
        seed = system.wire_seed(w)
        for t in FAIR_CLOCKS:
            want = 1 if _draw(seed, t >> 6, _SALT_SIGN) >> (t & 63) & 1 else -1
            assert system.wire_sign(w, t) == want, (w, t)
            assert system.sign_array(w, t, 1)[0] == want, (w, t)


def test_fair_windows_in_several_passes():
    # rows x words above the buffer size: the rows are drawn in groups, over
    # a window that crosses the clock BLOCK_CLOCKS
    system = ReferenceSystem(40, master_seed=77)
    wires = list(system.wires())
    t0, n = BLOCK_CLOCKS - 100, 64 * (BLOCK_CLOCKS // len(wires)) + 300
    assert len(wires) * (((t0 + n - 1) >> 6) - (t0 >> 6) + 1) > BLOCK_CLOCKS
    signs = system.sign_rows(wires, t0, n)
    for r in (0, 1, 38, 39, 40, 79):
        assert np.array_equal(signs[r], _fair_signs(system, wires[r], t0, n)), r
    rng = np.random.default_rng(0)
    for r, k in zip(rng.integers(0, len(wires), 200), rng.integers(0, n, 200)):
        assert signs[r, k] == system.wire_sign(wires[r], t0 + int(k))
    # more words than the buffer holds: one row is drawn in several passes
    t0, n = 64 * 5 + 9, 64 * BLOCK_CLOCKS + 500
    pair = wires[:2]
    signs = system.sign_rows(pair, t0, n)
    for r, w in enumerate(pair):
        assert np.array_equal(signs[r], _fair_signs(system, w, t0, n)), r


def test_fair_signs_serially_independent():
    # lags 1-64 pair clocks inside one draw and clocks of adjacent draws
    T = 1 << 20
    system = ReferenceSystem(2, master_seed=31)
    signs = system.sign_rows(list(system.wires()), 0, T).astype(np.int32)
    for lag in range(1, 65):
        corr = (signs[:, :-lag] * signs[:, lag:]).mean(axis=1)
        assert np.all(np.abs(corr) <= 5 / math.sqrt(T)), (lag, corr)


# sign strings of two wires over clocks 1000-1099 at master seed 20261025.
# The flip 1/8 strings were recaptured when the flip draws became 4 clocks
# of 16-bit lanes (they agree with _flip_signs, the definition); the flip 1
# strings are older and must not move. At this seed bit 62 of each wire's
# counter-0 sign draw differs from bit 63, and the two wires start with
# opposite signs.
GOLDEN_SIGNS = {
    Fraction(1, 8): (
        "--------++++--+++---+++++++++++------------+++----+++++++---------++++----------------+++++++++-----",
        "---------+++++----+++++++++++++++++++-----++-------------------------++-----+++--+++++++-++++-------",
    ),
    Fraction(1, 1): (
        "-+" * 50,
        "+-" * 50,
    ),
}


@pytest.mark.parametrize("flip", sorted(GOLDEN_SIGNS))
def test_flip_streams_are_pinned(flip):
    wires = (WireId(1, 0), WireId(2, 1))
    system = ReferenceSystem(2, master_seed=20261025, flip_prob=flip)
    rows = system.sign_rows(wires, 1000, 100)
    scalar = ReferenceSystem(2, master_seed=20261025, flip_prob=flip)
    for w, row, want in zip(wires, rows, GOLDEN_SIGNS[flip]):
        assert "".join("+" if v > 0 else "-" for v in row) == want
        assert np.array_equal(row, _flip_signs(system, w, 1000, 100)[0])
        assert "".join("+" if scalar.wire_sign(w, t) > 0 else "-" for t in range(1000, 1100)) == want
