"""Seeded random-telegraph reference wires.

A system of M noise-bits exposes 2M reference wires, each carrying a
two-valued zero-mean random telegraph wave. Values are pure functions of
(master_seed, wire, clock): the generator is counter-based, so any clock can
be replayed or sampled out of order without stepping hidden state.

Each wire has a stream seed, derive_wire_seed(master_seed, wire), and a
stream draw is the SplitMix64 finalizer of that seed plus a counter
(_draw(seed, counter, salt)). At flip_prob 1/2 one draw gives 64 clocks:
the sign of the wire at clock t is +1 exactly when bit t & 63 (bit 0 the
least significant) of _draw(seed, t >> 6, _SALT_SIGN) is 1. At any other
flip_prob p the sign at clock 0 is +1 when bit 63 of _draw(seed, 0, _SALT_SIGN)
is 1, and one flip draw gives 4 clocks: clock t > 0 reads lane t & 3 of
_draw(seed, t >> 2, _SALT_FLIP), lane j being bits 16j..16j+15, and the sign
flips at clock t when that lane is below floor(p * 2**16). A lane equal to
it is a tie, settled by lazy comparison (Knuth and Yao, 1976): tie draw d of
clock t, _draw(mix64(seed ^ _TIE_KEY ^ d), t, _SALT_SIGN) for d = 0, 1, ...,
is compared with 64-bit digit d of the fraction part of p * 2**16 (digit 0
the most significant), and the clock flips when the first draw that differs
from its digit is below it. So P(flip) = p exactly; a p whose denominator
divides 2**16 never ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .dyadic import Dyadic
from .errors import InvalidWireError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# stream salts: initial-sign draws vs flip draws never share a counter
_SALT_SIGN = 0
_SALT_FLIP = 1
# tie draws have their own stream seeds, mix64(seed ^ _TIE_KEY ^ depth)
_TIE_KEY = 0xD6E8FEB86659FD93


def mix64(x: int) -> int:
    """SplitMix64 finalizer; a 64-bit bijection with good avalanche."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class WireId:
    """One reference wire: carries bit value `bit_value` of noise-bit `bit_index`."""

    bit_index: int  # 1-based
    bit_value: int  # 0 or 1
    # (bit_index << 1) | bit_value: an int key, cheaper to hash than the
    # dataclass, for the per-wire tables of the hot paths
    tag: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bit_index < 1:
            raise InvalidWireError(f"bit_index must be >= 1, got {self.bit_index}")
        if self.bit_value not in (0, 1):
            raise InvalidWireError(f"bit_value must be 0 or 1, got {self.bit_value}")
        object.__setattr__(self, "tag", (self.bit_index << 1) | self.bit_value)

    def __hash__(self) -> int:
        return self.tag


@lru_cache(maxsize=None)
def wire_id(bit_index: int, bit_value: int) -> WireId:
    """Interned WireId: the hot paths' sets and per-wire tables then find
    it by identity before they compare fields."""
    return WireId(bit_index, bit_value)


class RtwScheme(Enum):
    # Asymmetric: High wires swing +/-1, Low wires +/-1/2, which keeps sums
    # of a bit's two wires (and hence the Universe) away from zero.
    ASYMMETRIC = "asym"
    SYMMETRIC = "sym"

    def magnitude_exp2(self, bit_value: int) -> int:
        """log2 of the wire's amplitude magnitude."""
        if self is RtwScheme.ASYMMETRIC and bit_value == 0:
            return -1
        return 0


def derive_wire_seed(master_seed: int, wire: WireId) -> int:
    """Per-wire stream seed; injective over wires for a fixed master seed."""
    return mix64(mix64(master_seed ^ _GOLDEN) ^ wire.tag)


def _draw(seed: int, t: int, salt: int) -> int:
    """64-bit uniform draw for counter t on the given per-wire stream."""
    return mix64((seed + _GOLDEN * ((t << 1) | salt)) & _MASK64)


# Clocks per vectorized block: the few uint64 buffers a block needs stay in
# cache, and memory stays O(block) however long the window is. One pass over
# several wires holds rows x counters <= BLOCK_CLOCKS draws: a counter is 4
# clocks for the flip draws and a 64-clock word for the fair signs.
BLOCK_CLOCKS = 1 << 15

# offset of counter c0 + k from counter c0 on one stream, k < BLOCK_CLOCKS
_COUNTER_STEPS = np.arange(BLOCK_CLOCKS, dtype=np.uint64)
_COUNTER_STEPS *= np.uint64((2 * _GOLDEN) & _MASK64)

# words unpacked at once into one byte per clock: beside the rows it
# writes, a window's draw holds at most 128 KiB of unpacked bits (smaller
# pieces cost more calls than they save in memory)
_UNPACK_WORDS = 1 << 11

# the finalizer's constants as numpy scalars, made once: on the few-row
# windows of a scan, building them per call costs as much as the arithmetic
_U27, _U30, _U31 = (np.uint64(k) for k in (27, 30, 31))
_UMIX1, _UMIX2 = np.uint64(_MIX1), np.uint64(_MIX2)


def _draw_into(x: np.ndarray, tmp: np.ndarray, seeds: np.ndarray, c0: int, salt: int) -> None:
    """x[r, k] = _draw(seeds[r], c0 + k, salt), in place, for the column of
    stream seeds; tmp is scratch of x's shape (uint64 arithmetic wraps
    modulo 2**64)."""
    start = np.uint64((_GOLDEN * ((c0 << 1) | salt)) & _MASK64)
    np.add(_COUNTER_STEPS[: x.shape[1]], seeds + start, out=x)
    _mix_into(x, tmp)


def _mix_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """x = mix64(x), elementwise and in place; tmp is scratch of x's shape."""
    np.right_shift(x, _U30, out=tmp)
    x ^= tmp
    x *= _UMIX1
    np.right_shift(x, _U27, out=tmp)
    x ^= tmp
    x *= _UMIX2
    np.right_shift(x, _U31, out=tmp)
    x ^= tmp


_U63 = np.uint64(63)
_PREFIX_SHIFTS = tuple(np.uint64(1 << k) for k in range(6))


def _first_bits(seeds: np.ndarray) -> np.ndarray:
    """The sign bits at clock 0 of the column of stream seeds at flip_prob !=
    1/2, as uint8: bit 63 of _draw(seed, 0, _SALT_SIGN) = mix64(seed)."""
    x = seeds[:, 0].copy()
    _mix_into(x, np.empty_like(x))
    return (x >> _U63).astype(np.uint8)


def _parity_prefix(flips: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """running[r, j] = carry[r] ^ flips[r, 0] ^ ... ^ flips[r, j], as bool.

    A larger pass is packed 64 clocks to a word (clock j its bit j on every
    host), prefix-XORed in each word by 6 shift-XOR steps, and the words'
    parities are carried by one accumulate over words: about 0.2 ns a clock
    after some 25 us of calls, against 1.5 ns for a bool accumulate.
    """
    rows, n = flips.shape
    if flips.size < 1 << 14:
        running = np.bitwise_xor.accumulate(flips, axis=1)
        running ^= carry[:, None]
        return running
    packed = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(flips, axis=1, bitorder="little")
    w = packed.view("<u8")
    tmp = np.empty_like(w)
    for s in _PREFIX_SHIFTS:
        np.left_shift(w, s, out=tmp)
        w ^= tmp
    # before[:, i] = the parity before word i: carry ^ the parities of words < i
    before = np.empty_like(w)
    before[:, 0] = carry
    np.right_shift(w[:, :-1], _U63, out=before[:, 1:])
    np.bitwise_xor.accumulate(before, axis=1, out=before)
    w ^= np.negative(before, out=before)  # 0 or all ones
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


class ReferenceSystem:
    """M noise-bits worth of seeded reference wires.

    flip_prob is the exact per-clock probability that a wire's sign flips
    from its predecessor. At the default 1/2, successive signs are independent
    fair coin flips, 64 clocks to a draw, and every clock is addressable in
    O(1); other flip probabilities, 4 clocks to a draw, count flips from a
    start clock whose sign is known. The array path counts forward from the
    start its caller passes, else from clock 0, and keeps no state between
    calls. The scalar path counts from a per-wire anchor of its own (the
    last clock it counted and the sign there), forward or backward,
    whichever of the anchor and clock 0 is nearer, so scans that move
    forward or step back a little stay O(distance).
    """

    def __init__(
        self,
        num_bits: int,
        scheme: RtwScheme = RtwScheme.ASYMMETRIC,
        master_seed: int = 0,
        flip_prob: Fraction = Fraction(1, 2),
    ):
        if num_bits < 1:
            raise InvalidWireError(f"num_bits must be >= 1, got {num_bits}")
        flip_prob = Fraction(flip_prob)
        if not (0 < flip_prob <= 1):
            raise ValueError(f"flip_prob must be in (0, 1], got {flip_prob}")
        self.num_bits = num_bits
        self.scheme = scheme
        self.master_seed = master_seed & _MASK64
        self.flip_prob = flip_prob
        self._iid = flip_prob == Fraction(1, 2)
        # lanes flip below floor(p * 2**16); a tie reads the digits of the
        # fraction part _tie_rem / flip_prob.denominator (0: never a tie).
        # At flip_prob 1 the threshold is 2**16, above every 16-bit lane, so
        # every clock flips and none ties
        self._lane_threshold, self._tie_rem = divmod(flip_prob.numerator << 16,
                                                     flip_prob.denominator)
        # per wire tag: the stream seed, and for flip_prob != 1/2 the scalar
        # path's anchor, (clock, sign bit there), the bit 1 meaning +1
        self._seeds: Dict[int, int] = {}
        self._anchors: Dict[int, Tuple[int, int]] = {}
        # two uint64 draw buffers of BLOCK_CLOCKS entries, made on first use
        # and reused by every sign_rows call, so one system is not safe to
        # share between threads
        self._buffers: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # the four possible values, interned so eval never reallocates them
        self._values = {
            (bv, sign): Dyadic(sign, scheme.magnitude_exp2(bv))
            for bv in (0, 1)
            for sign in (1, -1)
        }

    def wires(self) -> Iterator[WireId]:
        for i in range(1, self.num_bits + 1):
            yield wire_id(i, 0)
            yield wire_id(i, 1)

    def check_wire(self, wire: WireId) -> None:
        if not 1 <= wire.bit_index <= self.num_bits:
            raise InvalidWireError(
                f"wire bit_index {wire.bit_index} out of range 1..{self.num_bits}"
            )

    def wire_seed(self, wire: WireId) -> int:
        s = self._seeds.get(wire.tag)
        if s is None:
            self.check_wire(wire)
            s = self._seeds[wire.tag] = derive_wire_seed(self.master_seed, wire)
        return s

    def wire_sign(self, wire: WireId, t: int) -> int:
        """Sign (+1/-1) of the wire at clock t."""
        if t < 0:
            raise ValueError(f"clock must be >= 0, got {t}")
        seed = self.wire_seed(wire)
        if self._iid:
            return 1 if _draw(seed, t >> 6, _SALT_SIGN) >> (t & 63) & 1 else -1
        return 1 if self._sign_bit(wire, seed, t) else -1

    def _sign_bit(self, wire: WireId, seed: int, t: int) -> int:
        # the sign bit at t is the anchor's XOR the flips between the two;
        # count from clock 0 where it is nearer or the wire has no anchor
        a, bit = self._anchors.get(wire.tag, (-1, 0))
        if not 0 <= a < 2 * t:
            a, bit = 0, _draw(seed, 0, _SALT_SIGN) >> 63
        threshold, counter, word = self._lane_threshold, -1, 0
        for k in range(min(a, t) + 1, max(a, t) + 1):
            if k >> 2 != counter:
                counter = k >> 2
                word = _draw(seed, counter, _SALT_FLIP)
            lane = word >> ((k & 3) << 4) & 0xFFFF
            if lane < threshold or lane == threshold and self._tie_flips(seed, k):
                bit ^= 1
        if t > a:
            self._anchors[wire.tag] = t, bit
        return bit

    def _tie_flips(self, seed: int, t: int) -> bool:
        """Whether clock t, whose lane equals the lane threshold, flips: tie
        draws against the fraction digits, to the first that differs."""
        rem, depth = self._tie_rem, 0
        while rem:  # once it is 0, every digit left is 0 and no draw is below
            digit, rem = divmod(rem << 64, self.flip_prob.denominator)
            draw = _draw(mix64(seed ^ _TIE_KEY ^ depth), t, _SALT_SIGN)
            if draw != digit:
                return draw < digit
            depth += 1
        return False

    def wire_value(self, wire: WireId, t: int) -> Dyadic:
        """Exact amplitude of the wire at clock t."""
        return self._values[(wire.bit_value, self.wire_sign(wire, t))]

    # --- vectorized path: whole windows of clocks, block by block ---

    def sign_array(self, wire: WireId, t0: int, n: int) -> np.ndarray:
        """Signs (int8 +1/-1) over clocks [t0, t0+n); bit-identical to wire_sign."""
        return self.sign_rows([wire], t0, n)[0]

    def sign_rows(self, wires: Sequence[WireId], t0: int, n: int) -> np.ndarray:
        """Signs (int8 +1/-1) of distinct wires over clocks [t0, t0+n): row r
        is wires[r], bit-identical to wire_sign."""
        signs = np.empty((len(wires), n), dtype=np.int8)
        self.draw_sign_rows(signs, self.seed_column(wires), t0)
        return signs

    def seed_column(self, wires: Sequence[WireId]) -> np.ndarray:
        """The wires' stream seeds as one uint64 column, which a caller that
        draws the same wires window after window keeps and passes to
        draw_sign_rows."""
        return np.array([self.wire_seed(w) for w in wires], dtype=np.uint64)[:, None]

    def draw_sign_rows(self, bits: np.ndarray, seeds: np.ndarray, t0: int,
                       start: Optional[Tuple[int, np.ndarray]] = None) -> None:
        """Write sign_rows(wires, t0, n) into bits, an int8 array (or view)
        of len(wires) x n, given seeds = seed_column(wires).

        Every draw is a pure function of its (wire, counter), so a block of
        rows x counters is one numpy pass, made in place on the system's two
        uint64 buffers of BLOCK_CLOCKS entries; at flip_prob 1/2 a counter is
        a word of 64 clocks. At any other flip_prob a counter is 4 clocks,
        and flips are counted forward from start = (a clock a <= t0, the
        rows' sign bits there as bool or 0/1 uint8), else from clock 0;
        flip_prob 1/2 ignores start. No call leaves state behind: the
        evaluator's sign stream (experiments._SignStream) passes as start the
        last clock of its block at or before t0.
        """
        if t0 < 0:
            raise ValueError(f"clock must be >= 0, got {t0}")
        if self._buffers is None:
            self._buffers = (np.empty(BLOCK_CLOCKS, np.uint64), np.empty(BLOCK_CLOCKS, np.uint64))
        if not bits.size:
            return
        if not self._iid:
            a, start_bits = (0, _first_bits(seeds)) if start is None else start
            if a > t0:
                raise ValueError(f"flips are counted forward: start {a} is after {t0}")
        # bits[r, k] = 1 where wire r's sign at clock t0 + k is +1
        for i in range(0, len(seeds), BLOCK_CLOCKS):
            rows = slice(i, i + BLOCK_CLOCKS)
            if self._iid:
                self._fair_bits(bits[rows], seeds[rows], t0)
            else:
                self._flip_bits(bits[rows], seeds[rows], start_bits[rows], a, t0)
        # sign = 2 * bit - 1; numpy adds int8 many times faster than it shifts them
        bits += bits
        bits -= 1

    def _fair_bits(self, bits: np.ndarray, seeds: np.ndarray, t0: int) -> None:
        """Fill bits (at most BLOCK_CLOCKS rows) with the sign bits at flip_prob
        1/2: the bit at clock t is bit t & 63 of the draw at counter t >> 6."""
        rows, n = bits.shape
        end = t0 + n - 1
        x, tmp = self._buffers
        m = BLOCK_CLOCKS // rows  # words per row in one pass, 64 clocks each
        step = max(1, _UNPACK_WORDS // rows)
        for c in range(t0 >> 6, (end >> 6) + 1, m):
            k = min(m, (end >> 6) + 1 - c)
            xv, tv = x[: rows * k].reshape(rows, k), tmp[: rows * k].reshape(rows, k)
            _draw_into(xv, tv, seeds, c, _SALT_SIGN)
            # bit j of word i is clock 64 (c + i) + j on every host: the words
            # are read as little-endian bytes, each unpacked bit 0 first, at
            # most _UNPACK_WORDS words at a time
            xb = xv.astype("<u8", copy=False).view(np.uint8)
            for i in range(0, k, step):
                base = (c + i) << 6  # clock of the first bit unpacked
                lo, up = max(t0, base), min(end + 1, (c + min(i + step, k)) << 6)
                u = np.unpackbits(xb[:, i << 3 : (i + step) << 3], axis=1, bitorder="little")
                bits[:, lo - t0 : up - t0] = u[:, lo - base : up - base]

    def _flip_bits(self, bits: np.ndarray, seeds: np.ndarray, start_bits: np.ndarray,
                   a: int, t0: int) -> None:
        """Write the sign bits over [t0, t0+n) of at most BLOCK_CLOCKS wires
        into bits, counted from clock a <= t0, where their sign bits are
        start_bits: the flips over (a, t0+n-1] make a running parity that
        starts from start_bits and is the sign bit at every clock."""
        rows, n = bits.shape
        end = t0 + n - 1
        parity = start_bits.view(bool)  # at the last clock counted
        if t0 == a:
            bits[:, 0] = parity
        x, tmp = self._buffers
        m = BLOCK_CLOCKS // rows  # flip draws per row in one pass, 4 clocks each
        for c in range((a + 1) >> 2, (end >> 2) + 1 if end > a else 0, m):
            k = min(m, (end >> 2) + 1 - c)
            xv, tv = x[: rows * k].reshape(rows, k), tmp[: rows * k].reshape(rows, k)
            _draw_into(xv, tv, seeds, c, _SALT_FLIP)
            lo, up = max(c << 2, a + 1), min((c + k) << 2, end + 1)  # clocks counted here
            # lane j is bits 16j..16j+15 on every host: clock 4c + i at column i
            lanes = xv.astype("<u8", copy=False).view("<u2")[:, lo - (c << 2) : up - (c << 2)]
            flips = lanes < self._lane_threshold
            if self._tie_rem:
                for i in np.flatnonzero(lanes == self._lane_threshold).tolist():
                    r, j = divmod(i, up - lo)
                    flips[r, j] = self._tie_flips(int(seeds[r, 0]), lo + j)
            running = _parity_prefix(flips, parity)
            parity = running[:, -1]
            if t0 < up:  # window clocks in this pass
                w0 = max(lo, t0)
                bits[:, w0 - t0 : up - t0] = running[:, w0 - lo :]
