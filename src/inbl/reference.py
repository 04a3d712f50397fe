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
flip_prob the sign at clock 0 is +1 when bit 63 of _draw(seed, 0, _SALT_SIGN)
is 1, and the sign flips at clock t > 0 when _draw(seed, t, _SALT_FLIP) is
below flip_prob * 2**64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
# several wires holds rows x counters <= BLOCK_CLOCKS draws: a counter is a
# clock for the flip draws and a 64-clock word for the fair signs.
BLOCK_CLOCKS = 1 << 15

# offset of counter c0 + k from counter c0 on one stream, k < BLOCK_CLOCKS
_COUNTER_STEPS = np.arange(BLOCK_CLOCKS, dtype=np.uint64)
_COUNTER_STEPS *= np.uint64((2 * _GOLDEN) & _MASK64)

# bit positions 0..63 of a word, for windows that lie inside one word
_BIT_SHIFTS = np.arange(64, dtype=np.uint64)

# the finalizer's constants as numpy scalars, made once: on the few-row
# windows of a scan, building them per call costs as much as the arithmetic
_U1, _U27, _U30, _U31 = (np.uint64(k) for k in (1, 27, 30, 31))
_UMIX1, _UMIX2 = np.uint64(_MIX1), np.uint64(_MIX2)


def _draw_into(x: np.ndarray, tmp: np.ndarray, seeds: np.ndarray, c0: int, salt: int) -> None:
    """x[r, k] = _draw(seeds[r], c0 + k, salt), in place, for the column of
    stream seeds; tmp is scratch of x's shape (uint64 arithmetic wraps
    modulo 2**64)."""
    start = np.uint64((_GOLDEN * ((c0 << 1) | salt)) & _MASK64)
    if x.shape[1] == 1:  # one counter per row, as on a one-word window
        np.add(seeds, start, out=x)
    else:
        np.add(_COUNTER_STEPS[: x.shape[1]], seeds + start, out=x)
    np.right_shift(x, _U30, out=tmp)
    x ^= tmp
    x *= _UMIX1
    np.right_shift(x, _U27, out=tmp)
    x ^= tmp
    x *= _UMIX2
    np.right_shift(x, _U31, out=tmp)
    x ^= tmp


class ReferenceSystem:
    """M noise-bits worth of seeded reference wires.

    flip_prob is the per-clock probability that a wire's sign flips from its
    predecessor. At the default 1/2, successive signs are independent fair
    coin flips, 64 clocks to a draw, and every clock is addressable in O(1);
    other flip probabilities count flips from a per-wire anchor (the last
    clock counted and the sign there), forward or backward, whichever of the
    anchor and clock 0 is nearer, so scans that move forward or step back a
    little stay O(distance).
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
        # flip threshold on a 64-bit uniform draw
        self._flip_threshold = (flip_prob.numerator << 64) // flip_prob.denominator
        # per wire tag: the stream seed, and for flip_prob != 1/2 the anchor
        # (anchor clock, sign bit there), where sign bit 1 means +1
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

    def _start(self, wire: WireId, seed: int, t: int) -> Tuple[int, int]:
        """Where to count the sign at clock t from, as (clock, sign bit
        there): the wire's anchor, unless clock 0 is nearer."""
        anchor = self._anchors.get(wire.tag)
        if anchor is None or anchor[0] - t >= t:
            return 0, _draw(seed, 0, _SALT_SIGN) >> 63
        return anchor

    def _sign_bit(self, wire: WireId, seed: int, t: int) -> int:
        # the sign bit at t is the anchor's XOR the flips between the two
        a, bit = self._start(wire, seed, t)
        for k in range(min(a, t) + 1, max(a, t) + 1):
            if _draw(seed, k, _SALT_FLIP) < self._flip_threshold:
                bit ^= 1
        if t > a:
            self._anchors[wire.tag] = (t, bit)
        return bit

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
        return self.seeded_sign_rows(wires, self.seed_column(wires), t0, n)

    def seed_column(self, wires: Sequence[WireId]) -> np.ndarray:
        """The wires' stream seeds as one uint64 column, which a caller that
        draws the same wires window after window keeps and passes to
        seeded_sign_rows."""
        return np.array([self.wire_seed(w) for w in wires], dtype=np.uint64)[:, None]

    def seeded_sign_rows(self, wires: Sequence[WireId], seeds: np.ndarray,
                         t0: int, n: int) -> np.ndarray:
        """sign_rows, given seeds = seed_column(wires).

        Every draw is a pure function of its (wire, counter), so a block of
        rows x counters is one numpy pass, made in place on the system's two
        uint64 buffers of BLOCK_CLOCKS entries; at flip_prob 1/2 a counter is
        a word of 64 clocks, and a window inside one word draws one counter
        per row and shifts out its clocks. For flip_prob != 1/2 the wires
        whose anchors sit at the same clock are counted together, and each
        anchor is left at the last clock counted.
        """
        if t0 < 0:
            raise ValueError(f"clock must be >= 0, got {t0}")
        if self._buffers is None:
            self._buffers = (np.empty(BLOCK_CLOCKS, np.uint64), np.empty(BLOCK_CLOCKS, np.uint64))
        # bits[r, k] = 1 where wire r's sign at clock t0 + k is +1
        bits = np.empty((len(wires), n), dtype=np.int8)
        if n == 0:
            pass
        elif self._iid:
            self._fair_bits(seeds, t0, bits)
        elif self.flip_prob == 1:  # every clock flips: the sign bit at t is s0 ^ (t & 1)
            s0 = np.array([_draw(s, 0, _SALT_SIGN) >> 63 for s in seeds[:, 0].tolist()],
                          dtype=np.int8)
            bits[:, 0::2] = (s0 ^ (t0 & 1))[:, None]
            bits[:, 1::2] = (s0 ^ (t0 & 1) ^ 1)[:, None]
        else:
            # rows counted from the same clock share one pass
            starts = [self._start(w, s, t0) for w, s in zip(wires, seeds[:, 0].tolist())]
            groups: Dict[int, List[int]] = {}
            for r, (clock, _) in enumerate(starts):
                groups.setdefault(clock, []).append(r)
            for rows in groups.values():
                for i in range(0, len(rows), BLOCK_CLOCKS):
                    part = rows[i : i + BLOCK_CLOCKS]
                    bits[part] = self._flip_bits(
                        [wires[r] for r in part], seeds[part],
                        [starts[r][1] for r in part], starts[part[0]][0], t0, n)
        # sign = 2 * bit - 1; numpy adds int8 many times faster than it shifts them
        bits += bits
        bits -= 1
        return bits

    def _fair_bits(self, seeds: np.ndarray, t0: int, bits: np.ndarray) -> None:
        """Fill bits with the sign bits at flip_prob 1/2: the bit at clock t
        is bit t & 63 of the draw at counter t >> 6 (see the module doc)."""
        rows, n = bits.shape
        x, tmp = self._buffers
        w0 = t0 >> 6
        words = ((t0 + n - 1) >> 6) - w0 + 1
        if words == 1:
            # the window lies inside one word: shift it down to each clock's bit
            shifts = _BIT_SHIFTS[t0 & 63 : (t0 & 63) + n]
            g = BLOCK_CLOCKS // n
            for r in range(0, rows, g):
                h = min(g, rows - r)
                xv, tv = x[:h, None], tmp[: h * n].reshape(h, n)
                _draw_into(xv, tmp[:h, None], seeds[r : r + h], w0, _SALT_SIGN)
                np.right_shift(xv, shifts, out=tv)
                np.bitwise_and(tv, _U1, out=bits[r : r + h], casting="unsafe")
            return
        m = min(words, BLOCK_CLOCKS)
        g = BLOCK_CLOCKS // m
        for lo in range(0, words, m):
            k = min(m, words - lo)
            base = (w0 + lo) << 6  # clock of the first bit of this pass
            a, b = max(t0, base), min(t0 + n, base + (k << 6))  # window clocks in it
            for r in range(0, rows, g):
                h = min(g, rows - r)
                xv, tv = x[: h * k].reshape(h, k), tmp[: h * k].reshape(h, k)
                _draw_into(xv, tv, seeds[r : r + h], w0 + lo, _SALT_SIGN)
                # bit j of word i is clock base + 64 i + j on every host: the
                # words are read as little-endian bytes, each unpacked bit 0 first
                u = np.unpackbits(xv.astype("<u8", copy=False).view(np.uint8),
                                  axis=1, bitorder="little")
                bits[r : r + h, a - t0 : b - t0] = u[:, a - base : b - base]

    def _flip_bits(self, wires: Sequence[WireId], seeds: np.ndarray, start_bits: List[int],
                   a: int, t0: int, n: int) -> np.ndarray:
        """Sign bits over [t0, t0+n) of at most BLOCK_CLOCKS wires, counted
        from clock a, where their sign bits are start_bits (see _start).

        Flips are counted over (start, hi] as a parity relative to the start
        clock; the window's bits are written relative and the sign bits at
        the start are XORed in last. From an anchor before t0 the start is
        the anchor. Walking back from an anchor after t0, the start is t0,
        and its sign bits are the anchor's XOR the parity up to the anchor.
        """
        rows = len(wires)
        bits = np.empty((rows, n), dtype=np.int8)
        end = t0 + n - 1
        start, hi = (a, end) if a <= t0 else (t0, max(a, end))
        if t0 == start:
            bits[:, 0] = 0
        x, tmp = self._buffers
        threshold = np.uint64(self._flip_threshold)
        parity = np.zeros(rows, dtype=bool)  # relative parity at the last clock drawn
        at_anchor = parity
        m = BLOCK_CLOCKS // rows
        for lo in range(start + 1, hi + 1, m):
            k = min(m, hi + 1 - lo)
            xv, tv = x[: rows * k].reshape(rows, k), tmp[: rows * k].reshape(rows, k)
            _draw_into(xv, tv, seeds, lo, _SALT_FLIP)
            running = np.bitwise_xor.accumulate(xv < threshold, axis=1)
            running ^= parity[:, None]
            parity = running[:, -1]
            w0, w1 = max(lo, t0), min(lo + k - 1, end)  # window clocks in this block
            if w0 <= w1:
                bits[:, w0 - t0 : w1 - t0 + 1] = running[:, w0 - lo : w1 - lo + 1]
            if lo <= a < lo + k:
                at_anchor = running[:, a - lo]
        start_bits = np.array(start_bits, dtype=bool) ^ at_anchor
        bits ^= start_bits[:, None]
        if hi > a:
            for w, bit in zip(wires, start_bits ^ parity):
                self._anchors[w.tag] = (hi, int(bit))
        return bits
