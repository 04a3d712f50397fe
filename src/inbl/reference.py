"""Seeded random-telegraph reference wires.

A system of M noise-bits exposes 2M reference wires, each carrying a
two-valued zero-mean random telegraph wave. Values are pure functions of
(master_seed, wire, clock): the generator is counter-based, so any clock can
be replayed or sampled out of order without stepping hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

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

    def __post_init__(self):
        if self.bit_index < 1:
            raise InvalidWireError(f"bit_index must be >= 1, got {self.bit_index}")
        if self.bit_value not in (0, 1):
            raise InvalidWireError(f"bit_value must be 0 or 1, got {self.bit_value}")


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
    tag = (wire.bit_index << 1) | wire.bit_value
    return mix64(mix64(master_seed ^ _GOLDEN) ^ tag)


def _draw(seed: int, t: int, salt: int) -> int:
    """64-bit uniform draw for counter t on the given per-wire stream."""
    return mix64((seed + _GOLDEN * ((t << 1) | salt)) & _MASK64)


# Clocks per vectorized block: the few uint64 buffers a block needs stay in
# cache, and memory stays O(block) however long the window is.
BLOCK_CLOCKS = 1 << 15

# counter offset of clock t0 + k from clock t0 on one stream, k < BLOCK_CLOCKS
_COUNTER_STEPS = np.arange(BLOCK_CLOCKS, dtype=np.uint64)
_COUNTER_STEPS *= np.uint64((2 * _GOLDEN) & _MASK64)


def _draw_into(x: np.ndarray, tmp: np.ndarray, seed: int, t0: int, salt: int,
               final_round: bool = True) -> None:
    """x[k] = _draw(seed, t0 + k, salt) for every k < len(x), in place.

    The final `x ^ (x >> 31)` round never changes bit 63, so callers that only
    read the sign bit skip it with final_round=False.
    """
    n = len(x)
    np.add(_COUNTER_STEPS[:n], np.uint64((seed + _GOLDEN * ((t0 << 1) | salt)) & _MASK64), out=x)
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= np.uint64(_MIX2)
    if final_round:
        np.right_shift(x, np.uint64(31), out=tmp)
        x ^= tmp


class ReferenceSystem:
    """M noise-bits worth of seeded reference wires.

    flip_prob is the per-clock probability that a wire's sign flips from its
    predecessor. At the default 1/2, successive signs are independent fair
    coin flips and every clock is addressable in O(1); other flip
    probabilities fall back to counting flip parity from clock 0 (cached
    forward, so monotone scans stay O(1) amortized).
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
        self._seeds: Dict[WireId, int] = {}
        # parity cache per wire for flip_prob != 1/2: (last clock, parity)
        self._parity: Dict[WireId, Tuple[int, int]] = {}
        # two uint64 draw buffers of BLOCK_CLOCKS entries, made on first use
        # and reused by every sign_array call, so one system is not safe to
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
            yield WireId(i, 0)
            yield WireId(i, 1)

    def check_wire(self, wire: WireId) -> None:
        if not 1 <= wire.bit_index <= self.num_bits:
            raise InvalidWireError(
                f"wire bit_index {wire.bit_index} out of range 1..{self.num_bits}"
            )

    def wire_seed(self, wire: WireId) -> int:
        s = self._seeds.get(wire)
        if s is None:
            self.check_wire(wire)
            s = derive_wire_seed(self.master_seed, wire)
            self._seeds[wire] = s
        return s

    def wire_sign(self, wire: WireId, t: int) -> int:
        """Sign (+1/-1) of the wire at clock t."""
        if t < 0:
            raise ValueError(f"clock must be >= 0, got {t}")
        seed = self.wire_seed(wire)
        if self._iid:
            return 1 if _draw(seed, t, _SALT_SIGN) >> 63 else -1
        s0 = 1 if _draw(seed, 0, _SALT_SIGN) >> 63 else -1
        return s0 if self._flip_parity(wire, seed, t) == 0 else -s0

    def _flip_parity(self, wire: WireId, seed: int, t: int) -> int:
        last, parity = self._parity.get(wire, (0, 0))
        if t < last:
            last, parity = 0, 0
        for k in range(last + 1, t + 1):
            if _draw(seed, k, _SALT_FLIP) < self._flip_threshold:
                parity ^= 1
        if t > last:
            self._parity[wire] = (t, parity)
        return parity

    def wire_value(self, wire: WireId, t: int) -> Dyadic:
        """Exact amplitude of the wire at clock t."""
        return self._values[(wire.bit_value, self.wire_sign(wire, t))]

    # --- vectorized path: whole windows of clocks, block by block ---

    def sign_array(self, wire: WireId, t0: int, n: int) -> np.ndarray:
        """Signs (int8 +1/-1) over clocks [t0, t0+n); bit-identical to wire_sign.

        Draws are made in place on the system's two uint64 block buffers. For
        flip_prob != 1/2 the flip parity is counted forward from the wire's
        parity cache, as wire_sign does, and the cache is left at the
        window's last clock.
        """
        if t0 < 0:
            raise ValueError(f"clock must be >= 0, got {t0}")
        seed = self.wire_seed(wire)
        if self._buffers is None:
            self._buffers = (np.empty(BLOCK_CLOCKS, np.uint64), np.empty(BLOCK_CLOCKS, np.uint64))
        x, tmp = self._buffers
        # bits[k] = 1 where the sign at clock t0 + k is +1
        bits = np.empty(n, dtype=np.int8)
        if self._iid:
            for lo in range(0, n, BLOCK_CLOCKS):
                m = min(BLOCK_CLOCKS, n - lo)
                _draw_into(x[:m], tmp[:m], seed, t0 + lo, _SALT_SIGN, final_round=False)
                np.right_shift(x[:m], np.uint64(63), out=tmp[:m])
                bits[lo : lo + m] = tmp[:m]
        elif n:
            self._flip_bits(wire, seed, t0, bits, x, tmp)
        bits <<= 1
        bits -= 1
        return bits

    def _flip_bits(self, wire: WireId, seed: int, t0: int, bits: np.ndarray,
                   x: np.ndarray, tmp: np.ndarray) -> None:
        """Fill bits for the window at t0 with s0_bit XOR flip parity."""
        n = len(bits)
        s0_bit = _draw(seed, 0, _SALT_SIGN) >> 63
        if self.flip_prob == 1:  # every clock flips: parity is t & 1
            bits[0::2] = s0_bit ^ (t0 & 1)
            bits[1::2] = s0_bit ^ (t0 & 1) ^ 1
            return
        last, parity = self._parity.get(wire, (0, 0))
        if t0 < last:
            last, parity = 0, 0
        end = t0 + n  # clocks last+1 .. end-1 each draw one flip
        if t0 == last:
            bits[0] = s0_bit ^ parity
        threshold = np.uint64(self._flip_threshold)
        for lo in range(last + 1, end, BLOCK_CLOCKS):
            m = min(BLOCK_CLOCKS, end - lo)
            _draw_into(x[:m], tmp[:m], seed, lo, _SALT_FLIP)
            running = np.bitwise_xor.accumulate(x[:m] < threshold)
            running ^= bool(parity ^ s0_bit)
            skip = max(0, t0 - lo)  # clocks of this block before the window
            if skip < m:
                bits[lo + skip - t0 : lo + m - t0] = running[skip:]
            parity = int(running[-1]) ^ s0_bit
        if end - 1 > last:
            self._parity[wire] = (end - 1, parity)
