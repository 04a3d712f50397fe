"""Exact dyadic rationals: mantissa * 2**exp2 with arbitrary-precision mantissa.

All signal amplitudes in the simulator are dyadic, and every zero-vs-nonzero
decision the protocols make must be exact, so addition and multiplication
never round. Canonical form: mantissa is odd, or mantissa == 0 and exp2 == 0.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    __slots__ = ("mantissa", "exp2")

    def __init__(self, mantissa: int, exp2: int = 0):
        if mantissa == 0:
            self.mantissa = 0
            self.exp2 = 0
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            self.mantissa = mantissa >> shift
            self.exp2 = exp2 + shift

    @classmethod
    def _raw(cls, mantissa: int, exp2: int) -> "Dyadic":
        # internal fast path: caller guarantees canonical form
        d = object.__new__(cls)
        d.mantissa = mantissa
        d.exp2 = exp2
        return d

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2**k as an exact dyadic."""
        return cls._raw(1, k)

    def __bool__(self) -> bool:
        return self.mantissa != 0

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        if self.mantissa == 0:
            return other
        if other.mantissa == 0:
            return self
        e = min(self.exp2, other.exp2)
        m = (self.mantissa << (self.exp2 - e)) + (other.mantissa << (other.exp2 - e))
        return Dyadic(m, e)

    def __neg__(self) -> "Dyadic":
        if self.mantissa == 0:
            return self
        return Dyadic._raw(-self.mantissa, self.exp2)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Dyadic):
            if self.mantissa == 0 or other.mantissa == 0:
                return ZERO
            # odd * odd stays odd
            return Dyadic._raw(self.mantissa * other.mantissa, self.exp2 + other.exp2)
        if isinstance(other, int):
            return Dyadic(self.mantissa * other, self.exp2)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self) -> "Dyadic":
        if self.mantissa < 0:
            return Dyadic._raw(-self.mantissa, self.exp2)
        return self

    def __eq__(self, other) -> bool:
        if isinstance(other, Dyadic):
            return self.mantissa == other.mantissa and self.exp2 == other.exp2
        if isinstance(other, int):
            return self == Dyadic(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mantissa, self.exp2))

    def as_fraction(self) -> Fraction:
        if self.exp2 >= 0:
            return Fraction(self.mantissa * (1 << self.exp2))
        return Fraction(self.mantissa, 1 << -self.exp2)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def to_json(self) -> dict:
        """Serialized form used in reports: no floating point anywhere."""
        return {"mantissa": str(self.mantissa), "exp2": self.exp2}

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}, {self.exp2})"

    def __str__(self) -> str:
        if self.exp2 == 0:
            return str(self.mantissa)
        return f"{self.mantissa}*2^{self.exp2}"


ZERO = Dyadic._raw(0, 0)
ONE = Dyadic._raw(1, 0)
