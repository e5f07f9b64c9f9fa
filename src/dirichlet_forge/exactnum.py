"""Exact complex-rational arithmetic used by the rational coefficient backend.

A QC is a complex number with Fraction real and imaginary parts.  Addition,
multiplication and division stay exact, so identity tests (inverse round
trips, Moebius values, telescoping decompositions) can assert equality
instead of closeness.
"""

from __future__ import annotations

import math
from fractions import Fraction

_COERCIBLE = (int, Fraction)


def as_fraction(x) -> Fraction:
    """Exact conversion; floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return parse_frac(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def parse_frac(s: str) -> Fraction:
    """Parse 'num/den' or plain integer strings."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_frac(q: Fraction) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class QC:
    """Gaussian-rational style complex number over Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else as_fraction(re)
        self.im = im if isinstance(im, Fraction) else as_fraction(im)

    @classmethod
    def from_value(cls, v) -> "QC":
        if isinstance(v, QC):
            return v
        if isinstance(v, complex):
            return cls(Fraction(v.real), Fraction(v.imag))
        return cls(as_fraction(v))

    def __add__(self, other):
        if isinstance(other, QC):
            return QC(self.re + other.re, self.im + other.im)
        if isinstance(other, _COERCIBLE):
            return QC(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QC):
            return QC(self.re - other.re, self.im - other.im)
        if isinstance(other, _COERCIBLE):
            return QC(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _COERCIBLE):
            return QC(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QC):
            return QC(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)
        if isinstance(other, _COERCIBLE):
            return QC(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _COERCIBLE):
            return QC(self.re / other, self.im / other)
        if isinstance(other, QC):
            d = other.abs2()
            if d == 0:
                raise ZeroDivisionError("division by zero QC")
            return QC((self.re * other.re + self.im * other.im) / d,
                      (other.re * self.im - other.im * self.re) / d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _COERCIBLE):
            return QC(other) / self
        return NotImplemented

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _COERCIBLE):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QC({format_frac(self.re)})"
        return f"QC({format_frac(self.re)}, {format_frac(self.im)})"


def coeff_abs(v) -> float:
    """|v| as float for either backend's coefficient values."""
    if isinstance(v, QC):
        return abs(v)
    return abs(complex(v))


def coeff_is_zero(v) -> bool:
    if isinstance(v, QC):
        return v.is_zero()
    return v == 0


def coeff_to_complex(v) -> complex:
    if isinstance(v, QC):
        return complex(v)
    return complex(v)
