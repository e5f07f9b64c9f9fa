"""Exact complex-rational arithmetic used by the rational coefficient backend.

A QC is a complex number with Fraction real and imaginary parts.  Addition,
multiplication and division stay exact, so identity tests (inverse round
trips, Moebius values, telescoping decompositions) can assert equality
instead of closeness.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

_COERCIBLE = (int, Fraction)


def as_fraction(x) -> Fraction:
    """Exact conversion (`_as_ratio`); floats convert via their binary
    expansion, and a non-finite float is a ValueError."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x) if isinstance(x, int) else Fraction(*_as_ratio(x))


def _as_ratio(x) -> tuple:
    """(numerator, denominator > 0) of an exact real, as ints and without a
    Fraction: an int, a Fraction, a finite float (its binary expansion) or
    a 'num/den' or plain integer string (`_parse_ratio`)."""
    if isinstance(x, str):
        return _parse_ratio(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"not a finite number: {x!r}")
    if not isinstance(x, (int, float, Fraction)):
        raise TypeError(f"cannot convert {type(x).__name__} to Fraction")
    return x.as_integer_ratio()


def parse_frac(s: str) -> Fraction:
    """Parse 'num/den' or plain integer strings; a zero denominator is a
    ValueError."""
    return Fraction(*_parse_ratio(s))


def _parse_ratio(s: str) -> tuple:
    """(numerator, denominator > 0) of 'num/den' or a plain integer string,
    as ints, without a Fraction; a zero denominator is a ValueError."""
    num, slash, den = s.partition("/")
    p, q = int(num), int(den) if slash else 1
    if not q:
        raise ValueError(f"zero denominator in {s!r}")
    return (-p, -q) if q < 0 else (p, q)


def _complex_value(v):
    """A complex value read from JSON: a number, returned as it is, or an
    {"re", "im"} object of two numbers, returned as a complex.  A boolean, a
    string or any other value is a TypeError and a missing part a KeyError,
    so each reader keeps its own malformed-input message; finiteness is left
    to the constructors."""
    parts = (v["re"], v["im"]) if isinstance(v, dict) else (v,)
    for x in parts:
        if isinstance(x, bool) or not isinstance(x, numbers.Number):
            raise TypeError(f"complex parts must be numbers, not booleans or strings; "
                            f"got {x!r}")
    return complex(*parts) if isinstance(v, dict) else v


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
            return cls(v.real, v.imag)
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

