"""Exact complex rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dirichlet_forge.exactnum import (
    QC,
    as_fraction,
    format_frac,
    parse_frac,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
qcs = st.builds(QC, rationals, rationals)


def test_parse_and_format_roundtrip():
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("-7") == Fraction(-7)
    assert format_frac(Fraction(3, 4)) == "3/4"
    assert format_frac(Fraction(-5)) == "-5"
    assert parse_frac(format_frac(Fraction(22, 7))) == Fraction(22, 7)


def test_as_fraction_accepts_common_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    assert as_fraction(0.5) == Fraction(1, 2)


@pytest.mark.parametrize("x", ["1/0", "-3/0", float("inf"), float("-inf"), float("nan")])
def test_malformed_numbers_are_value_errors(x):
    # the JSON readers turn a ValueError into a "malformed" ValidationError
    with pytest.raises(ValueError):
        as_fraction(x)
    if isinstance(x, str):
        with pytest.raises(ValueError):
            parse_frac(x)


def test_arithmetic_small_cases():
    a = QC(Fraction(1, 2), Fraction(1, 3))
    b = QC(Fraction(2), Fraction(-1))
    assert a + b == QC(Fraction(5, 2), Fraction(-2, 3))
    assert a - b == QC(Fraction(-3, 2), Fraction(4, 3))
    # (1/2 + i/3)(2 - i) = 1 + 1/3 + i(2/3 - 1/2)
    assert a * b == QC(Fraction(4, 3), Fraction(1, 6))
    assert (a * b) / b == a


def test_division_is_exact():
    a = QC(Fraction(3, 7), Fraction(-2, 5))
    one = a / a
    assert one == QC(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        a / QC(Fraction(0), Fraction(0))


def test_pow_matches_repeated_multiplication():
    a = QC(Fraction(1, 2), Fraction(1, 2))
    acc = QC(Fraction(1), Fraction(0))
    for k in range(8):
        assert a ** k == acc
        acc = acc * a


def test_abs2_and_complex_bridge():
    a = QC(Fraction(3), Fraction(4))
    assert a.abs2() == Fraction(25)
    assert abs(a) == 5.0
    assert complex(a) == 3 + 4j


def test_zero_detection_and_mixed_equality():
    assert QC(Fraction(0), Fraction(0)).is_zero()
    assert QC(Fraction(0), Fraction(0)) == 0
    assert QC(Fraction(0), Fraction(1, 10 ** 12)) != 0
    assert 0.0 + 0.0j == 0
    assert QC(Fraction(2), Fraction(0)) == 2
    assert QC(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)
    assert QC(Fraction(1), Fraction(1)) == 1 + 1j


def test_from_value_conversions():
    assert QC.from_value(3) == QC(Fraction(3), Fraction(0))
    assert QC.from_value(Fraction(1, 3)).re == Fraction(1, 3)
    v = QC.from_value(QC(Fraction(1), Fraction(2)))
    assert v == QC(Fraction(1), Fraction(2))


_FLOAT_PARTS = [0.0, -0.0, 2.0**53 + 2, 1e300, -1e300, -2.0, 7.0, 0.5, -1 / 3, 5e-324,
                -2.2250738585072014e-308 / 3]


def _check_parts(x, y):
    """QC.from_value(x + yi) and as_fraction(x) hold exactly Fraction(x) and
    Fraction(y), as Fractions."""
    got = QC.from_value(complex(x, y))
    assert got == QC(Fraction(x), Fraction(y))
    assert type(got.re) is type(got.im) is Fraction
    assert as_fraction(x) == Fraction(x)


def test_from_value_of_a_complex_is_the_fraction_of_each_part():
    for x in _FLOAT_PARTS:
        for y in _FLOAT_PARTS:
            _check_parts(x, y)


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_from_value_of_any_finite_complex_is_exact(re, im):
    _check_parts(re, im)


@given(qcs, qcs, qcs)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(qcs)
def test_multiplicative_inverse(a):
    if a.is_zero():
        return
    assert a * (QC(Fraction(1), Fraction(0)) / a) == QC(Fraction(1), Fraction(0))


@given(qcs)
def test_conjugate_norm(a):
    conj = QC(a.re, -a.im)
    assert (a * conj).re == a.abs2()
    assert (a * conj).im == 0


@given(qcs)
def test_coeff_abs_matches_complex(a):
    assert abs(a) == pytest.approx(abs(complex(a)))
