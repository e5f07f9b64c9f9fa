"""Characters and the functionals they induce on the algebra."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_forge.algebra import EXACT, FLOAT, evaluate_series, from_coeffs, weighted_norm
from dirichlet_forge.characters import EXPLICIT, FROM_S, Character, functional
from dirichlet_forge.errors import ValidationError
from dirichlet_forge.exactnum import QC
from dirichlet_forge.semigroup import (
    free_rational_basis,
    log_element,
    log_primes_basis,
    natural_basis,
)
from dirichlet_forge.weights import one as w_one, poly as w_poly

F = Fraction


def test_character_validation():
    b = natural_basis()
    Character(b, (0.5 + 0.1j,))
    Character(b, (0j,))  # zero generator values are allowed
    with pytest.raises(ValidationError):
        Character(b, (1.2,))
    with pytest.raises(ValidationError):
        Character(b, (0.5, 0.5))  # wrong arity
    for v in (math.nan, complex(0.5, math.nan), math.inf):
        with pytest.raises(ValidationError, match="closed unit disk"):
            Character(b, (v,))


def test_from_s_refuses_non_finite_or_boolean_s():
    b = natural_basis()
    for s in (math.nan, [math.inf], complex(0.5, math.nan)):
        with pytest.raises(ValidationError, match="must be finite"):
            Character.from_s(b, s)
    for s in (True, [False]):
        with pytest.raises(ValidationError, match="not booleans"):
            Character.from_s(b, s)


def test_apply_multiplicative_on_exponents():
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))])
    psi = Character(b, (0.5, 0.5j))
    lam = b.element(exponents={0: 2, 1: 1})
    assert psi.apply(lam) == pytest.approx((0.5 ** 2) * 0.5j)
    assert psi.apply(b.zero()) == 1.0


def test_apply_zero_value_short_circuits():
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))])
    psi = Character(b, (0.0, 0.7))
    assert psi.apply(b.element(exponents={0: 1})) == 0j
    assert psi.apply(b.element(exponents={1: 2})) == pytest.approx(0.49)
    assert psi.apply(b.zero()) == 1.0  # 0^0 = 1


def test_from_s_requires_right_half_plane():
    b = natural_basis()
    Character.from_s(b, 0.0)
    Character.from_s(b, 1.0 + 5.0j)
    with pytest.raises(ValidationError):
        Character.from_s(b, -0.1)


def test_from_s_functional_matches_evaluate_series_bitwise():
    # same sum over the same sorted support with the same exp helper
    b = log_primes_basis(50)
    coeffs = {log_element(b, n): complex(1.0 / n) for n in range(1, 51)}
    a = from_coeffs(b, coeffs, FLOAT)
    for s in (0.0, 1.0, 2.0 + 3.0j, 0.5 - 7.0j):
        psi = Character.from_s(b, s)
        total, _ = evaluate_series(a, s)
        assert functional(psi, a) == total  # bitwise, not approx


def test_character_multiplicativity_property():
    b = log_primes_basis(30)
    psi = Character.from_s(b, 0.5 + 1.0j)
    for m, n in [(2, 3), (4, 5), (6, 7), (10, 3)]:
        lm, ln = log_element(b, m), log_element(b, n)
        assert psi.apply(lm + ln) == pytest.approx(psi.apply(lm) * psi.apply(ln))


def test_functional_bounded_by_norm():
    b = natural_basis()
    coeffs = {b.element(exponents={0: n}): complex(v)
              for n, v in enumerate([3, -1, 2, 0.5])}
    a = from_coeffs(b, coeffs, FLOAT)
    psi = Character(b, (0.8,))
    w = w_one()
    assert abs(functional(psi, a)) <= weighted_norm(a, w) * (1 + 1e-12)


def test_is_w_bounded():
    # |psi(lambda)| <= w(lambda) on the monoid 0, 1, 2, ... for psi(1) = 0.9
    b = natural_basis()
    samples = [b.element(exponents={0: k}) for k in range(30)]
    psi = Character(b, (0.9,))
    for w in (w_one(), w_poly(2.0)):
        assert all(abs(psi.apply(e)) <= w.eval(e) for e in samples)
    # a value off the unit disk, which would outgrow w = 1, is refused
    with pytest.raises(ValidationError, match="closed unit disk"):
        Character(b, (2.0,))


def test_character_json_roundtrip():
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))])
    psi = Character(b, (0.5, -0.25j), EXPLICIT)
    psi2 = Character.from_json(b, psi.to_json())
    assert psi2.values == psi.values
    assert psi2.provenance == EXPLICIT
    ps = Character.from_s(b, (1.0, 2.0))
    ps2 = Character.from_json(b, ps.to_json())
    assert ps2.provenance == FROM_S
    assert ps2.s == ps.s
    assert ps2.values == pytest.approx(ps.values)


def test_exact_functional_on_exact_elements():
    b = natural_basis()
    coeffs = {b.element(exponents={0: n}): QC.from_value(F(1, n + 1)) for n in range(4)}
    a = from_coeffs(b, coeffs, EXACT)
    psi = Character(b, (1.0,))
    # psi = 1 sums the coefficients: 1 + 1/2 + 1/3 + 1/4
    assert functional(psi, a) == pytest.approx(complex(F(25, 12)))


unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(unit_disk, unit_disk, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=80)
def test_apply_is_semigroup_homomorphism(z1, z2, n1, n2):
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))])
    psi = Character(b, (z1, z2))
    e = b.element(exponents={0: n1})
    f = b.element(exponents={1: n2})
    lhs = psi.apply(e + f)
    rhs = psi.apply(e) * psi.apply(f)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


@given(st.floats(0.0, 5.0), st.floats(-10.0, 10.0))
@settings(max_examples=50)
def test_from_s_modulus_bounded(sigma, t):
    b = log_primes_basis(20)
    psi = Character.from_s(b, complex(sigma, t))
    for g in b.generators:
        lam = b.generator_element(g.id)
        assert abs(psi.apply(lam)) <= 1.0 + 1e-12
