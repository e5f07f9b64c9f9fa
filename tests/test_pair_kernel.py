"""The integer-keyed pair kernel against the loops it replaced.

`tests/oracles.py` keeps `convolve`, `graded_invert`, `neumann_invert`,
`compose_series` and `enumerate_monoid` as they were before they ran on
element keys.  Over four kinds of basis (log N, the natural numbers, a free
rational basis in r = 2 whose generators tie in magnitude, and an embedded
basis with dependent generators), exact results must be identical key for
key, float `convolve` and `graded_invert` bit-identical per key, in value
and magnitude, Neumann and composition within 1e-15 (1 + |v|), and dropped
masses within 1e-12 relative.  Term order is not compared: the kernel keeps
the order in which it first reaches each key.
"""

import math
import operator
import re
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from dirichlet_forge import algebra, weights
from dirichlet_forge.algebra import (EXACT, FLOAT, PowerSeries, compose_series, convolve,
                                     from_coeffs, graded_invert, neumann_invert,
                                     weighted_norm)
from dirichlet_forge.arithmetic import MultiplicativeFunction, PrimeSystem, invert_multiplicative
from dirichlet_forge.errors import CapExceededError
from dirichlet_forge.exactnum import QC
from dirichlet_forge.sieves import factorize, spf_sieve
from dirichlet_forge.semigroup import (SemigroupElement, embedded_basis, enumerate_monoid,
                                      free_rational_basis, row_end,
                                      log_element, log_primes_basis, natural_basis)
from tests.oracles import (brute_compose_series, brute_convolve, brute_enumerate_monoid,
                           brute_graded_invert, brute_neumann_invert, brute_scale)

LOG_N = log_primes_basis(60)
NATURAL = natural_basis()
TIED = free_rational_basis([(1, F(1, 2)), (F(3, 2), 0)])  # both of magnitude 3/2
EMBEDDED = embedded_basis([(1, F(1, 3)), (F(1, 2), 1), (F(2, 3), F(2, 3))])


def _log_n(n):
    return log_element(LOG_N, n)


def _natural(n):
    return NATURAL.element(exponents={0: n})


def _tied(i, j):
    return TIED.element(exponents={0: i, 1: j})


def _embedded(i, j, k):
    gens = [g.exact for g in EMBEDDED.generators]
    return EMBEDDED.element(coords=[i * x + j * y + k * z for x, y, z in zip(*gens)])


# element strategies: each draws a nonzero support element of its basis
ELEMENTS = {
    "log_n": st.integers(2, 60).map(_log_n),
    "natural": st.integers(1, 8).map(_natural),
    "tied": st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any).map(
        lambda ij: _tied(*ij)),
    "embedded": st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
        any).map(lambda ijk: _embedded(*ijk)),
}
BASES = {"log_n": LOG_N, "natural": NATURAL, "tied": TIED, "embedded": EMBEDDED}

_ratio = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
EXACT_VALUES = st.one_of(_ratio.map(QC.from_value),
                         st.builds(QC, _ratio, _ratio))
FLOAT_VALUES = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
# rational and Gaussian constant terms, units and non-units
CONSTANTS = st.sampled_from([QC(1), QC(-1), QC(0, 1), QC(2), QC(F(-3, 2)), QC(1, 1),
                             QC(F(2, 3), F(-1, 2))])


@st.composite
def elements(draw, kind, backend, max_terms=6, constant=None, truncate=None):
    """(basis, element) with up to max_terms support terms; `truncate`
    draws whether the element declares a truncation between its largest
    support magnitude and twice that."""
    basis = BASES[kind]
    values = EXACT_VALUES if backend == EXACT else FLOAT_VALUES
    support = draw(st.lists(ELEMENTS[kind], min_size=1, max_size=max_terms))
    coeffs = {lam: draw(values) for lam in support}
    c0 = None if constant is None else draw(constant)
    if c0 is not None:
        coeffs[basis.zero()] = c0 if backend == EXACT else complex(c0)
    truncation = None
    if truncate is None:
        truncate = draw(st.booleans())
    if truncate:
        top = max(lam.l1() for lam in coeffs)
        truncation = top * draw(st.sampled_from([1.0, 1.25, 1.5, 2.0]))
    return basis, from_coeffs(basis, coeffs, backend, truncation)


def _bits(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def _same_float(got, want):
    """Bit-identical coefficients on equal keys whose magnitudes agree."""
    assert {k: _bits(v) for k, v in got.coeffs.items()} == \
        {k: _bits(v) for k, v in want.coeffs.items()}
    mags = {k: k.l1() for k in want.coeffs}
    assert all(k.l1() == mags[k] for k in got.coeffs)


def _same_exact(got, want):
    assert got.coeffs == want.coeffs
    assert all(isinstance(v, QC) for v in got.coeffs.values())


def _close(got, want, tol=1e-15):
    assert set(got.coeffs) == set(want.coeffs)
    for k, v in want.coeffs.items():
        assert abs(complex(got.coeffs[k]) - complex(v)) <= tol * (1.0 + abs(complex(v)))


def _same_meta(got, want):
    assert got.backend == want.backend and got.truncation == want.truncation
    assert got.dropped_mass == pytest.approx(want.dropped_mass, rel=1e-12, abs=0.0)


KINDS = st.sampled_from(sorted(BASES))


@settings(max_examples=120, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]))
def test_convolve_matches_oracle(data, kind, backend):
    _, a = data.draw(elements(kind, backend, constant=st.none() | CONSTANTS))
    _, b = data.draw(elements(kind, data.draw(st.sampled_from([backend, FLOAT])),
                              max_terms=8, constant=st.none() | CONSTANTS))
    got, want = convolve(a, b), brute_convolve(a, b)
    _same_meta(got, want)
    if got.backend == EXACT:
        _same_exact(got, want)
    else:
        _same_float(got, want)


@settings(max_examples=120, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]))
def test_graded_invert_matches_oracle(data, kind, backend):
    _, a = data.draw(elements(kind, backend, constant=CONSTANTS))
    top = {"log_n": math.log(400), "natural": 14.0, "tied": 9.0, "embedded": 6.0}[kind]
    truncation = data.draw(st.floats(0.0, top))
    got, want = graded_invert(a, truncation), brute_graded_invert(a, truncation)
    _same_meta(got, want)
    if backend == EXACT:
        _same_exact(got, want)
    else:
        _same_float(got, want)


@st.composite
def contractions(draw, kind, backend, max_terms=3):
    """a = a(0) + s * rest with ||s * rest|| / |a(0)| <= 0.35: a Neumann
    series converges, and the centres below are in reach."""
    _, rest = draw(elements(kind, backend, max_terms=max_terms))
    c0 = draw(CONSTANTS)
    s = draw(st.sampled_from([F(1, 320), F(1, 80), F(7, 320)]))  # |values| <= 4.3
    if backend == FLOAT:
        s, c0 = float(s), complex(c0)
    return rest.scale(s).add(algebra.unit(rest.basis, backend).scale(c0))


@settings(max_examples=60, deadline=None)
@given(st.tuples(KINDS, st.sampled_from([EXACT, FLOAT])).flatmap(
           lambda kind_backend: contractions(*kind_backend)),
       st.sampled_from([weights.one(), weights.poly(0.25)]))
# both residuals are rounding noise here, 7.579e-18 against 7.613e-18 (the
# term order sets the kernel's summation order)
@example(a=from_coeffs(NATURAL, {_natural(2): 0.006074378395158408 + 0.004068082101989015j,
                                 _natural(1): 0.034439709965639546 - 0.05494375233274167j,
                                 _natural(0): -1.0,
                                 _natural(4): 0.010664001526311659 - 0.032812499999999994j},
                       FLOAT, 6.0),
         w=weights.one())
def test_neumann_invert_matches_oracle(a, w):
    # the residual is a norm on keys; a non-unit weight checks the element
    # magnitudes it assumes
    tol = 1e-6 if a.backend == EXACT else 1e-12
    got, cert = neumann_invert(a, w, tol=tol)
    want, wcert = brute_neumann_invert(a, w, tol=tol)
    _same_meta(got, want)
    if a.backend == EXACT:
        assert got.coeffs == want.coeffs
    else:
        _close(got, want)
    assert (cert.q, cert.terms_used, cert.tail_bound) == \
        (wcert.q, wcert.terms_used, wcert.tail_bound)
    # A float residual is only known to the rounding of its product.  Each
    # lies within gamma_n ||a||_w ||b||_w of the exact ||a * b - eps||_w of its
    # own b: a product coefficient sums at most len(a) complex products, each
    # within sqrt(2) gamma_2 of exact, and then loses the unit, so
    # n = len(a) + len(b) + 3 covers it (Higham 2002, sections 3.1 and 3.6);
    # w(k + l) <= w(k) w(l) for both weights carries this to the norm.  The
    # exact residuals of the two b differ by at most ||a||_w ||got - want||_w.
    floor = 1e-300
    if a.backend == FLOAT:
        n = len(a.terms) + len(got.terms) + 3
        gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
        floor = weighted_norm(a, w) * (2.0 * gamma * weighted_norm(got, w)
                                       + weighted_norm(got.add(want.negate()), w))
    assert cert.residual_norm == pytest.approx(wcert.residual_norm, rel=1e-9, abs=floor)


@settings(max_examples=60, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]))
def test_compose_matches_oracle(data, kind, backend):
    # two support terms keep the oracle's 20-30 powers of a cheap
    a = data.draw(contractions(kind, backend, max_terms=2))
    a0 = complex(a[a.basis.zero()])
    f = data.draw(st.sampled_from([
        PowerSeries.from_coeffs([1.0, -0.5j, 0.25, 1 + 1j]),
        PowerSeries.exp(radius=4.0 * (abs(a0) + 1.0)),
        PowerSeries.reciprocal(center=a0),
    ]))
    got, cert = compose_series(f, a)
    want, wcert = brute_compose_series(f, a)
    _same_meta(got, want)
    _close(got, want)
    assert (cert.q, cert.terms_used, cert.tail_bound) == \
        (wcert.q, wcert.terms_used, wcert.tail_bound)


def test_composition_skips_a_zero_coefficient():
    """f = 1 + z^2 has f_1 = 0, so the first power adds no term: the sum is
    the oracle's, and it is 1 + a * a."""
    a = from_coeffs(LOG_N, [(log_element(LOG_N, 2), 0.25), (log_element(LOG_N, 3), 0.5j)])
    f = PowerSeries.from_coeffs([1.0, 0.0, 1.0])
    (got, cert), (want, wcert) = compose_series(f, a), brute_compose_series(f, a)
    _same_meta(got, want)
    _close(got, want)
    assert cert.terms_used == wcert.terms_used
    _close(got, algebra.unit(LOG_N, FLOAT).add(convolve(a, a)))


@settings(max_examples=60, deadline=None)
@given(st.data(), KINDS)
def test_enumerate_monoid_matches_oracle(data, kind):
    support = data.draw(st.lists(ELEMENTS[kind], min_size=1, max_size=5))
    truncation = data.draw(st.floats(0.0, 8.0))
    got = enumerate_monoid(support, truncation)
    want = brute_enumerate_monoid(support, truncation)
    assert got == want
    assert [e.l1() for e in got] == [e.l1() for e in want]


def test_l1_of_a_sum_is_that_of_the_same_element_built_directly():
    basis = embedded_basis([(F(1, 10), F(1, 5)), (F(1, 5), F(1, 10))])
    g0, g1 = basis.generator_element(0), basis.generator_element(1)
    assert (g0.l1(), g1.l1()) == (0.30000000000000004, 0.30000000000000004)
    built = g0 + g1 + g0 + g1 + g0
    direct = basis.element(coords=(F(7, 10), F(4, 5)))
    assert built == direct
    assert built.l1() == direct.l1() == 1.5


# generators whose float coordinates are inexact, so that sums of their
# magnitudes round differently along different paths
TENTHS_FREE = free_rational_basis([(F(1, 10), F(1, 5)), (F(3, 10), F(7, 10))])
TENTHS_EMBEDDED = embedded_basis([(F(1, 10), F(1, 5)), (F(1, 5), F(1, 10)), (F(1, 3), 0)])
SUMMANDS = {
    "log_n": st.integers(2, 60).map(_log_n),
    "free_rational": st.sampled_from([TENTHS_FREE.generator_element(g.id)
                                      for g in TENTHS_FREE.generators]),
    "embedded": st.sampled_from([TENTHS_EMBEDDED.generator_element(g.id)
                                 for g in TENTHS_EMBEDDED.generators]),
}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(SUMMANDS)))
def test_equal_elements_report_bit_equal_magnitudes(data, kind):
    parts = data.draw(st.lists(SUMMANDS[kind], min_size=1, max_size=10))
    order = data.draw(st.permutations(range(len(parts))))
    for lam in parts:
        lam.l1()  # a magnitude the parts hold before they are summed
    left = reduce(operator.add, parts)
    right = reduce(operator.add, [parts[i] for i in order])
    fresh = SemigroupElement(left.basis, exponents=left.exponents, coords=left.coords)
    assert left == right == fresh
    assert left.l1().hex() == right.l1().hex() == fresh.l1().hex()


@pytest.mark.parametrize("backends", [(EXACT, EXACT), (FLOAT, FLOAT), (EXACT, FLOAT),
                                      (FLOAT, EXACT)])
def test_add_puts_self_first_then_the_new_terms(backends):
    x = [_natural(n) for n in range(6)]
    a = from_coeffs(NATURAL, [(x[3], 1), (x[0], 2), (x[5], F(1, 2))], backends[0])
    b = from_coeffs(NATURAL, [(x[4], 1), (x[5], F(-1, 2)), (x[1], 3), (x[0], 1)], backends[1])
    got = a.add(b)
    assert list(got.coeffs) == [x[3], x[0], x[4], x[1]]  # x^5 cancels
    assert [complex(v) for v in got.coeffs.values()] == [1, 3, 1, 3]
    backend = EXACT if backends == (EXACT, EXACT) else FLOAT
    assert got.backend == backend
    assert all(isinstance(v, QC if backend == EXACT else complex) for v in got.coeffs.values())
    if backend == EXACT:
        # numerators over the least denominator: 1 once the halves cancel
        want = {x[n].key(): v for n, v in ((3, 1), (0, 3), (4, 1), (1, 3))}
        assert (got._nums, got._den) == (want, 1)
    elif backends[0] == backend:
        assert got.coeffs[x[3]] is a.coeffs[x[3]]  # not coerced again


def test_keys_of_log_n_are_n():
    basis = log_primes_basis(100)
    for n in range(1, 101):
        lam = log_element(basis, n)
        assert lam.key() == n
        assert (lam + log_element(basis, 6)).key() == 6 * n


def test_float_convolve_on_the_workload_shape():
    # the benchmark's truncated convolution: most pairs fall past the
    # cutoff; b, given in descending order, is sorted for the break, and the
    # result still comes out bit-identical key for key
    basis = log_primes_basis(600)
    t = math.log(600)
    a = from_coeffs(basis, [(log_element(basis, n), complex(math.sin(n), math.cos(3 * n)))
                            for n in range(1, 601)], FLOAT, t)
    b = from_coeffs(basis, [(log_element(basis, n), complex(1.0 / n, -0.5))
                            for n in range(600, 0, -1)], FLOAT, t)
    got, want = convolve(a, b), brute_convolve(a, b)
    _same_float(got, want)
    _same_meta(got, want)
    assert got.dropped_mass > 0.0


def test_scale_multiplies_dropped_mass():
    a = from_coeffs(NATURAL, {_natural(n): 1 for n in range(3)}, EXACT, truncation=2.0)
    c = convolve(a, a)
    assert c.dropped_mass == 3.0
    assert c.scale(10).dropped_mass == 30.0
    assert c.scale(QC(0, F(-1, 2))).dropped_mass == 1.5
    assert c.scale(0.5j).dropped_mass == 1.5
    assert c.negate().dropped_mass == 3.0


SCALARS = st.one_of(st.integers(-3, 3), _ratio, EXACT_VALUES, FLOAT_VALUES,
                    st.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]), SCALARS,
       st.floats(0.0, 10.0))
def test_scale_matches_the_coercing_path(data, kind, backend, c, dropped):
    # values are no longer coerced again when the backend stays; the result
    # must not change: bit for bit in float, equal in exact
    basis, a = data.draw(elements(kind, backend))
    a = algebra.AlgebraElement(basis, a.coeffs, backend, a.truncation, dropped, _trusted=True)
    for got, want in ((a.scale(c), brute_scale(a, c)),
                      (a.negate(), brute_scale(a, -1)),
                      (a.scale(c).negate(), brute_scale(brute_scale(a, c), -1))):
        assert list(got.coeffs) == list(want.coeffs)
        (_same_exact if got.backend == EXACT else _same_float)(got, want)
        assert got.backend == want.backend and got.truncation == want.truncation
        assert got.dropped_mass.hex() == want.dropped_mass.hex()


REAL_RATIONALS = st.one_of(st.integers(-3, 3), _ratio, _ratio.map(QC.from_value))


@settings(max_examples=100, deadline=None)
@given(st.data(), KINDS, REAL_RATIONALS, st.floats(0.0, 10.0))
def test_exact_scale_by_a_real_rational_matches_the_qc_product(data, kind, c, dropped):
    # the Fraction product of each term must equal the QC x QC product
    basis, a = data.draw(elements(kind, EXACT))
    a = algebra.AlgebraElement(basis, a.coeffs, EXACT, a.truncation, dropped, _trusted=True)
    got, want = a.scale(c), brute_scale(a, c)
    assert list(got.coeffs) == list(want.coeffs)
    _same_exact(got, want)
    assert got.backend == EXACT and got.truncation == want.truncation
    assert got.dropped_mass.hex() == want.dropped_mass.hex()


def test_exact_scale_by_a_real_rational_makes_no_qc_product(monkeypatch):
    a = from_coeffs(NATURAL, {_natural(n): QC(F(1, n + 1), F(-n, 3)) for n in range(4)}, EXACT)
    want = brute_scale(a, F(2, 7))
    qc_mul = QC.__mul__

    def no_qc_operand(self, other):
        assert not isinstance(other, QC), "a real scalar went through QC x QC"
        return qc_mul(self, other)

    monkeypatch.setattr(QC, "__mul__", no_qc_operand)
    for c in (F(2, 7), QC(F(2, 7))):
        assert a.scale(c).coeffs == want.coeffs
    assert a.scale(-1).coeffs == {k: QC(-v.re, -v.im) for k, v in a.coeffs.items()}


def test_exact_scaled_by_a_complex_becomes_float():
    a = from_coeffs(NATURAL, {_natural(n): QC(F(1, n + 1)) for n in range(3)}, EXACT)
    got = a.scale(0.5j)
    assert got.backend == FLOAT
    assert all(type(v) is complex for v in got.coeffs.values())
    assert {k: _bits(v) for k, v in got.coeffs.items()} == \
        {k: _bits(v) for k, v in brute_scale(a, 0.5j).coeffs.items()}
    assert a.scale(QC(0, 1)).backend == EXACT
    # a complex with no imaginary part is still a complex: no exact shortcut
    real = a.scale(complex(2.0, 0.0))
    assert real.backend == FLOAT
    assert {k: _bits(v) for k, v in real.coeffs.items()} == \
        {k: _bits(v) for k, v in brute_scale(a, complex(2.0, 0.0)).coeffs.items()}


def test_neumann_dropped_mass_is_divided_by_the_constant_term():
    # u = -(a - a(0)) / a(0) is the same for a and a / 2, so the two series
    # drop the same pairs; the inverse of a is half the inverse of a / 2
    a = from_coeffs(NATURAL, {_natural(0): 2.0, _natural(1): -0.5, _natural(2): 0.25},
                    FLOAT, truncation=6.0)
    b, _ = neumann_invert(a, tol=1e-12)
    half, _ = neumann_invert(a.scale(0.5), tol=2e-12)  # the same number of terms
    assert b.dropped_mass > 0.0
    assert b.dropped_mass == pytest.approx(half.dropped_mass / 2.0, rel=1e-12)


def test_neumann_support_cap_reports_terms_and_support(monkeypatch):
    monkeypatch.setattr(algebra, "NEUMANN_SUPPORT_CAP", 50)
    basis = log_primes_basis(3)
    a = from_coeffs(basis, {basis.zero(): 1.0, basis.generator_element(0): 0.3,
                            basis.generator_element(1): 0.3j})
    with pytest.raises(CapExceededError) as ei:
        neumann_invert(a)
    got = re.fullmatch(r"Neumann support would pass NEUMANN_SUPPORT_CAP = 50: (\d+) terms "
                       r"used, (\d+) support elements held", str(ei.value))
    assert got and int(got[1]) >= 1 and int(got[2]) <= 50
    monkeypatch.setattr(algebra, "NEUMANN_SUPPORT_CAP", 200_000)
    b, cert = neumann_invert(a)
    assert len(b.coeffs) > 50 and cert.residual_norm < 1e-12


def test_composition_support_cap_reports_terms_and_support(monkeypatch):
    # the same cap bounds the partial sums of a composition
    monkeypatch.setattr(algebra, "NEUMANN_SUPPORT_CAP", 50)
    basis = log_primes_basis(3)
    a = from_coeffs(basis, {basis.zero(): 1.0, basis.generator_element(0): 0.3,
                            basis.generator_element(1): 0.3j})
    with pytest.raises(CapExceededError) as ei:
        compose_series(PowerSeries.reciprocal(1.0), a)
    got = re.fullmatch(r"composition support would pass NEUMANN_SUPPORT_CAP = 50: (\d+) "
                       r"terms used, (\d+) support elements held", str(ei.value))
    assert got and int(got[1]) >= 1 and int(got[2]) <= 50
    monkeypatch.setattr(algebra, "NEUMANN_SUPPORT_CAP", 200_000)
    c, _ = compose_series(PowerSeries.reciprocal(1.0), a)
    assert len(c.coeffs) > 50


def _bits(v: complex) -> tuple:
    return v.real.hex(), v.imag.hex()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["log_n", "natural", "tied"]).flatmap(
    lambda kind: contractions(kind, FLOAT)))
# around 0.5 with q = 0.97 and 0.98 of the radius: f_1023 = -2^1024 is past
# the float range, but -u/c keeps every power in it
@example(a=from_coeffs(LOG_N, {LOG_N.zero(): 0.5, _log_n(2): 0.485}))
@example(a=from_coeffs(LOG_N, {LOG_N.zero(): 0.5, _log_n(2): 0.49}))
def test_reciprocal_composition_is_the_neumann_inverse(a):
    # 1/z composed around a(0) with a is the Neumann series of a: the same
    # sum (1/a0) sum_j u^j, u = -(a - a0)/a0, summed by the same kernel, with
    # tails that agree up to rounding.  With the same number of terms the
    # two are bit-identical, term for term in the same order.  Otherwise
    # the counts differ by one, the extra power is below the other route's
    # tail bound, and each computed value lies within gamma_n M of the exact
    # sum, M = 1 / ((1 - q) |a0|): the j-th power majorant |u|^j has norm
    # q^j, each of its j products sums at most len(a) complex products
    # (gamma_(len(a) + 2) each), u and the final scaling add a few gamma_1
    # per power, and the sum of J + 1 terms gamma_(J + 1) (Higham 2002,
    # sections 3.1 and 3.6).
    a0 = complex(a[a.basis.zero()])
    b, cert = neumann_invert(a)
    c, ccert = compose_series(PowerSeries.reciprocal(a0), a)
    if cert.terms_used == ccert.terms_used:
        assert [(k, _bits(v)) for k, v in b.terms.items()] == \
            [(k, _bits(v)) for k, v in c.terms.items()]
        return
    assert abs(cert.terms_used - ccert.terms_used) == 1
    J = max(cert.terms_used, ccert.terms_used)
    n = (J + 1) * (len(a.terms) + 12) + J + 20
    gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
    bound = 2.0 * gamma / ((1.0 - cert.q) * abs(a0)) + 1e-300
    bound += max(cert.tail_bound, ccert.tail_bound)
    for k in b.terms.keys() | c.terms.keys():
        assert abs(b.terms.get(k, 0j) - c.terms.get(k, 0j)) <= bound


@pytest.mark.parametrize("invert, message", [
    (neumann_invert, "Neumann series needs more than 10000 terms"),
    (lambda a: compose_series(PowerSeries.reciprocal(1.0), a),
     "composition series needs more than 2000 terms"),
], ids=["neumann", "composition"])
def test_series_term_cap_reports_the_cap(invert, message):
    # q = 0.999: the tail falls below 1e-12 only after about 34 500 terms
    a = from_coeffs(LOG_N, {LOG_N.zero(): 1.0, _log_n(2): 0.999})
    with pytest.raises(CapExceededError, match=message):
        invert(a)


def test_graded_invert_exact_division_with_non_unit_constant():
    # a = 3 - z has inverse 3^-(n+1): n0 = 9 > 1 forces the checked division
    a = from_coeffs(NATURAL, {_natural(0): 3, _natural(1): -1}, EXACT)
    b = graded_invert(a, truncation=40.0)
    assert all(b[_natural(n)] == QC(F(1, 3 ** (n + 1))) for n in range(41))
    c = from_coeffs(NATURAL, {_natural(0): QC(1, 1), _natural(2): QC(F(1, 2))}, EXACT)
    assert graded_invert(c, 30.0) == brute_graded_invert(c, 30.0)


def test_graded_invert_matches_prime_local_inverse_at_1e5():
    # the log-N recursion and the prime-by-prime inverse of a multiplicative
    # function are independent routes to the same values
    N = 10 ** 5
    system = PrimeSystem.rational_primes(N)
    ps = system.primes
    # halves at odd-indexed primes: D = 2, so the exact recursion divides by 2
    entries = [(p, 1, F((i % 5) - 2 or 3, 1 + i % 2)) for i, p in enumerate(ps)]
    entries += [(p, 2, F(i % 3 - 1)) for i, p in enumerate(ps) if p * p <= N]
    f = MultiplicativeFunction.from_prime_values(system, entries)
    fv = f.values_up_to(N)
    want = invert_multiplicative(f).values_up_to(N)
    basis = log_primes_basis(N)
    gid = {p: g for g, p in basis.key_primes.items()}
    spf = spf_sieve(N)
    elems = [None] + [basis.element(exponents={gid[p]: k for p, k in factorize(n, spf).items()})
                      for n in range(1, N + 1)]
    a = from_coeffs(basis, [(elems[n], fv[n]) for n in range(1, N + 1) if fv[n] != 0],
                    EXACT)
    inv = graded_invert(a, truncation=math.log(N))
    got = {lam.key(): v for lam, v in inv.coeffs.items()}
    assert all(v.im == 0 for v in got.values())
    assert {n: v.re for n, v in got.items()} == {n: want[n] for n in range(1, N + 1) if want[n]}


_mag = st.floats(0.0, 50.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_mag, _mag, st.lists(st.integers(-3, 3), min_size=1, max_size=6))
@example(0.00949248645580132, 0.029379030307177974, [0])  # limit - m rounds down to x
def test_row_end_matches_the_cutoff_test(m, limit, steps):
    # magnitudes a few ulps either side of limit - m, where the bisection
    # and the sum m + mag can round to opposite sides of the cutoff
    d = limit - m
    mags = []
    for s in steps:
        x = d
        for _ in range(abs(s)):
            x = math.nextafter(x, math.inf if s > 0 else -math.inf)
        mags.append(abs(x))
    mags.sort()
    want = next((i for i, x in enumerate(mags) if m + x > limit), len(mags))
    assert row_end(mags, m, limit) == want


BIG = 3 ** 350  # about 1e167: a product of two such denominators passes the float range


def test_convolve_with_denominators_past_the_float_range():
    a = from_coeffs(NATURAL, {_natural(n): F(n * BIG + 1, BIG) for n in range(4)}, EXACT,
                    truncation=4.0)
    got, want = convolve(a, a), brute_convolve(a, a)
    _same_exact(got, want)
    _same_meta(got, want)
    assert got.dropped_mass > 0.0
    basis = log_primes_basis(400)  # common denominator lcm(1..400), about 1e173
    h = from_coeffs(basis, {log_element(basis, n): F(1, n) for n in range(1, 401)}, EXACT,
                    truncation=math.log(400))
    got, want = convolve(h, h), brute_convolve(h, h)
    _same_exact(got, want)
    _same_meta(got, want)


def test_exact_neumann_with_power_denominators_past_the_float_range():
    # u = 0.900001 z needs about 260 terms: its powers' denominator 10^(6J)
    # passes 1e308 after 52 of them
    for truncation in (None, 100.0):
        a = from_coeffs(NATURAL, {_natural(0): 2, _natural(1): F(-1800002, 10 ** 6)}, EXACT,
                        truncation)
        (got, gc), (want, wc) = neumann_invert(a), brute_neumann_invert(a)
        assert got == want and gc.terms_used == wc.terms_used > 52
        _same_meta(got, want)
        assert gc.residual_norm == pytest.approx(wc.residual_norm, rel=1e-12, abs=1e-300)
        assert (got.dropped_mass > 0.0) == (truncation is not None)


def test_graded_invert_with_n0_power_past_the_float_range():
    # a(0) = 3 over a chain of 700 steps: beta = 3^701 b
    a = from_coeffs(NATURAL, {_natural(0): 3, _natural(1): -1}, EXACT)
    b = graded_invert(a, truncation=700.0)
    assert b[_natural(700)] == QC(F(1, 3 ** 701))
    # a non-unit numerator alpha(0) = lcm(1..300), about 1e130
    basis = log_primes_basis(300)
    h = from_coeffs(basis, {log_element(basis, n): F(1, n) for n in range(1, 301)}, EXACT)
    _same_exact(graded_invert(h, math.log(300)), brute_graded_invert(h, math.log(300)))
