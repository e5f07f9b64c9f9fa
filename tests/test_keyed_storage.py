"""Key-native algebra elements against the algebra that stored elements.

`tests/oracles.py` keeps `enumerate_monoid`, `convolve`, `graded_invert`,
`neumann_invert` and `compose_series` as they were when every monoid point
and result term was a `SemigroupElement` (the `element_*` oracles).  Results
held by key must equal them exactly: the same support in the same term and
`support()` order, bit-identical float values, magnitudes, dropped masses
and residual norms, and equal exact values.  No element may be built until
a caller reads `coeffs` or `support()`.
"""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from dirichlet_forge import algebra
from dirichlet_forge.algebra import (EXACT, FLOAT, AlgebraElement, PowerSeries, compose_series,
                                     convolve, from_coeffs, graded_invert, neumann_invert)
from dirichlet_forge.exactnum import QC, parse_frac
from dirichlet_forge.semigroup import (SemigroupElement, cutoff, enumerate_monoid,
                                      log_element, log_primes_basis, natural_basis)
from dirichlet_forge.weights import one, poly
from tests.oracles import (_coerce, brute_scale, coeff_is_zero, element_compose_series,
                           element_convolve, element_enumerate_monoid, element_graded_invert,
                           element_neumann_invert)
from tests.test_pair_kernel import BASES, CONSTANTS, ELEMENTS, KINDS, contractions, elements

NATURAL = natural_basis()


def _bits(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def _identical(got, want):
    """Equal supports in the same term and support() order, bit-identical
    magnitudes and float values, equal exact values, the same metadata."""
    assert got.backend == want.backend and got.truncation == want.truncation
    assert got.dropped_mass.hex() == want.dropped_mass.hex()
    assert list(got.coeffs) == list(want.coeffs)
    support = got.support()
    assert support == want.support()
    assert [lam.l1().hex() for lam in support] == [lam.l1().hex() for lam in want.support()]
    if got.backend == EXACT:
        assert got.coeffs == want.coeffs
    else:
        assert [_bits(v) for v in got.coeffs.values()] == \
            [_bits(v) for v in want.coeffs.values()]


def _clear_of_old_slack(truncation, mags):
    """No magnitude lies between the shared cutoff and the old enumeration
    slack T + 1e-9 (1 + |T|), the only place the two rules differ."""
    return not any(cutoff(truncation) < m <= truncation + 1e-9 * (1.0 + abs(truncation))
                   for m in mags)


@settings(max_examples=80, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]))
def test_convolve_is_identical_to_the_element_algebra(data, kind, backend):
    _, a = data.draw(elements(kind, backend, constant=st.none() | CONSTANTS))
    _, b = data.draw(elements(kind, data.draw(st.sampled_from([backend, FLOAT])),
                              max_terms=8, constant=st.none() | CONSTANTS))
    _identical(convolve(a, b), element_convolve(a, b))


@settings(max_examples=80, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]))
def test_graded_invert_is_identical_to_the_element_algebra(data, kind, backend):
    _, a = data.draw(elements(kind, backend, constant=CONSTANTS))
    top = {"log_n": math.log(400), "natural": 14.0, "tied": 9.0, "embedded": 6.0}[kind]
    truncation = data.draw(st.floats(0.0, top))
    want = element_graded_invert(a, truncation)
    assume(_clear_of_old_slack(truncation, [lam.l1() for lam in want.coeffs]))
    _identical(graded_invert(a, truncation), want)


@settings(max_examples=50, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]), st.sampled_from([one(), poly(0.25)]))
def test_neumann_invert_is_identical_to_the_element_algebra(data, kind, backend, w):
    a = data.draw(contractions(kind, backend))
    tol = 1e-6 if backend == EXACT else 1e-12
    (got, cert), (want, wcert) = neumann_invert(a, w, tol=tol), \
        element_neumann_invert(a, w, tol=tol)
    _identical(got, want)
    assert (cert.q, cert.terms_used, cert.tail_bound) == \
        (wcert.q, wcert.terms_used, wcert.tail_bound)
    assert repr(cert.residual_norm) == repr(wcert.residual_norm)  # exact, int 0 included


@settings(max_examples=50, deadline=None)
@given(st.data(), KINDS, st.sampled_from([EXACT, FLOAT]))
def test_compose_series_is_identical_to_the_element_algebra(data, kind, backend):
    a = data.draw(contractions(kind, backend, max_terms=2))
    a0 = complex(a[a.basis.zero()])
    f = data.draw(st.sampled_from([
        PowerSeries.from_coeffs([1.0, -0.5j, 0.25, 1 + 1j]),
        PowerSeries.exp(radius=4.0 * (abs(a0) + 1.0)),
        PowerSeries.reciprocal(center=a0),
    ]))
    (got, cert), (want, wcert) = compose_series(f, a), element_compose_series(f, a)
    _identical(got, want)
    assert cert == wcert


@settings(max_examples=60, deadline=None)
@given(st.data(), KINDS)
def test_enumerate_monoid_is_identical_to_the_element_search(data, kind):
    support = data.draw(st.lists(ELEMENTS[kind], min_size=1, max_size=5))
    truncation = data.draw(st.floats(0.0, 8.0))
    want = element_enumerate_monoid(support, truncation)
    assume(_clear_of_old_slack(truncation, [lam.l1() for lam in want]))
    got = enumerate_monoid(support, truncation)
    assert got.keys == [lam.key() for lam in want]
    assert [m.hex() for m in got.mags] == [lam.l1().hex() for lam in want]
    assert list(got) == want and got == want
    assert [lam.l1().hex() for lam in got] == [lam.l1().hex() for lam in want]


def test_no_element_is_built_until_a_caller_reads_one(monkeypatch):
    basis = log_primes_basis(200)
    a = from_coeffs(basis, [(log_element(basis, n), complex(1.0 / n, (-1) ** n / n))
                            for n in range(1, 201)], FLOAT, math.log(200))
    exact = from_coeffs(basis, [(log_element(basis, n), (n % 5) - 2 or 1)
                                for n in range(1, 201)], EXACT)
    small = from_coeffs(NATURAL, {NATURAL.element(exponents={0: k}): c
                                  for k, c in enumerate([2.0, -0.5, 0.25j])})
    data = graded_invert(exact, math.log(200)).to_json()
    built = []
    trusted = SemigroupElement._trusted.__func__

    def counting(cls, *args):
        built.append(args)
        return trusted(cls, *args)

    monkeypatch.setattr(SemigroupElement, "_trusted", classmethod(counting))
    results = [graded_invert(a, math.log(200)), graded_invert(exact, math.log(200)),
               neumann_invert(small)[0], convolve(a, a), AlgebraElement.from_json(data)]
    assert built == []
    for out in results:
        count = len(built)
        out.support()
        assert len(built) == count + len(out.terms)
        assert out.coeffs is out.coeffs  # built once, then kept
        assert len(built) == count + len(out.terms)


def test_the_callers_elements_are_kept():
    basis = log_primes_basis(30)
    given_elems = [log_element(basis, n) for n in range(1, 31)]
    a = from_coeffs(basis, [(lam, 1.0 / n) for n, lam in enumerate(given_elems, 1)])
    assert all(x is y for x, y in zip(a.coeffs, given_elems))
    assert list(a.terms) == list(range(1, 31))  # log n is keyed by n


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_the_callers_elements_stay_aligned_when_zeros_are_dropped(backend):
    basis = log_primes_basis(30)
    given_elems = [log_element(basis, n) for n in range(1, 31)]
    a = from_coeffs(basis, [(lam, n % 3 and n) for n, lam in enumerate(given_elems, 1)], backend)
    kept = [lam for n, lam in enumerate(given_elems, 1) if n % 3]
    assert all(x is y for x, y in zip(a.coeffs, kept, strict=True))
    assert list(a.terms) == [lam.key() for lam in kept]
    assert a._exponent_maps() == {lam.key(): lam.exponents for lam in kept}
    assert a._magnitudes() == {lam.key(): lam.l1() for lam in kept}


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INTEGRAL = st.one_of(st.integers(-2**70, 2**70).map(float), _FINITE.filter(float.is_integer),
                      st.just(-0.0))


@given(st.lists(st.tuples(st.booleans(), st.one_of(_INTEGRAL, _FINITE),
                          st.one_of(_INTEGRAL, st.just(0.0), _FINITE)), max_size=12))
@settings(max_examples=150, deadline=None)
def test_integral_float_values_store_as_their_fractions_do(values):
    # floats and complexes with integral parts are read as ints straight
    # away; the stored form is the one their exact values give
    basis = log_primes_basis(40)
    raw = [complex(re, im) if cplx else re for cplx, re, im in values]
    elems = [log_element(basis, n) for n in range(1, len(raw) + 1)]
    got = from_coeffs(basis, zip(elems, raw), EXACT)
    want = from_coeffs(basis, [(lam, QC(F(v.real), F(v.imag)) if isinstance(v, complex) else F(v))
                               for lam, v in zip(elems, raw)], EXACT)
    assert (got._nums, got._den, got._gauss) == (want._nums, want._den, want._gauss)
    assert all(type(x) is int for v in got._nums.values() for x in (v if got._gauss else (v,)))
    assert got.coeffs == want.coeffs


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, complex(1, math.inf),
                               complex(math.nan, 0), complex(math.inf, math.nan)])
@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_non_finite_values_are_refused(v, backend):
    basis = log_primes_basis(10)
    with pytest.raises(algebra.ValidationError, match="not finite"):
        from_coeffs(basis, [(log_element(basis, 2), v)], backend)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_boolean_values_read_as_before(backend):
    # `from_coeffs` reads a bool as the int it is; element JSON refuses one
    basis = log_primes_basis(10)
    lams = [log_element(basis, n) for n in (1, 2, 3)]
    got = from_coeffs(basis, zip(lams, [True, False, True]), backend)
    want = from_coeffs(basis, zip(lams, [1, 0, 1]), backend)
    assert (got._nums, got._den, got._gauss) == (want._nums, want._den, want._gauss)


def test_a_graded_inverse_reads_back_from_its_json():
    # the monoid point x^2 has magnitude 2.0, within 1e-9 (1 + T) of T but
    # past the shared cutoff: it is not kept, so the truncation T declared
    # by the result holds and from_json accepts the result's JSON
    x = [NATURAL.element(exponents={0: k}) for k in range(3)]
    a = from_coeffs(NATURAL, {x[0]: 1.0, x[1]: 0.5})
    inv = graded_invert(a, 2 - 5e-10)
    assert list(inv.coeffs) == [x[0], x[1]]
    back = AlgebraElement.from_json(inv.to_json())
    assert back == inv and back.truncation == inv.truncation


@pytest.mark.parametrize("T", [2.0, 0.5, 700.0])
def test_every_truncation_test_shares_one_cutoff(T):
    # a magnitude at the cutoff is kept and declared; one ulp past it is not
    edge = cutoff(T)
    past = math.nextafter(edge, math.inf)
    basis = algebra.SemigroupBasis.from_json(
        {"mode": "free", "r": 1, "generators": [{"id": 0, "value": [edge], "exact": None}]})
    g = basis.generator_element(0)
    assert g.l1() == edge
    from_coeffs(basis, {g: 1.0}, FLOAT, T)
    data = {"basis": basis.to_json(), "backend": FLOAT, "truncation": T,
            "coeffs": [{"element": {"exponents": {"0": 1}}, "re": 1.0, "im": 0.0}]}
    assert AlgebraElement.from_json(data).terms == {2: 1.0 + 0j}
    assert len(enumerate_monoid([g], T)) == 2
    unit_plus = from_coeffs(basis, {basis.zero(): 1.0, g: 0.5}, FLOAT, T)
    assert g in convolve(unit_plus, unit_plus).coeffs
    assert g in graded_invert(unit_plus, T).coeffs
    assert g in neumann_invert(unit_plus)[0].coeffs
    wide = algebra.SemigroupBasis.from_json(
        {"mode": "free", "r": 1, "generators": [{"id": 0, "value": [past], "exact": None}]})
    h = wide.generator_element(0)
    with pytest.raises(algebra.ValidationError, match="beyond declared truncation"):
        from_coeffs(wide, {h: 1.0}, FLOAT, T)
    data["basis"] = wide.to_json()
    with pytest.raises(algebra.ValidationError, match="beyond declared truncation"):
        AlgebraElement.from_json(data)
    assert len(enumerate_monoid([h], T)) == 1
    assert graded_invert(from_coeffs(wide, {wide.zero(): 1.0, h: 0.5}), T).terms == {1: 1.0}


def test_exact_results_hold_fractions_of_the_old_algebra():
    a = from_coeffs(NATURAL, {NATURAL.element(exponents={0: 0}): 3,
                              NATURAL.element(exponents={0: 1}): F(-1, 2)}, EXACT)
    _identical(graded_invert(a, 12.0), element_graded_invert(a, 12.0))


def test_key_magnitudes_are_the_sums_of_embedded_values():
    # magnitudes found from exponent maps, for every n <= 2000, equal the
    # float sum of the embedded value, summed in generator order
    basis = log_primes_basis(2000)
    monoid = enumerate_monoid(basis, math.log(2000))
    assert sorted(monoid.keys) == list(range(1, 2001))
    want = [float(sum(log_element(basis, n).embedded_value())).hex() for n in monoid.keys]
    assert [m.hex() for m in monoid.mags] == want
    assert [basis.key_magnitude(n).hex() for n in monoid.keys] == want
    assert [lam.l1().hex() for lam in monoid] == want


# -- exact values stored as integer numerators over one least denominator --

_RAW = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-3, 3), st.integers(1, 6)),
                 st.sampled_from([0.5, -0.25, 3.0, 0.1, 0.0]),
                 st.builds(complex, st.sampled_from([0.0, -1.5, 0.75]),
                           st.sampled_from([0.0, 0.5, -2.0])),
                 st.builds(QC, st.builds(F, st.integers(-3, 3), st.integers(1, 6)),
                           st.builds(F, st.integers(-3, 3), st.integers(1, 6))))


def _least(x):
    """x's stored form is least: exact numerators are ints, or pairs exactly
    when some value is not real, over a den > 0 coprime to them all (1 for
    the empty element); float values are their own numerators over 1."""
    if x.backend == FLOAT:
        assert x._den == 1 and not x._gauss
        assert all(type(v) is complex and v != 0 for v in x._nums.values())
        return
    parts = [p for v in x._nums.values() for p in (v if x._gauss else (v,))]
    assert all(type(p) is int for p in parts)
    assert all(len(v) == 2 and any(v) for v in x._nums.values()) if x._gauss else all(parts)
    assert x._gauss == any(v.im != 0 for v in x.terms.values())
    assert x._den > 0 and math.gcd(x._den, *parts) == 1


def _same_as(got, want):
    """`_identical`, the same JSON, and every stored form least."""
    _identical(got, want)
    assert got.to_json() == want.to_json()
    if got.backend == EXACT:
        assert all(type(v.re) is F and type(v.im) is F for v in got.coeffs.values())
    _least(got)


def _old_add(a, b):
    """`AlgebraElement.add` on per-term values, as the algebra did when it
    stored one QC per term."""
    backend = EXACT if a.backend == b.backend == EXACT else FLOAT
    out = {lam: _coerce(v, backend) for lam, v in a.coeffs.items()}
    for lam, v in b.coeffs.items():
        v = _coerce(v, backend)
        cur = out.get(lam)
        if cur is not None:
            v = cur + v
            if coeff_is_zero(v):
                del out[lam]
                continue
        out[lam] = v
    return AlgebraElement(a.basis, out, backend, algebra._min_trunc(a.truncation, b.truncation),
                          a.dropped_mass + b.dropped_mass, _trusted=True)


def _unreduced_json(x, data):
    """x's JSON with each exact part written p m / q m for a drawn m in
    1..4, numerator and denominator negated when m is even."""
    text = json.loads(json.dumps(x.to_json()))
    for entry in text["coeffs"]:
        for part in ("re", "im"):
            v = parse_frac(entry[part])
            m = data.draw(st.integers(1, 4))
            sign = -1 if m % 2 == 0 else 1
            entry[part] = f"{sign * v.numerator * m}/{sign * v.denominator * m}"
    return text


@settings(max_examples=80, deadline=None)
@given(st.data(), KINDS, st.sampled_from([(EXACT, EXACT), (EXACT, FLOAT), (FLOAT, EXACT)]))
def test_stored_numerators_match_the_qc_algebra(data, kind, backends):
    # every constructor and operation on exact and mixed elements: the same
    # values, JSON, dropped masses (bit for bit) and certificates as the
    # algebra that stored one QC per term, and least stored forms
    basis = BASES[kind]
    built = []
    for backend in backends:
        raw = {lam: data.draw(_RAW) for lam in data.draw(st.lists(ELEMENTS[kind], max_size=5))}
        raw[basis.zero()] = data.draw(CONSTANTS)
        x = from_coeffs(basis, raw, backend)
        want = {lam: _coerce(v, backend) for lam, v in raw.items()}
        assert list(x.coeffs) == [lam for lam, v in want.items() if not coeff_is_zero(v)]
        if backend == EXACT:
            assert x.coeffs == {lam: v for lam, v in want.items() if not coeff_is_zero(v)}
        else:
            assert [_bits(v) for v in x.coeffs.values()] == \
                [_bits(v) for v in want.values() if v != 0]
        _least(x)
        # JSON with unreduced fractions and negative denominators reads back
        text = _unreduced_json(x, data) if backend == EXACT else x.to_json()
        back = AlgebraElement.from_json(text)
        assert back == x and back.to_json() == x.to_json()
        if backend == EXACT:
            assert back.coeffs == x.coeffs
            assert [QC(parse_frac(e["re"]), parse_frac(e["im"])) for e in text["coeffs"]] == \
                [x.coeffs[lam] for lam in x.support()]
        _least(back)
        built.append(x)
    a, b = built
    _same_as(a.add(b), _old_add(a, b))
    _same_as(b.add(a), _old_add(b, a))
    c = data.draw(st.one_of(_RAW, st.sampled_from([F(2, 7), QC(F(1, 3), F(-2, 5))])))
    _same_as(a.scale(c), brute_scale(a, c))
    _same_as(a.negate(), brute_scale(a, -1))
    _same_as(convolve(a, b), element_convolve(a, b))
    _same_as(convolve(b, a), element_convolve(b, a))
    top = {"log_n": math.log(400), "natural": 14.0, "tied": 9.0, "embedded": 6.0}[kind]
    truncation = data.draw(st.floats(0.0, top))
    want = element_graded_invert(a, truncation)
    if _clear_of_old_slack(truncation, [lam.l1() for lam in want.coeffs]):
        _same_as(graded_invert(a, truncation), want)
    n = data.draw(contractions(kind, backends[0]))
    for w in (one(), poly(0.25)):
        tol = 1e-6 if n.backend == EXACT else 1e-12
        (got, cert), (want, wcert) = neumann_invert(n, w, tol=tol), \
            element_neumann_invert(n, w, tol=tol)
        _same_as(got, want)
        assert [repr(getattr(cert, f)) for f in ("q", "terms_used", "tail_bound",
                                                  "residual_norm")] == \
            [repr(getattr(wcert, f)) for f in ("q", "terms_used", "tail_bound", "residual_norm")]
