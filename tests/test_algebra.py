"""Convolution algebra: products, norms, evaluation, inversion, composition."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dirichlet_forge.algebra import (
    DISK_GRID_CAP,
    EXACT,
    FLOAT,
    AlgebraElement,
    GridSpec,
    PowerSeries,
    compose_series,
    convolve,
    evaluate_series,
    from_coeffs,
    graded_invert,
    invertibility_witness,
    min_modulus_on_disk,
    neumann_invert,
    unit,
    weighted_norm,
)
from dirichlet_forge.algebra import _disk_minimum
from dirichlet_forge.errors import (
    CapExceededError,
    NeumannInapplicableError,
    PreconditionError,
    SingularElementError,
    ValidationError,
)
from dirichlet_forge.exactnum import QC, format_frac
from dirichlet_forge.semigroup import (embedded_basis, free_rational_basis, log_element,
                                      log_primes_basis, natural_basis)
from dirichlet_forge.semigroup import SemigroupBasis
from dirichlet_forge.weights import (exp_weight as w_exp, one as w_one, poly as w_poly,
                                     product as w_product, table as w_table)
from tests.oracles import (brute_disk_min, brute_exp_sum, brute_half_plane_min,
                          brute_poly_inverse, brute_poly_mul, full_grid_disk_minimum,
                          mobius_sieve)

F = Fraction


def nat_elem(coeff_list, backend=EXACT, truncation=None):
    """Element over N_0 from a dense coefficient list (index = exponent)."""
    b = natural_basis()
    pairs = {}
    for n, c in enumerate(coeff_list):
        if c == 0:
            continue
        val = QC.from_value(F(c)) if backend == EXACT else complex(c)
        pairs[b.element(exponents={0: n})] = val
    return from_coeffs(b, pairs, backend, truncation)


def dense(a, n_max):
    """Dense complex coefficient list of an element over N_0."""
    b = a.basis
    out = []
    for n in range(n_max + 1):
        v = a[b.element(exponents={0: n})]
        out.append(complex(v) if isinstance(v, QC) else complex(v))
    return out


def test_unit_is_identity():
    b = natural_basis()
    e = unit(b, EXACT)
    a = nat_elem([3, 1, 4, 1, 5])
    assert convolve(a, e) == a
    assert convolve(e, a) == a


def test_convolve_matches_schoolbook_product():
    a = nat_elem([1, 2, 3])
    b = nat_elem([4, 5])
    want = brute_poly_mul([1, 2, 3], [4, 5])  # frozen: [4, 13, 22, 15]
    assert want == [4, 13, 22, 15]
    got = dense(convolve(a, b), len(want) - 1)
    assert got == [complex(x) for x in want]


def test_convolve_exact_backend_is_exact():
    a = nat_elem([F(1, 3), F(1, 7)])
    c = convolve(a, a)
    b = natural_basis()
    assert c[b.element(exponents={0: 2})] == QC.from_value(F(1, 49))
    assert c[b.element(exponents={0: 1})] == QC.from_value(F(2, 21))
    assert c.backend == EXACT


def test_convolve_backend_promotion():
    a = nat_elem([1, 2], backend=EXACT)
    b = nat_elem([1.5], backend=FLOAT)
    assert convolve(a, b).backend == FLOAT


def test_equality_across_backends_compares_values():
    exact = nat_elem([1, F(1, 2)], backend=EXACT)
    assert exact == nat_elem([1.0, 0.5], backend=FLOAT)
    assert exact != nat_elem([1.0, 0.25], backend=FLOAT)


def test_convolve_truncation_records_dropped_mass():
    a = nat_elem([1, 1, 1], truncation=2.0)
    b = nat_elem([1, 1, 1], truncation=2.0)
    c = convolve(a, b)
    assert c.truncation == 2.0
    # dropped pairs: (1,2),(2,1),(2,2) each contributing |1*1| = 1
    assert c.dropped_mass == pytest.approx(3.0)
    assert dense(c, 2) == [1, 2, 3]


def test_weighted_norm_values():
    a = nat_elem([1, -2, 3])
    assert weighted_norm(a) == pytest.approx(6.0)
    # poly weight (1+m)^1: 1*1 + 2*2 + 3*3
    assert weighted_norm(a, w_poly(1.0)) == pytest.approx(14.0)


def test_evaluate_series_geometric():
    # a(n) = 2^-n, s real: value sum 2^-n e^{-ns} known in closed form
    a = nat_elem([F(1, 2 ** n) for n in range(30)])
    s = 0.7
    got, tail = evaluate_series(a, s)
    x = 0.5 * math.exp(-s)
    want = (1 - x ** 30) / (1 - x)
    assert got.real == pytest.approx(want, rel=1e-12)
    assert abs(got.imag) < 1e-15
    assert tail is not None and tail.bound >= 0.0


def test_evaluate_series_tail_only_on_right_half_plane():
    a = nat_elem([1, 1])
    _, tail = evaluate_series(a, -0.5)
    assert tail is None
    _, tail = evaluate_series(a, 0.5)
    assert tail is not None


def test_evaluate_series_tail_bound_covers_cut_terms():
    # dropping the stored terms with |lambda|_1 >= ell changes the value by
    # at most the declared bound whenever Re s >= 0 (monotone weight)
    a = nat_elem([F(1, 2 ** n) for n in range(30)])
    s = 0.3
    ell = 15.0
    got, tail = evaluate_series(a, s, ell=ell)
    x = 0.5 * math.exp(-s)
    below = sum(x ** n for n in range(15))
    cut_error = abs(got - below)
    assert tail.cutoff == ell
    assert cut_error <= tail.bound + 1e-15


def test_neumann_invert_geometric():
    a = nat_elem([2, -1])
    b, cert = neumann_invert(a, tol=1e-15)
    assert cert.q == pytest.approx(0.5)
    got = dense(b, 10)
    for n in range(11):
        assert got[n].real == pytest.approx(2.0 ** -(n + 1), rel=1e-12)
    assert cert.residual_norm < 1e-12
    assert cert.tail_bound < 1e-15


def test_neumann_rejects_q_geq_one():
    a = nat_elem([1, 1])  # q = 1
    with pytest.raises(NeumannInapplicableError) as ei:
        neumann_invert(a)
    assert ei.value.payload()["q"] == pytest.approx(1.0)


def test_neumann_rejects_nan_contraction_ratio():
    # a NaN weight is refused when it is made, but finite parts can still
    # give one: at 1 this product is 1e300 * 1e300 * exp(-1000) = inf * 0.0,
    # which evaluation refuses, so no NaN q reaches the contraction test
    huge = w_table([(1.0, 1e300)])
    w = w_product(huge, huge, w_exp(1000.0))
    with pytest.raises(ValidationError, match="product weight .* NaN at magnitude 1.0"):
        w.eval_mag(1.0)
    with pytest.raises(ValidationError, match="evaluates to NaN"):
        neumann_invert(nat_elem([2, -1], backend=FLOAT), w)


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                 complex(math.inf, 1)], ids=str)
def test_non_finite_coefficient_is_rejected(backend, bad):
    b = log_primes_basis(3)
    pairs = [(b.zero(), 1.0), (log_element(b, 2), bad)]
    with pytest.raises(ValidationError, match="not finite"):
        from_coeffs(b, pairs, backend)
    with pytest.raises(ValidationError, match="not finite"):
        AlgebraElement(b, dict(pairs), backend, truncation=2.0)


@pytest.mark.parametrize("huge", [10 ** 400, Fraction(10 ** 400, 3)], ids=["int", "fraction"])
def test_coefficient_beyond_double_range(huge):
    # the float backend cannot hold it; the exact backend keeps it as is
    b = log_primes_basis(3)
    pairs = [(b.zero(), 1), (log_element(b, 2), huge)]
    with pytest.raises(ValidationError, match="too large for the float backend"):
        from_coeffs(b, pairs, FLOAT)
    with pytest.raises(ValidationError, match="too large for the float backend"):
        AlgebraElement(b, dict(pairs), FLOAT)
    with pytest.raises(ValidationError, match="too large for the float backend"):
        from_coeffs(b, pairs[:1], FLOAT).scale(huge)
    a = from_coeffs(b, pairs, EXACT)
    assert a.coeffs[log_element(b, 2)] == QC.from_value(huge)
    assert AlgebraElement(b, dict(pairs), EXACT).terms == a.terms


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
def test_non_finite_json_coefficient_is_rejected(backend, bad):
    b = log_primes_basis(3)
    data = from_coeffs(b, [(b.zero(), 1), (log_element(b, 2), 2)], backend).to_json()
    data["coeffs"][1]["re"] = bad
    with pytest.raises(ValidationError, match="not a finite number|not finite"):
        AlgebraElement.from_json(json.loads(json.dumps(data)))


def test_graded_invert_finds_no_support_magnitude_again(monkeypatch):
    """The monoid search takes the support's magnitudes as given: only keys
    outside the support have theirs found."""
    b = log_primes_basis(300)
    ns = [1, 4, 6, 10] + [p for p in range(2, 301) if all(p % d for d in range(2, p))]
    a = from_coeffs(b, [(log_element(b, n), (-1) ** n) for n in ns], EXACT)
    seen = []
    key_magnitude = SemigroupBasis.key_magnitude

    def counted(self, key, known=None):
        seen.append(key)
        return key_magnitude(self, key, known)

    monkeypatch.setattr(SemigroupBasis, "key_magnitude", counted)
    inv = graded_invert(a, truncation=math.log(300))
    assert len(inv.terms) > len(ns) and seen
    assert not set(seen) & set(a.terms)


def test_neumann_rejects_zero_constant_term():
    a = nat_elem([0, 1])
    with pytest.raises(SingularElementError):
        neumann_invert(a)


def test_graded_invert_matches_backsubstitution():
    a = nat_elem([2, -1])
    b = graded_invert(a, truncation=16.0)
    want = brute_poly_inverse([2, -1], 17)
    nb = natural_basis()
    for n in range(17):
        got = b[nb.element(exponents={0: n})]
        assert got == QC.from_value(want[n])


def test_graded_invert_random_poly_exact():
    a = nat_elem([3, 1, -2, 5])
    b = graded_invert(a, truncation=12.0)
    want = brute_poly_inverse([3, 1, -2, 5], 13)
    nb = natural_basis()
    for n in range(13):
        assert b[nb.element(exponents={0: n})] == QC.from_value(want[n])


def test_graded_invert_agrees_with_neumann():
    a = nat_elem([2, -1])
    g = graded_invert(a, truncation=24.0)
    nfl, _ = neumann_invert(nat_elem([2, -1], backend=FLOAT), tol=1e-16)
    for n in range(25):
        nb = natural_basis()
        lam = nb.element(exponents={0: n})
        assert abs(complex(g[lam]) - complex(nfl[lam])) <= 1e-12


def test_graded_invert_mobius_small():
    # coefficients 1 on every log n, n <= 30: inverse must be mu(n)
    N = 30
    b = log_primes_basis(N)
    coeffs = {log_element(b, n): QC.from_value(1) for n in range(1, N + 1)}
    a = from_coeffs(b, coeffs, EXACT, truncation=math.log(N))
    inv = graded_invert(a, truncation=math.log(N) + 1e-9)
    mu = mobius_sieve(N)
    for n in range(1, N + 1):
        got = inv[log_element(b, n)]
        assert got == QC.from_value(mu[n]), f"mu({n})"


def test_invertibility_witness_certifies_dominant_constant():
    a = nat_elem([2, -1], backend=FLOAT)
    rep = invertibility_witness(a)
    assert rep.certified
    assert rep.lower_bound > 0
    # true minimum of |2 - z| on the disk is 1 at z = 1
    assert rep.min_modulus == pytest.approx(1.0, abs=0.05)


def test_invertibility_witness_detects_root_on_disk():
    a = nat_elem([1, -1], backend=FLOAT)  # vanishes at z = 1
    rep = invertibility_witness(a)
    assert not rep.certified
    assert rep.min_modulus < 0.05


def test_min_modulus_on_disk_helper():
    best, argmin, lower = min_modulus_on_disk([2.0, -1.0])
    assert best == pytest.approx(1.0, abs=0.05)
    assert lower <= best


_coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def _poly_at(coeffs, z):
    return sum(complex(c) * z ** n for n, c in enumerate(coeffs))


@settings(max_examples=25, deadline=None)
@given(st.lists(_coeff, min_size=1, max_size=8))
def test_disk_minimum_matches_pointwise_oracle(coeffs):
    best, argmin, lower = min_modulus_on_disk(coeffs)
    want, _ = brute_disk_min(coeffs)
    tol = 1e-12 * (1.0 + sum(abs(c) for c in coeffs))
    assert abs(best - want) <= tol
    assert abs(abs(_poly_at(coeffs, argmin)) - best) <= tol
    assert abs(argmin) <= 1.0 + 1e-15
    assert lower <= best


@settings(max_examples=10, deadline=None)
@given(_coeff, st.dictionaries(st.integers(1, 40), _coeff, min_size=1, max_size=3))
def test_sparse_witness_matches_dense_oracle(c0, terms):
    # wide gaps between degrees take the binary-powering path of Horner's
    # rule; without a constant term every minimum would be 0 at z = 0
    terms[0] = c0
    b = natural_basis()
    a = from_coeffs(b, {b.element(exponents={0: n}): c for n, c in terms.items()},
                    backend=FLOAT)
    rep = invertibility_witness(a)
    dense = [terms.get(n, 0) for n in range(max(terms) + 1)]
    want, _ = brute_disk_min(dense)
    tol = 1e-12 * (1.0 + sum(abs(c) for c in dense))
    assert abs(rep.min_modulus - want) <= tol
    assert abs(abs(_poly_at(dense, rep.argmin_s)) - rep.min_modulus) <= tol
    assert rep.certified == (rep.lower_bound > 0.0)


@settings(max_examples=50, deadline=None)
@given(_coeff, _coeff)
@example(2.2250738585072e-309, 5e-324)
@example(5e-324 + 0j, -5.4e-323 + 5.4e-323j)  # a root inside; once "certified"
def test_linear_lower_bound_brackets_true_minimum(c0, c1):
    # min |c0 + c1 z| over |z| <= 1 is max(0, |c0| - |c1|); the grid value
    # can undershoot it by one evaluation's rounding only, which at
    # subnormal scale is the kernel's absolute underflow term for degree 1
    best, _, lower = min_modulus_on_disk([c0, c1])
    true = max(0.0, abs(c0) - abs(c1))
    tau = (26 * 1 + 38) * 2.0 ** -1074
    assert lower <= true <= best + 1e-15 * (abs(c0) + abs(c1)) + tau


def test_disk_minimum_first_argmin_in_scan_order():
    # |1 + z^2| vanishes at z = i and z = -i; the lattice scan meets -i
    # first (real part outer, imaginary part inner)
    best, argmin, _ = min_modulus_on_disk([1.0, 0.0, 1.0])
    assert best == pytest.approx(0.0, abs=1e-15)
    assert argmin == -1j
    assert (best, argmin) == brute_disk_min([1.0, 0.0, 1.0])


def test_disk_minimum_of_zero_polynomial_is_not_certified():
    for coeffs in ([], [0.0], [0, 0, 0]):
        best, _, lower = min_modulus_on_disk(coeffs)
        assert best == 0.0 and lower == 0.0
    rep = invertibility_witness(AlgebraElement(natural_basis(), {}, FLOAT))
    assert rep.min_modulus == 0.0 and not rep.certified


def test_disk_minimum_input_guards():
    for step in (0, -0.1, 1.5, math.nan, math.inf, True, "0.1"):
        with pytest.raises(ValidationError):
            min_modulus_on_disk([1.0], step=step)
    for boundary in (-1, 2.5, True, "8"):
        with pytest.raises(ValidationError):
            min_modulus_on_disk([1.0], boundary=boundary)
    with pytest.raises(ValidationError):
        min_modulus_on_disk([1.0, math.inf])


def test_disk_grid_cap_refuses_before_allocating():
    with pytest.raises(CapExceededError, match="400040513 points"):
        min_modulus_on_disk([1.0], step=1e-4)
    # 1 / 5e-324 overflows a float; the count is still exact
    points = (2 * math.ceil(1 / F(5e-324)) + 1) ** 2 + 512
    with pytest.raises(CapExceededError, match=f"{points} points"):
        min_modulus_on_disk([1.0], step=5e-324)
    with pytest.raises(CapExceededError):
        min_modulus_on_disk([1.0], boundary=DISK_GRID_CAP)
    best, _, _ = min_modulus_on_disk([1.0], step=0.002)  # just under the cap
    assert best == 1.0


@st.composite
def _disk_polynomials(draw):
    """{degree: coefficient} for the pruned disk scan: dense and sparse up to
    degree 40, ties, a dominant constant term and the zero polynomial, at
    scales from subnormal to 1e300."""
    shape = draw(st.sampled_from(["dense", "sparse", "ties", "dominant", "zero"]))
    if shape == "zero":
        return {}
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-300, 300))
    else:
        scale = 5e-324 * draw(st.integers(1, 2 ** 20))
    if shape == "ties":  # c z^k, c + z^k with |c| = 1: minima repeat around the disk
        k = draw(st.integers(1, 40))
        return {0: draw(st.sampled_from([0, 1, -1, 1j])) * scale,
                k: draw(st.sampled_from([1, -1, 1j, -1j])) * scale}
    n = draw(st.integers(0, 40))
    degrees = range(n + 1) if shape != "sparse" else draw(
        st.sets(st.integers(0, n), max_size=4)) | {n}
    unit = st.floats(-1.0, 1.0)
    terms = {k: complex(draw(unit), draw(unit)) * scale for k in degrees}
    if shape == "dominant":
        terms[0] = 1.5 * sum(abs(c) for k, c in terms.items() if k) + scale
    return terms


@settings(max_examples=200, deadline=None)
@given(_disk_polynomials(), st.sampled_from([1, 0.5, 0.1, 0.02, 0.013]),
       st.sampled_from([0, 1, 7, 512]))
# subnormal linear factors, where the computed values differ from the exact
# ones by whole multiples of 2^-1074: pruning without the rounding slack
# loses the first minimum of both
@example({0: 2.77e-322 - 2.2e-322j, 1: 1.2e-322 - 1.14e-322j}, 0.013, 512)
@example({0: -5e-324 - 2.3e-322j, 1: 1.14e-322 + 4e-323j}, 0.1, 512)
@example({0: 1.0, 2: 1.0}, 0.02, 512)
def test_pruned_disk_scan_is_the_full_grid_scan(terms, step, boundary):
    got = _disk_minimum(terms, step, boundary)
    want = full_grid_disk_minimum(terms, step, boundary)
    assert got[:5] == tuple(want)
    assert repr(got[:5]) == repr(tuple(want))  # signed zeros too
    assert 1 <= got.points


def test_disk_minimum_counts_its_evaluations():
    # a constant takes one point, a degree above the anchors' power table
    # (32) the whole grid, and degree-<=2 local factors of the search-certify
    # shape (f(p^k) = r/d, |r| <= 4, 2 <= d <= 9) a tenth of it at most
    grid = 101 ** 2 + 512
    assert _disk_minimum({0: 2.0}, 0.02, 512).points == 1
    assert _disk_minimum({0: 2.0, 60: 1.0}, 0.02, 512).points == grid
    rng = random.Random(1)
    calls = evaluated = 0
    for degree in (1, 2):
        for _ in range(300):
            coeffs = [1] + [F(rng.randint(-4, 4), rng.randint(2, 9)) for _ in range(degree)]
            evaluated += _disk_minimum(dict(enumerate(coeffs)), 0.02, 512).points
            calls += 1
    assert evaluated <= 0.1 * grid * calls


def test_witness_certificate_subtracts_mesh_and_rounding():
    a = nat_elem([4, 0, -1, 0.5], backend=FLOAT)
    rep = invertibility_witness(a)
    assert rep.lipschitz == pytest.approx(3.5)
    assert rep.mesh == pytest.approx(0.02 * math.sqrt(2.0))
    rho = rep.min_modulus - rep.lipschitz * rep.mesh - rep.lower_bound
    assert 0.0 < rho <= 1e-13
    assert rep.certified


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _coeff),
                min_size=1, max_size=6))
def test_half_plane_witness_matches_pointwise_oracle(entries):
    b = free_rational_basis([(1, F(1, 2)), (F(3, 2), 0)])  # r = 2 coordinates
    a = from_coeffs(b, {b.element(exponents={0: i, 1: j}): c for i, j, c in entries},
                    backend=FLOAT)
    grid = GridSpec(sigma_max=2.0, t_max=6.0, n_sigma=7, n_t=25)
    rep = invertibility_witness(a, grid)
    terms = [(lam.embedded_value(), complex(c)) for lam, c in a.coeffs.items()]
    want, _ = brute_half_plane_min(terms, 2.0, 6.0, 7, 25)
    tol = 1e-12 * (1.0 + sum(abs(c) for _, c in terms))
    assert abs(rep.min_modulus - want) <= tol
    assert abs(abs(brute_exp_sum(terms, rep.argmin_s)) - rep.min_modulus) <= tol
    assert not rep.certified


def test_grid_spec_rejects_grids_outside_the_half_plane():
    bad = [dict(sigma_max=-50.0), dict(sigma_max=math.nan), dict(sigma_max=math.inf),
           dict(sigma_max=True), dict(t_max=0.0), dict(t_max=-1.0), dict(t_max=math.inf),
           dict(t_max="30"), dict(n_sigma=0), dict(n_t=-3), dict(n_sigma=1.5),
           dict(n_t=True)]
    for kw in bad:
        with pytest.raises(ValidationError):
            GridSpec(**kw)
    # the smallest grid: one point at s = 0 - i t_max
    b = free_rational_basis([(1, F(1, 2)), (F(3, 2), 0)])
    a = from_coeffs(b, {b.element(exponents={0: 1}): 1.0, b.zero(): 2.0}, backend=FLOAT)
    rep = invertibility_witness(a, GridSpec(sigma_max=0, t_max=1, n_sigma=1, n_t=1))
    assert rep.argmin_s == complex(0.0, -1.0)


def test_compose_polynomial_is_exact_full_sum():
    # f(z) = 1 + z + z^2 applied to a = delta_1
    b = natural_basis()
    a = from_coeffs(b, [(b.element(exponents={0: 1}), 1.0)], FLOAT)
    f = PowerSeries.from_coeffs([1.0, 1.0, 1.0])
    c, cert = compose_series(f, a)
    assert cert.tail_bound == 0.0
    assert dense(c, 3) == [1, 1, 1, 0]


def test_compose_exp_delta_gives_factorials():
    b = natural_basis()
    a = from_coeffs(b, [(b.element(exponents={0: 1}), 1.0)], FLOAT)
    f = PowerSeries.exp(radius=4.0)
    c, cert = compose_series(f, a, tol=1e-16)
    got = dense(c, 12)
    for n in range(13):
        assert abs(got[n] - 1.0 / math.factorial(n)) <= 1e-12
    assert cert.q == pytest.approx(1.0)


def test_compose_reciprocal_matches_inverse():
    a = nat_elem([2, -1], backend=FLOAT)
    f = PowerSeries.reciprocal(center=2.0)
    c, cert = compose_series(f, a, tol=1e-15)
    got = dense(c, 20)
    for n in range(21):
        assert abs(got[n] - 2.0 ** -(n + 1)) <= 1e-12
    assert cert.q == pytest.approx(1.0)
    assert cert.radius == pytest.approx(2.0)


def test_compose_outside_radius_reports_gap():
    a = nat_elem([2, -3], backend=FLOAT)  # ||a - 2 eps|| = 3 >= 2
    f = PowerSeries.reciprocal(center=2.0)
    with pytest.raises(PreconditionError):
        compose_series(f, a)


def test_exp_series_requires_finite_radius():
    with pytest.raises(PreconditionError):
        PowerSeries.exp(radius=math.inf)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_series_tol_must_be_positive(tol):
    # a NaN tol used to end the Neumann loop at once and keep composition
    # running until its term cap
    a = nat_elem([2, -1], backend=FLOAT)
    with pytest.raises(ValidationError, match="tol must be > 0"):
        neumann_invert(a, tol=tol)
    with pytest.raises(ValidationError, match="tol must be > 0"):
        compose_series(PowerSeries.reciprocal(2.0), a, tol=tol)


def test_series_coefficients_past_the_float_range():
    # 1/k! past k = 170 is returned, not raised; the float-range cases keep
    # their values.  A reciprocal is summed as its Neumann series and has no
    # coefficient path.
    exp = PowerSeries.exp(1.0)
    assert exp.coeff(170) == 1.0 / math.factorial(170)
    assert exp.coeff(171) == 1 / math.factorial(171) > 0.0 and exp.coeff(200) == 0.0
    with pytest.raises(PreconditionError, match="Neumann series"):
        PowerSeries.reciprocal(0.5).coeff(3)


def test_compose_rejects_non_finite_values():
    b = log_primes_basis(3)
    a = from_coeffs(b, {b.zero(): 0.5, log_element(b, 2): 0.485})
    # f_1023 = -2^1024 would overflow, but the reciprocal is summed through
    # -u/c, whose powers stay in range (q = 0.97 R): neumann_invert's sum
    c, cert = compose_series(PowerSeries.reciprocal(0.5), a)
    want, wcert = neumann_invert(a)
    assert cert.terms_used == wcert.terms_used == 1045
    assert list(c.terms.items()) == list(want.terms.items())
    with pytest.raises(ValidationError, match=r"f_1 .* not finite"):
        compose_series(PowerSeries.from_coeffs([1.0, math.nan]), a)
    # finite coefficients whose sum passes the float range
    two = from_coeffs(b, {b.zero(): 2.0})
    with pytest.raises(ValidationError, match="sum is not finite"):
        compose_series(PowerSeries.from_coeffs([0.0, 1e308, 1e308]), two)


def test_neumann_rejects_a_sum_past_the_float_range():
    # 1/a(0) overflows for a subnormal a(0), and every value of the sum was
    # inf or NaN
    b = natural_basis()
    a = from_coeffs(b, {b.zero(): 1e-320, b.generator_element(0): 1e-321})
    with pytest.raises(ValidationError, match="Neumann series sum is not finite"):
        neumann_invert(a)


def test_inverse_of_a_subnormal_constant_alone_is_refused():
    # 1/a(0) overflows and there is no other term: no sum ever checks it
    b = natural_basis()
    a = from_coeffs(b, {b.zero(): 1e-320})
    with pytest.raises(ValidationError, match=r"Neumann series sum is not finite: 1/a\(0\)"):
        neumann_invert(a)
    for x in (a, from_coeffs(b, {b.zero(): 1e-320, b.generator_element(0): 1e-321})):
        with pytest.raises(ValidationError, match=r"graded inverse is not finite: 1/a\(0\)"):
            graded_invert(x, truncation=3.0)
    # a subnormal a(0) whose reciprocal is in range still inverts
    inv, cert = neumann_invert(from_coeffs(b, {b.zero(): 2.0 ** -1023}))
    assert inv[b.zero()] == 2.0 ** 1023 and cert.terms_used == 0


def test_exp_majorant_past_the_float_range_names_the_radius():
    a = nat_elem([0, 1], backend=FLOAT)
    assert compose_series(PowerSeries.exp(142.0), a)[1].terms_used > 0
    with pytest.raises(PreconditionError, match="radius 143.0"):
        compose_series(PowerSeries.exp(143.0), a)


def test_element_json_roundtrip_exact_and_float():
    a = nat_elem([F(1, 3), 0, F(-2, 7)])
    a2 = AlgebraElement.from_json(a.to_json())
    assert a2 == a
    b = nat_elem([1.5, 2.5], backend=FLOAT)
    b2 = AlgebraElement.from_json(b.to_json())
    assert b2 == b


small_coeffs = st.lists(
    st.integers(-4, 4).map(F), min_size=1, max_size=5)


@given(small_coeffs, small_coeffs)
@settings(max_examples=60, deadline=None)
def test_convolve_commutative(xs, ys):
    a, b = nat_elem(xs), nat_elem(ys)
    assert convolve(a, b) == convolve(b, a)


@given(small_coeffs, small_coeffs, small_coeffs)
@settings(max_examples=40, deadline=None)
def test_convolve_associative_and_distributive(xs, ys, zs):
    a, b, c = nat_elem(xs), nat_elem(ys), nat_elem(zs)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
    assert convolve(a, b.add(c)) == convolve(a, b).add(convolve(a, c))


@given(small_coeffs, small_coeffs)
@settings(max_examples=60, deadline=None)
def test_norm_submultiplicative(xs, ys):
    a, b = nat_elem(xs), nat_elem(ys)
    for w in (w_one(), w_poly(2.0)):
        na, nb = weighted_norm(a, w), weighted_norm(b, w)
        assert weighted_norm(convolve(a, b), w) <= na * nb * (1 + 1e-9) + 1e-12


@given(small_coeffs)
@settings(max_examples=30, deadline=None)
def test_graded_inverse_really_inverts(xs):
    if xs[0] == 0:
        xs = [F(1)] + xs[1:]
    a = nat_elem(xs)
    T = 8.0
    inv = graded_invert(a, truncation=T)
    prod = convolve(a.scale(1), inv)
    nb = natural_basis()
    assert prod[nb.zero()] == QC.from_value(1)
    for n in range(1, 9):
        lam = nb.element(exponents={0: n})
        assert prod[lam] == QC.from_value(0)


# -- JSON round trip and malformed input --------------------------------------

_JSON_BASES = {
    "natural": natural_basis(),
    "free2": free_rational_basis([(F(1), F(0)), (F(1, 2), F(3))]),
    "log": log_primes_basis(30),
    "embedded": embedded_basis([(F(1, 2), F(1)), (F(1), F(1, 3))]),
    "log40": log_primes_basis(40),  # ids 0..11: "10" sorts before "2"
}
_fracs = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=1000)
_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def json_elements(draw):
    basis = _JSON_BASES[draw(st.sampled_from(sorted(_JSON_BASES)))]
    backend = draw(st.sampled_from([EXACT, FLOAT]))
    real = draw(st.booleans())  # exact: int numerators, else (re, im) pairs
    coeffs = {}
    for _ in range(draw(st.integers(0, 8))):
        if basis.mode == "free":
            lam = basis.element(exponents={g.id: draw(st.integers(0, 3))
                                           for g in basis.generators})
        else:
            lam = basis.element(coords=[draw(st.fractions(min_value=0, max_value=5,
                                                          max_denominator=6))
                                        for _ in range(basis.r)])
        if backend == EXACT:
            coeffs[lam] = QC(draw(_fracs), 0 if real else draw(_fracs))
        else:
            coeffs[lam] = complex(draw(_floats), 0.0 if real else draw(_floats))
    top = max((lam.l1() for lam in coeffs), default=0.0)
    truncation = draw(st.sampled_from([None, top, top + 1.5]))
    return AlgebraElement(basis, coeffs, backend, truncation)


@given(json_elements(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_element_from_json_inverts_to_json(x, through_text):
    data = x.to_json()
    if through_text:
        data = json.loads(json.dumps(data))
    y = AlgebraElement.from_json(data)
    assert y == x
    assert (y.backend, y.truncation) == (x.backend, x.truncation)
    assert y.support() == x.support()
    assert all(type(v) is type(x.coeffs[lam]) for lam, v in y.coeffs.items())
    assert y.to_json() == x.to_json()


def _canonical_support(x):
    """x's support elements built afresh from their exponents or coords,
    so that each magnitude is computed by `l1`, in `sort_key` order."""
    fresh = [x.basis.element(exponents=lam.exponents) if x.basis.mode == "free"
             else x.basis.element(coords=lam.coords) for lam in x.coeffs]
    return sorted(fresh, key=lambda lam: lam.sort_key())


def _computed_element(name):
    b = log_primes_basis(40)
    a = from_coeffs(b, {log_element(b, n): F(1, n) for n in range(1, 41)}, EXACT)
    if name == "graded":
        return graded_invert(a, truncation=math.log(400))
    if name == "graded-float":
        return graded_invert(a.scale(1.0 + 0j), truncation=math.log(400))
    if name == "neumann":  # no truncation: the magnitudes are found from the keys
        return neumann_invert(from_coeffs(b, {b.zero(): 1.0, log_element(b, 2): 0.02,
                                              log_element(b, 11): -0.03j,
                                              log_element(b, 37): 0.01}))[0]
    if name == "convolve":
        return convolve(a, from_coeffs(b, {log_element(b, n): 1j * n for n in range(1, 30)},
                                       EXACT, truncation=5.0))
    e = embedded_basis([(F(1, 2), F(1)), (F(1), F(1, 3)), (F(1, 3), F(0))])
    ea = from_coeffs(e, {e.zero(): 1, e.generator_element(0): F(1, 2),
                         e.generator_element(1): F(-1, 3), e.generator_element(2): 2}, EXACT)
    return ea if name == "embedded" else graded_invert(ea, truncation=4.0)


@pytest.mark.parametrize("name", ["graded", "graded-float", "neumann", "convolve", "embedded",
                                  "embedded-graded"])
def test_json_terms_follow_the_support_order(name):
    # the stored magnitudes (a kernel's, or none) sort the terms as l1 does
    x = _computed_element(name)
    entries = x.to_json()["coeffs"]
    assert len(entries) == len(x.coeffs) > 3
    assert [e["element"] for e in entries] == [lam.to_json() for lam in _canonical_support(x)]
    # each entry as the support() and coeffs edge views give it
    support = x.support()
    assert entries == [
        {"element": lam.to_json(), "re": format_frac(v.re), "im": format_frac(v.im)}
        if x.backend == EXACT else {"element": lam.to_json(), "re": v.real, "im": v.imag}
        for lam, v in zip(support, map(x.coeffs.__getitem__, support))]


def _nat_json(entries, **extra):
    data = {"basis": natural_basis().to_json(), "backend": FLOAT, "truncation": None,
            "coeffs": [{"element": e, "re": re, "im": 0.0} for e, re in entries]}
    data.update(extra)
    return data


@pytest.mark.parametrize("data, message", [
    (_nat_json([({"exponents": {"7": 1}}, 1.0)]), "unknown generator id 7"),
    (_nat_json([({"exponents": {"0": -1}}, 1.0)]), "exponents must be nonnegative"),
    (_nat_json([({"exponents": {"0": 1}}, 1.0), ({"exponents": {"0": 1}}, 0.0)]),
     "duplicate support element"),
    (_nat_json([({"exponents": {"0": 1}}, 0.0), ({"exponents": {"0": 1}}, 2.0)]),
     "duplicate support element"),
    (_nat_json([({"exponents": {"0": 3}}, 0.0)], truncation=2.0),
     "beyond declared truncation"),
    (_nat_json([({"exponents": {"x": 1}}, 1.0)]), "malformed element JSON"),
    (_nat_json([({"coords": ["1"]}, 1.0)]), "free basis elements need an exponent map"),
    (_nat_json([({"exponents": {}}, "one")]), "malformed algebra element JSON"),
    (_nat_json([({"exponents": {}}, 1.0)], backend="double"), "unknown backend"),
    (_nat_json([({"exponents": {}}, 1.0)], truncation="wide"),
     "malformed algebra element JSON"),
    ({"basis": embedded_basis([(F(1),)]).to_json(), "backend": FLOAT,
      "coeffs": [{"element": {"exponents": {"0": 1}}, "re": 1.0, "im": 0.0}]},
     "embedded basis elements need coordinates"),
    ({"basis": embedded_basis([(F(1),)]).to_json(), "backend": FLOAT,
      "coeffs": [{"element": {"coords": ["-1"]}, "re": 1.0, "im": 0.0}]},
     "embedded coordinates must be nonnegative"),
])
def test_element_from_json_rejects_malformed_input(data, message):
    with pytest.raises(ValidationError, match=message):
        AlgebraElement.from_json(data)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("flag", [True, False])
def test_element_from_json_rejects_boolean_coefficients(backend, part, flag):
    # a JSON true or false is not the number 1 or 0 in either backend
    b = log_primes_basis(3)
    data = from_coeffs(b, [(b.zero(), 1), (log_element(b, 2), 2)], backend).to_json()
    data["coeffs"][1][part] = flag
    with pytest.raises(ValidationError, match="malformed algebra element JSON: a boolean"):
        AlgebraElement.from_json(json.loads(json.dumps(data)))


def test_element_from_json_key_collisions_and_zeros():
    b = natural_basis()
    # "0" and "00" both name generator 0: the later key counts, as in a dict
    got = AlgebraElement.from_json(_nat_json([({"exponents": {"0": 1, "00": 2}}, 1.0)]))
    assert list(got.coeffs) == [b.element(exponents={0: 2})]
    got = AlgebraElement.from_json(_nat_json([({"exponents": {"00": 2, "0": 1}}, 1.0)]))
    assert list(got.coeffs) == [b.element(exponents={0: 1})]
    # zero exponents, even of unknown ids, and zero coefficients drop out
    got = AlgebraElement.from_json(_nat_json([({"exponents": {"0": 1, "9": 0}}, 1.0),
                                              ({"exponents": {}}, 0.0)]))
    assert list(got.coeffs) == [b.generator_element(0)]
