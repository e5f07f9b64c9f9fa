"""Convolution algebra: products, norms, evaluation, inversion, composition."""

import json
import math
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
    delta,
    evaluate_series,
    from_coeffs,
    graded_invert,
    invertibility_witness,
    min_modulus_on_disk,
    neumann_invert,
    unit,
    weighted_norm,
)
from dirichlet_forge.errors import (
    CapExceededError,
    NeumannInapplicableError,
    PreconditionError,
    SingularElementError,
    ValidationError,
)
from dirichlet_forge.exactnum import QC
from dirichlet_forge.semigroup import (embedded_basis, free_rational_basis, log_element,
                                      log_primes_basis, natural_basis)
from dirichlet_forge.weights import one as w_one, poly as w_poly
from tests.oracles import (brute_disk_min, brute_exp_sum, brute_half_plane_min,
                          brute_poly_inverse, brute_poly_mul, mobius_sieve)

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
    a = delta(b, b.element(exponents={0: 1}), 1.0, FLOAT)
    f = PowerSeries.from_coeffs([1.0, 1.0, 1.0])
    c, cert = compose_series(f, a)
    assert cert.tail_bound == 0.0
    assert dense(c, 3) == [1, 1, 1, 0]


def test_compose_exp_delta_gives_factorials():
    b = natural_basis()
    a = delta(b, b.element(exponents={0: 1}), 1.0, FLOAT)
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
}
_fracs = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=1000)
_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def json_elements(draw):
    basis = _JSON_BASES[draw(st.sampled_from(sorted(_JSON_BASES)))]
    backend = draw(st.sampled_from([EXACT, FLOAT]))
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
            coeffs[lam] = QC(draw(_fracs), draw(_fracs))
        else:
            coeffs[lam] = complex(draw(_floats), draw(_floats))
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
