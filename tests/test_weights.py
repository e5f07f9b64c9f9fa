"""Weight functions and admissibility diagnostics."""

import math

import pytest
from hypothesis import given, strategies as st

from dirichlet_forge.errors import ValidationError
from dirichlet_forge.weights import (
    WeightFn,
    check_geq_one,
    check_growth_bound,
    check_root_convergence,
    exp_weight,
    one,
    poly,
    product,
    table,
)

mags = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def test_one_weight():
    w = one()
    assert w.eval(0.0) == 1.0
    assert w.eval(17.3) == 1.0


def test_poly_weight_values():
    w = poly(2.0)
    assert w.eval(0.0) == 1.0
    assert w.eval(1.0) == 4.0
    assert w.eval(3.0) == 16.0


def test_poly_rejects_negative_exponent():
    with pytest.raises(ValidationError):
        poly(-1.0)


def test_exp_weight_decays():
    w = exp_weight(0.5)
    assert w.eval(0.0) == 1.0
    assert w.eval(2.0) == pytest.approx(math.exp(-1.0))


def test_product_weight():
    w = product(poly(1.0), exp_weight(0.1))
    assert w.eval(3.0) == pytest.approx(4.0 * math.exp(-0.3))


def test_table_weight_interpolation_and_clamp():
    w = table([(0.0, 1.0), (2.0, 3.0), (4.0, 2.0)])
    assert w.eval(0.0) == 1.0
    assert w.eval(1.0) == 2.0  # linear between (0,1) and (2,3)
    assert w.eval(3.0) == 2.5
    assert w.eval(10.0) == 2.0  # clamped past the last point


def test_table_weight_origin_rules():
    # missing origin gets (0, 1) prepended
    w = table([(1.0, 2.0)])
    assert w.eval(0.0) == 1.0
    with pytest.raises(ValidationError):
        table([(0.0, 5.0)])
    with pytest.raises(ValidationError):
        table([(1.0, 2.0), (1.0, 3.0)])


def test_table_weight_rejects_negative_abscissa():
    # magnitudes are never negative, and (0, 1) in front of (-1, 5) would
    # leave the points unsorted, with w(0) = 1 but w(0.5) = 4 by bisection
    with pytest.raises(ValidationError, match=">= 0"):
        table([(-1.0, 5.0), (2.0, 3.0)])


def test_weight_json_roundtrip():
    for w in [one(), poly(2.5), exp_weight(0.25),
              product(poly(1.0), exp_weight(0.5)),
              table([(0.0, 1.0), (1.0, 2.0)])]:
        w2 = WeightFn.from_json(w.to_json())
        assert w2 == w


def test_eval_accepts_elements():
    from dirichlet_forge.semigroup import natural_basis
    b = natural_basis()
    e = b.element(exponents={0: 3})
    assert poly(1.0).eval(e) == 4.0


def test_check_geq_one():
    assert check_geq_one(poly(2.0), [0.0, 1.0, 5.0, 30.0])
    assert not check_geq_one(exp_weight(1.0), [0.0, 1.0])
    # a value past the float range counts as +inf, as in the root check
    assert check_geq_one(poly(1000.0), [0.0, 50.0])
    assert check_geq_one(exp_weight(-1000.0), [0.0, 50.0])


def test_root_convergence_poly_passes():
    rep = check_root_convergence(poly(3.0), 1.0)
    assert rep.passed
    assert rep.min_root <= 1.05
    # roots decrease toward 1 along the doubling schedule
    rs = [r for _, r in rep.roots]
    assert rs[-1] < rs[0]


def test_root_convergence_growing_exp_fails():
    # w(m) = e^{+m} has w(km)^{1/k} = e^m > 1 for m = 1: no convergence to 1
    w = exp_weight(-1.0)
    rep = check_root_convergence(w, 1.0, tol=0.05)
    assert not rep.passed


def test_root_convergence_overflow_flag():
    w = exp_weight(-100.0)
    rep = check_root_convergence(w, 10.0)
    assert rep.overflowed
    assert not rep.passed


def test_submultiplicative_samples():
    # w(x + y) <= w(x) w(y) for the weights of the paper, read off eval
    pairs = [(0.5, 1.5), (2.0, 3.0), (0.0, 7.0)]
    for w in (poly(2.0), one(), product(poly(1.0), exp_weight(-0.25))):
        for x, y in pairs:
            assert w.eval(x + y) <= w.eval(x) * w.eval(y) * (1 + 1e-12)
    # a growing exponential is multiplicative: equality
    w = exp_weight(-0.5)
    for x, y in pairs:
        assert math.isclose(w.eval(x + y), w.eval(x) * w.eval(y), rel_tol=1e-12)


def test_growth_bound_poly_vs_exp():
    samples = [float(k) for k in range(0, 200)]
    rep = check_growth_bound(poly(2.0), theta=0.1, samples=samples)
    assert rep.trend == "bounded"
    assert rep.sup < math.inf
    rep2 = check_growth_bound(exp_weight(-0.5), theta=0.1, samples=samples)
    assert rep2.trend == "increasing"


@given(mags, mags)
def test_poly_weight_submultiplicative_property(a, b):
    w = poly(2.0)
    assert w.eval(a + b) <= w.eval(a) * w.eval(b) * (1 + 1e-9)


@given(mags, mags)
def test_decaying_exp_weight_submultiplicative_property(a, b):
    w = exp_weight(0.3)
    assert w.eval(a + b) <= w.eval(a) * w.eval(b) * (1 + 1e-9)


@given(mags)
def test_poly_weight_at_least_one(m):
    assert poly(1.7).eval(m) >= 1.0


@given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_product_is_pointwise_product(m):
    w1, w2 = poly(1.0), poly(2.0)
    assert product(w1, w2).eval(m) == pytest.approx(w1.eval(m) * w2.eval(m))
