"""Exponent bases, semigroup elements, membership, enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_forge import semigroup
from dirichlet_forge.errors import CapExceededError, ValidationError
from dirichlet_forge.semigroup import (
    EMBEDDED,
    FREE,
    Generator,
    SemigroupBasis,
    check_q_independence,
    embedded_basis,
    enumerate_monoid,
    free_rational_basis,
    log_element,
    log_primes_basis,
    membership,
    natural_basis,
)
from tests.oracles import brute_membership, brute_small_relation

F = Fraction


def test_natural_basis_shape():
    b = natural_basis()
    assert b.mode == FREE
    assert len(b.generators) == 1
    assert b.generators[0].exact == (F(1),)
    e = b.element(exponents={0: 5})
    assert e.embedded_value() == (5.0,)
    assert e.exact_value() == (F(5),)


def test_duplicate_generator_ids_rejected():
    g0 = Generator(0, (1.0,), (F(1),))
    g0b = Generator(0, (2.0,), (F(2),))
    with pytest.raises(ValidationError):
        SemigroupBasis(FREE, 1, (g0, g0b))


def test_free_all_exact_requires_independence():
    # (1) and (2) are rationally dependent; a free basis must reject them
    with pytest.raises(ValidationError):
        free_rational_basis([(F(1),), (F(2),)])


def test_embedded_basis_allows_dependence():
    b = embedded_basis([(F(1),), (F(2),)], labels=["a", "b"])
    assert b.mode == EMBEDDED
    e1 = b.element(coords=(F(2),))
    e2 = b.element(coords=(F(2),))
    assert e1 == e2
    assert hash(e1) == hash(e2)


def test_log_primes_basis_small():
    b = log_primes_basis(10)
    labels = [g.label for g in b.generators]
    assert labels == ["log2", "log3", "log5", "log7"]
    e = log_element(b, 12)  # 12 = 2^2 * 3
    assert e.exponent_map(by_label=True) == {"log2": 2, "log3": 1}
    assert math.isclose(e.l1(), math.log(12), rel_tol=1e-12)


def test_log_element_of_one_is_identity():
    b = log_primes_basis(10)
    e = log_element(b, 1)
    assert e == b.zero()
    assert e.l1() == 0.0


def test_element_addition_and_subtraction():
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))], labels=["x", "y"])
    e = b.element(exponents={0: 2, 1: 1})
    f = b.element(exponents={0: 1})
    s = e + f
    assert s.exponent_map(by_label=True) == {"x": 3, "y": 1}
    assert s.subtract(f) == e
    assert f.subtract(e) is None  # would need negative exponents


def test_element_ordering_key_is_by_magnitude():
    b = natural_basis()
    es = [b.element(exponents={0: k}) for k in (3, 1, 2, 0)]
    es.sort(key=lambda e: e.sort_key())
    assert [e.exponent_map().get(0, 0) for e in es] == [0, 1, 2, 3]


def test_basis_json_roundtrip():
    b = free_rational_basis([(F(1), F(2)), (F(0), F(1, 3))], labels=["x", "y"])
    b2 = SemigroupBasis.from_json(b.to_json())
    assert b2 == b
    lb = log_primes_basis(20)
    lb2 = SemigroupBasis.from_json(lb.to_json())
    assert lb2 == lb


def test_element_json_roundtrip():
    b = free_rational_basis([(F(1), F(0)), (F(5, 2), F(1))])
    e = b.element(exponents={0: 2, 1: 3})
    e2 = b.element_from_json(e.to_json())
    assert e2 == e
    eb = embedded_basis([(F(1), F(0)), (F(1), F(1))])
    x = eb.element(coords=(F(3, 2), F(1)))
    x2 = eb.element_from_json(x.to_json())
    assert x2 == x


def test_q_independence_checks():
    assert check_q_independence([(F(1), F(0)), (F(0), F(1))])
    assert not check_q_independence([(F(1), F(2)), (F(2), F(4))])
    assert not check_q_independence([(F(1),), (F(2),)])


def test_membership_independent_case():
    b = free_rational_basis([(F(2), F(0)), (F(0), F(3))])
    got = membership((F(4), F(3)), b)
    assert got == {0: 2, 1: 1}
    assert membership((F(1), F(0)), b) is None
    assert membership((F(0), F(0)), b) == {}


def test_membership_dependent_case_matches_brute():
    b = embedded_basis([(F(2),), (F(3),)])
    for t in range(0, 13):
        got = membership((F(t),), b)
        want = brute_membership((F(t),), [(F(2),), (F(3),)], bound=8)
        assert (got is None) == (want is None)
        if got is not None:
            total = sum(n * b.generators[i].exact[0] for i, n in got.items())
            assert total == F(t)


def test_membership_respects_bound():
    # dependent pair: the bounded search caps each exponent at `bound`
    b = embedded_basis([(F(1),), (F(2),)])
    assert membership((F(100),), b, bound=32) is None  # needs 100 > 32+2*32
    got = membership((F(8),), b, bound=32)
    assert got is not None


def test_enumerate_monoid_natural_numbers():
    b = natural_basis()
    els = enumerate_monoid(b, truncation=5.5)
    mags = [e.l1() for e in els]
    assert mags == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_enumerate_monoid_log_integers():
    b = log_primes_basis(10)
    els = enumerate_monoid(b, truncation=math.log(10) + 1e-9)
    ns = sorted(round(math.exp(e.l1())) for e in els)
    assert ns == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_enumerate_monoid_cap():
    b = natural_basis()
    with pytest.raises(CapExceededError):
        enumerate_monoid(b, truncation=10.0, cap=5)


def test_enumerate_monoid_is_sorted_and_unique():
    b = free_rational_basis([(F(1), F(0)), (F(0), F(3, 2))])
    els = enumerate_monoid(b, truncation=6.0)
    keys = [e.sort_key() for e in els]
    assert keys == sorted(keys)
    assert len(set(els)) == len(els)


@given(st.integers(2, 400))
@settings(max_examples=60, deadline=None)
def test_log_element_factorization_roundtrip(n):
    b = log_primes_basis(400)
    e = log_element(b, n)
    prod = 1
    for label, k in e.exponent_map(by_label=True).items():
        prod *= int(label[3:]) ** k
    assert prod == n


@given(st.lists(st.integers(0, 6), min_size=2, max_size=2),
       st.lists(st.integers(0, 6), min_size=2, max_size=2))
def test_element_add_commutes(xs, ys):
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))])
    e = b.element(exponents={i: v for i, v in enumerate(xs) if v})
    f = b.element(exponents={i: v for i, v in enumerate(ys) if v})
    assert e + f == f + e
    assert (e + f).l1() == pytest.approx(e.l1() + f.l1())


def test_independence_oracle_agreement():
    # small integer-relation search agrees with the exact rank test
    vecs = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    assert brute_small_relation(vecs, box=3) is not None
    assert not check_q_independence(vecs)
    vecs2 = [(F(1), F(0)), (F(0), F(1))]
    assert brute_small_relation(vecs2, box=3) is None
    assert check_q_independence(vecs2)


def test_membership_node_cap(monkeypatch):
    # dependent generators send membership to its exhaustive search
    b = embedded_basis([(F(1),), (F(2),), (F(3),)])
    assert membership((F(49),), b, bound=8) is None  # 49 > 8 + 16 + 24
    monkeypatch.setattr(semigroup, "MEMBERSHIP_NODE_CAP", 50)
    with pytest.raises(CapExceededError, match="MEMBERSHIP_NODE_CAP = 50") as err:
        membership((F(49),), b, bound=8)
    assert "50 visited" in str(err.value) and "bound 8" in str(err.value)
    assert "generator index" in str(err.value)
    # a search that ends below the cap is unaffected
    assert membership((F(3),), b, bound=8) is not None


_gen_frac = st.fractions(min_value=F(1, 3), max_value=F(4), max_denominator=3)


@given(st.lists(st.tuples(_gen_frac, _gen_frac), min_size=3, max_size=4),
       st.tuples(st.fractions(min_value=0, max_value=F(8), max_denominator=3),
                 st.fractions(min_value=0, max_value=F(8), max_denominator=3)),
       st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_membership_search_agrees_with_brute(gens, target, bound):
    # three or more vectors in Q^2 are dependent: the bounded search runs
    b = embedded_basis(gens)
    got = membership(target, b, bound=bound)
    want = brute_membership(target, gens, bound=bound)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(0 <= n <= bound for n in got.values())
        assert tuple(sum((n * gens[i][j] for i, n in got.items()), F(0))
                     for j in range(2)) == target
