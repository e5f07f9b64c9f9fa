"""Exponent bases, semigroup elements, enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_forge.errors import CapExceededError, ValidationError
from dirichlet_forge.semigroup import (
    EMBEDDED,
    FREE,
    Generator,
    SemigroupBasis,
    SemigroupElement,
    check_q_independence,
    embedded_basis,
    enumerate_monoid,
    free_rational_basis,
    log_element,
    log_primes_basis,
    natural_basis,
)
from tests.oracles import brute_primes_upto, brute_small_relation, label_log_element

F = Fraction


def test_natural_basis_shape():
    b = natural_basis()
    assert b.mode == FREE
    assert len(b.generators) == 1
    assert b.generators[0].exact == (F(1),)
    e = b.element(exponents={0: 5})
    assert e.embedded_value() == (5.0,)


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
    assert e.exponents == ((0, 2), (1, 1))  # log2, log3
    assert math.isclose(e.l1(), math.log(12), rel_tol=1e-12)


def test_log_element_of_one_is_identity():
    b = log_primes_basis(10)
    e = log_element(b, 1)
    assert e == b.zero()
    assert e.l1() == 0.0


@pytest.mark.parametrize("n", [0, -3, 2.0, True])
def test_log_element_rejects_n_that_is_not_a_positive_int(n):
    with pytest.raises(ValidationError, match=r"n = "):
        log_element(log_primes_basis(10), n)


@pytest.mark.parametrize("limit", [10.5, 10.0, True, False, "10", None])
def test_log_primes_basis_rejects_limit_that_is_not_an_int(limit):
    with pytest.raises(ValidationError, match=r"limit = "):
        log_primes_basis(limit)


@pytest.mark.parametrize("limit", [-5, 0, 1])
def test_log_primes_basis_below_two_is_empty(limit):
    assert log_primes_basis(limit).generators == ()


@pytest.mark.parametrize("k", [0, 1, 5, 6, 7, 30, 430, 1229, 2000])
def test_key_primes_are_the_first_primes(k):
    b = SemigroupBasis(FREE, 1, tuple(Generator(i, (1.0 + i,)) for i in range(k)))
    assert list(b.key_primes.values()) == brute_primes_upto(20_000)[:k]


def test_log_table_is_built_on_first_use_and_bounded():
    b = log_primes_basis(100)
    enumerate_monoid(b, truncation=3.0)
    assert "_log_table" not in vars(b)
    log_element(b, 6)
    ids, spf = b._log_table
    assert len(ids) == 25 and len(spf) == 98  # up to the largest labelled prime, 97
    # a label past the bound on the third prime leaves the table small, and
    # its prime is still found by trial division
    decoy = SemigroupBasis.from_json({"mode": "free", "r": 1, "generators": [
        {"id": i, "value": [1.0 + i], "label": label}
        for i, label in enumerate(["log2", "log3", "log10007"])]})
    assert log_element(decoy, 6 * 10007).exponents == ((0, 1), (1, 1), (2, 1))
    assert len(decoy._log_table[1]) == 12


def _log_outcome(f, basis, n):
    """(exponents, key) of f(basis, n), or (error type, message)."""
    try:
        e = f(basis, n)
    except Exception as exc:  # compared with the oracle's exception
        return type(exc), str(exc)
    return e.exponents, e.key()


_LOG_LABELS = ["log02", "log4", "log+3", "log\u0663", "log\u00b2", "log", "", "log 5",
               "log3", "log7", "log10007", "3", "log1_1", "log" + "7" * 5000]


@st.composite
def _log_bases(draw):
    """log_primes_basis(limit), an embedded basis, or a JSON-built free basis
    with shuffled ids, missing primes and decoy labels."""
    kind = draw(st.sampled_from(["primes", "json", "embedded"]))
    if kind == "primes":
        return log_primes_basis(draw(st.integers(0, 300)))
    if kind == "embedded":
        return embedded_basis([(F(1),), (F(2),)], labels=["log2", "log3"])
    primes = draw(st.lists(st.sampled_from(brute_primes_upto(60)), unique=True, max_size=12))
    labels = draw(st.permutations([f"log{p}" for p in primes]
                                  + draw(st.lists(st.sampled_from(_LOG_LABELS), max_size=4))))
    ids = draw(st.lists(st.integers(0, 99), min_size=len(labels), max_size=len(labels),
                        unique=True))
    return SemigroupBasis.from_json({"mode": "free", "r": 1, "generators": [
        {"id": i, "value": [1.0 + k], "exact": None, "label": label}
        for k, (i, label) in enumerate(zip(ids, labels))]})


@given(_log_bases(), st.one_of(
    st.integers(-2, 400),
    st.sampled_from([2**40, 3**25, 2 * 10007, 10007**2, 10**9 + 7, True, False, 2.0, "6"])))
@settings(max_examples=300, deadline=None)
def test_log_element_matches_label_lookup_oracle(basis, n):
    assert _log_outcome(log_element, basis, n) == _log_outcome(label_log_element, basis, n)


def test_element_addition():
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))], labels=["x", "y"])
    e = b.element(exponents={0: 2, 1: 1})
    f = b.element(exponents={0: 1})
    assert (e + f).exponents == ((0, 3), (1, 1))


@given(st.dictionaries(st.integers(0, 1), st.integers(0, 6), max_size=2),
       st.dictionaries(st.integers(0, 1), st.integers(0, 6), max_size=2))
@settings(max_examples=60, deadline=None)
def test_element_addition_is_commutative_and_adds_values(ex, fx):
    b = free_rational_basis([(F(1), F(0)), (F(5, 2), F(1))])
    e, f = b.element(exponents=ex), b.element(exponents=fx)
    s = e + f
    assert s == f + e and e + b.zero() == e
    assert all(math.isclose(v, x + y, rel_tol=1e-12, abs_tol=1e-12)
               for v, x, y in zip(s.embedded_value(), e.embedded_value(),
                                  f.embedded_value()))
    # over the embedded basis spanned by the same columns, coordinates add
    eb = embedded_basis([(F(1), F(0)), (F(5, 2), F(1))])
    c = eb.element(coords=e.embedded_value()) + eb.element(coords=f.embedded_value())
    assert c.coords == tuple(F(x) + F(y) for x, y in
                             zip(e.embedded_value(), f.embedded_value()))


def test_element_rejects_negative_and_unknown_parts():
    # the monoid has no inverses: a difference with a negative exponent or
    # coordinate is not an element
    b = free_rational_basis([(F(1), F(0)), (F(0), F(1))])
    with pytest.raises(ValidationError, match="nonnegative"):
        b.element(exponents={0: 1, 1: -1})
    with pytest.raises(ValidationError, match="unknown generator id 7"):
        b.element(exponents={7: 1})
    with pytest.raises(ValidationError, match="malformed element JSON"):
        SemigroupElement.from_json(b, {"exponents": {"0": "x"}})
    eb = embedded_basis([(F(1), F(0)), (F(1), F(1))])
    with pytest.raises(ValidationError, match="nonnegative"):
        eb.element(coords=(F(1), F(-1, 2)))
    with pytest.raises(ValidationError, match="expected 2 coordinates"):
        eb.element(coords=(F(1),))


def test_element_ordering_key_is_by_magnitude():
    b = natural_basis()
    es = [b.element(exponents={0: k}) for k in (3, 1, 2, 0)]
    es.sort(key=lambda e: e.sort_key())
    assert [dict(e.exponents).get(0, 0) for e in es] == [0, 1, 2, 3]


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
    e2 = SemigroupElement.from_json(b, e.to_json())
    assert e2 == e
    eb = embedded_basis([(F(1), F(0)), (F(1), F(1))])
    x = eb.element(coords=(F(3, 2), F(1)))
    x2 = SemigroupElement.from_json(eb, x.to_json())
    assert x2 == x


def test_q_independence_checks():
    assert check_q_independence([(F(1), F(0)), (F(0), F(1))])
    assert not check_q_independence([(F(1), F(2)), (F(2), F(4))])
    assert not check_q_independence([(F(1),), (F(2),)])


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
    for gid, k in e.exponents:
        prod *= int(b.by_id[gid].label[3:]) ** k
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
