"""Exact rational linear algebra."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dirichlet_forge.ratlin import (
    canonical_line,
    canonical_ray,
    dot,
    independent_subset,
    invert_matrix,
    kernel_basis,
    rank,
    rref,
    solve,
    vadd,
    vscale,
    vsub,
)
from tests.oracles import brute_rref

F = Fraction
small_frac = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=6)


def mat(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_known_case():
    rows, pivots = rref(mat([[1, 2, 3], [2, 4, 7], [1, 2, 4]]))
    assert list(pivots) == [0, 2]
    assert [list(r) for r in rows] == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rank_cases():
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank([]) == 0
    assert rank(mat([[0, 0]])) == 0


def test_solve_unique_and_underdetermined():
    x = solve(mat([[2, 0], [0, 4]]), [F(6), F(8)])
    assert list(x) == [F(3), F(2)]
    # one equation, two unknowns: free variable pinned to zero
    x = solve(mat([[1, 1]]), [F(5)])
    assert x is not None
    assert x[0] + x[1] == F(5)


def test_solve_inconsistent_returns_none():
    assert solve(mat([[1, 1], [1, 1]]), [F(1), F(2)]) is None
    assert solve(mat([[0, 0]]), [F(1)]) is None


def test_kernel_basis_matches_rank():
    ker = kernel_basis(mat([[1, 1, 0], [0, 0, 1]]))
    assert len(ker) == 1
    for v in ker:
        assert dot(mat([[1, 1, 0]])[0], v) == 0
        assert dot(mat([[0, 0, 1]])[0], v) == 0


def test_invert_matrix_known():
    inv = invert_matrix(mat([[2, 1], [1, 1]]))
    assert [list(r) for r in inv] == [[F(1), F(-1)], [F(-1), F(2)]]
    assert invert_matrix(mat([[1, 2], [2, 4]])) is None


def test_independent_subset_picks_first_maximal():
    vs = mat([[1, 0], [2, 0], [0, 1], [1, 1]])
    idx = independent_subset(vs)
    assert idx == [0, 2]


def test_canonical_ray():
    assert canonical_ray([F(2, 3), F(4, 3)]) == (F(1), F(2))
    assert canonical_ray([F(-2), F(-4)]) == (F(-1), F(-2))
    assert canonical_ray([F(0), F(6)]) == (F(0), F(1))


def test_canonical_line_fixes_sign():
    assert canonical_line([F(-1), F(-2)]) == (F(1), F(2))
    assert canonical_line([F(1), F(2)]) == (F(1), F(2))
    assert canonical_line([F(0), F(-3)]) == (F(0), F(1))


@st.composite
def matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    return [[draw(small_frac) for _ in range(m)] for _ in range(n)]


@given(matrices())
def test_rref_idempotent(rows):
    reduced, pivots = rref(rows)
    again, pivots2 = rref([list(r) for r in reduced])
    assert again == reduced
    assert pivots2 == pivots


@given(matrices())
def test_solve_then_verify(rows):
    # manufacture a consistent rhs from a known solution
    m = len(rows[0])
    x0 = [F(k + 1, 2) for k in range(m)]
    rhs = [dot(r, x0) for r in rows]
    x = solve(rows, rhs)
    assert x is not None
    for r, b in zip(rows, rhs):
        assert dot(r, x) == b


@given(matrices())
def test_kernel_vectors_annihilate(rows):
    for v in kernel_basis(rows):
        for r in rows:
            assert dot(r, v) == 0


@given(matrices(max_n=3))
def test_rank_plus_nullity(rows):
    m = len(rows[0])
    assert rank(rows) + len(kernel_basis(rows)) == m


@given(st.lists(st.lists(small_frac, min_size=3, max_size=3), min_size=1, max_size=5))
def test_independent_subset_is_independent_and_spanning(vs):
    idx = independent_subset(vs)
    assert rank([vs[i] for i in idx]) == len(idx) == rank(vs)
    # greedy: each skipped vector lies in the span of the ones chosen before it
    for i in set(range(len(vs))) - set(idx):
        before = [vs[j] for j in idx if j < i]
        assert rank(before + [vs[i]]) == len(before)


def test_vector_helpers():
    a, b = [F(1), F(2)], [F(3), F(-1)]
    assert list(vadd(a, b)) == [F(4), F(1)]
    assert list(vsub(a, b)) == [F(-2), F(3)]
    assert list(vscale(F(2), a)) == [F(2), F(4)]
    assert dot(a, b) == F(1)


# -- fraction-free rref against the Fraction elimination it replaced ----------

mixed = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=12)


@st.composite
def deficient_matrices(draw):
    """Rows that are rational combinations of fewer rows, with zero and
    repeated rows mixed in."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    base = [[draw(mixed) for _ in range(n)] for _ in range(k)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["comb", "comb", "zero", "base"]))
        if kind == "zero":
            rows.append([F(0)] * n)
        elif kind == "base":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            cs = [draw(mixed) for _ in base]
            rows.append([sum((c * b[j] for c, b in zip(cs, base)), F(0)) for j in range(n)])
    return rows


@given(st.one_of(matrices(max_n=6), deficient_matrices()))
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_elimination(rows):
    assert rref(rows) == brute_rref(rows)


_float = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.one_of(_float, st.integers(-5, 5)), min_size=n, max_size=n),
                       min_size=1, max_size=4)))
@settings(max_examples=150, deadline=None)
def test_rref_reads_floats_exactly(rows):
    # a float is the rational its binary expansion names; no rounding enters
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == brute_rref([[F(x) for x in r] for r in rows])
    assert all(isinstance(x, F) for r in reduced for x in r)

