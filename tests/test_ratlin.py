"""Exact rational linear algebra."""

from fractions import Fraction

from hypothesis import given, strategies as st

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
