"""Exact rational linear algebra."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dirichlet_forge.ratlin import (
    dot,
    independent_subset,
    integer_inverse,
    integer_left_kernel,
    integer_rref,
    integer_scaled,
    kernel_basis,
    lll_reduce,
    pivot_columns,
    primitive,
    rank,
    reduce_modulo_image,
    rref,
    solve,
)
from tests.oracles import brute_rref, fraction_independent_subset

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


def test_independent_subset_picks_first_maximal():
    vs = mat([[1, 0], [2, 0], [0, 1], [1, 1]])
    idx = independent_subset(vs)
    assert idx == [0, 2]


def test_primitive_returns_coprime_ints():
    assert primitive([F(2, 3), F(-4, 3)]) == (1, -2)
    assert primitive([0.5, 1.5, 0]) == (1, 3, 0)
    assert primitive([0, 0]) == (0, 0) and primitive([]) == ()
    assert all(type(x) is int for x in primitive([F(6), F(-9)]))


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
    assert dot(a, b) == F(1) and type(dot(a, b)) is F
    # int rays give an int, exactly
    assert dot((1, 2), (3, -1)) == 1 and type(dot((1, 2), (3, -1))) is int


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


@given(st.one_of(matrices(max_n=6), deficient_matrices(), st.just([])))
@settings(max_examples=300, deadline=None)
def test_rref_is_integer_rref_over_its_scale(rows):
    M, pivots, d = integer_rref(rows)
    assert d != 0 and all(type(x) is int for row in M for x in row)
    for i, row in enumerate(M):
        assert [row[p] for p in pivots] == [d if j == i else 0 for j in range(len(pivots))]
    assert rref(rows) == ([tuple(F(x, d) for x in row) for row in M], pivots)


@given(st.one_of(deficient_matrices(), matrices(max_n=6),
                 st.integers(1, 4).flatmap(lambda n: st.lists(
                     st.lists(st.one_of(_float, st.integers(-3, 3)), min_size=n, max_size=n),
                     max_size=6))))
@settings(max_examples=300, deadline=None)
def test_independent_subset_matches_fraction_loop(vectors):
    """Zero, repeated, dependent and float vectors: the same greedy indices
    as the incremental Fraction reduction."""
    assert independent_subset(vectors) == fraction_independent_subset(vectors)


@given(st.one_of(matrices(max_n=6), deficient_matrices()))
@settings(max_examples=200, deadline=None)
def test_kernel_and_inverse_match_fraction_elimination(rows):
    """kernel_basis is 1 on its free column and minus the Fraction RREF's
    entries on the pivots; integer_inverse of a square block over its scale
    is the right half of the Fraction RREF of [block | I]."""
    n = len(rows[0])
    red, pivots = brute_rref(rows)
    want = []
    for f in (c for c in range(n) if c not in pivots):
        x = [F(int(c == f)) for c in range(n)]
        for row, c in zip(red, pivots):
            x[c] = -row[f]
        want.append(tuple(x))
    assert kernel_basis(rows) == want
    k = min(n, len(rows))
    block = [list(r[:k]) for r in rows[:k]]
    red, pivots = brute_rref([r + [F(int(i == j)) for j in range(k)] for i, r in enumerate(block)])
    want = [tuple(r[k:]) for r in red] if pivots[:k] == list(range(k)) else None
    inv = integer_inverse(block)
    if inv is None:
        assert want is None
    else:
        A, s = inv
        assert s > 0 and [tuple(F(x, s) for x in row) for row in A] == want


@given(st.one_of(matrices(max_n=6), deficient_matrices(), st.just([])))
@settings(max_examples=300, deadline=None)
def test_rank_counts_pivots_of_fraction_elimination(rows):
    # deficient_matrices mixes rank-deficient, zero and repeated rows with
    # denominators up to 12
    reduced, pivots = brute_rref(rows)
    assert rank(rows) == len(reduced)
    assert pivot_columns(rows) == pivots
    assert pivot_columns([integer_scaled(r)[0] for r in rows]) == pivots
    assert rank([[float(x) for x in r] for r in rows]) == len(
        brute_rref([[F(float(x)) for x in r] for r in rows])[0])


# -- integer lattices ---------------------------------------------------------


def _det(rows):
    m = [[F(x) for x in r] for r in rows]
    det = F(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _is_lll_reduced(rows):
    """Size-reduced (|mu| <= 1/2) and Lovasz (delta = 3/4), by Fraction
    Gram-Schmidt."""
    star, mu = [], {}
    for i, b in enumerate(rows):
        v = [F(x) for x in b]
        for j, s in enumerate(star):
            mu[i, j] = dot(b, s) / dot(s, s)
            v = [a - mu[i, j] * c for a, c in zip(v, s)]
        star.append(v)
    size = all(abs(x) <= F(1, 2) for x in mu.values())
    lovasz = all(dot(star[k], star[k]) >= (F(3, 4) - mu[k, k - 1] ** 2)
                 * dot(star[k - 1], star[k - 1]) for k in range(1, len(rows)))
    return size and lovasz


def _minors_gcd(rows):
    from itertools import combinations
    from math import gcd
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, int(_det([[r[c] for c in cols] for r in rows])))
    return g


int_matrices = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=1, max_size=6))


def test_lll_reduce_known_case():
    # the textbook example (delta = 3/4)
    reduced, T = lll_reduce([[1, 1, 1], [-1, 0, 2], [3, 5, 6]])
    assert reduced == [(0, 1, 0), (1, 0, 1), (-1, 0, 2)]
    assert _is_lll_reduced(reduced) and abs(_det(T)) == 1


@given(int_matrices)
@settings(max_examples=150, deadline=None)
def test_lll_reduce_is_a_reduced_unimodular_change_of_basis(rows):
    if rank(rows) < len(rows):
        rows = [r for i, r in enumerate(rows) if i in pivot_columns(
            [list(c) for c in zip(*rows)])]
    reduced, T = lll_reduce(rows)
    assert abs(_det(T)) == 1
    assert [list(r) for r in reduced] == [
        [sum(t * row[j] for t, row in zip(trow, rows)) for j in range(len(rows[0]))]
        for trow in T]
    assert _is_lll_reduced(reduced)


def test_integer_left_kernel_known_case():
    # 19 x = 1 y: the kernel is spanned by (1, -19) and nothing shorter
    K, A = integer_left_kernel([[19], [1]])
    assert [list(k) for k in K] in ([[1, -19]], [[-1, 19]])
    assert sum(k * a[0] for k, a in zip(K[0], A)) == 1
    assert integer_left_kernel([[1, 0], [0, 1]]) == ([], [(), ()])


@given(int_matrices)
@settings(max_examples=200, deadline=None)
def test_integer_left_kernel_is_a_saturated_reduced_basis(rows):
    K, A = integer_left_kernel(rows)
    m, n = len(rows), len(rows[0])
    assert len(K) == m - rank(rows)
    for k in K:                                   # K E = 0
        assert all(sum(k[i] * rows[i][j] for i in range(m)) == 0 for j in range(n))
    # K A = I: a right inverse, so K maps Z^m onto Z^r
    assert [[sum(k[i] * a[c] for i, a in enumerate(A)) for c in range(len(K))] for k in K] \
        == [[int(r == c) for c in range(len(K))] for r in range(len(K))]
    if K:
        assert _minors_gcd(K) == 1                # saturated
        assert _is_lll_reduced(K)


@given(int_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_reduce_modulo_image_rounds_the_least_squares_coordinates(rows, data):
    v = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=len(rows),
                           max_size=len(rows)))
    out = reduce_modulo_image(rows, v)
    cols = [[r[c] for r in rows] for c in pivot_columns(rows)]
    if not cols:
        assert out == v
        return
    # v - out is an integer combination of the pivot columns of E
    z = solve([list(r) for r in zip(*cols)], [a - b for a, b in zip(v, out)])
    assert z is not None and all(x.denominator == 1 for x in z)
    # and out's least-squares coordinates lie in the half-unit box
    gram = [[sum(p * q for p, q in zip(a, b)) for b in cols] for a in cols]
    x = solve(gram, [sum(p * q for p, q in zip(a, out)) for a in cols])
    assert all(abs(c) <= F(1, 2) for c in x)
