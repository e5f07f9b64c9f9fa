"""Exact simplex and Fourier-Motzkin elimination."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dirichlet_forge import exact_lp
from dirichlet_forge.errors import CapExceededError
from dirichlet_forge.exact_lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    feasible_functional,
    feasible_geq_one,
    fourier_motzkin,
    max_coordinate,
    nonneg_combination,
    solve_standard,
)
from dirichlet_forge.ratlin import dot, integer_pivot
from tests.oracles import brute_solve_standard, fraction_fourier_motzkin

F = Fraction
small = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=4)


def test_simplex_textbook_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 (slacks added by hand)
    A = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    res = solve_standard([3, 2, 0, 0], A, b)
    assert res.status == OPTIMAL
    assert res.objective == F(12)  # x = 4, y = 0
    assert res.x[0] == F(4) and res.x[1] == F(0)


def test_simplex_degenerate_optimum():
    # redundant constraint row triggers the drive-out path
    A = [[1, 1, 1, 0], [2, 2, 2, 0]]
    b = [4, 8]
    res = solve_standard([1, 0, 0, 0], A, b)
    assert res.status == OPTIMAL
    assert res.objective == F(4)


def test_simplex_infeasible_with_farkas():
    # x1 + x2 = -1 with x >= 0 cannot hold
    A = [[1, 1]]
    b = [-1]
    res = solve_standard([0, 0], A, b)
    assert res.status == INFEASIBLE
    y = res.farkas
    # y.A <= 0 and y.b > 0, checked exactly
    assert all(sum(yi * aij for yi, aij in zip(y, col)) <= 0
               for col in zip(*A))
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_simplex_unbounded():
    # max x with only x - y = 1: x can grow with y
    res = solve_standard([1, 0], [[1, -1]], [1])
    assert res.status == UNBOUNDED


def test_simplex_zero_rows_and_empty():
    res = solve_standard([-1, -2], [], [])
    assert res.status == OPTIMAL and res.objective == 0
    res = solve_standard([1], [], [])
    assert res.status == UNBOUNDED


def test_nonneg_combination_found():
    t, rho = nonneg_combination([(1, 0), (0, 1), (1, 1)], (3, 2))
    assert rho is None
    total = [sum(ti * v for ti, v in zip(t, col)) for col in zip(*[(1, 0), (0, 1), (1, 1)])]
    assert total == [F(3), F(2)]
    assert all(ti >= 0 for ti in t)


def test_nonneg_combination_separated():
    t, rho = nonneg_combination([(1, 0), (0, 1)], (-1, 1))
    assert t is None
    assert sum(r * v for r, v in zip(rho, (-1, 1))) > 0
    for g in [(1, 0), (0, 1)]:
        assert sum(r * v for r, v in zip(rho, g)) <= 0


def test_max_coordinate():
    # x = g0 + g1; each coordinate achieves its cap 1
    gens = [(1, 0), (0, 1)]
    val, t = max_coordinate(gens, (1, 1), 0)
    assert val == F(1)
    # target on the g0 ray: coordinate 1 is stuck at zero
    val, t = max_coordinate(gens, (2, 0), 1)
    assert val == F(0)
    # unreachable target
    val, t = max_coordinate(gens, (-1, 0), 0)
    assert val is None and t is None


def test_feasible_geq_one_separating():
    rho, coeffs = feasible_geq_one([(1, 0), (0, 1), (1, 1)])
    assert coeffs is None
    for p in [(1, 0), (0, 1), (1, 1)]:
        assert sum(r * v for r, v in zip(rho, p)) >= 1


def test_feasible_geq_one_zero_in_hull():
    rho, coeffs = feasible_geq_one([(1, 0), (-1, 0), (0, 1)])
    assert rho is None
    assert sum(coeffs) == 1
    assert all(c >= 0 for c in coeffs)
    mix = [sum(c * p[d] for c, p in zip(coeffs, [(1, 0), (-1, 0), (0, 1)]))
           for d in range(2)]
    assert mix == [F(0), F(0)]


@st.composite
def strict_and_weak_points(draw):
    d = draw(st.integers(1, 4))
    point = st.tuples(*[small] * d)
    return (draw(st.lists(point, min_size=1, max_size=5)),
            draw(st.lists(point, max_size=5)))


@given(strict_and_weak_points())
@settings(max_examples=200, deadline=None)
@example(([(F(1), F(0)), (F(1), F(1))], []))
@example(([(F(2),)], [(F(-1),)]))
def test_feasible_functional_scaling_or_certificate(case):
    """Success: min chi . s over the strict points is exactly 1 and chi . w
    >= 0 on the weak ones.  Failure: nonnegative multipliers, a positive
    strict sum, combining the points to 0."""
    strict, weak = case
    chi, cert = feasible_functional(strict, weak)
    if chi is not None:
        assert cert is None
        assert min(dot(chi, s) for s in strict) == 1
        assert all(dot(chi, w) >= 0 for w in weak)
        return
    ys, yw = cert
    assert len(ys) == len(strict) and len(yw) == len(weak)
    assert all(y >= 0 for y in ys + yw) and sum(ys) > 0
    assert all(sum(y * p[j] for y, p in zip(ys + yw, strict + weak)) == 0
               for j in range(len(strict[0])))


def test_feasible_geq_one_one_dimensional():
    rho, coeffs = feasible_geq_one([(F(2),), (F(-3),)])
    assert rho is None
    # unique convex combination: 3/5 * 2 + 2/5 * (-3) = 0
    assert coeffs == [F(3, 5), F(2, 5)]


def test_fourier_motzkin_feasible_box():
    # 0 <= x <= 1, 0 <= y <= 1, x + y <= 3/2
    A = [[-1, 0], [1, 0], [0, -1], [0, 1], [1, 1]]
    b = [0, 1, 0, 1, F(3, 2)]
    ok, x = fourier_motzkin(A, b)
    assert ok
    for row, bi in zip(A, b):
        assert sum(r * v for r, v in zip(row, x)) <= bi


def test_fourier_motzkin_infeasible():
    # x <= 0 and -x <= -1 means x >= 1: contradiction
    ok, x = fourier_motzkin([[1], [-1]], [0, -1])
    assert not ok and x is None


def test_fourier_motzkin_empty_system():
    ok, x = fourier_motzkin([], [])
    assert ok


@st.composite
def lp_instances(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    pts = [tuple(draw(small) for _ in range(d)) for _ in range(k)]
    return pts


@given(lp_instances())
@settings(max_examples=120, deadline=None)
def test_separation_dichotomy_cross_checked(pts):
    """feasible_geq_one agrees with Fourier-Motzkin on every low-dim instance."""
    rho, coeffs = feasible_geq_one(list(pts))
    d = len(pts[0])
    # FM solves the same system: -x_i . rho <= -1
    A = [[-v for v in p] for p in pts]
    b = [F(-1)] * len(pts)
    ok, x = fourier_motzkin(A, b)
    if rho is not None:
        assert ok
        assert coeffs is None
        for p in pts:
            assert sum(r * v for r, v in zip(rho, p)) >= 1
    else:
        assert not ok
        assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
        for dd in range(d):
            assert sum(c * p[dd] for c, p in zip(coeffs, pts)) == 0


@given(lp_instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_nonneg_combination_dichotomy(pts, data):
    d = len(pts[0])
    target = tuple(data.draw(small) for _ in range(d))
    t, rho = nonneg_combination(list(pts), target)
    if t is not None:
        assert all(ti >= 0 for ti in t)
        for dd in range(d):
            assert sum(ti * p[dd] for ti, p in zip(t, pts)) == target[dd]
    else:
        # rho certifies: nonpositive on every generator, positive on target
        assert sum(r * v for r, v in zip(rho, target)) > 0
        for p in pts:
            assert sum(r * v for r, v in zip(rho, p)) <= 0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_random_bounded_lp_never_cycles(seed):
    """Objective maximization over a random bounded polytope terminates
    and the reported optimum is attained by the reported point."""
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    k = rng.randint(1, 4)
    # equalities sum t_i v_i = target built from a known nonneg t
    vs = [tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(k)]
    t0 = [F(rng.randint(0, 3)) for _ in range(k)]
    target = [sum(t * v[dd] for t, v in zip(t0, vs)) for dd in range(d)]
    idx = rng.randrange(k)
    val, t = max_coordinate(vs, target, idx, cap=F(5))
    assert val is not None  # t0 is a feasible point
    assert t[idx] == val
    assert F(0) <= val <= F(5)
    for dd in range(d):
        assert sum(ti * v[dd] for ti, v in zip(t, vs)) == target[dd]


# -- the integer tableau against the Fraction simplex it replaced -------------

mixed = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=12)


def _same(res, ref):
    assert (res.status, res.x, res.objective, res.farkas) == \
        (ref.status, ref.x, ref.objective, ref.farkas)


@st.composite
def lp_systems(draw):
    """(c, A, b) with mixed denominators, negative right-hand sides, and
    zero or repeated rows (the redundant-row deletion after phase 1)."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    A, b = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(["row", "row", "row", "zero", "repeat"]))
        if kind == "zero":
            A.append([F(0)] * n)
            b.append(draw(st.sampled_from([F(0), F(0), F(1)])))
        elif kind == "repeat" and A:
            i = draw(st.integers(0, len(A) - 1))
            k = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
            A.append([k * v for v in A[i]])
            b.append(k * b[i])
        else:
            A.append([draw(mixed) for _ in range(n)])
            b.append(draw(mixed))
    c = [draw(mixed) for _ in range(n)]
    return c, A, b


@given(lp_systems())
@settings(max_examples=300, deadline=None)
@example(([F(1), F(0)], [[F(1), F(-1)]], [F(1)]))                 # unbounded
@example(([F(0), F(0)], [[F(1), F(1)], [F(1), F(2)]], [F(-1), F(2)]))  # infeasible
@example(([F(1, 2), F(-1)], [], []))                               # m = 0
def test_solve_standard_matches_fraction_simplex(case):
    c, A, b = case
    _same(solve_standard(c, A, b), brute_solve_standard(c, A, b))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_solve_standard_matches_on_cone_lps(seed):
    """The LP shapes the cone code builds: nonnegative combinations and
    functionals >= 1, over small integer points with denominators."""
    rng = random.Random(seed)
    d, k = rng.randint(1, 4), rng.randint(1, 6)
    pts = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)] for _ in range(k)]
    A = [[p[i] for p in pts] for i in range(d)]
    target = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    _same(solve_standard([F(0)] * k, A, target), brute_solve_standard([F(0)] * k, A, target))
    A = [list(p) + [-v for v in p] + [F(-int(j == i)) for j in range(k)]
         for i, p in enumerate(pts)]
    c = [F(rng.randint(-2, 2)) for _ in range(2 * d + k)]
    _same(solve_standard(c, A, [F(1)] * k), brute_solve_standard(c, A, [F(1)] * k))


def test_solve_standard_negative_drive_out_pivot(monkeypatch):
    # phase 1 leaves an artificial basic whose first nonzero structural
    # entry is negative; phase 2 pivots again after it
    c = [1, 0, 1, 0]
    A = [[0, F(-3, 2), -1, 0], [1, 0, -2, F(-3, 2)], [-1, F(1, 2), 0, -1]]
    b = [0, 0, -1]
    pivots = []

    def spy(M, r, col, d):
        p = integer_pivot(M, r, col, d)
        pivots.append(p)
        return p

    monkeypatch.setattr(exact_lp, "integer_pivot", spy)
    res = solve_standard(c, A, b)
    neg = [i for i, p in enumerate(pivots) if p < 0]
    assert neg and neg[-1] < len(pivots) - 1
    assert res.status == OPTIMAL
    assert res.x == [F(3, 5), F(0), F(0), F(2, 5)] and res.objective == F(3, 5)
    _same(res, brute_solve_standard(c, A, b))


def test_integer_pivot_checks_each_division():
    # the scale 3 is not the determinant of anything here: 1 / 3 is inexact
    with pytest.raises(AssertionError):
        integer_pivot([[2, 1], [1, 1]], 0, 0, 3)
    M = [[2, 1], [1, 1]]
    assert integer_pivot(M, 0, 0, 1) == 2 and M == [[2, 1], [0, 1]]


def test_fourier_motzkin_row_cap(monkeypatch):
    # eliminating x1 pairs 3 upper with 3 lower bounds: 9 rows, cap 5
    A = [[1, 1], [2, 1], [-1, 1], [1, -1], [-2, -1], [0, -1]]
    b = [1] * 6
    assert fourier_motzkin(A, b)[0]
    monkeypatch.setattr(exact_lp, "FM_ROW_CAP", 5)
    with pytest.raises(CapExceededError) as exc:
        fourier_motzkin(A, b)
    msg = str(exc.value)
    assert "FM_ROW_CAP = 5" in msg and "x1" in msg
    assert "0 of 2 variables eliminated" in msg and "6 rows held" in msg
    # the cap also binds after a first elimination: x1 leaves 9 rows, then
    # x0 would pair their upper and lower bounds into more than 9
    monkeypatch.setattr(exact_lp, "FM_ROW_CAP", 9)
    with pytest.raises(CapExceededError) as exc:
        fourier_motzkin(A, b)
    assert "of x0" in str(exc.value)
    assert "1 of 2 variables eliminated (x1), 9 rows held" in str(exc.value)



_fm_entry = st.one_of(small, st.integers(-4, 4),
                      st.floats(min_value=-4, max_value=4, allow_nan=False, width=32))


@st.composite
def fm_systems(draw):
    """(A, b) with 1 <= d <= 3 variables and up to 7 rows of fractions, ints
    and floats."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    A = [[draw(_fm_entry) for _ in range(d)] for _ in range(m)]
    return A, [draw(_fm_entry) for _ in range(m)]


@given(fm_systems())
@settings(max_examples=300, deadline=None)
@example(([[1], [-1]], [2, -1]))              # d = 1: int rows, Fraction witness
@example(([[0.5, -1.5]], [0.25]))
def test_fourier_motzkin_matches_fraction_rows(case):
    """The integer-row elimination gives the Fraction elimination's verdict
    and witness, a witness of Fractions that satisfies A x <= b exactly."""
    A, b = case
    ok, x = fourier_motzkin(A, b)
    assert (ok, x) == fraction_fourier_motzkin(A, b)
    if ok:
        assert all(type(v) is F for v in x)
        for row, bi in zip(A, b):
            assert sum(F(a) * v for a, v in zip(row, x)) <= F(bi)
