"""Exact linear programming over the rationals.

A small two-phase primal simplex with Bland's rule, used for the polyhedral
decisions not read off a dual cone: feasibility of nonnegative combinations,
separating functionals via infeasibility certificates, and bounded coordinate
maximization.  Inputs and outputs are Fractions and the tableau holds Python
ints (fraction-free pivoting, see solve_standard); no floats enter.

Certificates: when {A x = b, x >= 0} is infeasible the phase-1 optimum yields
y with y.A <= 0 componentwise and y.b > 0 (returned for the original row
order and signs).  Callers turn this y directly into separating functionals.

fourier_motzkin() is an independent feasibility decision for inequality
systems, exponential in the dimension; it exists to cross-check the simplex
on low-dimensional instances, not to replace it.  Its row list is capped
(FM_ROW_CAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import CapExceededError
from .exactnum import as_fraction
from .ratlin import integer_pivot, integer_scaled, pivot_row

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list] = None           # primal point (optimal; feasible if unbounded)
    objective: Optional[Fraction] = None
    farkas: Optional[list] = None      # infeasible only: y.A <= 0, y.b > 0


def solve_standard(c, A, b) -> LPResult:
    """max c.x  subject to  A x = b, x >= 0,  exact rationals throughout.

    The tableau holds Python ints.  Rows are sign-flipped so b >= 0, and
    every row of (A, b) is multiplied by L, the lcm of all their
    denominators, with the artificial columns kept as the identity: the LP
    L A x + a' = L b, a' = L a.  Phase 1's reduced costs then change only by
    positive factors, so Bland's rule takes the same pivots as on (A, b).
    With B the current basis and D = |det B| > 0, the tableau is
    M = D B^-1 [L A | I | L b], updated by `ratlin.integer_pivot` with each
    division checked.  Fractions are made only for x and the Farkas y.
    """
    m = len(A)
    c = [as_fraction(v) for v in c]
    n = len(c)
    rows = [[as_fraction(v) for v in row] for row in A]
    rhs = [as_fraction(v) for v in b]
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")

    # Row signs flipped so the rhs is nonnegative; remembered for certificates.
    signs = [-1 if v < 0 else 1 for v in rhs]
    L = lcm(*(v.denominator for row in rows for v in row), *(v.denominator for v in rhs))
    M = [[s * v.numerator * (L // v.denominator) for v in row]
         + [int(j == i) for j in range(m)]
         + [s * rhs[i].numerator * (L // rhs[i].denominator)]
         for i, (s, row) in enumerate(zip(signs, rows))]
    ncols = n + m  # structural + artificial
    basis = list(range(n, n + m))
    d = 1

    def pivot(r, col):
        nonlocal d
        d = integer_pivot(M, r, col, d)
        basis[r] = col
        if d < 0:  # only when driving out an artificial; keep D > 0
            d = -d
            for k, row in enumerate(M):
                M[k] = [-v for v in row]

    def run(cvec, allowed):
        """Bland-rule simplex on the current tableau; returns OPTIMAL/UNBOUNDED.

        cvec: ints; allowed: range(k), the columns that may enter.  Z, over
        those columns, is D (cvec - cvec_B B^-1 [L A | I]): it has the signs of
        the reduced costs and takes the tableau's pivots.
        """
        cb = [(cvec[basis[i]], row) for i, row in enumerate(M) if cvec[basis[i]]]
        Z = [d * cvec[j] - sum(cv * row[j] for cv, row in cb) for j in allowed]
        while True:
            col = next((j for j in allowed if Z[j] > 0), None)
            if col is None:
                return OPTIMAL
            r = None
            for i, row in enumerate(M):
                a = row[col]
                if a > 0:
                    if r is None:
                        r, num, den = i, row[-1], a
                        continue
                    # ratio test row[-1] / a against num / den, cross-multiplied
                    mine, best = row[-1] * den, num * a
                    if mine < best or (mine == best and basis[i] < basis[r]):
                        r, num, den = i, row[-1], a
            if r is None:
                return UNBOUNDED
            d_old = d
            pivot(r, col)
            Z = pivot_row(Z, M[r], col, d, d_old)

    # Phase 1: drive the artificial variables to zero.
    c1 = [0] * n + [-1] * m
    run(c1, range(ncols))
    if sum(c1[basis[i]] * row[-1] for i, row in enumerate(M)) < 0:
        # y = c1_B B^{-1}; B^{-1} = M / D in the artificial columns (whose L
        # factors cancel).  -y certifies infeasibility of the flipped system;
        # unflip per row.
        y = [sum(c1[basis[k]] * row[n + i] for k, row in enumerate(M)) for i in range(m)]
        farkas = [Fraction(-yi * signs[i], d) for i, yi in enumerate(y)]
        return LPResult(INFEASIBLE, farkas=farkas)

    # Drive leftover basic artificials out (degenerate rows), drop redundant rows.
    redundant = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if M[i][j] != 0), None)
            if col is None:
                redundant.append(i)  # 0 = 0 row
            else:
                pivot(i, col)
    for i in reversed(redundant):
        del M[i]
        del basis[i]

    # Phase 2: original objective (times the lcm of its denominators),
    # artificial columns barred from entering.
    Lc = lcm(*(v.denominator for v in c))
    c2 = [v.numerator * (Lc // v.denominator) for v in c] + [0] * m
    status = run(c2, range(n))
    x = [Fraction(0)] * n
    for i, row in enumerate(M):
        if basis[i] < n:
            x[basis[i]] = Fraction(row[-1], d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, x=x)
    obj = sum((cv * xv for cv, xv in zip(c, x)), Fraction(0))
    return LPResult(OPTIMAL, x=x, objective=obj)


def nonneg_combination(vectors, target):
    """t >= 0 with sum_i t_i v_i = target, or a strictly separating functional.

    Returns (t, None) on success.  On failure returns (None, rho) with
    rho . v_i <= 0 for every i and rho . target > 0, certifying that the
    target lies outside the cone of the vectors.
    """
    vs = [[as_fraction(x) for x in v] for v in vectors]
    tgt = [as_fraction(x) for x in target]
    d = len(tgt)
    for v in vs:
        if len(v) != d:
            raise ValueError("dimension mismatch")
    k = len(vs)
    A = [[vs[j][i] for j in range(k)] for i in range(d)]
    res = solve_standard([Fraction(0)] * k, A, tgt)
    if res.status == INFEASIBLE:
        return None, res.farkas
    return res.x, None


def max_coordinate(vectors, target, index, cap=Fraction(1)):
    """max t_index over {t >= 0 : sum t_i v_i = target, t_index <= cap}.

    Returns (value, t) with value in [0, cap], or (None, None) if the system
    admits no nonnegative combination at all.
    """
    vs = [[as_fraction(x) for x in v] for v in vectors]
    tgt = [as_fraction(x) for x in target]
    d, k = len(tgt), len(vs)
    # columns: t_0..t_{k-1}, slack s with t_index + s = cap
    A = [[vs[j][i] for j in range(k)] + [Fraction(0)] for i in range(d)]
    A.append([Fraction(1) if j == index else Fraction(0) for j in range(k)] + [Fraction(1)])
    b = tgt + [as_fraction(cap)]
    cvec = [Fraction(1) if j == index else Fraction(0) for j in range(k)] + [Fraction(0)]
    res = solve_standard(cvec, A, b)
    if res.status == INFEASIBLE:
        return None, None
    # bounded by construction (t_index <= cap)
    return res.objective, res.x[:k]


def feasible_geq_one(points):
    """rho with rho . x >= 1 for every x, or exact convex coefficients for 0.

    `feasible_functional(points, [])`: rho has min_i rho . x_i = 1 exactly;
    otherwise its multipliers, normalised to sum 1, combine the points to 0.
    """
    rho, cert = feasible_functional(points, [])
    if rho is not None:
        return rho, None
    total = sum(cert[0])
    return None, [y / total for y in cert[0]]


def feasible_functional(strict_points, weak_points):
    """chi with chi . s >= 1 on strict_points and chi . v >= 0 on weak_points.

    Returns (chi, None) on success, where min chi . s over the strict points
    is exactly 1: the simplex returns a vertex, and at a vertex some strict
    surplus is 0.  Were every strict surplus positive, scaling u, v and the
    weak surpluses by t near 1 (strict surpluses t chi . s - 1) would stay
    feasible on both sides of t = 1.  On failure returns (None, (ys, yw)):
    nonnegative multipliers with sum ys_i s_i + sum yw_j v_j = 0 and
    sum ys_i > 0, certifying that no such functional exists.
    """
    spts = [[as_fraction(v) for v in p] for p in strict_points]
    wpts = [[as_fraction(v) for v in p] for p in weak_points]
    if not spts and not wpts:
        raise ValueError("no points")
    d = len((spts + wpts)[0])
    ks, kw = len(spts), len(wpts)
    # chi = u - v, u, v >= 0; per point a surplus variable
    ncols = 2 * d + ks + kw
    A = []
    for i, p in enumerate(spts + wpts):
        row = list(p) + [-x for x in p] + [
            Fraction(-1) if j == i else Fraction(0) for j in range(ks + kw)]
        A.append(row)
    b = [Fraction(1)] * ks + [Fraction(0)] * kw
    res = solve_standard([Fraction(0)] * ncols, A, b)
    if res.status == INFEASIBLE:
        y = res.farkas
        return None, (y[:ks], y[ks:])
    return [u - v for u, v in zip(res.x, res.x[d:2 * d])], None


# Most rows fourier_motzkin may hold after one elimination.  Eliminating a
# variable replaces its u upper and l lower bounds by u * l rows, so the
# count can grow doubly exponentially in the dimension; a longer row list
# raises CapExceededError with the partial counts.  Override by assignment.
FM_ROW_CAP = 100_000


def fourier_motzkin(A, b):
    """Feasibility of A x <= b over Q^d with witness, by variable elimination.

    Exponential in the dimension; use only as a low-dimensional cross-check.
    Returns (True, x) with A x <= b exactly (x of Fractions), or (False,
    None).  Raises CapExceededError before the row list would pass
    FM_ROW_CAP.  Each inequality is scaled by the lcm of its denominators, a
    positive factor that keeps the system, so the eliminations run on ints;
    the back-substitution divides exactly.
    """
    if not A:
        return True, []
    n = len(A[0])
    sys_rows = [integer_scaled(list(row) + [bi])[0] for row, bi in zip(A, b)]
    stack = []
    for k in range(n - 1, -1, -1):
        lows, ups, rest = [], [], []
        for row in sys_rows:
            a = row[k]
            if a > 0:
                ups.append(row)
            elif a < 0:
                lows.append(row)
            else:
                rest.append(row)
        if len(rest) + len(ups) * len(lows) > FM_ROW_CAP:
            done = [f"x{j}" for j in range(n - 1, k, -1)]
            raise CapExceededError(
                f"Fourier-Motzkin elimination of x{k} would pass FM_ROW_CAP = "
                f"{FM_ROW_CAP} rows: {len(done)} of {n} variables eliminated "
                f"({', '.join(done) or 'none'}), {len(sys_rows)} rows held")
        new_rows = list(rest)
        for u in ups:
            au = u[k]
            for low in lows:
                al = low[k]
                comb = [(-al) * uv + au * lv for uv, lv in zip(u, low)]
                new_rows.append(comb)
        stack.append((k, lows, ups))
        sys_rows = new_rows
        for row in sys_rows:
            if all(v == 0 for v in row[:n]) and row[-1] < 0:
                return False, None
    for row in sys_rows:
        if row[-1] < 0:
            return False, None
    x = [Fraction(0)] * n
    for k, lows, ups in reversed(stack):
        lo = hi = None
        for row in lows:
            val = Fraction(row[-1] - sum(row[j] * x[j] for j in range(n) if j != k), row[k])
            lo = val if lo is None else max(lo, val)
        for row in ups:
            val = Fraction(row[-1] - sum(row[j] * x[j] for j in range(n) if j != k), row[k])
            hi = val if hi is None else min(hi, val)
        if lo is None and hi is None:
            x[k] = Fraction(0)
        elif lo is None:
            x[k] = min(Fraction(0), hi)
        elif hi is None:
            x[k] = max(Fraction(0), lo)
        else:
            x[k] = (lo + hi) / 2
    return True, x
