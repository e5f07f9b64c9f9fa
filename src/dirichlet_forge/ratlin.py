"""Exact rational linear algebra on tuples of Fractions.

Small dense routines (rref, solve, kernel, inverse) — inputs here are
desk-scale matrices coming from cone and character-extension problems.
Elimination is fraction-free: `integer_pivot` runs on Python ints, and
Fractions are made only for the outputs.  The exact simplex in `exact_lp`
pivots with the same step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import as_fraction

Vec = tuple


def vec(xs) -> tuple:
    """The entries as a tuple of Fractions (`as_fraction`: floats exactly)."""
    return tuple(as_fraction(x) for x in xs)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, v):
    c = c if isinstance(c, Fraction) else Fraction(c)
    return tuple(c * a for a in v)


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def integer_pivot(M, r, col, d):
    """Fraction-free pivot of the int rows M on M[r][col], in place.

    M holds d * T for a tableau T whose rows all share the scale d != 0.
    Pivoting T on (r, col) keeps row r and sets, for every other row k,

        M[k][j] = (M[k][j] * p - M[k][col] * M[r][j]) / d,   p = M[r][col],

    after which p is the common scale; it is returned.  When d is, up to
    sign, the determinant of the current basis (1 for an identity start),
    Sylvester's identity makes every division exact (Bareiss 1968); a
    remainder raises AssertionError.
    """
    prow = M[r]
    p = prow[col]
    for k, row in enumerate(M):
        if k != r:
            M[k] = pivot_row(row, prow, col, p, d)
    return p


def pivot_row(row, prow, col, p, d):
    """One row of `integer_pivot`: (row * p - row[col] * prow) / d, exactly.

    `row` may be shorter than `prow`; the result has the length of `row`.
    """
    f = row[col]
    if f:
        out = [v * p - f * w for v, w in zip(row, prow)]
    elif p == d:
        return row
    else:
        out = [v * p for v in row]
    if d == 1:
        return out
    q = [v // d for v in out]
    # floor division leaves remainders v - d * (v // d) that all share the
    # sign of d, so they vanish together exactly when their sum does
    if sum(out) != d * sum(q):
        raise AssertionError(f"fraction-free pivot: a row is not divisible by {d}")
    return q


def rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list).

    Entries are read exactly (`as_fraction`) and every row is scaled to
    ints; Gauss-Jordan elimination then runs with `integer_pivot`, so all
    rows share one scale d and each pivot row ends with d on its pivot.
    Dividing by d builds the output; the reduced form is unique, so it is
    the one elimination over Fractions gives.
    """
    M = []
    for row in map(vec, rows):
        den = lcm(*(x.denominator for x in row))
        M.append([x.numerator * (den // x.denominator) for x in row])
    if not M:
        return [], []
    ncols = len(M[0])
    pivots = []
    r, d = 0, 1
    for c in range(ncols):
        pivot = None
        for i in range(r, len(M)):
            if M[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        d = integer_pivot(M, r, c, d)
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return [tuple(Fraction(x, d) for x in row) for row in M[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve(rows, rhs):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    for row in red:
        if all(a == 0 for a in row[:-1]) and row[-1] != 0:
            return None
    if n in pivots:  # pivot in the rhs column == inconsistent
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return tuple(x)


def kernel_basis(rows):
    """Basis of the right kernel {x : (rows) x = 0}."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -red[i][f]
        basis.append(tuple(x))
    return basis


def invert_matrix(rows):
    """Inverse of a square matrix given as rows, or None if singular."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    aug = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(red[i][n:]) for i in range(n)]


def independent_subset(vectors):
    """Greedy indices of a maximal Q-linearly independent subset.

    Incremental: each candidate is reduced against the echelon rows kept so
    far (each zero on the pivots of the rows before it) and joins them when
    a nonzero remainder is left.
    """
    chosen = []
    kept = []  # (pivot column, row scaled to 1 there)
    for i, v in enumerate(vectors):
        w = list(vec(v))
        for c, row in kept:
            f = w[c]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        c = next((j for j, a in enumerate(w) if a), None)
        if c is not None:
            kept.append((c, [a / w[c] for a in w]))
            chosen.append(i)
    return chosen


def canonical_ray(v):
    """Scale a nonzero rational vector to coprime integers, direction kept."""
    fr = vec(v)
    if is_zero_vec(fr):
        return fr
    den = 1
    for a in fr:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in fr]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(Fraction(a // g) for a in ints)


def canonical_line(v):
    """Like canonical_ray but sign-normalized: first nonzero entry positive."""
    r = canonical_ray(v)
    for a in r:
        if a != 0:
            if a < 0:
                return tuple(-x for x in r)
            break
    return r
