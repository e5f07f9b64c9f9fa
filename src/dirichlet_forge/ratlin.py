"""Exact rational linear algebra on tuples of ints and Fractions.

Small dense routines (rref, solve, kernel, inverse) — inputs here are
desk-scale matrices coming from cone and character-extension problems.
Elimination is fraction-free: `integer_pivot` runs on Python ints, and
Fractions are made only for the outputs.  The exact simplex in `exact_lp`
pivots with the same step.  `integer_rref` is the Gauss-Jordan elimination
on ints, of which `rref` is the quotient by the common scale;
`independent_subset` is the `pivot_columns` of the vectors taken as
columns; `primitive` scales a vector to coprime ints, the one form of a
ray in the cone layer.  `dot` of two int vectors is an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import as_fraction


def vec(xs) -> tuple:
    """The entries as a tuple of Fractions (`as_fraction`: floats exactly)."""
    return tuple(as_fraction(x) for x in xs)


def dot(u, v):
    """The exact inner product; an int when both vectors hold ints."""
    return sum(a * b for a, b in zip(u, v, strict=True))


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


def integer_rref(rows):
    """(M, pivots, d): the reduced row echelon form of `rows` as int rows M
    sharing the scale d, so that it is M / d.  Returns ([], [], 1) for no
    rows.

    Entries are read exactly (`as_fraction`) and every row is scaled to
    ints; Gauss-Jordan elimination then runs with `integer_pivot`, so each
    of the nonzero rows M ends with d on its pivot and 0 on the others.  d
    is, up to sign, a minor of the scaled rows (Bareiss 1968): it can be
    negative.
    """
    M = _int_rows(rows)
    pivots, r, d = [], 0, 1
    for c in range(len(M[0]) if M else 0):
        pivot = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        d = integer_pivot(M, r, c, d)
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M[:r], pivots, d


def rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list).

    `integer_rref` divided by its scale d; the reduced form is unique, so it
    is the one elimination over Fractions gives.
    """
    M, pivots, d = integer_rref(rows)
    return [tuple(Fraction(x, d) for x in row) for row in M], pivots


def integer_scaled(v):
    """(ints, den): the entries read exactly (`as_fraction`) times den, the
    lcm of their denominators."""
    pairs = [as_fraction(x).as_integer_ratio() for x in v]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _int_rows(rows):
    """The rows as `integer_scaled` ints; rows of ints are copied as they
    are."""
    return [list(row) if all(type(x) is int for x in row) else integer_scaled(row)[0]
            for row in rows]


def pivot_columns(rows) -> list:
    """The pivot columns of a forward fraction-free (Bareiss) elimination:
    the first maximal Q-independent set of columns.  Only the rows below
    each pivot are reduced, and no Fraction is made."""
    M = _int_rows(rows)
    pivots, d = [], 1
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        prow, p = M[r], M[r][c]
        for k in range(r + 1, len(M)):
            M[k] = pivot_row(M[k], prow, c, p, d)
        d = p
        pivots.append(c)
        if r + 1 == len(M):
            break
    return pivots


def rank(rows) -> int:
    """Rank over Q: the number of `pivot_columns`."""
    return len(pivot_columns(rows))


def solve(rows, rhs):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the rhs column == inconsistent
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return tuple(x)


def integer_kernel(rows):
    """(K, s): int vectors K spanning the right kernel of `rows`, one per
    free column f of `integer_rref` (M, d), with s = |d| at f, 0 at the
    other free columns and -M_i[f] sign(d) at the pivots."""
    M, pivots, d = integer_rref(rows)
    sign = 1 if d > 0 else -1
    n = len(rows[0])
    K = []
    for f in range(n):
        if f in pivots:
            continue
        x = [0] * n
        x[f] = sign * d
        for p, row in zip(pivots, M):
            x[p] = -sign * row[f]
        K.append(x)
    return K, sign * d


def kernel_basis(rows):
    """Basis of the right kernel {x : (rows) x = 0}: `integer_kernel` over
    its scale, 1 on its own free column and 0 on the others."""
    if not rows:
        return []
    K, s = integer_kernel(rows)
    return [tuple(Fraction(a, s) for a in x) for x in K]


def integer_inverse(rows):
    """(A, s): int rows A and an int s > 0 with A = s rows^-1, or None if
    the square matrix `rows` is singular.  A is the right half of
    `integer_rref` of [rows | I], whose scale is s up to sign."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    M, pivots, d = integer_rref([list(r) + [int(i == j) for j in range(n)]
                                 for i, r in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    sign = 1 if d > 0 else -1
    return [[sign * x for x in row[n:]] for row in M], sign * d


def independent_subset(vectors):
    """Greedy indices of a maximal Q-linearly independent subset: vector i
    is kept when it is outside the span of the vectors before it.

    These are the `pivot_columns` of the matrix whose columns are the
    vectors: scaling its rows to ints moves no pivot, and no Fraction is
    made.
    """
    return pivot_columns(list(zip(*vectors)))


def primitive(v):
    """The entries read exactly, scaled to coprime ints with the direction
    kept, as a tuple; the zero vector stays zero."""
    ints = _int_rows([tuple(v)])[0]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


# -- integer lattices ---------------------------------------------------------


def _lll(B, split, weight, inverse=None):
    """Integral LLL reduction (Cohen 1993, Alg. 2.6.7) of the Q-independent
    int rows B, in place, with Lovasz constant 3/4.

    The inner product is x[:split] . y[:split] + weight * x[split:] . y[split:].
    The Gram-Schmidt data stay integers: d[i] is the Gram determinant of the
    first i rows and lam[k][j] = d[j] mu[k][j] (1-based, as in Cohen), so
    every division below is exact.  Row operations are replayed as column
    operations on `inverse`, which therefore stays the inverse of the
    transform applied to B.
    """
    n = len(B)
    if n < 2:
        return
    b = [None] + B

    def ip(x, y):
        return (sum(p * q for p, q in zip(x[:split], y[:split]))
                + weight * sum(p * q for p, q in zip(x[split:], y[split:])))

    d = [1] * (n + 1)
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k, l):
        q = lam[k][l]
        if 2 * abs(q) <= d[l]:
            return
        q = (2 * q + d[l]) // (2 * d[l])          # the nearest integer
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        if inverse is not None:
            for row in inverse:
                row[l - 1] += q * row[k - 1]
        lam[k][l] -= q * d[l]
        for i in range(1, l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        if inverse is not None:
            for row in inverse:
                row[k - 1], row[k - 2] = row[k - 2], row[k - 1]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(1, k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        mu = lk[k - 1]
        B_ = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k] * li[k - 1] - mu * t) // d[k - 1]
            li[k - 1] = (B_ * t + mu * li[k]) // d[k]
        d[k - 1] = B_

    d[1] = ip(b[1], b[1])
    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = ip(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("LLL needs linearly independent rows")
                else:
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(2, k - 1)
            continue
        for l in range(k - 2, 0, -1):
            red(k, l)
        k += 1
    B[:] = b[1:]


def lll_reduce(rows):
    """(reduced, T): an LLL-reduced basis (Lovasz constant 3/4) of the
    lattice spanned by the Q-independent int rows, and the unimodular T with
    reduced = T . rows."""
    m = len(rows)
    if not m:
        return [], []
    n = len(rows[0])
    B = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    _lll(B, n, 0)
    return [tuple(r[:n]) for r in B], [tuple(r[n:]) for r in B]


def integer_left_kernel(rows):
    """(K, A) for the m int rows E: K an LLL-reduced basis of the lattice
    {k in Z^m : k . E = 0}, and int rows A (m of them) with K . A = I.

    One LLL of [I | N E] (Cohen 1993, sec. 2.7).  The m - rank rows of
    Cramer's rule span the kernel within sqrt(rank + 1) H, H the product of
    the rank largest row norms of E (Hadamard); LLL keeps its first
    m - rank rows within 2^((m-1)/2) of that, and a row with a nonzero tail
    is at least N long.  So with N^2 above the product, those first rows
    are kernel vectors: part of a unimodular transform, hence a saturated
    basis.  A is read off the transform's inverse.
    """
    m = len(rows)
    rk = rank(rows)
    r = m - rk
    if r == 0:
        return [], [() for _ in range(m)]
    h2 = 1
    for s in sorted((sum(x * x for x in row) for row in rows), reverse=True)[:rk]:
        h2 *= s
    weight = ((rk + 1) * h2 << (m - 1)) + 1
    B = [[int(i == j) for j in range(m)] + list(row) for i, row in enumerate(rows)]
    inverse = [[int(i == j) for j in range(m)] for i in range(m)]
    _lll(B, m, weight, inverse)
    if any(any(row[m:]) for row in B[:r]):
        raise AssertionError("integer kernel: a leading LLL row left the kernel")
    return [tuple(row[:m]) for row in B[:r]], [tuple(row[:r]) for row in inverse]


def reduce_modulo_image(rows, v):
    """v - E z for the m int rows E and int vector v (length m): z is the
    exact nearest-integer rounding of the least-squares coordinates of v over
    the `pivot_columns` of E, so the image part of the result lies in E times
    a half-unit box.  The component of v orthogonal to E's columns stays."""
    if not any(v):
        return list(v)
    cols = [[row[c] for row in rows] for c in pivot_columns(rows)]
    M = [[sum(p * q for p, q in zip(a, c)) for c in cols] + [sum(p * q for p, q in zip(a, v))]
         for a in cols]
    d = 1
    for i in range(len(M)):
        # the Gram matrix is positive definite: no pivot vanishes
        d = integer_pivot(M, i, i, d)
    # Gauss-Jordan: each row now holds d on its pivot and d x_i last, d > 0
    z = [(2 * row[-1] + d) // (2 * d) for row in M]
    return [vi - sum(zj * col[i] for zj, col in zip(z, cols)) for i, vi in enumerate(v)]
