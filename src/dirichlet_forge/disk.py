"""The disk grid of `algebra._disk_minimum` and its scan.

The grid is a square lattice over the closed unit disk, its points outside
the disk pulled onto the unit circle, followed by equally spaced circle
points.  `_grid_argmin` finds the first minimum of |p| over it, evaluated
by Horner's rule, as a scan of every point would, but evaluates only the
clusters of points (`_disk_clusters`) whose Taylor bound at an anchor does
not rule them out.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# most grid points one disk minimum evaluates: 16 MB per complex array
DISK_GRID_CAP = 1 << 20

_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW = 2.0 ** -1074  # the smallest subnormal: absolute error per rounded operation


def _grid_argmin(terms: dict, n: int, A: float, step: float, boundary: int):
    """(z, |p(z)|, evaluations) for the first minimum z in grid order of |p|
    over `_disk_grid(step, boundary)`, evaluated by `_horner`, as a scan of
    the whole grid finds it.  n is the degree of p and A = sum |a_k|.

    Stage 1 bounds each cluster of `_disk_clusters` from its anchor z_c, a
    grid point within r_c of every member.  With b_j = p^(j)(z_c) / j!, the
    Taylor expansion at z_c gives, for a member z and J = min(n, 3),

        |p(z)| >= |b_0| - X_c,
        X_c = sum_(j<=J) |b_j| r_c^j + sum_k |a_k| Q_c,k,
        Q_c,k = sum_(j>J) C(k, j) |z_c|^(k-j) r_c^j,

    because |b_j| <= sum_k C(k, j) |a_k| |z_c|^(k-j).  Each b_j is the
    product of a row of binomial-weighted coefficients with the anchors'
    power table, and the tail is one product with the table Q.  For n <= 3
    there is no tail, and synthetic division (Horner's rule run again on
    each quotient) gives the b_j in a few elementwise passes, which cost
    less than the products.

    Let G >= 1 bound every R_c = |z_c| + r_c, and let
    E = gamma_(8n+8) A G^n + (128n + 88) G^(n+3) eta.  E bounds two errors:
    - Horner's rule at a grid point errs by gamma_(4n+2) A + (16n + 6) eta
      (see `algebra._disk_minimum`; here |z| <= 1 + 2u).
    - Summed over j and weighted by r_c^j, the computed |b_j| err by
      gamma_(4n+6) A G^n.  In the table route z^m comes from m - 1 complex
      products (gamma_(3m)) and b_j from n + 1 products and n sums; in
      synthetic division each term of b_j meets at most n products and
      n + j sums; and sum_j C(k, j) |z_c|^(k-j) r_c^j = R_c^k.  Underflow
      adds eta for each of the at most 16n + 11 rounded operations behind
      |b_j|, which reaches X_c multiplied by less than 2 G^n r_c^j: at
      most (128n + 88) G^(n+3) eta over j <= 3.  An underflow in z^m
      reaches b_j multiplied by C(k, j) |a_k| < 2^13 A and stays inside
      the relative term.

    A cluster whose computed v_c - X_c exceeds the computed min v + 8E is
    skipped, with v_c = |b_0|.  Then X_c < 2 A G^n, so rounding X_c, E and
    the two sums of the test costs less than 2E.  Every member's computed
    value thus exceeds min v + 4E, while the grid minimum is at most
    min v + 2E, because the anchors are grid points.  Skipped points lie
    strictly above the minimum and change neither it nor its first index.

    Stage 2 runs `_horner` on the members of the clusters that remain, with
    the same values at those points as on the whole grid, and keeps the
    smallest grid index among the points of least value.  A constant p
    takes the first point.  The whole grid is evaluated when the degree is
    above the table's, when A G^n >= 2^960 (so that no table product can
    overflow), and when the remaining points would cost more than the grid.
    """
    grid = _disk_grid(step, boundary)
    if n == 0:  # |p| is the same at every point
        return complex(grid[0]), float(np.abs(_horner(terms, grid[:1]))[0]), 1
    members, powers, radii, tail, grow = _disk_clusters(step, boundary)
    points = grid.size
    if n < len(powers) and A * grow ** n < 2.0 ** 960:
        if n <= _TAYLOR:  # synthetic division: b_j = c[n - j] after pass j
            c = [terms.get(k, 0j) for k in range(n, -1, -1)]
            for j in range(n):
                for i in range(1, n + 1 - j):
                    c[i] = c[i - 1] * powers[1] + c[i]
            drop = abs(c[0]) * radii[n - 1]
            for j in range(1, n):
                drop += np.abs(c[n - j]) * radii[j - 1]
            v = np.abs(c[n])
        else:
            a = [0j] * (n + _TAYLOR + 1)
            for k, c in terms.items():
                a[k] = c
            a = np.array(a)
            binomial, shift = _taylor_rows(n)
            rows, table = binomial * a[shift], powers[:n + 1]
            drop = np.abs(a[:n + 1]) @ tail[:n + 1]
            for j in range(1, _TAYLOR + 1):
                drop += np.abs(rows[j] @ table) * radii[j - 1]
            v = np.abs(rows[0] @ table)
        m = (8 * n + 8) * _UNIT_ROUNDOFF
        E = m / (1.0 - m) * A * grow ** n + (128 * n + 88) * grow ** (n + 3) * _UNDERFLOW
        keep = v - drop <= v.min() + 8.0 * E
        idx = members[keep].ravel()
        # a gathered point costs about two more steps of Horner's rule
        if idx.size * (n + 2) <= grid.size * n:
            idx.sort()
            mods = np.abs(_horner(terms, grid[idx]))
            j = mods.argmin()
            return complex(grid[idx[j]]), float(mods[j]), v.size + idx.size
        points += v.size
    mods = np.abs(_horner(terms, grid))
    i = int(np.argmin(mods))
    return complex(grid[i]), float(mods[i]), points


@functools.lru_cache(maxsize=4)
def _disk_grid(step: float, boundary: int) -> np.ndarray:
    """Read-only disk grid in scan order: real part outer, imaginary part
    inner, then the circle points."""
    k = math.ceil(1.0 / step)
    x = np.arange(-k, k + 1) * step
    re, im = np.repeat(x, x.size), np.tile(x, x.size)
    r = np.hypot(re, im)
    out = r > 1.0
    re[out] /= r[out]
    im[out] /= r[out]
    circle = np.exp(1j * (2.0 * math.pi * np.arange(boundary) / boundary))
    grid = np.concatenate([re + 1j * im, circle])
    grid.flags.writeable = False
    return grid


# lattice blocks of at most _BLOCK x _BLOCK points, arcs of at most _ARC
# circle points, the largest degree of the anchors' power table, and the
# Taylor terms the cluster bound takes exactly
_BLOCK, _ARC, _TABLE_DEGREE, _TAYLOR = 5, 8, 32, 3


@functools.lru_cache(maxsize=None)
def _taylor_rows(n: int):
    """(C(j + m, j), j + m) over rows j <= _TAYLOR and columns m <= n: row j
    of the product with a (zero-padded) is C(k, j) a_k at column k - j,
    which the power table turns into b_j."""
    shift = np.add.outer(np.arange(_TAYLOR + 1), np.arange(n + 1))
    binomial = np.array([[math.comb(s, j) for s in row] for j, row in enumerate(shift)])
    binomial.flags.writeable = shift.flags.writeable = False
    return binomial, shift


class _Clusters(NamedTuple):
    members: np.ndarray  # (clusters, _BLOCK**2) grid indices, blocks then arcs
    powers: np.ndarray   # (degree + 1, clusters) z_c^k
    radii: np.ndarray    # (_TAYLOR, clusters) r_c^j for j = 1 .. _TAYLOR
    tail: np.ndarray     # (degree + 1, clusters) Q_c,k
    grow: float          # G >= 1 and >= every |z_c| + r_c


@functools.lru_cache(maxsize=4)
def _disk_clusters(step: float, boundary: int) -> _Clusters:
    """The clusters `_grid_argmin` bounds, for `_disk_grid(step, boundary)`.

    The lattice is cut into square blocks and the circle points into arcs,
    each with its middle point as anchor z_c; a block or arc with fewer
    than _BLOCK**2 points repeats its anchor to fill its row.  r_c is the
    largest distance from z_c to a member.  |z_c|, r_c and the tables built
    from them are rounded up by a relative 2^-40, far above their rounding
    (under 200 ulps).  The power table holds at most DISK_GRID_CAP entries:
    its degree is _TABLE_DEGREE or less on the finest grids."""
    grid = _disk_grid(step, boundary)
    side = 2 * math.ceil(1.0 / step) + 1

    def cut(first, count, size, width):
        """(rows, middles): indices first .. first + count - 1 in consecutive
        parts of at most `size`, one row of `width` each, padded with the
        part's middle index."""
        parts = np.array_split(np.arange(first, first + count), -(-count // size))
        mid = np.array([part[(len(part) - 1) // 2] for part in parts], dtype=np.intp)
        rows = np.repeat(mid[:, None], width, axis=1)
        for row, part in zip(rows, parts):
            row[:len(part)] = part
        return rows, mid

    lines, line_mid = cut(0, side, _BLOCK, _BLOCK)
    members = (lines[:, None, :, None] * side + lines[None, :, None, :]).reshape(
        -1, _BLOCK * _BLOCK)
    anchors = (line_mid[:, None] * side + line_mid[None, :]).ravel()
    if boundary:
        arcs, arc_mid = cut(side * side, boundary, _ARC, _BLOCK * _BLOCK)
        members, anchors = np.concatenate((members, arcs)), np.concatenate((anchors, arc_mid))
    up = 1.0 + 2.0 ** -40
    z = grid[anchors]
    r = np.zeros(z.size)
    for column in members.T:
        np.maximum(r, np.abs(grid[column] - z), out=r)
    r *= up
    rz = np.abs(z) * up
    degree = min(_TABLE_DEGREE, DISK_GRID_CAP // z.size - 1)
    powers = np.ones((degree + 1, z.size), dtype=complex)
    for k in range(1, degree + 1):
        np.multiply(powers[k - 1], z, out=powers[k])
    radii = np.cumprod(np.vstack([r] * _TAYLOR), axis=0) * up
    # Q_c,k = (|z_c| + r_c) Q_c,k-1 + C(k-1, J) |z_c|^(k-1-J) r_c^(J+1) with
    # J = _TAYLOR, by Pascal's rule: a sum of positive terms
    tail = np.zeros((degree + 1, z.size))
    for k in range(_TAYLOR + 1, degree + 1):
        tail[k] = ((rz + r) * tail[k - 1]
                   + math.comb(k - 1, _TAYLOR) * rz ** (k - 1 - _TAYLOR) * r ** (_TAYLOR + 1))
    tail *= up
    grow = max(1.0, float((rz + r).max()) * up)
    for table in (members, powers, radii, tail):
        table.flags.writeable = False
    return _Clusters(members, powers, radii, tail, grow)


def _horner(terms: dict, z: np.ndarray) -> np.ndarray:
    """sum a_k z^k by Horner's rule over descending degrees; a gap of g
    degrees multiplies by z^g from binary powering (at most g - 1 products),
    so the product count never exceeds the degree."""
    acc = np.zeros(z.shape, dtype=complex)
    degs = sorted(terms, reverse=True)
    for hi, lo in zip(degs, degs[1:] + [0]):
        acc += terms[hi]
        if hi > lo:
            acc *= _power(z, hi - lo)
    return acc


def _power(z: np.ndarray, g: int) -> np.ndarray:
    """z^g for g >= 1 by binary powering."""
    out, base = None, z
    while True:
        if g & 1:
            out = base if out is None else out * base
        g >>= 1
        if not g:
            return out
        base = base * base
