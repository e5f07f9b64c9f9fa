"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (sieves, brute-force enumeration,
schoolbook polynomial arithmetic) and written before the package operations
it checks, so test expectations do not depend on the code under test.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from fractions import Fraction

from dirichlet_forge.exactnum import QC


# -- the coefficient helpers the frozen copies below call --------------------
# Verbatim copies of `exactnum.coeff_abs`, `coeff_is_zero` and
# `coeff_to_complex`.  The package now writes abs(v), v == 0 and complex(v),
# which give the same values on its QC and complex coefficients.


def coeff_abs(v) -> float:
    """|v| as float for either backend's coefficient values."""
    if isinstance(v, QC):
        return abs(v)
    return abs(complex(v))


def coeff_is_zero(v) -> bool:
    if isinstance(v, QC):
        return v.is_zero()
    return v == 0


def coeff_to_complex(v) -> complex:
    if isinstance(v, QC):
        return complex(v)
    return complex(v)


def mobius_sieve(x: int) -> list[int]:
    """mu(0..x) via a factor-count sieve with squarefreeness tracking."""
    mu = [0] * (x + 1)
    if x >= 1:
        mu[1] = 1
    primes = []
    is_comp = [False] * (x + 1)
    spf = [0] * (x + 1)
    for n in range(2, x + 1):
        if not is_comp[n]:
            primes.append(n)
            spf[n] = n
            mu[n] = -1
        for p in primes:
            if p * n > x:
                break
            is_comp[p * n] = True
            spf[p * n] = p
            if n % p == 0:
                mu[p * n] = 0
                break
            mu[p * n] = -mu[n]
    return mu


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def brute_dirichlet_convolve(f: dict, g: dict, x: int) -> dict:
    """(f*g)(n) for n <= x via divisor sums; missing values count as 0."""
    out = {}
    for n in range(1, x + 1):
        out[n] = sum(f.get(d, 0) * g.get(n // d, 0) for d in divisors(n))
    return out


def brute_poly_mul(a: list, b: list) -> list:
    """Schoolbook product of coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def brute_poly_inverse(a: list, n_terms: int) -> list:
    """Power series inverse by direct back-substitution (exact with Fractions)."""
    b = [Fraction(1) / Fraction(a[0])]
    for n in range(1, n_terms):
        s = sum(Fraction(a[k]) * b[n - k] for k in range(1, min(n, len(a) - 1) + 1))
        b.append(-b[0] * s)
    return b


def brute_small_relation(vectors, box: int = 10):
    """Nonzero integer relation with coefficients in [-box, box], or None."""
    import itertools
    k = len(vectors)
    dim = len(vectors[0])
    for combo in itertools.product(range(-box, box + 1), repeat=k):
        if all(c == 0 for c in combo):
            continue
        s = [sum(Fraction(c) * Fraction(v[d]) for c, v in zip(combo, vectors))
             for d in range(dim)]
        if all(x == 0 for x in s):
            return combo
    return None


def geometric_inverse_coeff(n: int) -> Fraction:
    """Inverse coefficients of 2 - z: b(n) = 2^-(n+1)."""
    return Fraction(1, 2 ** (n + 1))


def in_cone_brute(x, gens, denom: int = 8, bound: int = 6) -> bool:
    """Brute rational-combination search for x in cone(gens) (small instances)."""
    import itertools
    x = tuple(Fraction(c) for c in x)
    steps = [Fraction(i, denom) for i in range(bound * denom + 1)]
    for combo in itertools.product(steps, repeat=len(gens)):
        s = [sum(c * Fraction(g[d]) for c, g in zip(combo, gens))
             for d in range(len(x))]
        if tuple(s) == x:
            return True
    return False


def brute_primes_upto(x: int) -> list[int]:
    """Primes <= x by trial division."""
    return [n for n in range(2, x + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def brute_disk_min(coeffs, step: float = 0.02, boundary: int = 512):
    """(min |p(z)|, argmin) over the disk grid, one point at a time.

    p(z) = sum coeffs[k] z^k by powers.  The grid is the square lattice of
    step `step` (real part outer, imaginary part inner) with points outside
    the disk pulled onto the unit circle, then `boundary` circle points;
    the first minimum in that order wins.
    """
    coeffs = [complex(c) for c in coeffs]

    def p(z):
        return sum(c * z ** n for n, c in enumerate(coeffs))

    best, best_z = math.inf, None
    k = int(math.ceil(1.0 / step))
    for i in range(-k, k + 1):
        for j in range(-k, k + 1):
            z = complex(i * step, j * step)
            if abs(z) > 1.0:
                z = z / abs(z)
            v = abs(p(z))
            if v < best:
                best, best_z = v, z
    for m in range(boundary):
        z = cmath.exp(2j * math.pi * m / boundary)
        v = abs(p(z))
        if v < best:
            best, best_z = v, z
    return best, best_z


def brute_exp_sum(terms, s: complex) -> complex:
    """sum c exp(-(v . (s, ..., s))) over (v, c) pairs, v a coordinate vector."""
    total = 0j
    for v, c in terms:
        acc = 0j
        for x in v:
            acc += x * s
        total += c * cmath.exp(-acc)
    return total


def brute_half_plane_min(terms, sigma_max: float, t_max: float, n_sigma: int, n_t: int):
    """(min |brute_exp_sum|, argmin) over s = sigma + i t, sigma outer,
    on n_sigma x n_t equally spaced points of [0, sigma_max] x [-t_max, t_max]."""
    best, best_s = math.inf, None
    for a in range(n_sigma):
        sigma = sigma_max * a / (n_sigma - 1) if n_sigma > 1 else 0.0
        for b in range(n_t):
            t = -t_max + 2.0 * t_max * b / (n_t - 1) if n_t > 1 else -t_max
            s = complex(sigma, t)
            v = abs(brute_exp_sum(terms, s))
            if v < best:
                best, best_s = v, s
    return best, best_s


def _prune_redundant_rays(rays):
    """Drop rays lying in the cone of the remaining ones (exact LP per ray)."""
    from dirichlet_forge.exact_lp import nonneg_combination
    rays = list(dict.fromkeys(rays))
    changed = True
    while changed:
        changed = False
        for i in range(len(rays)):
            others = rays[:i] + rays[i + 1:]
            if not others:
                break
            t, _ = nonneg_combination(others, rays[i])
            if t is not None:
                del rays[i]
                changed = True
                break
    return rays


def brute_dual_cone(generators, dim=None):
    """{y : y . g >= 0 for all generators g} by halfspace-at-a-time refinement.

    Starts from the full space (rays +-e_i) and cuts one generator halfspace
    at a time, combining every (positive, negative) ray pair on the boundary;
    after each cut the ray list is pruned to an irredundant set by exact LP.
    This is the LP-pruned construction `cones.dual_cone` used before the
    double-description method; it relies only on the exact simplex and
    `ratlin`, not on the code it checks.
    """
    from dirichlet_forge.cones import DualConeResult
    from dirichlet_forge.errors import ValidationError
    from dirichlet_forge.exactnum import as_fraction
    from dirichlet_forge.ratlin import dot, rank
    F = Fraction
    gens = [tuple(as_fraction(x) for x in g) for g in generators]
    if dim is None:
        if not gens:
            raise ValidationError("need generators or an explicit dimension")
        dim = len(gens[0])
    for g in gens:
        if len(g) != dim:
            raise ValidationError("generator dimension mismatch")
    rays = []
    for i in range(dim):
        e = tuple(F(1) if j == i else F(0) for j in range(dim))
        rays.append(e)
        rays.append(tuple(-x for x in e))
    for g in gens:
        if all(x == 0 for x in g):
            continue
        pos = [r for r in rays if dot(r, g) > 0]
        zer = [r for r in rays if dot(r, g) == 0]
        neg = [r for r in rays if dot(r, g) < 0]
        new = pos + zer
        for rp in pos:
            a = dot(rp, g)
            for rn in neg:
                bq = dot(rn, g)
                comb = tuple(a * x - bq * y for x, y in zip(rn, rp))
                if any(x != 0 for x in comb):
                    new.append(fraction_canonical_ray(comb))
        rays = _prune_redundant_rays([fraction_canonical_ray(r) for r in new])
    # lineality of the dual = orthogonal complement of the generator span
    lin = dim - rank(gens) if gens else dim
    rays.sort()
    return DualConeResult(dim=dim, rays=tuple(rays), lineality_dim=lin)


# -- the algebra's pair loops as they were before the integer-keyed kernel ----
# Verbatim copies of `semigroup.enumerate_monoid` and of `algebra.convolve`,
# `graded_invert`, `neumann_invert` and `compose_series` from before they ran
# on element keys: every pair does a SemigroupElement addition and an exact
# value is a QC of Fractions.  Calls among them go to each other.


def brute_enumerate_monoid(support, truncation: float, cap: int = 200_000):
    """All sums of `support` elements with |.|_1 <= truncation, sorted.

    Sorted by (|.|_1, exponent key); includes zero.  `cap` bounds the number
    of enumerated elements.
    """
    from dirichlet_forge.errors import CapExceededError, ValidationError
    from dirichlet_forge.semigroup import SemigroupBasis
    if isinstance(support, SemigroupBasis):
        basis = support
        support = [basis.generator_element(g.id) for g in basis.generators]
    if not support:
        raise ValidationError("empty support")
    basis = support[0].basis
    gens = sorted((s for s in support if not s.is_zero()), key=lambda e: e.sort_key())
    eps = 1e-9 * (1.0 + abs(truncation))
    zero = basis.zero()
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for mu in frontier:
            m = mu.l1()
            for s in gens:
                if m + s.l1() > truncation + eps:
                    break  # gens sorted by magnitude
                nu = mu + s
                if nu not in seen:
                    seen.add(nu)
                    if len(seen) > cap:
                        raise CapExceededError(
                            f"monoid enumeration exceeded cap {cap} below cutoff {truncation}")
                    nxt.append(nu)
        frontier = nxt
    return sorted(seen, key=lambda e: e.sort_key())


def brute_convolve(a, b):
    """(a*b)(lambda) = sum_{lambda'+lambda''=lambda} a(lambda') b(lambda'').

    Finite supports make the sum finite.  If either operand declares a
    truncation, products beyond min(T_a, T_b) are dropped and the dropped
    mass (sum of |a||b| over dropped pairs) is recorded in metadata.
    """
    from dirichlet_forge.algebra import EXACT, FLOAT, AlgebraElement, _check_bases, _min_trunc
    _check_bases(a, b)
    backend = EXACT if a.backend == b.backend == EXACT else FLOAT
    T = _min_trunc(a.truncation, b.truncation)
    out: dict = {}
    dropped = a.dropped_mass + b.dropped_mass
    eps = 0.0 if T is None else 1e-12 * (1.0 + abs(T))
    for la, va in a.coeffs.items():
        va = _coerce(va, backend)
        ma = la.l1()
        for lb, vb in b.coeffs.items():
            if T is not None and ma + lb.l1() > T + eps:
                dropped += coeff_abs(va) * coeff_abs(vb)
                continue
            lam = la + lb
            prod = va * _coerce(vb, backend)
            cur = out.get(lam)
            out[lam] = prod if cur is None else cur + prod
    out = {k: v for k, v in out.items() if not coeff_is_zero(v)}
    return AlgebraElement(a.basis, out, backend, T, dropped, _trusted=True)


def brute_neumann_invert(a, w=None, tol: float = 1e-12, max_terms: int = 10_000):
    """Inverse via the geometric series around a(0), with certified tail.

    Requires q = ||a - a(0) eps||_w / |a(0)| < 1.  Truncates after J terms
    once the geometric tail q^(J+1) / ((1-q) |a(0)|) < tol.  Returns
    (element, NeumannCertificate).
    """
    from dirichlet_forge.algebra import NeumannCertificate, unit, weighted_norm
    from dirichlet_forge.errors import (CapExceededError, NeumannInapplicableError,
                                        SingularElementError)
    from dirichlet_forge.weights import one as weight_one
    if w is None:
        w = weight_one()
    a0 = a[a.basis.zero()]
    if coeff_is_zero(a0):
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    rest = a.add(unit(a.basis, a.backend).scale(a0).negate())  # a - a(0) eps
    q = weighted_norm(rest, w) / coeff_abs(a0)
    if q >= 1.0:
        raise NeumannInapplicableError(q)
    inv_a0 = _invert_scalar(a0, a.backend)
    # b = (1/a0) sum_j u^{*j},  u = eps - a / a0
    u = rest.scale(inv_a0).negate()
    term = unit(a.basis, a.backend)
    acc = term
    tail = q / (1.0 - q)  # bound for sum_{j>J} q^j at J=0
    J = 0
    while tail / coeff_abs(a0) >= tol:
        J += 1
        if J > max_terms:
            raise CapExceededError(f"Neumann series needs more than {max_terms} terms")
        term = brute_convolve(term, u)
        acc = acc.add(term)
        tail *= q
    b = acc.scale(inv_a0)
    residual = weighted_norm(brute_convolve(a, b).add(unit(a.basis, b.backend).negate()), w)
    cert = NeumannCertificate(q=q, terms_used=J, tail_bound=tail / coeff_abs(a0),
                              residual_norm=residual, weight=w)
    return b, cert


def brute_graded_invert(a, truncation: float, cap: int = 200_000):
    """Inverse by recursion in increasing |lambda|_1 over the support monoid.

    b(0) = 1/a(0); for each reachable lambda (a sum of support elements with
    |lambda|_1 <= truncation, enumerated in increasing magnitude with
    lexicographic tie-break),
        b(lambda) = -(1/a(0)) sum_{lambda'+lambda''=lambda, lambda''!=lambda}
                     a(lambda') b(lambda'').
    Contributions are pushed forward from each determined b(lambda'') over
    the magnitude-sorted support, with early break at the cutoff, so the
    cost is the number of reachable pairs rather than |support| x |monoid|.
    Exact in the rational backend.
    """
    from dirichlet_forge.algebra import AlgebraElement
    from dirichlet_forge.errors import SingularElementError
    a0 = a[a.basis.zero()]
    if coeff_is_zero(a0):
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    inv_a0 = _invert_scalar(a0, a.backend)
    zero = a.basis.zero()
    support = [(lam, v) for lam, v in a.coeffs.items() if not lam.is_zero()]
    if not support:
        return AlgebraElement(a.basis, {zero: inv_a0}, a.backend, truncation, _trusted=True)
    support.sort(key=lambda kv: kv[0].sort_key())
    elements = brute_enumerate_monoid([lam for lam, _ in support], truncation, cap)
    eps = 1e-9 * (1.0 + abs(truncation))

    acc: dict = {}
    b: dict = {zero: inv_a0}
    for lam in elements:
        if lam.is_zero():
            blam = inv_a0
        else:
            s = acc.get(lam)
            if s is None:
                continue  # not reachable as support-sum (cannot happen by construction)
            blam = -(inv_a0 * s)
            b[lam] = blam
        m = lam.l1()
        for la, va in support:
            if m + la.l1() > truncation + eps:
                break
            nu = lam + la
            prod = va * blam
            cur = acc.get(nu)
            acc[nu] = prod if cur is None else cur + prod
    out = {k: v for k, v in b.items() if not coeff_is_zero(v)}
    return AlgebraElement(a.basis, out, a.backend, truncation, _trusted=True)


def brute_compose_series(f, a, w=None, tol: float = 1e-12, max_terms: int = 2_000):
    """c = sum_k f_k (a - c0 eps)^{*k}, truncated by a geometric tail bound.

    Requires q = ||a - c0 eps||_w < radius.  The tail uses the majorant
    C = sup_k |f_k| R^k (exact for polynomial f, Cauchy-estimate shaped for
    analytic f): sum_{k>K} |f_k| q^k <= C (q/R)^{K+1}/(1-q/R).  The
    reciprocal 1/z around c is the Neumann series (1/c) sum_k (-u/c)^{*k}.
    Returns (element, CompositionCertificate).
    """
    from dirichlet_forge.algebra import CompositionCertificate, unit, weighted_norm
    from dirichlet_forge.errors import CapExceededError, PreconditionError
    from dirichlet_forge.weights import one as weight_one
    if w is None:
        w = weight_one()
    u = a.add(unit(a.basis, a.backend).scale(f.center).negate())
    q = weighted_norm(u, w)
    if not q < f.radius:
        raise PreconditionError(
            f"composition outside convergence radius: ||a - c0||_w = {q} >= {f.radius}"
            f" (gap {q - f.radius})")
    ratio = q / f.radius if math.isfinite(f.radius) else 0.0
    C = _exp_majorant(f.radius) if f.kind == "exp" else 1.0 / f.radius
    if f.kind == "reciprocal":
        inv_c = 1.0 / f.center
        u = u.scale(inv_c).negate()
        acc = unit(a.basis, a.backend)
    else:
        acc = unit(a.basis, a.backend).scale(f.coeff(0))
    power = unit(a.basis, a.backend)
    K = 0
    while True:
        if f.kind == "coeffs":
            # polynomial: sum every term, tail is exactly zero
            if K >= max(len(f.coeff_list) - 1, 0):
                tail = 0.0
                break
        else:
            tail = C * ratio ** (K + 1) / (1.0 - ratio) if ratio > 0 else 0.0
            if tail < tol:
                break
        K += 1
        if K > max_terms:
            raise CapExceededError(f"composition needs more than {max_terms} terms")
        power = brute_convolve(power, u)
        if f.kind == "reciprocal":
            acc = acc.add(power)
        elif (fk := f.coeff(K)) != 0:
            acc = acc.add(power.scale(fk))
    if f.kind == "reciprocal":
        acc = acc.scale(inv_c)
    return acc, CompositionCertificate(q=q, radius=f.radius, terms_used=K, tail_bound=tail)


def _exp_majorant(radius: float) -> float:
    """max_k radius^k / k!: the terms peak near k = radius and decrease beyond."""
    return max(radius ** k / math.factorial(k) for k in range(int(math.ceil(radius)) + 2))


# -- exact linear algebra as it was before fraction-free pivoting -----------
# Verbatim copies of `exact_lp.solve_standard` and `ratlin.rref` from when
# every tableau entry was a Fraction and each pivot divided its row.


def brute_solve_standard(c, A, b):
    """max c.x  subject to  A x = b, x >= 0,  exact rationals throughout."""
    from dirichlet_forge.exact_lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
    from dirichlet_forge.exactnum import as_fraction
    m = len(A)
    c = [as_fraction(v) for v in c]
    n = len(c)
    rows = [[as_fraction(v) for v in row] for row in A]
    rhs = [as_fraction(v) for v in b]
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")

    if m == 0:
        if any(cj > 0 for cj in c):
            return LPResult(UNBOUNDED, x=[Fraction(0)] * n)
        return LPResult(OPTIMAL, x=[Fraction(0)] * n, objective=Fraction(0))

    # Row signs flipped so the rhs is nonnegative; remembered for certificates.
    signs = []
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            signs.append(-1)
        else:
            signs.append(1)

    ncols = n + m  # structural + artificial
    T = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = list(range(n, n + m))

    def pivot(r, col):
        piv = T[r][col]
        T[r] = [v / piv for v in T[r]]
        prow = T[r]
        for k in range(m):
            if k != r and T[k][col] != 0:
                f = T[k][col]
                T[k] = [v - f * w for v, w in zip(T[k], prow)]
        basis[r] = col

    def run(cvec, allowed):
        """Bland-rule simplex on the current tableau; returns OPTIMAL/UNBOUNDED."""
        zrow = [cvec[j] - sum(cvec[basis[i]] * T[i][j] for i in range(m))
                for j in range(ncols)]
        while True:
            col = next((j for j in allowed if zrow[j] > 0), None)
            if col is None:
                return OPTIMAL
            r = None
            best = None
            for i in range(m):
                if T[i][col] > 0:
                    ratio = T[i][-1] / T[i][col]
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[r]):
                        best, r = ratio, i
            if r is None:
                return UNBOUNDED
            pivot(r, col)
            f = zrow[col]
            prow = T[r]
            zrow = [z - f * w for z, w in zip(zrow, prow)]

    # Phase 1: drive the artificial variables to zero.
    c1 = [Fraction(0)] * n + [Fraction(-1)] * m
    run(c1, range(ncols))
    value = sum(c1[basis[i]] * T[i][-1] for i in range(m))
    if value < 0:
        # y = c1_B B^{-1}; B^{-1} sits in the artificial columns.  -y certifies
        # infeasibility of the flipped system; unflip per row.
        y = [sum(c1[basis[k]] * T[k][n + i] for k in range(m)) for i in range(m)]
        farkas = [-yi * signs[i] for i, yi in enumerate(y)]
        return LPResult(INFEASIBLE, farkas=farkas)

    # Drive leftover basic artificials out (degenerate rows), drop redundant rows.
    redundant = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is None:
                redundant.append(i)  # 0 = 0 row
            else:
                pivot(i, col)
    if redundant:
        for i in sorted(redundant, reverse=True):
            del T[i]
            del basis[i]
        m = len(T)
        if m == 0:
            if any(cj > 0 for cj in c):
                return LPResult(UNBOUNDED, x=[Fraction(0)] * n)
            return LPResult(OPTIMAL, x=[Fraction(0)] * n, objective=Fraction(0))

    # Phase 2: original objective, artificial columns barred from entering.
    c2 = c + [Fraction(0)] * (ncols - n)
    status = run(c2, range(n))
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, x=x)
    obj = sum(cv * xv for cv, xv in zip(c, x))
    return LPResult(OPTIMAL, x=x, objective=obj)


def brute_rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def brute_plain(x):
    """Results to JSON-safe structures, one recursive walk: the conversion
    rules `forge` writes its output by."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"im": x.imag, "re": x.real}
    if hasattr(x, "to_json"):
        return brute_plain(x.to_json())
    if dataclasses.is_dataclass(x):
        return {f.name: brute_plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): brute_plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [brute_plain(v) for v in x]
    return str(x)


def brute_dumps(x) -> str:
    """The text `forge` writes for a result: brute_plain, then the standard
    library's encoder with sorted keys and indent 2."""
    return json.dumps(brute_plain(x), sort_keys=True, indent=2)


def brute_render(x) -> str:
    """The text `forge --report` writes for a result: brute_plain, then an
    indented key: value listing (lists past 12 entries are counted)."""
    out = []

    def walk(data, indent):
        pad = "  " * indent
        if isinstance(data, dict):
            for k in sorted(data):
                v = data[k]
                if isinstance(v, (dict, list)) and v:
                    out.append(f"{pad}{k}:\n")
                    walk(v, indent + 1)
                else:
                    out.append(f"{pad}{k}: {v}\n")
        elif isinstance(data, list):
            if len(data) > 12:
                out.append(f"{pad}[{len(data)} entries]\n")
            else:
                for v in data:
                    if isinstance(v, (dict, list)):
                        walk(v, indent + 1)
                    else:
                        out.append(f"{pad}- {v}\n")
        else:
            out.append(f"{pad}{data}\n")

    walk(brute_plain(x), 0)
    return "".join(out)


# -- the cone walk and minimal faces as they were before they read the dual --
# Verbatim copies of `cones.minimal_face_containing`, `cones._span_coordinates`
# and `cones.basis_through_point` from when they asked their cone questions
# through exact-simplex LPs: pointedness by `is_pointed`, membership by
# `nonneg_combination`, the slice functional by `separate`, the face support
# by `max_coordinate`, the basis completion by `extreme_rays`, and span
# coordinates by one `ratlin.solve` per vector.


def brute_minimal_face(cone, x, exact=None):
    """Smallest face of the cone containing x.

    Exact rational x: LP support maximization.  The face is generated by the
    generators that can carry strictly positive weight in some representation
    of x; x then lies in the relative interior of their cone.

    Float x (exact=False or float entries): facet normals of the cone are
    evaluated on the interval hull of x under the two-rung policy of
    `cones.TIGHT_RUNG` and `cones.LOOSE_RUNG`.
    """
    from dirichlet_forge.cones import (LOOSE_RUNG, TIGHT_RUNG, FaceResult,
                                       dual_cone)
    from dirichlet_forge.errors import PreconditionError
    from dirichlet_forge.exact_lp import max_coordinate, nonneg_combination
    from dirichlet_forge.exactnum import as_fraction
    from dirichlet_forge.ratlin import dot, vec
    F = Fraction
    gens = list(cone.generators)
    if exact is None:
        exact = not any(isinstance(v, float) for v in x)
    if exact:
        xv = vec(x)
        if all(v == 0 for v in xv):
            return FaceResult((), (), (), note="x = 0: the face is the origin")
        t, _ = nonneg_combination(gens, xv)
        if t is None:
            raise PreconditionError("x is not in the cone")
        marked = {i for i, ti in enumerate(t) if ti > 0}
        for i in range(len(gens)):
            if i in marked:
                continue
            val, sol = max_coordinate(gens, xv, i, cap=F(1))
            if val is not None and val > 0:
                marked.add(i)
                marked |= {j for j, tj in enumerate(sol) if tj > 0}
        idx = tuple(sorted(marked))
        dual = dual_cone(gens, cone.dim)
        tight = tuple(nv for nv in dual.rays
                      if all(dot(nv, gens[i]) == 0 for i in idx))
        return FaceResult(idx, tuple(gens[i] for i in idx), tight)

    # float path: exact intervals around the measured coordinates
    xf = [as_fraction(float(v)) for v in x]
    scale = max((abs(v) for v in xf), default=F(0)) + F(1)
    dual = dual_cone(gens, cone.dim)
    tight = []
    ambiguous = False
    for nv in dual.rays:
        nscale = sum(abs(c) for c in nv)
        val = abs(dot(nv, xf))
        bound = nscale * scale
        if val <= TIGHT_RUNG * bound:
            tight.append(nv)
        elif val <= LOOSE_RUNG * bound:
            ambiguous = True  # resolved toward non-tight: the larger face
    idx = tuple(i for i, g in enumerate(gens)
                if all(dot(nv, g) == 0 for nv in tight))
    return FaceResult(idx, tuple(gens[i] for i in idx), tuple(tight),
                      ambiguous=ambiguous,
                      note="interval policy on float input" if ambiguous else "")



# -- the float tightness test on Fractions ----------------------------------
# A verbatim copy of the float branch of `cones.minimal_face_containing` from
# before `cones.tight_normals` ran it on ints.  The loop reads `normals`
# where it read the dual rays, and it counts the ambiguous normals where it
# set a flag.


def brute_tight_normals(normals, x):
    """(tight, n_ambiguous) of the two-rung policy, on exact Fractions."""
    from dirichlet_forge.cones import LOOSE_RUNG, TIGHT_RUNG
    from dirichlet_forge.exactnum import as_fraction
    from dirichlet_forge.ratlin import dot
    F = Fraction
    # exact intervals around the measured coordinates
    xf = [as_fraction(float(v)) for v in x]
    scale = max((abs(v) for v in xf), default=F(0)) + F(1)
    tight = []
    ambiguous = 0
    for nv in normals:
        val = abs(dot(nv, xf))
        bound = sum(abs(c) for c in nv) * scale
        if val <= TIGHT_RUNG * bound:
            tight.append(nv)
        elif val <= LOOSE_RUNG * bound:
            ambiguous += 1  # resolved toward non-tight: the larger face
    return tight, ambiguous

def brute_span_coordinates(gens):
    """(basis rows of span, forward map vec -> coords, inverse map coords -> vec)."""
    from dirichlet_forge import ratlin
    from dirichlet_forge.ratlin import rref
    F = Fraction
    basis_rows, _ = rref(gens)
    ell = len(basis_rows)

    def to_coords(v):
        sol = ratlin.solve([[basis_rows[i][j] for i in range(ell)]
                            for j in range(len(v))], list(v))
        return None if sol is None else tuple(sol)

    def from_coords(cs):
        out = [F(0)] * len(basis_rows[0])
        for c, row in zip(cs, basis_rows):
            for j, rj in enumerate(row):
                out[j] += c * rj
        return tuple(out)

    return basis_rows, to_coords, from_coords


def brute_basis_through_point(generators, eta, first=None):
    """Independent vectors from the cone whose nonnegative span contains eta.

    Walk: scale a starting generator onto the slice {y . chi = eta . chi}
    (chi a strictly positive functional from separate()), move along the
    segment toward eta and past it until a facet binds, split eta between the
    start vector and the facet point, and recurse inside the facet.  The
    resulting vectors are completed to a basis of span(generators) by greedy
    extreme-ray extension.  `first` requests a specific cone vector as the
    starting b_1 (used when a distinguished direction must lead the basis).
    """
    from dirichlet_forge import ratlin
    from dirichlet_forge.cones import (ConeBasisResult, _vecs, dual_cone,
                                       extreme_rays, is_pointed, separate)
    from dirichlet_forge.errors import PreconditionError, ValidationError
    from dirichlet_forge.exact_lp import nonneg_combination
    from dirichlet_forge.ratlin import dot, rank, vec
    gens = [g for g in _vecs(generators) if any(x != 0 for x in g)]
    if not gens:
        raise ValidationError("no nonzero generators")
    eta = vec(eta)
    if not is_pointed(gens):
        raise PreconditionError("cone contains a line")
    t, _ = nonneg_combination(gens, eta)
    if t is None:
        raise PreconditionError("eta is not in the cone")

    # work in exact coordinates of span(generators)
    basis_rows, to_coords, from_coords = brute_span_coordinates(gens)
    ell = len(basis_rows)
    gcs = [to_coords(g) for g in gens]
    eta_c = to_coords(eta)
    if eta_c is None:
        raise PreconditionError("eta is outside the span of the generators")
    first_c = None
    if first is not None:
        first_c = to_coords(vec(first))
        if first_c is None:
            raise PreconditionError("requested leading vector outside the span")

    def walk(gcs_cur, eta_cur, lead):
        """Returns a list of independent coordinate vectors in cone(gcs_cur)
        whose nonnegative span contains eta_cur."""
        gcs_cur = [fraction_canonical_ray(g) for g in gcs_cur if any(x != 0 for x in g)]
        gcs_cur = list(dict.fromkeys(gcs_cur))
        if all(x == 0 for x in eta_cur):
            return []
        if len(gcs_cur) == 1 or rank(gcs_cur) == 1:
            return [gcs_cur[0]]
        chi = separate(gcs_cur).functional  # strictly positive on the cone
        if chi is None:
            raise PreconditionError("cone lost pointedness during the walk")
        b1 = None
        if lead is not None:
            tt, _ = nonneg_combination(gcs_cur, lead)
            if tt is not None and any(x != 0 for x in lead):
                b1 = tuple(lead)
        if b1 is None:
            b1 = gcs_cur[0]  # deterministic: lowest-index generator
        # scale b1 onto the slice {y . chi = eta . chi}
        target = dot(eta_cur, chi)
        b1k = tuple(x * target / dot(b1, chi) for x in b1)
        direction = tuple(e - b for e, b in zip(eta_cur, b1k))
        if all(x == 0 for x in direction):
            return [b1]  # eta is on the b1 ray
        # facet normals of the current cone (full-dimensional in its span is
        # not guaranteed here, but supporting functionals from the dual are
        # exactly what binds the segment)
        dual = dual_cone(gcs_cur, len(eta_cur))
        t_star = None
        for nv in dual.rays:
            slope = dot(nv, direction)
            if slope < 0:
                tb = -dot(nv, b1k) / slope  # n . d(t) = 0
                if tb >= 1 and (t_star is None or tb < t_star):
                    t_star = tb
        if t_star is None:
            # eta strictly inside along this segment and the segment never
            # exits: can only happen when eta is on the b1 ray (handled) or
            # the cone is not pointed (excluded); guard anyway
            return [b1]
        d_star = tuple(b + t_star * dxy for b, dxy in zip(b1k, direction))
        binding = [nv for nv in dual.rays
                   if dot(nv, d_star) == 0 and dot(nv, direction) < 0]
        nstar = binding[0]
        face = [g for g in gcs_cur if dot(nstar, g) == 0]
        if not face:
            return [b1]
        sub = walk(face, d_star, None)
        if t_star == 1:
            # eta itself lies on the facet: descend without consuming b1
            return sub
        # nstar vanishes on every face vector but is positive on b1, so b1 is
        # automatically independent of sub
        return [b1] + sub

    vecs_c = walk(gcs, eta_c, first_c)
    # complete to a basis of the span by extreme rays
    extended = []
    if rank(vecs_c) < ell:
        for r in extreme_rays(gcs):
            if rank(vecs_c + [r]) > rank(vecs_c):
                extended.append(len(vecs_c))
                vecs_c.append(r)
            if rank(vecs_c) == ell:
                break
    if rank(vecs_c) != len(vecs_c):
        raise AssertionError("walk produced dependent vectors")
    # eta coefficients over the final independent set (unique)
    rows = [[vecs_c[i][j] for i in range(len(vecs_c))] for j in range(ell)]
    coeff = ratlin.solve(rows, list(eta_c))
    if coeff is None or any(c < 0 for c in coeff):
        raise AssertionError("eta left the cone of the walk output")
    vecs = tuple(from_coords(v) for v in vecs_c)
    return ConeBasisResult(vectors=vecs, coefficients=tuple(coeff),
                           extended=tuple(extended))


# Verbatim copy of `extension._fit_phases` from before the exact lattice fit:
# a box search over 2 pi multiples in [-bound, bound]^k on an independent row
# subset, with a pinv fallback flagged as heuristic.


def brute_fit_phases(expo_rows, targets, nbasis: int,
                     bound: int = 8, tol: float = 1e-8):
    """omega (length nbasis) with expo_rows[i] . omega = targets[i] mod 2 pi.

    Solves on an independent row subset for every choice of 2 pi multiples in
    a bounded integer box (small multiples first) and keeps the first choice
    that verifies on all rows.  Returns (omega, heuristic) where heuristic
    marks the zero-multiple fallback after an exhausted search.
    """
    import numpy as np

    from dirichlet_forge.ratlin import independent_subset
    F = Fraction

    if not expo_rows:
        return [0.0] * nbasis, False
    rows_frac = [[F(int(e)) for e in row] for row in expo_rows]
    sel = independent_subset(rows_frac)
    A_sel = np.array([[float(e) for e in expo_rows[i]] for i in sel], dtype=float)
    t_sel = np.array([targets[i] for i in sel], dtype=float)
    pinv = np.linalg.pinv(A_sel)
    A_all = np.array(expo_rows, dtype=float)
    t_all = np.array(targets, dtype=float)

    def verify(om):
        res = np.angle(np.exp(1j * (A_all @ om - t_all)))
        return float(np.abs(res).max()) <= tol

    k = len(sel)
    if k > 5:                       # box too large to enumerate
        om = pinv @ t_sel
        return [float(x) for x in om], not verify(om)
    axes = [np.arange(-bound, bound + 1)] * k
    cand = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    order = np.lexsort(tuple(cand[:, j] for j in reversed(range(k)))
                       + (np.abs(cand).sum(axis=1),))
    cand = cand[order]
    omegas = (t_sel[None, :] + 2.0 * math.pi * cand) @ pinv.T
    res = np.angle(np.exp(1j * (omegas @ A_all.T - t_all[None, :])))
    ok = np.abs(res).max(axis=1) <= tol
    hit = int(np.argmax(ok))
    if ok[hit]:
        return [float(x) for x in omegas[hit]], False
    om = pinv @ t_sel
    return [float(x) for x in om], True


def brute_integer_rescale(rows, gamma):
    """`extension._integer_rescale` as the `Fraction` loop it replaced: one
    exact `dot` per (row, generator) pair for the scale, and again for the
    exponents."""
    import math

    from dirichlet_forge.ratlin import dot
    scaled = []
    for row in rows:
        L = 1
        for g in gamma:
            L = math.lcm(L, dot(row, g).denominator)
        scaled.append(tuple(x * L for x in row))
    exponents = []
    for g in gamma:
        ex = []
        for row in scaled:
            val = dot(row, g)
            assert val.denominator == 1 and val >= 0
            ex.append(int(val))
        exponents.append(tuple(ex))
    return tuple(scaled), tuple(exponents)


def brute_scale(a, c):
    """`AlgebraElement.scale` as it was: every value coerced again, even when
    the backend does not change."""
    from dirichlet_forge.algebra import EXACT, FLOAT, AlgebraElement
    backend = a.backend
    if backend == EXACT and isinstance(c, complex):
        backend = FLOAT
    cc = _coerce(c, backend)
    out = {}
    for lam, v in a.coeffs.items():
        nv = _coerce(v, backend) * cc
        if not coeff_is_zero(nv):
            out[lam] = nv
    return AlgebraElement(a.basis, out, backend, a.truncation,
                          a.dropped_mass * coeff_abs(cc), _trusted=True)


def scan_kronecker_t(instance):
    """`density.kronecker_t` before its lattice stage and precision cap: the
    aligned and uniform torus scan alone.  t >= 0 with e^{-i beta_k t} close
    to every target.

    One coordinate can always be aligned exactly: t_n = t0 + 2 pi n / beta_1
    hits target 1 for every n, and for Q-independent betas the remaining
    phases equidistribute over those n.  The scan of n is interleaved with a
    uniform scan of step theta / (2 max beta) (which cannot step over a
    solution) so rationally dependent inputs still get the best uniform
    candidate.  Candidates are enumerated in a budget-independent order, so a
    larger budget only extends the scan: the best error never increases.
    """
    import numpy as np
    from dirichlet_forge.density import CHUNK, KroneckerResult, _kron_errors
    betas, targets = instance.betas, instance.targets
    theta, budget = instance.theta, instance.t_budget
    k = len(betas)
    period1 = 2.0 * math.pi / betas[0]
    t0 = (-cmath.phase(targets[0]) / betas[0]) % period1
    if k == 1:
        errs = _kron_errors(betas, targets, t0)
        return KroneckerResult(t0, errs, max(errs), 1, False)

    b = np.array(betas)
    z = np.array(targets, dtype=complex)
    h = theta / (2.0 * max(betas))

    def batch_error(ts: np.ndarray) -> np.ndarray:
        vals = np.exp(-1j * np.outer(ts, b))
        return np.abs(vals - z[None, :]).max(axis=1)

    best_err, best_t = math.inf, t0
    steps = 0
    aligned_next, uniform_next = 0, 0
    use_aligned = True
    while steps < budget and best_err > theta:
        n = min(CHUNK, budget - steps)
        if use_aligned:
            ts = t0 + period1 * np.arange(aligned_next, aligned_next + n)
            aligned_next += n
        else:
            ts = h * np.arange(uniform_next, uniform_next + n)
            uniform_next += n
        errs = batch_error(ts)
        i = int(np.argmin(errs))
        if errs[i] < best_err:
            best_err, best_t = float(errs[i]), float(ts[i])
        steps += n
        use_aligned = not use_aligned
    errs = _kron_errors(betas, targets, best_t)
    mx = max(errs)
    return KroneckerResult(best_t, errs, mx, steps, mx > theta)



# -- the cone layer on Fractions, as it was before it ran on ints -------------
# Verbatim copies (imports aside) of `ratlin.independent_subset`, the set-up
# of `cones.dual_cone`, `cones._span_coordinates` and
# `exact_lp.fourier_motzkin` from before their eliminations moved to Python
# ints.  The double-description loop itself is the package's.


def fraction_canonical_ray(v):
    """Scale a nonzero rational vector to coprime integers, direction kept."""
    from dirichlet_forge.ratlin import integer_scaled, vec
    fr = vec(v)
    if all(a == 0 for a in fr):
        return fr
    ints, _ = integer_scaled(fr)
    g = math.gcd(*ints)
    return tuple(Fraction(a // g) for a in ints)


def fraction_independent_subset(vectors):
    """Greedy indices of a maximal Q-linearly independent subset.

    Incremental: each candidate is reduced against the echelon rows kept so
    far (each zero on the pivots of the rows before it) and joins them when
    a nonzero remainder is left.
    """
    from dirichlet_forge.ratlin import vec
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


def fraction_inverse(rows):
    """The inverse of a square matrix as Fraction rows, or None if it is
    singular: `integer_inverse`'s s rows^-1 over s."""
    from dirichlet_forge.ratlin import integer_inverse
    inv = integer_inverse(rows)
    if inv is None:
        return None
    A, s = inv
    return [tuple(Fraction(x, s) for x in row) for row in A]


def fraction_dual_cone(generators, dim=None):
    """`cones.dual_cone` with its set-up on Fractions: the start rays are the
    canonical columns of B^T (B B^T)^-1 from `fraction_inverse`, and the
    lineality basis is `kernel_basis` of B made canonical."""
    from dirichlet_forge.cones import DualConeResult, _double_description, _vecs
    from dirichlet_forge.errors import ValidationError
    from dirichlet_forge.ratlin import dot, kernel_basis
    F = Fraction
    gens = _vecs(generators)
    if dim is None:
        if not gens:
            raise ValidationError("need generators or an explicit dimension")
        dim = len(gens[0])
    for g in gens:
        if len(g) != dim:
            raise ValidationError("generator dimension mismatch")
    canon = list(dict.fromkeys(fraction_canonical_ray(g) for g in gens
                               if any(x != 0 for x in g)))
    basis = fraction_independent_subset(canon)
    brows = [canon[i] for i in basis]
    if brows:
        lineality = [fraction_canonical_ray(v) for v in kernel_basis(brows)]
        ginv = fraction_inverse([[dot(a, b) for b in brows] for a in brows])
        start = [fraction_canonical_ray(
                     [sum(ginv[i][j] * b[k] for i, b in enumerate(brows))
                      for k in range(dim)])
                 for j in range(len(brows))]
        pointed = _double_description(
            [tuple(x.numerator for x in g) for g in canon], basis,
            [tuple(x.numerator for x in y) for y in start])
    else:
        lineality = [tuple(F(int(j == i)) for j in range(dim)) for i in range(dim)]
        pointed = []
    rays = sorted(pointed) + sorted(lineality + [tuple(-x for x in v) for v in lineality])
    return DualConeResult(dim=dim, rays=tuple(tuple(F(x) for x in r) for r in rays),
                          lineality_dim=len(lineality))


def fraction_span_coordinates(gens):
    """(basis rows of span, forward map vec -> coords, inverse map coords -> vec).

    The rows are the RREF of gens, so v's coordinates are its pivot entries;
    the forward map gives None when they do not rebuild v (v outside the span).
    """
    from dirichlet_forge.ratlin import rref, vec
    F = Fraction
    basis_rows, pivots = rref(gens)

    def to_coords(v):
        v = vec(v)
        if len(v) != len(basis_rows[0]):
            raise ValueError("dimension mismatch")
        cs = tuple(v[p] for p in pivots)
        return cs if from_coords(cs) == v else None

    def from_coords(cs):
        out = [F(0)] * len(basis_rows[0])
        for c, row in zip(cs, basis_rows):
            for j, rj in enumerate(row):
                out[j] += c * rj
        return tuple(out)

    return basis_rows, to_coords, from_coords


def fraction_fourier_motzkin(A, b):
    """Feasibility of A x <= b over Q^d with witness, by variable elimination
    on Fraction rows.  Returns (True, x) with A x <= b exactly, or (False,
    None); the row cap is `exact_lp.FM_ROW_CAP`."""
    from dirichlet_forge import exact_lp
    from dirichlet_forge.errors import CapExceededError
    from dirichlet_forge.exactnum import as_fraction
    if not A:
        return True, []
    n = len(A[0])
    sys_rows = [[as_fraction(v) for v in row] + [as_fraction(bi)]
                for row, bi in zip(A, b)]
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
        if len(rest) + len(ups) * len(lows) > exact_lp.FM_ROW_CAP:
            raise CapExceededError("Fourier-Motzkin row cap")
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
            val = (row[-1] - sum(row[j] * x[j] for j in range(n) if j != k)) / row[k]
            lo = val if lo is None else max(lo, val)
        for row in ups:
            val = (row[-1] - sum(row[j] * x[j] for j in range(n) if j != k)) / row[k]
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


# -- the algebra when every term was a SemigroupElement ---------------------
# Verbatim copies of `enumerate_monoid`, `convolve`, `graded_invert`,
# `neumann_invert` and `compose_series`, with the private helpers they
# called, from when the pair kernel ran on element keys but every monoid
# point and result term was a SemigroupElement: `enumerate_monoid` built one
# per key it reached, and the kernel recorded the first pair behind each
# new key (`born`) to build the result's elements.  Names gain an
# `element_` prefix; the code is otherwise unchanged, except that
# `element_compose_series` sums the reciprocal as its Neumann series, as the
# library now does.

from itertools import repeat  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

from dirichlet_forge.algebra import (  # noqa: E402
    EXACT, FLOAT, AlgebraElement, CompositionCertificate, NeumannCertificate,
    NEUMANN_SUPPORT_CAP, _check_bases, _gauss_mul, _min_trunc, _nonzero, _num_abs, unit)
from dirichlet_forge.errors import (  # noqa: E402
    CapExceededError, NeumannInapplicableError, SingularElementError, ValidationError)
from dirichlet_forge.semigroup import (  # noqa: E402
    SemigroupBasis, key_combine, row_end)
from dirichlet_forge.weights import ONE, WeightFn, one as weight_one  # noqa: E402


# The value helpers of the algebra from when an exact element stored one QC
# per term and the pair kernel converted at its edges, verbatim: coercion
# (also used by `brute_convolve` and `brute_scale`), the common
# denominator, the numerators, the numerator -> QC map and 1 / a(0).


def _coerce(value, backend):
    """`value` as a coefficient of `backend`; a non-finite one, or one too
    large for a complex double in the float backend, is a ValidationError."""
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ValidationError(f"coefficient {value!r} is not finite")
    if backend == EXACT:
        return QC.from_value(value)
    try:
        return complex(value)
    except OverflowError:
        raise ValidationError("coefficient is too large for the float backend") from None


def _common_den(values) -> int:
    dens = set()
    for v in values:
        v = QC.from_value(v)
        dens.add(v.re.denominator)
        dens.add(v.im.denominator)
    return math.lcm(*dens)


def _numerators(values, den: Optional[int] = None):
    """(numerators, D, gauss) with value = numerator / D exactly: ints when
    every value is real, else (re, im) pairs.  D is the least common
    denominator unless given."""
    qs = [QC.from_value(v) for v in values]
    if den is None:
        den = _common_den(qs)
    if all(v.im == 0 for v in qs):
        return [v.re.numerator * (den // v.re.denominator) for v in qs], den, False
    return [(v.re.numerator * (den // v.re.denominator),
             v.im.numerator * (den // v.im.denominator)) for v in qs], den, True


def _value(v, den: int, gauss: bool, backend: str):
    """A kernel value as a coefficient: numerator / den as a QC (exact), or
    the complex itself (float)."""
    if backend != EXACT:
        return v
    re, im = v if gauss else (v, 0)
    if den == 1:
        return QC(Fraction(re), Fraction(im))
    return QC(Fraction(re, den), Fraction(im, den))


def _invert_scalar(v, backend):
    if backend == EXACT:
        return QC(1) / QC.from_value(v)
    return 1.0 / complex(v)


def element_enumerate_monoid(support, truncation: float, cap: int = 200_000):
    """All sums of `support` elements with |.|_1 <= truncation, sorted.

    Sorted by (|.|_1, exponent key); includes zero.  `cap` bounds the number
    of enumerated elements.  The breadth-first search tests membership by
    element key (`SemigroupElement.key`) and builds each element once, when
    its key is first reached.
    """
    if isinstance(support, SemigroupBasis):
        basis = support
        support = [basis.generator_element(g.id) for g in basis.generators]
    if not support:
        raise ValidationError("empty support")
    basis = support[0].basis
    gens = sorted((s for s in support if not s.is_zero()), key=lambda e: e.sort_key())
    gmags = [s.l1() for s in gens]
    rows = [(s.key(), s) for s in gens]
    limit = truncation + 1e-9 * (1.0 + abs(truncation))
    combine = key_combine(basis)
    zero = basis.zero()
    elems = {zero.key(): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for mu in frontier:
            mk = mu.key()
            for sk, s in rows[:row_end(gmags, mu.l1(), limit)]:  # gens sorted by magnitude
                nu = combine(mk, sk)
                if nu not in elems:
                    elems[nu] = e = mu + s
                    if len(elems) > cap:
                        raise CapExceededError(
                            f"monoid enumeration exceeded cap {cap} below cutoff {truncation}")
                    nxt.append(e)
        frontier = nxt
    return sorted(elems.values(), key=lambda e: e.sort_key())


def element_convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a*b)(lambda) = sum_{lambda'+lambda''=lambda} a(lambda') b(lambda'').

    Finite supports make the sum finite.  If either operand declares a
    truncation, products beyond min(T_a, T_b) are dropped and the dropped
    mass (sum of |a||b| over dropped pairs) is recorded in metadata.  The
    pairs run through `_element_pair_kernel`; the result's terms keep the order in
    which it first reaches them.
    """
    _check_bases(a, b)
    backend, T, sa, sb, out, born, lost = _element_product(a, b)
    dropped = a.dropped_mass + b.dropped_mass + lost
    ea, eb = dict(zip(sa.keys, sa.elems)), dict(zip(sb.keys, sb.elems))
    den, gauss = sa.den * sb.den, sa.gauss
    coeffs = {}
    for k, v in out.items():
        if _nonzero(v, gauss):
            ka, kb = born[k]
            coeffs[ea[ka] + eb[kb]] = _value(v, den, gauss, backend)
    return AlgebraElement(a.basis, coeffs, backend, T, dropped, _trusted=True)


def _element_product(a: AlgebraElement, b: AlgebraElement):
    """a * b on keys: (backend, truncation, a's side, b's side, numerators
    by key, first pair by key, dropped mass)."""
    backend = EXACT if a.backend == b.backend == EXACT else FLOAT
    T = _min_trunc(a.truncation, b.truncation)
    limit = None if T is None else T + 1e-12 * (1.0 + abs(T))
    cut = limit is not None
    sa, sb = _element_unify(_element_side(a.coeffs.items(), backend),
                    _element_side(b.coeffs.items(), backend, by_mag=cut, mags=cut))
    out, born = {}, {}
    lost = _element_pair_kernel(zip(sa.keys, sa.mags, sa.vals), sb, limit, out,
                        key_combine(a.basis), born, sa.den)
    return backend, T, sa, sb, out, born, lost


def _element_weighted_norm(a: AlgebraElement, w: Optional[WeightFn] = None) -> float:
    """||a||_w = sum |a(lambda)| w(lambda)   (float; norms are analysis-grade)."""
    if w is None:
        w = weight_one()
    return sum(coeff_abs(v) * w.eval(lam) for lam, v in a.coeffs.items())


def element_neumann_invert(a: AlgebraElement, w: Optional[WeightFn] = None,
                   tol: float = 1e-12, max_terms: int = 10_000):
    """Inverse via the geometric series around a(0), with certified tail.

    Requires q = ||a - a(0) eps||_w / |a(0)| < 1.  Truncates after J terms
    once the geometric tail q^(J+1) / ((1-q) |a(0)|) < tol.  Returns
    (element, NeumannCertificate).  A partial sum whose support would grow
    past NEUMANN_SUPPORT_CAP raises CapExceededError.
    """
    if w is None:
        w = weight_one()
    a0 = a[a.basis.zero()]
    if coeff_is_zero(a0):
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    rest = a.add(unit(a.basis, a.backend).scale(a0).negate())  # a - a(0) eps
    q = _element_weighted_norm(rest, w) / coeff_abs(a0)
    if q >= 1.0:
        raise NeumannInapplicableError(q)
    inv_a0 = _invert_scalar(a0, a.backend)
    # b = (1/a0) sum_j u^{*j},  u = eps - a / a0
    u = rest.scale(inv_a0).negate()
    powers = _ElementPowers(u)
    acc = dict(powers.term)  # numerators over powers.den
    acc_dropped = 0.0
    cap = NEUMANN_SUPPORT_CAP
    tail = q / (1.0 - q)  # bound for sum_{j>J} q^j at J=0
    J = 0
    while tail / coeff_abs(a0) >= tol:
        J += 1
        if J > max_terms:
            raise CapExceededError(f"Neumann series needs more than {max_terms} terms")
        term = powers.step()
        if len(acc) + len(term.keys() - acc.keys()) > cap:
            raise CapExceededError(
                f"Neumann support would pass NEUMANN_SUPPORT_CAP = {cap}: {J - 1} terms "
                f"used, {len(acc)} support elements held")
        _element_accumulate(acc, term, powers.side.den, powers.side.gauss)
        acc_dropped += powers.dropped
        tail *= q
    elems = powers.elems
    if a.backend == EXACT:
        # b = acc * inv_a0 on numerators, one QC per coefficient
        (nu,), nu_den, nu_gauss = _numerators([inv_a0])
        acc_gauss = powers.side.gauss
        gauss = acc_gauss or nu_gauss
        den = powers.den * nu_den
        coeffs = {}
        for k, v in acc.items():
            if gauss:
                v = _gauss_mul(v if acc_gauss else (v, 0), nu if nu_gauss else (nu, 0))
            else:
                v = v * nu
            if _nonzero(v, gauss):
                coeffs[elems[k]] = _value(v, den, gauss, EXACT)
    else:
        coeffs = {elems[k]: v * inv_a0 for k, v in acc.items()}
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
    b = AlgebraElement(a.basis, coeffs, a.backend, u.truncation if J else None,
                       acc_dropped * coeff_abs(inv_a0), _trusted=True)
    cert = NeumannCertificate(q=q, terms_used=J, tail_bound=tail / coeff_abs(a0),
                              residual_norm=_element_unit_residual(a, b, w), weight=w)
    return b, cert


def _element_unit_residual(a: AlgebraElement, b: AlgebraElement, w: WeightFn) -> float:
    """||a * b - eps||_w, the norm of `element_convolve(a, b) - eps` taken on keys.

    It skips building the difference, and under the unit weight the
    product's support elements too, which take longer than the products
    themselves.  Another weight is evaluated on each product element, as
    `_element_weighted_norm` does.
    """
    backend, _, sa, sb, out, born, _ = _element_product(a, b)
    zk = a.basis.zero().key()
    den, gauss = sa.den * sb.den, sa.gauss
    v0 = out.get(zk, (0, 0) if gauss else 0)
    out[zk] = (v0[0] - den, v0[1]) if gauss else v0 - den  # eps is den / den
    weight = None
    if w.kind != ONE:
        ea, eb = dict(zip(sa.keys, sa.elems)), dict(zip(sb.keys, sb.elems))
        weight = {k: w.eval(ea[ka] + eb[kb]) for k, (ka, kb) in born.items()}
        weight.setdefault(zk, w.eval(a.basis.zero()))
    total = 0
    for k, v in out.items():
        m = coeff_abs(_value(v, den, gauss, backend))
        if m != 0.0:
            total += m if weight is None else m * weight[k]
    return total


def element_graded_invert(a: AlgebraElement, truncation: float,
                  cap: int = 200_000) -> AlgebraElement:
    """Inverse by recursion in increasing |lambda|_1 over the support monoid.

    b(0) = 1/a(0); for each reachable lambda (a sum of support elements with
    |lambda|_1 <= truncation, enumerated in increasing magnitude with
    lexicographic tie-break),
        b(lambda) = -(1/a(0)) sum_{lambda'+lambda''=lambda, lambda''!=lambda}
                     a(lambda') b(lambda'').
    Contributions are pushed forward from each determined b(lambda'') over
    the magnitude-sorted support, with early break at the cutoff, so the
    cost is the number of reachable pairs rather than |support| x |monoid|.
    Exact in the rational backend, on Gaussian integers with no Fraction in
    the loop (`_element_fraction_free`).
    """
    a0 = a[a.basis.zero()]
    if coeff_is_zero(a0):
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    inv_a0 = _invert_scalar(a0, a.backend)
    zero = a.basis.zero()
    support = [(lam, v) for lam, v in a.coeffs.items() if not lam.is_zero()]
    if not support:
        return AlgebraElement(a.basis, {zero: inv_a0}, a.backend, truncation, _trusted=True)
    den = _common_den(a.coeffs.values()) if a.backend == EXACT else None
    side = _element_side(support, a.backend, by_mag=True, den=den)
    elements = element_enumerate_monoid(side.elems, truncation, cap)
    limit = truncation + 1e-9 * (1.0 + abs(truncation))
    if a.backend == EXACT:
        side, first, solve, finish = _element_fraction_free(a0, den, side, len(elements), limit)
    else:
        first, finish = inv_a0, None

        def solve(s):
            return -(inv_a0 * s)

    acc: dict = {}
    b: dict = {}
    gauss = side.gauss

    def outer():
        for lam in elements:
            k = lam.key()
            if lam.is_zero():
                blam = first
            else:
                s = acc.get(k)
                if s is None:
                    continue  # not reachable as support-sum (cannot happen by construction)
                blam = solve(s)
                b[lam] = blam
            if _nonzero(blam, gauss):
                yield k, lam.l1(), blam

    # pairs past the truncation have no part in the inverse: no dropped mass
    _element_pair_kernel(outer(), side, limit, acc, key_combine(a.basis))
    out = {zero: inv_a0}
    for lam, v in b.items():
        if _nonzero(v, gauss):
            out[lam] = v if finish is None else finish(v)
    return AlgebraElement(a.basis, out, a.backend, truncation, _trusted=True)


def _element_fraction_free(a0, den: int, side: "_ElementSide", n_elements: int, limit: float):
    """The exact graded recursion on Gaussian integers.

    With a = alpha / den and 1/alpha(0) = c / n0 (c = 1, n0 = alpha(0) for
    a real series; c = conj alpha(0), n0 = |alpha(0)|^2 otherwise), the
    recursion b(lambda) = -(c / n0) sum alpha b runs on beta = n0^H b,
    where H is at least the longest chain of support steps plus one: then
    every beta is a Gaussian integer and each division by n0 is exact,
    which is checked.  Returns the operand in matching form, beta(0), the
    step s -> beta and the map beta -> QC.
    """
    (alpha0,), _, gauss0 = _numerators([a0], den)
    if gauss0 and not side.gauss:
        side = side._replace(vals=[(v, 0) for v in side.vals], gauss=True)
    if side.gauss:
        a0r, a0i = alpha0 if gauss0 else (alpha0, 0)
        cr, ci, n0 = a0r, -a0i, a0r * a0r + a0i * a0i
    else:
        cr, ci, n0 = 1, 0, alpha0
    H = 1
    if abs(n0) != 1:
        # a chain of k steps below the cutoff has k <= limit / (smallest
        # support magnitude), and k < n_elements
        H = n_elements
        if side.mags[0] > 0.0:
            H = min(H, int(limit / side.mags[0] * (1.0 + 1e-9)) + 2)
    scale0 = den * n0 ** (H - 1)
    nH = n0 ** H

    def divide(t):
        if abs(n0) == 1:
            return t * n0
        quot, rem = divmod(t, n0)
        if rem:
            raise AssertionError("element_graded_invert: inexact division by n0")
        return quot

    if side.gauss:
        def solve(s):
            sr, si = s
            return divide(ci * si - cr * sr), divide(-(cr * si + ci * sr))

        first = (cr * scale0, ci * scale0)
    else:
        def solve(s):
            return divide(-s)

        first = scale0
    return side, first, solve, lambda v: _value(v, nH, side.gauss, EXACT)


class _ElementSide(NamedTuple):
    """One operand: elements, keys, magnitudes and values, index-aligned."""
    elems: list
    keys: list
    mags: Optional[list]
    vals: list
    den: int                 # common denominator of exact numerators; 1 for float
    gauss: bool              # exact numerators are (re, im) pairs, else ints


def _element_side(items, backend: str, by_mag: bool = False, den: Optional[int] = None,
          mags: bool = True) -> _ElementSide:
    """Operand from (element, value) pairs, in the given order or stably
    sorted by magnitude (`by_mag`), with values in the kernel's form for
    `backend`.  `mags=False` skips reading magnitudes (no cutoff to test)."""
    items = list(items)
    if by_mag:
        items.sort(key=lambda kv: kv[0].l1())
    elems = [lam for lam, _ in items]
    vals = [v for _, v in items]
    ms = [lam.l1() for lam in elems] if mags or by_mag else None
    keys = [lam.key() for lam in elems]
    if backend == EXACT:
        vals, den, gauss = _numerators(vals, den)
    else:
        vals, den, gauss = [coeff_to_complex(v) for v in vals], 1, False
    return _ElementSide(elems, keys, ms, vals, den, gauss)


def _element_unify(s1: _ElementSide, s2: _ElementSide):
    """Both operands in the same numerator form (pairs if either has them)."""
    if s1.gauss == s2.gauss:
        return s1, s2
    if s1.gauss:
        return s1, s2._replace(vals=[(v, 0) for v in s2.vals], gauss=True)
    return s1._replace(vals=[(v, 0) for v in s1.vals], gauss=True), s2


def _element_pair_kernel(outer, inner: _ElementSide, limit: Optional[float], out: dict, combine,
                 born: Optional[dict] = None, outer_den: Optional[int] = None) -> float:
    """out[combine(ka, kb)] += va * vb over the pairs with ma + mb <= limit.

    `outer` yields (key, magnitude, value) and is consumed in order, one
    term at a time (graded inversion derives each term from `out` as it
    goes); `inner` is sorted by magnitude unless limit is None (no cutoff).
    `row_end` finds where each row breaks, by the float sum ma + mb itself.
    The pairs past it are dropped.  Given `outer_den`, the common
    denominator of the outer values, their mass (|va| times a suffix sum of
    |vb|, both as values) is returned; without it, 0.0.  Keys within one
    row are distinct, so each sum runs in outer order.  `born`, when given,
    records the first pair (ka, kb) behind every new key, in the order the
    keys are first reached.
    """
    pairs = list(zip(inner.keys, inner.vals))
    n, gauss, mags = len(pairs), inner.gauss, inner.mags
    mass = limit is not None and outer_den is not None
    if mass:
        tail = [0.0] * (n + 1)
        for j in range(n - 1, -1, -1):
            tail[j] = tail[j + 1] + _num_abs(inner.vals[j], gauss, inner.den)
    dropped = 0.0
    get = out.get
    for ka, ma, va in outer:
        row = pairs
        if limit is not None:
            j = row_end(mags, ma, limit)
            if j < n:
                if mass:
                    dropped += _num_abs(va, gauss, outer_den) * tail[j]
                row = pairs[:j]
        if gauss:
            ar, ai = va
            for kb, (br, bi) in row:
                k = combine(ka, kb)
                pr, pi = ar * br - ai * bi, ar * bi + ai * br
                cur = get(k)
                if cur is None:
                    out[k] = (pr, pi)
                    if born is not None:
                        born[k] = (ka, kb)
                else:
                    out[k] = (cur[0] + pr, cur[1] + pi)
        else:
            for kb, vb in row:
                k = combine(ka, kb)
                p = va * vb
                cur = get(k)
                if cur is None:
                    out[k] = p
                    if born is not None:
                        born[k] = (ka, kb)
                else:
                    out[k] = cur + p
    return dropped


class _ElementPowers:
    """u^{*1}, u^{*2}, ... on element keys, for Neumann series and
    composition.  After `step`, `term` holds the numerators of the current
    power over `den` (a power of u's denominator), in the order the kernel
    first reached their keys, and `dropped` its dropped mass as `element_convolve`
    would carry it.  `elems` maps every key reached to its element, built
    once when the key is born; it also gives the outer magnitudes."""

    def __init__(self, u: AlgebraElement):
        T = u.truncation
        self.limit = None if T is None else T + 1e-12 * (1.0 + abs(T))
        cut = self.limit is not None
        self.side = _element_side(u.coeffs.items(), u.backend, by_mag=cut, mags=cut)
        self.u_elems = dict(zip(self.side.keys, self.side.elems))
        self.combine = key_combine(u.basis)
        self.u_dropped = u.dropped_mass
        zero = u.basis.zero()
        zk = zero.key()
        one = 1 + 0j if u.backend == FLOAT else 1
        self.term = {zk: (one, 0) if self.side.gauss else one}
        self.elems = {zk: zero}
        self.den = 1
        self.dropped = 0.0

    def step(self) -> dict:
        side, elems = self.side, self.elems
        if self.limit is None:
            outer = zip(self.term, repeat(0.0), self.term.values())
        else:
            outer = ((k, elems[k].l1(), v) for k, v in self.term.items())
        nxt, born = {}, {}
        lost = _element_pair_kernel(outer, side, self.limit, nxt, self.combine, born, self.den)
        self.dropped = self.dropped + self.u_dropped + lost
        self.den *= side.den
        for k, (ka, kb) in born.items():
            if k not in elems:
                elems[k] = elems[ka] + self.u_elems[kb]
        self.term = {k: v for k, v in nxt.items() if _nonzero(v, side.gauss)}
        return self.term


def _element_accumulate(acc: dict, term: dict, den: int, gauss: bool):
    """acc <- acc * den + term on numerators (acc moves to the next power's
    denominator first); a float sum is acc + term, as `AlgebraElement.add`."""
    if den != 1:
        for k, v in acc.items():
            acc[k] = (v[0] * den, v[1] * den) if gauss else v * den
    for k, v in term.items():
        cur = acc.get(k)
        if cur is None:
            acc[k] = v
        else:
            acc[k] = (cur[0] + v[0], cur[1] + v[1]) if gauss else cur + v


def element_compose_series(f: PowerSeries, a: AlgebraElement, w: Optional[WeightFn] = None,
                   tol: float = 1e-12, max_terms: int = 2_000):
    """c = sum_k f_k (a - c0 eps)^{*k}, truncated by a geometric tail bound.

    Requires q = ||a - c0 eps||_w < radius.  The tail uses the majorant
    C = sup_k |f_k| R^k (exact for polynomial f, Cauchy-estimate shaped for
    analytic f): sum_{k>K} |f_k| q^k <= C (q/R)^{K+1}/(1-q/R).  The
    reciprocal 1/z around c is the Neumann series (1/c) sum_k (-u/c)^{*k},
    each power added as it is.  Returns (element, CompositionCertificate).
    """
    if w is None:
        w = weight_one()
    u = a.add(unit(a.basis, a.backend).scale(complex(f.center)).negate())
    q = _element_weighted_norm(u, w)
    if not q < f.radius:
        raise PreconditionError(
            f"composition outside convergence radius: ||a - c0||_w = {q} >= {f.radius}"
            f" (gap {q - f.radius})")
    ratio = q / f.radius if math.isfinite(f.radius) else 0.0
    C = _exp_majorant(f.radius) if f.kind == "exp" else 1.0 / f.radius
    recip = f.kind == "reciprocal"
    if recip:
        inv_c = 1.0 / f.center
        u = u.scale(inv_c).negate()
        first = unit(a.basis, FLOAT)
    else:
        first = unit(a.basis, a.backend).scale(f.coeff(0))
    acc = {lam.key(): v for lam, v in first.coeffs.items()}
    backend, dropped, touched = first.backend, first.dropped_mass, False
    powers = _ElementPowers(u)  # u is float: f.center is complex
    K = 0
    while True:
        if f.kind == "coeffs":
            # polynomial: sum every term, tail is exactly zero
            if K >= max(len(f.coeff_list) - 1, 0):
                tail = 0.0
                break
        else:
            tail = C * ratio ** (K + 1) / (1.0 - ratio) if ratio > 0 else 0.0
            if tail < tol:
                break
        K += 1
        if K > max_terms:
            raise CapExceededError(f"composition needs more than {max_terms} terms")
        power = powers.step()
        fk = 1 if recip else f.coeff(K)
        if fk != 0:
            cc = coeff_to_complex(fk)
            if backend == EXACT:
                acc = {k: coeff_to_complex(v) for k, v in acc.items()}
                backend = FLOAT
            # acc.add(power) or acc.add(power.scale(fk))
            term = power if recip else {k: nv for k, v in power.items() if (nv := v * cc) != 0}
            _element_accumulate(acc, term, 1, False)
            dropped += powers.dropped * abs(cc)
            touched = True
    elems = powers.elems
    if recip:  # times 1/c
        acc, backend, dropped = {k: v * inv_c for k, v in acc.items()}, FLOAT, dropped * abs(inv_c)
    c = AlgebraElement(a.basis, {elems[k]: v for k, v in acc.items() if not coeff_is_zero(v)},
                       backend, u.truncation if touched else None, dropped, _trusted=True)
    return c, CompositionCertificate(q=q, radius=f.radius, terms_used=K, tail_bound=tail)



# -- log elements by label lookup ----------------------------------------------
# A verbatim copy of `semigroup.log_element` as it was before it factored on
# the basis's SPF table: trial division, then one `log{p}` label lookup per
# prime factor.  The basis's `label_ids` map, gone from the package, is
# inlined as `labels`.

from dirichlet_forge.semigroup import FREE, SemigroupElement  # noqa: E402
from dirichlet_forge.sieves import factorize  # noqa: E402


def label_log_element(basis: SemigroupBasis, n: int) -> SemigroupElement:
    """The element log n over a log-primes basis; n is an int >= 1."""
    if basis.mode != FREE:
        raise ValidationError("log elements need a free basis")
    if type(n) is not int or n < 1:
        raise ValidationError(f"log element needs an int n >= 1, got n = {n!r}")
    labels, primes = {g.label: g.id for g in basis.generators}, basis.key_primes
    exps, keyed_by_n = [], True
    for p, k in factorize(n).items():
        gid = labels.get(f"log{p}")
        if gid is None:
            raise ValidationError(f"prime {p} outside basis range")
        exps.append((gid, k))
        keyed_by_n = keyed_by_n and primes[gid] == p
    exps.sort()
    return SemigroupElement._trusted(basis, tuple(exps), None, n if keyed_by_n else None)


# -- the disk minimum over the whole grid ------------------------------------
# A verbatim copy of `algebra._disk_minimum` from before it skipped the grid
# clusters whose bound shows they cannot hold the minimum: p is evaluated at
# every grid point.  Renamed `full_grid_disk_minimum`; the grid and Horner's
# rule are the package's own, which the pruned scan shares.

import numbers  # noqa: E402

import numpy as np  # noqa: E402

from dirichlet_forge.disk import (  # noqa: E402
    DISK_GRID_CAP, _UNDERFLOW, _UNIT_ROUNDOFF, _disk_grid, _horner)


class DiskMinimum(NamedTuple):
    minimum: float
    argmin: complex
    lower_bound: float
    lipschitz: float
    mesh: float


def full_grid_disk_minimum(terms: dict, step: float, boundary: int) -> DiskMinimum:
    """Minimum of |p(z)| over the disk grid, with a rigorous lower bound.

    p(z) = sum over terms {k: a_k} of a_k z^k.  The grid (`_disk_grid`) is
    the square lattice of step h, with the points outside the disk pulled
    radially onto the unit circle, followed by `boundary` equally spaced
    circle points.  p is evaluated by Horner's rule over the whole grid;
    the first minimum in grid order is returned.

    Every point of the disk lies within h*sqrt(2) of a lattice point (the
    radial pull does not increase that distance), and |p'| <= L =
    sum k |a_k| on the disk.  So with n the degree, A = sum |a_k|, u the
    unit roundoff and gamma_m = m u / (1 - m u),

        lower_bound = min_grid - L h sqrt(2) - rho - tau,
        rho = gamma_(4n+2) (A + L),
        tau = (26n + 38) eta,  eta = 2^-1074.

    rho bounds the floating-point error of complex Horner evaluation on
    |z| <= 1 (at most n complex products, each within sqrt(2) gamma_2 <=
    gamma_3, and n sums, each within u: gamma_(4n) A; Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 5.1), the rounding of |.| and
    of the final subtractions, and the rounding of the grid points and of
    L, both of which enter through L.

    tau is the underflow term of Higham's model (sec. 2.1): at subnormal
    scale a rounded operation also errs by an absolute amount of at most
    eta = 2^-1074, and the relative terms above, L h sqrt(2) and rho can
    all round to 0.  The rounded operations number at most 13n + 19:
    8n + 2 in Horner's rule at a point (n complex products of 6, n + 1
    complex sums of 2), 1 for |.|, 3(n + 1) for L and 2(n + 1) for A (a
    modulus, a product and a sum per term), 5 for rho, 3 for the mesh term
    and 3 for the subtractions.  Each error reaches the bound multiplied by
    less than 2 (by |z| <= 1 + 2u and factors 1 + delta, by h sqrt(2) <=
    sqrt(2) + u, or by gamma_(4n+2)), so tau covers them all.

    A positive lower bound certifies that p has no zero on the closed
    disk.  The zero polynomial (no rounded operation) gives minimum 0 and
    lower bound 0.
    """
    if isinstance(step, bool) or not isinstance(step, numbers.Real) or not 0.0 < step <= 1.0:
        raise ValidationError(f"disk step must be a finite number in (0, 1], got {step!r}")
    if isinstance(boundary, bool) or not isinstance(boundary, numbers.Integral) or boundary < 0:
        raise ValidationError(f"disk boundary must be an int >= 0, got {boundary!r}")
    step, boundary = float(step), int(boundary)
    # 1/step overflows to inf for the smallest subnormal steps; count those exactly
    inv = 1.0 / step
    k = math.ceil(inv if inv < math.inf else 1 / Fraction(step))
    points = (2 * k + 1) ** 2 + boundary
    if points > DISK_GRID_CAP:
        raise CapExceededError(f"disk grid needs {points} points, above "
                               f"DISK_GRID_CAP = {DISK_GRID_CAP}")
    terms = {n: complex(c) for n, c in terms.items()}
    terms = {n: c for n, c in terms.items() if c != 0}
    if not all(cmath.isfinite(c) for c in terms.values()):
        raise ValidationError("disk polynomial coefficients must be finite")
    grid = _disk_grid(step, boundary)
    mods = np.abs(_horner(terms, grid))
    i = int(np.argmin(mods))
    n = max(terms, default=0)
    L = sum(m * abs(c) for m, c in terms.items())
    A = sum(abs(c) for c in terms.values())
    mm = (4 * n + 2) * _UNIT_ROUNDOFF
    rho = mm / (1.0 - mm) * (A + L)
    mesh = step * math.sqrt(2.0)
    tau = (26 * n + 38) * _UNDERFLOW if terms else 0.0
    best = float(mods[i])
    return DiskMinimum(best, complex(grid[i]), best - L * mesh - rho - tau, L, mesh)
