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


def brute_membership(target, gens, bound: int) -> dict | None:
    """Exhaustive search for target = sum nu_i gens[i] with nu in [0, bound]."""
    target = tuple(Fraction(t) for t in target)
    k = len(gens)

    def rec(i, acc):
        if i == k:
            return {} if acc == target else None
        for n in range(bound + 1):
            cand = tuple(a + n * Fraction(g) for a, g in zip(acc, gens[i]))
            if any(c > t for c, t in zip(cand, target)):
                break
            rest = rec(i + 1, cand)
            if rest is not None:
                rest[i] = n
                return rest
        return None

    got = rec(0, tuple(Fraction(0) for _ in target))
    if got is None:
        return None
    return {i: n for i, n in got.items() if n}


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
    from dirichlet_forge.ratlin import canonical_ray, dot, rank
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
                    new.append(canonical_ray(comb))
        rays = _prune_redundant_rays([canonical_ray(r) for r in new])
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
    from dirichlet_forge.algebra import (EXACT, FLOAT, AlgebraElement, _check_bases,
                                         _coerce, _min_trunc)
    from dirichlet_forge.exactnum import coeff_abs, coeff_is_zero
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
    from dirichlet_forge.algebra import (NeumannCertificate, _invert_scalar, unit,
                                         weighted_norm)
    from dirichlet_forge.errors import (CapExceededError, NeumannInapplicableError,
                                        SingularElementError)
    from dirichlet_forge.exactnum import coeff_abs, coeff_is_zero
    from dirichlet_forge.weights import one as weight_one
    if w is None:
        w = weight_one()
    a0 = a.constant_term()
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
    from dirichlet_forge.algebra import AlgebraElement, _invert_scalar
    from dirichlet_forge.errors import SingularElementError
    from dirichlet_forge.exactnum import coeff_is_zero
    a0 = a.constant_term()
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
    C_K = max_{k<=K} |f_k| R^k (exact for polynomial f, Cauchy-estimate
    shaped for analytic f): sum_{k>K} |f_k| q^k <= C_K (q/R)^{K+1}/(1-q/R).
    Returns (element, CompositionCertificate).
    """
    from dirichlet_forge.algebra import (CompositionCertificate, _series_majorant, unit,
                                         weighted_norm)
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
    C = _series_majorant(f)
    acc = unit(a.basis, a.backend).scale(f.coeff(0))
    power = unit(a.basis, a.backend)
    K = 0
    while True:
        if f.finite():
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
        fk = f.coeff(K)
        if fk != 0:
            acc = acc.add(power.scale(fk))
    return acc, CompositionCertificate(q=q, radius=f.radius, terms_used=K, tail_bound=tail)


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
