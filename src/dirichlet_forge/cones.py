"""Exact rational polyhedral cones.

Separation of finite point sets from the origin, dual cones by double
description, extreme rays, minimal faces, and construction of an independent
generating set through a prescribed interior direction.  A ray is a
primitive integer tuple (`ratlin.primitive`) throughout: dual cones are
computed and returned as such rays, with combinatorial adjacency and no LP,
and their set-up (independent subset, start rays, lineality basis) runs on
Python ints too; minimal faces and the basis walk read every decision off
them, and span coordinates are tested on the integer RREF.  Fractions are
made only for the walk's points and the returned vectors and coefficients.
The exact simplex decides `separate`, `is_pointed`, `RationalCone.contains`
and `extreme_rays` (the independent route dual cones are checked against).
Floats appear only at the boundary (measured inputs), where an explicit
interval policy turns them into exact intervals before any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional

from . import ratlin
from .errors import CapExceededError, PreconditionError, ValidationError
from .exactnum import format_frac
from .exact_lp import feasible_geq_one, fourier_motzkin, nonneg_combination
from .ratlin import (dot, independent_subset, integer_inverse, integer_kernel,
                     integer_rref, integer_scaled, primitive, rank, vec)

F = Fraction


def _vecs(vs) -> list:
    return [vec(v) for v in vs]


def _rays(generators) -> list:
    """The distinct primitive rays of the nonzero generators, in order."""
    return list(dict.fromkeys(r for r in map(primitive, generators) if any(r)))


def vec_to_json(v) -> list:
    return [format_frac(x) for x in v]


@dataclass(frozen=True)
class RationalCone:
    """cone(generators) in Q^dim; generators need not be extreme or distinct."""
    dim: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(vec(g) for g in self.generators)
        for g in gens:
            if len(g) != self.dim:
                raise ValidationError("generator dimension mismatch")
        object.__setattr__(self, "generators", gens)

    def contains(self, x) -> bool:
        t, _ = nonneg_combination(self.generators, vec(x))
        return t is not None


# -- separation ---------------------------------------------------------------


@dataclass
class SeparationResult:
    """Exactly one of `functional` / `zero_coefficients` is set.

    functional: rho with rho . x >= 1 for every input point and
    min_i rho . x_i = 1 exactly (canonical scaling).
    zero_coefficients: nonnegative rationals summing to 1 whose combination
    of the input points is the origin.
    """
    functional: Optional[tuple] = None
    zero_coefficients: Optional[tuple] = None

    @property
    def separated(self) -> bool:
        return self.functional is not None

    def to_json(self) -> dict:
        if self.functional is not None:
            return {"separated": True, "functional": vec_to_json(self.functional)}
        return {"separated": False,
                "zero_coefficients": vec_to_json(self.zero_coefficients)}


def separate(points) -> SeparationResult:
    """Strictly separate a finite set from the origin, or certify 0 in conv.

    The two outcomes are mutually exclusive and exhaustive; both carry exact
    certificates.  Raises ValidationError on an empty input (both outcomes
    would be vacuous) and on points of different lengths.
    """
    pts = _vecs(points)
    if not pts:
        raise ValidationError("separation needs at least one point")
    if len({len(p) for p in pts}) > 1:
        raise ValidationError("malformed point set: points have different lengths "
                              f"{sorted({len(p) for p in pts})}")
    if any(all(x == 0 for x in p) for p in pts):
        # the origin itself is among the points: trivially 0 in conv
        coeffs = [F(1) if all(x == 0 for x in p) else F(0) for p in pts]
        total = sum(coeffs)
        return SeparationResult(zero_coefficients=tuple(ci / total for ci in coeffs))
    rho, coeffs = feasible_geq_one(pts)
    if rho is not None:
        return SeparationResult(functional=tuple(rho))
    return SeparationResult(zero_coefficients=tuple(coeffs))


def separate_cross_checked(points) -> SeparationResult:
    """separate() with an independent Fourier-Motzkin confirmation (dim <= 3)."""
    res = separate(points)
    pts = _vecs(points)
    d = len(pts[0])
    if d <= 3:
        A = [[-x for x in p] for p in pts]
        b = [F(-1)] * len(pts)
        ok, _ = fourier_motzkin(A, b)
        if ok != res.separated:
            raise AssertionError(
                "simplex and Fourier-Motzkin disagree on separability")
    return res


# -- dual cones ---------------------------------------------------------------


@dataclass
class DualConeResult:
    dim: int
    rays: tuple          # generating rays of {y : y . g >= 0 for all g} as
                         # primitive int tuples: the pointed ones, then +- a
                         # lineality basis (dual_cone)
    lineality_dim: int   # dimension of the contained linear subspace

    def to_json(self) -> dict:
        return {"dim": self.dim, "rays": [vec_to_json(r) for r in self.rays],
                "lineality_dim": self.lineality_dim}


# Most rays dual_cone may hold during one cut.  The count of a cone's dual
# rays can grow like m^(floor(d/2)) in m generators, so a larger list raises
# CapExceededError with the partial counts.  Override by assignment.
DD_RAY_CAP = 100_000


def dual_cone(generators, dim: Optional[int] = None) -> DualConeResult:
    """{y : y . g >= 0 for all generators g} by the double-description method.

    The dual is (its part inside V = span(generators)) + ker(generators), and
    the part inside V is pointed.  With B an independent subset of the
    primitive generators, r = |B| = dim V, it starts from the simplicial cone
    {y in V : B y >= 0}, whose rays are the columns of B^T adj(B B^T), and
    cuts one halfspace per remaining generator (Motzkin et al. 1953;
    Fukuda-Prodon 1996).  Rays are primitive integer tuples and zero sets
    are bitmasks over the generators.  A (positive, negative) ray pair is
    combined only when it is adjacent: the pair has at least r - 2 common
    zeros, and no third ray's zero set contains their common zero set.  The
    lineality basis is read off the integer RREF of B.  No LP runs, and no
    Fraction is made.

    rays: the extreme rays of the part inside V as primitive int tuples,
    sorted, then +- a primitive basis of the lineality space
    ker(generators), sorted.  When the generators span Q^dim the dual is
    pointed and the rays are exactly its extreme rays.  More than DD_RAY_CAP
    rays raise CapExceededError.
    """
    gens = [primitive(g) for g in generators]
    if dim is None:
        if not gens:
            raise ValidationError("need generators or an explicit dimension")
        dim = len(gens[0])
    elif isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise ValidationError(f"dimension must be a nonnegative integer, not {dim!r}")
    for g in gens:
        if len(g) != dim:
            raise ValidationError("generator dimension mismatch")
    canon = list(dict.fromkeys(g for g in gens if any(g)))
    basis = independent_subset(canon)
    brows = [canon[i] for i in basis]
    if brows:
        lineality = [primitive(x) for x in integer_kernel(brows)[0]]
        pointed = _double_description(canon, basis, _start_rays(brows))
    else:
        lineality = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
        pointed = []
    rays = sorted(pointed) + sorted(lineality + [tuple(-x for x in v) for v in lineality])
    return DualConeResult(dim=dim, rays=tuple(rays), lineality_dim=len(lineality))


def _start_rays(brows):
    """The primitive columns of B^T adj(B B^T) for the independent int rows
    B: the rays of {y in span(B) : B y >= 0}, the j-th vanishing on every
    row of B but the j-th.  `integer_inverse` of the Gram matrix G = B B^T
    gives s G^-1 with s > 0, a positive multiple of adj(G) (G is positive
    definite), so these are the primitive columns of B^T (B B^T)^-1."""
    A, _ = integer_inverse([[dot(a, b) for b in brows] for a in brows])
    return [primitive([sum(row[j] * b[k] for row, b in zip(A, brows))
                       for k in range(len(brows[0]))])
            for j in range(len(brows))]


def _pointed_rays(dual: DualConeResult) -> tuple:
    """The rays of a `dual_cone` result before its +- lineality basis."""
    return dual.rays[:len(dual.rays) - 2 * dual.lineality_dim]


def _double_description(gens, basis, start):
    """Extreme rays of {y in span(gens) : y . g >= 0 for every g}.

    gens: primitive integer tuples; basis: indices of an independent subset B
    spanning them; start: the primitive rays of {y in span(B) : B y >= 0},
    start[j] vanishing on every basis generator but the j-th.
    """
    r = len(basis)
    cap = DD_RAY_CAP
    rays = [(y, sum(1 << i for i in basis if i != b)) for y, b in zip(start, basis)]
    done, pairs = r, 0
    if len(rays) > cap:
        raise CapExceededError(_cap_message(cap, done, len(gens), len(rays), pairs))
    skip = set(basis)
    for k, g in enumerate(gens):
        if k in skip:
            continue
        bit = 1 << k
        pos, neg, new = [], [], []
        for y, z in rays:
            s = sum(a * b for a, b in zip(g, y))
            if s > 0:
                pos.append((y, z, s))
                new.append((y, z))
            elif s < 0:
                neg.append((y, z, s))
            else:
                new.append((y, z | bit))
        zsets = [z for _, z in rays]
        for yp, zp, sp in pos:
            for yn, zn, sn in neg:
                pairs += 1
                common = zp & zn
                if common.bit_count() < r - 2 or not _adjacent(common, zsets):
                    continue
                if len(new) >= cap:
                    raise CapExceededError(
                        _cap_message(cap, done, len(gens), len(new), pairs))
                w = [sp * a - sn * b for a, b in zip(yn, yp)]
                c = gcd(*w)
                new.append((tuple(a // c for a in w), common | bit))
        rays = new
        done += 1
    return [y for y, _ in rays]


def _adjacent(common, zsets):
    """True when only the pair's own two zero sets contain `common`."""
    hits = 0
    for z in zsets:
        if z & common == common:
            hits += 1
            if hits > 2:
                return False
    return True


def _cap_message(cap, done, total, held, pairs):
    return (f"dual cone exceeds DD_RAY_CAP = {cap} rays: {done} of {total} "
            f"generators processed, {held} rays held, {pairs} pairs tested")


# -- extreme rays and pointedness ---------------------------------------------


def conv_contains_zero(points):
    """(True, coeffs) if 0 is a convex combination of the points, else (False, rho)."""
    res = separate(points)
    if res.separated:
        return False, res.functional
    return True, res.zero_coefficients


def is_pointed(generators) -> bool:
    """cone(generators) contains no line iff 0 is outside conv of the
    (nonzero, primitive) generators."""
    gens = _rays(generators)
    if not gens:
        return True
    inside, _ = conv_contains_zero(gens)
    return not inside


def extreme_rays(generators):
    """Extreme rays of a pointed cone, as sorted primitive int tuples.

    Raises PreconditionError when the cone contains a line (extreme rays do
    not generate it then).  A ray is extreme iff it is not a nonnegative
    combination of the other rays.
    """
    gens = _rays(generators)
    if not is_pointed(gens):
        raise PreconditionError("cone contains a line; no extreme-ray description")
    return sorted(g for i, g in enumerate(gens)
                  if nonneg_combination(gens[:i] + gens[i + 1:], g)[0] is None)


def extreme_rays_from_dual(generators, dual: DualConeResult):
    """`extreme_rays` of a pointed cone, read off its dual cone.

    dual: `dual_cone(generators)`.  Its pointed rays (all but the last
    2 * lineality_dim) are the facet normals of the cone inside its span,
    of dimension r.  A primitive generator is extreme iff the pointed rays
    vanishing on it have rank r - 1.  No LP runs; pointedness is the
    caller's precondition (`extreme_rays` checks it, this does not).
    """
    gens = _rays(generators)
    pointed = _pointed_rays(dual)
    r = rank(gens)
    return sorted(g for g in gens
                  if rank([y for y in pointed if not dot(y, g)]) == r - 1)


# -- minimal faces ------------------------------------------------------------

# Interval policy for float inputs: a float coordinate x stands for the exact
# interval [Fraction(x) - delta, Fraction(x) + delta].  A facet evaluation
# whose interval straddles zero at the loose rung but not the tight one is
# ambiguous; the policy resolves ambiguity toward "not tight", i.e. the
# larger face, and flags it.
TIGHT_RUNG = F(1, 10 ** 12)
LOOSE_RUNG = F(1, 10 ** 7)


def tight_normals(normals, x):
    """(tight, n_ambiguous): the int normals n with |n . x| <= R sum|n|
    (max|x| + 1) at R = TIGHT_RUNG, and the count of the others that pass at
    LOOSE_RUNG.  The float point x is read exactly as w / den
    (`integer_scaled`), so the test runs on ints:
    |n . w| R.denominator <= sum|n| (max|w| + den) R.numerator."""
    w, den = integer_scaled(x)
    scale = max(map(abs, w), default=0) + den
    tight, ambiguous = [], 0
    for nv in normals:
        val = abs(dot(nv, w))
        bound = sum(map(abs, nv)) * scale
        if val * TIGHT_RUNG.denominator <= bound * TIGHT_RUNG.numerator:
            tight.append(nv)
        elif val * LOOSE_RUNG.denominator <= bound * LOOSE_RUNG.numerator:
            ambiguous += 1  # resolved toward non-tight: the larger face
    return tight, ambiguous


@dataclass
class FaceResult:
    generator_indices: tuple    # indices into the input generator list
    generators: tuple           # the corresponding vectors
    tight_normals: tuple        # facet functionals vanishing on the face
    ambiguous: bool = False     # float policy had to resolve a borderline facet
    note: str = ""


def minimal_face_containing(cone: RationalCone, x, exact: Optional[bool] = None) -> FaceResult:
    """Smallest face of the cone containing x, read off its dual cone.

    The face is generated by the generators on which every dual ray (+-
    lineality rays included) tight at x vanishes; x lies in its relative
    interior.  Exact rational x: a ray is tight when it is 0 at x, and a
    negative value means x is outside the cone.  Float x (exact=False or
    float entries): `tight_normals`, the two-rung policy above.
    """
    gens = list(cone.generators)
    if exact is None:
        exact = not any(isinstance(v, float) for v in x)
    dual = dual_cone(gens, cone.dim)
    ambiguous = 0
    if exact:
        xv = vec(x)
        if all(v == 0 for v in xv):
            return FaceResult((), (), (), note="x = 0: the face is the origin")
        vals = [dot(nv, xv) for nv in dual.rays]
        if any(v < 0 for v in vals):
            raise PreconditionError("x is not in the cone")
        tight = [nv for nv, v in zip(dual.rays, vals) if v == 0]
    else:
        tight, ambiguous = tight_normals(dual.rays, [float(v) for v in x])
    idx = tuple(i for i, g in enumerate(gens)
                if all(dot(nv, g) == 0 for nv in tight))
    return FaceResult(idx, tuple(gens[i] for i in idx), tuple(tight),
                      ambiguous=ambiguous > 0,
                      note="interval policy on float input" if ambiguous else "")


# -- independent generating set through a point -------------------------------


@dataclass
class ConeBasisResult:
    vectors: tuple        # Q-linearly independent, all inside the cone
    coefficients: tuple   # eta = sum coefficients_i vectors_i, all >= 0
    extended: tuple       # indices of vectors added by rank completion


def _span_coordinates(gens):
    """(basis rows of span, forward map vec -> coords, inverse map coords -> vec).

    The rows are the RREF of gens, so v's coordinates are its pivot entries;
    the forward map gives None when they do not rebuild v (v outside the span).
    Both maps run on ints: with the integer RREF (M, d) and v scaled to ints
    w, v is in the span iff w d == sum_i w[p_i] M_i, checked off the pivots;
    coordinates c = w / den rebuild sum_i w_i M_i / (den d), one Fraction
    per entry.
    """
    M, pivots, d = integer_rref(gens)
    basis_rows = [tuple(F(x, d) for x in row) for row in M]
    n = len(M[0])
    free = [j for j in range(n) if j not in pivots]
    columns = list(zip(*M))

    def to_coords(v):
        w, den = integer_scaled(v)
        if len(w) != n:
            raise ValueError("dimension mismatch")
        cs = [w[p] for p in pivots]
        for j in free:
            if w[j] * d != sum(c * row[j] for c, row in zip(cs, M)):
                return None
        return tuple(F(c, den) for c in cs)

    def from_coords(cs):
        w, den = integer_scaled(cs)
        return tuple(F(sum(map(mul, w, col)), den * d) for col in columns)

    return basis_rows, to_coords, from_coords


def basis_through_point(generators, eta, first=None) -> ConeBasisResult:
    """Independent vectors from the cone whose nonnegative span contains eta.

    Walk: scale a starting generator onto the slice {y . chi = eta . chi}
    (chi the sum of the pointed dual rays), move along the segment toward eta
    and past it until a facet binds, split eta between the start vector and
    the facet point, and recurse inside the facet.  The resulting vectors are
    completed to a basis of span(generators) by greedy extreme-ray extension.
    `first` requests a specific cone vector as the starting b_1 (used when a
    distinguished direction must lead the basis).  The walk runs in exact
    coordinates of the span, of dimension ell, and the dual cone of each cone
    met answers every question, with no LP: the cone is pointed when the
    pointed dual rays have rank ell, and a point is in it when every dual ray
    is >= 0 there.
    """
    gens = [g for g in _vecs(generators) if any(x != 0 for x in g)]
    if not gens:
        raise ValidationError("no nonzero generators")

    # work in exact coordinates of span(generators)
    basis_rows, to_coords, from_coords = _span_coordinates(gens)
    ell = len(basis_rows)
    gcs = [to_coords(g) for g in gens]
    top = dual_cone(gcs, ell)
    if rank(_pointed_rays(top)) < ell:
        raise PreconditionError("cone contains a line")

    def inside(dual, y):
        return y is not None and all(dot(nv, y) >= 0 for nv in dual.rays)

    eta_c = to_coords(eta)
    if not inside(top, eta_c):
        raise PreconditionError("eta is not in the cone")
    first_c = None
    if first is not None:
        first_c = to_coords(first)
        if first_c is None:
            raise PreconditionError("requested leading vector outside the span")

    def walk(gcs_cur, eta_cur, lead, dual):
        """Returns a list of independent coordinate vectors in cone(gcs_cur)
        whose nonnegative span contains eta_cur; dual is dual_cone(gcs_cur),
        or None to compute it here."""
        gcs_cur = _rays(gcs_cur)
        if all(x == 0 for x in eta_cur):
            return []
        if len(gcs_cur) == 1 or rank(gcs_cur) == 1:
            return [gcs_cur[0]]
        dual = dual or dual_cone(gcs_cur, ell)
        # strictly positive on the cone: the pointed rays span its span
        chi = [sum(c) for c in zip(*_pointed_rays(dual))]
        if lead is not None and any(x != 0 for x in lead) and inside(dual, lead):
            b1 = tuple(lead)
        else:
            b1 = gcs_cur[0]  # deterministic: lowest-index generator
        # scale b1 onto the slice {y . chi = eta . chi}; chi and a generator
        # b1 are ints, so the scale is made a Fraction explicitly
        scale = F(dot(eta_cur, chi), dot(b1, chi))
        b1k = tuple(scale * x for x in b1)
        direction = tuple(e - b for e, b in zip(eta_cur, b1k))
        if all(x == 0 for x in direction):
            return [b1]  # eta is on the b1 ray
        # the dual rays are the supporting functionals that bind the segment
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
        sub = walk(face, d_star, None, None)
        if t_star == 1:
            # eta itself lies on the facet: descend without consuming b1
            return sub
        # nstar vanishes on every face vector but is positive on b1, so b1 is
        # automatically independent of sub
        return [b1] + sub

    vecs_c = walk(gcs, eta_c, first_c, top)
    # complete to a basis of the span by extreme rays, greedily
    k = len(vecs_c)
    vecs_c += extreme_rays_from_dual(gcs, top) if k < ell else []
    keep = independent_subset(vecs_c)
    if keep[:k] != list(range(k)):
        raise AssertionError("walk produced dependent vectors")
    vecs_c = [vecs_c[i] for i in keep]
    # eta coefficients over the final independent set (unique)
    rows = [[vecs_c[i][j] for i in range(len(vecs_c))] for j in range(ell)]
    coeff = ratlin.solve(rows, list(eta_c))
    if coeff is None or any(c < 0 for c in coeff):
        raise AssertionError("eta left the cone of the walk output")
    vecs = tuple(from_coords(v) for v in vecs_c)
    return ConeBasisResult(vectors=vecs, coefficients=tuple(coeff),
                           extended=tuple(range(k, len(keep))))
