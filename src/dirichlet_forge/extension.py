"""Extension of partially prescribed bounded characters.

Input: exact rational generators gamma_0..gamma_{k-1} of an additive
semigroup in [0, inf)^d and prescribed values psi(gamma_i), |psi| <= 1, on a
subset of the indices.  Output: a multiplicative extension phi to the whole
monoid, presented through an auxiliary free basis b_1..b_d over which every
gamma_i has nonnegative integer exponents, so phi is determined by its values
on the b_j.

The construction splits psi into modulus, zero set and phase data:

  * a linear functional rho with rho . gamma_i = -log|psi_i| on the
    prescribed nonzero values (min-norm fit, after exact kernel-relation
    consistency checks),
  * an exactly rational functional theta >= 0 on the cone that vanishes on
    the span of the nonzero prescribed generators and is >= 1 on the
    prescribed zeros (LP feasibility in exact quotient coordinates); where
    rho is negative on a generator on which theta vanishes, one exact LP
    moves rho, keeping its prescribed values, to maximise its least value
    there,
  * zeta = rho + c theta with the smallest integer c >= 0 making zeta
    nonnegative on every generator,
  * a basis of dual-cone vectors walked, with theta leading, through zeta
    itself: its float values read exactly and projected onto the span of
    its minimal face; the basis's inverse-transpose supplies the auxiliary
    basis.

phi(b_j) = exp(-zeta(b_j)) [theta(b_j) = 0] exp(i omega_j) with the phases
omega solving E omega = t mod 2 pi exactly over the integer exponent matrix E:
the 2 pi multiples come from an LLL-reduced basis of E's integer left kernel
(`ratlin.integer_left_kernel`), and only an inconsistent system is flagged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ValidationError
from .ratlin import (dot, independent_subset, integer_inverse, integer_kernel,
                     integer_left_kernel, integer_scaled, kernel_basis,
                     reduce_modulo_image, solve, vec)
from .exact_lp import feasible_functional, max_coordinate
from .exactnum import _complex_value
from .cones import (_span_coordinates, basis_through_point, dual_cone,
                    extreme_rays_from_dual, tight_normals, vec_to_json)

F = Fraction

MODULUS_RELATION_TOL = 1e-9
PHASE_TOL = 1e-8
TWO_PI = 2.0 * math.pi
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class CharacterExtensionProblem:
    dim: int
    gamma: tuple          # exact rational vectors, all in [0, inf)^dim
    prescribed: dict      # generator index -> complex value, |value| <= 1

    def __post_init__(self):
        # nonzero and coordinatewise >= 0: the coordinate sum is positive on
        # every generator, so the cone is pointed
        gs = tuple(vec(g) for g in self.gamma)
        if not gs:
            raise ValidationError("no generators")
        for g in gs:
            if len(g) != self.dim:
                raise ValidationError("generator length disagrees with dim")
            if any(x < 0 for x in g):
                raise ValidationError("generators must be coordinatewise nonnegative")
            if all(x == 0 for x in g):
                raise ValidationError("zero generator not allowed")
        object.__setattr__(self, "gamma", gs)
        pres = {}
        for i, v in self.prescribed.items():
            i = int(i)
            if not 0 <= i < len(gs):
                raise ValidationError(f"prescribed index {i} out of range")
            z = complex(_complex_value(v))
            if not cmath.isfinite(z):
                raise ValidationError(f"prescribed value at {i} is not finite")
            if abs(z) > 1.0 + 1e-9:
                raise ValidationError(f"prescribed value at {i} has modulus > 1")
            pres[i] = z
        object.__setattr__(self, "prescribed", pres)

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "generators": [vec_to_json(g) for g in self.gamma],
                "prescribed": {str(i): {"re": v.real, "im": v.imag}
                               for i, v in sorted(self.prescribed.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "CharacterExtensionProblem":
        try:
            return cls(int(data["dim"]), tuple(map(vec, data["generators"])),
                       data.get("prescribed", {}))
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as e:  # a list has no .items
            raise ValidationError(f"malformed extension problem JSON: {e}") from e


def polar_split(prescribed: dict):
    """(moduli, phases, zero indices); phases only where the value is nonzero."""
    moduli, phases, zeros = {}, {}, []
    for i, v in sorted(prescribed.items()):
        m = abs(v)
        if m == 0.0:
            zeros.append(i)
        else:
            moduli[i] = m
            phases[i] = cmath.phase(v)
    return moduli, phases, tuple(zeros)


@dataclass(frozen=True)
class ModulusFit:
    functional: tuple           # floats, working dimension
    values: tuple               # functional . gamma_i for every generator
    nonneg_on_prescribed: bool


def modulus_functional(gamma, moduli) -> ModulusFit:
    """Min-norm linear functional rho with rho . gamma_i = -log moduli[i].

    Multiplicativity forces every exact rational kernel relation
    sum kappa_i gamma_i = 0 among the constrained generators to be matched by
    the logarithms; a violation beyond MODULUS_RELATION_TOL means no
    multiplicative extension matches the prescribed moduli.
    """
    d = len(gamma[0])
    idx = sorted(moduli)
    if not idx:
        zero = tuple(0.0 for _ in range(d))
        return ModulusFit(zero, tuple(0.0 for _ in gamma), True)
    rows = [gamma[i] for i in idx]
    rhs = [-math.log(moduli[i]) for i in idx]
    # kernel of the matrix whose columns are the constrained generators
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(d)]
    for kappa in kernel_basis(cols):
        s = sum(float(k) * r for k, r in zip(kappa, rhs))
        scale = 1.0 + sum(abs(float(k) * r) for k, r in zip(kappa, rhs))
        if abs(s) > MODULUS_RELATION_TOL * scale:
            raise PreconditionError(
                "prescribed moduli are inconsistent with an exact rational "
                f"relation among the generators (violation {abs(s):.3e})")
    A = np.array([[float(x) for x in r] for r in rows], dtype=float)
    b = np.array(rhs, dtype=float)
    sol, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    functional = tuple(float(x) for x in sol)
    values = tuple(sum(f * float(x) for f, x in zip(functional, g)) for g in gamma)
    nonneg = all(values[i] >= -MODULUS_RELATION_TOL * (1.0 + abs(rhs[j]))
                 for j, i in enumerate(idx))
    return ModulusFit(functional, values, nonneg)


def _shift_modulus_nonnegative(fit: ModulusFit, gamma, fixed_idx, flat_idx) -> ModulusFit:
    """The modulus fit moved along functionals that vanish on gamma[fixed_idx]
    (nonempty), so its values there stay put, to maximise s, its least value
    on gamma[flat_idx], with s capped at 0; unmoved when no move reaches
    s >= -BOUND_TOL, the allowance `combine_zeta` grants.

    One exact LP through `max_coordinate`: with U a basis of those
    functionals (`integer_kernel`'s ints: their positive scale only rescales
    t), v_j the current values and t = t+ - t-, it maximises e in
    [0, BOUND_TOL] subject to v_j + t . (U gamma_j) - w_j = e - BOUND_TOL
    with slacks w_j >= 0, so s = e - BOUND_TOL.  The LP is infeasible
    exactly when no move is accepted, and the maximum keeps an accepted
    move off the relaxed bound when a better one exists.
    """
    U = integer_kernel([list(gamma[i]) for i in fixed_idx])[0]
    n = len(flat_idx)
    lifts = [[dot(u, gamma[j]) for j in flat_idx] for u in U]
    cols = (lifts + [[-x for x in col] for col in lifts]
            + [[-int(i == k) for i in range(n)] for k in range(n)] + [[-1] * n])
    tol = F(BOUND_TOL)
    e, sol = max_coordinate(cols, [-F(fit.values[j]) - tol for j in flat_idx],
                            len(cols) - 1, cap=tol)
    if e is None:
        return fit
    t = [a - b for a, b in zip(sol[:len(U)], sol[len(U):2 * len(U)])]
    functional = tuple(f + float(sum(tl * u[k] for tl, u in zip(t, U)))
                       for k, f in enumerate(fit.functional))
    values = tuple(sum(f * float(x) for f, x in zip(functional, g)) for g in gamma)
    return replace(fit, functional=functional, values=values)


@dataclass(frozen=True)
class VanishingFit:
    functional: tuple       # exact rational, working dimension
    values: tuple           # exact values on every generator


def zero_set_separation(gamma, positive_idx, zero_idx) -> VanishingFit:
    """Exact functional theta: 0 on span(gamma[positive_idx]), >= 1 on
    gamma[zero_idx], >= 0 on all other generators.

    Works in exact quotient coordinates modulo the span of the positive set,
    so the vanishing conditions hold identically, and solves one LP
    feasibility problem for the remaining sign conditions.  The quotient
    coordinates are int functionals (`integer_kernel`, one positive scale),
    and theta has the LP's minimum of exactly 1 on the prescribed zeros.
    """
    d = len(gamma[0])
    pos_rows = [list(gamma[i]) for i in sorted(positive_idx)]
    if pos_rows:
        quot = integer_kernel(pos_rows)[0]  # functionals vanishing on the span
    else:
        quot = [[int(j == i) for j in range(d)] for i in range(d)]
    proj = {i: tuple(dot(q, gamma[i]) for q in quot) for i in range(len(gamma))}

    strict = sorted(zero_idx)
    for i in strict:
        if all(x == 0 for x in proj[i]):
            raise PreconditionError(
                f"generator {i} is prescribed zero but lies in the span of the "
                "nonzero prescribed generators; no multiplicative extension "
                "separates it")
    if not strict:
        theta = tuple(F(0) for _ in range(d))
        return VanishingFit(theta, tuple(F(0) for _ in gamma))
    weak = [i for i in range(len(gamma))
            if i not in strict and any(x != 0 for x in proj[i])]
    chi, cert = feasible_functional([proj[i] for i in strict],
                                    [proj[i] for i in weak])
    if chi is None:
        raise PreconditionError(
            "prescribed zero set admits no nonnegative vanishing functional; "
            "a convex combination of the required-positive generators cancels "
            "against the rest")
    theta = tuple(dot(chi, col) for col in zip(*quot))
    return VanishingFit(theta, tuple(dot(theta, g) for g in gamma))


def combine_zeta(rho_values, theta_values) -> int:
    """The smallest integer c >= 0 with rho + c theta >= -BOUND_TOL on every
    generator.  Raises when theta vanishes where rho < -BOUND_TOL, since no
    multiple can repair such a generator; `extend_character` has already
    moved rho as far as one exact LP can there."""
    bad = [i for i, (rv, tv) in enumerate(zip(rho_values, theta_values))
           if tv == 0 and rv < -BOUND_TOL]
    if bad:
        raise PreconditionError(
            "prescribed moduli admit no bounded extension: the modulus "
            f"functional is negative on generators {bad} where the vanishing "
            "functional is zero")
    need = 0
    for rv, tv in zip(rho_values, theta_values):
        if tv > 0 and rv < 0:
            need = max(need, math.ceil(-rv / float(tv) - 1e-12))
    return need


@dataclass(frozen=True)
class DualBasisResult:
    functionals: tuple       # exact rational rows, integer-valued on the generators
    basis_vectors: tuple     # exact rational dual basis columns
    exponents: tuple         # per generator: tuple of nonnegative ints
    theta_on_basis: tuple    # exact rational values
    zeta_on_basis: tuple     # floats
    flags: tuple


def _integer_rescale(rows, gamma):
    """(scaled, exponents): each row times the smallest positive integer that
    makes its values on the generators integers, and per generator those
    nonnegative int values.  Each value is one integer product over the
    common denominators of the row and the generator."""
    gam = [integer_scaled(g) for g in gamma]
    scaled, values = [], []
    for row in rows:
        R, rden = integer_scaled(row)
        prods = [(sum(a * b for a, b in zip(R, G)), rden * gden) for G, gden in gam]
        L = math.lcm(*(den // math.gcd(num, den) for num, den in prods))
        scaled.append(tuple(x * L for x in row))
        values.append([num * L // den for num, den in prods])
    exponents = tuple(zip(*values))
    assert all(e >= 0 for ex in exponents for e in ex)
    return tuple(scaled), exponents


def build_dual_basis(gamma, theta, zeta_vec) -> DualBasisResult:
    """Basis of dual-cone vectors (theta leading when nonzero), dualized.

    zeta's floats are read exactly.  The minimal face of the dual cone
    containing zeta is located through the primal extreme rays zeta
    annihilates (`cones.tight_normals`), and zeta is projected onto the span
    of that face, one exact solve of the face rays' Gram system; while the
    projection is negative on a primal ray (zeta may leave the cone by
    rounding), that ray counts as tight and the face shrinks.  The
    projection is walked to an independent subset
    (`cones.basis_through_point`), and the completed set
    is rescaled so every generator gets integer exponents over the inverse
    basis.  gamma must span a pointed cone (it does when its generators are
    nonzero and coordinatewise >= 0, as `CharacterExtensionProblem`
    checks); its extreme rays are read off the dual cone, with no LP.
    """
    d = len(gamma[0])
    flags = []
    dres = dual_cone(gamma, dim=d)
    prim = extreme_rays_from_dual(gamma, dres)
    dual = dres.rays

    tight = tight_normals(prim, zeta_vec)[0]
    # zeta read exactly, as ints w up to a positive scale (the walk needs
    # only its direction), and projected onto the span of its face: one
    # exact solve of the face rays' Gram system.  zeta may leave the dual
    # cone by rounding, within combine_zeta's BOUND_TOL, and so may its
    # projection; a primal ray where the projection is negative is tight
    # too, and the face shrinks until the projection lies in it
    w, _ = integer_scaled(zeta_vec)
    while True:
        face_rays = [y for y in dual if all(dot(y, r) == 0 for r in tight)]
        if not face_rays:
            break
        c = solve([[dot(a, b) for b in face_rays] for a in face_rays],
                  [dot(a, w) for a in face_rays])
        eta = tuple(dot(c, col) for col in zip(*face_rays))
        negative = [r for r in prim if dot(r, eta) < 0]
        if not negative:
            break
        tight += negative
    # ambiguous rays the face-shrinking left non-tight: the larger face
    ambiguous = tight_normals([r for r in prim if r not in tight], zeta_vec)[1]
    if ambiguous:
        flags.append("ambiguous tightness on %d extreme rays; treated as "
                     "non-tight (larger face)" % ambiguous)

    theta_nonzero = any(x != 0 for x in theta)
    walk_vectors = []
    if face_rays:
        lead = theta if theta_nonzero and all(dot(theta, r) == 0 for r in tight) else None
        gens = list(face_rays) + ([theta] if lead is not None else [])
        walk_vectors = list(basis_through_point(gens, eta, first=lead).vectors)

    order = ([theta] if theta_nonzero else []) + walk_vectors + list(dual)
    uniq = list(dict.fromkeys(map(tuple, order)))
    chosen = independent_subset(uniq)
    bstar = [uniq[i] for i in chosen]
    dropped = [v for i, v in enumerate(uniq) if i not in chosen]
    if theta_nonzero and walk_vectors and tuple(theta) != walk_vectors[0] \
            and any(v in dropped for v in walk_vectors):
        flags.append("vanishing functional displaced a walk vector in the basis")
    if len(bstar) != d:
        raise PreconditionError(
            "dual cone is not full-dimensional; generators span a degenerate cone")

    scaled, exponents = _integer_rescale(bstar, gamma)
    A, s = integer_inverse(scaled)
    basis_vectors = tuple(tuple(F(A[j][i], s) for j in range(d)) for i in range(d))

    theta_on_basis = tuple(dot(theta, b) for b in basis_vectors)
    zeta_on_basis = tuple(sum(z * float(x) for z, x in zip(zeta_vec, b))
                          for b in basis_vectors)
    return DualBasisResult(scaled, basis_vectors, exponents,
                           theta_on_basis, zeta_on_basis, tuple(flags))


def _fit_phases(expo_rows, targets, nbasis: int):
    """(omega, inconsistent): omega (length nbasis) with
    expo_rows[i] . omega = targets[i] mod 2 pi, exactly up to rounding.

    In turns, tau = targets / 2 pi, the system E w = tau + m has a solution
    w for some integer m exactly when K tau is an integer vector k, K an
    LLL-reduced basis of the integer left kernel of E.  A row of K missing
    its integer by more than PHASE_TOL * |K_i|_1 * max(1/2, max|tau|) marks
    the system inconsistent; the floor 1/2, the bound of a wrapped phase,
    keeps the test absolute when every target wrapped to near 0, since their
    rounding errors come from the angles before wrapping.  Then m solves
    K m = -k, reduced modulo E Z^n by exact rounding, and omega is the
    least-squares solution of E omega = targets + 2 pi m over all rows,
    taken mod 2 pi.  A full-row-rank E has no K, so m = 0.
    """
    if not expo_rows:
        return [0.0] * nbasis, False
    E = [[int(e) for e in row] for row in expo_rows]
    tau = [t / TWO_PI for t in targets]
    scale = max(0.5, max(abs(x) for x in tau))
    K, A = integer_left_kernel(E)
    k, inconsistent = [], False
    for row in K:
        s = sum(a * x for a, x in zip(row, tau))
        k.append(round(s))
        inconsistent |= abs(s - k[-1]) > PHASE_TOL * sum(map(abs, row)) * scale
    m = reduce_modulo_image(E, [-sum(a * x for a, x in zip(arow, k)) for arow in A])
    rhs = np.array(targets, dtype=float) + TWO_PI * np.array(m, dtype=float)
    omega = np.linalg.lstsq(np.array(E, dtype=float), rhs, rcond=None)[0]
    return [math.remainder(float(x), TWO_PI) for x in omega], inconsistent


@dataclass(frozen=True)
class CharacterExtensionResult:
    working_dim: int
    basis_vectors: tuple         # auxiliary basis, ambient exact rational vectors
    dual_functionals: tuple      # exact rows over the working coordinates
    exponents: tuple             # per generator: nonnegative integer exponents
    phi_basis: tuple             # complex values on the auxiliary basis
    phi_gamma: tuple             # induced values on every generator
    zeta_basis: tuple
    theta_basis: tuple
    c: int
    prescribed_residual: float
    modulus: ModulusFit
    flags: tuple

    def to_json(self) -> dict:
        return {
            "working_dim": self.working_dim,
            "basis_vectors": [vec_to_json(b) for b in self.basis_vectors],
            "dual_functionals": [vec_to_json(r) for r in self.dual_functionals],
            "exponents": [list(e) for e in self.exponents],
            "phi_basis": [{"re": z.real, "im": z.imag} for z in self.phi_basis],
            "phi_gamma": [{"re": z.real, "im": z.imag} for z in self.phi_gamma],
            "zeta_basis": list(self.zeta_basis),
            "theta_basis": vec_to_json(self.theta_basis),
            "c": self.c,
            "prescribed_residual": self.prescribed_residual,
            "flags": list(self.flags),
        }


def extend_character(problem: CharacterExtensionProblem) -> CharacterExtensionResult:
    flags = []
    gamma0 = problem.gamma
    span_rows, to_coords, from_coords = _span_coordinates([list(g) for g in gamma0])
    d = len(span_rows)
    if d < problem.dim:
        flags.append(f"re-coordinatized to the {d}-dimensional span of the generators")
    gamma = [to_coords(g) for g in gamma0]

    moduli, phases, zeros = polar_split(problem.prescribed)
    positive_idx = sorted(moduli)

    mfit = modulus_functional(gamma, moduli)
    if not mfit.nonneg_on_prescribed:
        flags.append("modulus functional dips below zero on a prescribed generator")

    vfit = zero_set_separation(gamma, positive_idx, zeros)
    # no multiple of theta lifts rho where theta vanishes off the prescribed set
    flat = [i for i in range(len(gamma)) if i not in moduli and vfit.values[i] == 0]
    if any(mfit.values[i] < -BOUND_TOL for i in flat):
        mfit = _shift_modulus_nonnegative(mfit, gamma, positive_idx, flat)

    c = combine_zeta(mfit.values, vfit.values)
    zeta_vec = tuple(r + c * float(t) for r, t in zip(mfit.functional, vfit.functional))

    dres = build_dual_basis(gamma, vfit.functional, zeta_vec)
    flags.extend(dres.flags)

    if any(z < -BOUND_TOL for z in dres.zeta_on_basis):
        flags.append("combined functional is negative on an auxiliary generator; "
                     "its value modulus exceeds one")

    # phases: fit on the positive prescribed generators over the new exponents
    expo_rows = [dres.exponents[i] for i in positive_idx]
    targets = [phases[i] for i in positive_idx]
    omega, inconsistent = _fit_phases(expo_rows, targets, d)
    if inconsistent:
        flags.append("prescribed phases are inconsistent with an exact integer "
                     "relation among the exponents; fitted by least squares")

    phi_basis = []
    for i in range(d):
        if dres.theta_on_basis[i] > 0:
            phi_basis.append(0j)
        else:
            phi_basis.append(math.exp(-dres.zeta_on_basis[i])
                             * cmath.exp(1j * omega[i]))
    phi_basis = tuple(phi_basis)

    phi_gamma = []
    for ex in dres.exponents:
        z = complex(1.0)
        for e, zb in zip(ex, phi_basis):
            if e:
                z = 0j if zb == 0 else z * zb ** e
        phi_gamma.append(z)
    phi_gamma = tuple(phi_gamma)

    residual = 0.0
    for i, want in problem.prescribed.items():
        residual = max(residual, abs(phi_gamma[i] - want))
    if residual > 1e-9:
        flags.append(f"prescribed values reproduced only to {residual:.3e}")

    basis_amb = tuple(from_coords(b) for b in dres.basis_vectors)
    return CharacterExtensionResult(
        working_dim=d, basis_vectors=basis_amb, dual_functionals=dres.functionals,
        exponents=dres.exponents, phi_basis=phi_basis, phi_gamma=phi_gamma,
        zeta_basis=dres.zeta_on_basis, theta_basis=dres.theta_on_basis,
        c=c, prescribed_residual=residual, modulus=mfit, flags=tuple(flags))
