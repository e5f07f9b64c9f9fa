"""Weighted convolution algebra of finitely supported coefficient maps.

Elements are maps lambda -> coefficient over a shared semigroup basis, with
convolution (a*b)(lambda) = sum over lambda' + lambda'' = lambda.  Two
coefficient backends: "exact" (complex rationals, identity-grade) and
"float" (complex doubles, analysis-grade), chosen per element.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import (BasisMismatchError, PreconditionError, SingularElementError,
                     NeumannInapplicableError, ValidationError, CapExceededError)
from .exactnum import QC, coeff_abs, coeff_is_zero, coeff_to_complex, format_frac, parse_frac
from .semigroup import SemigroupBasis, SemigroupElement, enumerate_monoid
from .weights import WeightFn, one as weight_one

EXACT = "exact"
FLOAT = "float"


def _coerce(value, backend):
    if backend == EXACT:
        return QC.from_value(value)
    return coeff_to_complex(value)


class AlgebraElement:
    """Immutable finitely supported coefficient map over a basis."""

    __slots__ = ("basis", "coeffs", "backend", "truncation", "dropped_mass")

    def __init__(self, basis: SemigroupBasis, coeffs: dict, backend: str = FLOAT,
                 truncation: Optional[float] = None, dropped_mass: float = 0.0,
                 _trusted: bool = False):
        if backend not in (EXACT, FLOAT):
            raise ValidationError(f"unknown backend {backend!r}")
        self.basis = basis
        self.backend = backend
        self.truncation = None if truncation is None else float(truncation)
        self.dropped_mass = float(dropped_mass)
        if _trusted:
            self.coeffs = coeffs
            return
        clean = {}
        for lam, v in coeffs.items():
            if not isinstance(lam, SemigroupElement):
                raise ValidationError("coefficient keys must be semigroup elements")
            if lam.basis is not basis and lam.basis != basis:
                raise BasisMismatchError("coefficient key over a different basis")
            if self.truncation is not None and lam.l1() > self.truncation + 1e-12:
                raise ValidationError("support element beyond declared truncation")
            cv = _coerce(v, backend)
            if not coeff_is_zero(cv):
                clean[lam] = cv
        self.coeffs = clean

    # -- basic structure ----------------------------------------------------

    def support(self):
        return sorted(self.coeffs.keys(), key=lambda e: e.sort_key())

    def __getitem__(self, lam: SemigroupElement):
        v = self.coeffs.get(lam)
        if v is None:
            return QC(0) if self.backend == EXACT else 0j
        return v

    def constant_term(self):
        return self[self.basis.zero()]

    def with_backend(self, backend: str) -> "AlgebraElement":
        if backend == self.backend:
            return self
        return AlgebraElement(self.basis, dict(self.coeffs), backend,
                              self.truncation, self.dropped_mass)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.basis != other.basis or set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    def __repr__(self):
        return f"AlgebraElement({len(self.coeffs)} terms, backend={self.backend})"

    # -- linear ops ---------------------------------------------------------

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_bases(self, other)
        backend = EXACT if self.backend == other.backend == EXACT else FLOAT
        out = {}
        for lam in set(self.coeffs) | set(other.coeffs):
            v = _coerce(self[lam], backend) + _coerce(other[lam], backend)
            if not coeff_is_zero(v):
                out[lam] = v
        return AlgebraElement(self.basis, out, backend,
                              _min_trunc(self.truncation, other.truncation),
                              self.dropped_mass + other.dropped_mass, _trusted=True)

    def scale(self, c) -> "AlgebraElement":
        backend = self.backend
        if backend == EXACT and isinstance(c, complex):
            backend = FLOAT
        cc = _coerce(c, backend)
        out = {}
        for lam, v in self.coeffs.items():
            nv = _coerce(v, backend) * cc
            if not coeff_is_zero(nv):
                out[lam] = nv
        return AlgebraElement(self.basis, out, backend, self.truncation,
                              self.dropped_mass, _trusted=True)

    def negate(self) -> "AlgebraElement":
        return self.scale(-1)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for lam in self.support():
            v = self.coeffs[lam]
            if self.backend == EXACT:
                entry = {"element": lam.to_json(),
                         "re": format_frac(v.re), "im": format_frac(v.im)}
            else:
                entry = {"element": lam.to_json(), "re": v.real, "im": v.imag}
            entries.append(entry)
        return {"basis": self.basis.to_json(), "coeffs": entries,
                "truncation": self.truncation, "backend": self.backend}

    @classmethod
    def from_json(cls, data: dict, basis: Optional[SemigroupBasis] = None) -> "AlgebraElement":
        try:
            if basis is None:
                basis = SemigroupBasis.from_json(data["basis"])
            backend = data.get("backend", FLOAT)
            coeffs = {}
            for entry in data["coeffs"]:
                lam = SemigroupElement.from_json(basis, entry["element"])
                re, im = entry["re"], entry["im"]
                if backend == EXACT:
                    v = QC(parse_frac(re) if isinstance(re, str) else Fraction(re),
                           parse_frac(im) if isinstance(im, str) else Fraction(im))
                else:
                    v = complex(float(re), float(im))
                if lam in coeffs:
                    raise ValidationError("duplicate support element in JSON")
                coeffs[lam] = v
            return cls(basis, coeffs, backend, data.get("truncation"))
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed algebra element JSON: {e}") from e


def _check_bases(a: AlgebraElement, b: AlgebraElement):
    if a.basis is not b.basis and a.basis != b.basis:
        raise BasisMismatchError("operands over different bases")


def _min_trunc(t1, t2):
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


def unit(basis: SemigroupBasis, backend: str = FLOAT) -> AlgebraElement:
    """Convolution identity eps = delta at lambda = 0."""
    return AlgebraElement(basis, {basis.zero(): 1}, backend)


def delta(basis: SemigroupBasis, lam: SemigroupElement, value=1,
          backend: str = FLOAT) -> AlgebraElement:
    return AlgebraElement(basis, {lam: value}, backend)


def from_coeffs(basis: SemigroupBasis, pairs, backend: str = FLOAT,
                truncation=None) -> AlgebraElement:
    return AlgebraElement(basis, dict(pairs), backend, truncation)


# -- core operations --------------------------------------------------------

def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a*b)(lambda) = sum_{lambda'+lambda''=lambda} a(lambda') b(lambda'').

    Finite supports make the sum finite.  If either operand declares a
    truncation, products beyond min(T_a, T_b) are dropped and the dropped
    mass (sum of |a||b| over dropped pairs) is recorded in metadata.
    """
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


def weighted_norm(a: AlgebraElement, w: Optional[WeightFn] = None) -> float:
    """||a||_w = sum |a(lambda)| w(lambda)   (float; norms are analysis-grade)."""
    if w is None:
        w = weight_one()
    return sum(coeff_abs(v) * w.eval(lam) for lam, v in a.coeffs.items())


@dataclass
class TailBound:
    cutoff: float
    bound: float
    weight: WeightFn


def evaluate_series(a: AlgebraElement, s, w: Optional[WeightFn] = None,
                    ell: Optional[float] = None):
    """Partial sum sum_lambda a(lambda) exp(-lambda . s) plus a tail bound.

    s: complex scalar (r = 1) or sequence of r complex numbers.  The tail
    bound (1/w(ell)) sum_{|lambda|_1 >= ell} |a| w is valid on Re s >= 0 and
    omitted (None) otherwise.
    """
    sv = _s_vector(a.basis, s)
    total = 0j
    for lam in a.support():
        total += coeff_to_complex(a.coeffs[lam]) * _char_exp(lam, sv)
    tail = None
    if all(z.real >= 0 for z in sv):
        if w is None:
            w = weight_one()
        if ell is None:
            ell = a.truncation if a.truncation is not None else max(
                (lam.l1() for lam in a.coeffs), default=0.0)
        mass = sum(coeff_abs(v) * w.eval(lam) for lam, v in a.coeffs.items()
                   if lam.l1() >= ell - 1e-12)
        tail = TailBound(cutoff=float(ell), bound=mass / w.eval_mag(float(ell)), weight=w)
    return total, tail


def _s_vector(basis: SemigroupBasis, s):
    if isinstance(s, (int, float, complex)):
        sv = (complex(s),) * basis.r if basis.r == 1 else None
        if sv is None:
            raise ValidationError(f"s must have {basis.r} coordinates")
        return sv
    sv = tuple(complex(z) for z in s)
    if len(sv) != basis.r:
        raise ValidationError(f"s must have {basis.r} coordinates")
    return sv


def _char_exp(lam: SemigroupElement, sv) -> complex:
    """exp(-lambda . s) via the embedded value; shared with character eval."""
    v = lam.embedded_value()
    acc = 0j
    for x, z in zip(v, sv):
        acc += x * z
    return cmath.exp(-acc)


# -- inversion --------------------------------------------------------------

@dataclass
class NeumannCertificate:
    q: float
    terms_used: int
    tail_bound: float
    residual_norm: float
    weight: WeightFn


def neumann_invert(a: AlgebraElement, w: Optional[WeightFn] = None,
                   tol: float = 1e-12, max_terms: int = 10_000):
    """Inverse via the geometric series around a(0), with certified tail.

    Requires q = ||a - a(0) eps||_w / |a(0)| < 1.  Truncates after J terms
    once the geometric tail q^(J+1) / ((1-q) |a(0)|) < tol.  Returns
    (element, NeumannCertificate).
    """
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
        term = convolve(term, u)
        acc = acc.add(term)
        tail *= q
    b = acc.scale(inv_a0)
    residual = weighted_norm(convolve(a, b).add(unit(a.basis, b.backend).negate()), w)
    cert = NeumannCertificate(q=q, terms_used=J, tail_bound=tail / coeff_abs(a0),
                              residual_norm=residual, weight=w)
    return b, cert


def _invert_scalar(v, backend):
    if backend == EXACT:
        return QC(1) / QC.from_value(v)
    return 1.0 / coeff_to_complex(v)


def graded_invert(a: AlgebraElement, truncation: float,
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
    Exact in the rational backend.
    """
    a0 = a.constant_term()
    if coeff_is_zero(a0):
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    inv_a0 = _invert_scalar(a0, a.backend)
    zero = a.basis.zero()
    support = [(lam, v) for lam, v in a.coeffs.items() if not lam.is_zero()]
    if not support:
        return AlgebraElement(a.basis, {zero: inv_a0}, a.backend, truncation, _trusted=True)
    support.sort(key=lambda kv: kv[0].sort_key())
    elements = enumerate_monoid([lam for lam, _ in support], truncation, cap)
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


# -- invertibility witness --------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    sigma_max: float = 10.0
    t_max: float = 30.0
    n_sigma: int = 40
    n_t: int = 120
    disk_step: float = 0.02
    disk_boundary: int = 512

    def __post_init__(self):
        # the evidence grid must stay in the closed half-plane Re s >= 0
        if not _is_real(self.sigma_max) or not 0.0 <= self.sigma_max < math.inf:
            raise ValidationError(
                f"sigma_max must be a finite number >= 0, got {self.sigma_max!r}")
        if not _is_real(self.t_max) or not 0.0 < self.t_max < math.inf:
            raise ValidationError(f"t_max must be a finite number > 0, got {self.t_max!r}")
        for name in ("n_sigma", "n_t"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise ValidationError(f"{name} must be an int >= 1, got {n!r}")


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass
class WitnessReport:
    min_modulus: float
    argmin_s: object
    certified: bool
    lower_bound: Optional[float] = None
    lipschitz: Optional[float] = None
    mesh: Optional[float] = None
    note: str = ""


def invertibility_witness(a: AlgebraElement, grid: Optional[GridSpec] = None) -> WitnessReport:
    """Numeric evidence that 0 is outside the closure of the series' range.

    General case: min |a~(s)| over a rectangle grid in the closed right
    half-plane (evidence only).  For a single-generator free basis the series
    is a polynomial in z = exp(-beta s) on the closed unit disk, and
    `min_modulus_on_disk` gives a rigorous lower bound; a positive bound
    certifies invertibility.
    """
    grid = grid or GridSpec()
    if a.basis.mode == "free" and len(a.basis.generators) == 1:
        return _disk_witness(a, grid)
    best, best_s = _half_plane_min(a, grid)
    return WitnessReport(min_modulus=best, argmin_s=best_s, certified=False,
                         note="half-plane grid evidence (no certificate for r > 1 "
                              "or multi-generator bases)")


# complex entries one block of the half-plane evaluation may hold (4 MB)
_HALF_PLANE_BLOCK = 1 << 18


def _half_plane_min(a: AlgebraElement, grid: GridSpec):
    """(min |a~(s)|, argmin) over s = sigma + i t on the evidence grid.

    Every coordinate of s is the same number, so lambda . s = mu s with mu
    the coordinate sum of lambda, and exp(-mu s) = exp(-mu sigma) exp(-i mu t)
    splits into a sigma table and a t table.  The sum over terms is then one
    matrix product per block of terms; a block holds at most
    _HALF_PLANE_BLOCK table entries, so memory does not grow with the
    number of terms.  The first minimum in scan order (sigma outer, t
    inner) is returned.
    """
    sig = np.linspace(0.0, grid.sigma_max, grid.n_sigma)
    ts = np.linspace(-grid.t_max, grid.t_max, grid.n_t)
    mu = np.array([sum(lam.embedded_value()) for lam in a.coeffs], dtype=float)
    c = np.array([coeff_to_complex(v) for v in a.coeffs.values()], dtype=complex)
    vals = np.zeros((sig.size, ts.size), dtype=complex)
    block = max(1, _HALF_PLANE_BLOCK // (sig.size + ts.size))
    for lo in range(0, mu.size, block):
        m, cb = mu[lo:lo + block, None], c[lo:lo + block, None]
        vals += (cb * np.exp(-m * sig)).T @ np.exp(-1j * m * ts)
    mods = np.abs(vals).ravel()
    i = int(np.argmin(mods))
    return float(mods[i]), complex(sig[i // ts.size], ts[i % ts.size])


def _disk_witness(a: AlgebraElement, grid: GridSpec) -> WitnessReport:
    gid = a.basis.generators[0].id
    coeffs: dict[int, complex] = {}
    for lam, v in a.coeffs.items():
        n = dict(lam.exponents).get(gid, 0)
        coeffs[n] = coeffs.get(n, 0j) + coeff_to_complex(v)
    d = _disk_minimum(coeffs, grid.disk_step, grid.disk_boundary)
    return WitnessReport(min_modulus=d.minimum, argmin_s=d.argmin,
                         certified=d.lower_bound > 0.0, lower_bound=d.lower_bound,
                         lipschitz=d.lipschitz, mesh=d.mesh,
                         note="closed-unit-disk certificate for the single-generator case")


# -- analytic composition ---------------------------------------------------

@dataclass(frozen=True)
class PowerSeries:
    """f(z) = sum_k f_k (z - center)^k with convergence radius `radius`."""
    center: complex
    radius: float
    coeff_list: tuple = ()
    kind: str = "coeffs"  # coeffs | exp | reciprocal

    def coeff(self, k: int) -> complex:
        if self.kind == "exp":
            return 1.0 / math.factorial(k)
        if self.kind == "reciprocal":
            c = self.center
            return (-1) ** k / c ** (k + 1)
        return self.coeff_list[k] if k < len(self.coeff_list) else 0.0

    def finite(self) -> bool:
        return self.kind == "coeffs"

    @classmethod
    def from_coeffs(cls, coeffs, center=0.0, radius=math.inf) -> "PowerSeries":
        return cls(complex(center), float(radius), tuple(complex(c) for c in coeffs))

    @classmethod
    def exp(cls, radius: float) -> "PowerSeries":
        """exp around 0; any finite radius > ||a||_w works (entire function)."""
        radius = float(radius)
        if not math.isfinite(radius):
            raise PreconditionError("choose a finite working radius for exp")
        return cls(0j, radius, (), "exp")

    @classmethod
    def reciprocal(cls, center: complex) -> "PowerSeries":
        """1/z around `center`; radius |center|."""
        c = complex(center)
        if c == 0:
            raise PreconditionError("reciprocal series needs a nonzero center")
        return cls(c, abs(c), (), "reciprocal")

    @classmethod
    def from_json(cls, data: dict) -> "PowerSeries":
        try:
            kind = data["kind"]
            if kind == "exp":
                return cls.exp(float(data["radius"]))
            if kind == "reciprocal":
                return cls.reciprocal(complex(data["center"]["re"], data["center"]["im"]))
            if kind == "coeffs":
                coeffs = [complex(c["re"], c["im"]) for c in data["coeffs"]]
                center = data.get("center", {"re": 0.0, "im": 0.0})
                return cls.from_coeffs(coeffs, complex(center["re"], center["im"]),
                                       float(data.get("radius", math.inf)))
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed power series JSON: {e}") from e
        raise ValidationError(f"unknown power series kind {data.get('kind')!r}")


@dataclass
class CompositionCertificate:
    q: float
    radius: float
    terms_used: int
    tail_bound: float


def compose_series(f: PowerSeries, a: AlgebraElement, w: Optional[WeightFn] = None,
                   tol: float = 1e-12, max_terms: int = 2_000):
    """c = sum_k f_k (a - c0 eps)^{*k}, truncated by a geometric tail bound.

    Requires q = ||a - c0 eps||_w < radius.  The tail uses the majorant
    C_K = max_{k<=K} |f_k| R^k (exact for polynomial f, Cauchy-estimate
    shaped for analytic f): sum_{k>K} |f_k| q^k <= C_K (q/R)^{K+1}/(1-q/R).
    Returns (element, CompositionCertificate).
    """
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
        power = convolve(power, u)
        fk = f.coeff(K)
        if fk != 0:
            acc = acc.add(power.scale(fk))
    return acc, CompositionCertificate(q=q, radius=f.radius, terms_used=K, tail_bound=tail)


def _series_majorant(f: PowerSeries) -> float:
    """sup_k |f_k| radius^k — finite per kind, making the geometric tail valid."""
    if f.kind == "reciprocal":
        return 1.0 / abs(f.center)
    if f.kind == "exp":
        # radius^k / k! peaks near k = radius and decreases beyond
        top = int(math.ceil(f.radius)) + 2
        return max(f.radius ** k / math.factorial(k) for k in range(top))
    if not math.isfinite(f.radius):
        return 0.0  # finite coefficient list: tail handled exactly
    return max((abs(c) * f.radius ** k for k, c in enumerate(f.coeff_list)), default=0.0)


# -- the disk minimum (witnesses and the multiplicative layer) --------------

# most grid points one disk minimum evaluates: 16 MB per complex array
DISK_GRID_CAP = 1 << 20

_UNIT_ROUNDOFF = 2.0 ** -53


class DiskMinimum(NamedTuple):
    minimum: float
    argmin: complex
    lower_bound: float
    lipschitz: float
    mesh: float


def min_modulus_on_disk(poly_coeffs, step: float = 0.02, boundary: int = 512):
    """(min |p(z)|, argmin, certified lower bound) over the closed unit disk.

    p(z) = sum_k poly_coeffs[k] z^k; see `_disk_minimum` for the grid and
    the bound.
    """
    return _disk_minimum(dict(enumerate(poly_coeffs)), step, boundary)[:3]


def _disk_minimum(terms: dict, step: float, boundary: int) -> DiskMinimum:
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

        lower_bound = min_grid - L h sqrt(2) - rho,
        rho = gamma_(4n+2) (A + L).

    rho bounds the floating-point error of complex Horner evaluation on
    |z| <= 1 (at most n complex products, each within sqrt(2) gamma_2 <=
    gamma_3, and n sums, each within u: gamma_(4n) A; Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 5.1), the rounding of |.| and
    of the final subtractions, and the rounding of the grid points and of
    L, both of which enter through L.  A positive lower bound certifies
    that p has no zero on the closed disk.  The zero polynomial gives
    minimum 0 and lower bound 0.
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
    best = float(mods[i])
    return DiskMinimum(best, complex(grid[i]), best - L * mesh - rho, L, mesh)


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
