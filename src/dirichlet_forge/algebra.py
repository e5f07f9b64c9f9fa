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
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import (BasisMismatchError, PreconditionError, SingularElementError,
                     NeumannInapplicableError, ValidationError, CapExceededError)
from .exactnum import QC, coeff_abs, coeff_is_zero, coeff_to_complex, format_frac, parse_frac
from .semigroup import (SemigroupBasis, SemigroupElement, enumerate_monoid, key_combine,
                        row_end)
from .weights import ONE, WeightFn, one as weight_one

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
                              self.dropped_mass * coeff_abs(cc), _trusted=True)

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
        """The element `to_json` wrote.  One pass: each support element is
        checked (ids, signs, truncation, duplicates) as it is read and zero
        coefficients are dropped, so __init__ validates nothing again."""
        try:
            if basis is None:
                basis = SemigroupBasis.from_json(data["basis"])
            backend = data.get("backend", FLOAT)
            truncation = data.get("truncation")
            limit = None if truncation is None else float(truncation) + 1e-12
            coeffs, zeros = {}, []
            for entry in data["coeffs"]:
                lam = SemigroupElement.from_json(basis, entry["element"])
                re, im = entry["re"], entry["im"]
                if backend == EXACT:
                    v = QC(parse_frac(re) if isinstance(re, str) else Fraction(re),
                           parse_frac(im) if isinstance(im, str) else Fraction(im))
                else:
                    v = complex(float(re), float(im))
                size = len(coeffs)
                coeffs[lam] = v
                if len(coeffs) == size:
                    raise ValidationError("duplicate support element in JSON")
                if limit is not None and lam.l1() > limit:
                    raise ValidationError("support element beyond declared truncation")
                if coeff_is_zero(v):
                    zeros.append(lam)
            for lam in zeros:
                del coeffs[lam]
            return cls(basis, coeffs, backend, truncation, _trusted=True)
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
    mass (sum of |a||b| over dropped pairs) is recorded in metadata.  The
    pairs run through `_pair_kernel`; the result's terms keep the order in
    which a loop over a, then b, first reaches them.
    """
    _check_bases(a, b)
    backend, T, sa, sb, out, born, lost = _product(a, b)
    dropped = a.dropped_mass + b.dropped_mass + lost
    ea, eb = dict(zip(sa.keys, sa.elems)), dict(zip(sb.keys, sb.elems))
    den, gauss = sa.den * sb.den, sa.gauss
    coeffs = {}
    for k in _born_order(born, sa.keys, sb):
        v = out[k]
        if _nonzero(v, gauss):
            ka, kb = born[k]
            coeffs[ea[ka] + eb[kb]] = _value(v, den, gauss, backend)
    return AlgebraElement(a.basis, coeffs, backend, T, dropped, _trusted=True)


def _product(a: AlgebraElement, b: AlgebraElement):
    """a * b on keys: (backend, truncation, a's side, b's side, numerators
    by key, first pair by key, dropped mass)."""
    backend = EXACT if a.backend == b.backend == EXACT else FLOAT
    T = _min_trunc(a.truncation, b.truncation)
    limit = None if T is None else T + 1e-12 * (1.0 + abs(T))
    cut = limit is not None
    sa, sb = _unify(_side(a.coeffs.items(), backend),
                    _side(b.coeffs.items(), backend, by_mag=cut, mags=cut))
    out, born = {}, {}
    lost = _pair_kernel(zip(sa.keys, sa.mags, sa.vals), sb, limit, out,
                        key_combine(a.basis), born, sa.den)
    return backend, T, sa, sb, out, born, lost


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


# most support elements the partial sums of a Neumann series may hold
NEUMANN_SUPPORT_CAP = 200_000


def neumann_invert(a: AlgebraElement, w: Optional[WeightFn] = None,
                   tol: float = 1e-12, max_terms: int = 10_000):
    """Inverse via the geometric series around a(0), with certified tail.

    Requires q = ||a - a(0) eps||_w / |a(0)| < 1.  Truncates after J terms
    once the geometric tail q^(J+1) / ((1-q) |a(0)|) < tol.  Returns
    (element, NeumannCertificate).  A partial sum whose support would grow
    past NEUMANN_SUPPORT_CAP raises CapExceededError.
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
    powers = _Powers(u)
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
        _accumulate(acc, term, powers.side.den, powers.side.gauss)
        acc_dropped += powers.dropped
        tail *= q
    elems = powers.elements()
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
                              residual_norm=_unit_residual(a, b, w), weight=w)
    return b, cert


def _unit_residual(a: AlgebraElement, b: AlgebraElement, w: WeightFn) -> float:
    """||a * b - eps||_w, the norm of `convolve(a, b) - eps` taken on keys.

    It skips building the product's support elements and the difference,
    which take longer than the products themselves.  An element's magnitude
    is the sum of its first pair's magnitudes, as `convolve` gives it.
    """
    backend, _, sa, sb, out, born, _ = _product(a, b)
    zk = a.basis.zero().key()
    den, gauss = sa.den * sb.den, sa.gauss
    v0 = out.get(zk, (0, 0) if gauss else 0)
    out[zk] = (v0[0] - den, v0[1]) if gauss else v0 - den  # eps is den / den
    weight = None
    if w.kind != ONE:
        amag = dict(zip(sa.keys, sa.mags))
        bmag = {k: e.l1() for k, e in zip(sb.keys, sb.elems)}
        weight = {k: w.eval_mag(amag[ka] + bmag[kb]) for k, (ka, kb) in born.items()}
        weight.setdefault(zk, w.eval_mag(0.0))
    total = 0
    for k, v in out.items():
        m = coeff_abs(_value(v, den, gauss, backend))
        if m != 0.0:
            total += m if weight is None else m * weight[k]
    return total


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
    Exact in the rational backend, on Gaussian integers with no Fraction in
    the loop (`_fraction_free`).
    """
    a0 = a.constant_term()
    if coeff_is_zero(a0):
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    inv_a0 = _invert_scalar(a0, a.backend)
    zero = a.basis.zero()
    support = [(lam, v) for lam, v in a.coeffs.items() if not lam.is_zero()]
    if not support:
        return AlgebraElement(a.basis, {zero: inv_a0}, a.backend, truncation, _trusted=True)
    den = _common_den(a.coeffs.values()) if a.backend == EXACT else None
    side = _side(support, a.backend, by_mag=True, den=den)
    elements = enumerate_monoid(side.elems, truncation, cap)
    limit = truncation + 1e-9 * (1.0 + abs(truncation))
    if a.backend == EXACT:
        side, first, solve, finish = _fraction_free(a0, den, side, len(elements), limit)
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
    _pair_kernel(outer(), side, limit, acc, key_combine(a.basis))
    out = {zero: inv_a0}
    for lam, v in b.items():
        if _nonzero(v, gauss):
            out[lam] = v if finish is None else finish(v)
    return AlgebraElement(a.basis, out, a.backend, truncation, _trusted=True)


def _fraction_free(a0, den: int, side: "_Side", n_elements: int, limit: float):
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
            raise AssertionError("graded_invert: inexact division by n0")
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


# -- the pair kernel --------------------------------------------------------
#
# Every product loop of the algebra runs on element keys
# (`SemigroupElement.key`): integers that multiply over a free basis (the key
# of log n over the log-primes basis is n), the elements themselves, which
# add, over an embedded basis.  An exact operand becomes Gaussian-integer
# numerators over one common denominator, plain ints when it is real, so no
# Fraction is made inside a loop.


class _Side(NamedTuple):
    """One operand: elements, keys, magnitudes and values, index-aligned."""
    elems: list
    keys: list
    mags: Optional[list]
    vals: list
    den: int                 # common denominator of exact numerators; 1 for float
    gauss: bool              # exact numerators are (re, im) pairs, else ints
    perm: Optional[list]     # original positions, when sorting moved any


def _side(items, backend: str, by_mag: bool = False, den: Optional[int] = None,
          mags: bool = True) -> _Side:
    """Operand from (element, value) pairs, in the given order or stably
    sorted by magnitude (`by_mag`), with values in the kernel's form for
    `backend`.  `mags=False` skips reading magnitudes (no cutoff to test)."""
    elems, vals = [], []
    for lam, v in items:
        elems.append(lam)
        vals.append(v)
    ms = [lam.l1() for lam in elems] if mags or by_mag else None
    perm = None
    if by_mag:
        perm = sorted(range(len(elems)), key=ms.__getitem__)
        if all(i == p for i, p in enumerate(perm)):
            perm = None
        else:
            elems = [elems[i] for i in perm]
            vals = [vals[i] for i in perm]
            ms = [ms[i] for i in perm]
    keys = [lam.key() for lam in elems]
    if backend == EXACT:
        vals, den, gauss = _numerators(vals, den)
    else:
        vals, den, gauss = [coeff_to_complex(v) for v in vals], 1, False
    return _Side(elems, keys, ms, vals, den, gauss, perm)


def _unify(s1: _Side, s2: _Side):
    """Both operands in the same numerator form (pairs if either has them)."""
    if s1.gauss == s2.gauss:
        return s1, s2
    if s1.gauss:
        return s1, s2._replace(vals=[(v, 0) for v in s2.vals], gauss=True)
    return s1._replace(vals=[(v, 0) for v in s1.vals], gauss=True), s2


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


def _gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _nonzero(v, gauss: bool) -> bool:
    return bool(v[0] or v[1]) if gauss else v != 0


def _value(v, den: int, gauss: bool, backend: str):
    """A kernel value as a coefficient: numerator / den as a QC (exact), or
    the complex itself (float)."""
    if backend != EXACT:
        return v
    re, im = v if gauss else (v, 0)
    if den == 1:
        return QC(Fraction(re), Fraction(im))
    return QC(Fraction(re, den), Fraction(im, den))


def _num_abs(v, gauss: bool, den: int) -> float:
    """|v / den| as a float.  Integer numerators are divided by the integer
    denominator before anything becomes a float, so neither may pass the
    float range on its own."""
    if gauss:
        return math.hypot(v[0] / den, v[1] / den)
    return abs(v) / den


def _pair_kernel(outer, inner: _Side, limit: Optional[float], out: dict, combine,
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
    records the first pair (ka, kb) behind every new key.
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


class _Powers:
    """u^{*1}, u^{*2}, ... on element keys, for Neumann series and
    composition.  After `step`, `term` holds the numerators of the current
    power over `den` (a power of u's denominator) and `dropped` its dropped
    mass as `convolve` would carry it.  The first (parent key, u key) pair
    behind every key is kept, so `elements` builds each element once."""

    def __init__(self, u: AlgebraElement):
        T = u.truncation
        self.limit = None if T is None else T + 1e-12 * (1.0 + abs(T))
        cut = self.limit is not None
        self.side = _side(u.coeffs.items(), u.backend, by_mag=cut, mags=cut)
        self.combine = key_combine(u.basis)
        self.u_dropped = u.dropped_mass
        self.zero = u.basis.zero()
        zk = self.zero.key()
        one = 1 + 0j if u.backend == FLOAT else 1
        self.term = {zk: (one, 0) if self.side.gauss else one}
        self.mags = {zk: self.zero.l1()}
        self.den = 1
        self.dropped = 0.0
        self.origin: dict = {}

    def step(self) -> dict:
        side = self.side
        if self.limit is None:
            outer = zip(self.term, repeat(0.0), self.term.values())
        else:
            outer = zip(self.term, map(self.mags.__getitem__, self.term), self.term.values())
        nxt, born = {}, {}
        lost = _pair_kernel(outer, side, self.limit, nxt, self.combine, born, self.den)
        self.dropped = self.dropped + self.u_dropped + lost
        self.den *= side.den
        if self.limit is not None:
            umag = dict(zip(side.keys, side.mags))
            self.mags = {k: self.mags[ka] + umag[kb] for k, (ka, kb) in born.items()}
        for k, pair in born.items():
            self.origin.setdefault(k, pair)
        self.term = {k: nxt[k] for k in _born_order(born, self.term, side)
                     if _nonzero(nxt[k], side.gauss)}
        return self.term

    def elements(self) -> dict:
        """Key -> element for every key reached."""
        elems = {self.zero.key(): self.zero}
        uel = dict(zip(self.side.keys, self.side.elems))
        for k, (ka, kb) in self.origin.items():
            elems[k] = elems[ka] + uel[kb]
        return elems


def _born_order(born: dict, outer_keys, inner: _Side):
    """The keys of `born` in the order a loop over the outer keys, then the
    inner terms in their original order, first reaches them: the order a
    product had before the inner operand was sorted."""
    if inner.perm is None:
        return born
    pos_a = {k: i for i, k in enumerate(outer_keys)}
    pos_b = dict(zip(inner.keys, inner.perm))
    return sorted(born, key=lambda k: (pos_a[born[k][0]], pos_b[born[k][1]]))


def _accumulate(acc: dict, term: dict, den: int, gauss: bool):
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
    u = a.add(unit(a.basis, a.backend).scale(complex(f.center)).negate())
    q = weighted_norm(u, w)
    if not q < f.radius:
        raise PreconditionError(
            f"composition outside convergence radius: ||a - c0||_w = {q} >= {f.radius}"
            f" (gap {q - f.radius})")
    ratio = q / f.radius if math.isfinite(f.radius) else 0.0
    C = _series_majorant(f)
    first = unit(a.basis, a.backend).scale(f.coeff(0))
    acc = {lam.key(): v for lam, v in first.coeffs.items()}
    backend, dropped, touched = first.backend, first.dropped_mass, False
    powers = _Powers(u)  # u is float: f.center is complex
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
        power = powers.step()
        fk = f.coeff(K)
        if fk != 0:
            cc = coeff_to_complex(fk)
            if backend == EXACT:
                acc = {k: coeff_to_complex(v) for k, v in acc.items()}
                backend = FLOAT
            # acc.add(power.scale(fk))
            _accumulate(acc, {k: nv for k, v in power.items() if (nv := v * cc) != 0}, 1, False)
            dropped += powers.dropped * abs(cc)
            touched = True
    elems = powers.elements()
    c = AlgebraElement(a.basis, {elems[k]: v for k, v in acc.items() if not coeff_is_zero(v)},
                       backend, u.truncation if touched else None, dropped, _trusted=True)
    return c, CompositionCertificate(q=q, radius=f.radius, terms_used=K, tail_bound=tail)


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
_UNDERFLOW = 2.0 ** -1074  # the smallest subnormal: absolute error per rounded operation


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
