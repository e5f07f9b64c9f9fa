"""Weighted convolution algebra of finitely supported coefficient maps.

Elements are maps lambda -> coefficient over a shared semigroup basis, with
convolution (a*b)(lambda) = sum over lambda' + lambda'' = lambda.  Two
coefficient backends: "exact" (complex rationals, identity-grade) and
"float" (complex doubles, analysis-grade), chosen per element.

An element stores its terms by element key (`SemigroupElement.key`):
integers that multiply over a free basis (log n over the log-primes basis
is keyed by n), the elements themselves, which add, over an embedded
basis.  An exact element stores its values fraction-free, as integer
numerators over one least common denominator: plain ints when every value
is real, (re, im) pairs otherwise.  Products, inverses and sums run on
these keys and numerators and build no `SemigroupElement` and no
`Fraction`.  `coeffs` is the edge view {SemigroupElement: value}, with
exact values as `QC`s: the elements a caller passed in, or, for a computed
element, elements built from their keys, made when it is first read, then
cached.  Magnitudes are computed once per key, from its exponent map.
`to_json` reads the stored form, not `coeffs` (`_json_terms`).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
from operator import mul
from typing import NamedTuple, Optional

import numpy as np

from .disk import DISK_GRID_CAP, _UNDERFLOW, _UNIT_ROUNDOFF, _grid_argmin
from .errors import (BasisMismatchError, PreconditionError, SingularElementError,
                     NeumannInapplicableError, ValidationError, CapExceededError)
from .exactnum import QC, _as_ratio, _complex_value, format_frac
from .semigroup import (FREE, KeyedElements, SemigroupBasis, SemigroupElement, cutoff,
                        enumerate_monoid, key_combine, row_end)
from .weights import ONE, WeightFn, one as weight_one

EXACT = "exact"
FLOAT = "float"


class AlgebraElement:
    """Immutable finitely supported coefficient map over a basis.

    `_nums` maps element keys, in the order the terms were made, to
    numerators over `_den`: float values over 1, or exact ints, (re, im)
    int pairs when some value is not real (`_gauss`), over the least
    denominator (coprime to them all, 1 for the empty element).  An
    element made from the caller's elements holds the same numerators by
    those elements (`_by_elem`) and is keyed on first read of `_nums`.
    `terms` ({key: value}) and `coeffs` ({SemigroupElement: value}, see the
    module docstring) are the edge views, exact values as `QC`s; each is
    built on first read.  Both are read-only."""

    __slots__ = ("basis", "backend", "truncation", "dropped_mass", "_by_key", "_den", "_gauss",
                 "_by_elem", "_terms", "_coeffs", "_mags", "_exps")

    def __init__(self, basis: SemigroupBasis, coeffs: dict, backend: str = FLOAT,
                 truncation: Optional[float] = None, dropped_mass: float = 0.0,
                 _trusted: bool = False):
        limit = None if _trusted or truncation is None else cutoff(float(truncation))
        if not _trusted:
            for lam in coeffs:
                if not isinstance(lam, SemigroupElement):
                    raise ValidationError("coefficient keys must be semigroup elements")
                if lam.basis is not basis and lam.basis != basis:
                    raise BasisMismatchError("coefficient key over a different basis")
                if limit is not None and lam.l1() > limit:
                    raise ValidationError("support element beyond declared truncation")
        # by position until zeros are dropped: ints hash faster than elements
        self._set(basis, backend, truncation, dropped_mass,
                  *_stored(enumerate(coeffs.values()), backend))
        elems = list(coeffs)
        self._by_elem, self._by_key = {elems[i]: v for i, v in self._by_key.items()}, None

    def _set(self, basis, backend, truncation, dropped_mass, nums, den, gauss,
             mags=None, exps=None):
        if backend not in (EXACT, FLOAT):
            raise ValidationError(f"unknown backend {backend!r}")
        if backend == EXACT:
            nums, den, gauss = _reduced(nums, den, gauss)
        else:
            nums = {k: v for k, v in nums.items() if v != 0}
        self.basis, self.backend, self.dropped_mass = basis, backend, float(dropped_mass)
        self.truncation = None if truncation is None else float(truncation)
        self._by_key, self._den, self._gauss, self._mags, self._exps = nums, den, gauss, mags, exps
        self._by_elem = self._terms = self._coeffs = None

    @classmethod
    def _keyed(cls, basis: SemigroupBasis, nums: dict, backend: str,
               truncation: Optional[float] = None, dropped_mass: float = 0.0,
               mags: Optional[dict] = None, exps: Optional[dict] = None, den: int = 1,
               gauss: bool = False) -> "AlgebraElement":
        """An element from numerators by key over `den` (pairs when `gauss`);
        zeros are dropped, exact numerators reduced to least form.  `mags`
        and `exps`, when given, map at least every key to its magnitude and
        exponent map."""
        out = object.__new__(cls)
        out._set(basis, backend, truncation, dropped_mass, nums, den, gauss, mags, exps)
        return out

    @property
    def _nums(self) -> dict:
        if self._by_key is None:
            self._by_key = {lam.key(): v for lam, v in self._by_elem.items()}
        return self._by_key

    @property
    def terms(self) -> dict:
        """{key: value} in term order."""
        if self._terms is None:
            den, gauss = self._den, self._gauss
            self._terms = self._nums if self.backend == FLOAT else {
                k: _qc(v, den, gauss) for k, v in self._nums.items()}
        return self._terms

    @property
    def coeffs(self) -> dict:
        """{SemigroupElement: value} in term order, built once."""
        if self._coeffs is None:
            if self._by_elem is not None:
                den, gauss = self._den, self._gauss
                self._coeffs = self._by_elem if self.backend == FLOAT else {
                    lam: _qc(v, den, gauss) for lam, v in self._by_elem.items()}
            else:
                mags, exps = self._mags or {}, self._exponent_maps()
                element = self.basis.key_element
                self._coeffs = {element(k, mags.get(k), exps.get(k)): v
                                for k, v in self.terms.items()}
        return self._coeffs

    def _exponent_maps(self) -> dict:
        """{key: exponent map} over the terms of a free element, read off
        the caller's elements or found once (a key's quotient by one prime
        usually comes before it); {} over an embedded basis."""
        if self._exps is None:
            self._exps = exps = {}
            if self.basis.mode == FREE and self._by_elem is not None:
                self._exps = {k: lam.exponents for k, lam in zip(self._nums, self._by_elem)}
            elif self.basis.mode == FREE:
                for k in self._nums:
                    exps[k] = self.basis.key_exponents(k, exps)
        return self._exps

    def _magnitudes(self) -> dict:
        """{key: |lambda|_1} over the terms, computed once per key."""
        if self._mags is None:
            if self._by_elem is not None:
                self._mags = {k: lam.l1() for k, lam in zip(self._nums, self._by_elem)}
            else:
                exps, mag = self._exponent_maps(), self.basis.key_magnitude
                self._mags = {k: mag(k, exps) for k in self._nums}
        return self._mags

    # -- basic structure ----------------------------------------------------

    def support(self):
        return sorted(self.coeffs, key=lambda e: e.sort_key())

    def __getitem__(self, lam: SemigroupElement):
        v = None
        if lam.basis is self.basis or lam.basis == self.basis:
            v = self._nums.get(lam.key())
        if v is None:
            return QC(0) if self.backend == EXACT else 0j
        return v if self.backend == FLOAT else _qc(v, self._den, self._gauss)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.basis != other.basis:
            return False
        if self.backend == other.backend:  # least forms: equal values, equal numerators
            return self._den == other._den and self._nums == other._nums
        return self.terms == other.terms

    def __repr__(self):
        return f"AlgebraElement({len(self._nums)} terms, backend={self.backend})"

    # -- linear ops ---------------------------------------------------------

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        """self + other: self's terms in their order, then the other
        operand's new ones in theirs.  Only an operand whose backend differs
        from the sum's is coerced."""
        _check_bases(self, other)
        backend = EXACT if self.backend == other.backend == EXACT else FLOAT
        na, da, ga = _terms_in(self, backend)
        nb, db, gb = _terms_in(other, backend)
        den, gauss = math.lcm(da, db), ga or gb
        out = dict(_lifted(na, den // da, ga, gauss))
        for k, v in _lifted(nb, den // db, gb, gauss).items():
            cur = out.get(k)
            out[k] = v if cur is None else (cur[0] + v[0], cur[1] + v[1]) if gauss else cur + v
        return AlgebraElement._keyed(self.basis, out, backend,
                                     _min_trunc(self.truncation, other.truncation),
                                     self.dropped_mass + other.dropped_mass, den=den, gauss=gauss)

    def scale(self, c) -> "AlgebraElement":
        """c * self; values are coerced only when the backend changes (an
        exact element scaled by a complex becomes float)."""
        backend = FLOAT if isinstance(c, complex) else self.backend
        nums, den, gauss = _stored([(0, c)], backend)
        return self._times((nums[0], den, gauss), backend)

    def negate(self) -> "AlgebraElement":
        return self.scale(-1)

    def _times(self, c, backend: str) -> "AlgebraElement":
        """self times the scalar c = (numerator, denominator, gauss) of
        `backend`, term by term."""
        cn, cd, cg = c
        nums, den, gauss = _terms_in(self, backend)
        if gauss or cg:
            cn = cn if cg else (cn, 0)
            out = {k: _gauss_mul(v if gauss else (v, 0), cn) for k, v in nums.items()}
        else:
            out = {k: v * cn for k, v in nums.items()}
        return AlgebraElement._keyed(self.basis, out, backend, self.truncation,
                                     self.dropped_mass * _num_abs(c[0], cg, cd), self._mags,
                                     self._exps, den * cd, gauss or cg)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        free = self.basis.mode == FREE
        entries = [{"element": {"exponents": {str(gid): n for gid, n in part}} if free
                    else {"coords": list(part)}, "re": re, "im": im}
                   for part, re, im in self._json_terms()]
        return {"basis": self.basis.to_json(), "coeffs": entries,
                "truncation": self.truncation, "backend": self.backend}

    def _json_terms(self):
        """(part, re, im) of each term in `support` order, read from the
        stored form: part is the exponent map over a free basis, the coords
        as "p/q" strings over an embedded one; re and im are floats, or
        "p/q" strings of an exact value's numerator over `_den`.  Neither a
        SemigroupElement nor a Fraction is made."""
        nums, mags = self._nums, self._magnitudes()
        if self.basis.mode == FREE:
            exps = self._exponent_maps()
            keys = sorted(nums, key=lambda k: (mags[k], exps[k]))
            parts = map(exps.__getitem__, keys)
        else:  # the keys are the elements
            keys = sorted(nums, key=lambda k: (mags[k], k.coords))
            parts = (tuple(map(format_frac, k.coords)) for k in keys)
        vals = map(nums.__getitem__, keys)
        if self.backend == FLOAT:
            return ((p, v.real, v.imag) for p, v in zip(parts, vals))
        den = self._den
        if self._gauss:
            return ((p, _frac_text(v[0], den), _frac_text(v[1], den)) for p, v in zip(parts, vals))
        return ((p, _frac_text(v, den), "0") for p, v in zip(parts, vals))

    @classmethod
    def from_json(cls, data: dict, basis: Optional[SemigroupBasis] = None) -> "AlgebraElement":
        """The element `to_json` wrote.  One pass: each support element is
        read as its key and checked (ids, signs, truncation, duplicates),
        an exact value as the ints of its parts (`exactnum._as_ratio`), and
        a boolean part is malformed; zero coefficients are dropped, and
        neither a SemigroupElement nor a Fraction is made."""
        try:
            if basis is None:
                basis = SemigroupBasis.from_json(data["basis"])
            backend = data.get("backend", FLOAT)
            truncation = data.get("truncation")
            limit = None if truncation is None else cutoff(float(truncation))
            values, mags, exps = {}, {}, {}
            for entry in data["coeffs"]:
                k = basis.json_key(entry["element"])
                re, im = entry["re"], entry["im"]
                if isinstance(re, bool) or isinstance(im, bool):
                    raise TypeError("a boolean is not a coefficient")
                size = len(values)
                values[k] = (*_as_ratio(re), *_as_ratio(im)) if backend == EXACT else \
                    _complex(complex(float(re), float(im)))
                if len(values) == size:
                    raise ValidationError("duplicate support element in JSON")
                if limit is not None:
                    mags[k] = basis.key_magnitude(k, exps)
                    if mags[k] > limit:
                        raise ValidationError("support element beyond declared truncation")
            nums, den, gauss = _over_lcm(values) if backend == EXACT else (values, 1, False)
            return cls._keyed(basis, nums, backend, truncation, mags=mags or None,
                              exps=exps or None, den=den, gauss=gauss)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValidationError(f"malformed algebra element JSON: {e}") from e


# -- exact values as integer numerators over one denominator -----------------


def _stored(items, backend: str):
    """(numerators by key, denominator, gauss) of (key, value) pairs:
    complex doubles over 1, or exact values over the lcm of their
    denominators."""
    if backend == EXACT:
        return _over_lcm({k: _parts(v) for k, v in items})
    return {k: _complex(v) for k, v in items}, 1, False


def _complex(v) -> complex:
    """v as a float coefficient; a non-finite one, or one too large for a
    complex double, is a ValidationError."""
    if isinstance(v, (float, complex)) and not cmath.isfinite(v):
        raise ValidationError(f"coefficient {v!r} is not finite")
    try:
        return complex(v)
    except OverflowError:
        raise ValidationError("coefficient is too large for the float backend") from None


def _parts(v) -> tuple:
    """(re numerator, re denominator, im numerator, im denominator) of an
    exact coefficient: a QC, a finite float or complex, or a real
    `exactnum._as_ratio` reads."""
    if isinstance(v, (float, complex)):
        v = _complex(v)
    re, im = (v.re, v.im) if isinstance(v, QC) else (v.real, v.imag) if isinstance(v, complex) \
        else (v, 0)
    return (*_as_ratio(re), *_as_ratio(im))


def _over_lcm(parts: dict):
    """(numerators, lcm of the denominators, gauss) of {key: `_parts`}."""
    den = math.lcm(*(d for p in parts.values() for d in p[1::2]))
    if any(p[2] for p in parts.values()):
        return {k: (a * (den // b), c * (den // d)) for k, (a, b, c, d) in parts.items()}, den, True
    return {k: a * (den // b) for k, (a, b, _, _) in parts.items()}, den, False


def _reduced(nums: dict, den: int, gauss: bool):
    """Exact numerators over den in least form: zeros dropped, ints unless
    some value is not real, and den > 0 coprime to them all (1 when there
    is none)."""
    nums = {k: v for k, v in nums.items() if (v[0] or v[1] if gauss else v)}
    if gauss and not any(v[1] for v in nums.values()):
        nums, gauss = {k: v[0] for k, v in nums.items()}, False
    g = math.gcd(den, *(chain.from_iterable(nums.values()) if gauss else nums.values()))
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = {k: (v[0] // g, v[1] // g) if gauss else v // g for k, v in nums.items()}
    return nums, den, gauss


def _qc(v, den: int, gauss: bool) -> QC:
    """The value of the numerator v over den."""
    re, im = v if gauss else (v, 0)
    return QC(Fraction(re, den), Fraction(im, den))


def _frac_text(n: int, den: int) -> str:
    """`format_frac` of n / den (den > 0): "p/q" in least terms, "p" when q
    is 1."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _lifted(nums: dict, m: int, gauss: bool, to_gauss: bool) -> dict:
    """The numerators times the int m (their values over m times their
    denominator), as pairs when `to_gauss`."""
    if m == 1 and gauss == to_gauss:
        return nums
    if gauss:
        return {k: (v[0] * m, v[1] * m) for k, v in nums.items()}
    return {k: (v * m, 0) if to_gauss else v * m for k, v in nums.items()}


def _terms_in(a: AlgebraElement, backend: str):
    """a's (numerators, denominator, gauss) in `backend`: its own, or an
    exact element's values as complex doubles, each part numerator / den
    rounded once."""
    if a.backend == backend:
        return a._nums, a._den, a._gauss
    den, g = a._den, a._gauss
    try:
        return {k: complex(v[0] / den, v[1] / den) if g else complex(v / den, 0.0)
                for k, v in a._nums.items()}, 1, False
    except OverflowError:
        raise ValidationError("coefficient is too large for the float backend") from None


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
    which it first reaches them.
    """
    _check_bases(a, b)
    backend, T, sa, sb, out, lost = _product(a, b)
    return AlgebraElement._keyed(a.basis, out, backend, T,
                                 a.dropped_mass + b.dropped_mass + lost,
                                 den=sa.den * sb.den, gauss=sa.gauss)


def _product(a: AlgebraElement, b: AlgebraElement):
    """a * b on keys: (backend, truncation, a's side, b's side, numerators
    by key, dropped mass)."""
    backend = EXACT if a.backend == b.backend == EXACT else FLOAT
    T = _min_trunc(a.truncation, b.truncation)
    limit = None if T is None else cutoff(T)
    cut = limit is not None
    (na, da, ga), (nb, db, gb) = _terms_in(a, backend), _terms_in(b, backend)
    gauss = ga or gb  # both operands as pairs if either has them
    sa = _side(_lifted(na, 1, ga, gauss), da, gauss, a._magnitudes() if cut else None)
    sb = _side(_lifted(nb, 1, gb, gauss), db, gauss, b._magnitudes() if cut else None, by_mag=True)
    out = {}
    lost = _pair_kernel(zip(sa.keys, sa.mags if cut else repeat(0.0), sa.vals), sb, limit,
                        out, key_combine(a.basis), sa.den)
    return backend, T, sa, sb, out, lost


def weighted_norm(a: AlgebraElement, w: Optional[WeightFn] = None) -> float:
    """||a||_w = sum |a(lambda)| w(lambda)   (float; norms are analysis-grade)."""
    if w is None:
        w = weight_one()
    mags = None if w.kind == ONE else a._magnitudes()  # the unit weight is 1.0
    den, gauss = a._den, a._gauss
    return sum(_num_abs(v, gauss, den) * (1.0 if mags is None else w.eval_mag(mags[k]))
               for k, v in a._nums.items())


@dataclass
class TailBound:
    cutoff: float
    bound: float
    weight: WeightFn


def evaluate_series(a: AlgebraElement, s, w: Optional[WeightFn] = None,
                    ell: Optional[float] = None):
    """Partial sum sum_lambda a(lambda) exp(-lambda . s) plus a tail bound.

    s: complex scalar (r = 1) or sequence of r complex numbers, each a
    number or an {re, im} object as JSON gives it.  The tail
    bound (1/w(ell)) sum_{|lambda|_1 >= ell} |a| w is valid on Re s >= 0 and
    omitted (None) otherwise.
    """
    sv = _s_vector(a.basis, s)
    total = 0j
    for lam in a.support():
        total += complex(a.coeffs[lam]) * _char_exp(lam, sv)
    tail = None
    if all(z.real >= 0 for z in sv):
        if w is None:
            w = weight_one()
        if ell is None:
            ell = a.truncation if a.truncation is not None else max(
                (lam.l1() for lam in a.coeffs), default=0.0)
        mass = sum(abs(v) * w.eval(lam) for lam, v in a.coeffs.items()
                   if lam.l1() >= ell - 1e-12)
        tail = TailBound(cutoff=float(ell), bound=mass / w.eval_mag(float(ell)), weight=w)
    return total, tail


def _s_vector(basis: SemigroupBasis, s):
    zs = (s,) if isinstance(s, (numbers.Number, dict)) else tuple(s)
    if len(zs) != basis.r:
        raise ValidationError(f"s must have {basis.r} coordinates")
    try:
        sv = tuple(complex(_complex_value(z)) for z in zs)
    except (KeyError, OverflowError, TypeError) as e:
        raise ValidationError(f"malformed s coordinate: {e}") from e
    if not all(map(cmath.isfinite, sv)):
        raise ValidationError(f"s coordinates must be finite, got {sv}")
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


# most support elements the partial sums of a Neumann or composition series
# may hold (`_power_sum`)
NEUMANN_SUPPORT_CAP = 200_000


def neumann_invert(a: AlgebraElement, w: Optional[WeightFn] = None,
                   tol: float = 1e-12, max_terms: int = 10_000):
    """Inverse via the geometric series around a(0), with certified tail.

    Requires q = ||a - a(0) eps||_w / |a(0)| < 1.  Truncates after J terms
    once the geometric tail q^(J+1) / ((1-q) |a(0)|) < tol.  Returns
    (element, NeumannCertificate).  A tol that is not > 0 (NaN included),
    or a float a(0) whose reciprocal passes the float range, raises
    ValidationError; more than max_terms terms, or a partial sum
    whose support would grow past NEUMANN_SUPPORT_CAP, raises
    CapExceededError.
    """
    if w is None:
        w = weight_one()
    zk = a.basis.zero_key
    a0 = a._nums.get(zk)
    if a0 is None:
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    abs_a0 = _num_abs(a0, a._gauss, a._den)
    rest = AlgebraElement._keyed(a.basis, {k: v for k, v in a._nums.items() if k != zk},
                                 a.backend, a.truncation, a.dropped_mass, a._mags, a._exps,
                                 a._den, a._gauss)  # a - a(0) eps
    q = weighted_norm(rest, w) / abs_a0
    if not q < 1.0:  # NaN too
        raise NeumannInapplicableError(q)
    inv_a0 = _inverse(a0, a._den, a._gauss, a.backend, "Neumann series sum")
    # b = (1/a0) sum_j u^{*j},  u = eps - a / a0; each tail bound is the last times q
    u = rest._times(inv_a0, a.backend).negate()
    tails = (t / abs_a0 for t in accumulate(repeat(q), mul, initial=q / (1.0 - q)))
    total, J, tail = _power_sum("Neumann", u, unit(a.basis, a.backend), None, tails, tol,
                                max_terms)
    b = total._times(inv_a0, a.backend)
    cert = NeumannCertificate(q=q, terms_used=J, tail_bound=tail,
                              residual_norm=_unit_residual(a, b, w), weight=w)
    return b, cert


def _power_sum(label: str, u: AlgebraElement, start: AlgebraElement, coeff, tails, tol: float,
               max_terms: int):
    """start + sum_{k=1..K} f_k u^{*k} on element keys: (sum, K, tail).

    K is the first count whose tail bound, as `tails` yields them for
    K = 0, 1, ..., is below tol.  f_k is coeff(k), or 1 with coeff None
    (a Neumann series: `neumann_invert` and the reciprocal composition),
    when each power is added as it is.  Powers and sum keep the kernel's
    term order and a power of u's denominator; the sum carries |f_k| times
    each power's dropped mass.  `start` (denominator 1) is returned when
    no power is added.  A tol not > 0, a non-finite f_k or a non-finite
    float sum raises ValidationError; more than max_terms terms, or a sum
    whose support would pass NEUMANN_SUPPORT_CAP, CapExceededError.
    """
    if not tol > 0:  # NaN too
        raise ValidationError(f"{label} tol must be > 0, got {tol!r}")
    T, basis = u.truncation, u.basis
    limit = None if T is None else cutoff(T)
    mags = None if T is None else {**u._magnitudes(), basis.zero_key: 0.0}
    side = _side(u._nums, u._den, u._gauss, mags, by_mag=True)
    combine, gauss = key_combine(basis), side.gauss
    nums, _, start_gauss = _terms_in(start, u.backend)
    acc = dict(_lifted(nums, 1, start_gauss, gauss))  # the sum's numerators over den
    power, den = _lifted(unit(basis, u.backend)._nums, 1, False, gauss), 1  # u^0
    power_dropped = dropped = 0.0
    added, K = False, 0
    for tail in tails:
        if tail < tol:
            break
        K += 1
        if K > max_terms:
            raise CapExceededError(f"{label} series needs more than {max_terms} terms")
        outer = zip(power, repeat(0.0), power.values()) if mags is None else \
            ((k, mags[k], v) for k, v in power.items())
        nxt = {}
        lost = _pair_kernel(outer, side, limit, nxt, combine, den)
        power_dropped = power_dropped + u.dropped_mass + lost
        den *= side.den
        power = {k: v for k, v in nxt.items() if _nonzero(v, gauss)}
        if mags is not None:
            for k in power.keys() - mags.keys():
                mags[k] = basis.key_magnitude(k)
        acc = _lifted(acc, side.den, gauss, gauss)  # over the power's denominator
        # the new keys are counted only when the sum could pass the cap
        if len(acc) + len(power) > NEUMANN_SUPPORT_CAP and \
                len(acc) + len(power.keys() - acc.keys()) > NEUMANN_SUPPORT_CAP:
            raise CapExceededError(
                f"{label} support would pass NEUMANN_SUPPORT_CAP = {NEUMANN_SUPPORT_CAP}: "
                f"{K - 1} terms used, {len(acc)} support elements held")
        term, scale = power, 1
        if coeff is not None:
            fk = coeff(K)
            if not cmath.isfinite(fk):
                raise ValidationError(f"series coefficient f_{K} = {fk!r} is not finite")
            if fk == 0:
                continue
            scale = complex(fk)
            term = {k: nv for k, v in power.items() if (nv := v * scale) != 0}
        for k, v in term.items():
            cur = acc.get(k)
            acc[k] = v if cur is None else (cur[0] + v[0], cur[1] + v[1]) if gauss else cur + v
        dropped += power_dropped * abs(scale)
        added = True
    if not added:
        return start, K, tail
    if u.backend == FLOAT and not all(map(cmath.isfinite, acc.values())):
        raise ValidationError(f"{label} series sum is not finite: a value passed the float range")
    return AlgebraElement._keyed(basis, acc, u.backend, T, dropped, mags, den=den,
                                 gauss=gauss), K, tail


def _unit_residual(a: AlgebraElement, b: AlgebraElement, w: WeightFn) -> float:
    """||a * b - eps||_w, the norm of `convolve(a, b) - eps` taken on the
    product's keys, without building the difference.  A weight other than
    the unit is evaluated at each nonzero key's magnitude, as
    `weighted_norm` does.
    """
    _, _, sa, sb, out, _ = _product(a, b)
    zk = a.basis.zero_key
    den, gauss = sa.den * sb.den, sa.gauss
    v0 = out.get(zk, (0, 0) if gauss else 0)
    out[zk] = (v0[0] - den, v0[1]) if gauss else v0 - den  # eps is den / den
    mag = None if w.kind == ONE else a.basis.key_magnitude
    total = 0
    for k, v in out.items():
        m = _num_abs(v, gauss, den)
        if m != 0.0:
            total += m if mag is None else m * w.eval_mag(mag(k))
    return total


def _inverse(a0, den: int, gauss: bool, backend: str, label: str = "inverse"):
    """1 / (a0 / den) as a scalar (numerator, denominator > 0, gauss) of
    `backend`, for `AlgebraElement._times`.  Exact, it is den c / n0 with
    c = conj a0 and n0 = |a0|^2 for a pair, c = sign a0 and n0 = |a0| for
    an int.  A float 1/a0 past the float range (a0 subnormal) raises
    ValidationError: the `label` of what it scales is not finite."""
    if backend == FLOAT:
        inv = 1.0 / a0
        if not cmath.isfinite(inv):
            raise ValidationError(f"{label} is not finite: 1/a(0) = {inv!r} passes the float "
                                  f"range (a(0) = {a0!r})")
        return inv, 1, False
    if gauss:
        re, im = a0
        return (re * den, -im * den), re * re + im * im, True
    return (den if a0 > 0 else -den), abs(a0), False


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
    the loop (`_fraction_free`).  A float a(0) whose reciprocal passes the
    float range raises ValidationError.
    """
    zk = a.basis.zero_key
    a0 = a._nums.get(zk)
    if a0 is None:
        raise SingularElementError("constant term vanishes; no inverse in the algebra")
    support = {k: v for k, v in a._nums.items() if k != zk}
    if not support:
        num, den, gauss = _inverse(a0, a._den, a._gauss, a.backend, "graded inverse")
        return AlgebraElement._keyed(a.basis, {zk: num}, a.backend, truncation, den=den,
                                     gauss=gauss)
    side = _side(support, a._den, a._gauss, a._magnitudes(), by_mag=True)
    exps = a._exponent_maps()
    elements = enumerate_monoid(KeyedElements(a.basis, side.keys, side.mags,
                                              [exps[k] for k in side.keys] if exps else None),
                                truncation, cap)
    keys, mags = elements.keys, elements.mags
    limit = cutoff(truncation)
    if a.backend == EXACT:
        first, solve, den = _fraction_free(a0, a._den, side, len(keys), limit)
    else:
        first, den, _ = _inverse(a0, 1, False, FLOAT, "graded inverse")

        def solve(s):
            return -(first * s)

    acc: dict = {}
    out = {zk: first}
    gauss = side.gauss

    def outer():
        for k, m in zip(keys, mags):
            if k == zk:
                blam = first
            else:
                s = acc.get(k)
                if s is None:
                    continue  # not reachable as support-sum (cannot happen by construction)
                blam = out[k] = solve(s)
            if _nonzero(blam, gauss):
                yield k, m, blam

    # pairs past the truncation have no part in the inverse: no dropped mass
    _pair_kernel(outer(), side, limit, acc, key_combine(a.basis))
    exps = elements.exponents
    return AlgebraElement._keyed(a.basis, out, a.backend, truncation, mags=dict(zip(keys, mags)),
                                 exps=exps and dict(zip(keys, exps)), den=den, gauss=gauss)


def _fraction_free(alpha0, den: int, side: "_Side", n_elements: int, limit: float):
    """The exact graded recursion on Gaussian integers.

    With a = alpha / den and 1/alpha(0) = c / n0 (`_inverse`), the
    recursion b(lambda) = -(c / n0) sum alpha b runs on beta = n0^H b,
    where H is at least the longest chain of support steps plus one: then
    every beta is a Gaussian integer and each division by n0 is exact,
    which is checked.  Returns beta(0), the step s -> beta and n0^H, the
    denominator of every beta.
    """
    c, n0, _ = _inverse(alpha0, 1, side.gauss, EXACT)
    H = 1
    if n0 != 1:
        # a chain of k steps below the cutoff has k <= limit / (smallest
        # support magnitude), and k < n_elements
        H = n_elements
        if side.mags[0] > 0.0:
            H = min(H, int(limit / side.mags[0] * (1.0 + 1e-9)) + 2)
    scale0 = den * n0 ** (H - 1)

    def divide(t):
        quot, rem = divmod(t, n0)
        if rem:
            raise AssertionError("graded_invert: inexact division by n0")
        return quot

    if side.gauss:
        cr, ci = c

        def solve(s):
            sr, si = s
            return divide(ci * si - cr * sr), divide(-(cr * si + ci * sr))

        return (cr * scale0, ci * scale0), solve, n0 ** H
    return c * scale0, lambda s: divide(-c * s), n0 ** H


# -- the pair kernel --------------------------------------------------------
#
# Every product loop of the algebra runs on element keys
# (`SemigroupElement.key`): integers that multiply over a free basis (the key
# of log n over the log-primes basis is n), the elements themselves, which
# add, over an embedded basis.  An exact operand enters as the numerators it
# stores, over its own denominator, so no Fraction is made inside a loop.


class _Side(NamedTuple):
    """One operand: keys, magnitudes and values, index-aligned."""
    keys: list
    mags: Optional[list]
    vals: list
    den: int                 # common denominator of exact numerators; 1 for float
    gauss: bool              # exact numerators are (re, im) pairs, else ints


def _side(nums: dict, den: int, gauss: bool, mags: Optional[dict] = None,
          by_mag: bool = False) -> _Side:
    """Operand from {key: numerator} over `den` (`_terms_in`).  Given
    `mags` ({key: magnitude}; none when there is no cutoff to test), it
    carries the magnitudes, and `by_mag` sorts the terms stably by them;
    otherwise their order stays."""
    items = list(nums.items())
    if by_mag and mags is not None:
        items.sort(key=lambda kv: mags[kv[0]])
    keys = [k for k, _ in items]
    ms = None if mags is None else [mags[k] for k in keys]
    return _Side(keys, ms, [v for _, v in items], den, gauss)


def _gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _nonzero(v, gauss: bool) -> bool:
    return bool(v[0] or v[1]) if gauss else v != 0


def _num_abs(v, gauss: bool, den: int) -> float:
    """|v / den| as a float.  Integer numerators are divided by the integer
    denominator before anything becomes a float, so neither may pass the
    float range on its own."""
    if gauss:
        return math.hypot(v[0] / den, v[1] / den)
    return abs(v) / den


def _pair_kernel(outer, inner: _Side, limit: Optional[float], out: dict, combine,
                 outer_den: Optional[int] = None) -> float:
    """out[combine(ka, kb)] += va * vb over the pairs with ma + mb <= limit.

    `outer` yields (key, magnitude, value) and is consumed in order, one
    term at a time (graded inversion derives each term from `out` as it
    goes); `inner` is sorted by magnitude unless limit is None (no cutoff).
    `row_end` finds where each row breaks, by the float sum ma + mb itself.
    The pairs past it are dropped.  Given `outer_den`, the common
    denominator of the outer values, their mass (|va| times a suffix sum of
    |vb|, both as values) is returned; without it, 0.0.  Keys within one
    row are distinct, so each sum runs in outer order, and `out` holds the
    keys in the order they are first reached.
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
                out[k] = (pr, pi) if cur is None else (cur[0] + pr, cur[1] + pi)
        else:
            for kb, vb in row:
                k = combine(ka, kb)
                p = va * vb
                cur = get(k)
                out[k] = p if cur is None else cur + p
    return dropped


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
    c = np.array([complex(v) for v in a.coeffs.values()], dtype=complex)
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
        coeffs[n] = coeffs.get(n, 0j) + complex(v)
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
        """f_k of exp or a coefficient list (0 past its degree).  A reciprocal
        is summed as its Neumann series and has none: PreconditionError."""
        if self.kind == "exp":
            try:
                return 1.0 / math.factorial(k)
            except OverflowError:  # k! is past the float range; 1/k! is not
                return 1 / math.factorial(k)
        if self.kind == "reciprocal":
            raise PreconditionError("a reciprocal series is summed as its Neumann series, "
                                    "not by coefficient")
        return self.coeff_list[k] if k < len(self.coeff_list) else 0.0

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
                return cls.reciprocal(_complex_value(data["center"]))
            if kind == "coeffs":
                return cls.from_coeffs([_complex_value(c) for c in data["coeffs"]],
                                       _complex_value(data.get("center", 0.0)),
                                       float(data.get("radius", math.inf)))
        except (KeyError, OverflowError, TypeError, ValueError) as e:
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
    """c = sum_k f_k u^{*k}, u = a - c0 eps, truncated by a geometric tail bound.

    Requires q = ||u||_w < radius.  A coefficient list is summed to its
    degree (tail 0), exp with tail C (q/R)^(K+1) / (1 - q/R), C = max_k R^k/k!,
    and the reciprocal 1/z around c as its Neumann series (1/c) sum_k
    (-u/c)^{*k}, tail (1/|c|) (q/|c|)^(K+1) / (1 - q/|c|).  Returns (element,
    CompositionCertificate).  A tol that is not > 0 (NaN included), a
    non-finite f_k or a sum past the float range raises ValidationError;
    more than max_terms terms, or a partial sum whose support would grow
    past NEUMANN_SUPPORT_CAP, raises CapExceededError.
    """
    if w is None:
        w = weight_one()
    one = unit(a.basis, a.backend)
    u = a.add(one.scale(complex(f.center)).negate())  # float
    q = weighted_norm(u, w)
    if not q < f.radius:
        raise PreconditionError(
            f"composition outside convergence radius: ||a - c0||_w = {q} >= {f.radius}"
            f" (gap {q - f.radius})")
    if f.kind == "coeffs":  # polynomial: sum every term, the tail is exactly zero
        tails = chain(repeat(math.inf, max(len(f.coeff_list) - 1, 0)), [0.0])
    else:
        ratio = q / f.radius  # sup_k |f_k| R^k: 1/|c| for 1/z, R^k/k! peaks near k = R
        try:
            C = 1.0 / f.radius if f.kind == "reciprocal" else \
                max(f.radius ** k / math.factorial(k) for k in range(math.ceil(f.radius) + 2))
        except OverflowError:
            raise PreconditionError(
                f"exp majorant passes the float range at working radius {f.radius}") from None
        tails = (C * ratio ** (K + 1) / (1.0 - ratio) if ratio > 0 else 0.0 for K in count())
    if f.kind == "reciprocal":  # (1/c) sum_k (-u/c)^{*k}, as `neumann_invert` sums a(0)
        inv_c = (_complex(1.0 / f.center), 1, False)  # a subnormal c: ValidationError
        c, K, tail = _power_sum("composition", u._times(inv_c, FLOAT).negate(), one, None,
                                tails, tol, max_terms)
        c = c._times(inv_c, FLOAT)
    else:
        c, K, tail = _power_sum("composition", u, one.scale(f.coeff(0)), f.coeff, tails, tol,
                                max_terms)
    return c, CompositionCertificate(q=q, radius=f.radius, terms_used=K, tail_bound=tail)


# -- the disk minimum (witnesses and the multiplicative layer) --------------


class DiskMinimum(NamedTuple):
    minimum: float
    argmin: complex
    lower_bound: float
    lipschitz: float
    mesh: float
    points: int  # evaluations of p the scan made, cluster anchors included


def min_modulus_on_disk(poly_coeffs, step: float = 0.02, boundary: int = 512):
    """(min |p(z)|, argmin, certified lower bound) over the closed unit disk.

    p(z) = sum_k poly_coeffs[k] z^k; see `_disk_minimum` for the grid and
    the bound.
    """
    return _disk_minimum(dict(enumerate(poly_coeffs)), step, boundary)[:3]


def _disk_minimum(terms: dict, step: float, boundary: int) -> DiskMinimum:
    """Minimum of |p(z)| over the disk grid, with a rigorous lower bound.

    p(z) = sum over terms {k: a_k} of a_k z^k.  The grid (`disk._disk_grid`)
    is the square lattice of step h, with the points outside the disk
    pulled radially onto the unit circle, followed by `boundary` equally
    spaced circle points.  The first minimum in grid order of |p| evaluated
    by Horner's rule is returned; `disk._grid_argmin` finds it without
    evaluating the grid clusters that cannot hold it.

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
    n = max(terms, default=0)
    L = sum(m * abs(c) for m, c in terms.items())
    A = sum(abs(c) for c in terms.values())
    argmin, best, points = _grid_argmin(terms, n, A, step, boundary)
    mm = (4 * n + 2) * _UNIT_ROUNDOFF
    rho = mm / (1.0 - mm) * (A + L)
    mesh = step * math.sqrt(2.0)
    tau = (26 * n + 38) * _UNDERFLOW if terms else 0.0
    return DiskMinimum(best, argmin, best - L * mesh - rho - tau, L, mesh, points)
