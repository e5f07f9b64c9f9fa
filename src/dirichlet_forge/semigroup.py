"""Finitely generated additive subsemigroups of [0, inf)^r.

A basis is either FREE (elements are nonnegative integer exponent maps over
the generators, as in power series over N_0 or ordinary Dirichlet series
over {log n}) or EMBEDDED (elements are exact rational r-vectors, addition is
coordinatewise).  Real embedded values are used only for ordering, truncation
cutoffs and weight evaluation; identity-critical paths stay exact.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import ValidationError, BasisMismatchError, CapExceededError
from .exactnum import as_fraction, format_frac, parse_frac
from . import ratlin
from .sieves import primes_upto, factorize

FREE = "free"
EMBEDDED = "embedded"


@dataclass(frozen=True)
class Generator:
    id: int
    value: tuple  # floats, length r
    exact: Optional[tuple] = None  # Fractions, length r, or None (irrational)
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in self.value))
        if self.exact is not None:
            object.__setattr__(self, "exact", tuple(as_fraction(q) for q in self.exact))
            for q, v in zip(self.exact, self.value, strict=True):
                if abs(float(q) - v) > 1e-9 * (1.0 + abs(v)):
                    raise ValidationError(
                        f"generator {self.id}: exact coordinates disagree with float value")
        if any(v < 0 for v in self.value):
            raise ValidationError(f"generator {self.id}: coordinates must be nonnegative")
        if all(v == 0 for v in self.value):
            raise ValidationError(f"generator {self.id}: zero generator not allowed")


@dataclass(frozen=True)
class SemigroupBasis:
    mode: str
    r: int
    generators: tuple

    def __post_init__(self):
        if self.mode not in (FREE, EMBEDDED):
            raise ValidationError(f"unknown basis mode {self.mode!r}")
        object.__setattr__(self, "generators", tuple(self.generators))
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate generator ids")
        for g in self.generators:
            if len(g.value) != self.r:
                raise ValidationError(f"generator {g.id}: expected {self.r} coordinates")
        if self.mode == EMBEDDED:
            for g in self.generators:
                if g.exact is None:
                    raise ValidationError("embedded mode requires exact rational generators")
        # When every generator carries exact coordinates, declared freeness is
        # checkable: verify Q-linear independence by exact rank.
        if self.mode == FREE and self.generators and all(g.exact is not None for g in self.generators):
            vecs = [g.exact for g in self.generators]
            if ratlin.rank(vecs) != len(vecs):
                raise ValidationError("free basis generators are Q-linearly dependent")

    @cached_property
    def by_id(self) -> dict:
        return {g.id: g for g in self.generators}

    @cached_property
    def key_primes(self) -> dict:
        """Generator id -> the prime of its position (2 for the first, 3 for
        the second, ...): the Goedel numbering behind element keys."""
        bound, primes = 16, primes_upto(16)
        while len(primes) < len(self.generators):
            bound *= 2
            primes = primes_upto(bound)
        return {g.id: p for g, p in zip(self.generators, primes)}

    @cached_property
    def label_ids(self) -> dict:
        return {g.label: g.id for g in self.generators}

    @cached_property
    def _hash(self) -> int:
        return hash((self.mode, self.r, tuple((g.id, g.value, g.exact) for g in self.generators)))

    def __hash__(self):
        return self._hash

    def zero(self) -> "SemigroupElement":
        if self.mode == FREE:
            return SemigroupElement(self, exponents=())
        return SemigroupElement(self, coords=tuple(Fraction(0) for _ in range(self.r)))

    def element(self, exponents=None, coords=None) -> "SemigroupElement":
        if self.mode == FREE:
            if exponents is None:
                raise ValidationError("free basis elements need an exponent map")
            if isinstance(exponents, dict):
                exponents = tuple(sorted((int(i), int(n)) for i, n in exponents.items() if n))
            return SemigroupElement(self, exponents=tuple(exponents))
        if coords is None:
            raise ValidationError("embedded basis elements need coordinates")
        return SemigroupElement(self, coords=tuple(as_fraction(c) for c in coords))

    def generator_element(self, gid: int) -> "SemigroupElement":
        if self.mode != FREE:
            g = self.by_id[gid]
            return self.element(coords=g.exact)
        return self.element(exponents=((gid, 1),))

    def element_from_json(self, data: dict) -> "SemigroupElement":
        return SemigroupElement.from_json(self, data)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "r": self.r,
            "generators": [
                {
                    "id": g.id,
                    "value": list(g.value),
                    "exact": None if g.exact is None else [format_frac(q) for q in g.exact],
                    "label": g.label,
                }
                for g in self.generators
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SemigroupBasis":
        try:
            gens = tuple(
                Generator(
                    id=int(g["id"]),
                    value=tuple(g["value"]),
                    exact=None if g.get("exact") is None else tuple(parse_frac(s) for s in g["exact"]),
                    label=g.get("label", ""),
                )
                for g in data["generators"]
            )
            return cls(mode=data["mode"], r=int(data["r"]), generators=gens)
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed basis JSON: {e}") from e


class SemigroupElement:
    """Immutable element of the semigroup generated by a basis."""

    __slots__ = ("basis", "exponents", "coords", "_mag", "_val", "_key")

    def __init__(self, basis: SemigroupBasis, exponents=None, coords=None):
        self.basis = basis
        if basis.mode == FREE:
            exps = tuple(sorted((i, n) for i, n in (exponents or ()) if n != 0))
            for gid, n in exps:
                if gid not in basis.by_id:
                    raise ValidationError(f"unknown generator id {gid}")
                if n < 0:
                    raise ValidationError("exponents must be nonnegative")
            self.exponents = exps
            self.coords = None
        else:
            cs = tuple(coords or ())
            if len(cs) != basis.r:
                raise ValidationError(f"expected {basis.r} coordinates")
            if any(c < 0 for c in cs):
                raise ValidationError("embedded coordinates must be nonnegative")
            self.coords = cs
            self.exponents = None
        self._mag = None
        self._val = None
        self._key = None

    @classmethod
    def _trusted(cls, basis, exponents, coords, mag, key=None) -> "SemigroupElement":
        """An element from already validated parts (sorted positive exponents)."""
        out = object.__new__(cls)
        out.basis, out.exponents, out.coords = basis, exponents, coords
        out._mag, out._val, out._key = mag, None, key
        return out

    def key(self):
        """Hashable key, additive as a product: over a free basis the integer
        prod p_i^n_i with p_i the prime of generator i's position (so log n
        over the log-primes basis has key n, and keys of sums multiply); over
        an embedded basis the element itself (keys of sums add)."""
        if self.basis.mode != FREE:
            return self
        if self._key is None:
            primes = self.basis.key_primes
            k = 1
            for gid, n in self.exponents:
                k *= primes[gid] ** n
            self._key = k
        return self._key

    def embedded_value(self) -> tuple:
        if self._val is None:
            if self.basis.mode == FREE:
                acc = [0.0] * self.basis.r
                for gid, n in self.exponents:
                    gv = self.basis.by_id[gid].value
                    for k in range(self.basis.r):
                        acc[k] += n * gv[k]
                self._val = tuple(acc)
            else:
                self._val = tuple(float(c) for c in self.coords)
        return self._val

    def exact_value(self):
        """Exact rational coordinates, or None when any generator lacks them."""
        if self.basis.mode == EMBEDDED:
            return self.coords
        acc = [Fraction(0)] * self.basis.r
        for gid, n in self.exponents:
            ex = self.basis.by_id[gid].exact
            if ex is None:
                return None
            for k in range(self.basis.r):
                acc[k] += n * ex[k]
        return tuple(acc)

    def l1(self) -> float:
        """|lambda|_1 of the embedded value; additive under +."""
        if self._mag is None:
            self._mag = float(sum(self.embedded_value()))
        return self._mag

    def is_zero(self) -> bool:
        if self.basis.mode == FREE:
            return not self.exponents
        return all(c == 0 for c in self.coords)

    def sort_key(self):
        if self.basis.mode == FREE:
            return (self.l1(), self.exponents)
        return (self.l1(), self.coords)

    def __add__(self, other: "SemigroupElement") -> "SemigroupElement":
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("elements belong to different bases")
        mag = None
        if self._mag is not None and other._mag is not None:
            mag = self._mag + other._mag
        if self.basis.mode == FREE:
            merged = dict(self.exponents)
            for gid, n in other.exponents:
                merged[gid] = merged.get(gid, 0) + n
            exps = tuple(merged.items())
            if len(exps) != len(self.exponents):  # a generator new to self
                exps = tuple(sorted(exps))
            key = None
            if self._key is not None and other._key is not None:
                key = self._key * other._key
            return SemigroupElement._trusted(self.basis, exps, None, mag, key)
        return SemigroupElement._trusted(
            self.basis, None, tuple(a + b for a, b in zip(self.coords, other.coords)), mag)

    def subtract(self, other: "SemigroupElement"):
        """self - other within the semigroup, or None if it leaves it."""
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("elements belong to different bases")
        if self.basis.mode == FREE:
            merged = dict(self.exponents)
            for gid, n in other.exponents:
                m = merged.get(gid, 0) - n
                if m < 0:
                    return None
                merged[gid] = m
            return SemigroupElement(self.basis, exponents=tuple(sorted(merged.items())))
        cs = []
        for a, b in zip(self.coords, other.coords):
            c = a - b
            if c < 0:
                return None
            cs.append(c)
        return SemigroupElement(self.basis, coords=tuple(cs))

    def __eq__(self, other):
        if not isinstance(other, SemigroupElement):
            return NotImplemented
        if self.basis.mode == FREE:
            return self.exponents == other.exponents and (
                self.basis is other.basis or self.basis == other.basis)
        return self.coords == other.coords and (
            self.basis is other.basis or self.basis == other.basis)

    def __hash__(self):
        return hash(self.exponents if self.basis.mode == FREE else self.coords)

    def exponent_map(self, by_label: bool = False) -> dict:
        if self.basis.mode != FREE:
            raise ValidationError("exponent map defined for free bases only")
        if by_label:
            return {self.basis.by_id[gid].label: n for gid, n in self.exponents}
        return dict(self.exponents)

    def to_json(self) -> dict:
        if self.basis.mode == FREE:
            return {"exponents": {str(gid): n for gid, n in self.exponents}}
        return {"coords": [format_frac(c) for c in self.coords]}

    @classmethod
    def from_json(cls, basis: SemigroupBasis, data: dict) -> "SemigroupElement":
        try:
            if "exponents" not in data:
                return basis.element(coords=[parse_frac(s) for s in data["coords"]])
            exps = data["exponents"]
            pairs = sorted((int(k), int(v)) for k, v in exps.items())
            if basis.mode != FREE or (len(pairs) > 1 and len({g for g, _ in pairs}) < len(pairs)):
                # the errors, and the later of two keys naming one id, as
                # `basis.element` gives them
                return basis.element(exponents={int(k): int(v) for k, v in exps.items()})
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed element JSON: {e}") from e
        # one sort, then the checks of __init__ in the same order
        by_id = basis.by_id
        out = []
        for gid, n in pairs:
            if n:
                if gid not in by_id:
                    raise ValidationError(f"unknown generator id {gid}")
                if n < 0:
                    raise ValidationError("exponents must be nonnegative")
                out.append((gid, n))
        return cls._trusted(basis, tuple(out), None, None)

    def __repr__(self):
        if self.basis.mode == FREE:
            return f"Elem({dict(self.exponents)})"
        return f"Elem({[str(c) for c in self.coords]})"


def check_q_independence(vectors) -> bool:
    """Exact Q-linear independence of rational vectors."""
    vecs = [tuple(as_fraction(x) for x in v) for v in vectors]
    if not vecs:
        return True
    return ratlin.rank(vecs) == len(vecs)


# Most search nodes membership's exhaustive search may visit.  With k
# dependent generators the search can visit (bound + 1)^k nodes; past the
# cap it raises CapExceededError with the partial counts.  Override by
# assignment.
MEMBERSHIP_NODE_CAP = 1_000_000


def membership(target, basis: SemigroupBasis, bound: int = 32):
    """Exponents nu in N_0^k with target = sum nu_k beta_k, or None.

    Exact throughout.  For a Q-independent generator set the representation
    is unique and found by linear solve; otherwise a bounded exhaustive
    search (componentwise pruned, lexicographic first hit) is used.  The
    search raises CapExceededError once it would visit more than
    MEMBERSHIP_NODE_CAP nodes.
    """
    gens = basis.generators
    if not gens:
        return None
    for g in gens:
        if g.exact is None:
            raise ValidationError("membership requires exact generator coordinates")
    if isinstance(target, SemigroupElement):
        tv = target.exact_value()
        if tv is None:
            raise ValidationError("membership requires exact target coordinates")
    else:
        tv = tuple(as_fraction(x) for x in target)
    if len(tv) != basis.r:
        raise ValidationError("target has wrong dimension")

    cols = [g.exact for g in gens]
    if check_q_independence(cols):
        # unique candidate: solve the (r x k) system exactly
        rows = [tuple(col[i] for col in cols) for i in range(basis.r)]
        sol = ratlin.solve(rows, tv)
        if sol is None:
            return None
        if all(s.denominator == 1 and s >= 0 for s in sol):
            return {g.id: int(s) for g, s in zip(gens, sol) if s != 0} or {}
        return None

    k = len(gens)
    out = [0] * k
    cap_nodes = MEMBERSHIP_NODE_CAP
    nodes = 0

    def rec(i, remaining):
        nonlocal nodes
        nodes += 1
        if nodes > cap_nodes:
            raise CapExceededError(
                f"membership search passed MEMBERSHIP_NODE_CAP = {cap_nodes} nodes: "
                f"{nodes - 1} visited, at generator index {i} of {k}, bound {bound}")
        if all(c == 0 for c in remaining):
            return True
        if i == k:
            return False
        g = cols[i]
        # max exponent for generator i limited by remaining coordinates
        cap = bound
        for c, rc in zip(g, remaining):
            if c > 0:
                cap = min(cap, int(rc / c))
        for n in range(0, cap + 1):
            out[i] = n
            rem2 = tuple(rc - n * c for rc, c in zip(remaining, g))
            if all(rc >= 0 for rc in rem2) and rec(i + 1, rem2):
                return True
        out[i] = 0
        return False

    if rec(0, tv):
        return {g.id: n for g, n in zip(gens, out) if n != 0} or {}
    return None


def row_end(mags, m: float, limit: float) -> int:
    """Number of leading entries of the ascending list `mags` with
    m + mag <= limit, by the same float sum the cutoff test uses: a
    bisection at limit - m, then a step across the boundary where that
    subtraction rounded the other way."""
    j = bisect_right(mags, limit - m)
    while j < len(mags) and m + mags[j] <= limit:
        j += 1
    while j > 0 and m + mags[j - 1] > limit:
        j -= 1
    return j


def key_combine(basis: SemigroupBasis):
    """How keys of two elements combine into the key of their sum."""
    return operator.mul if basis.mode == FREE else operator.add


def enumerate_monoid(support, truncation: float, cap: int = 200_000):
    """All sums of `support` elements with |.|_1 <= truncation, sorted.

    Sorted by (|.|_1, exponent key); includes zero.  `cap` bounds the number
    of enumerated elements.  The breadth-first search runs on element keys
    (`SemigroupElement.key`); each element is built once, from the first
    (parent, generator) pair that reached it, so its magnitude is the sum
    along that path.
    """
    if isinstance(support, SemigroupBasis):
        basis = support
        support = [basis.generator_element(g.id) for g in basis.generators]
    if not support:
        raise ValidationError("empty support")
    basis = support[0].basis
    gens = sorted((s for s in support if not s.is_zero()), key=lambda e: e.sort_key())
    gmags = [s.l1() for s in gens]
    rows = [(s.key(), sm, i) for i, (s, sm) in enumerate(zip(gens, gmags))]
    limit = truncation + 1e-9 * (1.0 + abs(truncation))
    combine = key_combine(basis)
    zero = basis.zero()
    z = zero.key()
    mag = {z: zero.l1()}
    parent = {}  # key -> (parent key, generator index), in discovery order
    frontier = [z]
    while frontier:
        nxt = []
        for mu in frontier:
            m = mag[mu]
            for sk, sm, i in rows[:row_end(gmags, m, limit)]:  # gens sorted by magnitude
                nu = combine(mu, sk)
                if nu not in mag:
                    mag[nu] = m + sm
                    parent[nu] = (mu, i)
                    if len(mag) > cap:
                        raise CapExceededError(
                            f"monoid enumeration exceeded cap {cap} below cutoff {truncation}")
                    nxt.append(nu)
        frontier = nxt
    elems = {z: zero}
    for nu, (mu, i) in parent.items():
        elems[nu] = elems[mu] + gens[i]
    return sorted(elems.values(), key=lambda e: e.sort_key())


# --- basis factories -------------------------------------------------------

def natural_basis() -> SemigroupBasis:
    """Lambda = N_0: single free generator of magnitude 1 (power series)."""
    return SemigroupBasis(FREE, 1, (Generator(0, (1.0,), (Fraction(1),), "1"),))


def free_rational_basis(columns, labels=None) -> SemigroupBasis:
    """FREE basis from exact rational coordinate tuples."""
    gens = []
    for i, col in enumerate(columns):
        ex = tuple(as_fraction(c) for c in col)
        gens.append(Generator(i, tuple(float(c) for c in ex), ex,
                    labels[i] if labels else ""))
    r = len(gens[0].value) if gens else 0
    return SemigroupBasis(FREE, r, tuple(gens))


def embedded_basis(columns, labels=None) -> SemigroupBasis:
    gens = []
    for i, col in enumerate(columns):
        ex = tuple(as_fraction(c) for c in col)
        gens.append(Generator(i, tuple(float(c) for c in ex), ex,
                    labels[i] if labels else ""))
    r = len(gens[0].value) if gens else 0
    return SemigroupBasis(EMBEDDED, r, tuple(gens))


def log_primes_basis(limit: int) -> SemigroupBasis:
    """Lambda = {log n}: free generators log p for primes p <= limit.

    The log p are Q-linearly independent (unique factorization), so the
    basis is declared free with exact=None.
    """
    ps = primes_upto(limit)
    gens = tuple(Generator(i, (math.log(p),), None, f"log{p}") for i, p in enumerate(ps))
    return SemigroupBasis(FREE, 1, gens)


def log_element(basis: SemigroupBasis, n: int) -> SemigroupElement:
    """The element log n over a log-primes basis."""
    if basis.mode != FREE:
        raise ValidationError("log elements need a free basis")
    labels = basis.label_ids
    exps = []
    for p, k in factorize(n).items():
        gid = labels.get(f"log{p}")
        if gid is None:
            raise ValidationError(f"prime {p} outside basis range")
        exps.append((gid, k))
    exps.sort()
    return SemigroupElement._trusted(basis, tuple(exps), None, None)
