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
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import ValidationError, BasisMismatchError, CapExceededError
from .exactnum import as_fraction, format_frac, parse_frac
from . import ratlin
from .sieves import factorize, primes_upto, spf_sieve

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

    @classmethod
    def _trusted(cls, id: int, value: tuple, exact=None, label: str = "") -> "Generator":
        """A generator from parts already valid: float coordinates, all
        nonnegative and not all zero, and exact ones (or None) that agree."""
        out = object.__new__(cls)
        vars(out).update(id=id, value=value, exact=exact, label=label)
        return out


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
        if (self.mode == FREE and all(g.exact is not None for g in self.generators)
                and not check_q_independence(g.exact for g in self.generators)):
            raise ValidationError("free basis generators are Q-linearly dependent")

    @cached_property
    def by_id(self) -> dict:
        return {g.id: g for g in self.generators}

    @cached_property
    def key_primes(self) -> dict:
        """Generator id -> the prime of its position (2 for the first, 3 for
        the second, ...): the Goedel numbering behind element keys."""
        primes = primes_upto(_prime_bound(len(self.generators)))
        return {g.id: p for g, p in zip(self.generators, primes)}

    @cached_property
    def _prime_ids(self) -> dict:
        """Key prime -> generator id, primes ascending."""
        return {p: gid for gid, p in self.key_primes.items()}

    @cached_property
    def _log_table(self) -> tuple:
        """(prime p -> id of the generator labelled exactly f"log{p}", an
        SPF table up to the largest such p), built on first use by
        `log_element`.  The table stops at the bound on the
        len(generators)-th prime, so no label can make it large."""
        ids = {}
        for g in self.generators:
            digits = g.label[3:] if isinstance(g.label, str) and g.label[:3] == "log" else ""
            if digits.isascii() and digits.isdigit() and digits[0] != "0":
                with suppress(ValueError):  # past int's digit limit: no n reaches such a factor
                    ids[int(digits)] = g.id
        return ids, spf_sieve(min(max(ids, default=1), _prime_bound(len(self.generators))))

    @cached_property
    def _log_maps(self) -> dict:
        """n -> (exponent map, key or None) of the log n `log_element` has
        built, for n inside the `_log_table` SPF table only: the dict is no
        larger than that table, and holds no element."""
        return {1: ((), 1)}

    @cached_property
    def zero_key(self):
        return self.zero().key()

    def key_exponents(self, key: int, known: Optional[dict] = None) -> tuple:
        """The sorted exponent map of the free element keyed `key`: its
        factorization over the key primes.  `known` maps keys to their maps
        already found; when it holds the quotient by the smallest key prime
        dividing `key`, that map is extended by one step instead."""
        if known is not None and key in known:
            return known[key]
        exps = []
        for p, gid in self._prime_ids.items():
            if key == 1:
                break
            if p * p > key:  # what is left is a single key prime
                exps.append((self._prime_ids[key], 1))
                break
            if key % p == 0:
                q = None if known is None or exps else known.get(key // p)
                if q is not None:
                    if q and q[0][0] == gid:
                        return ((gid, q[0][1] + 1),) + q[1:]
                    if not q or q[0][0] > gid:
                        return ((gid, 1),) + q
                n = 0
                while key % p == 0:
                    key //= p
                    n += 1
                exps.append((gid, n))
        exps.sort()
        return tuple(exps)

    def magnitude(self, exponents) -> float:
        """|lambda|_1 of the free element with these sorted exponents: the
        float sum of its embedded value, itself summed in generator order."""
        if self.r != 1:
            return float(sum(self._free_value(exponents)))
        acc, line = 0.0, self._line  # the same sums as for r = 1, with no tuple
        for gid, n in exponents:
            acc += n * line[gid]
        return acc

    @cached_property
    def _line(self) -> dict:
        return {g.id: g.value[0] for g in self.generators}

    def _free_value(self, exponents) -> tuple:
        by_id, r = self.by_id, self.r
        acc = [0.0] * r
        for gid, n in exponents:
            gv = by_id[gid].value
            for k in range(r):
                acc[k] += n * gv[k]
        return tuple(acc)

    def key_magnitude(self, key, known: Optional[dict] = None) -> float:
        """|lambda|_1 of the element keyed `key`; over a free basis its
        exponent map is found as `key_exponents` does and put in `known`."""
        if self.mode != FREE:
            return key.l1()
        exps = self.key_exponents(key, known)
        if known is not None:
            known[key] = exps
        return self.magnitude(exps)

    def key_element(self, key, mag: Optional[float] = None, exponents=None):
        """The element keyed `key` (see `SemigroupElement.key`); its
        magnitude and exponent map are taken as given when known."""
        if self.mode != FREE:
            return key
        return SemigroupElement._trusted(self, exponents or self.key_exponents(key), None, key,
                                         mag)

    def json_key(self, data: dict):
        """The key of the element `SemigroupElement.from_json` reads from
        `data`, without building it; malformed data goes to that method,
        which raises."""
        try:
            if self.mode == FREE:
                # a dict, so that the later of two keys naming one id counts
                exps = {int(g): int(n) for g, n in data["exponents"].items()}
                key, primes = 1, self.key_primes
                for gid, n in exps.items():
                    if n < 0 or gid not in primes:
                        break
                    key *= primes[gid] ** n
                else:
                    return key
        except (KeyError, TypeError, ValueError, AttributeError):
            pass
        return SemigroupElement.from_json(self, data).key()

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
    def _trusted(cls, basis, exponents, coords, key=None, mag=None) -> "SemigroupElement":
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
            if self.basis.mode == FREE and self.basis.r == 1:
                self._val = (self.l1(),)  # the same sum (see `SemigroupBasis.magnitude`)
            elif self.basis.mode == FREE:
                self._val = self.basis._free_value(self.exponents)
            else:
                self._val = tuple(float(c) for c in self.coords)
        return self._val

    def l1(self) -> float:
        """|lambda|_1: the float sum of the embedded value, itself summed in
        generator order, so equal elements report equal magnitudes however
        they were built."""
        if self._mag is None:
            if self.basis.mode == FREE:
                self._mag = self.basis.magnitude(self.exponents)
            else:
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
        if self.basis.mode == FREE:
            key = None
            if self._key is not None and other._key is not None:
                key = self._key * other._key
            merged = dict(self.exponents)
            for gid, n in other.exponents:
                merged[gid] = merged.get(gid, 0) + n
            exps = tuple(merged.items())
            if len(exps) != len(self.exponents):  # a generator new to self
                exps = tuple(sorted(exps))
            return SemigroupElement._trusted(self.basis, exps, None, key)
        return SemigroupElement._trusted(
            self.basis, None, tuple(a + b for a, b in zip(self.coords, other.coords)))

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

    def to_json(self) -> dict:
        if self.basis.mode == FREE:
            return {"exponents": {str(gid): n for gid, n in self.exponents}}
        return {"coords": [format_frac(c) for c in self.coords]}

    @classmethod
    def from_json(cls, basis: SemigroupBasis, data: dict) -> "SemigroupElement":
        try:
            if "exponents" not in data:
                return basis.element(coords=[parse_frac(s) for s in data["coords"]])
            # a dict, so that the later of two keys naming one id counts
            return basis.element(exponents={int(k): int(v) for k, v in data["exponents"].items()})
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed element JSON: {e}") from e

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


def cutoff(truncation: float) -> float:
    """The largest magnitude kept under `truncation`: T + 1e-12 (1 + |T|).
    The slack covers the rounding of float magnitude sums.  Every
    truncation test (enumeration, products, inversion, and the check that a
    declared truncation holds) compares against it."""
    return truncation + 1e-12 * (1.0 + abs(truncation))


class KeyedElements(Sequence):
    """Elements of one basis held by key (`SemigroupElement.key`), with
    their magnitudes and, over a free basis, exponent maps (or None),
    index-aligned.  An element is built each time it is read."""

    __slots__ = ("basis", "keys", "mags", "exponents")

    def __init__(self, basis: SemigroupBasis, keys: list, mags: list, exponents=None):
        self.basis, self.keys, self.mags, self.exponents = basis, keys, mags, exponents

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i: int) -> "SemigroupElement":
        exps = None if self.exponents is None else self.exponents[i]
        return self.basis.key_element(self.keys[i], self.mags[i], exps)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))


def key_combine(basis: SemigroupBasis):
    """How keys of two elements combine into the key of their sum."""
    return operator.mul if basis.mode == FREE else operator.add


def enumerate_monoid(support, truncation: float, cap: int = 200_000) -> KeyedElements:
    """All sums of `support` elements with |.|_1 <= truncation, sorted.

    Sorted by (|.|_1, exponent key); includes zero.  `cap` bounds the number
    of enumerated elements.  `support` is a basis (its generators), a list
    of elements or a `KeyedElements`.  The breadth-first search runs on
    element keys: a support key keeps the support's magnitude and exponent
    map, any other key reached gets its canonical magnitude once (over a
    free basis from its exponent map, found from a quotient's), and no
    element is built until the returned sequence is read.
    """
    if isinstance(support, SemigroupBasis):
        support = [support.generator_element(g.id) for g in support.generators]
    if not len(support):
        raise ValidationError("empty support")
    if not isinstance(support, KeyedElements):
        basis = support[0].basis
        support = KeyedElements(basis, [e.key() for e in support], [e.l1() for e in support],
                                [e.exponents for e in support] if basis.mode == FREE else None)
    basis = support.basis
    free = basis.mode == FREE
    zk, keys, mags = basis.zero_key, support.keys, support.mags
    exps = {zk: ()}  # free: key -> exponent map, found once per key
    if free:
        ties = support.exponents or [basis.key_exponents(k, exps) for k in keys]
        exps.update(zip(keys, ties))
    else:
        ties = [k.coords for k in keys]
    given = dict(zip(keys, mags))  # canonical, as key_magnitude would find them
    gens = sorted((i for i, k in enumerate(keys) if k != zk),  # by sort_key
                  key=lambda i: (mags[i], ties[i]))
    gmags = [mags[i] for i in gens]
    gkeys = [keys[i] for i in gens]
    limit = cutoff(truncation)
    combine = key_combine(basis)
    found = {zk: 0.0}  # key -> magnitude
    frontier = [zk]
    while frontier:
        nxt = []
        for mk in frontier:
            for sk in gkeys[:row_end(gmags, found[mk], limit)]:  # gens sorted by magnitude
                nu = combine(mk, sk)
                if nu not in found:
                    m = given.get(nu)
                    found[nu] = basis.key_magnitude(nu, exps if free else None) if m is None else m
                    if len(found) > cap:
                        raise CapExceededError(
                            f"monoid enumeration exceeded cap {cap} below cutoff {truncation}")
                    nxt.append(nu)
        frontier = nxt
    order = sorted(found, key=(lambda k: (found[k], exps[k])) if free else
                   (lambda k: (found[k], k.coords)))
    return KeyedElements(basis, order, [found[k] for k in order],
                         [exps[k] for k in order] if free else None)


# --- basis factories -------------------------------------------------------

def natural_basis() -> SemigroupBasis:
    """Lambda = N_0: single free generator of magnitude 1 (power series)."""
    return free_rational_basis([(1,)], labels=["1"])


def free_rational_basis(columns, labels=None) -> SemigroupBasis:
    """FREE basis from exact rational coordinate tuples."""
    return _rational_basis(FREE, columns, labels)


def embedded_basis(columns, labels=None) -> SemigroupBasis:
    return _rational_basis(EMBEDDED, columns, labels)


def _rational_basis(mode: str, columns, labels) -> SemigroupBasis:
    gens = []
    for i, col in enumerate(columns):
        ex = tuple(as_fraction(c) for c in col)
        gens.append(Generator(i, tuple(float(c) for c in ex), ex,
                    labels[i] if labels else ""))
    r = len(gens[0].value) if gens else 0
    return SemigroupBasis(mode, r, tuple(gens))


def _prime_bound(n: int) -> int:
    """A bound on the n-th prime: p_n < n (ln n + ln ln n) for n >= 6 (Rosser), p_5 = 11."""
    return 11 if n < 6 else int(n * (math.log(n) + math.log(math.log(n))))


def log_primes_basis(limit: int) -> SemigroupBasis:
    """Lambda = {log n}: free generators log p for primes p <= limit.

    The log p are Q-linearly independent (unique factorization), so the
    basis is declared free with exact=None.
    """
    if type(limit) is not int:
        raise ValidationError(f"log-primes basis needs an int limit, got limit = {limit!r}")
    ps = primes_upto(limit)
    gens = tuple(Generator._trusted(i, (math.log(p),), None, f"log{p}") for i, p in enumerate(ps))
    return SemigroupBasis(FREE, 1, gens)


def log_element(basis: SemigroupBasis, n: int) -> SemigroupElement:
    """The element log n over a log-primes basis; n is an int >= 1, factored
    on the basis's `_log_table` (by trial division past its end).  Inside
    that table the exponent map and key of log n are kept per basis
    (`_log_maps`), and log n is log(n / p) plus log p for p the smallest
    prime factor of n when log(n / p) was built before: building log n in
    increasing n factors next to nothing."""
    if basis.mode != FREE:
        raise ValidationError("log elements need a free basis")
    if type(n) is not int or n < 1:
        raise ValidationError(f"log element needs an int n >= 1, got n = {n!r}")
    known = basis._log_maps
    got = known.get(n)
    if got is not None:
        return SemigroupElement._trusted(basis, got[0], None, got[1])
    (ids, spf), primes = basis._log_table, basis.key_primes
    if n >= len(spf):  # past the table: factored, not kept
        got = _log_parts(n, ids, primes, spf)
    else:
        p = spf[n]
        quotient, gid = known.get(n // p), ids.get(p)
        if quotient is None or gid is None:  # factor it, or name the missing prime
            got = _log_parts(n, ids, primes, spf)
        else:
            exps, key = quotient
            if exps and exps[0][0] == gid:
                exps = ((gid, exps[0][1] + 1),) + exps[1:]
            elif not exps or exps[0][0] > gid:
                exps = ((gid, 1),) + exps
            else:  # ids out of prime order
                merged = dict(exps)
                merged[gid] = merged.get(gid, 0) + 1
                exps = tuple(sorted(merged.items()))
            got = exps, (n if key is not None and primes[gid] == p else None)
        known[n] = got
    return SemigroupElement._trusted(basis, got[0], None, got[1])


def _log_parts(n: int, ids: dict, primes: dict, spf) -> tuple:
    """(exponent map, key or None) of log n, factored on `spf` (by trial
    division past its end): the key is n when each prime of n is the key
    prime of its generator."""
    exps, keyed_by_n = [], True
    for p, k in factorize(n, spf).items():
        gid = ids.get(p)
        if gid is None:
            raise ValidationError(f"prime {p} outside basis range")
        exps.append((gid, k))
        keyed_by_n = keyed_by_n and primes[gid] == p
    exps.sort()
    return tuple(exps), (n if keyed_by_n else None)
