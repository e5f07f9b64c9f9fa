"""Multiplicative functions over a prime system, with prime-local calculus.

A prime system is a finite strictly increasing list of real primes > 1
together with a truncation bound x; the rational primes are the default.
A multiplicative function is stored by its values on prime powers
(prime index, k >= 1) -> value, with f(1) = 1 implicit and missing
entries equal to 0.  All convolution and inversion work is prime-local,
so it never needs more than the stored tables.  Values are kept exact
(Fraction / int) whenever the inputs are; complex is allowed throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .algebra import min_modulus_on_disk
from .errors import PreconditionError, ValidationError
from .exactnum import _complex_value
from .sieves import primes_upto, spf_sieve

__all__ = [
    "PrimeSystem",
    "MultiplicativeFunction",
    "dirichlet_convolve",
    "invert_multiplicative",
    "euler_invertibility_report",
    "euler_factor",
    "MeanSquareReport",
    "mean_square_report",
    "TailDecomposition",
    "tail_decompose",
    "OmegaRelationReport",
    "omega_related",
]


def _weight_at(omega, value: float) -> float:
    # weights act on magnitudes; the magnitude of n is log n
    if omega is None:
        return 1.0
    return float(omega.eval_mag(math.log(value)))


# the first 13 primes: trial divisors, then Miller-Rabin bases; they
# decide every n < 43^2 by trial division, so those are looked up
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMES_BELOW_43_SQUARED = frozenset(primes_upto(43 * 43 - 1))
# (psi_t, t): no composite n < psi_t is a strong probable prime to all of the
# first t prime bases (Jaeschke 1993; Sorenson and Webster 2017)
_MR_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
              (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
              (318665857834031151167461, 12), (3317044064679887385961981, 13))


def _is_prime(n: int) -> bool:
    """Whether the int n is a prime: looked up below 43^2; above, trial
    division by the first 13 primes, then the strong probable-prime test to
    the fewest of them as bases that `_MR_BOUNDS` proves enough for n's
    size.  Below psi_13 ~ 3.3e24 the answer is certain; above it, n is
    tested to all 13 bases, a probable-prime test that a composite may
    pass."""
    if n < 43 * 43:
        return n in _PRIMES_BELOW_43_SQUARED
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    t = next((t for psi, t in _MR_BOUNDS if n < psi), len(_SMALL_PRIMES))
    for a in _SMALL_PRIMES[:t]:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):  # a strong probable prime meets -1 among a^(d 2^r), r < s
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeSystem:
    """Finite list of primes (> 1, strictly increasing) truncated at x.  A
    rational system's entries must pass `_is_prime` (a proof below 3.3e24)."""

    primes: tuple
    x: float
    rational: bool = False

    def __post_init__(self):
        if not 1 <= self.x < math.inf:
            raise ValidationError(f"truncation bound must be finite and >= 1, got {self.x}")
        prev = 1.0
        for p in self.primes:
            if not p > prev:
                raise ValidationError(
                    "primes must be strictly increasing and > 1"
                )
            prev = p
        if self.primes and self.primes[-1] > self.x:
            raise ValidationError("largest prime exceeds the truncation bound")
        if self.rational:
            if not all(isinstance(p, int) and p >= 2 for p in self.primes):
                raise ValidationError("rational system requires integer primes")
            for p in self.primes:
                if not _is_prime(p):
                    raise ValidationError(f"rational system entry {p} is not a prime")
        # position of each prime, built once for index_of
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.primes)})

    @classmethod
    def rational_primes(cls, x: int) -> "PrimeSystem":
        """All rational primes <= x."""
        if x < 1:
            raise ValidationError("truncation bound must be >= 1")
        return cls(primes=tuple(primes_upto(int(x))), x=int(x), rational=True)

    def index_of(self, p) -> int:
        try:
            return self._index[p]
        except (KeyError, TypeError):
            raise ValidationError(f"{p} is not a prime of this system") from None

    def max_power(self, i: int) -> int:
        """Largest k with p_i^k <= x: exactly for a rational system, within a
        relative 1e-12 of x for real primes, whose powers round."""
        p = self.primes[i]
        x = self.x if self.rational else self.x * (1 + 1e-12)
        k, v = 0, 1
        while v * p <= x:
            v *= p
            k += 1
        return k

    def iter_prime_powers(self):
        """Yield (index, k, p^k) for every prime power <= x, k >= 1."""
        for i, p in enumerate(self.primes):
            v = 1
            for k in range(1, self.max_power(i) + 1):
                v *= p
                yield i, k, v

    def to_json(self) -> dict:
        return {
            "primes": list(self.primes),
            "x": self.x,
            "rational": self.rational,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PrimeSystem":
        primes, x, rational = tuple(data["primes"]), data["x"], data.get("rational", False)
        if not isinstance(rational, bool):
            raise ValidationError(f"rational must be true or false, got {rational!r}")
        return cls(primes=primes, x=x, rational=rational)


def _encode_value(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    if isinstance(v, bool):
        raise ValidationError("boolean is not a coefficient")
    if isinstance(v, int):
        return v
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return float(v)


def _decode_value(v):
    if isinstance(v, str):
        return Fraction(v)
    v = _complex_value(v)
    return Fraction(v) if isinstance(v, int) else v


@dataclass(frozen=True)
class MultiplicativeFunction:
    """Multiplicative function given by its prime-power table.

    ppv maps (prime index, k >= 1) to f(p^k); absent keys mean 0,
    and f(1) = 1 always.  The table only speaks for prime powers <= x;
    nothing beyond the truncation is implied.
    """

    system: PrimeSystem
    ppv: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        for (i, k), v in self.ppv.items():
            if not (0 <= i < len(self.system.primes)):
                raise ValidationError(f"prime index {i} out of range")
            if k < 1:
                raise ValidationError("prime-power exponents start at 1")
            if k > self.system.max_power(i):
                raise ValidationError(
                    f"prime power {self.system.primes[i]}^{k} exceeds the "
                    "truncation bound"
                )
            _ = abs(v)  # must be numeric

    def prime_power(self, i: int, k: int):
        """f(p_i^k); k = 0 gives 1."""
        if k == 0:
            return Fraction(1)
        return self.ppv.get((i, k), Fraction(0))

    def values_up_to(self, limit: Optional[int] = None) -> list:
        """List v with v[n] = f(n) for 0 <= n <= limit (v[0] = 0).

        Rational systems only; materializes via a smallest-prime-factor
        sieve so the cost is O(limit log limit).  A prime up to limit that
        the system lacks raises PreconditionError.
        """
        if not self.system.rational:
            raise PreconditionError(
                "materialization requires the rational prime system"
            )
        N = int(self.system.x) if limit is None else int(limit)
        if N > self.system.x:
            raise ValidationError("limit exceeds the system truncation")
        spf = spf_sieve(N)
        idx = self.system._index
        vals: list = [Fraction(0)] * (N + 1)
        if N >= 1:
            vals[1] = Fraction(1)
        for n in range(2, N + 1):
            p = spf[n]
            i = idx.get(p)
            if i is None:  # then n = p, the smallest prime the system lacks
                raise PreconditionError(
                    f"the system lacks the prime {p} <= {N}; values up to {N} "
                    "need every prime up to it")
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            vals[n] = vals[m] * self.prime_power(i, k)
        return vals

    # --- factories ---

    @classmethod
    def unit(cls, system: PrimeSystem) -> "MultiplicativeFunction":
        """Convolution identity: 1 at n = 1, else 0."""
        return cls(system, {}, label="unit")

    @classmethod
    def one(cls, system: PrimeSystem) -> "MultiplicativeFunction":
        """Constant 1."""
        ppv = {(i, k): Fraction(1) for i, k, _ in system.iter_prime_powers()}
        return cls(system, ppv, label="one")

    @classmethod
    def mobius(cls, system: PrimeSystem) -> "MultiplicativeFunction":
        ppv = {(i, 1): Fraction(-1) for i in range(len(system.primes))}
        return cls(system, ppv, label="mobius")

    @classmethod
    def from_rule(
        cls, system: PrimeSystem, rule: Callable, label: str = ""
    ) -> "MultiplicativeFunction":
        """Fill the table with rule(p, k) for every prime power <= x."""
        ppv = {}
        for i, k, _ in system.iter_prime_powers():
            v = rule(system.primes[i], k)
            if v != 0:
                ppv[(i, k)] = v
        return cls(system, ppv, label=label)

    @classmethod
    def from_prime_values(
        cls, system: PrimeSystem, entries, label: str = ""
    ) -> "MultiplicativeFunction":
        """entries: iterable of (p, k, value) with p a prime of the system."""
        ppv = {}
        for p, k, v in entries:
            i = system.index_of(p)
            if k < 1:
                raise ValidationError("prime-power exponents start at 1")
            if v != 0:
                ppv[(i, int(k))] = v
        return cls(system, ppv, label=label)

    # --- serialization ---

    def to_json(self) -> dict:
        rows = []
        for (i, k) in sorted(self.ppv):
            rows.append(
                {
                    "p": self.system.primes[i],
                    "k": k,
                    "value": _encode_value(self.ppv[(i, k)]),
                }
            )
        return {"system": self.system.to_json(), "values": rows, "label": self.label}

    @classmethod
    def from_json(cls, data: dict) -> "MultiplicativeFunction":
        try:
            system = PrimeSystem.from_json(data["system"])
            entries = [
                (row["p"], row["k"], _decode_value(row["value"]))
                for row in data.get("values", [])
            ]
            return cls.from_prime_values(system, entries, label=data.get("label", ""))
        except (KeyError, OverflowError, TypeError, ValueError,
                ZeroDivisionError) as e:  # Fraction("1/0")
            raise ValidationError(f"malformed multiplicative function JSON: {e}") from e


def _same_system(f: MultiplicativeFunction, g: MultiplicativeFunction):
    if f.system.primes != g.system.primes or f.system.x != g.system.x:
        raise ValidationError("multiplicative functions live on different systems")


def dirichlet_convolve(
    f: MultiplicativeFunction, g: MultiplicativeFunction
) -> MultiplicativeFunction:
    """Dirichlet convolution, computed prime-locally.

    (f*g)(p^k) = sum_{j=0..k} f(p^j) g(p^{k-j}); multiplicativity then
    determines every n <= x.
    """
    _same_system(f, g)
    ppv = {}
    for i, k, _ in f.system.iter_prime_powers():
        acc = None
        for j in range(k + 1):
            term = f.prime_power(i, j) * g.prime_power(i, k - j)
            acc = term if acc is None else acc + term
        if acc != 0:
            ppv[(i, k)] = acc
    return MultiplicativeFunction(f.system, ppv)


def invert_multiplicative(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """Convolution inverse, prime by prime.

    g(p^k) = -sum_{j=1..k} f(p^j) g(p^{k-j}) with g(1) = 1; always exists
    because f(1) = 1.
    """
    ppv = {}
    for i in dict.fromkeys(i for i, _ in f.ppv):
        kmax = f.system.max_power(i)
        g = [Fraction(1)] + [Fraction(0)] * kmax
        for k in range(1, kmax + 1):
            acc = None
            for j in range(1, k + 1):
                term = f.prime_power(i, j) * g[k - j]
                acc = term if acc is None else acc + term
            g[k] = -acc if acc is not None else Fraction(0)
            if g[k] != 0:
                ppv[(i, k)] = g[k]
    return MultiplicativeFunction(f.system, ppv)


def euler_invertibility_report(f: MultiplicativeFunction, step: float = 0.02) -> dict:
    """Per-prime certificate that the local factor stays away from zero.

    For each prime with any table entry, minimizes |1 + sum f(p^k) z^k|
    over the closed unit disk (z stands for p^{-s}, Re s >= 0).  Returns
    {p: {"min_modulus", "lower_bound", "argmin"}}; a lower bound > 0
    certifies local invertibility with bounded inverse on the half-plane.
    """
    by_prime: dict[int, int] = {}
    for i, k in f.ppv:
        by_prime[i] = max(by_prime.get(i, 0), k)
    out = {}
    for i, kmax in sorted(by_prime.items()):
        coeffs = [1] + [f.prime_power(i, k) for k in range(1, kmax + 1)]
        m, z, lb = min_modulus_on_disk(coeffs, step=step)
        out[f.system.primes[i]] = {
            "min_modulus": m,
            "lower_bound": lb,
            "argmin": (z.real, z.imag),
        }
    return out


def euler_factor(f: MultiplicativeFunction, p, s: complex, kmax: int) -> complex:
    """Local factor 1 + sum_{1<=k<=kmax} f(p^k) p^{-ks}."""
    if kmax < 0:
        raise ValidationError("kmax must be >= 0")
    i = f.system.index_of(p)
    z = complex(p) ** (-complex(s))
    acc = 1.0 + 0j
    zp = 1.0 + 0j
    for k in range(1, kmax + 1):
        zp *= z
        acc += complex(f.prime_power(i, k)) * zp
    return acc


# doubling windows (x/2^{m+1}, x/2^m] a convergence trend is read from
DOUBLING_ROUNDS = 5


def _doubling_windows(contributions: list, x: float):
    """Partial sums over (x/2^{m+1}, x/2^m], m < DOUBLING_ROUNDS, newest first.

    contributions: list of (value v, weight-already-applied magnitude m).
    """
    windows = []
    hi = x
    for _ in range(DOUBLING_ROUNDS):
        lo = hi / 2.0
        w = sum(m for v, m in contributions if lo < v <= hi)
        windows.append(w)
        hi = lo
    return tuple(windows)


def _trend(windows, total: float) -> str:
    """Heuristic convergence flag from doubling windows; never a proof."""
    w0, w1 = windows[0], windows[1]
    if w0 <= 1e-15 * (1.0 + abs(total)):
        return "settled"
    if w1 <= 0:
        return "inconclusive"
    if w0 <= 0.55 * w1:
        return "converging"
    if w0 >= 0.9 * w1:
        return "divergent-trend"
    return "inconclusive"


@dataclass(frozen=True)
class MeanSquareReport:
    """Partial sums behind the weighted mean-square membership heuristic."""

    sum_sq: float  # sum over primes of |f(p)|^2 w(p)^2
    sum_higher: float  # sum over p^k, k >= 2, of |f(p^k)| w(p^k)
    windows_sq: tuple
    windows_higher: tuple
    trend_sq: str
    trend_higher: str
    x: float
    note: str = "doubling-window heuristic on truncated data; not a verdict"

    def to_json(self) -> dict:
        return {
            "sum_sq": self.sum_sq,
            "sum_higher": self.sum_higher,
            "windows_sq": list(self.windows_sq),
            "windows_higher": list(self.windows_higher),
            "trend_sq": self.trend_sq,
            "trend_higher": self.trend_higher,
            "x": self.x,
            "note": self.note,
        }


def mean_square_report(
    f: MultiplicativeFunction, omega=None, x: Optional[float] = None
) -> MeanSquareReport:
    """Partial sums of |f(p)|^2 w(p)^2 and of |f(p^k)| w(p^k), k >= 2.

    Both converging is the standing hypothesis for membership of the
    weighted algebra generated by f; the report only states what the
    truncated data shows.
    """
    X = f.system.x if x is None else float(x)
    if X > f.system.x:
        raise ValidationError("x exceeds the system truncation")
    sq, hi = [], []
    for i, k, v in f.system.iter_prime_powers():
        if v > X:
            continue
        fv = f.prime_power(i, k)
        if fv == 0:
            continue
        w = _weight_at(omega, v)
        if k == 1:
            sq.append((float(v), float(abs(fv)) ** 2 * w * w))
        else:
            hi.append((float(v), float(abs(fv)) * w))
    total_sq = sum(m for _, m in sq)
    total_hi = sum(m for _, m in hi)
    win_sq = _doubling_windows(sq, X)
    win_hi = _doubling_windows(hi, X)
    return MeanSquareReport(
        sum_sq=total_sq,
        sum_higher=total_hi,
        windows_sq=win_sq,
        windows_higher=win_hi,
        trend_sq=_trend(win_sq, total_sq),
        trend_higher=_trend(win_hi, total_hi),
        x=X,
    )


@dataclass(frozen=True)
class TailDecomposition:
    """Split f = (local part) * b * h past a finite prime bound p0.

    local holds the full table of f at primes <= p0; b is completely
    multiplicative with b(p) = f(p) for p > p0; h carries the higher
    prime-power corrections, h(p) = 0.  Every certificate is computed
    from the truncated table only, hence truncation_limited.
    """

    p0: int
    local: dict
    b: MultiplicativeFunction
    h: MultiplicativeFunction
    h_inverse: MultiplicativeFunction
    prime_bound: float  # max over p > p0 of |f(p)| w(p)
    tail_sum: float  # sum over p > p0, k >= 2 of |h(p^k)| w(p^k)
    h_inverse_norm: float  # sum over 2 <= n <= x of |h^{-1}(n)| w(n)
    reconstruction_exact: bool
    b_inverse_is_mobius_b: bool
    norm_certified: bool  # h_inverse_norm <= 1 on the data
    truncation_limited: bool = True

    def to_json(self) -> dict:
        return {
            "p0": self.p0,
            "local": {
                str(p): {str(k): _encode_value(v) for k, v in tab.items()}
                for p, tab in self.local.items()
            },
            "b": self.b.to_json(),
            "h": self.h.to_json(),
            "prime_bound": self.prime_bound,
            "tail_sum": self.tail_sum,
            "h_inverse_norm": self.h_inverse_norm,
            "reconstruction_exact": self.reconstruction_exact,
            "b_inverse_is_mobius_b": self.b_inverse_is_mobius_b,
            "norm_certified": self.norm_certified,
            "truncation_limited": self.truncation_limited,
        }


def _tail_h_value(f: MultiplicativeFunction, i: int, k: int):
    # h(p^k) = f(p^k) - f(p^{k-1}) f(p), zero at k = 1 by construction
    return f.prime_power(i, k) - f.prime_power(i, k - 1) * f.prime_power(i, 1)


def tail_decompose(
    f: MultiplicativeFunction, omega=None, norm_limit: Optional[int] = None
) -> TailDecomposition:
    """Factor f through a completely multiplicative tail.

    Picks the smallest p0 (1, or a prime < the largest prime of the
    system) such that on the truncated data |f(p)| w(p) <= 1/2 for all
    primes p > p0 and the higher-power correction sum is <= 1/2.  Raises
    PreconditionError naming the blocking prime when no p0 works; e.g.
    the constant function 1 with unit weight blocks at every prime.
    """
    sys_ = f.system
    primes = sys_.primes
    if not primes:
        raise PreconditionError("prime system is empty")

    half = 0.5 + 1e-12  # float slack only when the data itself is float
    pw = []  # per prime index: |f(p)| w(p)
    for i, p in enumerate(primes):
        fv = f.prime_power(i, 1)
        pw.append(float(abs(fv)) * _weight_at(omega, p))

    # condition (i): no violated prime above p0
    violated = [i for i, v in enumerate(pw) if v > half]
    min_idx_bound = (violated[-1] + 1) if violated else 0

    # condition (ii): tail of higher-power corrections, nonincreasing in p0
    hw = {}
    for i, k, v in sys_.iter_prime_powers():
        if k >= 2:
            hv = _tail_h_value(f, i, k)
            if hv != 0:
                hw[(i, k)] = float(abs(hv)) * _weight_at(omega, v)

    chosen = None
    # p0 = primes[j-1] excludes primes[:j] from the tail; j = 0 means p0 = 1.
    # j = len(primes) would leave no tail data at all, so it is not offered.
    for j in range(min_idx_bound, len(primes)):
        s = sum(w for (i, _), w in hw.items() if i >= j)
        if s <= half:
            chosen = j
            tail_sum = s
            break
    if chosen is None:
        if violated and violated[-1] == len(primes) - 1:
            blocker = primes[violated[-1]]
            raise PreconditionError(
                f"no valid prime bound: |f(p)| w(p) > 1/2 at p = {blocker}, "
                "the last prime of the truncated system"
            )
        raise PreconditionError(
            "no valid prime bound: higher-power correction sum stays above "
            "1/2 for every cutoff inside the truncated system"
        )

    j = chosen
    p0 = 1 if j == 0 else int(primes[j - 1]) if sys_.rational else primes[j - 1]
    prime_bound = max((pw[i] for i in range(j, len(primes))), default=0.0)

    local = {}
    for i in range(j):
        tab = {k: f.prime_power(i, k) for k in range(1, sys_.max_power(i) + 1)}
        tab = {k: v for k, v in tab.items() if v != 0}
        if tab:
            local[primes[i]] = tab

    b_ppv, h_ppv = {}, {}
    for i in range(j, len(primes)):
        fp = f.prime_power(i, 1)
        acc = fp
        for k in range(1, sys_.max_power(i) + 1):
            if k > 1:
                acc = acc * fp
                hv = _tail_h_value(f, i, k)
                if hv != 0:
                    h_ppv[(i, k)] = hv
            if acc != 0:
                b_ppv[(i, k)] = acc
    b = MultiplicativeFunction(sys_, b_ppv, label="tail-cm")
    h = MultiplicativeFunction(sys_, h_ppv, label="tail-correction")

    # local * b * h == f on p^k <= x; the local factor reproduces f at the
    # primes up to p0 verbatim, so only the tail primes are compared
    tail = [(i, k) for i, k, _ in sys_.iter_prime_powers() if i >= j]
    bh = dirichlet_convolve(h, b)
    ok = all(_close(bh.prime_power(i, k), f.prime_power(i, k)) for i, k in tail)
    binv = invert_multiplicative(b)
    mob_ok = all(_close(binv.prime_power(i, k), -b.prime_power(i, 1) if k == 1 else 0)
                 for i, k in tail)

    hinv = invert_multiplicative(h)
    if sys_.rational:
        N = int(sys_.x) if norm_limit is None else int(norm_limit)
        vals = hinv.values_up_to(N)
        hnorm = sum(
            float(abs(vals[n])) * _weight_at(omega, n)
            for n in range(2, N + 1)
            if vals[n] != 0
        )
    else:
        hnorm = sum(
            float(abs(hinv.prime_power(i, k))) * _weight_at(omega, v)
            for i, k, v in sys_.iter_prime_powers()
            if hinv.prime_power(i, k) != 0
        )

    return TailDecomposition(
        p0=p0,
        local=local,
        b=b,
        h=h,
        h_inverse=hinv,
        prime_bound=prime_bound,
        tail_sum=tail_sum,
        h_inverse_norm=hnorm,
        reconstruction_exact=ok,
        b_inverse_is_mobius_b=mob_ok,
        norm_certified=hnorm <= 1.0 + 1e-12,
    )


def _close(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, (Fraction, int)):
        return a == b
    return abs(complex(a) - complex(b)) <= 1e-12


@dataclass(frozen=True)
class OmegaRelationReport:
    """Partial weighted norm of h = a * b^{-1} over n <= x."""

    h: MultiplicativeFunction
    partial_norm: float
    windows: tuple
    trend: str
    x: float
    note: str = "doubling-window heuristic on truncated data; not a verdict"


def omega_related(
    a: MultiplicativeFunction,
    b: MultiplicativeFunction,
    omega=None,
    x: Optional[int] = None,
) -> OmegaRelationReport:
    """Test whether a and b differ by an absolutely w-summable factor.

    Materializes h = a * b^{-1} up to x and reports the partial norm
    sum_{n<=x} |h(n)| w(n) with a doubling-window trend flag.  a = b
    gives the convolution unit and norm exactly 1.
    """
    _same_system(a, b)
    h = dirichlet_convolve(a, invert_multiplicative(b))
    if not a.system.rational:
        raise PreconditionError("relation norms require the rational prime system")
    N = int(a.system.x) if x is None else int(x)
    vals = h.values_up_to(N)
    contributions = [
        (float(n), float(abs(vals[n])) * _weight_at(omega, n))
        for n in range(1, N + 1)
        if vals[n] != 0
    ]
    total = sum(m for _, m in contributions)
    windows = _doubling_windows(contributions, float(N))
    return OmegaRelationReport(
        h=h,
        partial_norm=total,
        windows=windows,
        trend=_trend(windows, total),
        x=float(N),
    )
