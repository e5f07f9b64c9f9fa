"""Kronecker simultaneous approximation and the point-character search.

kronecker_t aligns the phases e^{-i beta t} with prescribed unimodular
targets.  It aligns the first coordinate exactly and asks a lattice for the
rest first: continued fractions for two frequencies, an LLL-reduced Kannan
embedding for more.  The scan of the torus orbit (aligned steps interleaved
with a uniform fine scan) is the fallback.  A precision cap on t keeps float
phase loss below theta / 8, and a gate (`_gate`) skips the lattice when no
lattice point within the cap can plausibly reach theta.

approximate_functional hunts for a point s = sigma + i t in the closed right
half plane whose evaluation functional approximates a prescribed
bounded-character functional on a finitely supported element: trim the
support so the neglected mass stays below theta, match moduli through sigma
and phases through kronecker_t wherever the same gate admits the instance,
then sweep a sigma ladder in t chunks with Newton from the best point of
every chunk.  The same kind of precision cap bounds the t of the search.
Success is always certified by re-evaluating the distance independently of
the search internals.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ValidationError
from .algebra import AlgebraElement, evaluate_series
from .characters import FROM_S, Character, functional
from .exactnum import _complex_value
from .ratlin import lll_reduce

CHUNK = 2048
# Newton steps from each Kronecker hit that still misses theta
NEWTON_STEPS = 24
# multiples of N* = (2 pi / theta)^(k-1) at which the lattice stage runs
LATTICE_SCALES = (1 / 64, 1.0, 64.0)


@dataclass(frozen=True)
class KroneckerInstance:
    betas: tuple          # positive reals, declared Q-independent by the caller
    targets: tuple        # unimodular complex values
    theta: float = 1e-2
    t_budget: int = 10 ** 6

    def __post_init__(self):
        bs = tuple(float(b) for b in self.betas)
        if not bs or not all(0 < b < math.inf for b in bs):
            raise ValidationError("betas must be positive and finite")
        zs = []
        for z in self.targets:
            z = complex(z)
            if not cmath.isfinite(z):
                raise ValidationError(f"target {z} is not finite")
            m = abs(z)
            if abs(m - 1.0) > 1e-9:
                raise ValidationError(f"target {z} is not unimodular")
            zs.append(z / m)
        if len(zs) != len(bs):
            raise ValidationError("one target per beta required")
        if not self.theta > 0:
            raise ValidationError("theta must be positive")
        object.__setattr__(self, "betas", bs)
        object.__setattr__(self, "targets", tuple(zs))
        object.__setattr__(self, "t_budget", _step_budget(self.t_budget))

    def to_json(self) -> dict:
        return {"betas": list(self.betas),
                "targets": [{"re": z.real, "im": z.imag} for z in self.targets],
                "theta": self.theta, "t_budget": self.t_budget}

    @classmethod
    def from_json(cls, data: dict) -> "KroneckerInstance":
        try:
            return cls(tuple(data["betas"]),
                       tuple(map(_complex_value, data["targets"])),
                       float(data.get("theta", 1e-2)),
                       int(data.get("t_budget", 10 ** 6)))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValidationError(f"malformed Kronecker instance JSON: {e}") from e


def _step_budget(budget) -> int:
    """The budget as a whole number of steps; inf and nan have none."""
    try:
        return int(budget)
    except (OverflowError, ValueError) as e:
        raise ValidationError(f"malformed budget {budget!r}: {e}") from e


@dataclass(frozen=True)
class KroneckerResult:
    t: float
    errors: tuple         # |e^{-i beta t} - z| per coordinate, re-evaluated
    max_error: float
    steps: int
    exhausted: bool

    def to_json(self) -> dict:
        return {"t": self.t, "errors": list(self.errors),
                "max_error": self.max_error, "steps": self.steps,
                "exhausted": self.exhausted}


def _kron_errors(betas, targets, t: float):
    return tuple(abs(cmath.exp(-1j * b * t) - z) for b, z in zip(betas, targets))


def kronecker_t(instance: KroneckerInstance) -> KroneckerResult:
    """t >= 0 with e^{-i beta_k t} close to every target.

    One coordinate can always be aligned exactly: t_n = t0 + 2 pi n / beta_1
    hits target 1 for every n >= 0, so what is left is the inhomogeneous
    simultaneous approximation ||n alpha_j - delta_j|| <= theta / 2 pi of the
    ratios alpha_j = beta_j / beta_1 (see `_lattice_steps`).  The search
    tries the lattice stage's candidates n first; then it scans n = 0, 1, ...
    interleaved, chunk for chunk, with a uniform scan of step
    theta / (2 max beta) (which cannot step over a solution), so rationally
    dependent inputs still get the best uniform candidate.

    The precision cap t max(beta) 2^-52 <= theta / 8 keeps float phase loss
    from forging a certificate: no candidate beyond it is tried, and the scan
    stops when its aligned arm reaches it.  `_gate` derives the cap and
    decides whether the lattice stage runs at all.  Every candidate counts
    one step, and candidates come in a budget-independent order, so a larger
    budget only extends the search: the best error never increases.  The
    result is re-evaluated independently of the search.
    """
    betas, targets = instance.betas, instance.targets
    theta, budget = instance.theta, instance.t_budget
    k = len(betas)
    t0, period1, n_cap, log_scales = _gate(instance)
    if k == 1:
        # the closed form costs one step, when one is left
        errs = _kron_errors(betas, targets, t0)
        return KroneckerResult(t0, errs, max(errs), int(budget > 0), False)

    best_err, best_t = math.inf, t0
    steps = 0
    for n in _lattice_steps(betas, targets, min(theta, 2.0), t0, n_cap, log_scales):
        if steps >= budget:
            break
        t = t0 + period1 * n
        err = max(_kron_errors(betas, targets, t))
        steps += 1
        if err < best_err:
            best_err, best_t = err, t
        if best_err <= theta:
            break

    b = np.array(betas)
    z = np.array(targets, dtype=complex)
    h = theta / (2.0 * max(betas))

    def scan(ts: np.ndarray):
        nonlocal best_err, best_t, steps
        errs = np.abs(np.exp(-1j * np.outer(ts, b)) - z[None, :]).max(axis=1)
        i = int(np.argmin(errs))
        if errs[i] < best_err:
            best_err, best_t = float(errs[i]), float(ts[i])
        steps += len(ts)

    aligned_next, uniform_next = 0, 0
    while steps < budget and best_err > theta and aligned_next <= n_cap:
        n = min(CHUNK, budget - steps, n_cap + 1 - aligned_next)
        scan(t0 + period1 * np.arange(aligned_next, aligned_next + n))
        aligned_next += n
        if steps >= budget or best_err <= theta:
            break
        n = min(n, budget - steps)
        scan(h * np.arange(uniform_next, uniform_next + n))
        uniform_next += n
    errs = _kron_errors(betas, targets, best_t)
    mx = max(errs)
    return KroneckerResult(best_t, errs, mx, steps, mx > theta)


def _gate(instance: KroneckerInstance):
    """(t0, period1, n_cap, log_scales): the aligned start and period, the
    last aligned step within the precision cap, and the gate of the lattice
    stage.

    t0 + period1 n aligns the first coordinate for every n >= 0.  The cap
    t max(beta) 2^-52 <= theta / 8 (theta clamped at 2, the largest possible
    error) ends the aligned steps at n_cap.  For k frequencies a solution is
    expected near n = N* = (2 pi / theta)^(k-1), so the lattice stage runs at
    log(f N*) for each f in `LATTICE_SCALES` with f N* <= n_cap.  When there
    is none the gate refuses: no lattice point within the cap can plausibly
    reach theta, and only the scan is left.  One frequency needs no lattice:
    t0 solves it.
    """
    betas, targets = instance.betas, instance.targets
    k = len(betas)
    period1 = 2.0 * math.pi / betas[0]
    t0 = (-cmath.phase(targets[0]) / betas[0]) % period1
    theta = min(instance.theta, 2.0)
    t_cap = math.ldexp(theta / (8.0 * max(betas)), 52)
    n_cap = math.floor((t_cap - t0) / period1)
    if n_cap < 1:
        return t0, period1, n_cap, []
    log_nstar = (k - 1) * math.log(2.0 * math.pi / theta)
    return t0, period1, n_cap, [log_nstar + math.log(f) for f in LATTICE_SCALES
                                if log_nstar + math.log(f) <= math.log(n_cap)]


def _lattice_steps(betas, targets, theta, t0, n_cap, log_scales):
    """Aligned steps 0 <= n <= n_cap proposed by the lattice at the scales
    `_gate` admits, in an order that depends on the instance alone.

    With delta_j = (-arg z_j - beta_j t0) / 2 pi mod 1, the step n is a
    solution when n alpha_j - delta_j is within theta / 2 pi of an integer for
    every j >= 2.  No scale (the gate refuses) means no candidate.

    k = 2 is exact: the smallest n >= 0 whose phase error is at most
    3 theta / 4 (`_first_in_window`, the continued-fraction expansion of
    alpha_2).  With the cap's theta / 8 of float loss it certifies.

    k >= 3 LLL-reduces (Lenstra, Lenstra and Lovasz 1982) Kannan's embedding
    at each admitted scale N = f N*, in increasing order: with
    eps = N^(-1/(k-1)), an integer scale S, c = S eps / N and M = S eps, the
    rows [round(S alpha) | c 0], S e_j and [-round(S delta) | 0 M] span a
    lattice whose vector n row_1 + sum p_j S e_j + row_last has every entry
    near S eps exactly when n solves to eps.  Steps are read off the reduced
    rows, then off their pairwise sums and differences, wherever the last
    row's coefficient is +-1.
    """
    if not log_scales:
        return
    k = len(betas)
    deltas = [Fraction((-cmath.phase(z) - b * t0) / (2.0 * math.pi) % 1.0)
              for b, z in zip(betas[1:], targets[1:])]
    alphas = [Fraction(b) / Fraction(betas[0]) for b in betas[1:]]
    if k == 2:
        n = _first_in_window(alphas[0], deltas[0], Fraction(3.0 * theta / (8.0 * math.pi)))
        if n is not None and n <= n_cap:
            yield n
        return
    m = k - 1
    seen = set()
    for log_n in log_scales:
        eps = math.exp(-log_n / m)
        S = 1 << (max(0, math.ceil(log_n / math.log(2.0) * (m + 1) / m)) + 10)
        c = max(1, round(S * eps / math.exp(log_n)))
        M = max(1, round(S * eps))
        rows = [[round(a * S) for a in alphas] + [c, 0]]
        rows += [[S * (i == j) for i in range(m)] + [0, 0] for j in range(m)]
        rows.append([-round(d * S) for d in deltas] + [0, M])
        reduced, _ = lll_reduce(rows)
        vecs = list(reduced)
        for i, u in enumerate(reduced):
            for v in reduced[i + 1:]:
                vecs.append([x + y for x, y in zip(u, v)])
                vecs.append([x - y for x, y in zip(u, v)])
        for v in vecs:
            if abs(v[-1]) != M:
                continue
            n = (v[-2] if v[-1] > 0 else -v[-2]) // c
            if 0 <= n <= n_cap and n not in seen:
                seen.add(n)
                yield n


def _first_in_window(alpha: Fraction, delta: Fraction, w: Fraction):
    """The smallest n >= 0 with n alpha - delta within w of an integer, or
    None when there is none.

    Over the common denominator q of alpha, delta and w this is the
    smallest n with (a n mod q) in a window of integers, which `_first_hit` solves by
    the Euclidean algorithm on (a, q), i.e. along the continued fraction of
    alpha (Cassels 1957, ch. I).
    """
    if 2 * w >= 1:
        return 0
    q = math.lcm(alpha.denominator, delta.denominator, w.denominator)
    a = alpha.numerator * (q // alpha.denominator) % q
    lo = (delta - w) * q % q
    hi = lo + 2 * w * q
    lo, hi = lo.numerator, hi.numerator     # integers: q clears every denominator
    if hi < q:
        return _first_hit(a, q, lo, hi)
    hits = [x for x in (_first_hit(a, q, lo, q - 1), _first_hit(a, q, 0, hi - q))
            if x is not None]
    return min(hits, default=None)


def _first_hit(a: int, q: int, lo: int, hi: int):
    """The smallest x >= 0 with lo <= a x mod q <= hi (0 <= lo <= hi < q),
    or None.

    If no multiple of a lands in [lo, hi] directly, the first solution x
    wraps y = floor(a x / q) times, and y is the smallest y >= 0 with
    (q y mod a) in [-hi mod a, -lo mod a]: the same problem on (q mod a, a).
    """
    a %= q
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _first_hit(q % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + q * y) // a)


@dataclass(frozen=True)
class DensitySearchReport:
    s: complex                   # Re s >= 0
    achieved_error: float        # |series value at s - character functional|
    target_value: complex
    gamma_used: tuple            # support kept after the tail trim
    tail_error: float
    steps: int
    exhausted: bool
    sigma_max: float
    flags: tuple

    def to_json(self) -> dict:
        return {"s": {"re": self.s.real, "im": self.s.imag},
                "achieved_error": self.achieved_error,
                "target_value": {"re": self.target_value.real,
                                 "im": self.target_value.imag},
                "gamma_used": [lam.to_json() for lam in self.gamma_used],
                "tail_error": self.tail_error,
                "steps": self.steps,
                "exhausted": self.exhausted,
                "sigma_max": self.sigma_max,
                "flags": list(self.flags)}


class _Budget:
    """Deterministic evaluation counter with incumbent tracking.

    Incumbents order by (error, sigma, |t|) so merges are reproducible.  A
    point with |t| > t_cap is counted but never becomes the incumbent.
    """

    def __init__(self, limit: int, fn, t_cap: float):
        self.limit = int(limit)
        self.fn = fn
        self.t_cap = t_cap
        self.used = 0
        self.best = (math.inf, 0.0, 0.0)
        self._best_key = (math.inf, 0.0, 0.0)

    def exhausted(self) -> bool:
        return self.used >= self.limit

    def offer(self, err: float, sigma: float, t: float):
        if abs(t) > self.t_cap:
            return
        key = (err, sigma, abs(t))
        if key < self._best_key:
            self._best_key = key
            self.best = (err, sigma, t)

    def eval_one(self, sigma: float, t: float):
        """Evaluate one point, when the budget allows it."""
        self.eval_batch(np.array([sigma]), np.array([t]))

    def eval_batch(self, sigmas: np.ndarray, ts: np.ndarray):
        """Evaluate as much of the chunk as the budget allows; the index of
        its best point, or None when the budget is spent."""
        take = min(len(ts), self.limit - self.used)
        if take <= 0:
            return None
        sigmas, ts = sigmas[:take], ts[:take]
        errs = self.fn(sigmas, ts)
        self.used += take
        i = int(np.argmin(errs))
        self.offer(float(errs[i]), float(sigmas[i]), float(ts[i]))
        return i


def approximate_functional(a: AlgebraElement, psi: Character,
                           theta: float = 1e-2, budget: int = 10 ** 6,
                           seed: int = 0) -> DensitySearchReport:
    """Point s in the closed right half plane with series value near h_psi(a).

    Splits the error three ways: a tail below theta is trimmed from the
    support (valid for both evaluations since Re s >= 0 and |psi| <= 1), the
    search drives the trimmed mismatch below theta, and the trimmed character
    functional differs from the full one by below theta again, so the
    re-evaluated distance certifies < 3 theta on success.

    The search, in order, stopping as soon as it is within theta:
    - quick paths: a character that is a point evaluation, and moduli
      consistent with one sigma, whose phases go to kronecker_t where
      `_gate` admits the instance;
    - a sweep over a fixed sigma ladder (the sigmas matching each
      generator's modulus first) in chunks of `CHUNK` t values, running
      Newton from the best point of every chunk.

    Float evaluation at s loses about |t| max(mag) 2^-52 of phase, so no
    point with |t| max(mag) 2^-52 > theta / 8 becomes the incumbent (the
    cap kronecker_t uses), and the sweep ends, `exhausted`, when its next
    chunk would start past that t.  Every evaluation counts against the
    budget, Kronecker steps included; a budget that is not a finite number
    is a ValidationError.
    """
    if a.basis.r != 1:
        raise PreconditionError("the s-search is one-dimensional; basis must have r = 1")
    if psi.basis is not a.basis and psi.basis != a.basis:
        raise ValidationError("character over a different basis")
    if not theta > 0:
        raise ValidationError("theta must be positive")
    budget = _step_budget(budget)
    flags = []
    target = functional(psi, a)

    # trim the smallest-magnitude mass off the top until just under theta
    items = sorted(a.coeffs.items(), key=lambda kv: kv[0].sort_key())
    dropped_mass, cut = 0.0, len(items)
    while cut > 0:
        m = abs(items[cut - 1][1])
        if dropped_mass + m >= theta:
            break
        dropped_mass += m
        cut -= 1
    kept = items[:cut]
    gamma_used = tuple(lam for lam, _ in kept)
    tail_error = dropped_mass

    if not kept:
        s = 0j
        err = abs(evaluate_series(a, s)[0] - target)
        return DensitySearchReport(s, err, target, gamma_used, tail_error,
                                   0, False, 0.0, ("support trimmed to nothing",))

    trimmed = AlgebraElement(a.basis, dict(kept), a.backend, None, _trusted=True)
    inner_target = functional(psi, trimmed)

    mags = np.array([lam.embedded_value()[0] for lam, _ in kept])
    coefs = np.array([complex(v) for _, v in kept])

    def inner_err(sigmas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ss = sigmas + 1j * ts
        vals = np.exp(-np.outer(ss, mags)) @ coefs
        return np.abs(vals - inner_target)

    # float evaluation loses about |t| max(mag) 2^-52 of phase, the loss
    # kronecker_t caps: past theta / 8 it could forge a certificate
    max_mag = float(mags.max())
    t_cap = math.ldexp(theta / (8.0 * max_mag), 52) if max_mag > 0 else math.inf
    bud = _Budget(budget, inner_err, t_cap)

    # generators appearing in the kept support, with their character values
    gen_ids = sorted({gid for lam in gamma_used
                      for gid, _ in (lam.exponents or ())})
    vm = psi.value_map()
    betas = [a.basis.by_id[g].value[0] for g in gen_ids]
    zvals = [vm[g] for g in gen_ids]
    sigma_max = 40.0 / min(betas) if betas else 1.0

    def finish():
        s = complex(max(bud.best[1], 0.0), bud.best[2])
        err = abs(evaluate_series(a, s)[0] - target)
        return DensitySearchReport(s, err, target, gamma_used, tail_error,
                                   bud.used, bud.best[0] > theta, sigma_max,
                                   tuple(flags))

    # quick path: the character is itself a point evaluation
    if psi.provenance == FROM_S and psi.s is not None:
        s0 = psi.s[0]
        bud.eval_one(s0.real, s0.imag)
        if bud.best[0] <= theta:
            return finish()

    # quick path: moduli consistent with a single sigma, whose phases go to
    # kronecker_t where `_gate` admits the instance (where it refuses, the
    # scan could not reach the instance's theta, so it is not paid for)
    sigma_cands = []
    if betas and all(abs(zv) > 0 for zv in zvals):
        sigs = [min(-math.log(abs(zv)) / bt, sigma_max)
                for bt, zv in zip(betas, zvals)]
        sigma_cands = sorted(set(sigs))
        if max(sigs) - min(sigs) <= 1e-9 * (1.0 + abs(sigs[0])):
            sstar = sigs[0]
            degree = max(sum(n for _, n in (lam.exponents or ())) for lam in gamma_used)
            mass = float(np.abs(coefs).sum())
            units = [zv * math.exp(bt * sstar) for bt, zv in zip(betas, zvals)]
            inst = KroneckerInstance(tuple(betas), tuple(u / abs(u) for u in units),
                                     theta / (1.0 + mass * degree),
                                     min(budget - bud.used, max(budget // 4, 1)))
            if len(betas) == 1 or _gate(inst)[3]:
                kr = kronecker_t(inst)
                bud.used += kr.steps
                bud.eval_one(sstar, kr.t)
                if bud.best[0] <= theta:
                    return finish()
    elif betas and all(zv == 0 for zv in zvals):
        bud.eval_one(sigma_max, 0.0)    # every generator value is ~0 there
        if bud.best[0] <= theta:
            return finish()

    # deterministic sweep: fixed sigma ladder, expanding t windows, Newton
    # from the best point of every chunk; it ends where the t cap starts
    rng = random.Random(seed)
    ladder = sigma_cands + [0.0] + [sigma_max * i / 16.0 for i in range(1, 17)]
    seen = set()
    ladder = [s_ for s_ in ladder
              if not (round(s_, 12) in seen or seen.add(round(s_, 12)))]
    lip = float(np.abs(coefs) @ mags)
    h_t = max(theta / (2.0 * lip + 1.0), 1e-4)

    round_no = 0
    while not bud.exhausted() and bud.best[0] > theta and h_t * round_no * CHUNK <= t_cap:
        for sg in ladder:
            if bud.exhausted() or bud.best[0] <= theta:
                break
            off = rng.uniform(0.0, h_t)
            ts = off + h_t * np.arange(round_no * CHUNK, (round_no + 1) * CHUNK)
            i = bud.eval_batch(np.full(len(ts), sg), ts)
            if i is not None and bud.best[0] > theta:
                _newton(bud, mags, coefs, inner_target, complex(sg, ts[i]))
        round_no += 1
    return finish()


def _newton(bud: _Budget, mags, coefs, target: complex, s0: complex):
    """NEWTON_STEPS Newton steps on g(s) = target for the trimmed series g.

    g is holomorphic with g'(s) = -sum mag_j c_j e^{-mag_j s}, so value
    matching converges quadratically near a simple solution.  Sigma is folded
    back to 0 whenever a step leaves the right half plane.
    """
    s = complex(max(s0.real, 0.0), s0.imag)
    for _ in range(NEWTON_STEPS):
        if bud.exhausted():
            return
        es = np.exp(-s * mags)
        g = complex(es @ coefs)
        bud.used += 1
        bud.offer(abs(g - target), s.real, s.imag)
        dg = complex(es @ (-mags * coefs))
        if dg == 0:
            return
        step = (g - target) / dg
        if not (abs(step) < 1e6):
            return
        s = s - step
        if s.real < 0.0:
            s = complex(0.0, s.imag)
