"""The four benchmark workloads.

Each workload turns a seed into a fixed cyclic schedule of operations
(`schedule`), runs one operation through the library (`run`), and checks
its output (`check`) with code that does not call the library, except where
a check compares two library routes by design (the double dual against
`extreme_rays`).  Input sizes follow fixed golden-ratio sweeps (`_sweep`) and the seed draws
the data, so the work in a run depends on the seed far less than it would
under independent draws.

`check` returns whether the output is right; `budgeted` and `exhausted`
report the operations that run a budgeted search and whether it ran out.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from fractions import Fraction as F

import numpy as np
# the library imports scipy.optimize lazily, inside some searches and
# extensions; importing it here keeps that time and memory in set-up
import scipy.optimize  # noqa: F401

from dirichlet_forge import algebra, arithmetic, cli, cones, density, extension, semigroup
from dirichlet_forge.characters import Character


def _primes_upto(x):
    mark = bytearray([1]) * (x + 1)
    mark[:2] = b"\0\0"
    for p in range(2, math.isqrt(x) + 1):
        if mark[p]:
            mark[p * p::p] = bytearray(len(range(p * p, x + 1, p)))
    return [i for i in range(x + 1) if mark[i]]


# generator id i of log_primes_basis(x) is log of the i-th prime
PRIMES = _primes_upto(3000)


def _n_of(lam):
    n = 1
    for gid, k in lam.exponents:
        n *= PRIMES[gid] ** k
    return n


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sweep(count):
    """`count` points of [0, 1) in golden-ratio steps.

    Any stretch of consecutive points covers [0, 1) almost evenly, so every
    stretch of a schedule, and so every run whatever its length, holds
    nearly the same mix of sizes.  The sizes are the same for every seed;
    the seed draws the data.
    """
    return [(0.5 + i * GOLDEN) % 1.0 for i in range(count)]


def _sizes(count, lo, hi, log=False):
    return [lo * (hi / lo) ** u if log else lo + (hi - lo) * u for u in _sweep(count)]


def _picks(items, count):
    """Iterator over `count` items, each picked with equal share by _sweep."""
    items = list(items)
    return iter([items[int(u * len(items))] for u in _sweep(count)])


def _unimodular(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


class Workload:
    name = ""
    cycles = 0          # schedule length, in cycles of the workload's op mix

    def schedule(self, seed):
        raise NotImplementedError

    def warmup(self):
        """A few small operations of every kind, run untimed during set-up."""
        raise NotImplementedError

    def run(self, op):
        kind, data = op
        return getattr(self, "run_" + kind)(data)

    def check(self, op, out):
        kind, data = op
        return getattr(self, "check_" + kind)(data, out)

    BUDGETED = ()  # operation kinds that run a budgeted search

    def budgeted(self, op):
        return op[0] in self.BUDGETED

    def exhausted(self, op, out):
        return out.exhausted

    def layer_counts(self, op, out):
        """Per-layer counts only the benchmark can see (traced runs)."""
        return {}

    def close(self):
        pass


# -- series-invert ------------------------------------------------------------


def _series_from(basis, values, backend=algebra.FLOAT, truncation=None):
    """Dirichlet series sum_n values[n-1] n^-s, built term by term."""
    pairs = [(semigroup.log_element(basis, n), v)
             for n, v in enumerate(values, 1) if v != 0]
    return algebra.from_coeffs(basis, pairs, backend, truncation)


def _gauss_mul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


class SeriesInvert(Workload):
    """Dirichlet series over log N: graded inversion in both backends on the
    same support, truncated float convolution, Neumann inversion on small
    log-prime bases, and polynomial composition."""

    name = "series-invert"
    cycles = 60
    N_RANGE = (300, 3000)      # graded inversion support, log-uniform
    M_RANGE = (150, 1000)      # convolution operand length
    Q3 = (0.25, 0.45)          # Neumann contraction ratio, 3 generators
    Q4 = (0.10, 0.20)          # Neumann contraction ratio, 4 generators
    FLOAT_TOL = 1e-9           # |float - exact| <= tol * (1 + |exact|)

    def schedule(self, seed):
        rng = random.Random(seed)
        c = self.cycles
        ns = _sizes(c, *self.N_RANGE, log=True)
        ms = _sizes(c, *self.M_RANGE)
        q3 = _sizes(c, *self.Q3)
        q4 = _sizes(c, *self.Q4)
        ops = []
        for i in range(c):
            n = int(ns[i])
            coeffs = [(1, 0)] + [(rng.randint(-2, 2), rng.randint(-2, 2))
                                 for _ in range(n - 1)]
            inv = {"N": n, "coeffs": coeffs}
            ops.append(("invert", dict(inv, backend=algebra.EXACT)))
            ops.append(("invert", dict(inv, backend=algebra.FLOAT)))
            m = int(ms[i])
            ops.append(("convolve", {
                "M": m,
                "a": [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)],
                "b": [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]}))
            gens = 3 if i % 2 == 0 else 4
            ops.append(("neumann", self._contraction(rng, gens, q3[i] if gens == 3 else q4[i])))
            ops.append(("compose", dict(self._contraction(rng, 3, rng.uniform(0.3, 0.9)),
                                        f=[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                           for _ in range(rng.randint(4, 7))])))
        return ops

    @staticmethod
    def _contraction(rng, gens, q):
        """1 + sum_i w_i delta(log p_i) with sum |w_i| = q."""
        ws = [rng.uniform(0.2, 1.0) * _unimodular(rng) for _ in range(gens)]
        total = sum(abs(w) for w in ws)
        return {"gens": gens, "w": [w * q / total for w in ws]}

    def warmup(self):
        rng = random.Random(0)
        small = [(1, 0)] + [(rng.randint(-2, 2), 0) for _ in range(59)]
        inv = {"N": 60, "coeffs": small}
        return [("invert", dict(inv, backend=algebra.EXACT)),
                ("invert", dict(inv, backend=algebra.FLOAT)),
                ("convolve", {"M": 30, "a": [1.0] * 30, "b": [0.5j] * 30}),
                ("neumann", {"gens": 3, "w": [0.1, 0.1j, -0.1]}),
                ("compose", {"gens": 3, "w": [0.1, 0.1j, -0.1], "f": [1.0, 0.5, 0.25]})]

    # graded inversion ----------------------------------------------------

    def run_invert(self, d):
        n = d["N"]
        basis = semigroup.log_primes_basis(n)
        backend = d["backend"]
        values = [complex(re, im) for re, im in d["coeffs"]]
        a = _series_from(basis, values, backend)
        return algebra.graded_invert(a, truncation=math.log(n))

    @staticmethod
    def _exact_inverse(n, coeffs):
        """Inverse of an integer series with a(1) = 1, by the divisor-sum
        recursion b(m) = -sum_{k | m, k > 1} a(k) b(m/k), in Gaussian integers."""
        a = [(0, 0)] + coeffs
        sup = [k for k in range(2, n + 1) if a[k] != (0, 0)]
        acc_re, acc_im = [0] * (n + 1), [0] * (n + 1)
        b = [(0, 0)] * (n + 1)
        b[1] = (1, 0)
        for m in range(1, n + 1):
            if m > 1:
                b[m] = (-acc_re[m], -acc_im[m])
            br, bi = b[m]
            if br == 0 and bi == 0:
                continue
            for k in sup:
                if m * k > n:
                    break
                pr, pi = _gauss_mul(a[k][0], a[k][1], br, bi)
                acc_re[m * k] += pr
                acc_im[m * k] += pi
        return b

    def check_invert(self, d, out):
        n = d["N"]
        got = {}
        for lam, v in out.coeffs.items():
            m = _n_of(lam)
            if m > n:
                return False
            got[m] = v
        if d["backend"] == algebra.EXACT:
            # the divisor-sum convolution a * b must be the unit, exactly
            a = [(0, 0)] + d["coeffs"]
            b = [(0, 0)] * (n + 1)
            for m, v in got.items():
                if v.re.denominator != 1 or v.im.denominator != 1:
                    return False
                b[m] = (v.re.numerator, v.im.numerator)
            conv_re, conv_im = [0] * (n + 1), [0] * (n + 1)
            for k in range(1, n + 1):
                ar, ai = a[k]
                if ar == 0 and ai == 0:
                    continue
                for j in range(1, n // k + 1):
                    br, bi = b[j]
                    if br or bi:
                        pr, pi = _gauss_mul(ar, ai, br, bi)
                        conv_re[k * j] += pr
                        conv_im[k * j] += pi
            return all(conv_re[m] == (m == 1) and conv_im[m] == 0
                       for m in range(1, n + 1))
        want = self._exact_inverse(n, d["coeffs"])
        for m in range(1, n + 1):
            w = complex(*want[m])
            if abs(complex(got.get(m, 0j)) - w) > self.FLOAT_TOL * (1.0 + abs(w)):
                return False
        return True

    # truncated convolution -----------------------------------------------

    def run_convolve(self, d):
        m = d["M"]
        basis = semigroup.log_primes_basis(m)
        t = math.log(m)
        a = _series_from(basis, d["a"], truncation=t)
        b = _series_from(basis, d["b"], truncation=t)
        return algebra.convolve(a, b)

    def check_convolve(self, d, out):
        m = d["M"]
        a, b = [0j] + d["a"], [0j] + d["b"]
        c = [0j] * (m + 1)
        scale = [0.0] * (m + 1)
        for i in range(1, m + 1):
            for j in range(1, m // i + 1):
                c[i * j] += a[i] * b[j]
                scale[i * j] += abs(a[i]) * abs(b[j])
        got = {}
        for lam, v in out.coeffs.items():
            k = _n_of(lam)
            if k > m:
                return False
            got[k] = v
        return all(abs(got.get(k, 0j) - c[k]) <= 1e-12 * (1.0 + scale[k])
                   for k in range(1, m + 1))

    # Neumann inversion and composition ------------------------------------

    @staticmethod
    def _contraction_element(d):
        basis = semigroup.log_primes_basis(PRIMES[d["gens"] - 1])
        pairs = [(basis.zero(), 1.0)] + [(basis.generator_element(i), w)
                                          for i, w in enumerate(d["w"])]
        return algebra.from_coeffs(basis, pairs)

    def run_neumann(self, d):
        return algebra.neumann_invert(self._contraction_element(d))

    @staticmethod
    def _exponent_vec(lam, gens):
        e = [0] * gens
        for gid, k in lam.exponents:
            e[gid] = k
        return tuple(e)

    def check_neumann(self, d, out):
        inv, cert = out
        g = d["gens"]
        b = {self._exponent_vec(lam, g): complex(v) for lam, v in inv.coeffs.items()}
        units = [tuple(int(i == j) for j in range(g)) for i in range(g)]
        # residual of (1 + sum w_i x_i) * b - 1 in the l1 norm
        prod = dict(b)
        for w, u in zip(d["w"], units):
            for e, v in b.items():
                key = tuple(x + y for x, y in zip(e, u))
                prod[key] = prod.get(key, 0j) + w * v
        zero = (0,) * g
        prod[zero] = prod.get(zero, 0j) - 1.0
        residual = sum(abs(v) for v in prod.values())
        return residual < 1e-9 and cert.terms_used >= 1

    def run_compose(self, d):
        a = self._contraction_element(d)
        return algebra.compose_series(algebra.PowerSeries.from_coeffs(d["f"]), a)

    def check_compose(self, d, out):
        c, _ = out
        g = d["gens"]
        zero = (0,) * g
        a = {zero: 1.0 + 0j}
        for i, w in enumerate(d["w"]):
            a[tuple(int(i == j) for j in range(g))] = w
        want, power = {}, {zero: 1.0 + 0j}
        for k, fk in enumerate(d["f"]):
            if k:
                nxt = {}
                for e1, v1 in power.items():
                    for e2, v2 in a.items():
                        key = tuple(x + y for x, y in zip(e1, e2))
                        nxt[key] = nxt.get(key, 0j) + v1 * v2
                power = nxt
            for e, v in power.items():
                want[e] = want.get(e, 0j) + fk * v
        got = {self._exponent_vec(lam, g): complex(v) for lam, v in c.coeffs.items()}
        keys = set(got) | set(want)
        return all(abs(got.get(e, 0j) - want.get(e, 0j)) <= 1e-9 for e in keys)


# -- cone-extend --------------------------------------------------------------


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


class ConeExtend(Workload):
    """Character-extension round-trips (the acceptance criterion 7 family),
    separation (criterion 5 family, Fourier-Motzkin cross-check at d <= 3)
    and dual / double-dual cones of neighbourly cones."""

    name = "cone-extend"
    cycles = 40
    # one cycle: 6 round-trips, 3 separations, 2 dual + double-dual pairs
    MIX = ("roundtrip", "separate", "dual", "ddual", "roundtrip", "roundtrip",
           "separate", "roundtrip", "dual", "ddual", "roundtrip", "separate", "roundtrip")
    # (dimension, generators), each shape equally often.  Round-trips in
    # d = 4 with 8 generators (0.7 s, CV 0.5), separations with the
    # Fourier-Motzkin cross-check on 12 points (0.2 s, CV 1) and cones past
    # the sizes below take so long, or vary so much between inputs, that a
    # 25 s run would not settle; the blow-up already shows at these sizes.
    RT_SHAPES = tuple((d, k) for d in (2, 3, 4) for k in range(2, 9) if (d, k) != (4, 8))
    SEP_SHAPES = tuple((d, m) for d in range(1, 6) for m in (3, 6, 9, 12)
                       if not (d <= 3 and m == 12))
    DUAL_SIZES = ((3, 6), (3, 8), (3, 10), (4, 5), (4, 6), (4, 7), (5, 6))

    def schedule(self, seed):
        rng = random.Random(seed)
        c = self.cycles
        rt_shapes = _picks(self.RT_SHAPES, c * self.MIX.count("roundtrip"))
        sep_shapes = _picks(self.SEP_SHAPES, c * self.MIX.count("separate"))
        dual_sizes = _picks(self.DUAL_SIZES, c * self.MIX.count("dual"))
        ops = []
        for _ in range(c):
            dual = None
            for kind in self.MIX:
                if kind == "roundtrip":
                    ops.append(("roundtrip", self._roundtrip(rng, *next(rt_shapes))))
                elif kind == "separate":
                    ops.append(("separate", self._points(rng, *next(sep_shapes))))
                elif kind == "dual":
                    dual = {"gens": self._cone(rng, *next(dual_sizes))}
                    ops.append(("dual", dual))
                else:
                    ops.append(("ddual", dual))
        return ops

    def warmup(self):
        rng = random.Random(0)
        dual = {"gens": self._cone(rng, 3, 4)}
        # d = 4 with every value prescribed and nonzero: the phase fit then
        # enumerates its largest integer box (17^4 candidates, about 20 MB),
        # which would otherwise raise peak RSS only in the runs that meet one
        gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, 1, 0, 0), (0, 1, 1, 1), (1, 0, 2, 1)]
        omega = (0.3, -0.7, 0.5, 0.9)
        widest = {"dim": 4, "gens": [tuple(F(x) for x in g) for g in gens],
                  "prescribed": {i: 0.8 ** sum(g) * cmath.exp(1j * _dot(omega, g))
                                 for i, g in enumerate(gens)}}
        return [("roundtrip", widest), ("roundtrip", self._roundtrip(rng, 2, 3)),
                ("separate", self._points(rng, 3, 4)),
                ("separate", self._points(rng, 4, 4)),
                ("dual", dual), ("ddual", dual)]

    @staticmethod
    def _roundtrip(rng, d, k):
        """Restriction of a known bounded character to random generators."""
        gens, seen = [], set()
        while len(gens) < k:
            g = tuple(F(rng.randint(0, 6), rng.choice([1, 1, 2, 3])) for _ in range(d))
            if any(x > 0 for x in g) and g not in seen:
                seen.add(g)
                gens.append(g)
        zeta0 = [F(rng.randint(0, 4), 2) for _ in range(d)]
        omega0 = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        theta0 = [F(rng.randint(0, 2)) if rng.random() < 0.4 else F(0) for _ in range(d)]

        def phi0(g):
            if _dot(theta0, g) > 0:
                return 0j
            zv = sum(float(z) * float(x) for z, x in zip(zeta0, g))
            ov = sum(o * float(x) for o, x in zip(omega0, g))
            return math.exp(-zv) * cmath.exp(1j * ov)

        idx = rng.sample(range(k), rng.randint(1, k))
        return {"dim": d, "gens": gens, "prescribed": {i: phi0(gens[i]) for i in idx}}

    @staticmethod
    def _points(rng, d, m):
        return {"points": [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
                           for _ in range(m)]}

    @staticmethod
    def _cone(rng, d, m):
        """Cone over m points of the moment curve t -> (1, t, ..., t^(d-1)).

        Every generator is extreme and the dual has the largest number of
        rays m generators in dimension d can give (a cyclic polytope's
        facets), so the cost depends on the size and little on the seed,
        which only picks the parameters t.
        """
        ts = sorted(rng.sample(range(1, 4 * m), m))
        return [tuple(t ** j for j in range(d)) for t in ts]

    def run_roundtrip(self, d):
        prob = extension.CharacterExtensionProblem(d["dim"], d["gens"], d["prescribed"])
        return extension.extend_character(prob)

    def check_roundtrip(self, d, out):
        basis = out.basis_vectors
        for g, ex in zip(d["gens"], out.exponents):
            if not all(isinstance(e, int) and e >= 0 for e in ex):
                return False
            rec = tuple(sum(e * b[j] for e, b in zip(ex, basis)) for j in range(d["dim"]))
            if rec != g:
                return False
        if any(abs(z) > 1.0 + 1e-9 for z in out.phi_basis):
            return False
        # the extension's value on every generator is the product over its
        # factorization, and matches every prescribed value
        for i, ex in enumerate(out.exponents):
            z = complex(1.0)
            for e, zb in zip(ex, out.phi_basis):
                if e:
                    z *= zb ** e
            if abs(z - out.phi_gamma[i]) >= 1e-9:
                return False
            if i in d["prescribed"] and abs(z - d["prescribed"][i]) >= 1e-9:
                return False
        return len(out.exponents) == len(d["gens"])

    def run_separate(self, d):
        pts = d["points"]
        if len(pts[0]) <= 3:
            return cones.separate_cross_checked(pts)
        return cones.separate(pts)

    def check_separate(self, d, out):
        pts = d["points"]
        if (out.functional is None) == (out.zero_coefficients is None):
            return False
        if out.functional is not None:
            vals = [_dot(out.functional, p) for p in pts]
            return all(v >= 1 for v in vals) and min(vals) == 1
        cs = out.zero_coefficients
        return (len(cs) == len(pts) and all(c >= 0 for c in cs) and sum(cs) == 1
                and all(sum(c * p[j] for c, p in zip(cs, pts)) == 0
                        for j in range(len(pts[0]))))

    def run_dual(self, d):
        res = cones.dual_cone(d["gens"], dim=len(d["gens"][0]))
        d["rays"] = res.rays
        return res

    def check_dual(self, d, out):
        return bool(out.rays) and all(
            any(x != 0 for x in r) and all(_dot(r, g) >= 0 for g in d["gens"])
            for r in out.rays)

    def run_ddual(self, d):
        return cones.dual_cone(d["rays"], dim=len(d["gens"][0]))

    def check_ddual(self, d, out):
        return set(out.rays) == set(cones.extreme_rays(d["gens"]))


# -- search-certify -----------------------------------------------------------


def _disk_grid(step, boundary):
    """The library's disk grid: a square lattice pulled onto the unit
    circle where it leaves the disk, plus equally spaced boundary points."""
    k = int(math.ceil(1.0 / step))
    i = np.arange(-k, k + 1) * step
    z = (i[:, None] + 1j * i[None, :]).ravel()
    r = np.abs(z)
    z = np.where(r > 1.0, z / np.where(r > 0, r, 1.0), z)
    return np.concatenate([z, np.exp(2j * np.pi * np.arange(boundary) / boundary)])


def _disk_check(coeffs, minimum, lower, argmin, step=0.02, boundary=512):
    """Re-derive the disk minimum and its certified lower bound."""
    c = np.array([complex(x) for x in coeffs])
    grid = _disk_grid(step, boundary)
    mine = float(np.abs(np.polyval(c[::-1], grid)).min())
    lip = float(sum(n * abs(x) for n, x in enumerate(c)))
    at = abs(np.polyval(c[::-1], complex(argmin)))
    tol = 1e-9 * (1.0 + float(np.abs(c).sum()))
    return (abs(mine - minimum) <= tol and abs(at - minimum) <= tol
            and abs(lower - (minimum - lip * step * math.sqrt(2.0))) <= tol)


class SearchCertify(Workload):
    """Budgeted density and Kronecker searches, single-generator disk
    witnesses, and per-prime Euler-factor certificates."""

    name = "search-certify"
    cycles = 60
    # with 2 of 7 operations cheaper than a witness and 2 dearer, the median
    # falls inside the witness sizes and the p90 inside the Euler sizes
    MIX = ("density", "witness", "euler", "kronecker", "witness", "witness", "euler")
    BUDGETED = ("density", "kronecker")
    THETA_DENSITY = 1e-3
    THETA_KRONECKER = 1e-2
    BUDGET = 10 ** 6
    X_RANGE = (100, 400)        # Euler report prime bound

    def schedule(self, seed):
        rng = random.Random(seed)
        c = self.cycles
        n_d = self.MIX.count("density") * c
        n_w = self.MIX.count("witness") * c
        terms = _picks(range(2, 17), n_d)
        freqs = _picks((2, 3), self.MIX.count("kronecker") * c)
        degrees = _picks(range(8, 33), n_w)
        xs = iter(_sizes(c * self.MIX.count("euler"), *self.X_RANGE))
        ops = []
        for i in range(c):
            for kind in self.MIX:
                if kind == "density":
                    ops.append(("density", self._density(rng, next(terms))))
                elif kind == "kronecker":
                    ps = rng.sample(PRIMES[:10], next(freqs))
                    ops.append(("kronecker", {"betas": [math.log(p) for p in ps],
                                              "targets": [_unimodular(rng) for _ in ps]}))
                elif kind == "witness":
                    ops.append(("witness", self._poly(rng, next(degrees))))
                else:
                    ops.append(("euler", self._multiplicative(rng, int(next(xs)))))
        return ops

    def warmup(self):
        rng = random.Random(0)
        return [("density", self._density(rng, 3)),
                ("kronecker", {"betas": [math.log(2), math.log(3)],
                               "targets": [1j, -1.0]}),
                ("witness", self._poly(rng, 4)),
                ("euler", self._multiplicative(rng, 30))]

    def _density(self, rng, terms):
        ns = rng.sample(range(2, 61), terms)
        return {"ns": ns,
                "c": [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in ns],
                "psi": [rng.uniform(0.0, 1.0) * _unimodular(rng) for p in PRIMES if p <= 60],
                "seed": rng.randrange(1000)}

    @staticmethod
    def _poly(rng, degree):
        c = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)]
        if rng.random() < 0.5:   # dominant constant term: certifiable
            c[0] = 1.5 * sum(abs(x) for x in c[1:]) + 0.1
        return {"c": c}

    @staticmethod
    def _multiplicative(rng, x):
        ppv = {}
        for i, p in enumerate(p for p in PRIMES if p <= x):
            k, v = 1, p
            while v <= x:
                if k == 1 or rng.random() < 0.5:
                    ppv[(i, k)] = F(rng.randint(-4, 4), rng.randint(2, 9))
                k, v = k + 1, v * p
        return {"x": x, "ppv": ppv}

    def run_density(self, d):
        basis = semigroup.log_primes_basis(60)
        a = algebra.from_coeffs(basis, [(semigroup.log_element(basis, n), c)
                                        for n, c in zip(d["ns"], d["c"])])
        psi = Character(basis, tuple(d["psi"]))
        return density.approximate_functional(a, psi, theta=self.THETA_DENSITY,
                                              budget=self.BUDGET, seed=d["seed"])

    def check_density(self, d, out):
        primes = [p for p in PRIMES if p <= 60]
        s = out.s
        value = sum(c * cmath.exp(-s * math.log(n)) for n, c in zip(d["ns"], d["c"]))
        target = 0j
        for n, c in zip(d["ns"], d["c"]):
            z = complex(c)
            for p, v in zip(primes, d["psi"]):
                while n % p == 0:
                    z *= v
                    n //= p
            target += z
        err = abs(value - target)
        return s.real >= 0 and (out.exhausted or err < 3 * self.THETA_DENSITY)

    def run_kronecker(self, d):
        inst = density.KroneckerInstance(tuple(d["betas"]), tuple(d["targets"]),
                                         self.THETA_KRONECKER, self.BUDGET)
        return density.kronecker_t(inst)

    def check_kronecker(self, d, out):
        errs = [abs(cmath.exp(-1j * b * out.t) - z) for b, z in zip(d["betas"], d["targets"])]
        return (out.t >= 0 and all(abs(e - r) <= 1e-9 for e, r in zip(errs, out.errors))
                and (out.exhausted or max(errs) <= self.THETA_KRONECKER))

    def run_witness(self, d):
        basis = semigroup.natural_basis()
        a = algebra.from_coeffs(basis, [(basis.element(exponents={0: k}), c)
                                        for k, c in enumerate(d["c"])])
        return algebra.invertibility_witness(a)

    def check_witness(self, d, out):
        ok = _disk_check(d["c"], out.min_modulus, out.lower_bound, out.argmin_s)
        return ok and out.certified == (out.lower_bound > 0.0)

    def run_euler(self, d):
        system = arithmetic.PrimeSystem.rational_primes(d["x"])
        f = arithmetic.MultiplicativeFunction(system, dict(d["ppv"]))
        return arithmetic.invert_multiplicative(f), arithmetic.euler_invertibility_report(f)

    def check_euler(self, d, out):
        inv, report = out
        x = d["x"]
        primes = [p for p in PRIMES if p <= x]
        if sorted(report) != sorted({primes[i] for i, _ in d["ppv"]}):
            return False
        for i, p in enumerate(primes):
            kmax, v = 0, p
            while v <= x:
                kmax, v = kmax + 1, v * p
            f = [F(1)] + [d["ppv"].get((i, k), F(0)) for k in range(1, kmax + 1)]
            g = [F(1)] + [inv.ppv.get((i, k), F(0)) for k in range(1, kmax + 1)]
            # local factors multiply to 1: sum_j f(p^j) g(p^(k-j)) = 0 for k >= 1
            if any(sum(f[j] * g[k - j] for j in range(k + 1)) != 0
                   for k in range(1, kmax + 1)):
                return False
            if p in report:
                r = report[p]
                if not _disk_check(f, r["min_modulus"], r["lower_bound"],
                                   complex(*r["argmin"])):
                    return False
        return True


# -- forge-cli ----------------------------------------------------------------


def _basis_json(primes):
    return {"mode": "free", "r": 1,
            "generators": [{"id": i, "value": [math.log(p)], "exact": None,
                            "label": f"log{p}"} for i, p in enumerate(primes)]}


def _exponents_json(n):
    exps = {}
    for i, p in enumerate(PRIMES):
        if p > n:
            break
        while n % p == 0:
            exps[str(i)] = exps.get(str(i), 0) + 1
            n //= p
    return {"exponents": exps}


def _element_json(limit, values, backend="float", truncation=None):
    entries = []
    for n, v in values:
        if backend == "exact":
            entries.append({"element": _exponents_json(n), "re": str(v[0]), "im": str(v[1])})
        else:
            entries.append({"element": _exponents_json(n), "re": v.real, "im": v.imag})
    return {"basis": _basis_json([p for p in PRIMES if p <= limit]), "coeffs": entries,
            "backend": backend, "truncation": truncation}


class ForgeCli(Workload):
    """All 13 `forge` subcommands through `cli.run`, in-process, on seeded
    JSON fixtures, including --report and --schema runs, one documented
    precondition failure (exit 2) and one exhausted search (exit 3)."""

    name = "forge-cli"
    cycles = 40
    FIXTURE_SETS = 8
    SIZES = {"conv_terms": (100, 200), "graded_terms": (700, 1300), "points": (4, 6),
             "cone_gens": (4, 7), "ext_gens": (3, 6), "euler_x": (40, 120),
             "poly_degree": (12, 20), "p3_x": (150, 900)}

    def __init__(self, root):
        self.base = os.path.join(root, "bench", "out", f"cli-fixtures-{os.getpid()}")
        self.seen = {}

    def schedule(self, seed):
        rng = random.Random(seed)
        n = self.FIXTURE_SETS
        # each size sweeps its range across the sets, so every invocation's
        # cost is spread over a range, the same one for every seed
        sizes = {key: [round(x) for x in _sizes(n, lo, hi)]
                 for key, (lo, hi) in self.SIZES.items()}
        sets = [self._fixtures(rng, f"set{i}", {k: v[i] for k, v in sizes.items()})
                for i in range(n)]
        ops = []
        for i in range(self.cycles):
            for argv, code, budgeted in sets[i % len(sets)]:
                ops.append(("cli", {"argv": argv, "code": code, "budgeted": budgeted}))
        # warm-up: the first invocation of each subcommand in the first set;
        # its outputs also become the bytes every later repeat must match
        first = {}
        for op in ops[:len(sets[0])]:
            first.setdefault(op[1]["argv"][0], op)
        self._warm = list(first.values())
        return ops

    def warmup(self):
        return self._warm

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)

    def _fixtures(self, rng, tag, size):
        """Writes one fixture set; returns its invocations (argv, exit code, budgeted)."""
        folder = os.path.join(self.base, tag)
        os.makedirs(folder, exist_ok=True)

        def put(name, data):
            path = os.path.join(folder, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            return path

        def cplx():
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        m = size["conv_terms"]
        conv_a = put("conv_a.json", _element_json(
            m, [(n, cplx()) for n in range(1, m + 1)], truncation=math.log(m)))
        conv_b = put("conv_b.json", _element_json(
            m, [(n, cplx()) for n in range(1, m + 1)], truncation=math.log(m)))
        n_graded = size["graded_terms"]
        graded = put("graded.json", _element_json(
            n_graded, [(1, (1, 0))] + [(n, (rng.randint(-2, 2), rng.randint(-2, 2)))
                                       for n in range(2, n_graded + 1)], backend="exact"))
        ws = [0.05 * rng.uniform(0.5, 1.0) * _unimodular(rng) for _ in range(3)]
        small = put("small.json", _element_json(5, [(1, 1.0 + 0j)] + list(zip((2, 3, 5), ws))))
        big = put("big.json", _element_json(5, [(1, 1.0 + 0j), (2, 0.8 + 0j), (3, -0.7j)]))
        poly = [cplx() for _ in range(size["poly_degree"] + 1)]
        poly[0] = 1.5 * sum(abs(c) for c in poly[1:])
        witness = put("poly.json", {
            "basis": {"mode": "free", "r": 1, "generators": [
                {"id": 0, "value": [1.0], "exact": ["1"], "label": "1"}]},
            "coeffs": [{"element": {"exponents": {"0": k} if k else {}},
                        "re": c.real, "im": c.imag} for k, c in enumerate(poly)],
            "backend": "float", "truncation": None})
        pts = put("points.json", {"points": [
            [f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}" for _ in range(3)]
            for _ in range(size["points"])]})
        cone = put("cone.json", {"dim": 3, "generators": [
            [str(x) for x in g] for g in ConeExtend._cone(rng, 3, size["cone_gens"])]})
        rt = ConeExtend._roundtrip(rng, 3, size["ext_gens"])
        problem = put("problem.json", {
            "dim": rt["dim"], "generators": [[str(x) for x in g] for g in rt["gens"]],
            "prescribed": {str(i): {"re": z.real, "im": z.imag}
                           for i, z in rt["prescribed"].items()}})
        ns = rng.sample(range(2, 41), rng.randint(3, 8))
        dens_a = put("density_a.json", _element_json(40, [(n, cplx()) for n in ns]))
        psi = put("psi.json", {"values": {
            str(i): {"re": z.real, "im": z.imag}
            for i, z in enumerate(rng.uniform(0, 1) * _unimodular(rng)
                                  for p in PRIMES if p <= 40)}})
        kron = put("kron.json", {"betas": [math.log(2), math.log(3)],
                                 "targets": [{"re": z.real, "im": z.imag}
                                             for z in (_unimodular(rng) for _ in range(2))],
                                 "theta": 1e-2, "t_budget": 10 ** 6})
        x_euler = size["euler_x"]
        ps = [p for p in PRIMES if p <= x_euler]
        euler = put("euler.json", {"system": {"primes": ps, "x": x_euler, "rational": True},
                                   "values": [{"p": p, "k": 1, "value":
                                               f"{rng.randint(-4, 4)}/{rng.randint(5, 9)}"}
                                              for p in ps]})
        x_p3 = size["p3_x"]
        ps_p3 = [p for p in PRIMES if p <= x_p3]
        p3 = put("p3.json", {"system": {"primes": ps_p3, "x": x_p3, "rational": True},
                             "values": [{"p": p, "k": 1, "value": f"1/{p}"} for p in ps_p3]
                             + [{"p": p, "k": 2, "value": f"1/{p ** 3}"}
                                for p in ps_p3[:7] if p * p <= x_p3]})
        weight = put("weight.json", {"kind": "poly", "c": round(rng.uniform(0.5, 2.0), 3)})
        s = json.dumps({"re": round(rng.uniform(0.1, 2.0), 3),
                        "im": round(rng.uniform(-10, 10), 3)})
        graded_argv = ["invert", graded, "--method", "graded",
                       "--truncation", repr(math.log(n_graded))]
        euler_argv = ["euler-invert", euler, "--x", str(x_euler), "--certify"]
        # the mid-cost invocations run twice per pass and the dearest ones
        # also with --report: the median then falls among the mid-cost ones
        # and the p90 among the dearest, each a spread of swept sizes
        mid = [
            (["convolve", conv_a, conv_b], 0, False),
            (["invert", small, "--method", "neumann"], 0, False),
            (["witness", witness], 0, False),
            (["compose", small, "--series", '{"kind":"reciprocal","center":{"re":1,"im":0}}'],
             0, False),
            (["dual", cone], 0, False),
            (["dual", cone, "--report"], 0, False),
            (["extend-character", problem], 0, False),
        ]
        return mid + [
            (graded_argv, 0, False),
            (graded_argv + ["--report"], 0, False),
            (["invert", big, "--method", "neumann"], 2, False),
            (["eval", conv_a, "--s", s], 0, False),
            (["eval", conv_a, "--s", s, "--report"], 0, False),
            (["separate", pts, "--cross-check"], 0, False),
            (["density-search", dens_a, psi, "--theta", "1e-3", "--seed", str(rng.randrange(100))],
             0, True),
            (["kronecker", kron], 0, True),
            (["kronecker", kron, "--theta", "1e-9", "--budget", "2000"], 3, True),
            (euler_argv, 0, False),
            (euler_argv + ["--report"], 0, False),
            (["p3-decompose", p3, "--omega", '{"kind":"one"}', "--x", str(x_p3)], 0, False),
            (["check-weight", weight, "--theta", "0.5"], 0, False),
            (["density-search", "--schema"], 0, False),
        ] + mid

    def run_cli(self, d):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(d["argv"])
        return code, buf.getvalue().encode("utf-8")

    def check_cli(self, d, out):
        code, stdout = out
        digest = hashlib.sha256(stdout).hexdigest()
        key = tuple(d["argv"])
        same = self.seen.setdefault(key, digest) == digest
        want = d["code"]
        if "--report" not in key:
            data = json.loads(stdout)
            if d["budgeted"]:
                # any search may run out of budget: exit 3 exactly when flagged
                want = 3 if data.get("exhausted") is True else want
        return same and code == want and len(stdout) > 0

    def budgeted(self, op):
        return op[1]["budgeted"]

    def exhausted(self, op, out):
        return out[0] == 3

    def layer_counts(self, op, out):
        return {"cli.stdout_bytes": len(out[1])}


def make(name, root):
    """The workload object for a benchmark workload name."""
    if name == ForgeCli.name:
        return ForgeCli(root)
    for cls in (SeriesInvert, ConeExtend, SearchCertify):
        if cls.name == name:
            return cls()
    raise KeyError(name)

