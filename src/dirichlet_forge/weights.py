"""Submultiplicative weight functions on the semigroup, evaluated at |lambda|_1.

Kinds:
  ONE      w = 1
  POLY(c)  w = (1 + |lambda|_1)^c, c >= 0
  EXP(rho) w = exp(-rho |lambda|_1)  (auxiliary damping; rho < 0 grows)
  PRODUCT  pointwise product of parts
  TABLE    piecewise-linear interpolation of user pairs, clamped outside

Admissibility diagnostics: w >= 1 on samples, and the k-th root criterion
min_k w(k lambda)^(1/k) <= 1 + tol along doubling k (the infimum form of the
limit condition, which is what a finite sample can certify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

ONE = "one"
POLY = "poly"
EXP = "exp"
PRODUCT = "product"
TABLE = "table"


def _mag(x) -> float:
    # accept semigroup elements or raw magnitudes
    l1 = getattr(x, "l1", None)
    if callable(l1):
        return l1()
    return float(x)


@dataclass(frozen=True)
class WeightFn:
    kind: str
    c: float = 0.0
    rho: float = 0.0
    parts: tuple = ()
    points: tuple = ()  # ((x0, w0), (x1, w1), ...) with x ascending

    def __post_init__(self):
        if self.kind not in (ONE, POLY, EXP, PRODUCT, TABLE):
            raise ValidationError(f"unknown weight kind {self.kind!r}")
        if not (math.isfinite(self.c) and math.isfinite(self.rho)):
            raise ValidationError(f"weight parameters must be finite, got c={self.c}, "
                                  f"rho={self.rho}")
        if self.kind == POLY and self.c < 0:
            raise ValidationError("poly weight needs c >= 0")
        if self.kind == PRODUCT:
            object.__setattr__(self, "parts", tuple(self.parts))
            if not self.parts:
                raise ValidationError("product weight needs parts")
        if self.kind == TABLE:
            pts = sorted((float(x), float(w)) for x, w in self.points)
            if not pts:
                raise ValidationError("table weight needs points")
            if not all(math.isfinite(x) and math.isfinite(w) for x, w in pts):
                raise ValidationError("table weight points must be finite")
            if pts[0][0] < 0.0:
                raise ValidationError("table weight abscissae are magnitudes, so >= 0")
            xs = [x for x, _ in pts]
            if len(set(xs)) != len(xs):
                raise ValidationError("table weight has duplicate abscissae")
            if pts[0][0] == 0.0:
                if pts[0][1] != 1.0:
                    raise ValidationError("table weight must have w(0) = 1")
            else:
                pts.insert(0, (0.0, 1.0))
            object.__setattr__(self, "points", tuple(pts))

    # -- evaluation ---------------------------------------------------------

    def eval_mag(self, m: float) -> float:
        if self.kind == ONE:
            return 1.0
        if self.kind == POLY:
            return (1.0 + m) ** self.c
        if self.kind == EXP:
            return math.exp(-self.rho * m)
        if self.kind == PRODUCT:
            out = 1.0
            for p in self.parts:
                out *= p.eval_mag(m)
            return self._not_nan(out, m)
        return self._table_eval(m)

    def _not_nan(self, v: float, m: float) -> float:
        """v, unless it is NaN: inf * 0 in a product, or a table
        interpolation whose difference overflows, has no weight to give."""
        if v != v:
            raise ValidationError(f"{self.kind} weight evaluates to NaN at magnitude {m}")
        return v

    def _table_eval(self, m: float) -> float:
        pts = self.points
        if m <= pts[0][0]:
            return pts[0][1]
        if m >= pts[-1][0]:
            return pts[-1][1]
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= m:
                lo = mid
            else:
                hi = mid
        x0, w0 = pts[lo]
        x1, w1 = pts[hi]
        t = (m - x0) / (x1 - x0)
        return self._not_nan(w0 + t * (w1 - w0), m)

    def eval(self, lam) -> float:
        """w(lambda); accepts elements (via |.|_1) or raw magnitudes."""
        return self.eval_mag(_mag(lam))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == ONE:
            return {"kind": ONE}
        if self.kind == POLY:
            return {"kind": POLY, "c": self.c}
        if self.kind == EXP:
            return {"kind": EXP, "rho": self.rho}
        if self.kind == PRODUCT:
            return {"kind": PRODUCT, "parts": [p.to_json() for p in self.parts]}
        return {"kind": TABLE, "points": [[x, w] for x, w in self.points]}

    @classmethod
    def from_json(cls, data: dict) -> "WeightFn":
        try:
            kind = data["kind"]
            if kind == ONE:
                return one()
            if kind == POLY:
                return poly(float(data["c"]))
            if kind == EXP:
                return exp_weight(float(data["rho"]))
            if kind == PRODUCT:
                return product(*[cls.from_json(p) for p in data["parts"]])
            if kind == TABLE:
                return table([(x, w) for x, w in data["points"]])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed weight JSON: {e}") from e
        raise ValidationError(f"unknown weight kind {data.get('kind')!r}")


def one() -> WeightFn:
    return WeightFn(ONE)


def poly(c: float) -> WeightFn:
    return WeightFn(POLY, c=float(c))


def exp_weight(rho: float) -> WeightFn:
    return WeightFn(EXP, rho=float(rho))


def product(*parts: WeightFn) -> WeightFn:
    return WeightFn(PRODUCT, parts=tuple(parts))


def table(points) -> WeightFn:
    return WeightFn(TABLE, points=tuple((float(x), float(w)) for x, w in points))


# -- diagnostics ------------------------------------------------------------

@dataclass
class RootReport:
    passed: bool
    min_root: float
    roots: list
    overflowed: bool = False


def check_geq_one(w: WeightFn, samples) -> bool:
    """w >= 1 on the sample magnitudes (admissibility, lower-bound half).
    A value that overflows a float counts as +inf, as in the checks below."""
    for s in samples:
        try:
            v = w.eval(s)
        except OverflowError:
            continue
        if not v >= 1.0 - 1e-12:
            return False
    return True


def check_root_convergence(w: WeightFn, lam, K: int = 4096, tol: float = 0.05) -> RootReport:
    """Doubling-k sample of w(k lambda)^(1/k); passes iff the minimum <= 1+tol.

    The limit w(k lambda)^{1/k} -> 1 is equivalent to inf_k <= 1 for
    submultiplicative w, so a finite doubling scan can certify it.
    """
    m = _mag(lam)
    roots = []
    overflow = False
    k = 1
    while k <= K:
        try:
            wk = w.eval_mag(k * m)
            root = wk ** (1.0 / k)
        except OverflowError:
            overflow = True
            root = math.inf
        roots.append((k, root))
        k *= 2
    finite = [r for _, r in roots if math.isfinite(r)]
    min_root = min(finite) if finite else math.inf
    return RootReport(passed=bool(finite) and min_root <= 1.0 + tol,
                      min_root=min_root, roots=roots, overflowed=overflow)


@dataclass
class GrowthReport:
    sup: float
    argmax: float
    trend: str  # "bounded" | "increasing"


def check_growth_bound(w: WeightFn, theta: float, samples) -> GrowthReport:
    """sup over samples of w(lambda) exp(-theta |lambda|_1), with trend flag."""
    mags = sorted(_mag(s) for s in samples)
    vals = []
    for m in mags:
        try:
            vals.append((m, w.eval_mag(m) * math.exp(-theta * m)))
        except OverflowError:
            vals.append((m, math.inf))
    sup = -math.inf
    arg = 0.0
    for m, v in vals:
        if v > sup:
            sup, arg = v, m
    half = len(vals) // 2
    lo = max((v for _, v in vals[:half]), default=0.0)
    hi = max((v for _, v in vals[half:]), default=0.0)
    trend = "increasing" if hi == math.inf or hi > lo * (1.0 + 1e-9) else "bounded"
    return GrowthReport(sup=sup, argmax=arg, trend=trend)
