"""Spans around the calls into dirichlet_forge's public functions.

The tracer lives entirely in the benchmark: it swaps each listed function
for a wrapper in every module namespace that holds it (so `from .x import f`
aliases are covered and nested calls get their parent), records spans in
memory, and puts the originals back.  Nothing under `src/` changes.

A span is [name, start, end, parent index, op id, payload]; the payload
keeps (args, kwargs, result) for the few functions whose work counts are
derived after the operation, outside every timed interval.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import math
import sys
import time

PACKAGE = "dirichlet_forge"

# (module, attribute) of every wrapped function.  Names with a dot are
# methods of a class in that module.
TARGETS = [
    ("sieves", "factorize"),
    ("semigroup", "log_element"),
    ("semigroup", "enumerate_monoid"),
    ("algebra", "convolve"),
    ("algebra", "graded_invert"),
    ("algebra", "neumann_invert"),
    ("algebra", "compose_series"),
    ("algebra", "evaluate_series"),
    ("algebra", "invertibility_witness"),
    ("algebra", "min_modulus_on_disk"),
    ("algebra", "AlgebraElement.from_json"),
    ("algebra", "AlgebraElement.to_json"),
    ("characters", "functional"),
    ("ratlin", "rank"),
    ("ratlin", "rref"),
    ("ratlin", "solve"),
    ("ratlin", "independent_subset"),
    ("exact_lp", "solve_standard"),
    ("exact_lp", "nonneg_combination"),
    ("exact_lp", "max_coordinate"),
    ("exact_lp", "feasible_geq_one"),
    ("exact_lp", "feasible_functional"),
    ("exact_lp", "fourier_motzkin"),
    ("cones", "separate"),
    ("cones", "dual_cone"),
    ("cones", "extreme_rays"),
    ("cones", "basis_through_point"),
    ("extension", "modulus_functional"),
    ("extension", "zero_set_separation"),
    ("extension", "build_dual_basis"),
    ("extension", "extend_character"),
    ("density", "kronecker_t"),
    ("density", "approximate_functional"),
    ("arithmetic", "invert_multiplicative"),
    ("arithmetic", "euler_invertibility_report"),
    ("weights", "check_root_convergence"),
    ("cli", "run"),
]

# Spans whose arguments and result are kept until the operation ends.
KEEP = {
    "semigroup.enumerate_monoid", "algebra.graded_invert.exact",
    "algebra.graded_invert.float", "algebra.convolve", "algebra.neumann_invert",
    "cones.dual_cone", "extension.extend_character", "algebra.min_modulus_on_disk",
    "arithmetic.euler_invertibility_report", "density.approximate_functional",
    "density.kronecker_t", "cli.run",
}

OP_SPAN = "bench.op"


def _label(name, args):
    if name == "algebra.graded_invert":
        return f"{name}.{args[0].backend}"
    return name


class Tracer:
    """In-memory span recorder; install() / uninstall() swap the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None
        self._swaps = []
        self._wrappers = {}  # id(original function) -> (original, wrapper)
        self._methods = []   # (class, attribute, original descriptor, new descriptor)
        for modname, attr in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                desc = cls.__dict__[meth]
                if isinstance(desc, classmethod):
                    new = classmethod(self._wrap(name, desc.__func__))
                else:
                    new = self._wrap(name, desc)
                self._methods.append((cls, meth, desc, new))
            else:
                fn = getattr(mod, attr)
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = _label(name, args)
            span = [label, 0.0, 0.0, stack[-1] if stack else None, tracer._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if label in KEEP:
                span[5] = (args, kwargs, result)
            return result

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        if self._swaps:
            raise RuntimeError("tracer already installed")
        for modname, mod in list(sys.modules.items()):
            if not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._swaps.append((mod, attr, val))
        for cls, meth, _, new in self._methods:
            setattr(cls, meth, new)

    def uninstall(self):
        for mod, attr, val in reversed(self._swaps):
            setattr(mod, attr, val)
        self._swaps.clear()
        for cls, meth, desc, _ in self._methods:
            setattr(cls, meth, desc)

    # -- one traced operation -----------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as one operation span with every wrapper installed.

        Returns (result, exception, seconds).  The wrappers are removed
        before returning, and the kept payloads are turned into counts.
        """
        first = len(self.spans)
        self._op = op_id
        span = [OP_SPAN, 0.0, 0.0, None, op_id, None]
        self.install()
        try:
            self.spans.append(span)
            self._stack.append(first)
            result, error = None, None
            span[1] = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as e:  # a failed operation is counted, not fatal
                error = e
            span[2] = time.perf_counter()
            self._stack.pop()
        finally:
            self.uninstall()
            self._op = None
        self._count(first)
        return result, error, span[2] - span[1]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, first):
        """Derive work counts from the payloads of spans[first:], then drop them."""
        spans = self.spans
        dual_spans = set()
        for idx in range(first, len(spans)):
            span = spans[idx]
            name, payload = span[0], span[5]
            if name == "exact_lp.solve_standard":
                p = span[3]
                while p is not None:
                    if p in dual_spans:
                        self.add("exact_lp.solves_in_dual_cone", 1)
                        break
                    p = spans[p][3]
            if payload is None:
                continue
            span[5] = None
            args, kwargs, result = payload
            if name == "cones.dual_cone":
                dual_spans.add(idx)
            _COUNTERS[name](self, args, kwargs, result)


def _count_monoid(tr, args, kwargs, result):
    tr.add("semigroup.enumerate_monoid.elements", len(result))


def _count_graded(tr, args, kwargs, result):
    tr.add("algebra.graded_invert.terms_out", len(result.coeffs))


def _count_convolve(tr, args, kwargs, result):
    a, b = args[0], args[1]
    pairs = len(a.coeffs) * len(b.coeffs)
    tr.add("algebra.convolve.pairs", pairs)
    T = result.truncation
    if T is None:
        tr.add("algebra.convolve.pairs_in_cutoff", pairs)
        return
    # same slack as the library's cutoff test
    limit = T + 1e-12 * (1.0 + abs(T))
    mb = sorted(lb.l1() for lb in b.coeffs)
    tr.add("algebra.convolve.pairs_in_cutoff",
           sum(bisect.bisect_right(mb, limit - la.l1()) for la in a.coeffs))


def _count_neumann(tr, args, kwargs, result):
    inv, cert = result
    tr.add("algebra.neumann_invert.terms_used", cert.terms_used)
    tr.add("algebra.neumann_invert.support_out", len(inv.coeffs))


def _count_dual(tr, args, kwargs, result):
    tr.add("cones.dual_cone.rays_out", len(result.rays))


def _count_extension(tr, args, kwargs, result):
    tr.add("extension.flags_raised", len(result.flags))


def _count_disk(tr, args, kwargs, result):
    # grid size computed from the spacing and boundary count, as the library
    # lays the grid out: a (2k+1)^2 square with k = ceil(1/step), plus the
    # boundary points
    step = args[1] if len(args) > 1 else kwargs.get("step", 0.02)
    boundary = args[2] if len(args) > 2 else kwargs.get("boundary", 512)
    k = int(math.ceil(1.0 / step))
    tr.add("algebra.min_modulus_on_disk.grid_points", (2 * k + 1) ** 2 + boundary)
    tr.add("algebra.min_modulus_on_disk.certified", int(result[2] > 0.0))


def _count_euler(tr, args, kwargs, result):
    tr.add("arithmetic.euler_invertibility_report.primes", len(result))


def _count_density(tr, args, kwargs, result):
    tr.add("density.approximate_functional.evals", result.steps)


def _count_kronecker(tr, args, kwargs, result):
    tr.add("density.kronecker_t.steps", result.steps)


def _count_cli(tr, args, kwargs, result):
    tr.add("cli.nonzero_exits", int(result != 0))


_COUNTERS = {
    "semigroup.enumerate_monoid": _count_monoid,
    "algebra.graded_invert.exact": _count_graded,
    "algebra.graded_invert.float": _count_graded,
    "algebra.convolve": _count_convolve,
    "algebra.neumann_invert": _count_neumann,
    "cones.dual_cone": _count_dual,
    "extension.extend_character": _count_extension,
    "algebra.min_modulus_on_disk": _count_disk,
    "arithmetic.euler_invertibility_report": _count_euler,
    "density.approximate_functional": _count_density,
    "density.kronecker_t": _count_kronecker,
    "cli.run": _count_cli,
}


def self_times(spans, scales):
    """{name: (calls, self seconds, inclusive seconds)} over all spans.

    Each span's duration is multiplied by scales[op id].  Self time is a
    span's duration minus the durations of its direct children; in one
    thread children never overlap, so the self times of all spans add up to
    the summed duration of the root spans.
    """
    calls, self_s, incl = {}, {}, {}
    for name, start, end, parent, op, _ in spans:
        dur = (end - start) * scales[op]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur
        incl[name] = incl.get(name, 0.0) + dur
        if parent is not None:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - dur
    return {n: (calls[n], self_s[n], incl[n]) for n in calls}
