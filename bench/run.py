#!/usr/bin/env python3
"""dirichlet-forge benchmark: one seeded workload in a closed loop.

    python3 bench/run.py --workload series-invert --seed 1 --seconds 25 --trace 0

One client in one process issues each operation after the previous one
returns.  Every output is checked outside the timed interval.  With
--trace 0 the loop runs for --seconds and at least MIN_OPS operations, and
the last stdout line holds the end-to-end metrics; with --trace 1 the first
third of the time runs untraced, the same operations are then replayed once
with spans around the library's public functions and once without, and the
last line holds the per-layer metrics.  Earlier stdout lines are a readable
report.  Workload and metric names come from BENCHMARK.json.  See
bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

SETUP_REPEATS = 3
# at least this many operations per end-to-end run, so that at least 10
# latencies lie beyond op_p90_ms
MIN_OPS = 100
# Time of the calibration kernel at the reference CPU speed.  Shared
# machines drift by 30% or more over tens of seconds; every timing is scaled
# by CAL_REF_S over the median kernel time measured next to it, which turns
# it into seconds at the reference speed.
CAL_REF_S = 1.5e-3
CAL_REPEATS = 8
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# BENCHMARK.json is the one list of workloads and metrics
SPEC = load_spec()
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# `calls` and `self_s` come from spans, the rest from counts derived after
# each operation
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# counts kept under another name than the metric, or turned into ratios
_DERIVED = {"exactnum.exact_over_float", "algebra.convolve.in_cutoff_ratio",
            "exact_lp.lp_per_dual_cone", "density.evals_per_s"}


def _die(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def _locate_source():
    """Put the checkout's src/ first on sys.path; fail if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dirichlet_forge", "__init__.py")):
        _die(f"no dirichlet_forge sources under {src}")
    sys.path.insert(0, src)
    return src


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _environment(args, root):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(root), "machine": platform.machine(),
    }


def _calibration_kernel():
    """Fixed pure-Python work, about 1.5 ms at the reference speed: Fraction
    arithmetic, tuple-keyed dict updates and float math, like the library."""
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
        table[(i, i % 13)] = acc.numerator % 1000
    x = 0.0
    for i in range(1, 3000):
        x += math.sqrt(i) * (i % 7)
    return len(table) + x


def _calibrate():
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def _calibrations(n=CAL_REPEATS // 2):
    return [_calibrate() for _ in range(n)]


class Tally:
    """Latencies, failures and budgeted-search outcomes of one loop.

    `bounds` holds a calibration time before the first operation and after
    each one; operation i is scaled by the median of the (up to) eight
    calibrations around it.
    """

    def __init__(self):
        self.latencies = []
        self.bounds = []
        self.failed = 0
        self.budgeted = 0
        self.exhausted = 0
        self.notes = []

    def scales(self):
        b = self.bounds
        return [CAL_REF_S / statistics.median(b[max(0, i - 3):i + 5])
                for i in range(len(self.latencies))]

    def scaled(self):
        return [x * f for x, f in zip(self.latencies, self.scales())]

    def record(self, wl, op, out, error, seconds):
        self.latencies.append(seconds)
        ok = False
        if error is None:
            try:
                ok = wl.check(op, out)
            except Exception as e:  # a check that cannot run counts as failed
                error = e
        if wl.budgeted(op):
            self.budgeted += 1
            self.exhausted += int(out is not None and wl.exhausted(op, out))
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{op[0]}: {error!r}" if error else f"{op[0]}: check failed")


def _loop(wl, ops, tally, seconds=None, count=0, tracer=None):
    """Closed loop over `ops` (cyclically) until at least `count` operations
    are done and, if `seconds` is given, that many seconds have passed."""
    start = time.perf_counter()
    tally.bounds.append(_calibrate())
    i = 0
    while i < count or (seconds is not None and time.perf_counter() - start < seconds):
        op = ops[i % len(ops)]
        if tracer is None:
            out, error = None, None
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as e:  # a failed operation is counted, not fatal
                error = e
            dt = time.perf_counter() - t0
        else:
            out, error, dt = tracer.run_op(i, wl.run, op)
            if error is None:
                for k, v in wl.layer_counts(op, out).items():
                    tracer.add(k, v)
        tally.record(wl, op, out, error, dt)
        tally.bounds.append(_calibrate())
        i += 1
    return i


def _setup(workloads, name, root, seed):
    """Build the schedule and warm every operation kind.

    Returns (workload, schedule, seconds at the reference speed).
    """
    before = _calibrations()
    t0 = time.perf_counter()
    wl = workloads.make(name, root)
    ops = wl.schedule(seed)
    warm = wl.warmup()
    _loop(wl, warm, Tally(), count=len(warm))
    seconds = time.perf_counter() - t0
    return wl, ops, seconds * CAL_REF_S / statistics.median(before + _calibrations())


def _percentile(xs, q):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _timings(lat):
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * _percentile(lat, 90)}


def _end_to_end(tally, setup_s):
    out = _timings(tally.scaled())
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _per_layer(tracer, traced, replay):
    """Per-layer metrics from the traced loop; `replay` ran the same
    operations untraced.  Span times are scaled like operation times."""
    from tracer import OP_SPAN, self_times
    st = self_times(tracer.spans, traced.scales())
    counts = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    out = {}
    exported = set()  # span names with a self_s metric of their own
    for metric in PER_LAYER:
        if metric.startswith("bench.") or metric in _DERIVED:
            continue
        base, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            out[metric] = calls(base)
        elif quantity == "self_s":
            out[metric] = self_s(base)
            exported.add(base)
        else:
            out[metric] = counts.get(metric, 0)
    flt = self_s("algebra.graded_invert.float")
    out["exactnum.exact_over_float"] = self_s("algebra.graded_invert.exact") / flt if flt else 0.0
    pairs = counts.get("algebra.convolve.pairs", 0)
    out["algebra.convolve.in_cutoff_ratio"] = (
        counts.get("algebra.convolve.pairs_in_cutoff", 0) / pairs if pairs else 0.0)
    duals = calls("cones.dual_cone")
    out["exact_lp.lp_per_dual_cone"] = (
        counts.get("exact_lp.solves_in_dual_cone", 0) / duals if duals else 0.0)
    search_s = st.get("density.approximate_functional", (0, 0.0, 0.0))[2]
    out["density.evals_per_s"] = (
        counts.get("density.approximate_functional.evals", 0) / search_s if search_s else 0.0)
    traced_wall = st.get(OP_SPAN, (0, 0.0, 0.0))[2]
    untraced_wall = sum(replay.scaled())
    unattributed = self_s(OP_SPAN)
    out.update({
        "bench.traced_ops": len(traced.latencies),
        "bench.untraced_wall_s": untraced_wall,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": traced_wall - untraced_wall,
        "bench.unattributed_s": unattributed,
        "bench.other_self_s": sum(v[1] for name, v in st.items()
                                  if name not in exported and name != OP_SPAN),
        "bench.speed_factor": statistics.median(traced.bounds + replay.bounds) / CAL_REF_S,
    })
    return out


def _write_spans(root, args, env, tracer, metrics):
    """Write the in-memory spans (names interned, raw seconds) and the metrics."""
    folder = os.path.join(root, "bench", "out")
    os.makedirs(folder, exist_ok=True)
    names = {}
    rows = []
    for name, start, end, parent, op, _ in tracer.spans:
        idx = names.setdefault(name, len(names))
        rows.append([idx, round(start, 9), round(end, 9), parent, op])
    path = os.path.join(folder, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": metrics,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "names": list(names), "spans": rows}, fh)
    return path


def _report(metrics, units, tallies):
    n_ops = len(tallies[-1].latencies)
    for name, value in metrics.items():
        print(f"# {name:<46} {value:>16.6g} {units[name]:<8} (n={n_ops})")
    if len(tallies) == 1:
        raw = _timings(tallies[0].latencies)
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f"; speed factor {statistics.median(tallies[0].bounds) / CAL_REF_S:.4f}")
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    budgeted = sum(t.budgeted for t in tallies)
    exhausted = sum(t.exhausted for t in tallies)
    print(f"# fail_rate {failed}/{attempted} = {failed / attempted:.4f}")
    if budgeted:
        print(f"# exhausted_rate {exhausted}/{budgeted} = {exhausted / budgeted:.4f}")
    for t in tallies:
        for note in t.notes:
            print(f"# failure: {note}")
    return attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        _die("--seconds must be positive")

    src = _locate_source()
    for var in BLAS_VARS:  # one client, no extra threads
        os.environ.setdefault(var, BLAS_THREADS)

    before = _calibrations()
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and the library
    import_s = time.perf_counter() - t0
    import_s *= CAL_REF_S / statistics.median(before + _calibrations())
    if not os.path.abspath(workloads.algebra.__file__).startswith(src + os.sep):
        _die("dirichlet_forge was not imported from this checkout")
    env = _environment(args, ROOT)
    print("# environment " + json.dumps(env, sort_keys=True))

    wl, setups = None, []
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        wl, ops, seconds = _setup(workloads, args.workload, ROOT, args.seed)
        setups.append(seconds)
    setup_s = import_s + statistics.median(setups)
    print(f"# setup_s: import {import_s:.4f} s + median of set-ups "
          + ", ".join(f"{x:.4f}" for x in setups))
    # the schedule is benchmark data: keep it out of the collector's scans,
    # so full collections cost what the library's own objects cost
    gc.collect()
    gc.freeze()

    try:
        if not args.trace:
            tallies = [Tally()]
            _loop(wl, ops, tallies[0], seconds=args.seconds, count=MIN_OPS)
            metrics, units = _end_to_end(tallies[0], setup_s), END_TO_END
        else:
            # a third of the time picks the operations; they are then replayed
            # traced and untraced, so both timings see equally warm caches
            from tracer import Tracer
            tallies = [Tally(), Tally(), Tally()]
            n_ops = _loop(wl, ops, tallies[0], seconds=args.seconds / 3)
            tracer = Tracer()
            _loop(wl, ops, tallies[1], count=n_ops, tracer=tracer)
            _loop(wl, ops, tallies[2], count=n_ops)
            metrics, units = _per_layer(tracer, tallies[1], tallies[2]), PER_LAYER
            path = _write_spans(ROOT, args, env, tracer, metrics)
            print(f"# spans written to {os.path.relpath(path, ROOT)}")
    finally:
        wl.close()

    attempted, failed = _report(metrics, units, tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
