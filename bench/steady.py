#!/usr/bin/env python3
"""Run the benchmark over several seeds and report its run-to-run spread.

    python3 bench/steady.py --workloads cone-extend --seeds 1 2 3 4 5
    python3 bench/steady.py --sets 2 --seeds 1 2 3 4 5 6 7 8 9 10

For every end-to-end metric of every workload this prints the median, the
quartiles and the spread (quartile distance over median, as
`statistics.quantiles(values, n=4)` gives the quartiles), next to the
metric's bound from BENCHMARK.json, and the smallest operation count of a
run.  With --sets 2 the seeds are run twice and the second median is
compared with the first.  Runs are sequential: one benchmark process at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import MIN_OPS, ROOT, load_spec


def run_once(spec, workload, seed, seconds, trace=0):
    """One benchmark run; returns the parsed last stdout line."""
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def summarize(spec, runs):
    """{metric: (q1, median, q3, spread, bound)} over a list of run results."""
    out = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        out[m["name"]] = spread(vals) + (m["bound"],)
    return out


def worse(metric, first, second):
    """Relative change of `second` against `first`, positive when worse."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args(argv)

    ok = True
    for wl in args.workloads:
        sets = []
        for i in range(1, args.sets + 1):
            runs = [run_once(spec, wl, s, args.seconds) for s in args.seeds]
            bad = [r for r in runs if not r["correct"]]
            if bad:
                ok = False
                print(f"{wl}: {len(bad)} runs reported failed operations")
            fewest = min(r["attempted"] for r in runs)
            ok = ok and fewest >= MIN_OPS
            print(f"{wl:15} set{i} fewest operations in a run: {fewest} (floor {MIN_OPS})")
            sets.append(summarize(spec, runs))
        for i, summary in enumerate(sets, 1):
            for name, (q1, med, q3, sp, bound) in summary.items():
                flag = "" if sp < bound / 3 else "  <-- spread >= bound/3"
                flag = "  <-- spread > bound" if sp > bound else flag
                print(f"{wl:15} set{i} {name:12} median {med:12.5g} "
                      f"q1 {q1:12.5g} q3 {q3:12.5g} spread {sp:7.4f} bound {bound}{flag}")
        if len(sets) == 2:
            for m in spec["end_to_end"]:
                d = worse(m, sets[0][m["name"]][1], sets[1][m["name"]][1])
                verdict = "ok" if d <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and d <= m["bound"]
                print(f"{wl:15} drift {m['name']:12} {d:+.4f} (bound {m['bound']}) {verdict}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
