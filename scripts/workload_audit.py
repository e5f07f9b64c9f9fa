#!/usr/bin/env python3
"""Record what every op of a replayed benchmark workload returns.

    PYTHONPATH=src python3 scripts/workload_audit.py --workload cone-extend \
        --seeds 1 2 3 --out cone.jsonl

For each seed, the schedule of the workload (cone-extend, search-certify or
series-invert) in `bench/workloads.py` is replayed in order, as the
benchmark runs it (for cone-extend, each dual op is followed by its double
dual, which reads the rays the dual op stored).
One JSON line per op holds the seed, the op's index in the schedule, its
kind, `check`, the workload's own verdict on the output, and `sha256`, the
digest of `digest_text(output)` or, when the op raises, of the error's type
and message.  The line of a budgeted search that returned (the density and
Kronecker ops of search-certify) also holds its `steps` and `exhausted`.  Two
library versions compute alike when their audit files are identical: run
the script once with each version's `src` on PYTHONPATH and `diff` the
files.  `bench/` is only imported.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

# one BLAS thread, as in the benchmark, so sums round the same way every run
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import workloads  # noqa: E402
from dirichlet_forge import algebra, cli  # noqa: E402


WORKLOADS = ("cone-extend", "search-certify", "series-invert")


def digest_text(out) -> str:
    """`cli._dumps(out)`, then one line with the repr of the dropped mass of
    each algebra element the op returned, itself or in a returned tuple
    (`to_json` leaves the dropped mass out)."""
    items = out if isinstance(out, tuple) else (out,)
    return cli._dumps(out) + "".join(f"\ndropped_mass {x.dropped_mass!r}" for x in items
                                     if isinstance(x, algebra.AlgebraElement))


def audit(name: str, seed: int) -> list:
    """One record per op of the workload's schedule for `seed`, in order."""
    w = workloads.make(name, ROOT)
    records = []
    for index, op in enumerate(w.schedule(seed)):
        record = {"seed": seed, "index": index, "kind": op[0]}
        try:
            out = w.run(op)
        except Exception as e:  # a failed op is recorded by its error
            check, text = False, f"{type(e).__name__}: {e}"
        else:
            text = digest_text(out)
            if w.budgeted(op):
                record.update(steps=out.steps, exhausted=w.exhausted(op, out))
            try:
                check = bool(w.check(op, out))
            except Exception:  # a check that cannot run counts as failed
                check = False
        record.update(check=check, sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
        records.append(record)
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON-lines file to write")
    args = ap.parse_args()
    records = [r for seed in args.seeds for r in audit(args.workload, seed)]
    Path(args.out).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                              encoding="utf-8")
    searches = [r for r in records if "steps" in r]
    print(f"{len(records)} {args.workload} ops over seeds {args.seeds}: "
          f"{sum(r['check'] for r in records)} pass their check, "
          f"{sum(r['exhausted'] for r in searches)} of {len(searches)} budgeted searches "
          f"exhausted, {sum(r['steps'] for r in searches)} steps -> {args.out}")


if __name__ == "__main__":
    main()
