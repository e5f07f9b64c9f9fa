#!/usr/bin/env python3
"""Record how every density op of the search-certify benchmark ends.

    PYTHONPATH=src python3 scripts/density_audit.py --seeds 1 2 3 --out density.jsonl

For each seed, every density op of the search-certify schedule of
`bench/workloads.py` runs once through `approximate_functional`, as the
benchmark runs it.  One JSON line per op holds the seed, the op's index in
the schedule, the search's `steps`, `exhausted` and `achieved_error`, and
`check`, the workload's own `check_density` verdict on the report.  Two
library versions search alike when their audit files are identical: run
the script once with each version's `src` on PYTHONPATH and `diff` the
files.  `bench/` is only imported.
"""

import argparse
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


def audit(seed: int) -> list:
    """One record per density op of the seed's schedule, in schedule order."""
    w = workloads.SearchCertify()
    records = []
    for index, op in enumerate(w.schedule(seed)):
        if op[0] != "density":
            continue
        rep = w.run(op)
        records.append({"seed": seed, "index": index, "steps": rep.steps,
                        "exhausted": rep.exhausted,
                        "achieved_error": rep.achieved_error,
                        "check": bool(w.check(op, rep))})
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON-lines file to write")
    args = ap.parse_args()
    records = [r for seed in args.seeds for r in audit(seed)]
    Path(args.out).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                              encoding="utf-8")
    print(f"{len(records)} density ops over seeds {args.seeds}: "
          f"{sum(r['check'] for r in records)} pass check_density, "
          f"{sum(r['exhausted'] for r in records)} exhausted, "
          f"{sum(r['steps'] for r in records)} evaluations -> {args.out}")


if __name__ == "__main__":
    main()
