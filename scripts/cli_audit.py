#!/usr/bin/env python3
"""Record what every distinct `forge` invocation of the forge-cli benchmark prints.

    PYTHONPATH=src python3 scripts/cli_audit.py --seeds 1 2 3 --out audit.jsonl

For each seed, the forge-cli workload of `bench/workloads.py` writes its
JSON fixtures into a temporary directory, and each distinct invocation of
its schedule runs once through `cli.run`, in process.  One JSON line per
invocation holds the seed, the argv (fixture paths written relative to the
fixture folder, as `{fixtures}/...`), the exit code and the sha256 of
stdout.  Two library versions print the same bytes on every invocation
when their audit files are identical: run the script once with each
version's `src` on PYTHONPATH and `diff` the files.  `bench/` is only
imported.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

PLACEHOLDER = "{fixtures}"


def audit(seed: int) -> list:
    """One record per distinct invocation of the seed's schedule, in the
    order the schedule first makes it."""
    with tempfile.TemporaryDirectory() as root:
        w = workloads.ForgeCli(root)
        try:
            ops = w.schedule(seed)
            base = w.base
            records, seen = [], set()
            for _, d in ops:
                argv = tuple(d["argv"])
                if argv in seen:
                    continue
                seen.add(argv)
                code, stdout = w.run_cli(d)
                stdout = stdout.replace(base.encode("utf-8"), PLACEHOLDER.encode("utf-8"))
                records.append({"seed": seed,
                                "argv": [a.replace(base, PLACEHOLDER) for a in argv],
                                "code": code,
                                "stdout_sha256": hashlib.sha256(stdout).hexdigest()})
            return records
        finally:
            w.close()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON-lines file to write")
    args = ap.parse_args()
    lines = [json.dumps(r, sort_keys=True) for seed in args.seeds for r in audit(seed)]
    Path(args.out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"{len(lines)} invocations over seeds {args.seeds} -> {args.out}")


if __name__ == "__main__":
    main()
