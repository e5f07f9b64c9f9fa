"""The demo scripts and the CLI and workload audits run end to end on small
arguments."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    """Run scripts/<name> on this checkout's `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv, line", [
    (["mobius_demo.py", "--limit", "200", "--show", "3"],
     " 0 mismatches against the sieve"),
    (["extension_roundtrip_demo.py", "--seed", "1"], "prescribed residual:"),
    (["density_search_demo.py", "--seed", "1", "--budget", "20000"],
     "independent re-evaluation:"),
], ids=["mobius", "extension-roundtrip", "density-search"])
def test_demo_script_runs(argv, line):
    proc = _script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
    assert "(budget exhausted)" not in proc.stdout


def test_cli_audit_records_every_distinct_invocation(tmp_path):
    out = tmp_path / "audit.jsonl"
    proc = _script("cli_audit.py", "--seeds", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    argvs = [tuple(r["argv"]) for r in records]
    assert len(records) > 100 and len(set(argvs)) == len(argvs)
    assert all(r["seed"] == 1 and len(r["stdout_sha256"]) == 64 for r in records)
    # the schedule's documented exits: success, a precondition failure, an
    # exhausted search; fixture paths do not depend on the temporary folder
    assert {r["code"] for r in records} == {0, 2, 3}
    assert all(str(tmp_path) not in a for argv in argvs for a in argv)
    assert any(a.startswith("{fixtures}/") for argv in argvs for a in argv)


def test_cone_audit_records_every_cone_extend_op(tmp_path):
    out = tmp_path / "cone.jsonl"
    proc = _script("workload_audit.py", "--workload", "cone-extend", "--seeds", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # the cone-extend schedule: 40 cycles of 13 ops, each dual op followed
    # by its double dual
    assert [r["index"] for r in records] == list(range(520))
    kinds = [r["kind"] for r in records]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "roundtrip": 240, "separate": 120, "dual": 80, "ddual": 80}
    assert all(kinds[i - 1] == "dual" for i, k in enumerate(kinds) if k == "ddual")
    assert all(set(r) == {"seed", "index", "kind", "check", "sha256"} and r["seed"] == 1
               and r["check"] and len(r["sha256"]) == 64 for r in records)


def test_workload_audit_records_every_series_invert_op(tmp_path):
    out = tmp_path / "series.jsonl"
    proc = _script("workload_audit.py", "--workload", "series-invert", "--seeds", 1,
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # the series-invert schedule: 60 cycles of exact and float inversion,
    # convolution, Neumann inversion and composition
    assert [r["index"] for r in records] == list(range(300))
    assert [r["kind"] for r in records[:5]] * 60 == [r["kind"] for r in records]
    assert [r["kind"] for r in records[:5]] == ["invert", "invert", "convolve", "neumann",
                                                 "compose"]
    assert all(set(r) == {"seed", "index", "kind", "check", "sha256"} and r["seed"] == 1
               and r["check"] and len(r["sha256"]) == 64 for r in records)
    # the digest covers each output element's dropped mass, which its JSON
    # leaves out: the first convolution (truncated) drops a nonzero mass
    # and the first Neumann inverse returns an element in a tuple
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import workload_audit
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    w = workload_audit.workloads.make("series-invert", ROOT)
    ops = w.schedule(1)
    for index in (2, 3):
        out = w.run(ops[index])
        element = out[0] if isinstance(out, tuple) else out
        text = workload_audit.digest_text(out)
        assert text == (workload_audit.cli._dumps(out)
                        + f"\ndropped_mass {element.dropped_mass!r}")
        assert records[index]["sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert w.run(ops[2]).dropped_mass > 0.0


def test_workload_audit_records_every_search_certify_op(tmp_path):
    out = tmp_path / "search.jsonl"
    proc = _script("workload_audit.py", "--workload", "search-certify", "--seeds", 1,
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # the search-certify schedule: 60 cycles of a density search, three disk
    # witnesses, two Euler reports and a Kronecker search
    assert [r["index"] for r in records] == list(range(420))
    assert [r["kind"] for r in records[:7]] == ["density", "witness", "euler", "kronecker",
                                                 "witness", "witness", "euler"]
    assert [r["kind"] for r in records[:7]] * 60 == [r["kind"] for r in records]
    # the budgeted searches, density and Kronecker, also record their steps
    # and whether they ran out of budget
    budgeted = {"density", "kronecker"}
    assert all(set(r) == {"seed", "index", "kind", "check", "sha256"}
               | ({"steps", "exhausted"} if r["kind"] in budgeted else set())
               and r["seed"] == 1 and r["check"] and len(r["sha256"]) == 64 for r in records)
    assert [r["index"] for r in records if r["kind"] == "density"] == list(range(0, 420, 7))
    assert all(r["steps"] > 0 and not r["exhausted"] for r in records if r["kind"] in budgeted)
    assert proc.stdout.startswith("420 search-certify ops over seeds [1]: 420 pass their "
                                  "check, 0 of 120 budgeted searches exhausted, ")
