"""The demo scripts and the CLI audit run end to end on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, line", [
    (["mobius_demo.py", "--limit", "200", "--show", "3"],
     " 0 mismatches against the sieve"),
    (["extension_roundtrip_demo.py", "--seed", "1"], "prescribed residual:"),
    (["density_search_demo.py", "--seed", "1", "--budget", "20000"],
     "independent re-evaluation:"),
], ids=["mobius", "extension-roundtrip", "density-search"])
def test_demo_script_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
    assert "(budget exhausted)" not in proc.stdout


def test_cli_audit_records_every_distinct_invocation(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "audit.jsonl"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_audit.py"),
                           "--seeds", "1", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
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
