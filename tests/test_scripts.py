"""The demo scripts run end to end on small arguments."""

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
