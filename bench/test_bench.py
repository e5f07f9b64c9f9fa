"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload briefly, untraced and traced, and check
that every metric BENCHMARK.json names is emitted with its unit, that an
untraced run reaches its floor of operations even when its time runs out
first, that the layers each workload exists for are reached, and that the
self times of the wrapped functions add up to the traced wall time.  The
steadiness check is `bench/steady.py --sets 2`, which runs at full length
and exits non-zero when two sets of runs of the same code disagree by more
than a metric's bound.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import MIN_OPS, SPEC  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers each workload exists to exercise: their call counts must be > 0
REACHED = {
    "series-invert": ["semigroup.log_element.calls", "sieves.factorize.calls",
                      "algebra.convolve.calls", "algebra.graded_invert.terms_out",
                      "algebra.neumann_invert.terms_used", "semigroup.enumerate_monoid.elements"],
    "cone-extend": ["exact_lp.solve_standard.calls", "cones.dual_cone.calls",
                    "ratlin.rank.calls", "cones.dual_cone.rays_out"],
    "search-certify": ["algebra.min_modulus_on_disk.calls", "characters.functional.calls",
                       "algebra.evaluate_series.calls", "density.kronecker_t.steps",
                       "density.approximate_functional.evals",
                       "arithmetic.euler_invertibility_report.primes"],
    "forge-cli": ["cli.run.calls", "cli.stdout_bytes", "cli.nonzero_exits"],
}


def _run(workload, seconds, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run([sys.executable, script, "--workload", workload, "--seed", "3",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=400, check=False)


def _last(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    # 2 s is far too short for MIN_OPS operations: the floor must extend the run
    out = _last(_run(workload, 2, 0))
    assert out["attempted"] >= MIN_OPS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    out = _last(_run(workload, 6, 1))
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name in REACHED[workload]:
        assert metrics[name] > 0, name
    # the exported self times, the self time of wrapped functions without a
    # metric (summed separately) and the benchmark's own share account for
    # the whole traced wall time: a span counted under two metrics, or under
    # none, breaks the sum
    assert metrics["bench.other_self_s"] >= 0.0
    assert metrics["bench.unattributed_s"] >= 0.0
    total = sum(v for k, v in metrics.items()
                if k.endswith(".self_s") and not k.startswith("bench."))
    total += metrics["bench.other_self_s"] + metrics["bench.unattributed_s"]
    assert total == pytest.approx(metrics["bench.traced_wall_s"], rel=1e-9, abs=1e-9)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 1, 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_function():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer
    from dirichlet_forge.algebra import AlgebraElement
    tr = tracer.Tracer()

    def snapshot():
        mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if name.startswith(tracer.PACKAGE)}
        return mods, dict(vars(AlgebraElement))

    (mods, methods) = snapshot()
    tr.install()
    assert tr._swaps and vars(AlgebraElement)["to_json"] is not methods["to_json"]
    tr.uninstall()
    mods_after, methods_after = snapshot()
    for name, attrs in mods.items():
        assert all(mods_after[name][k] is v for k, v in attrs.items()), name
    assert all(methods_after[k] is v for k, v in methods.items())

