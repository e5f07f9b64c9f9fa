"""Command-line interface: exit codes, JSON I/O, determinism, schemas."""

import cmath
import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_forge import algebra, cli
from dirichlet_forge.arithmetic import MultiplicativeFunction, PrimeSystem
from dirichlet_forge.characters import Character
from dirichlet_forge.cli import run
from dirichlet_forge.semigroup import log_element, log_primes_basis, natural_basis

from tests.oracles import brute_dumps, brute_plain, brute_render, mobius_sieve


@pytest.fixture
def files(tmp_path):
    """Write the shared input fixtures, return a path lookup."""
    basis = natural_basis()
    geo = algebra.from_coeffs(
        basis, [(basis.zero(), 2), (basis.generator_element(0), -1)]
    )
    lb = log_primes_basis(20)
    elem = algebra.from_coeffs(
        lb, [(log_element(lb, n), 1.0 / n**2) for n in (2, 3, 5, 6)]
    )
    vals = tuple(
        cmath.exp(1j * (0.7 + 1.3 * i)) * math.exp(-0.2 * (i % 3))
        for i in range(len(lb.generators))
    )
    sys_ = PrimeSystem.rational_primes(10000)
    f_ref = MultiplicativeFunction.from_rule(
        sys_,
        lambda p, k: F(1, p) if k == 1 else F(1, p**3) if k == 2 else F(0),
    )
    payloads = {
        "geo.json": geo.to_json(),
        "elem.json": elem.to_json(),
        "psi.json": Character(lb, vals).to_json(),
        "one.json": MultiplicativeFunction.one(sys_).to_json(),
        "fref.json": f_ref.to_json(),
        "points.json": {"points": [["1", "0"], ["0", "1"]]},
        "mixed.json": {"points": [["1", "0"], ["-1", "-1"], ["0", "1"]]},
        "cone.json": {"generators": [["1", "0"], ["1", "2"]]},
        "weight.json": {"kind": "poly", "c": 2.0},
        "kron.json": {
            "betas": [math.log(2), math.log(3)],
            "targets": [{"re": -1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
            "theta": 1e-2,
            "t_budget": 10**6,
        },
        "problem.json": {
            "dim": 2,
            "generators": [["2", "1"], ["1", "2"], ["1", "1"]],
            "prescribed": {
                "0": {"re": math.exp(-2), "im": 0.0},
                "1": {"re": math.exp(-1), "im": 0.0},
            },
        },
    }
    for name, data in payloads.items():
        (tmp_path / name).write_text(json.dumps(data))

    def path(name):
        return str(tmp_path / name)

    path.dir = tmp_path
    return path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_convolve_success(self, files, capsys):
        code, out, _ = invoke(capsys, "convolve", files("geo.json"), files("geo.json"))
        assert code == 0
        data = json.loads(out)
        assert data["coeffs"][0]["re"] == 4.0  # (2 - z)^2 constant term

    def test_unknown_flag_is_usage_error(self, files, capsys):
        code, _, err = invoke(capsys, "convolve", files("geo.json"),
                              files("geo.json"), "--bogus")
        assert code == 1 and "error" in err

    def test_missing_subcommand(self, capsys):
        assert invoke(capsys, )[0] == 1

    def test_malformed_json_is_exit_1(self, files, capsys):
        bad = files.dir / "bad.json"
        bad.write_text("{nope")
        code, _, err = invoke(capsys, "convolve", str(bad), files("geo.json"))
        assert code == 1 and "malformed" in err

    def test_missing_file_is_exit_1(self, files, capsys):
        code, _, _ = invoke(capsys, "convolve", files("geo.json"), files("no.json"))
        assert code == 1

    def test_precondition_failure_is_exit_2(self, files, capsys):
        # constant 1 admits no tail decomposition under the unit weight
        code, out, _ = invoke(capsys, "p3-decompose", files("one.json"),
                              "--omega", '{"kind":"one"}')
        assert code == 2
        payload = json.loads(out)["error"]
        assert payload["type"] == "PreconditionError" and payload["message"]

    def test_neumann_inapplicable_carries_q(self, files, capsys):
        basis = natural_basis()
        a = algebra.from_coeffs(
            basis, [(basis.zero(), 1), (basis.generator_element(0), 3)]
        )
        p = files.dir / "wide.json"
        p.write_text(json.dumps(a.to_json()))
        code, out, _ = invoke(capsys, "invert", str(p), "--method", "neumann")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "NeumannInapplicableError" and err["q"] == 3.0

    def test_budget_exhaustion_is_exit_3_with_result(self, files, capsys):
        code, out, _ = invoke(capsys, "density-search", files("elem.json"),
                              files("psi.json"), "--theta", "1e-9",
                              "--budget", "10")
        assert code == 3
        rep = json.loads(out)
        assert rep["exhausted"] is True
        assert rep["achieved_error"] > 1e-9  # best effort still reported

    def test_kronecker_exhaustion_exit_3(self, files, capsys):
        code, out, _ = invoke(capsys, "kronecker", files("kron.json"),
                              "--budget", "5")
        assert code == 3 and json.loads(out)["exhausted"] is True


class TestSubcommands:
    def test_invert_neumann_certificate(self, files, capsys):
        code, out, _ = invoke(capsys, "invert", files("geo.json"))
        assert code == 0
        data = json.loads(out)
        assert abs(data["certificate"]["q"] - 0.5) < 1e-12
        assert data["certificate"]["tail_bound"] < 1e-12

    def test_invert_graded_requires_truncation(self, files, capsys):
        code, _, err = invoke(capsys, "invert", files("geo.json"),
                              "--method", "graded")
        assert code == 1 and "truncation" in err

    def test_invert_graded(self, files, capsys):
        code, out, _ = invoke(capsys, "invert", files("geo.json"),
                              "--method", "graded", "--truncation", "8")
        assert code == 0
        inv = algebra.AlgebraElement.from_json(json.loads(out)["inverse"])
        got = sorted((dict(l.exponents).get(0, 0), v.real)
                     for l, v in inv.coeffs.items())
        for n, v in got:
            assert abs(v - 2.0 ** (-(n + 1))) < 1e-12

    def test_eval_matches_library(self, files, capsys):
        code, out, _ = invoke(capsys, "eval", files("geo.json"), "--s", "1.0")
        assert code == 0
        v = json.loads(out)["value"]
        assert abs(complex(v["re"], v["im"]) - (2 - math.exp(-1))) < 1e-12

    def test_witness_certifies_single_generator(self, files, capsys):
        code, out, _ = invoke(capsys, "witness", files("geo.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["certified"] is True and rep["lower_bound"] > 0.9

    def test_witness_rejects_negative_sigma_max(self, files, capsys):
        code, out, _ = invoke(capsys, "witness", files("elem.json"),
                              "--sigma-max", "-50")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValidationError"

    def test_compose_exp_gives_factorials(self, files, capsys):
        basis = natural_basis()
        d1 = algebra.from_coeffs(basis, [(basis.generator_element(0), 1.0)])
        p = files.dir / "delta.json"
        p.write_text(json.dumps(d1.to_json()))
        code, out, _ = invoke(capsys, "compose", str(p), "--series",
                              '{"kind":"exp","radius":4.0}')
        assert code == 0
        data = json.loads(out)
        coef = {e["element"]["exponents"].get("0", 0): e["re"]
                for e in data["element"]["coeffs"]}
        for n in range(8):
            assert abs(coef[n] - 1.0 / math.factorial(n)) < 1e-12

    def test_separate_functional(self, files, capsys):
        code, out, _ = invoke(capsys, "separate", files("points.json"),
                              "--cross-check")
        assert code == 0
        res = json.loads(out)
        assert res["separated"] is True and res["functional"] == ["1", "1"]

    def test_separate_inside(self, files, capsys):
        code, out, _ = invoke(capsys, "separate", files("mixed.json"))
        assert code == 0
        assert json.loads(out)["separated"] is False

    def test_dual_cone(self, files, capsys):
        code, out, _ = invoke(capsys, "dual", files("cone.json"))
        assert code == 0
        rays = json.loads(out)["rays"]
        assert ["0", "1"] in rays and ["2", "-1"] in rays

    def test_extend_character_roundtrip(self, files, capsys):
        code, out, _ = invoke(capsys, "extend-character", files("problem.json"))
        assert code == 0
        res = json.loads(out)
        assert res["prescribed_residual"] < 1e-9
        assert all(isinstance(e, int) for row in res["exponents"] for e in row)

    def test_density_search_success(self, files, capsys):
        code, out, _ = invoke(capsys, "density-search", files("elem.json"),
                              files("psi.json"), "--theta", "5e-2",
                              "--budget", "200000", "--seed", "7")
        rep = json.loads(out)
        assert code == 0 and rep["achieved_error"] < 15e-2

    def test_kronecker_success(self, files, capsys):
        code, out, _ = invoke(capsys, "kronecker", files("kron.json"))
        assert code == 0
        assert json.loads(out)["max_error"] < 1e-2

    def test_euler_invert_mobius(self, files, capsys):
        code, out, _ = invoke(capsys, "euler-invert", files("one.json"),
                              "--x", "100")
        assert code == 0
        vals = json.loads(out)["values"]
        assert [int(F(v)) for v in vals] == mobius_sieve(100)[1:]

    def test_euler_invert_certify(self, files, capsys):
        code, out, _ = invoke(capsys, "euler-invert", files("fref.json"),
                              "--certify")
        assert code == 0
        certs = json.loads(out)["certificates"]
        assert certs["2"]["lower_bound"] > 0.0

    def test_p3_decompose_reference(self, files, capsys):
        code, out, _ = invoke(capsys, "p3-decompose", files("fref.json"),
                              "--omega", '{"kind":"one"}', "--x", "10000")
        assert code == 0
        res = json.loads(out)
        assert res["p0"] == 1
        assert res["reconstruction_exact"] is True
        assert res["b_inverse_is_mobius_b"] is True
        assert res["norm_certified"] is True

    def test_check_weight(self, files, capsys):
        code, out, _ = invoke(capsys, "check-weight", files("weight.json"),
                              "--theta", "0.1")
        assert code == 0
        res = json.loads(out)
        assert res["at_zero"] == 1.0 and res["geq_one"] is True
        assert res["root_convergence"]["passed"] is True
        assert res["growth"]["trend"] == "bounded"


class TestOutputModes:
    def test_deterministic_bytes(self, files, capsys):
        argv = ("density-search", files("elem.json"), files("psi.json"),
                "--theta", "5e-2", "--budget", "50000", "--seed", "3")
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2

    def test_emitted_json_reparses(self, files, capsys):
        code, out, _ = invoke(capsys, "convolve", files("geo.json"),
                              files("geo.json"))
        elem = algebra.AlgebraElement.from_json(json.loads(out))
        basis = natural_basis()
        geo = algebra.from_coeffs(
            basis, [(basis.zero(), 2), (basis.generator_element(0), -1)]
        )
        want = algebra.convolve(geo, geo)
        assert elem.coeffs == want.coeffs

    def test_out_file(self, files, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = invoke(capsys, "convolve", files("geo.json"),
                              files("geo.json"), "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["coeffs"]

    def test_report_renders_text(self, files, capsys):
        code, out, _ = invoke(capsys, "check-weight", files("weight.json"),
                              "--report")
        assert code == 0
        assert "geq_one: True" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_schema_flag(self, capsys):
        for name in ("convolve", "density-search", "p3-decompose"):
            code, out, _ = invoke(capsys, name, "--schema")
            assert code == 0
            assert json.loads(out)  # valid JSON, nonempty

    def test_schema_without_subcommand(self, capsys):
        assert invoke(capsys, "--schema")[0] == 1


def test_console_entry_point(tmp_path):
    basis = natural_basis()
    geo = algebra.from_coeffs(
        basis, [(basis.zero(), 2), (basis.generator_element(0), -1)]
    )
    p = tmp_path / "a.json"
    p.write_text(json.dumps(geo.to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "dirichlet_forge.cli", "eval", str(p), "--s", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "value" in json.loads(proc.stdout)


# -- the one-pass emitter against _plain + json.dumps -------------------------


@dataclasses.dataclass
class _Pair:
    left: object
    right: object


class _Wrapped:
    """An object serialised through to_json()."""

    def __init__(self, inner):
        self.inner = inner

    def to_json(self):
        return {"wrapped": self.inner, 7: "int key"}


class _Count(int):
    pass


class _Text(str):
    pass


_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
    st.text(), st.text(alphabet=st.characters(min_codepoint=0x80)),
    st.fractions(), st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.integers().map(_Count), st.text().map(_Text),
)
_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
                  st.floats(allow_nan=False, min_value=-2, max_value=2),
                  st.sampled_from(["1", "True", "None", "-1"]))
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
        st.builds(_Pair, kids, kids),
        kids.map(_Wrapped),
    ),
    max_leaves=25,
)


@given(_trees)
@settings(max_examples=400, deadline=None)
def test_dumps_matches_plain_then_json_dumps(x):
    assert cli._dumps(x) == json.dumps(brute_plain(x), sort_keys=True, indent=2)


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_render_matches_plain_then_render(x):
    parts = []
    cli._render(x, parts.append)
    assert "".join(parts) == brute_render(x)


def test_dumps_pinned_cases():
    assert cli._dumps({}) == "{}" and cli._dumps([]) == "[]" and cli._dumps(()) == "[]"
    assert cli._dumps([math.nan, math.inf, -math.inf]) == "[\n  NaN,\n  Infinity,\n  -Infinity\n]"
    assert cli._dumps({1: "a", "1": "b"}) == '{\n  "1": "b"\n}'
    assert cli._dumps({"é": F(-3, 4)}) == '{\n  "\\u00e9": "-3/4"\n}'
    assert cli._dumps(1j) == '{\n  "im": 1.0,\n  "re": 0.0\n}'
    assert cli._dumps([True, 1, np.float64(0.1)]) == "[\n  true,\n  1,\n  0.1\n]"


_RUNS = {
    "convolve": ["convolve", "geo.json", "geo.json"],
    "invert-neumann": ["invert", "geo.json"],
    "invert-graded": ["invert", "geo.json", "--method", "graded", "--truncation", "8"],
    "invert-graded-report": ["invert", "geo.json", "--method", "graded",
                             "--truncation", "20", "--report"],
    "eval": ["eval", "elem.json", "--s", '[{"re": 1.5, "im": 2}, 0.5]'],
    "eval-report": ["eval", "geo.json", "--s", "1.0", "--report"],
    "witness": ["witness", "geo.json"],
    "compose": ["compose", "geo.json", "--series",
                '{"kind":"reciprocal","center":{"re":2,"im":0}}'],
    "separate": ["separate", "points.json", "--cross-check"],
    "separate-inside": ["separate", "mixed.json"],
    "dual": ["dual", "cone.json"],
    "dual-report": ["dual", "cone.json", "--report"],
    "extend-character": ["extend-character", "problem.json"],
    "density-search": ["density-search", "elem.json", "psi.json", "--theta", "5e-2",
                       "--budget", "20000", "--seed", "7"],
    "kronecker": ["kronecker", "kron.json"],
    "kronecker-exit-3": ["kronecker", "kron.json", "--budget", "5"],
    "euler-invert": ["euler-invert", "one.json", "--x", "60"],
    "euler-invert-certify-report": ["euler-invert", "fref.json", "--certify", "--report"],
    "p3-decompose": ["p3-decompose", "fref.json", "--omega", '{"kind":"one"}', "--x", "2000"],
    "p3-decompose-exit-2": ["p3-decompose", "one.json", "--omega", '{"kind":"one"}'],
    "check-weight": ["check-weight", "weight.json", "--theta", "0.1"],
    "check-weight-report": ["check-weight", "weight.json", "--report"],
    "schema": ["p3-decompose", "--schema"],
    "out": ["convolve", "geo.json", "geo.json", "--out", "OUT"],
}


def _run_case(files, capsys, argv, tmp_path, tag):
    target = tmp_path / f"out-{tag}.json"
    argv = [str(target) if a == "OUT" else files(a) if a.endswith(".json") else a
            for a in argv]
    code, out, _ = invoke(capsys, *argv)
    written = target.read_text(encoding="utf-8") if target.exists() else None
    return code, out, written


@pytest.mark.parametrize("case", sorted(_RUNS))
def test_cli_bytes_match_plain_then_json_dumps(case, files, capsys, tmp_path, monkeypatch):
    got = _run_case(files, capsys, _RUNS[case], tmp_path, "new")
    monkeypatch.setattr(cli, "_dumps", brute_dumps)
    monkeypatch.setattr(cli, "_render", lambda data, put, indent=0: put(brute_render(data)))
    want = _run_case(files, capsys, _RUNS[case], tmp_path, "oracle")
    assert got == want
    assert got[1] or got[2]


def test_budget_exhausted_payload_matches_oracle(files, capsys, monkeypatch):
    from dirichlet_forge.errors import BudgetExhaustedError

    def exhausted(args):
        best = algebra.AlgebraElement.from_json(json.loads(open(args.a).read()))
        raise BudgetExhaustedError("ran out", best={"element": best, "error": F(1, 3)})

    monkeypatch.setitem(cli._HANDLERS, "witness", exhausted)
    code, out, _ = invoke(capsys, "witness", files("geo.json"))
    assert code == 3
    monkeypatch.setattr(cli, "_dumps", brute_dumps)
    assert invoke(capsys, "witness", files("geo.json")) == (3, out, "")
    assert json.loads(out)["error"]["best"]["error"] == "1/3"


@pytest.mark.parametrize("bad", [
    ["convolve", "geo.json", "geo.json", "--bogus"],
    ["invert", "geo.json", "--method", "sideways"],
    ["eval", "geo.json"],
    ["nonsense"],
])
def test_cached_parser_keeps_no_state(bad, files, capsys):
    good = ["invert", files("geo.json"), "--method", "graded", "--truncation", "6"]
    cli._parser.cache_clear()
    alone = invoke(capsys, *good)
    assert invoke(capsys, *[files(a) if a.endswith(".json") else a for a in bad])[0] == 1
    assert invoke(capsys, *good) == alone
    assert alone[0] == 0 and alone[1]
