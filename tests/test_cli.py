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
from hypothesis import example, given, settings, strategies as st

from dirichlet_forge import algebra, cli
from dirichlet_forge.arithmetic import MultiplicativeFunction, PrimeSystem
from dirichlet_forge.characters import Character
from dirichlet_forge.cli import run
from dirichlet_forge.semigroup import embedded_basis, log_element, log_primes_basis, natural_basis
from dirichlet_forge.weights import one as weight_one

from tests.oracles import brute_dumps, brute_plain, brute_render, mobius_sieve
from tests.test_algebra import json_elements


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
    # moduli consistent with one sigma: the search's quick path, where the
    # one-frequency closed form of kronecker_t answers
    lb3 = log_primes_basis(3)
    quick = algebra.from_coeffs(lb3, [(log_element(lb3, 2), 1.0)])
    sys_ = PrimeSystem.rational_primes(10000)
    f_ref = MultiplicativeFunction.from_rule(
        sys_,
        lambda p, k: F(1, p) if k == 1 else F(1, p**3) if k == 2 else F(0),
    )
    psi = Character(lb, vals).to_json()
    payloads = {
        "geo.json": geo.to_json(),
        "elem.json": elem.to_json(),
        "psi.json": psi,
        **{f"psi_{name}.json": {**psi, "values": {**psi["values"], "0": bad}}
           for name, bad in (("true", True), ("re_true", {"re": True, "im": 0}),
                             ("huge", HUGE))},
        "quick_elem.json": quick.to_json(),
        "quick_psi.json": Character(lb3, (0.5j, 0.3)).to_json(),
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


def _log3_element(re):
    """The JSON of a float element over log_primes_basis(3), coefficients
    1, re and 0.2 log 3, truncation 2 (json writes a non-finite re as NaN
    or Infinity)."""
    b = log_primes_basis(3)
    a = algebra.from_coeffs(b, [(b.zero(), 1.0), (log_element(b, 2), 0.3 * math.log(2)),
                                (log_element(b, 3), 0.2 * math.log(3))], truncation=2)
    data = a.to_json()
    data["coeffs"][1]["re"] = re
    return json.dumps(data)


def _series_element(coeffs: dict) -> str:
    """The JSON of a float element over log_primes_basis(5), {n: coefficient
    of n^-s}."""
    b = log_primes_basis(5)
    a = algebra.from_coeffs(b, [(log_element(b, n), c) for n, c in coeffs.items()])
    return json.dumps(a.to_json())


SMALL_SERIES = _series_element({1: 1.0, 2: 0.1, 3: 0.1, 5: 0.1})
RECIPROCAL_AT_1 = '{"kind": "reciprocal", "center": {"re": 1.0, "im": 0.0}}'
RECIPROCAL_AT_HALF = '{"kind": "reciprocal", "center": {"re": 0.5, "im": 0.0}}'
HUGE = 10 ** 400  # an int past the float range


SUBCOMMANDS = ("convolve", "invert", "eval", "witness", "compose", "separate", "dual",
               "extend-character", "density-search", "kronecker", "euler-invert",
               "p3-decompose", "check-weight")


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
        # at theta = 1e-9 the precision cap keeps t below about 5.1e5, some
        # 5.6e4 aligned steps, while an aligned solution is expected only
        # near 2 pi / theta = 6.3e9 of them: the gate skips the lattice, and
        # 5 scan steps cannot reach theta
        code, out, _ = invoke(capsys, "kronecker", files("kron.json"),
                              "--theta", "1e-9", "--budget", "5")
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

    @pytest.mark.parametrize("coeff", [0.485, 0.49], ids=["reciprocal-coefficient-overflow",
                                                         "reciprocal-power-underflow"])
    def test_compose_reciprocal_is_neumann_invert(self, tmp_path, capsys, coeff):
        # 1/z around 0.5 with q/R = 0.97 or 0.98: f_k = -(-2)^(k+1) leaves the
        # float range near k = 1023, but the series is summed through -u/c
        path = tmp_path / "elem.json"
        path.write_text(_series_element({1: 0.5, 2: coeff}))
        code, out, _ = invoke(capsys, "compose", str(path), "--series", RECIPROCAL_AT_HALF)
        assert code == 0
        code, inv, _ = invoke(capsys, "invert", str(path), "--method", "neumann")
        assert code == 0
        assert json.loads(out)["element"] == json.loads(inv)["inverse"]

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

    def test_extend_character_nan_value_is_exit_2(self, files, capsys):
        p = files.dir / "nan.json"
        p.write_text('{"dim": 1, "generators": [["1"]], '
                     '"prescribed": {"0": {"re": NaN, "im": 0}}}')
        code, out, _ = invoke(capsys, "extend-character", str(p))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError" and "not finite" in error["message"]

    def test_density_search_nan_character_value_is_exit_2(self, files, capsys):
        psi = json.loads(open(files("quick_psi.json")).read())
        psi["values"]["0"]["re"] = math.nan
        p = files.dir / "nan_psi.json"
        p.write_text(json.dumps(psi))
        code, out, _ = invoke(capsys, "density-search", files("quick_elem.json"), str(p))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError" and "closed unit disk" in error["message"]

    def test_density_search_reads_the_basis_of_a_psi_file(self, files, capsys):
        """A psi file may carry its own basis; this one carries the element's,
        so the output is the one without it."""
        psi = json.loads(open(files("quick_psi.json")).read())
        psi["basis"] = json.loads(open(files("quick_elem.json")).read())["basis"]
        p = files.dir / "psi_basis.json"
        p.write_text(json.dumps(psi))
        got = invoke(capsys, "density-search", files("quick_elem.json"), str(p))
        assert got[0] == 0
        assert got == invoke(capsys, "density-search", files("quick_elem.json"),
                             files("quick_psi.json"))

    @pytest.mark.parametrize("cmd, payload", [
        (cmd, payload)
        for cmd in ("separate", "dual", "extend-character", "kronecker", "euler-invert",
                    "p3-decompose")
        for payload in ("{}", "null", "[1]")
    ] + [
        ("separate", '{"points": [["abc"]]}'),
        ("separate", '{"points": 3}'),
        ("separate", '{"points": [["1", "0"], ["1"]]}'),
        ("dual", '{"generators": [[null]]}'),
        ("dual", '{"generators": [["1/0", "1"]]}'),
        ("dual", '{"generators": [[Infinity, 1]]}'),
        ("dual", '{"generators": [[1e400, 1]]}'),
        ("separate", '{"points": [["1/0", "1"]]}'),
        ("separate", '{"points": [[Infinity, 1]]}'),
        ("separate", '{"points": [[1e400, 1]]}'),
        ("extend-character", '{"dim": 1, "generators": [["1/0"]]}'),
        pytest.param("invert", _log3_element(10**400), id="invert-re-past-float"),
        ("invert", '{"basis": {"mode": "free", "r": 1, "generators": '
                   '[{"id": 0, "value": [1.0], "exact": ["1"], "label": "1"}]}, '
                   '"coeffs": [{"element": {"exponents": {}}, "re": "1/0", "im": "0"}], '
                   '"backend": "exact"}'),
        ("invert", '{"basis": {"mode": "free", "r": 1, "generators": '
                   '[{"id": 0, "value": [1.0], "exact": ["1"], "label": "1"}]}, '
                   '"coeffs": [{"element": {"exponents": {}}, "re": Infinity, "im": 0}], '
                   '"backend": "exact"}'),
        pytest.param("invert", '{"basis": {"mode": "free", "r": 1, "generators": '
                     '[{"id": 0, "value": [1.0], "exact": ["1"], "label": "1"}]}, '
                     '"coeffs": [{"element": {"exponents": {}}, "re": true, "im": 0}], '
                     '"backend": "exact"}', id="invert-exact-re-true"),
        pytest.param("invert", _log3_element(True), id="invert-float-re-true"),
        ("extend-character", '{"dim": 1, "generators": [["1"]], '
                             '"prescribed": {"0": {"re": "abc", "im": 0}}}'),
        ("extend-character", '{"dim": 1, "generators": [["1"]], "prescribed": {"0": null}}'),
        ("extend-character", '{"dim": "one", "generators": [["1"]]}'),
        ("extend-character", '{"dim": 1, "generators": [["1"]], "prescribed": []}'),
        ("kronecker", '{"betas": [1.0], "targets": [null]}'),
        ("kronecker", '{"betas": [1.0], "targets": [{"re": 1.0}]}'),
        ("kronecker", '{"betas": [1.0], "targets": [{"re": 1.0, "im": 0.0}], '
                      '"t_budget": 1e400}'),
        ("euler-invert", '{"system": {"primes": [2], "x": 4, "rational": true}, '
                         '"values": [{"p": 2, "k": 1, "value": "abc"}]}'),
        ("p3-decompose", '{"system": {"primes": [2], "x": 4, "rational": true}, '
                         '"values": [{"p": 2, "value": "1/2"}]}'),
        ("euler-invert", '{"system": {"primes": [2], "x": 4, "rational": true}, '
                         '"values": [{"p": 2, "k": 1, "value": "1/0"}]}'),
        ("p3-decompose", '{"system": {"primes": [2], "x": 4, "rational": true}, '
                         '"values": [{"p": 2, "k": 1, "value": "1/0"}]}'),
    ] + [
        # a JSON boolean or string is never a complex value, nor is a part
        # past the float range
        (cmd, template.replace("VALUE", bad))
        for cmd, template in (
            ("kronecker", '{"betas": [1.0], "targets": [VALUE]}'),
            ("extend-character", '{"dim": 1, "generators": [["1"]], "prescribed": {"0": VALUE}}'),
            ("euler-invert", '{"system": {"primes": [2], "x": 4, "rational": true}, '
                             '"values": [{"p": 2, "k": 1, "value": VALUE}]}'))
        for bad in ("true", '{"re": true, "im": 0}', f'{{"re": {HUGE}, "im": 0}}')
    ] + [
        ("extend-character", '{"dim": 1, "generators": [["1"]], '
                             '"prescribed": {"0": {"re": "0.5", "im": 0}}}'),
        ("extend-character", f'{{"dim": 1, "generators": [["1"]], "prescribed": {{"0": {HUGE}}}}}'),
    ] + [
        ("compose", (("elem.json",), ("--series", series.replace("VALUE", bad))))
        for series in ('{"kind": "coeffs", "coeffs": [VALUE]}',
                       '{"kind": "reciprocal", "center": VALUE}')
        for bad in ("true", '{"re": true, "im": 0}', str(HUGE), f'{{"re": {HUGE}, "im": 0}}')
    ] + [
        ("density-search", (("elem.json", psi), ()))
        for psi in ("psi_true.json", "psi_re_true.json", "psi_huge.json")
    ] + [
        pytest.param(cmd, (inputs, ("--budget", budget)), id=f"{cmd}-budget-{budget}")
        for cmd, inputs in (("kronecker", ("kron.json",)),
                            ("density-search", ("elem.json", "psi.json")))
        for budget in ("inf", "nan")
    ])
    def test_malformed_input_is_exit_2(self, files, capsys, cmd, payload):
        """A string payload is the input file; a pair (fixture names, flags)
        puts the malformed part in the flags."""
        if isinstance(payload, str):
            p = files.dir / "malformed.json"
            p.write_text(payload)
            argv = [str(p)]
        else:
            argv = [*map(files, payload[0]), *payload[1]]
        code, out, _ = invoke(capsys, cmd, *argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError" and error["message"].startswith("malformed")

    @pytest.mark.parametrize("cmd, payload, flags, error, fragment", [
        ("euler-invert", '{"system": {"primes": [2, 5], "x": 20, "rational": true}, '
                         '"values": [{"p": 2, "k": 1, "value": -1}]}', ("--x", "20"),
         "PreconditionError", "lacks the prime 3 <= 20"),
        ("euler-invert", '{"system": {"primes": [2, 3], "x": 20, "rational": true}, '
                         '"values": [{"p": 2, "k": 1, "value": -1}]}', ("--x", "20"),
         "PreconditionError", "lacks the prime 5 <= 20"),
        ("p3-decompose", '{"system": {"primes": [2, 3], "x": 20, "rational": true}, '
                         '"values": [{"p": 2, "k": 1, "value": "1/2"}]}', (),
         "PreconditionError", "lacks the prime 5 <= 20"),
        ("euler-invert", '{"system": {"primes": [2, 4], "x": 20, "rational": true}, '
                         '"values": []}', ("--x", "20"), "ValidationError", "4 is not a prime"),
        ("kronecker", '{"betas": [Infinity], "targets": [{"re": 1.0, "im": 0.0}]}', (),
         "ValidationError", "finite"),
        ("kronecker", '{"betas": [1.0, Infinity], "targets": [{"re": 1.0, "im": 0.0}, '
                      '{"re": 1.0, "im": 0.0}]}', (), "ValidationError", "finite"),
        ("kronecker", '{"betas": [1.0], "targets": [{"re": NaN, "im": 0}]}', (),
         "ValidationError", "not finite"),
        ("dual", '{"generators": [], "dim": "x"}', (), "ValidationError", "dimension"),
        ("dual", '{"generators": [], "dim": -2}', (), "ValidationError", "dimension"),
        ("invert", _log3_element(math.nan), ("--method", "neumann"), "ValidationError",
         "not finite"),
        ("invert", _log3_element(math.inf), ("--method", "neumann"), "ValidationError",
         "not finite"),
        ("compose", _log3_element(0.3 * math.log(2)),
         ("--series", '{"kind": "coeffs", "coeffs": [{"re": NaN, "im": 0}]}'),
         "ValidationError", "not finite"),
        ("compose", SMALL_SERIES,
         ("--series", '{"kind": "coeffs", "coeffs": [{"re": 1, "im": 0}, {"re": NaN, "im": 0}]}'),
         "ValidationError", "not finite"),
        ("compose", _series_element({1: 5e-324}),
         ("--series", '{"kind": "reciprocal", "center": {"re": 5e-324, "im": 0}}'),
         "ValidationError", "not finite"),
        ("invert", _series_element({1: 1e-320}), ("--method", "neumann"), "ValidationError",
         "not finite"),
        ("compose", SMALL_SERIES, ("--series", '{"kind": "exp", "radius": 1000}'),
         "PreconditionError", "radius 1000"),
        ("invert", SMALL_SERIES, ("--method", "neumann", "--tol", "nan"), "ValidationError",
         "tol must be > 0"),
    ] + [
        ("compose", SMALL_SERIES, ("--series", RECIPROCAL_AT_1, "--tol", tol), "ValidationError",
         "tol must be > 0") for tol in ("nan", "0", "-1")
    ] + [
        ("eval", SMALL_SERIES, ("--s", s), "ValidationError", fragment)
        for s, fragment in (("NaN", "must be finite"), ("[Infinity]", "must be finite"),
                            ('{"re": 0.5, "im": NaN}', "must be finite"),
                            ("true", "not booleans"), ("[true]", "not booleans"),
                            ('{"re": true, "im": 0}', "not booleans"),
                            ('[{"re": 1, "im": false}]', "not booleans"),
                            ('["abc"]', "not booleans or strings"),
                            ('{"re": "abc", "im": 0}', "not booleans or strings"),
                            ('["1"]', "not booleans or strings"),
                            ('{"re": 0.5}', "malformed s coordinate"),
                            (str(HUGE), "malformed s coordinate"),
                            (f'{{"re": {HUGE}, "im": 0}}', "malformed s coordinate"))
    ] + [
        ("check-weight", weight, (), "ValidationError", "must be finite")
        for weight in ('{"kind": "poly", "c": NaN}', '{"kind": "exp", "rho": -Infinity}',
                       '{"kind": "table", "points": [[1.0, NaN]]}')
    ] + [
        ("check-weight", '{"kind": "product", "parts": [{"kind": "table", "points": '
                         '[[1.0, 1e300]]}, {"kind": "table", "points": [[1.0, 1e300]]}, '
                         '{"kind": "exp", "rho": 1000.0}]}', (), "ValidationError",
         "product weight evaluates to NaN at magnitude 1.0"),
        ("check-weight", '{"kind": "table", "points": [[1.0, 1.7e308], [2.0, -1.7e308]]}',
         (), "ValidationError", "table weight evaluates to NaN at magnitude 1.0"),
    ] + [
        ("p3-decompose", '{"system": {"primes": [2, 3], "x": NaN}, "values": []}',
         ("--omega", '{"kind": "one"}'), "ValidationError", "must be finite"),
        ("euler-invert", '{"system": {"primes": [2], "x": 4, "rational": "false"}, '
                         '"values": []}', (), "ValidationError",
         "rational must be true or false"),
    ], ids=["euler-lacks-3", "euler-lacks-5", "p3-lacks-5", "composite-entry", "beta-inf",
            "second-beta-inf", "target-nan", "dim-string", "dim-negative", "coefficient-nan",
            "coefficient-inf", "series-coefficient-nan", "series-coefficient-1-nan",
            "reciprocal-subnormal-center", "neumann-subnormal-constant", "exp-majorant-overflow",
            "neumann-tol-nan",
            "compose-tol-nan", "compose-tol-0", "compose-tol-negative", "s-nan", "s-list-inf",
            "s-object-nan", "s-true",
            "s-list-true", "s-object-true", "s-list-object-false", "s-list-string",
            "s-object-string", "s-list-numeric-string", "s-object-without-im", "s-huge-int",
            "s-object-huge-int", "poly-c-nan",
            "exp-rho-minus-inf", "table-point-nan", "product-inf-times-zero",
            "table-difference-overflow", "system-x-nan", "system-rational-string"])
    def test_unusable_input_is_exit_2(self, files, capsys, cmd, payload, flags, error,
                                      fragment):
        """Inputs that parse but cannot be used: a rational system that skips
        a prime it needs or lists a composite, non-finite Kronecker data, a
        dual-cone dimension that is not a nonnegative int, non-finite series
        coefficients, a reciprocal centre or a Neumann constant term whose
        inverse is past the float range, an exp majorant past the float
        range, a series tol that is not > 0, an evaluation point that is not
        finite, holds a boolean or a string or lacks a part, weight
        parameters that are not finite or values that are NaN, a
        prime-system bound that is not finite and a rational flag that is
        not a boolean."""
        p = files.dir / "unusable.json"
        p.write_text(payload)
        code, out, _ = invoke(capsys, cmd, str(p), *flags)
        assert code == 2
        got = json.loads(out)["error"]
        assert got["type"] == error and fragment in got["message"]

    @pytest.mark.parametrize("cmd, flags, label", [
        ("invert", ("--method", "neumann"), "Neumann"),
        ("compose", ("--series", RECIPROCAL_AT_1), "composition"),
    ])
    def test_series_support_cap_is_exit_2(self, files, capsys, monkeypatch, cmd, flags, label):
        monkeypatch.setattr(algebra, "NEUMANN_SUPPORT_CAP", 50)
        p = files.dir / "wide.json"
        p.write_text(_series_element({1: 1.0, 2: 0.3, 3: 0.3, 5: 0.3}))
        code, out, _ = invoke(capsys, cmd, str(p), *flags)
        assert code == 2
        got = json.loads(out)["error"]
        assert got["type"] == "CapExceededError"
        assert got["message"].startswith(f"{label} support would pass NEUMANN_SUPPORT_CAP = 50")

    @pytest.mark.parametrize("cmd, inputs", [
        ("kronecker", ("kron.json",)),
        ("density-search", ("elem.json", "psi.json")),
        ("density-search", ("quick_elem.json", "quick_psi.json")),
    ])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_exhausted(self, files, capsys, cmd, inputs, budget):
        code, out, _ = invoke(capsys, cmd, *map(files, inputs), "--budget", budget)
        rep = json.loads(out)
        assert code == 3 and rep["exhausted"] and rep["steps"] == 0

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

    def test_check_weight_overflow_is_increasing(self, tmp_path, capsys):
        # both halves of the samples overflow: sup is +inf, and the trend
        # is not "bounded"
        path = tmp_path / "w.json"
        path.write_text('{"kind": "poly", "c": 1000}')
        code, out, _ = invoke(capsys, "check-weight", str(path), "--theta", "0.1")
        assert code == 0
        growth = json.loads(out)["growth"]
        assert growth["sup"] == math.inf and growth["trend"] == "increasing"

    @pytest.mark.parametrize("weight", ['{"kind": "poly", "c": 1000}',
                                        '{"kind": "exp", "rho": -1000}'], ids=["poly", "exp"])
    def test_check_weight_overflow_counts_as_infinity(self, tmp_path, capsys, weight):
        # w(50) is past the float range: +inf >= 1, as the root check has it
        path = tmp_path / "w.json"
        path.write_text(weight)
        code, out, _ = invoke(capsys, "check-weight", str(path))
        assert code == 0
        res = json.loads(out)
        assert res["geq_one"] is True and res["root_convergence"]["overflowed"] is True


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

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_schema_and_help_declare_every_argument(self, name, capsys):
        """--schema lists exactly the flags the parser takes (less the output
        flags every subcommand has), one input per positional argument, and
        --help prints each flag's --schema text."""
        sub = next(a for a in cli._parser()._actions if a.dest == "cmd")
        assert set(sub.choices) == set(SUBCOMMANDS)
        actions = sub.choices[name]._actions
        code, out, _ = invoke(capsys, name, "--schema")
        assert code == 0
        schema = json.loads(out)
        flags = schema.get("flags", {})
        assert set(flags) == {o for a in actions for o in a.option_strings} - {
            "-h", "--help", "--out", "--report", "--schema"}
        assert [a.dest for a in actions if not a.option_strings] == [
            spec.split(".json")[0] for spec in schema["inputs"]]
        with pytest.raises(SystemExit) as stop:
            run([name, "--help"])
        assert stop.value.code == 0
        printed = "".join(capsys.readouterr().out.split())
        assert all("".join(text.split()) in printed for text in flags.values())


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


_certificates = st.builds(
    algebra.NeumannCertificate, st.floats(0, 1), st.integers(0, 50),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(0, 1e-9), st.just(weight_one()))


@given(json_elements(), st.one_of(st.none(), _certificates))
@example(algebra.AlgebraElement(log_primes_basis(40), {}, algebra.EXACT), None)
@example(algebra.AlgebraElement(embedded_basis([(1, 2)]), {}, algebra.FLOAT, 2.5),
         algebra.NeumannCertificate(0.5, 3, 1e-13, 0.0, weight_one()))
@settings(max_examples=200, deadline=None)
def test_element_text_matches_plain_then_json_dumps(x, cert):
    v = x if cert is None else {"inverse": x, "certificate": cert}
    assert cli._dumps(v) == json.dumps(brute_plain(v), sort_keys=True, indent=2)
    parts = []
    cli._render(v, parts.append)
    assert "".join(parts) == brute_render(v)


@pytest.mark.parametrize("terms", [0, 12, 13, 400])
@pytest.mark.parametrize("backend", [algebra.EXACT, algebra.FLOAT])
def test_report_counts_a_long_element_without_writing_its_terms(monkeypatch, terms, backend):
    basis = log_primes_basis(500)
    x = algebra.from_coeffs(basis, [(log_element(basis, n), complex(n, -n) / 3)
                                    for n in range(1, terms + 1)], backend, math.log(500))
    cert = algebra.NeumannCertificate(0.5, 3, 1e-13, 0.0, weight_one())
    wants = [brute_render(v) for v in (x, {"inverse": x, "certificate": cert})]
    if terms > 12:  # only counted: no term is written
        def refuse(self):
            raise AssertionError("a counted element's terms were written")
        monkeypatch.setattr(algebra.AlgebraElement, "_json_terms", refuse)
    for v, want in zip((x, {"inverse": x, "certificate": cert}), wants):
        parts = []
        cli._render(v, parts.append)
        assert "".join(parts) == want
    assert (f"[{terms} entries]" in wants[0]) == (terms > 12)


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
    "kronecker-exit-3": ["kronecker", "kron.json", "--theta", "1e-9", "--budget", "5"],
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
