"""forge: command-line front end.

Exit codes: 0 success, 1 usage or malformed input, 2 validation or
precondition failure (structured error object on stdout), 3 budget
exhausted (best-effort result still emitted, flagged).  All output JSON
is key-sorted so identical inputs and seeds give byte-identical bytes: the
bytes of `json.dumps(..., sort_keys=True, indent=2)`, written by `_dumps`
in one pass over the result objects.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import algebra, arithmetic, cones, density, extension, weights
from .characters import Character
from .errors import BudgetExhaustedError, ForgeError
from .semigroup import SemigroupBasis

PROG = "forge"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _jsonable(x):
    """One step of the conversion from results to JSON-ready values.

    Leaves (None, bool, int, str, float) come back as they are, Fractions
    as str, complex numbers as {"im", "re"}; an object with `to_json()` is
    converted through it, a dataclass becomes its fields, a dict gets str(k)
    keys (of two colliding keys the later wins), a list or tuple becomes a
    list, and anything else str(x).  Values inside a returned dict or list
    are left for the caller, so `_dumps` and `_render` convert each value
    exactly once, while they write it.
    """
    if x is None or isinstance(x, (bool, int, str, float)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"im": x.imag, "re": x.real}
    if hasattr(x, "to_json"):
        return _jsonable(x.to_json())
    if dataclasses.is_dataclass(x):
        return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): v for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return list(x)
    return str(x)


def _float(x):
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _leaf(x):
    """JSON text of a leaf `_jsonable` returned, subclasses included."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return _float(x)


# JSON text of a value of exactly one of these types, by type: the leaves
# `_jsonable` returns unchanged, without its isinstance chain
_LEAVES = {
    str: _quote,
    float: _float,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _dumps(x) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` of the JSON-ready form
    of `x` (`_jsonable`, applied all the way down), written in one pass."""
    parts = []
    _encode(x, parts.append, "\n", "")
    return "".join(parts)


def _encode(x, put, nl, lead):
    """Write `lead`, then the JSON text of `x` at the indent `nl` opens."""
    enc = _LEAVES.get(type(x))
    if enc is not None:
        put(lead + enc(x))
        return
    if type(x) is not dict and type(x) is not list and type(x) is not tuple:
        x = _jsonable(x)
        if not isinstance(x, (dict, list)):
            put(lead + _leaf(x))
            return
    inner = nl + "  "
    if isinstance(x, dict):
        if not x:
            put(lead + "{}")
            return
        for k in x:
            if type(k) is not str:
                x = {str(k): v for k, v in x.items()}
                break
        sep = lead + "{" + inner
        for k, v in sorted(x.items()) if len(x) > 1 else x.items():
            head = sep + _quote(k) + ": "
            enc = _LEAVES.get(type(v))
            if enc is not None:
                put(head + enc(v))
            else:
                _encode(v, put, inner, head)
            sep = "," + inner
        put(nl + "}")
    else:
        if not x:
            put(lead + "[]")
            return
        sep = lead + "[" + inner
        for v in x:
            enc = _LEAVES.get(type(v))
            if enc is not None:
                put(sep + enc(v))
            else:
                _encode(v, put, inner, sep)
            sep = "," + inner
        put(nl + "]")


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise _UsageError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise _UsageError(f"malformed JSON in {path}: {e}") from e


def _loads(blob: str, what: str):
    try:
        return json.loads(blob)
    except json.JSONDecodeError as e:
        raise _UsageError(f"malformed JSON for {what}: {e}") from e


def _emit(data, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dumps(data) + "\n")
    elif getattr(args, "report", False):
        parts = []
        _render(data, parts.append)
        sys.stdout.write("".join(parts))
    else:
        sys.stdout.write(_dumps(data) + "\n")


def _render(data, put, indent: int = 0) -> None:
    """Plain-text certificate rendering for --report."""
    pad = "  " * indent
    data = _jsonable(data)
    if isinstance(data, dict):
        for k in sorted(data):
            v = _jsonable(data[k])
            if isinstance(v, (dict, list)) and v:
                put(f"{pad}{k}:\n")
                _render(v, put, indent + 1)
            else:
                put(f"{pad}{k}: {v}\n")
    elif isinstance(data, list):
        if len(data) > 12:
            put(f"{pad}[{len(data)} entries]\n")
        else:
            for v in data:
                v = _jsonable(v)
                if isinstance(v, (dict, list)):
                    _render(v, put, indent + 1)
                else:
                    put(f"{pad}- {v}\n")
    else:
        put(f"{pad}{data}\n")


def _weight_arg(spec: str):
    if not spec:
        return None
    return weights.WeightFn.from_json(_loads(spec, "--omega/--weight"))


def _parse_s(spec: str):
    data = _loads(spec, "--s")
    if isinstance(data, (int, float)):
        return complex(data)
    if isinstance(data, dict):
        return complex(data.get("re", 0.0), data.get("im", 0.0))
    if isinstance(data, list):
        return [complex(z.get("re", 0.0), z.get("im", 0.0))
                if isinstance(z, dict) else complex(z) for z in data]
    raise _UsageError("--s must be a number, {re,im} object, or list of them")


# -- subcommand handlers ----------------------------------------------------


def _cmd_convolve(args):
    a = algebra.AlgebraElement.from_json(_load(args.a))
    b = algebra.AlgebraElement.from_json(_load(args.b), basis=a.basis)
    return algebra.convolve(a, b), 0


def _cmd_invert(args):
    a = algebra.AlgebraElement.from_json(_load(args.a))
    w = _weight_arg(args.weight)
    if args.method == "neumann":
        inv, cert = algebra.neumann_invert(a, w, tol=args.tol)
        return {"inverse": inv, "certificate": cert}, 0
    if args.truncation is None:
        raise _UsageError("graded inversion requires --truncation")
    inv = algebra.graded_invert(a, truncation=args.truncation)
    return {"inverse": inv}, 0


def _cmd_eval(args):
    a = algebra.AlgebraElement.from_json(_load(args.a))
    w = _weight_arg(args.weight)
    value, tail = algebra.evaluate_series(a, _parse_s(args.s), w)
    out = {"value": value}
    if tail is not None:
        out["tail"] = tail
    return out, 0


def _cmd_witness(args):
    a = algebra.AlgebraElement.from_json(_load(args.a))
    grid = algebra.GridSpec(sigma_max=args.sigma_max, t_max=args.t_max)
    return algebra.invertibility_witness(a, grid), 0


def _cmd_compose(args):
    a = algebra.AlgebraElement.from_json(_load(args.a))
    f = algebra.PowerSeries.from_json(_loads(args.series, "--series"))
    w = _weight_arg(args.weight)
    c, cert = algebra.compose_series(f, a, w, tol=args.tol)
    return {"element": c, "certificate": cert}, 0


def _cmd_separate(args):
    data = _load(args.points)
    pts = [cones.vec_from_json(p) for p in data["points"]]
    res = cones.separate_cross_checked(pts) if args.cross_check else cones.separate(pts)
    return res, 0


def _cmd_dual(args):
    data = _load(args.cone)
    gens = [cones.vec_from_json(g) for g in data["generators"]]
    return cones.dual_cone(gens, dim=data.get("dim")), 0


def _cmd_extend_character(args):
    prob = extension.CharacterExtensionProblem.from_json(_load(args.problem))
    return extension.extend_character(prob), 0


def _cmd_density_search(args):
    a = algebra.AlgebraElement.from_json(_load(args.a))
    psi_data = _load(args.psi)
    if "basis" in psi_data:
        basis = SemigroupBasis.from_json(psi_data["basis"])
        psi = Character.from_json(basis, psi_data)
    else:
        psi = Character.from_json(a.basis, psi_data)
    rep = density.approximate_functional(
        a, psi, theta=args.theta, budget=int(args.budget), seed=args.seed
    )
    return rep, 3 if rep.exhausted else 0


def _cmd_kronecker(args):
    inst = density.KroneckerInstance.from_json(_load(args.instance))
    if args.theta is not None or args.budget is not None:
        inst = density.KroneckerInstance(
            betas=inst.betas,
            targets=inst.targets,
            theta=args.theta if args.theta is not None else inst.theta,
            t_budget=int(args.budget) if args.budget is not None else inst.t_budget,
        )
    res = density.kronecker_t(inst)
    return res, 3 if res.exhausted else 0


def _cmd_euler_invert(args):
    f = arithmetic.MultiplicativeFunction.from_json(_load(args.f))
    inv = arithmetic.invert_multiplicative(f)
    out = {"inverse": inv}
    if args.x is not None:
        vals = inv.values_up_to(args.x)
        out["values"] = vals[1:]  # f(1), ..., f(x)
    if args.certify:
        out["certificates"] = arithmetic.euler_invertibility_report(f)
    return out, 0


def _cmd_p3_decompose(args):
    f = arithmetic.MultiplicativeFunction.from_json(_load(args.f))
    omega = _weight_arg(args.omega)
    dec = arithmetic.tail_decompose(f, omega, norm_limit=args.x)
    return dec, 0


def _cmd_check_weight(args):
    w = weights.WeightFn.from_json(_load(args.w))
    samples = [50.0 * k / 63.0 for k in range(64)]
    root = weights.check_root_convergence(w, args.mag)
    out = {
        "at_zero": w.eval_mag(0.0),
        "geq_one": weights.check_geq_one(w, samples),
        "root_convergence": root,
    }
    if args.theta is not None:
        out["growth"] = weights.check_growth_bound(w, args.theta, samples)
    return out, 0


# -- schemas (printed by --schema) ------------------------------------------

_ELEMENT = {
    "basis": "semigroup basis object (mode free|embedded, generators)",
    "coeffs": [{"element": "support point", "re": "num|frac", "im": "num|frac"}],
    "backend": "float|exact",
    "truncation": "number|null",
}

SCHEMAS = {
    "convolve": {"inputs": ["a.json: element", "b.json: element"], "element": _ELEMENT,
                 "output": "element"},
    "invert": {"inputs": ["a.json: element"], "flags": {"--method": "neumann|graded",
               "--truncation": "required for graded", "--weight": "weight JSON"},
               "output": {"inverse": "element", "certificate": "neumann only"}},
    "eval": {"inputs": ["a.json: element"], "flags": {"--s": "number | {re,im} | list",
             "--weight": "optional weight JSON"},
             "output": {"value": "{re,im}", "tail": "truncation tail bound"}},
    "witness": {"inputs": ["a.json: element"],
                "output": "min-modulus report; certified only for one free generator"},
    "compose": {"inputs": ["a.json: element"],
                "flags": {"--series": '{"kind":"exp","radius":R} | '
                          '{"kind":"reciprocal","center":{re,im}} | '
                          '{"kind":"coeffs","coeffs":[...],"radius":R}'},
                "output": {"element": "element", "certificate": "tail data"}},
    "separate": {"inputs": ['points.json: {"points": [[rational, ...], ...]}'],
                 "output": "inside (coefficients) or functional with rho(x) >= 1"},
    "dual": {"inputs": ['cone.json: {"generators": [[rational, ...], ...], "dim": "optional"}'],
             "output": "dual cone rays"},
    "extend-character": {
        "inputs": ['problem.json: {"dim": d, "generators": [[rational,...]],'
                   ' "prescribed": {"idx": {"re","im"}}}'],
        "output": "free basis, dual functionals, exponents, extended values"},
    "density-search": {
        "inputs": ["a.json: element (one-dimensional basis)",
                   "psi.json: character values (basis optional)"],
        "flags": {"--theta": "accuracy, default 1e-2", "--budget": "default 1e6",
                  "--seed": "default 0"},
        "output": "s, achieved_error, steps, exhausted (exit 3 when exhausted)"},
    "kronecker": {
        "inputs": ['instance.json: {"betas": [...], "targets": [{"re","im"}...],'
                   ' "theta": eps, "t_budget": N}'],
        "output": "t, per-coordinate errors, steps, exhausted (exit 3 when exhausted)"},
    "euler-invert": {
        "inputs": ['f.json: {"system": {"primes": [...], "x": X, "rational": bool},'
                   ' "values": [{"p": 2, "k": 1, "value": "1/2"}]}'],
        "flags": {"--x": "materialize inverse values to x", "--certify":
                  "per-prime disk minima"},
        "output": "inverse table (+ values, certificates)"},
    "p3-decompose": {
        "inputs": ["f.json: multiplicative function"],
        "flags": {"--omega": 'weight JSON, e.g. {"kind":"one"}',
                  "--x": "norm materialization bound"},
        "output": "p0, local part, completely multiplicative b, correction h,"
                  " certificates"},
    "check-weight": {
        "inputs": ["w.json: weight"],
        "flags": {"--theta": "also report growth of w(m) exp(-theta m)",
                  "--mag": "magnitude for root-convergence check, default 1.0"},
        "output": "w(0), w >= 1 flag, root convergence report"},
}

_HANDLERS = {
    "convolve": _cmd_convolve,
    "invert": _cmd_invert,
    "eval": _cmd_eval,
    "witness": _cmd_witness,
    "compose": _cmd_compose,
    "separate": _cmd_separate,
    "dual": _cmd_dual,
    "extend-character": _cmd_extend_character,
    "density-search": _cmd_density_search,
    "kronecker": _cmd_kronecker,
    "euler-invert": _cmd_euler_invert,
    "p3-decompose": _cmd_p3_decompose,
    "check-weight": _cmd_check_weight,
}


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused: argparse keeps no
    state between parse_args calls, and each call returns a new Namespace."""
    p = _Parser(prog=PROG, description="weighted Dirichlet-series algebra toolkit")
    sub = p.add_subparsers(dest="cmd", metavar="subcommand")

    def add(name, *positional, **flags):
        sp = sub.add_parser(name, prog=f"{PROG} {name}")
        for pos in positional:
            sp.add_argument(pos)
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        sp.add_argument("--report", action="store_true",
                        help="human-readable text instead of JSON")
        sp.add_argument("--schema", action="store_true",
                        help="print the expected JSON shapes and exit")
        return sp

    add("convolve", "a", "b")
    add("invert", "a",
        **{"--method": dict(choices=["neumann", "graded"], default="neumann"),
           "--truncation": dict(type=float, default=None),
           "--weight": dict(default=""),
           "--tol": dict(type=float, default=1e-12)})
    add("eval", "a", **{"--s": dict(required=True), "--weight": dict(default="")})
    add("witness", "a", **{"--sigma-max": dict(type=float, default=10.0),
                           "--t-max": dict(type=float, default=30.0)})
    add("compose", "a", **{"--series": dict(required=True),
                           "--weight": dict(default=""),
                           "--tol": dict(type=float, default=1e-12)})
    add("separate", "points", **{"--cross-check": dict(action="store_true")})
    add("dual", "cone")
    add("extend-character", "problem")
    add("density-search", "a", "psi",
        **{"--theta": dict(type=float, default=1e-2),
           "--budget": dict(type=float, default=1e6),
           "--seed": dict(type=int, default=0)})
    add("kronecker", "instance", **{"--theta": dict(type=float, default=None),
                                    "--budget": dict(type=float, default=None)})
    add("euler-invert", "f", **{"--x": dict(type=int, default=None),
                                "--certify": dict(action="store_true")})
    add("p3-decompose", "f", **{"--omega": dict(default=""),
                                "--x": dict(type=int, default=None)})
    add("check-weight", "w", **{"--theta": dict(type=float, default=None),
                                "--mag": dict(type=float, default=1.0)})
    return p


def run(argv) -> int:
    argv = list(argv)
    # --schema must work without the positional inputs
    if "--schema" in argv:
        name = next((t for t in argv if not t.startswith("-")), None)
        if name in SCHEMAS:
            sys.stdout.write(_dumps(SCHEMAS[name]) + "\n")
            return 0
        sys.stderr.write(f"{PROG}: --schema needs a known subcommand\n")
        return 1

    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_help(sys.stderr)
            return 1
        result, code = _HANDLERS[args.cmd](args)
        _emit(result, args)
        return code
    except _UsageError as e:
        sys.stderr.write(f"{PROG}: error: {e}\n")
        return 1
    except BudgetExhaustedError as e:
        payload = e.payload()
        if getattr(e, "best", None) is not None:
            payload["best"] = e.best
        sys.stdout.write(_dumps({"error": payload}) + "\n")
        return 3
    except ForgeError as e:
        sys.stdout.write(_dumps({"error": e.payload()}) + "\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
