"""forge: command-line front end.

Exit codes: 0 success, 1 usage or malformed input, 2 validation or
precondition failure (structured error object on stdout), 3 budget
exhausted (best-effort result still emitted, flagged).  All output JSON
is key-sorted so identical inputs and seeds give byte-identical bytes: the
bytes of `json.dumps(..., sort_keys=True, indent=2)`, written by `_dumps`
in one pass over the result objects.  An algebra element's terms are
written straight from what it stores (`AlgebraElement._json_terms`), not
from the dicts of its `to_json`.
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
from .errors import ForgeError, ValidationError
from .ratlin import vec
from .semigroup import FREE, SemigroupBasis

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


# JSON text of a leaf `_jsonable` returns unchanged, by type; a subclass
# takes the encoder of its first base here along its MRO (bool before int)
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
        if type(x) is algebra.AlgebraElement:
            _encode_element(x, put, nl, lead)
            return
        x = _jsonable(x)
        if not isinstance(x, (dict, list)):
            put(lead + next(_LEAVES[t] for t in type(x).__mro__ if t in _LEAVES)(x))
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


def _encode_element(x, put, nl, lead):
    """`_encode` of an algebra element: the text of `x.to_json()`, with its
    "coeffs" written straight from `x._json_terms()`, one template per term
    (keys in sorted order: "element", "im", "re"; the int exponent ids
    sorted as strings)."""
    inner = nl + "  "
    _encode(x.backend, put, inner, lead + "{" + inner + '"backend": ')
    _encode(x.basis, put, inner, "," + inner + '"basis": ')
    if not x._nums:
        put("," + inner + '"coeffs": []')
    else:
        i1 = inner + "  "  # a term
        i2, i3, i4 = i1 + "  ", i1 + "    ", i1 + "      "  # its keys, the element's, theirs
        free = x.basis.mode == FREE
        value = _float if x.backend == algebra.FLOAT else (lambda s: '"' + s + '"')
        sep = "," + inner + '"coeffs": [' + i1
        for part, re, im in x._json_terms():
            if not part:
                body = '"exponents": {}' if free else '"coords": []'
            elif free:  # sorting '"id": n' sorts the ids as strings: "10" before "2"
                entries = sorted([f'"{gid}": {n}' for gid, n in part])
                body = '"exponents": {' + i4 + ("," + i4).join(entries) + i3 + "}"
            else:
                body = '"coords": [' + i4 + ("," + i4).join(map(_quote, part)) + i3 + "]"
            put(f'{sep}{{{i2}"element": {{{i3}{body}{i2}}},{i2}"im": {value(im)},'
                f'{i2}"re": {value(re)}{i1}}}')
            sep = "," + i1
        put(inner + "]")
    _encode(x.truncation, put, inner, "," + inner + '"truncation": ')
    put(nl + "}")


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
    """--s as JSON of the right shape; `algebra._s_vector` reads its values."""
    data = _loads(spec, "--s")
    if not isinstance(data, (list, int, float, dict)):
        raise _UsageError("--s must be a number, {re,im} object, or list of them")
    return data


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


def _vectors(data, key: str, what: str) -> list:
    """The exact vectors listed under data[key]."""
    try:
        return [vec(v) for v in data[key]]
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed {what} JSON: {e}") from e


def _cmd_separate(args):
    pts = _vectors(_load(args.points), "points", "points")
    res = cones.separate_cross_checked(pts) if args.cross_check else cones.separate(pts)
    return res, 0


def _cmd_dual(args):
    data = _load(args.cone)
    return cones.dual_cone(_vectors(data, "generators", "cone"), dim=data.get("dim")), 0


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
        a, psi, theta=args.theta, budget=args.budget, seed=args.seed
    )
    return rep, 3 if rep.exhausted else 0


def _cmd_kronecker(args):
    inst = density.KroneckerInstance.from_json(_load(args.instance))
    flags = {k: v for k, v in (("theta", args.theta), ("t_budget", args.budget))
             if v is not None}
    if flags:
        inst = dataclasses.replace(inst, **flags)
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


# -- the subcommands ----------------------------------------------------------

_ELEMENT = {
    "basis": "semigroup basis object (mode free|embedded, generators)",
    "coeffs": [{"element": "support point", "re": "num|frac", "im": "num|frac"}],
    "backend": "float|exact",
    "truncation": "number|null",
}

# Each subcommand once.  `handler` runs it; every other key is what --schema
# prints: each input "stem.json: shape" is the positional argument `stem`, and
# each flag's argparse keywords carry its --schema text as `help`.
_COMMANDS = {
    "convolve": {"handler": _cmd_convolve, "inputs": ["a.json: element", "b.json: element"],
                 "element": _ELEMENT, "output": "element"},
    "invert": {"handler": _cmd_invert, "inputs": ["a.json: element"], "flags": {
        "--method": dict(help="neumann|graded", choices=["neumann", "graded"],
                         default="neumann"),
        "--truncation": dict(help="required for graded", type=float),
        "--weight": dict(help="weight JSON", default=""),
        "--tol": dict(help="neumann tail bound, > 0, default 1e-12", type=float, default=1e-12)},
        "output": {"inverse": "element", "certificate": "neumann only"}},
    "eval": {"handler": _cmd_eval, "inputs": ["a.json: element"], "flags": {
        "--s": dict(help="number | {re,im} | list", required=True),
        "--weight": dict(help="optional weight JSON", default="")},
        "output": {"value": "{re,im}", "tail": "truncation tail bound"}},
    "witness": {"handler": _cmd_witness, "inputs": ["a.json: element"], "flags": {
        "--sigma-max": dict(help="grid bound on Re s, >= 0, default 10.0", type=float,
                            default=10.0),
        "--t-max": dict(help="grid bound on |Im s|, > 0, default 30.0", type=float,
                        default=30.0)},
        "output": "min-modulus report; certified only for one free generator"},
    "compose": {"handler": _cmd_compose, "inputs": ["a.json: element"], "flags": {
        "--series": dict(help='{"kind":"exp","radius":R} | '
                              '{"kind":"reciprocal","center":{re,im}} | '
                              '{"kind":"coeffs","coeffs":[...],"radius":R}', required=True),
        "--weight": dict(help="optional weight JSON", default=""),
        "--tol": dict(help="tail bound, > 0, default 1e-12", type=float, default=1e-12)},
        "output": {"element": "element", "certificate": "tail data"}},
    "separate": {"handler": _cmd_separate,
                 "inputs": ['points.json: {"points": [[rational, ...], ...]}'], "flags": {
        "--cross-check": dict(help="confirm by Fourier-Motzkin (dim <= 3)",
                              action="store_true")},
        "output": "inside (coefficients) or functional with rho(x) >= 1"},
    "dual": {"handler": _cmd_dual, "inputs": [
        'cone.json: {"generators": [[rational, ...], ...], "dim": "optional"}'],
        "output": "dual cone rays"},
    "extend-character": {"handler": _cmd_extend_character, "inputs": [
        'problem.json: {"dim": d, "generators": [[rational,...]],'
        ' "prescribed": {"idx": {"re","im"}}}'],
        "output": "free basis, dual functionals, exponents, extended values"},
    "density-search": {"handler": _cmd_density_search, "inputs": [
        "a.json: element (one-dimensional basis)",
        "psi.json: character values (basis optional)"], "flags": {
        "--theta": dict(help="accuracy, default 1e-2", type=float, default=1e-2),
        "--budget": dict(help="default 1e6", type=float, default=1e6),
        "--seed": dict(help="default 0", type=int, default=0)},
        "output": "s, achieved_error, steps, exhausted (exit 3 when exhausted)"},
    "kronecker": {"handler": _cmd_kronecker, "inputs": [
        'instance.json: {"betas": [...], "targets": [{"re","im"}...],'
        ' "theta": eps, "t_budget": N}'], "flags": {
        "--theta": dict(help="accuracy, replaces the instance's theta", type=float),
        "--budget": dict(help="step budget, replaces the instance's t_budget", type=float)},
        "output": "t, per-coordinate errors, steps, exhausted (exit 3 when exhausted)"},
    "euler-invert": {"handler": _cmd_euler_invert, "inputs": [
        'f.json: {"system": {"primes": [...], "x": X, "rational": bool},'
        ' "values": [{"p": 2, "k": 1, "value": "1/2"}]}'], "flags": {
        "--x": dict(help="materialize inverse values to x", type=int),
        "--certify": dict(help="per-prime disk minima", action="store_true")},
        "output": "inverse table (+ values, certificates)"},
    "p3-decompose": {"handler": _cmd_p3_decompose, "inputs": ["f.json: multiplicative function"],
                     "flags": {
        "--omega": dict(help='weight JSON, e.g. {"kind":"one"}', default=""),
        "--x": dict(help="norm materialization bound", type=int)},
        "output": "p0, local part, completely multiplicative b, correction h, certificates"},
    "check-weight": {"handler": _cmd_check_weight, "inputs": ["w.json: weight"], "flags": {
        "--theta": dict(help="also report growth of w(m) exp(-theta m)", type=float),
        "--mag": dict(help="magnitude for root-convergence check, default 1.0", type=float,
                      default=1.0)},
        "output": "w(0), w >= 1 flag, root convergence report"},
}


def _schema(name: str) -> dict:
    """What --schema prints for a subcommand: its table entry, with each
    flag's text in place of its argparse keywords."""
    out = {k: v for k, v in _COMMANDS[name].items() if k != "handler"}
    if "flags" in out:
        out["flags"] = {flag: kw["help"] for flag, kw in out["flags"].items()}
    return out


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused: argparse keeps no
    state between parse_args calls, and each call returns a new Namespace."""
    p = _Parser(prog=PROG, description="weighted Dirichlet-series algebra toolkit")
    sub = p.add_subparsers(dest="cmd", metavar="subcommand")
    for name, entry in _COMMANDS.items():
        sp = sub.add_parser(name, prog=f"{PROG} {name}")
        for spec in entry["inputs"]:
            sp.add_argument(spec.split(".json", 1)[0], help=spec)
        for flag, kw in entry.get("flags", {}).items():
            sp.add_argument(flag, **kw)
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        sp.add_argument("--report", action="store_true",
                        help="human-readable text instead of JSON")
        sp.add_argument("--schema", action="store_true",
                        help="print the expected JSON shapes and exit")
    return p


def run(argv) -> int:
    argv = list(argv)
    # --schema must work without the positional inputs
    if "--schema" in argv:
        name = next((t for t in argv if not t.startswith("-")), None)
        if name in _COMMANDS:
            sys.stdout.write(_dumps(_schema(name)) + "\n")
            return 0
        sys.stderr.write(f"{PROG}: --schema needs a known subcommand\n")
        return 1

    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_help(sys.stderr)
            return 1
        result, code = _COMMANDS[args.cmd]["handler"](args)
        _emit(result, args)
        return code
    except _UsageError as e:
        sys.stderr.write(f"{PROG}: error: {e}\n")
        return 1
    except ForgeError as e:
        sys.stdout.write(_dumps({"error": e.payload()}) + "\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
