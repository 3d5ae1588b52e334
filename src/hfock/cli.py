"""Command-line surface: table export, kernel evaluation, verification suites.

Output is deterministic: identical argv (including --seed) produces
byte-identical bytes.  Randomized point sets come from Python's
``random.Random`` (Mersenne Twister), JSON is emitted with sorted keys, and
floats use shortest round-trip repr.  Every JSON document carries
``"schema": 1``.

Exit codes: 0 success, 2 domain or configuration error (message on stderr),
3 when a verify suite fails (JSON failure report still written).
"""
from __future__ import annotations

import argparse
import io
import json
import random
import sys

from . import bargmann, dbar, expint, lerch, moments, space, verify
from .errors import (AccuracyError, ConfigurationError, DomainError,
                     PrecisionLossError, ValidationError, refuse_unread)
from .numerics import disk_point

SCHEMA = 1

_USER_ERRORS = (ConfigurationError, DomainError, ValidationError,
                PrecisionLossError, AccuracyError)


def _parse_number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse {kind.__name__} from {text!r}") from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) in (1, 2):
        try:
            return complex(*map(float, parts))
        except ValueError:
            pass
    raise ConfigurationError(f"cannot parse complex number from {text!r} (want 're' or 're,im')")


def _load_payload(path: str, *required: str) -> dict:
    """The JSON object in ``path``, which must hold every key in ``required``."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError(f"{path} is not JSON: {exc}") from None
    missing = [key for key in required if not isinstance(payload, dict) or key not in payload]
    if missing:
        raise ConfigurationError(f"{path} lacks {', '.join(map(repr, missing))}")
    return payload


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _complex_entries(path: str, key: str, raw, reals: bool = False) -> list[complex]:
    """The list ``raw`` read from ``key`` of ``path`` as complex numbers.

    Each entry is an ``[re, im]`` pair of numbers, or also a bare real number
    where ``reals`` is set.
    """
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: {key!r} must be a list, got {raw!r}")
    out = []
    for i, item in enumerate(raw):
        if reals and isinstance(item, (int, float)):
            out.append(complex(item))
        elif isinstance(item, list) and len(item) == 2 and \
                all(isinstance(v, (int, float)) for v in item):
            out.append(complex(item[0], item[1]))
        else:
            want = "a number or an [re, im] pair" if reals else "an [re, im] pair"
            raise ConfigurationError(f"{path}: {key}[{i}] must be {want}, got {item!r}")
    return out


def _float_entry(path: str, payload: dict, key: str, default: float) -> float:
    """``payload[key]`` read from ``path`` as a float, ``default`` where it is absent."""
    raw = payload.get(key, default)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}: {key!r} must be a number, got {raw!r}") from None


def _refuse_unread(args, where: str, flags) -> None:
    """Refuse the ``flags`` given on the command line (not None) that
    ``where``, one mode of a subcommand, does not read."""
    refuse_unread(where, {flag: getattr(args, flag[2:].replace("-", "_")) for flag in flags})


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-", "stdout"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _json_text(obj: dict) -> str:
    obj.setdefault("schema", SCHEMA)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_json(obj: dict, out_path: str | None) -> None:
    _emit(_json_text(obj), out_path)


def _cmd_moments(args) -> int:
    table = moments.eta_table(args.nmax, tol=args.tol)
    if args.format == "csv":
        buf = io.StringIO()
        table.write_csv(buf)
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json(table.as_json_obj(), args.out)
    return 0


def _cmd_expint(args) -> int:
    n = 1 if args.n is None else args.n
    obj = {"x": args.x}
    if args.family is not None:
        if args.laplace is None:
            _refuse_unread(args, "expint --family without --laplace", ["--n"])
        obj["n_max"] = args.family
        obj["values"] = expint.en_family(args.family, args.x)
    else:
        obj["n"] = n
        obj["value"] = expint.en(n, args.x)
    if args.laplace is not None:
        obj["laplace_a"] = args.laplace
        obj["laplace_value"] = expint.laplace_en(n, args.laplace)
    _emit_json(obj, args.out)
    return 0


def _cmd_efun(args) -> int:
    values = []
    for text in args.z:
        z = _parse_complex(text)
        values.append({"z": _pair(z), "value": _pair(space.efun(z, args.tol))})
    _emit_json({"values": values, "tol": args.tol}, args.out)
    return 0


def _cmd_kernel(args) -> int:
    z = _parse_complex(args.z)
    w = _parse_complex(args.w)
    val = space.kernel(z, w, args.tol, ml_normalized=args.ml_normalized)
    _emit_json({"z": _pair(z), "w": _pair(w), "value": _pair(val),
                "ml_normalized": args.ml_normalized}, args.out)
    return 0


def _cmd_gram(args) -> int:
    tol = args.tol
    if args.points_file:
        _refuse_unread(args, "gram --points-file", ["--random", "--radius", "--seed"])
        payload = _load_payload(args.points_file, "points")
        pts = _complex_entries(args.points_file, "points", payload["points"])
        tol = _float_entry(args.points_file, payload, "tol", tol)
    else:
        rng = random.Random(0 if args.seed is None else args.seed)
        radius = 2.0 if args.radius is None else args.radius
        if not radius >= 0.0:
            raise ConfigurationError(f"--radius must be >= 0, got {radius}")
        pts = [disk_point(rng, radius) for _ in range(20 if args.random is None else args.random)]
    g = space.gram_kernel(pts, tol)
    _emit(_gram_json(g), args.out)
    return 0


_MATRIX_SLOT = "\0matrix"  # stands for the matrix while json writes the rest
_PAIR = "      [\n        %r,\n        %r\n      ]"


def _gram_json(g) -> str:
    """``_json_text(g.as_json_obj())`` of a Gram matrix with at least one
    entry, with the matrix rows written by one format string each: json's
    indented writer spends most of a large Gram's run on them.  The bytes
    are json's, NaN and Infinity included."""
    import numpy as np

    m, n = g.entries.shape
    obj = g._replace(entries=g.entries[:0]).as_json_obj()  # every key but the matrix's rows
    obj["matrix"] = _MATRIX_SLOT
    row = "    [\n" + ",\n".join([_PAIR] * n) + "\n    ]"
    parts = np.stack((g.entries.real, g.entries.imag), axis=-1).reshape(m, 2 * n).tolist()
    rows = "[\n" + ",\n".join([row % tuple(r) for r in parts]) + "\n  ]"
    if not np.isfinite(g.entries).all():  # json's names for the non-finite floats
        rows = rows.replace("inf", "Infinity").replace("nan", "NaN")
    return _json_text(obj).replace(json.dumps(_MATRIX_SLOT), rows, 1)


def _cmd_bargmann(args) -> int:
    z = _parse_complex(args.z)
    nx = args.nx
    if nx < 1:
        raise ConfigurationError(f"--nx must be >= 1, got {nx}")
    xs = [args.xmin + (args.xmax - args.xmin) * i / (nx - 1) for i in range(nx)] \
        if nx > 1 else [args.xmin]
    rows = [(z, x, bargmann.bargmann_kernel(z, x, args.tol)) for x in xs]
    if args.format == "csv":
        lines = ["z_re,z_im,x,A_re,A_im"]
        lines += [f"{zz.real!r},{zz.imag!r},{x!r},{v.real!r},{v.imag!r}"
                  for zz, x, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json({"rows": [{"z": _pair(zz), "x": x, "value": _pair(v)}
                             for zz, x, v in rows]}, args.out)
    return 0


def _cmd_lerch(args) -> int:
    if args.audit is None:
        _refuse_unread(args, "lerch --phi", ["--seed"])
        n = _parse_number(args.phi[0], int)
        z = _parse_complex(args.phi[1])
        _emit_json({"n": n, "z": _pair(z), "value": _pair(lerch.phi(n, z))}, args.out)
        return 0
    seed = 0 if args.seed is None else args.seed
    if args.audit == "eta0_K":
        obj = lerch.ml_audit("eta0_K", seed=seed)
    elif args.audit.startswith("phi_tilde:"):
        n = _parse_number(args.audit.split(":", 1)[1], int)
        obj = lerch.ml_audit("phi_tilde", n, seed=seed)
    else:
        raise ConfigurationError(
            f"--audit expects 'eta0_K' or 'phi_tilde:N', got {args.audit!r}")
    _emit_json(obj, args.out)
    return 0


def _cmd_dbar(args) -> int:
    path = args.problem
    payload = _load_payload(path, "f", "samples")
    f = space.EntireSeries(_complex_entries(path, "f", payload["f"], reals=True))
    u0 = space.EntireSeries(_complex_entries(path, "u0", payload.get("u0", [0.0]), reals=True))
    samples = _complex_entries(path, "samples", payload["samples"])
    h = _float_entry(path, payload, "h", 1e-5)
    u = dbar.assemble_solution(f, u0)
    rep = dbar.dbar_residual(u, f, samples, h)
    budget = dbar.weighted_budget_check(u0, f)
    obj = rep._asdict()
    obj["budget"] = budget._asdict()
    obj["h"] = h
    _emit_json(obj, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run(args.suite, seed=args.seed, nmax=args.nmax, points=args.points)
    _emit_json(report, args.out)
    return 0 if report["n_failed"] == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfock",
        description="moment sequences, reproducing kernels and verification "
                    "suites for a weighted Fock-type space")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False, fmt=None):
        # --out on every subcommand; --tol and --format (default ``fmt``) only
        # where the subcommand reads them.  --seed is added by the three
        # that read it; gram and lerch read it in one mode only
        if tol:
            p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)

    p = sub.add_parser("moments", help="export the moment table")
    common(p, tol=True, fmt="csv")
    p.add_argument("--nmax", type=int, default=30)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("expint", help="evaluate E_n and its Laplace transform")
    common(p)
    p.add_argument("--n", type=int, default=None,
                   help="order of E_n and of the transform (default 1); --family without --laplace takes none")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--family", type=int, default=None, metavar="N_MAX")
    p.add_argument("--laplace", type=float, default=None, metavar="A")
    p.set_defaults(func=_cmd_expint)

    p = sub.add_parser("efun", help="evaluate the reciprocal-moment entire function")
    common(p, tol=True)
    p.add_argument("--z", action="append", required=True, metavar="RE[,IM]")
    p.set_defaults(func=_cmd_efun)

    p = sub.add_parser("kernel", help="evaluate the reproducing kernel K(z, w)")
    common(p, tol=True)
    p.add_argument("--z", required=True, metavar="RE[,IM]")
    p.add_argument("--w", required=True, metavar="RE[,IM]")
    p.add_argument("--ml-normalized", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("gram", help="kernel Gram matrix with PSD diagnostics")
    common(p, tol=True)
    p.add_argument("--points-file", default=None,
                   help='JSON file {"points": [[re,im],...], "tol": ...}; takes no --random, --radius or --seed')
    p.add_argument("--random", type=int, default=None, metavar="COUNT", help="default 20")
    p.add_argument("--radius", type=float, default=None, help="default 2.0")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("bargmann", help="sample the Bargmann-type kernel on an x grid")
    common(p, tol=True, fmt="csv")
    p.add_argument("--z", required=True, metavar="RE[,IM]")
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--nx", type=int, default=61)
    p.set_defaults(func=_cmd_bargmann)

    p = sub.add_parser("lerch", help="disk kernels and class audits")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="0 for --audit; --phi takes none")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--phi", nargs=2, metavar=("N", "Z"), default=None)
    what.add_argument("--audit", default=None, metavar="phi_tilde:N|eta0_K")
    p.set_defaults(func=_cmd_lerch)

    p = sub.add_parser("dbar", help="residual-check a problem description file")
    common(p)
    p.add_argument("--problem", required=True,
                   help='JSON file {"f": coeffs, "u0": coeffs, "samples": [[re,im],...], "h": step}')
    p.set_defaults(func=_cmd_dbar)

    p = sub.add_parser("verify", help="run a named verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="default 0; bounds takes none")
    p.add_argument("suite", choices=sorted(list(verify.SUITES) + list(verify.ALIASES) + ["all"]))
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*_USER_ERRORS, OSError) as exc:
        print(f"hfock: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
