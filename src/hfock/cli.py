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
                     PrecisionLossError, ValidationError)
from .numerics import disk_point

SCHEMA = 1

_USER_ERRORS = (ConfigurationError, DomainError, ValidationError,
                PrecisionLossError, AccuracyError)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigurationError(f"cannot parse complex number from {text!r} (want 're' or 're,im')")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _coeffs_from_json(raw) -> tuple[complex, ...]:
    out = []
    for item in raw:
        if isinstance(item, (int, float)):
            out.append(complex(item))
        else:
            out.append(complex(item[0], item[1]))
    return tuple(out)


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-", "stdout"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    obj.setdefault("schema", SCHEMA)
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


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
    obj = {"x": args.x}
    if args.family is not None:
        obj["n_max"] = args.family
        obj["values"] = expint.en_family(args.family, args.x)
    else:
        obj["n"] = args.n
        obj["value"] = expint.en(args.n, args.x)
    if args.laplace is not None:
        obj["laplace_a"] = args.laplace
        obj["laplace_value"] = expint.laplace_en(max(args.n, 1), args.laplace)
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
        with open(args.points_file) as fh:
            payload = json.load(fh)
        pts = [complex(p[0], p[1]) for p in payload["points"]]
        tol = float(payload.get("tol", tol))
    else:
        rng = random.Random(args.seed)
        pts = [disk_point(rng, args.radius) for _ in range(args.random)]
    g = space.gram_kernel(pts, tol)
    _emit_json(g.as_json_obj(), args.out)
    return 0


def _cmd_bargmann(args) -> int:
    z = _parse_complex(args.z)
    nx = args.nx
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
    if args.audit:
        if args.audit == "eta0_K":
            obj = lerch.ml_audit("eta0_K", seed=args.seed)
        elif args.audit.startswith("phi_tilde:"):
            obj = lerch.ml_audit("phi_tilde", int(args.audit.split(":", 1)[1]), seed=args.seed)
        else:
            raise ConfigurationError(
                f"--audit expects 'eta0_K' or 'phi_tilde:N', got {args.audit!r}")
        _emit_json(obj, args.out)
        return 0
    if args.zeta:
        s, a = args.zeta
        _emit_json({"s": s, "a": a, "value": lerch.hurwitz_zeta(s, a, args.tol)}, args.out)
        return 0
    if args.lerch:
        z = _parse_complex(args.lerch[0])
        s, a = float(args.lerch[1]), float(args.lerch[2])
        _emit_json({"z": _pair(z), "s": s, "a": a,
                    "value": _pair(lerch.lerch_phi(z, s, a, args.tol))}, args.out)
        return 0
    if args.phi:
        n = int(args.phi[0])
        z = _parse_complex(args.phi[1])
        _emit_json({"n": n, "z": _pair(z),
                    "value": _pair(lerch.phi(n, z))}, args.out)
        return 0
    raise ConfigurationError("lerch: pass one of --phi, --zeta, --lerch, --audit")


def _cmd_dbar(args) -> int:
    with open(args.problem) as fh:
        payload = json.load(fh)
    f = space.EntireSeries(_coeffs_from_json(payload["f"]))
    u0 = space.EntireSeries(_coeffs_from_json(payload.get("u0", [0.0])))
    samples = [complex(p[0], p[1]) for p in payload["samples"]]
    h = float(payload.get("h", 1e-5))
    u = dbar.assemble_solution(f, u0)
    rep = dbar.dbar_residual(u, f, samples, h)
    budget = dbar.weighted_budget_check(u0, f)
    obj = rep.as_json_obj()
    obj["budget"] = {"lhs": budget.lhs, "budget": budget.budget,
                     "ratio": budget.ratio, "ok": budget.ok}
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

    def common(p, tol=False, fmt=None, seed=False):
        # --out on every subcommand; --tol, --format (default ``fmt``) and
        # --seed only where the subcommand reads them
        if tol:
            p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("moments", help="export the moment table")
    common(p, tol=True, fmt="csv")
    p.add_argument("--nmax", type=int, default=30)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("expint", help="evaluate E_n and its Laplace transform")
    common(p)
    p.add_argument("--n", type=int, default=1)
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
    common(p, tol=True, seed=True)
    p.add_argument("--points-file", default=None,
                   help='JSON file {"points": [[re,im],...], "tol": ...}')
    p.add_argument("--random", type=int, default=20, metavar="COUNT")
    p.add_argument("--radius", type=float, default=2.0)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("bargmann", help="sample the Bargmann-type kernel on an x grid")
    common(p, tol=True, fmt="csv")
    p.add_argument("--z", required=True, metavar="RE[,IM]")
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--nx", type=int, default=61)
    p.set_defaults(func=_cmd_bargmann)

    p = sub.add_parser("lerch", help="disk kernels, Lerch/Hurwitz values, class audits")
    common(p, tol=True, seed=True)
    p.add_argument("--phi", nargs=2, metavar=("N", "Z"), default=None)
    p.add_argument("--zeta", nargs=2, type=float, metavar=("S", "A"), default=None)
    p.add_argument("--lerch", nargs=3, metavar=("Z", "S", "A"), default=None)
    p.add_argument("--audit", default=None, metavar="phi_tilde:N|eta0_K")
    p.set_defaults(func=_cmd_lerch)

    p = sub.add_parser("dbar", help="residual-check a problem description file")
    common(p)
    p.add_argument("--problem", required=True,
                   help='JSON file {"f": coeffs, "u0": coeffs, "samples": [[re,im],...], "h": step}')
    p.set_defaults(func=_cmd_dbar)

    p = sub.add_parser("verify", help="run a named verification suite")
    common(p, seed=True)
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
    except _USER_ERRORS as exc:
        print(f"hfock: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"hfock: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
