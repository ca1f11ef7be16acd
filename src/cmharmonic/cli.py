"""Command-line frontend: construction, checking, certification, curve export.

Exit codes are total: 0 = holds/certified, 1 = violated, 2 = malformed input
or inconclusive.  Every number prints with 17 significant digits, so output
round-trips and repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .harmonic import (
    certify_qc_boundary_limit,
    certify_qc_grid,
    certify_qc_ratio_sup,
    check_modulus_bound,
    check_partial_signs,
    derivative_ratio_sup,
    map_from_dict,
    shifted,
)
from .measures import measure_from_dict
from .moments import MomentSequence, is_completely_monotone
from .special import certify_hypergeom_map, certify_polylog_map
from .transforms import CauchyTransform, GridSpec

PROG = "cmh"


# -- deterministic serialization ----------------------------------------------


def _fmt_num(x):
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _json(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_num(obj)
    if isinstance(obj, complex):
        return _json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    if hasattr(obj, "to_dict"):
        return _json(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text, out_path=None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _grid_from(args):
    kwargs = {}
    if getattr(args, "rmax", None) is not None:
        kwargs["rmax"] = args.rmax
    if getattr(args, "nr", None) is not None:
        kwargs["nr"] = args.nr
    if getattr(args, "ntheta", None) is not None:
        kwargs["ntheta"] = args.ntheta
    rect = getattr(args, "rect", None)
    if rect is not None:
        parts = [p for p in rect.split(",") if p]
        if len(parts) not in (4, 6):
            raise ValueError('--rect wants "xmin,xmax,ymin,ymax[,nx,ny]"')
        kwargs.update(
            xmin=float(parts[0]), xmax=float(parts[1]),
            ymin=float(parts[2]), ymax=float(parts[3]),
        )
        if len(parts) == 6:
            kwargs.update(nx=int(parts[4]), ny=int(parts[5]))
    return GridSpec(**kwargs)


def _add_grid_flags(p):
    p.add_argument("--rmax", "--grid-r", dest="rmax", type=float, help="outer disk radius")
    p.add_argument("--nr", "--grid-n", dest="nr", type=int, help="radial node count")
    p.add_argument("--ntheta", dest="ntheta", type=int, help="angular node count")
    p.add_argument("--rect", help='half-plane rectangle "xmin,xmax,ymin,ymax[,nx,ny]"')


# -- subcommands ----------------------------------------------------------------


def cmd_check_cm(args):
    data = _load_json(args.path)
    if not isinstance(data, list) or not data or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
    ):
        print("error: input must be a non-empty JSON array of numbers", file=sys.stderr)
        return 2
    verdict = is_completely_monotone(MomentSequence(data), tol=args.tol)
    _emit(_json(verdict) + "\n", args.out)
    return 0 if verdict.holds else 1


def cmd_moments(args):
    vals = measure_from_dict(_load_json(args.path)).moments(args.count)
    if args.format == "csv":
        rows = ["n,value"] + [f"{n},{_fmt_num(v)}" for n, v in enumerate(vals)]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(_json(vals) + "\n", args.out)
    return 0


def _map_or_transform(spec):
    if isinstance(spec, dict) and {"h", "g", "c"} <= set(spec):
        return map_from_dict(spec), "map"
    return CauchyTransform(measure_from_dict(spec)), "transform"


def cmd_eval(args):
    obj, kind = _map_or_transform(_load_json(args.path))
    z = complex(args.z)
    val = obj.eval(z, tol=args.tol)
    out = {"kind": kind, "z_re": z.real, "z_im": z.imag, "re": val.real, "im": val.imag}
    _emit(_json(out) + "\n", args.out)
    return 0


def cmd_dilatation(args):
    f = map_from_dict(_load_json(args.path))
    z = complex(args.z)
    w = f.dilatation(z)
    out = {"z_re": z.real, "z_im": z.imag, "re": w.real, "im": w.imag, "abs": abs(w)}
    _emit(_json(out) + "\n", args.out)
    return 0


_EXIT_BY_STATUS = {"certified": 0, "violated": 1, "inconclusive": 2}


def _floats(spec, *names):
    return [float(spec[name]) for name in names]


def _certify_boundary_limit(f, k):
    return certify_qc_boundary_limit(f.h, f.g, f.c, k)


# method name -> certifier of (spec, k, grid); the first entry is the default
_CERTIFIERS = {
    "grid": lambda spec, k, grid: certify_qc_grid(map_from_dict(spec), k, grid=grid),
    "thm1.6": lambda spec, k, grid: certify_qc_ratio_sup(map_from_dict(spec), k, grid=grid),
    "thm1.7": lambda spec, k, grid: certify_polylog_map(*_floats(spec, "alpha", "beta", "c"), k, grid=grid),
    "thm1.9": lambda spec, k, grid: _certify_boundary_limit(map_from_dict(spec), k),
    "hyp": lambda spec, k, grid: certify_hypergeom_map(*_floats(spec, "a", "c", "a2", "c2", "b"), k, grid=grid),
}


def cmd_certify(args):
    cert = _CERTIFIERS[args.method](_load_json(args.path), args.k, _grid_from(args))
    _emit(_json(cert) + "\n", args.out)
    return _EXIT_BY_STATUS[cert.status]


def cmd_verify_thm(args):
    f = map_from_dict(_load_json(args.path))
    grid = _grid_from(args)
    if args.which == "1.2":
        report = check_modulus_bound(f, a=args.a, samples=grid.disk_points())
    else:
        report = check_partial_signs(f, grid=grid)
    _emit(_json(report) + "\n", args.out)
    return 0 if report.passed else 1


def cmd_ratio_sup(args):
    h = shifted(measure_from_dict(_load_json(args.path)))
    grid = _grid_from(args)
    sup = derivative_ratio_sup(h, grid=grid, nt=args.nt)
    out = {"sup_estimate": sup, "rmax": grid.rmax, "nr": grid.nr, "ntheta": grid.ntheta, "nt": args.nt}
    _emit(_json(out) + "\n", args.out)
    return 0


def cmd_render(args):
    f = map_from_dict(_load_json(args.path))
    if args.curve == "circle":
        center = complex(*(float(v) for v in args.center.split(",")))
        params = np.linspace(args.theta0, args.theta1, args.n)
        zs = center + args.r * np.exp(1j * params)
    else:
        params = np.linspace(args.x0, args.x1, args.n)
        zs = params + 1j * args.y
    if np.any(np.abs(zs) > 1.0 - 1e-9):
        print("error: curve exits the unit disk", file=sys.stderr)
        return 2
    vals = f.values(zs)
    rows = ["param,re_z,im_z,re_f,im_f"]
    for p, z, v in zip(params, zs, vals):
        rows.append(
            f"{_fmt_num(p)},{_fmt_num(z.real)},{_fmt_num(z.imag)},{_fmt_num(v.real)},{_fmt_num(v.imag)}"
        )
    _emit("\n".join(rows) + "\n", args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Moment-sequence calculus, transform diagnostics and "
        "quasiconformality certificates for harmonic mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cm", help="scan a JSON array for complete monotonicity")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-9, help="nonnegativity slack")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_cm)

    p = sub.add_parser("moments", help="moments of a measure spec")
    p.add_argument("path")
    p.add_argument("--count", "-n", type=int, default=8)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("eval", help="evaluate a map spec or measure transform at z")
    p.add_argument("path")
    p.add_argument("--z", required=True, help='complex point, e.g. "0.5+0.2j"')
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dilatation", help="second complex dilatation of a map at z")
    p.add_argument("path")
    p.add_argument("--z", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dilatation)

    p = sub.add_parser("certify", help="issue a quasiconformality certificate")
    p.add_argument("path", help="map spec or parameter spec (JSON)")
    p.add_argument("--method", choices=list(_CERTIFIERS), default=next(iter(_CERTIFIERS)))
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--out")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-thm", help="sample-check the pointwise inequalities")
    p.add_argument("which", choices=["1.2", "1.3"])
    p.add_argument("path")
    p.add_argument("--a", type=float, default=None, help="shift constant (1.2 only)")
    p.add_argument("--out")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_verify_thm)

    p = sub.add_parser("ratio-sup", help="grid sup of |h'(tz)/h'(z)| for a measure spec")
    p.add_argument("path")
    p.add_argument("--nt", type=int, default=11)
    p.add_argument("--out")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_ratio_sup)

    p = sub.add_parser("render", help="CSV image points of a map along a curve")
    p.add_argument("path")
    p.add_argument("--curve", choices=["circle", "segment"], required=True)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--center", default="0,0", help='circle center "re,im"')
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--theta1", type=float, default=2.0 * math.pi)
    p.add_argument("--x0", type=float, default=-0.9)
    p.add_argument("--x1", type=float, default=0.9)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    return parser


def _attach_rect_values(argv):
    """Rewrite ``--rect VALUE`` as ``--rect=VALUE`` when VALUE starts with a minus sign.

    argparse takes a token that starts with "-" for an option unless it
    reads as a single negative number, which "-3,0.99,0.01,3" does not; the
    default rectangle itself starts at x = -3.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        value = argv[i + 1]
        if argv[i] == "--rect" and value[:1] == "-" and value[1:2] in set("0123456789."):
            argv[i : i + 2] = [f"--rect={value}"]
    return argv


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_rect_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:  # exit codes are total: anything malformed is a 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
