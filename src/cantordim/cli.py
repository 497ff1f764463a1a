"""Command-line surface. Thin shell over the library: no computation here.

Exit codes: 0 success, 1 domain/runtime errors (and failed verifications),
2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# only the scalar modules load here; the commands that need numpy import
# their modules when they run
from .arith import OPERATORS, d_dimension_d_scale, int_pow
from .core import dimension_from_scale, lacunarity_bounds, scale_from_dimension
from .errors import CantorDimError


def _fmt(value: float, digits: int) -> str:
    return format(value, f".{digits}g")


def _digits(text: str) -> int:
    """A --digits value: 1 to 17 significant digits (17 round-trip binary64)."""
    digits = int(text) if text.isdecimal() else 0
    if not 1 <= digits <= 17:
        raise argparse.ArgumentTypeError(f"expected an integer from 1 to 17, got {text!r}")
    return digits


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _cmd_dim(args) -> int:
    print(f"D = {_fmt(dimension_from_scale(args.n, args.gamma), args.digits)}")
    return 0


def _cmd_scale(args) -> int:
    gamma, underflow = scale_from_dimension(args.n, args.d)
    print(f"gamma = {_fmt(gamma, args.digits)}")
    if underflow:
        print("note: gamma underflows binary64; reported as 0")
    return 0


def _print_result(result, digits: int) -> int:
    print(f"D_C = {_fmt(result.d, digits)}")
    print(f"gamma_C = {_fmt(result.gamma, digits)}")
    if result.underflow:
        what = "D_C and gamma_C underflow" if result.d == 0.0 else "gamma_C underflows"
        print(f"note: {what} binary64; reported as 0")
    return 0


def _cmd_op(args) -> int:
    return _print_result(OPERATORS[args.operator](args.da, args.db, args.n), args.digits)


def _cmd_pow(args) -> int:
    return _print_result(int_pow(args.da, args.k, args.n), args.digits)


def _cmd_ddgamma(args) -> int:
    print(f"dD/dgamma = {_fmt(d_dimension_d_scale(args.n, args.gamma), args.digits)}")
    return 0


def _cmd_bounds(args) -> int:
    b = lacunarity_bounds(args.n, args.gamma)
    d = args.digits
    print(f"eps_min={_fmt(b.eps_min, d)} eps_reg={_fmt(b.eps_reg, d)} eps_max={_fmt(b.eps_max, d)}")
    return 0


def _cmd_construct(args) -> int:
    from .geometry import CantorParams, construct_prefractal
    from .render import render_stages_svg
    from .serialize import export_intervals

    params = CantorParams(args.n, args.gamma, args.eps, args.stage)
    if args.format == "svg":
        _write(render_stages_svg(params, max_stage=args.stage), args.out)
    else:
        _write(export_intervals(construct_prefractal(params), args.format), args.out)
    return 0


def _cmd_estimate(args) -> int:
    from .estimation import estimate_dimension, scale_ladder
    from .serialize import import_intervals

    data = Path(args.infile).read_bytes()  # import_intervals decodes it
    fmt = args.format
    if fmt == "auto":
        fmt = "json" if data.lstrip().startswith(b"{") else "csv"
    intervals = import_intervals(data, fmt)
    deltas = args.deltas
    if deltas is None and args.per_level > 1:
        if intervals.params is None:
            raise CantorDimError("--per-level needs construction parameters in the document")
        deltas = scale_ladder(intervals.params.gamma, intervals.params.stage, args.per_level)
    est = estimate_dimension(intervals, deltas)
    print(f"d_hat = {_fmt(est.d_hat, args.digits)}")
    print(f"stderr = {_fmt(est.stderr, args.digits)}")
    return 0


def _cmd_verify(args) -> int:
    from .estimation import verify_operator_geometrically

    report = verify_operator_geometrically(
        args.operator, args.da, args.db, args.n, args.stage, args.tol
    )
    print(report)
    return 1 if report.status == "fail" else 0


def _cmd_grid(args) -> int:
    from .render import emit_operator_grid

    _, csv_text = emit_operator_grid(args.operator, args.res, args.n)
    _write(csv_text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantordim",
        description="Arithmetic of fractal dimension for polyadic Cantor sets",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--digits", type=_digits, default=12,
        help="significant digits for display, 1 to 17 (default 12)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common], help="similarity dimension from (n, gamma)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("scale", parents=[common], help="scale factor from (n, D)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("op", parents=[common], help="apply a dimension operator")
    p.add_argument("operator", choices=sorted(OPERATORS))
    p.add_argument("--da", type=float, required=True)
    p.add_argument("--db", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("pow", parents=[common], help="integer power of a dimension")
    p.add_argument("--da", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("ddgamma", parents=[common], help="derivative dD/dgamma")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_ddgamma)

    p = sub.add_parser("bounds", parents=[common], help="lacunarity bounds for (n, gamma)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", parents=[common], help="build and export a stage-S set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("estimate", parents=[common], help="box-counting dimension of a saved set")
    p.add_argument("--in", dest="infile", required=True, help="JSON or CSV document")
    p.add_argument("--format", choices=("auto", "json", "csv"), default="auto")
    p.add_argument("--deltas", type=float, nargs="+", default=None)
    p.add_argument(
        "--per-level", type=int, default=1,
        help="box sizes per construction level when using the default ladder",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify", parents=[common], help="check an operator against box counting")
    p.add_argument("--op", dest="operator", choices=sorted(OPERATORS), required=True)
    p.add_argument("--da", type=float, required=True)
    p.add_argument("--db", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stage", type=int, default=6)
    p.add_argument("--tol", type=float, default=0.05, help="relative tolerance on D_C")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("grid", parents=[common], help="operator surface as a da,db,dc CSV")
    p.add_argument("--op", dest="operator", choices=sorted(OPERATORS), required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_grid)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CantorDimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
