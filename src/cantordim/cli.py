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

    params = CantorParams(args.n, args.gamma, args.eps, args.stage)
    if args.format == "svg":
        from .render import render_stages_svg

        _write(render_stages_svg(params, max_stage=args.stage), args.out)
    else:
        from .serialize import export_intervals

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
    deltas, p = args.deltas, intervals.params
    if deltas is None and p is not None:
        deltas = scale_ladder(p.gamma, p.stage, 1 if args.per_level is None else args.per_level)
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


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the commands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantordim",
        description="Arithmetic of fractal dimension for polyadic Cantor sets",
    )
    digits = _option(
        "--digits", type=_digits, default=12,
        help="significant digits for display, 1 to 17 (default 12)",
    )
    n = _option("--n", type=int, required=True)
    gamma = _option("--gamma", type=float, required=True)
    da = _option("--da", type=float, required=True)
    db = _option("--db", type=float, required=True)
    op = _option("--op", dest="operator", choices=sorted(OPERATORS), required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, parents=[digits, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    command("dim", _cmd_dim, "similarity dimension from (n, gamma)", n, gamma)
    p = command("scale", _cmd_scale, "scale factor from (n, D)", n)
    p.add_argument("--d", type=float, required=True)
    p = command("op", _cmd_op, "apply a dimension operator", da, db, n)
    p.add_argument("operator", choices=sorted(OPERATORS))
    p = command("pow", _cmd_pow, "integer power of a dimension", da, n)
    p.add_argument("--k", type=int, required=True)
    command("ddgamma", _cmd_ddgamma, "derivative dD/dgamma", n, gamma)
    command("bounds", _cmd_bounds, "lacunarity bounds for (n, gamma)", n, gamma)

    p = command("construct", _cmd_construct, "build and export a stage-S set", n, gamma)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = command("estimate", _cmd_estimate, "box-counting dimension of a saved set")
    p.add_argument("--in", dest="infile", required=True, help="JSON or CSV document")
    p.add_argument("--format", choices=("auto", "json", "csv"), default="auto")
    # --deltas or --per-level, not both; --per-level's default of 1 is applied
    # in _cmd_estimate, since argparse lets a given value pass the exclusion
    # when it is the default object itself (as a parsed small int can be)
    ladder = p.add_mutually_exclusive_group()
    ladder.add_argument("--deltas", type=float, nargs="+", default=None)
    ladder.add_argument(
        "--per-level", type=int, default=None,
        help="box sizes per construction level, 1 to 10000, in place of --deltas "
        "(needs construction parameters in the document; default 1)",
    )

    p = command("verify", _cmd_verify, "check an operator against box counting", op, da, db, n)
    p.add_argument("--stage", type=int, default=6)
    p.add_argument("--tol", type=float, default=0.05, help="relative tolerance on D_C")

    p = command("grid", _cmd_grid, "operator surface as a da,db,dc CSV", op, n)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--out", default=None)

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
