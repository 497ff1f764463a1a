"""Arithmetic of fractal dimension for polyadic Cantor sets.

Four operators (add, sub, mul, div), integer power and the dimension
differential on similarity dimensions D = ln(N)/ln(1/gamma), together with
a pre-fractal constructor and an independent box-counting estimator that
validates every operator at the set level.

Exports load lazily (PEP 562): ``import cantordim`` imports no submodule,
and each name is imported from its submodule on first access. The scalar
algebra (``core``, ``arith``, ``errors``) never loads numpy; construction,
estimation, serialization, rendering and ``BACKEND`` do.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports; the one list of the public API
_EXPORTS = {
    "_kernels_py": ("BACKEND", "available_backends"),
    "arith": (
        "OPERATORS",
        "OpResult",
        "add",
        "check_gamma_consistency",
        "d_dimension_d_scale",
        "div",
        "int_pow",
        "mul",
        "sub",
    ),
    "core": (
        "ABS_TOL",
        "LacunarityBounds",
        "ScaleResult",
        "dimension_from_scale",
        "lacunarity_bounds",
        "scale_from_dimension",
    ),
    "errors": (
        "CantorDimError",
        "CapExceeded",
        "DomainError",
        "FitDegenerate",
        "InvariantError",
        "OpDomainError",
        "ParseError",
    ),
    "estimation": (
        "BoxCountSample",
        "DimensionEstimate",
        "VerificationReport",
        "box_count",
        "estimate_dimension",
        "scale_ladder",
        "verify_operator_geometrically",
    ),
    "geometry": (
        "CantorParams",
        "IntervalSet",
        "construct_prefractal",
        "gap_widths",
        "regular_epsilon",
        "stage_one_offsets",
    ),
    "render": ("GridSheet", "emit_operator_grid", "render_stages_svg"),
    "serialize": ("export_intervals", "import_intervals"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
