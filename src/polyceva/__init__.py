"""polyceva: exact rational verification of cevian product identities.

The kernel (`geometry`) does exact planar geometry on integers, with
Fractions only as views; the engines (`ceva`, `circle`) compute the
polygon product identities and check them by exact equality; `fuzz`
generates seeded random instances; `cli` wires everything to config
files and reports.

Names load lazily (PEP 562): ``import polyceva`` imports no submodule,
and ``polyceva.X`` imports the one module that defines X on first use.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ConfigError", "DegenerateConfig", "GenerationExhausted",
        "GeometryError", "InvalidRational", "InvariantViolation",
        "MalformedJson", "Tangent",
    ),
    "geometry": (
        "Line", "Point", "are_concurrent", "as_rational", "format_rational",
        "homogeneous", "intersect_lines", "line_through", "parse_rational",
        "point_from_ratio",
    ),
    "ceva": (
        "CevaConfig", "Counterexample", "Factor", "ProductReport",
        "all_sides_product", "build_converse_counterexample", "ceva_product",
        "classic_ceva_product", "opposite_vertex_product", "side_factors",
        "sides_hit",
    ),
    "circle": (
        "InscribedConfig", "InscribedReport", "chord_telescoping_squared",
        "concurrent_secants_check", "inscribed_chord_product_squared",
        "inscribed_identity_report", "similar_triangles_relation",
    ),
    "fuzz": (
        "FuzzFailure", "FuzzReport", "GenParams", "fuzz_ceva",
        "fuzz_inscribed", "gen_ceva_config", "gen_inscribed_config",
    ),
}

# The module that defines each exported name; the submodules listed
# here (configio too) are exported as well.
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "configio")

__version__ = "0.1.0"

__all__ = sorted([*_SUBMODULES, *_OWNER])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
