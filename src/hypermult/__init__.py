"""Exact instability certificates and multiplicity classification for hypersurfaces.

A form holds its coefficients as integer numerators over one positive
denominator, frames are integer matrices, and distances, certificates and
band memberships are exact fractions.Fraction values; the hot loops run on
integers scaled once from them, so every check in the package is binary.

The package is lazy (PEP 562): `import hypermult` loads no submodule, and
a name of _EXPORTS, or one of its modules, is imported on first use.
"""

from importlib import import_module as _import

_EXPORTS = {  # module -> the public names it defines
    "forms": (
        "ExponentVector", "FormParseError", "Frame", "HomogeneousForm", "ProjPoint", "act",
        "destabilize", "destabilizing_factor", "frame_moving_to_origin", "multiplicity_at",
        "multiplicity_at_origin", "parse_form", "point_image",
    ),
    "statepoly": (
        "InstabilityCertificate", "OneParamSubgroup", "ProjectionResult", "barycenter",
        "class_rep", "mu_weight", "nearest_point", "torus_index",
    ),
    "hesselink": (
        "BandParams", "FrameFamily", "StratumLabel", "band_contains", "default_frames",
        "l_squared", "pair_minima", "pair_separation_min_N", "separation_gap",
        "separation_threshold", "worst_frame_search",
    ),
    "classifier": (
        "BandDiagnostic", "BoundCheckResult", "ClassificationReport", "FailureRecord",
        "VerifySummary", "bound_check", "classify_at", "classify_at_origin", "gen_corpus",
        "verify_theorem_main",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]  # what `from hypermult import *` bound when every module loaded
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _HOME:
        return getattr(_import(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return _import(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
