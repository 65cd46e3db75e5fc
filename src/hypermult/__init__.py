"""Exact instability certificates and multiplicity classification for hypersurfaces.

A form holds its coefficients as integer numerators over one positive
denominator, frames are integer matrices, and distances, certificates and
band memberships are exact fractions.Fraction values; the hot loops run on
integers scaled once from them, so every check in the package is binary.
"""

from .forms import (
    ExponentVector,
    FormParseError,
    Frame,
    HomogeneousForm,
    ProjPoint,
    act,
    destabilize,
    destabilizing_factor,
    frame_moving_to_origin,
    multiplicity_at,
    multiplicity_at_origin,
    parse_form,
    point_image,
)
from .statepoly import (
    InstabilityCertificate,
    OneParamSubgroup,
    ProjectionResult,
    barycenter,
    class_rep,
    mu_weight,
    nearest_point,
    torus_index,
)
from .hesselink import (
    BandParams,
    StratumLabel,
    band_contains,
    default_frames,
    l_squared,
    pair_minima,
    pair_separation_min_N,
    separation_gap,
    separation_threshold,
    worst_frame_search,
)
from .classifier import (
    BandDiagnostic,
    BoundCheckResult,
    ClassificationReport,
    FailureRecord,
    VerifySummary,
    bound_check,
    classify_at,
    classify_at_origin,
    gen_corpus,
    verify_theorem_main,
)

__version__ = "0.1.0"
