"""Exact Lie-algebraic and numerical analysis of isochronous centers of
planar polynomial vector fields in complex representation."""

from .algebra import BiPoly, GaussianRational
from .conditions import (
    ConditionVerdict,
    GeomComplexity,
    check_cauchy_riemann,
    check_uniform,
    classify_quadratic,
    geometric_complexity,
    homogeneous_uniform_verdict,
)
from .errors import InputError, InternalInconsistencyError, NonPeriodicError
from .lie_analysis import (
    ResonanceReport,
    SeriesReport,
    central_series,
    cr_structural_predicate,
    enumerate_resonant_words,
    resonant_subset_trivial,
)
from .numverify import PeriodScan, RealSystem, isochrony_scan, measure_period, to_real_system
from .operators import (
    Derivation,
    bracket_oracle,
    hom_op,
    lie_bracket,
    nested_bracket,
    word_str,
)
from .prenormal import (
    LINEARISABLE_STRUCTURAL,
    UNKNOWN,
    Mould,
    indicator_mould,
    projection_sum,
    random_mould,
    structural_linearisability,
    table_mould,
    verify_fond3,
)
from .prepared import Alphabet, PlanarField, decompose, reconstruct, weight

__all__ = [
    "Alphabet",
    "BiPoly",
    "ConditionVerdict",
    "Derivation",
    "GaussianRational",
    "GeomComplexity",
    "InputError",
    "InternalInconsistencyError",
    "LINEARISABLE_STRUCTURAL",
    "Mould",
    "NonPeriodicError",
    "PeriodScan",
    "PlanarField",
    "RealSystem",
    "ResonanceReport",
    "SeriesReport",
    "UNKNOWN",
    "bracket_oracle",
    "central_series",
    "check_cauchy_riemann",
    "check_uniform",
    "classify_quadratic",
    "cr_structural_predicate",
    "decompose",
    "enumerate_resonant_words",
    "geometric_complexity",
    "hom_op",
    "homogeneous_uniform_verdict",
    "indicator_mould",
    "isochrony_scan",
    "lie_bracket",
    "measure_period",
    "nested_bracket",
    "projection_sum",
    "random_mould",
    "reconstruct",
    "resonant_subset_trivial",
    "structural_linearisability",
    "table_mould",
    "to_real_system",
    "verify_fond3",
    "weight",
    "word_str",
]
