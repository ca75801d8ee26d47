"""Exact Lie-algebraic and numerical analysis of isochronous centers of
planar polynomial vector fields in complex representation.

The names below load their module on first use (PEP 562), so importing the
package, or one command of the CLI, loads no layer that it does not run.
"""

from importlib import import_module

_MODULE_OF = {  # exported name -> the submodule that defines it
    "Alphabet": "prepared",
    "BiPoly": "algebra",
    "ConditionVerdict": "conditions",
    "Derivation": "operators",
    "GaussianRational": "algebra",
    "GeomComplexity": "conditions",
    "InputError": "errors",
    "InternalInconsistencyError": "errors",
    "LINEARISABLE_STRUCTURAL": "lie_analysis",
    "Mould": "prenormal",
    "NonPeriodicError": "errors",
    "PeriodScan": "numverify",
    "PlanarField": "prepared",
    "RealSystem": "numverify",
    "ResonanceReport": "lie_analysis",
    "SeriesReport": "lie_analysis",
    "UNKNOWN": "lie_analysis",
    "bracket_oracle": "operators",
    "central_series": "lie_analysis",
    "check_cauchy_riemann": "conditions",
    "check_uniform": "conditions",
    "classify_quadratic": "conditions",
    "decompose": "prepared",
    "enumerate_resonant_words": "lie_analysis",
    "geometric_complexity": "conditions",
    "homogeneous_uniform_verdict": "conditions",
    "indicator_mould": "prenormal",
    "isochrony_scan": "numverify",
    "lie_bracket": "operators",
    "measure_period": "numverify",
    "nested_bracket": "operators",
    "projection_sum": "prenormal",
    "random_mould": "prenormal",
    "reconstruct": "prepared",
    "resonant_subset_trivial": "lie_analysis",
    "structural_linearisability": "lie_analysis",
    "table_mould": "prenormal",
    "to_real_system": "numverify",
    "verify_fond3": "prenormal",
    "weight": "prepared",
    "word_str": "operators",
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
