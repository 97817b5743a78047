"""Exact divisor-class workbench for curves on low-degree hypersurfaces in P^3.

Core pieces: exact cyclotomic arithmetic, projective line geometry with
Plücker incidence, surface lattice models (Fermat atlases and
builtin lattices), divisor-class calculus, and the aCM classification
verdict engine with witness search and a worked-example reproduction suite.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports; a name imports its module on first use
_EXPORTS = {
    "cyclo": ("CycNum", "OrderError", "rational", "zeta"),
    "geometry": ("Incidence", "Line", "line_on_fermat", "lines_meet"),
    "surfaces": ("SurfaceModel", "builtin_model", "fermat_model", "load_model", "model_validate"),
    "divisors": ("Decomposition", "DivClass", "HVector", "NonIntegralError", "certify_effective",
                 "chi", "deg1_effectivity_test", "degree", "genus", "genus_of_sum",
                 "hvector_invariants", "is_m_connected", "k_invariant", "link", "pair"),
    "classify": ("Status", "Verdict", "check_witness", "classify_numeric", "nonacm_exists",
                 "search_witness"),
    "repro": ("run_example", "verify_all"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value
