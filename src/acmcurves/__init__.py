"""Exact divisor-class workbench for curves on low-degree hypersurfaces in P^3.

Core pieces: exact cyclotomic arithmetic, projective line geometry with
Plücker incidence, surface lattice models (Fermat atlases and
builtin lattices), divisor-class calculus, and the aCM classification
verdict engine with witness search and a worked-example reproduction suite.
"""

from .cyclo import CycNum, OrderError, rational, zeta
from .geometry import Incidence, Line, line_on_fermat, lines_meet
from .surfaces import SurfaceModel, builtin_model, fermat_model, load_model, model_validate
from .divisors import (
    Decomposition,
    DivClass,
    HVector,
    NonIntegralError,
    certify_effective,
    chi,
    deg1_effectivity_test,
    degree,
    genus,
    genus_of_sum,
    hvector_invariants,
    is_m_connected,
    k_invariant,
    link,
    pair,
)
from .classify import (
    Status,
    Verdict,
    check_witness,
    classify_numeric,
    nonacm_exists,
    search_witness,
)
from .repro import run_example, verify_all

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "Decomposition",
    "DivClass",
    "HVector",
    "Incidence",
    "Line",
    "NonIntegralError",
    "OrderError",
    "Status",
    "SurfaceModel",
    "Verdict",
    "builtin_model",
    "certify_effective",
    "check_witness",
    "chi",
    "classify_numeric",
    "deg1_effectivity_test",
    "degree",
    "fermat_model",
    "genus",
    "genus_of_sum",
    "hvector_invariants",
    "is_m_connected",
    "k_invariant",
    "line_on_fermat",
    "lines_meet",
    "link",
    "load_model",
    "model_validate",
    "nonacm_exists",
    "pair",
    "rational",
    "run_example",
    "search_witness",
    "verify_all",
    "zeta",
]
