"""The witness search before check_witness was split: the oracle for
search_witness.

search_witness checks the target's header once and judges each candidate
against the clause twists built then.  This module keeps the direct
definition it replaced: the whole of check_witness runs on every
candidate, and the bound is tested on each candidate's sum.
"""

from acmcurves.classify import (
    SHAPES,
    WITNESS_SPECS,
    Status,
    _candidates,
    _twist_class,
    check_witness,
)
from acmcurves.divisors import degree, genus


def search(prop_id, target, bound=None):
    spec = WITNESS_SPECS.get(prop_id)
    if spec is None:
        raise ValueError(
            f"unknown witness rule {prop_id!r}; choose from {sorted(WITNESS_SPECS)}"
        )
    model = target.model
    if model.lines is None:
        raise ValueError(f"model {model.name} has no line atlas to search")
    if model.degree != spec.surface_degree:
        return None
    if (degree(target), genus(target)) != (spec.deg, spec.genus):
        return None
    for clause in spec.clauses:
        twist = _twist_class(clause.twist, target)
        for cand in _candidates(SHAPES[clause.shape], twist):
            if bound is not None and degree(cand.total) > bound:
                continue
            if check_witness(prop_id, target, cand).status is Status.NOT_ACM:
                return cand
    return None
