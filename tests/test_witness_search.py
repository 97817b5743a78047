"""search_witness against the search it replaced, and its one header.

The oracle in search_oracle.py runs check_witness on every candidate and
tests the bound on each candidate's sum; search_witness checks the header
once and skips a clause whose twist has degree above the bound.  Both must
find the same witness, written alike, for every rule on every documented
target, its liaison and the rewritten P4.7 target.
"""

import pytest

from acmcurves import classify
from acmcurves.classify import WITNESS_SPECS, search_witness
from acmcurves.divisors import link
from acmcurves.surfaces import builtin_model

from search_oracle import search
from test_numerical_equality import README_P47, plane_relations
from witness_targets import TARGETS

BOUNDS = (None, *range(8))


def _classes(fermat4, fermat5):
    models = {"fermat4": fermat4, "fermat5": fermat5}
    out = []
    for model_name, text in TARGETS.values():
        target = models[model_name].parse(text)
        out += [target, link(target, 3)]
    return out + [fermat5.parse(README_P47) + plane_relations(fermat5)[0]]


@pytest.mark.parametrize("prop", sorted(WITNESS_SPECS))
def test_search_matches_the_oracle(fermat4, fermat5, prop):
    found = 0
    for cls in _classes(fermat4, fermat5):
        for bound in BOUNDS:
            got, want = search_witness(prop, cls, bound), search(prop, cls, bound)
            assert got == want and str(got) == str(want), (str(cls), bound)
            found += got is not None
    assert found  # every rule finds its documented witness under some bound


@pytest.mark.parametrize("prop, model", [
    ("P9.9", "generic_quintic"),  # unknown rule before the atlas
    ("P4.6", "generic_quintic"),  # no atlas, header fits
    ("P2.2", "generic_quintic"),  # no atlas before the header mismatch
])
def test_errors_keep_their_order(prop, model):
    target = builtin_model(model).hyperplane_class
    with pytest.raises(ValueError) as want:
        search(prop, target)
    with pytest.raises(ValueError) as got:
        search_witness(prop, target)
    assert str(got.value) == str(want.value)


def test_search_derives_the_header_once(monkeypatch, fermat4, fermat5):
    headers = []
    header = classify._header

    def counted(*args):
        headers.append(args)
        return header(*args)

    def refuse(*args):
        raise AssertionError("search_witness called check_witness")

    monkeypatch.setattr(classify, "_header", counted)
    monkeypatch.setattr(classify, "check_witness", refuse)
    calls = 0
    for prop in sorted(WITNESS_SPECS):
        for cls in _classes(fermat4, fermat5):
            for bound in (None, 3):
                search_witness(prop, cls, bound)
                calls += 1
                assert len(headers) == calls
