"""The Fermat automorphisms (0 1), (0 1 2 3) and x0 -> zeta*x0 as an oracle.

Each generator maps the Fermat surface x0^d + x1^d + x2^d + x3^d = 0 to
itself, zeta being a d-th root of unity, so it permutes the lines of the
atlas and fixes the plane section H.  Acting on a line's canonical rows,
it gives a line that SurfaceModel.atlas_class must find (by Line ==).  The
induced map on the generators must then be a bijection that fixes H and
preserves the Gram, and a witness target moved by it must get a witness
under the same rule as the target itself.
"""

import functools

import pytest

from acmcurves.classify import Status, check_witness, search_witness
from acmcurves.cyclo import zeta
from acmcurves.geometry import Line
from acmcurves.surfaces import _line_name, fermat_model

from witness_targets import TARGETS


def _swap01(form, d):
    return (form[1], form[0], form[2], form[3])


def _cycle0123(form, d):
    return (form[3], form[0], form[1], form[2])


def _scale_x0(form, d):
    return (form[0] * zeta(d), form[1], form[2], form[3])


GENERATORS = (_swap01, _cycle0123, _scale_x0)


@functools.cache
def _generator_map(d, act):
    """The images of the generators' indices of fermat_model(d): H to H, and
    line i to the index of the atlas line act maps it to."""
    model = fermat_model(d)
    perm = [0]
    for line in model.lines:
        image = Line(*(act(row, d) for row in line.rows))
        perm.append(model.atlas_class(image).coeffs.index(1))
    return perm


def _moved(cls, perm):
    coeffs = [0] * cls.model.ngens
    for i, c in enumerate(cls.coeffs):
        coeffs[perm[i]] = c
    return cls.model.class_of(coeffs)


@pytest.mark.parametrize("d", (4, 5))
@pytest.mark.parametrize("act", GENERATORS, ids=lambda act: act.__name__.lstrip("_"))
def test_generators_permute_the_atlas_and_keep_the_gram(d, act):
    model = fermat_model(d)
    perm = _generator_map(d, act)
    assert sorted(perm) == list(range(model.ngens))
    gram = model.gram
    assert all(
        gram[perm[i]][perm[j]] == gram[i][j]
        for i in range(model.ngens) for j in range(model.ngens)
    )
    # the d lines of the plane x0 + alpha*x1 = 0 sum to H, and so do their images
    plane = [model.gen_class(_line_name((0, 1, 2, 3), 0, b)) for b in range(d)]
    assert sum(plane, model.zero_class()) == model.hyperplane_class
    assert sum((_moved(c, perm) for c in plane), model.zero_class()) == model.hyperplane_class
    # at least one line moves, so the check is not that of the identity
    assert perm != list(range(model.ngens))


@pytest.mark.parametrize("prop", sorted(TARGETS))
def test_moved_targets_keep_their_witness_rule(prop):
    model_name, text = TARGETS[prop]
    model = fermat_model(int(model_name[-1]))
    target = model.parse(text)
    rule = check_witness(prop, target, search_witness(prop, target)).rule
    for act in GENERATORS:
        moved = _moved(target, _generator_map(model.degree, act))
        witness = search_witness(prop, moved)
        assert witness is not None, act.__name__
        verdict = check_witness(prop, moved, witness)
        assert (verdict.status, verdict.rule) == (Status.NOT_ACM, rule), act.__name__
