"""The line reader of the witness search, checked on every sum it can read.

On the Fermat surface of degree d an atlas line has square -s, s = d - 2,
and two distinct lines meet at most once.  So a sum of at most s lines is
determined by its intersection vector: its lines are the negative entries,
and the entry for H counts them.  _lines must return every such multiset
exactly, and nothing for a class that is no such sum.
"""

from collections import Counter

import pytest

from acmcurves.classify import _lines
from acmcurves.divisors import intersections

from test_numerical_equality import plane_relations


def _read(cls):
    return _lines(cls.model, tuple(intersections(cls.model, cls.coeffs)))


def _sums(rows, first, k):
    """(multiset, vector) for every multiset of k indices >= first, the
    vector summing the rows of its indices."""
    if k == 0:
        yield (), (0,) * len(rows)
        return
    for j in range(first, len(rows)):
        for rest, vec in _sums(rows, j, k - 1):
            yield (j,) + rest, tuple(map(int.__add__, rows[j], vec))


@pytest.mark.parametrize("fixture, count", [("fermat4", 1224), ("fermat5", 76075)])
def test_every_sum_of_at_most_s_lines_reads_back(request, fixture, count):
    model = request.getfixturevalue(fixture)
    seen = 0
    for k in range(1, model.degree - 1):
        for multiset, vec in _sums(model.gram, 1, k):
            parts = _lines(model, vec)
            assert parts is not None, multiset
            # a generator class has its single 1 at the generator's index
            got = tuple((cls.coeffs.index(1), mult) for cls, mult in parts)
            assert got == tuple(sorted(Counter(multiset).items())), multiset
            seen += 1
    assert seen == count


def test_classes_that_are_no_sum_of_lines_read_as_none(fermat5):
    H = fermat5.hyperplane_class
    l1, l2, l3, l4 = (fermat5.gen_class(name) for name in fermat5.generators[1:5])
    for cls in (H, H - l1, l1 - l2, 2 * l1 - l2, l1 + l2 + l3 + l4, -l1):
        assert _read(cls) is None, str(cls)


def test_a_vector_with_the_right_count_must_still_match(fermat4):
    # degree 2, and -1 on exactly two lines, L[01|23](1,3) and L[01|23](3,0),
    # yet not their sum: only the whole vector tells
    cls = fermat4.parse("H - L[01|23](1,0) - L[01|23](3,3)")
    vec = tuple(intersections(fermat4, cls.coeffs))
    assert vec[0] == 2 and sorted(v for v in vec if v < 0) == [-1, -1]
    assert _read(cls) is None


def test_a_numerically_zero_class_reads_as_no_lines(fermat4, fermat5):
    for model in (fermat4, fermat5):
        assert _read(model.zero_class()) == ()
        z = plane_relations(model)[0]
        assert not z.is_zero() and _read(z) == ()
