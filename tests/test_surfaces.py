"""Surface models: Fermat atlases, builtin lattices, validation."""

import gc
import inspect
import json
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmcurves import repro, surfaces
from acmcurves.divisors import DivClass, chi, degree, genus, pair
from acmcurves.geometry import Incidence, Line, line_on_fermat, lines_meet
from acmcurves.surfaces import (
    BUILTIN_NAMES,
    MAX_CUSTOM_ENTRY,
    MAX_CUSTOM_GENERATORS,
    SurfaceError,
    SurfaceModel,
    build_fermat_model,
    builtin_model,
    load_model,
    model_validate,
    named_model,
)

from signature_oracle import signature


def test_atlas_counts(fermat5, fermat4):
    # 3 pairings x d parameter choices for each of the two forms
    assert len(fermat5.lines) == 3 * 5 * 5 == 75
    assert len(fermat4.lines) == 3 * 4 * 4 == 48
    assert fermat5.ngens == 76
    assert fermat4.ngens == 49


def test_every_atlas_line_lies_on_the_surface(fermat5, fermat4):
    for model, d in ((fermat5, 5), (fermat4, 4)):
        for line in model.lines:
            assert line_on_fermat(line, d)


def test_atlas_lines_are_distinct(fermat5):
    lines = fermat5.lines
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            assert lines[i] != lines[j]


def test_duplicated_atlas_line_aborts_construction(monkeypatch):
    # every line of the third pairing comes out as L[03|12](0,1)
    standard = surfaces._standard_line

    def duplicating(d, pairing, a, b):
        if pairing == (0, 3, 1, 2):
            a, b = 0, 1
        return standard(d, pairing, a, b)

    monkeypatch.setattr(surfaces, "_standard_line", duplicating)
    message = "atlas lines L[03|12](0,0) and L[03|12](0,1) coincide"
    with pytest.raises(SurfaceError, match=re.escape(message)):
        build_fermat_model(4)


def test_gram_diagonal_and_hyperplane_row(fermat5, fermat4):
    for model, d in ((fermat5, 5), (fermat4, 4)):
        assert model.gram[0][0] == d
        for i in range(1, model.ngens):
            assert model.gram[0][i] == 1
            assert model.gram[i][i] == 2 - d


def test_gram_matches_geometric_incidence(fermat5):
    # spot-check a band of pairs against the determinant oracle
    lines = fermat5.lines
    for i in range(0, 30):
        for j in range(i + 1, min(i + 12, 75)):
            expected = 0 if lines_meet(lines[i], lines[j]) is Incidence.SKEW else 1
            assert fermat5.gram[1 + i][1 + j] == expected
            assert fermat5.gram[1 + j][1 + i] == expected


def test_gram_skew_pair_of_the_quintic_example(fermat5):
    i = fermat5.index("L[01|23](0,0)")
    j = fermat5.index("L[02|13](0,1)")
    assert fermat5.gram[i][j] == 0


def test_deterministic_reenumeration(fermat5):
    rebuilt = build_fermat_model(5)
    assert rebuilt.generators == fermat5.generators
    assert rebuilt.gram == fermat5.gram
    assert rebuilt.lines == fermat5.lines


def test_fermat_rejects_other_degrees():
    with pytest.raises(SurfaceError):
        build_fermat_model(3)
    with pytest.raises(SurfaceError):
        build_fermat_model(6)


def test_atlas_lookup_roundtrip(fermat5):
    name = "L[03|12](4,0)"
    line = fermat5.line_named(name)
    cls = fermat5.atlas_class(line)
    assert cls == fermat5.gen_class(name)


def test_atlas_lookup_refuses_a_line_off_the_atlas(fermat5):
    line = Line((1, 0, 0, 0), (0, 1, 0, 0))  # x0 = x1 = 0, not on the quintic
    with pytest.raises(SurfaceError, match=r"line x0 ; x1 is not in the atlas of fermat5"):
        fermat5.atlas_class(line)


def test_builtin_quadric():
    m = builtin_model("quadric")
    assert m.gram == ((0, 1), (1, 0))
    H = m.hyperplane_class
    dt = H + 2 * m.gen_class("L2")
    assert pair(H, dt) == 4
    assert genus(dt) == 0
    assert pair(m.gen_class("L1"), m.gen_class("L2")) == 1


def test_builtin_cubic():
    m = builtin_model("cubic_delpezzo")
    H = m.hyperplane_class
    dt = H + m.gen_class("E1") + m.gen_class("E2")
    assert pair(H, dt) == 5
    assert genus(dt) == 1
    # K = -H on the cubic
    assert m.canonical_class == -1 * H


def test_builtin_generic():
    for name, d in (("generic_quartic", 4), ("generic_quintic", 5)):
        m = builtin_model(name)
        assert m.ngens == 1
        assert m.gram[0][0] == d
        assert m.chi0 == (2 if d == 4 else 5)


def test_builtin_unknown_name():
    with pytest.raises(SurfaceError):
        builtin_model("septic")


_DEL_PEZZO_GRAM = ((1, 0, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0, 0),
                   (0, 0, 0, -1, 0, 0, 0), (0, 0, 0, 0, -1, 0, 0), (0, 0, 0, 0, 0, -1, 0),
                   (0, 0, 0, 0, 0, 0, -1))


# every field, gen_genus included, which `model show` does not print
@pytest.mark.parametrize("build, fields", [
    (lambda: builtin_model("quadric"),
     ("quadric", "quadric", 2, ("L1", "L2"), ((0, 1), (1, 0)), (1, 1), (-2, -2), 1, (0, 0), None)),
    (lambda: builtin_model("cubic_delpezzo"),
     ("cubic_delpezzo", "cubic_delpezzo", 3, ("l", "E1", "E2", "E3", "E4", "E5", "E6"),
      _DEL_PEZZO_GRAM, (3, -1, -1, -1, -1, -1, -1), (-3, 1, 1, 1, 1, 1, 1), 1, (0,) * 7, None)),
    (lambda: builtin_model("generic_quartic"),
     ("generic_quartic", "generic", 4, ("H",), ((4,),), (1,), (0,), 2, (3,), None)),
    (lambda: builtin_model("generic_quintic"),
     ("generic_quintic", "generic", 5, ("H",), ((5,),), (1,), (1,), 5, (6,), None)),
    (lambda: repro._quintic_span_model(5, 1),
     ("quintic-span(deg5,genus1)", "custom", 5, ("H", "Dt"), ((5, 5), (5, -5)), (1, 0), (1, 0),
      5, (6, 1), None)),
    (lambda: repro._quintic_span_model(4, 0),
     ("quintic-span(deg4,genus0)", "custom", 5, ("H", "Dt"), ((5, 4), (4, -6)), (1, 0), (1, 0),
      5, (6, 0), None)),
], ids=[*BUILTIN_NAMES, "span(5,1)", "span(4,0)"])
def test_built_models_keep_every_field(build, fields):
    assert build().__reduce__()[1] == fields


def test_named_model_resolves_every_name(fermat5, fermat4):
    assert named_model("fermat5") is fermat5
    assert named_model("fermat4") is fermat4
    for name in BUILTIN_NAMES:
        assert named_model(name) is builtin_model(name)
    with pytest.raises(SurfaceError, match="unknown model 'fermat6'"):
        named_model("fermat6")


def test_hyperplane_and_canonical_classes_skip_validation(fermat5, monkeypatch):
    # `model show` prints both; tests/golden/model_show_fermat5.txt pins that output
    d = fermat5.parse("2*H - L[01|23](0,0) - L[02|13](0,1)")
    want = (degree(d), genus(d), chi(d))
    validated = []
    real = DivClass.__init__
    monkeypatch.setattr(DivClass, "__init__", lambda c, *a: validated.append(c) or real(c, *a))
    for m in (fermat5, builtin_model("cubic_delpezzo")):
        assert m.hyperplane_class.coeffs == m.hyperplane
        assert m.canonical_class.coeffs == m.canonical
    assert (degree(d), genus(d), chi(d)) == want
    assert validated == []


def test_a_discarded_model_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        m = SurfaceModel("span", "custom", 5, ("H", "Dt"), ((5, 5), (5, -5)),
                         (1, 0), (1, 0), 5, (6, 1))
        assert (degree(m.hyperplane_class), genus(m.gen_class("Dt"))) == (5, 1)
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_validate_fermat_models(fermat5, fermat4):
    assert model_validate(fermat5).ok
    assert model_validate(fermat4).ok


def test_validate_builtin_models():
    for name in ("quadric", "cubic_delpezzo", "generic_quartic", "generic_quintic"):
        report = model_validate(builtin_model(name))
        assert report.ok, f"{name}:\n{report}"


def test_hodge_equality_case(fermat5):
    H = fermat5.hyperplane_class
    a, b = H, 2 * H
    assert pair(a, a) * pair(b, b) == pair(a, b) ** 2 == 100


def test_validate_flags_hodge_violation():
    bad = load_model(
        {
            "name": "bad-hodge",
            "kind": "custom",
            "chi0": 1,
            "generators": ["A", "B"],
            "gram": [[5, 1], [1, 4]],
            "hyperplane": [1, 0],
            "canonical": [0, 0],
        }
    )
    report = model_validate(bad)
    assert not report.ok
    assert any(c.name == "hodge-index" for c in report.violations)


def test_parity_is_decided_on_the_generators(fermat5, fermat4):
    for model, ngens in ((fermat5, 76), (fermat4, 49)):
        parity = next(c for c in model_validate(model).checks
                      if c.name == "adjunction-parity")
        assert parity.ok
        assert parity.detail == f"v.(v+K) even on all {ngens} generators, hence on every class"


def test_validate_flags_one_odd_generator():
    odd = load_model(
        {
            "name": "odd-parity",
            "kind": "custom",
            "chi0": 1,
            "generators": ["H", "A"],
            "gram": [[4, 0], [0, -1]],
            "hyperplane": [1, 0],
            "canonical": [0, 0],
        }
    )
    report = model_validate(odd)
    assert [c.name for c in report.violations] == ["adjunction-parity"]
    assert report.violations[0].detail == "1 of 2 generators have odd v.(v+K)"


def test_validate_flags_asymmetric_gram():
    bad = SurfaceModel(
        name="asym",
        kind="custom",
        degree=None,
        generators=("A", "B"),
        gram=((0, 1), (2, 0)),
        hyperplane=(1, 0),
        canonical=(0, 0),
        chi0=1,
        gen_genus=(None, None),
    )
    report = model_validate(bad)
    assert any(c.name == "gram-symmetric" for c in report.violations)


def _custom(gram, hyperplane, canonical=None):
    m = len(gram)
    return load_model({
        "name": "custom", "kind": "custom", "chi0": 1,
        "generators": [f"G{i}" for i in range(m)], "gram": gram,
        "hyperplane": hyperplane, "canonical": canonical or [0] * m,
    })


def _hodge(report):
    return next(c for c in report.checks if c.name == "hodge-index")


def test_validate_takes_only_the_model_and_is_deterministic(fermat5):
    assert list(inspect.signature(model_validate).parameters) == ["model"]
    assert model_validate(fermat5) == model_validate(fermat5)
    assert str(model_validate(fermat5)) == str(model_validate(fermat5))


@pytest.mark.parametrize("fixture, rho", [("fermat4", 20), ("fermat5", 37)])
def test_hodge_index_reports_the_picard_rank(request, fixture, rho):
    check = _hodge(model_validate(request.getfixturevalue(fixture)))
    assert check.ok
    assert check.detail == (
        f"signature (1, {rho - 1}), rho = {rho}: (H.v)^2 >= H^2 v^2 for every class v"
    )


def test_fermat5_with_a_positive_orthogonal_plane_fails_only_hodge(fermat5):
    # E1, E2 with E_i^2 = -2, E1.E2 = 3, orthogonal to the rest: (E1 + E2)^2 = 2
    # while H.(E1 + E2) = 0, so the signature is (2, 36); E_i.(E_i + K) = -2 is
    # even and each E_i has genus 0, so every other check still passes
    m = fermat5.ngens
    gram = [list(row) + [0, 0] for row in fermat5.gram]
    gram += [[0] * m + [-2, 3], [0] * m + [3, -2]]
    extended = SurfaceModel(
        name="fermat5+E", kind=fermat5.kind, degree=fermat5.degree,
        generators=fermat5.generators + ("E1", "E2"),
        gram=tuple(map(tuple, gram)), hyperplane=fermat5.hyperplane + (0, 0),
        canonical=fermat5.canonical + (0, 0), chi0=fermat5.chi0,
        gen_genus=fermat5.gen_genus + (0, 0),
    )
    report = model_validate(extended)
    assert [c.name for c in report.violations] == ["hodge-index"]
    assert report.violations[0].detail == (
        "(H.v)^2 < H^2 v^2 for some class v: the signature is not (1, rho - 1)"
    )


@pytest.mark.parametrize("gram", [
    [[2, 0, 0], [0, 2, 0], [0, 0, -2]],
    # <2> + the hyperbolic plane: S has a zero diagonal over a nonzero row
    [[2, 0, 0], [0, 0, 1], [0, 1, 0]],
], ids=["diag", "hyperbolic"])
def test_a_second_positive_square_fails_only_hodge(gram):
    report = model_validate(_custom(gram, [1, 0, 0]))
    assert [c.name for c in report.violations] == ["hodge-index"]


def test_quadric_has_signature_one_one(quadric):
    check = _hodge(model_validate(quadric))
    assert check.ok
    assert check.detail.startswith("signature (1, 1), rho = 2:")


@pytest.mark.parametrize("gram, hyperplane, hh", [
    ([[0, 1], [1, 0]], [1, 0], 0),
    ([[-2, 0], [0, 2]], [1, 0], -2),
])
def test_a_hyperplane_without_positive_square_fails_hodge(gram, hyperplane, hh):
    report = model_validate(_custom(gram, hyperplane))
    assert [c.name for c in report.violations] == ["hodge-index"]
    assert report.violations[0].detail == f"H^2 = {hh} is not positive"


def test_asymmetric_gram_is_reported_not_raised():
    report = model_validate(_custom([[2, 1], [0, -2]], [1, 0]))
    assert "gram-symmetric" in [c.name for c in report.violations]
    assert _hodge(report).detail == "not decided: the pairing is not symmetric"


@st.composite
def _grams_and_hyperplanes(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        upper = [[draw(st.integers(-3, 3)) for _ in range(n - i)] for i in range(n)]
        gram = [[upper[min(i, j)][abs(j - i)] for j in range(n)] for i in range(n)]
    else:
        # P^T D P with one positive square in D: signature (1, *) unless P
        # drops it, so the passing case is drawn often
        diag = [draw(st.integers(1, 3))] + [draw(st.integers(-3, 0)) for _ in range(n - 1)]
        p = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        gram = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    return gram, [draw(st.integers(-2, 2)) for _ in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grams_and_hyperplanes())
def test_hodge_rank_agrees_with_the_eigenvalue_signs(case):
    gram, h = case
    positive, negative = signature(gram)
    hh = sum(x * gram[i][j] * y for i, x in enumerate(h) for j, y in enumerate(h))
    want = positive + negative if hh > 0 and positive == 1 else None
    assert surfaces._hodge_rank(tuple(map(tuple, gram)), h) == want


def test_custom_model_json_roundtrip(tmp_path):
    doc = {
        "name": "span",
        "kind": "custom",
        "chi0": 5,
        "generators": ["H", "Dt"],
        "gram": [[5, 5], [5, -5]],
        "hyperplane": [1, 0],
        "canonical": [1, 0],
    }
    path = tmp_path / "span.json"
    import json

    path.write_text(json.dumps(doc), encoding="utf-8")
    m = load_model(str(path))
    assert m.generators == ("H", "Dt")
    assert pair(m.hyperplane_class, m.gen_class("Dt")) == 5
    report = model_validate(m)
    assert report.ok, str(report)


def test_custom_model_missing_fields():
    with pytest.raises(SurfaceError):
        load_model({"name": "x", "kind": "custom"})


_SPAN = {
    "name": "span", "kind": "custom", "chi0": 5, "generators": ["H", "Dt"],
    "gram": [[5, 5], [5, -5]], "hyperplane": [1, 0], "canonical": [1, 0],
}


@pytest.mark.parametrize("doc", [[[1]], 5, "H", None])
def test_custom_model_must_be_an_object(tmp_path, doc):
    import json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SurfaceError, match="must be a JSON object"):
        load_model(str(path))


@pytest.mark.parametrize("field, value", [
    ("name", 5),
    ("generators", 5),
    ("generators", ["H", 2]),
    ("gram", 5),
    ("gram", [5, 5]),
    ("gram", [[5, 1.5], [5, -5]]),
    ("gram", [[5, True], [5, -5]]),
    ("hyperplane", "10"),
    ("hyperplane", [1, 0.0]),
    ("canonical", [1, None]),
    ("chi0", 5.0),
    ("chi0", True),
    ("chi0", "5"),
])
def test_custom_model_refuses_malformed_fields(field, value):
    with pytest.raises(SurfaceError, match=f"custom model field {field} must be"):
        load_model({**_SPAN, field: value})



def _diagonal_document(n):
    """A custom document of n generators with Gram diag(1, -1, ..., -1)."""
    return {
        "name": "diagonal", "kind": "custom", "chi0": 1,
        "generators": [f"G{i}" for i in range(n)],
        "gram": [[(1 if i == 0 else -1) if i == j else 0 for j in range(n)] for i in range(n)],
        "hyperplane": [1] + [0] * (n - 1), "canonical": [0] * n,
    }


def test_custom_model_generator_cap():
    assert load_model(_diagonal_document(MAX_CUSTOM_GENERATORS)).ngens == 128
    with pytest.raises(SurfaceError, match="field generators has 129 entries, more than 128"):
        load_model(_diagonal_document(MAX_CUSTOM_GENERATORS + 1))


_OVER_THE_CAP = r"has an integer with \|value\| >= 2\^16"


@pytest.mark.parametrize("field, value", [
    ("gram", [[5, 5], [5, -MAX_CUSTOM_ENTRY]]),
    ("gram", [[MAX_CUSTOM_ENTRY, 5], [5, -5]]),
    ("hyperplane", [1, MAX_CUSTOM_ENTRY]),
    ("canonical", [-MAX_CUSTOM_ENTRY, 0]),
    ("chi0", MAX_CUSTOM_ENTRY),
    ("chi0", -2**200),
])
def test_custom_model_entry_cap(field, value):
    with pytest.raises(SurfaceError, match=f"field {field} {_OVER_THE_CAP}"):
        load_model({**_SPAN, field: value})
    below = MAX_CUSTOM_ENTRY - 1
    m = load_model({**_SPAN, "gram": [[5, below], [below, -below]], "chi0": -below})
    assert (m.gram, m.chi0) == (((5, below), (below, -below)), -below)


def test_custom_model_integer_over_the_digit_limit_is_a_surface_error():
    text = json.dumps(_SPAN).replace('"chi0": 5', '"chi0": 1' + "0" * 5000)
    with pytest.raises(SurfaceError, match=_OVER_THE_CAP) as info:
        load_model(text)
    assert "set_int_max_str_digits" not in str(info.value)


def test_fermat5_loads_as_a_custom_document(fermat5):
    doc = {
        "name": "fermat5-copy", "kind": "custom", "chi0": fermat5.chi0,
        "generators": list(fermat5.generators), "gram": [list(row) for row in fermat5.gram],
        "hyperplane": list(fermat5.hyperplane), "canonical": list(fermat5.canonical),
    }
    m = load_model(json.dumps(doc))
    assert (m.generators, m.gram) == (fermat5.generators, fermat5.gram)
    assert model_validate(m).ok
