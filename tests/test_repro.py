"""Reproduction suite: every case green, anomaly reported, fault injection."""

import pytest

from acmcurves.repro import (
    EXAMPLE_IDS,
    SummaryReport,
    case_json,
    render_case,
    render_summary,
    run_example,
    summary_json,
    verify_all,
)
from acmcurves.surfaces import SurfaceModel, build_fermat_model


def test_all_cases_green():
    summary = verify_all()
    assert summary.ok, render_summary(summary)
    assert len(summary.cases) == 7
    assert summary.failed_claims == 0


@pytest.mark.parametrize("case_id", EXAMPLE_IDS)
def test_each_case_individually(case_id):
    report = run_example(case_id)
    assert report.ok, render_case(report)
    assert report.claims


def test_unknown_case_id():
    with pytest.raises(ValueError):
        run_example("ex9.9")


def test_ex21_reports_the_printed_membership_failure():
    report = run_example("ex2.1")
    printed = [c for c in report.claims if "as printed" in c.description]
    assert len(printed) == 1
    claim = printed[0]
    assert claim.computed is False and claim.ok
    assert "FAILS" in claim.note
    assert any("anomaly" in note for note in report.notes)
    corrected = [c for c in report.claims if "corrected" in c.description]
    assert corrected and all(c.computed is True for c in corrected)


def test_ex31_connectedness_claims():
    report = run_example("ex3.1")
    text = render_case(report)
    assert "1-connected: False" in text
    assert "skew" in text


def test_ex41_liaison_numbers():
    report = run_example("ex4.1")
    values = {c.description: c.computed for c in report.claims}
    assert values["H_Y.Dtilde on the cubic"] == 5
    assert values["P_a(Dtilde) on the cubic"] == 1
    assert values["class linked by a cubic has (deg, genus)"] == (10, 11)


def test_ex42_liaison_numbers():
    report = run_example("ex4.2")
    values = {c.description: c.computed for c in report.claims}
    assert values["H_Z.Dtilde on the quadric"] == 4
    assert values["P_a(Dtilde) on the quadric"] == 0
    assert values["class linked by a quadric has (deg, genus)"] == (6, 3)


def test_reports_are_byte_identical():
    first = render_summary(verify_all())
    second = render_summary(verify_all())
    assert first == second


def test_empty_case_list_is_a_success():
    summary = SummaryReport(())
    assert summary.ok
    assert summary.total_claims == 0
    assert render_summary(summary).endswith("0 cases, 0 claims, 0 failed")


def test_corrupted_gram_fails_the_genus_claim():
    model = build_fermat_model(5)
    gram = [list(row) for row in model.gram]
    i = model.index("L[01|23](0,0)")
    gram[i][i] = -1  # break the line self-intersection
    gram[0][0] = 5
    corrupted = SurfaceModel(
        model.name, model.kind, model.degree, model.generators, tuple(tuple(r) for r in gram),
        model.hyperplane, model.canonical, model.chi0, model.gen_genus, model.lines,
    )
    report = run_example("ex4.4", models={"fermat5": corrupted})
    assert not report.ok
    failing = [c for c in report.claims if not c.ok]
    assert any("(deg, genus)" in c.description for c in failing)


def test_json_forms_are_serializable():
    import json

    summary = verify_all()
    blob = json.dumps(summary_json(summary))
    parsed = json.loads(blob)
    assert parsed["ok"] is True
    assert len(parsed["cases"]) == 7
    single = json.loads(json.dumps(case_json(run_example("ex4.5"))))
    assert single["id"] == "ex4.5" and single["ok"] is True
