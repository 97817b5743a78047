"""Command-line interface: golden outputs, exit codes, JSON mode."""

import json

from acmcurves.cli import main
from acmcurves.divisors import chi, degree, genus, k_invariant
from acmcurves.surfaces import fermat_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", "--kind", "quintic", "--deg", "4", "--genus", "1")
    assert code == 0
    assert out.splitlines()[0] == "ACM rule=Thm1.2(iii)"


def test_classify_conditional(capsys):
    code, out, _ = run(capsys, "classify", "--kind", "quintic", "--deg", "7", "--genus", "5")
    assert code == 0
    assert out.splitlines()[0] == "CONDITIONAL rule=P4.7"


def test_classify_invalid_degree_is_usage_error(capsys):
    code, out, _ = run(capsys, "classify", "--kind", "quintic", "--deg", "0", "--genus", "1")
    assert code == 2
    assert out.splitlines()[0].startswith("INVALID")


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--kind", "quartic", "--deg", "5", "--genus", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ACM" and doc["rule"] == "Prop2.1(c)"


def test_table_thm13_golden(capsys):
    code, out, _ = run(capsys, "table", "thm1.3")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows == [
        "k=0 d=10 witness-rule=P4.5",
        "k=1 d=9 witness-rule=C4.2",
        "k=2 d=7 witness-rule=P4.4",
        "k=2 d=8 witness-rule=C4.3",
        "k=3 d=7 witness-rule=P4.7",
        "k=4 d=5 witness-rule=P4.8",
        "k=4 d=6 witness-rule=P4.6",
    ]


def test_table_thm12_has_eight_rows(capsys):
    code, out, _ = run(capsys, "table", "thm1.2")
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_intersect_golden(capsys):
    code, out, _ = run(
        capsys, "intersect", "x0+x1 ; x2+x3", "x0+x2 ; x1+zeta(5)*x3"
    )
    assert code == 0
    assert out.strip() == "0 (skew)"


def test_intersect_meeting_and_same(capsys):
    code, out, _ = run(capsys, "intersect", "x0+x1 ; x2+x3", "x0+x2 ; x1+x3")
    assert out.strip() == "1 (meet at one point)"
    code, out, _ = run(capsys, "intersect", "x0+x1 ; x2+x3", "x2+x3 ; x0+x1")
    assert out.strip() == "SAME (equal lines)"


def test_intersect_mixed_orders_with_a_rational_coefficient(capsys):
    # zeta(7)^7 = 1; lcm(7, 8) = 56 would exceed the order cap of 40
    code, out, _ = run(
        capsys, "intersect", "x0 + zeta(7)^7*x1 ; x2 + zeta(8)*x3", "x0 + x2 ; x1 + x3"
    )
    assert code == 0
    assert out.strip() == "0 (skew)"
    code, out, _ = run(
        capsys, "intersect", "x0 + zeta(7)^7*x1 ; x2 + x3", "x0 + x2 ; x1 + zeta(8)*x3"
    )
    assert code == 0
    assert out.strip() == "0 (skew)"


def test_intersect_atlas_names(capsys):
    code, out, _ = run(
        capsys, "intersect", "L[01|23](0,0)", "L[02|13](0,1)", "--model", "fermat5"
    )
    assert code == 0
    assert out.strip() == "0 (skew)"


def test_invariants_matches_library(capsys):
    expr = "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)"
    code, out, _ = run(capsys, "invariants", expr)
    assert code == 0
    d = fermat_model(5).parse(expr)
    expected = [
        f"degree: {degree(d)}",
        f"genus: {genus(d)}",
        f"chi: {chi(d)}",
        f"k: {k_invariant(d)}",
    ]
    assert out.strip().splitlines() == expected


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "H", "--json")
    doc = json.loads(out)
    assert doc == {"class": "H", "degree": 5, "genus": 6, "chi": 5, "k": 0}


def test_invariants_unknown_generator(capsys):
    code, out, err = run(capsys, "invariants", "2*Q")
    assert code == 2
    assert "valid names" in err


def test_witness_search_found(capsys):
    code, out, _ = run(
        capsys,
        "witness", "search", "--prop", "P4.7",
        "--target", "2*H - L[01|23](0,0) - L[02|13](0,1) - L[02|13](0,2)",
        "--bound", "10",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("witness: ")
    assert "NOT_ACM rule=Prop4.7(b)" in out


def test_witness_search_none(capsys):
    code, out, _ = run(
        capsys,
        "witness", "search", "--prop", "P4.8",
        "--target", "H - L[01|23](0,0) + L[02|13](0,1)",
    )
    assert code == 0
    assert "no witness found" in out


def test_witness_search_json(capsys):
    code, out, _ = run(
        capsys,
        "witness", "search", "--prop", "P4.6",
        "--target", "H - L[03|12](4,0) + L[01|23](0,0) + L[02|13](0,1)",
        "--json",
    )
    doc = json.loads(out)
    assert doc["found"] is True and doc["rule"] == "Prop4.6(b2)"


def test_repro_run_and_all(capsys):
    code, out, _ = run(capsys, "repro", "run", "ex3.1")
    assert code == 0
    assert out.startswith("== ex3.1")
    code, out, _ = run(capsys, "repro", "all")
    assert code == 0
    assert "7 cases" in out and "0 failed" in out


def test_repro_json(capsys):
    code, out, _ = run(capsys, "repro", "all", "--json")
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failed_claims"] == 0


def test_model_build_and_show(capsys):
    code, out, _ = run(capsys, "model", "build", "fermat", "--degree", "5")
    assert code == 0
    assert "76 generators" in out and "validation: OK" in out
    code, out, _ = run(capsys, "model", "show", "quadric")
    assert code == 0
    assert "L1: 0 1" in out and "L2: 1 0" in out


def test_model_show_custom_json(tmp_path, capsys):
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
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "model", "show", str(path))
    assert code == 0
    assert "H: 5 5" in out


def test_lines_list(capsys):
    code, out, _ = run(capsys, "lines", "list", "--model", "fermat4")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 48
    assert rows[0].startswith("L[01|23](0,0):")


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2
    code, _, err = run(capsys, "model", "build", "fermat")
    assert code == 2


def test_model_flag_resolution_failure(capsys):
    code, _, err = run(capsys, "invariants", "H", "--model", "nonexistent.json")
    assert code == 2
    assert "error" in err
