"""Command-line interface: golden outputs, exit codes, JSON mode."""

import json
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from acmcurves import classify, cli
from acmcurves.classify import check_witness, render_verdict, search_witness
from acmcurves.cli import main
from acmcurves.cyclo import OrderError
from acmcurves.divisors import ModelMismatchError, NonIntegralError, chi, degree, genus, k_invariant
from acmcurves.exprs import ParseError
from acmcurves.geometry import GeometryError
from acmcurves.surfaces import SurfaceError, fermat_model, named_model

from witness_targets import TARGETS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """The commands of README.md's command-line block, as argument lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_command_block_is_ten_acmcurves_commands():
    commands = _readme_commands()
    assert len(commands) == 10
    assert all(argv[0] == "acmcurves" for argv in commands)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_command_block_runs(capsys, argv):
    code, out, _ = run(capsys, *argv[1:])
    assert code == 0
    assert out.strip()


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


def test_table_prop21_golden(capsys):
    code, out, _ = run(capsys, "table", "prop2.1")
    assert code == 0
    assert out.splitlines() == [
        "genus=0 d=1 rule=Prop2.1(a)",
        "genus=0 d=2 rule=Prop2.1(a)",
        "genus=0 d=3 rule=Prop2.1(a)",
        "genus=1 d=3 rule=Prop2.1(b)",
        "genus=1 d=4 rule=Prop2.1(b)",
        "genus=2 d=5 rule=Prop2.1(c)",
        "genus=3 d=6 witness-rule=P2.2",
    ]


def test_classify_quintic_out_of_table_trace(capsys):
    # k = 2 on a quintic: the degree must be 1, 4, 7 or 8
    code, out, _ = run(capsys, "classify", "--kind", "quintic", "--deg", "3", "--genus", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OUT_OF_TABLE rule=Thm1.1"
    assert "  check deg in {1,4,7,8}: 3 (expected {1, 4, 7, 8})" in lines


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


def test_intersect_descends_coefficients_to_their_conductors(capsys):
    # zeta(8)^2 = i lies in Q(zeta_4), so i*zeta(7) needs order 28, not 56
    code, out, err = run(capsys, "intersect", "zeta(8)^2*zeta(7)*x0 + x1 ; x2", "x0 ; x1")
    assert (code, out.strip(), err) == (0, "1 (meet at one point)", "")
    code, out, err = run(capsys, "intersect", "zeta(8)*zeta(7)*x0 + x1 ; x2", "x0 ; x1")
    assert (code, out) == (2, "")
    assert err.strip() == "error: cyclotomic order 56 exceeds the supported cap 40"


@pytest.mark.parametrize("a, b, lcm", [
    ("x0 + zeta(7)*x1 ; x2", "x0 + zeta(8)*x1 ; x2", 56),
    ("x0 + zeta(3)*x1 ; x2", "x0 + zeta(40)*x1 ; x2", 120),
])
def test_coplanar_lines_over_the_order_cap_are_refused(capsys, a, b, lcm):
    # both lines lie in the plane x2 = 0, so they meet; a zero residue
    # proves nothing over the cap, and the exact pairing needs order lcm
    code, out, err = run(capsys, "intersect", a, b)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: cyclotomic order {lcm} exceeds the supported cap 40"


def test_a_pair_that_descends_under_the_order_cap_meets(capsys):
    # zeta(7)^7 = 1, so the pair descends to orders 1 and 8
    code, out, err = run(capsys, "intersect", "x0 + zeta(7)^7*x1 ; x2", "x0 + zeta(8)*x1 ; x2")
    assert (code, out.strip(), err) == (0, "1 (meet at one point)", "")


def test_intersect_refuses_oversized_literals(capsys):
    rng = random.Random(4096)
    quotient = " + ".join(
        f"({rng.getrandbits(4096)})*zeta(37)^{i}" for i in range(36)
    )
    for coefficient, message in (
        (f"1/({quotient})", "error: a quotient exceeds the bit-size cap 4096"),
        ("7" * 1300, "error: integer literal 77777777... exceeds the bit-size cap 4096"),
        ("9" * 5000, "error: integer literal 99999999... exceeds the bit-size cap 4096"),
    ):
        code, out, err = run(
            capsys, "intersect", f"x0 + {coefficient}*x1 ; x2 + x3", "x0 + x2 ; x1 + x3"
        )
        assert code == 2
        assert out == ""
        assert err.strip() == message


def test_intersect_shortens_an_oversized_zeta_order(capsys):
    code, out, err = run(
        capsys, "intersect", f"x0 + zeta({'9' * 1000})*x1 ; x2 + x3", "x0 + x2 ; x1 + x3"
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "error: cyclotomic order 99999999... exceeds the supported cap 40"
    assert len(err.encode()) < 120
    # an order of at most 8 digits is shown whole
    for order in ("56", "12345678"):
        code, _, err = run(
            capsys, "intersect", f"x0 + zeta({order})*x1 ; x2 + x3", "x0 + x2 ; x1 + x3"
        )
        assert code == 2
        assert err.strip() == f"error: cyclotomic order {order} exceeds the supported cap 40"


def test_intersect_refuses_literals_nested_too_deeply(capsys):
    for form in ("(" * 3000 + "x0" + ")" * 3000, "-" * 3000 + "x0"):
        code, out, err = run(capsys, "intersect", f"{form} ; x1", "x2 ; x3")
        assert code == 2
        assert out == ""
        assert err == "error: expression nested too deeply\n"
    form = "(" * 200 + "x0" + ")" * 200
    code, out, _ = run(capsys, "intersect", f"{form} ; x1", "x2 ; x3")
    assert (code, out) == (0, "0 (skew)\n")


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


def test_invariants_caps_the_multiplier(capsys):
    for digits in (5000, 4000):
        code, out, err = run(capsys, "invariants", "9" * digits + "*H")
        assert code == 2
        assert out == ""
        assert err == "error: integer literal 99999999... exceeds the bit-size cap 4096\n"
    m = int("9" * 1200)
    code, out, _ = run(capsys, "invariants", f"{m}*H")
    assert code == 0
    d = fermat_model(5).class_of((m,) + (0,) * 75)
    assert out.splitlines() == [
        f"degree: {degree(d)}", f"genus: {genus(d)}", f"chi: {chi(d)}", f"k: {k_invariant(d)}",
    ]


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
    # degree 5 and genus 2, as P4.8 requires, and no witness among the atlas candidates
    code, out, _ = run(
        capsys,
        "witness", "search", "--prop", "P4.8",
        "--target", "H + L[01|23](0,2) + L[01|23](2,2) - L[01|23](3,0) - L[01|23](3,1)",
    )
    assert code == 0
    assert "no witness found" in out


def test_witness_search_none_json(capsys):
    code, out, _ = run(
        capsys,
        "witness", "search", "--prop", "P4.7",
        "--target", "2*H-L[01|23](0,0)-L[02|13](0,1)-L[02|13](0,3)",
        "--bound", "0", "--json",
    )
    assert code == 0
    assert out == '{"found": false}\n'


def test_witness_search_outside_the_header_is_invalid(capsys):
    # H has degree 5 and genus 6, not P4.7's (7, 5): the rule does not apply
    argv = ("witness", "search", "--prop", "P4.7", "--target", "H")
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines()[0] == "INVALID rule=P4.7"
    assert "check target (deg, genus): (5, 6) (expected (7, 5))" in out
    assert "no witness found" not in out
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == 2
    assert (doc["found"], doc["status"], doc["rule"], doc["witness"]) == (
        False, "INVALID", "P4.7", None)
    assert doc["trace"][-1] == {"name": "target (deg, genus)", "value": [5, 6],
                                "expected": [7, 5], "ok": False}


def _counting(monkeypatch, *names):
    """Count the calls of the named classify functions, made in classify or in cli."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(classify, name)):
            calls[_name] += 1
            return _f(*args)
        for module in (classify, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("prop", sorted(TARGETS))
def test_witness_search_judges_each_query_once(monkeypatch, capsys, prop):
    model_name, text = TARGETS[prop]
    target = named_model(model_name).parse(text)
    with monkeypatch.context() as patch:
        alone = _counting(patch, "_judge")
        found = search_witness(prop, target, bound=10)
    assert found is not None
    calls = _counting(monkeypatch, "_header", "_judge")
    code, out, _ = run(capsys, "witness", "search", "--prop", prop, "--target", text,
                       "--model", model_name, "--bound", "10")
    assert code == 0
    assert calls == {"_header": 1, "_judge": alone["_judge"]}
    monkeypatch.undo()
    assert out == f"witness: {found}\n{render_verdict(check_witness(prop, target, found))}\n"


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


def test_repro_run_json(capsys):
    code, out, _ = run(capsys, "repro", "run", "ex3.1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["id"] == "ex3.1" and doc["ok"] is True
    assert len(doc["claims"]) == 5


def test_model_build_and_show(capsys):
    code, out, _ = run(capsys, "model", "build", "fermat", "--degree", "5")
    assert code == 0
    assert "76 generators" in out and "validation: OK" in out
    code, out, _ = run(capsys, "model", "show", "quadric")
    assert code == 0
    assert "L1: 0 1" in out and "L2: 1 0" in out


def test_model_build_quadric(capsys):
    code, out, _ = run(capsys, "model", "build", "quadric")
    assert code == 0
    assert out.splitlines() == ["built quadric: 2 generators", "validation: OK"]


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


def test_model_show_malformed_custom_json(tmp_path, capsys):
    doc = {"name": "x", "kind": "custom", "chi0": 1, "generators": 5,
           "gram": [], "hyperplane": [], "canonical": []}
    path = tmp_path / "model.json"
    for text in ("[[1]]", json.dumps(doc)):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "model", "show", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "custom model" in err


@pytest.mark.parametrize("text", [
    json.dumps({"name": "big", "kind": "custom", "chi0": 1, "generators": ["G"] * 129,
                "gram": [[0] * 129] * 129, "hyperplane": [0] * 129, "canonical": [0] * 129}),
    json.dumps({"name": "x", "kind": "custom", "chi0": 1, "generators": ["H"],
                "gram": [[2**16]], "hyperplane": [1], "canonical": [0]}),
    '{"name": "x", "kind": "custom", "chi0": 1' + "0" * 5000 + ', "generators": ["H"], '
    '"gram": [[1]], "hyperplane": [1], "canonical": [0]}',
    '{"name": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["129-generators", "gram-2^16", "chi0-5001-digits", "nested-100000-deep"])
def test_model_show_refuses_a_document_over_the_caps(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "model", "show", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "custom model" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("generators", [
    ["A", "A"], ["A", "A+B"], ["A", "2"], ["A", ""], ["A", "A B"],
], ids=["repeated", "sum", "integer", "empty", "space"])
def test_model_show_refuses_names_that_do_not_read_back(tmp_path, capsys, generators):
    # a class prints by its generator names, and parse_divisor must read
    # each name back as exactly that generator
    doc = {"name": "x", "kind": "custom", "chi0": 1, "generators": generators,
           "gram": [[1, 0], [0, 1]], "hyperplane": [0, 1], "canonical": [0, 0]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "model", "show", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: custom model generator name ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_lines_list(capsys):
    code, out, _ = run(capsys, "lines", "list", "--model", "fermat4")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 48
    assert rows[0].startswith("L[01|23](0,0):")


def test_lines_list_without_an_atlas(capsys):
    code, out, err = run(capsys, "lines", "list", "--model", "quadric")
    assert code == 2
    assert out == ""
    assert "has no line atlas" in err


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


@pytest.mark.parametrize(
    "error",
    [ParseError, GeometryError, SurfaceError, OrderError, NonIntegralError, ModelMismatchError],
)
def test_package_errors_are_value_errors(error):
    # main reports every ValueError as "error: ..." with exit status 2
    assert issubclass(error, ValueError)


def test_cli_import_loads_no_introspection_modules():
    # -S keeps site hooks out: a .pth file may import typing on its own
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import acmcurves.cli; "
            "print(*(m for m in ('dataclasses', 'inspect', 'typing', 'fractions', 'decimal') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
