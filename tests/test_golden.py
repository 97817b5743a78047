"""CLI outputs compared byte for byte with files recorded under golden/.

A refactor that must not change what the program prints is checked here:
`repro all` (text and JSON), `witness search` for one documented target
per rule (text and JSON), `model show fermat5`, both atlas listings (their
canonical rows), one order-40 literal `intersect` per answer and one
out-of-table `classify --json`, whose trace value is a (genus, degree)
tuple, written as a JSON list.
"""

from pathlib import Path

import pytest

from acmcurves.cli import main
from witness_targets import TARGETS

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "repro_all.txt": ["repro", "all"],
    "repro_all.json": ["repro", "all", "--json"],
    "model_show_fermat5.txt": ["model", "show", "fermat5"],
    "lines_list_fermat4.txt": ["lines", "list", "--model", "fermat4"],
    "lines_list_fermat5.txt": ["lines", "list", "--model", "fermat5"],
    "classify_quartic_out_of_table.json": [
        "classify", "--kind", "quartic", "--deg", "10", "--genus", "9", "--json"
    ],
}
_LITERAL = "x0 + zeta(40)*x1 ; x2 + zeta(8)^3*x3"
GOLDEN["intersect_skew.txt"] = ["intersect", _LITERAL, "x0 + x2 ; x1 + zeta(5)*x3"]
GOLDEN["intersect_meet.txt"] = [  # the second line lies in a plane through the first
    "intersect", _LITERAL, "x0 + zeta(40)*x1 + 3*x2 + 3*zeta(8)^3*x3 ; x1 + x3 - 2/7*x2"
]
GOLDEN["intersect_same.txt"] = [  # two other forms of the same pencil
    "intersect",
    _LITERAL,
    "2*x0 + 2*zeta(40)*x1 - x2 - zeta(8)^3*x3 ; x2 + zeta(8)^3*x3 + zeta(40)*x0 + zeta(40)^2*x1",
]
for _prop, (_model, _target) in TARGETS.items():
    _argv = ["witness", "search", "--prop", _prop, "--target", _target, "--model", _model]
    GOLDEN[f"witness_{_prop}.txt"] = _argv
    GOLDEN[f"witness_{_prop}.json"] = _argv + ["--json"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(capsys, name):
    code = main(GOLDEN[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
