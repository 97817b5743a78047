"""CLI outputs compared byte for byte with files recorded under golden/.

A refactor that must not change what the program prints is checked here:
`repro all` (text and JSON), `witness search` for one documented target
per rule (text and JSON) and `model show fermat5`.
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
}
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
