import json
import subprocess
import sys
from pathlib import Path

import pytest

from acmcurves.cyclo import CycNum
from acmcurves.geometry import Line
from acmcurves.surfaces import builtin_model, fermat_model


# the benchmark's own draw of the session_queries pool, seed 1, run in a
# fresh interpreter that writes no bytecode under perfbench/
_DRAW_SESSION_LITERALS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import oracle, run
job = run.make_job("session_queries", 1, {d: oracle.Lattice(d) for d in (4, 5)})
print(json.dumps([line for ops in job["ops"] for op in ops if op["kind"] == "intersect"
                  for line in (op["a"], op["b"])]))
"""


@pytest.fixture(scope="session")
def session_literals():
    """The 288 literal lines of the benchmark's session_queries pool, seed 1:
    8 rounds of 18 intersect queries, two lines each, in pool order."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    proc = subprocess.run([sys.executable, "-B", "-c", _DRAW_SESSION_LITERALS, str(perfbench)],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = json.loads(proc.stdout)
    assert len(lines) == 288
    return lines


@pytest.fixture(scope="session")
def fermat5():
    return fermat_model(5)


@pytest.fixture(scope="session")
def fermat4():
    return fermat_model(4)


@pytest.fixture(scope="session")
def quadric():
    return builtin_model("quadric")


@pytest.fixture(scope="session")
def cubic():
    return builtin_model("cubic_delpezzo")


@pytest.fixture
def canonical_work(monkeypatch):
    """The lines whose canonical rows are read and the values inverted
    while the test runs, as {"rows": [...], "inverse": [...]}."""
    work = {"rows": [], "inverse": []}
    rows, inverse = Line.rows, CycNum.inverse

    def counting_rows(line):
        work["rows"].append(line)
        return rows.__get__(line, Line)

    def counting_inverse(x):
        work["inverse"].append(x)
        return inverse(x)

    monkeypatch.setattr(Line, "rows", property(counting_rows))
    monkeypatch.setattr(CycNum, "inverse", counting_inverse)
    return work
