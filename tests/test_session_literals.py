"""tests/data/session_literals_seed1.txt against the benchmark that draws it.

Five test modules read the 288 literal lines of the session_queries pool,
seed 1, from that file.  This test draws the pool again with the
benchmark's own make_job, in a fresh interpreter that writes no bytecode
under perfbench/, and requires the file to list the same lines in pool
order, so a change to the generator cannot leave those tests on stale
inputs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LITERALS = ROOT / "tests" / "data" / "session_literals_seed1.txt"

DRAW = """
import json, sys
sys.path.insert(0, sys.argv[1])
import oracle, run
job = run.make_job("session_queries", 1, {d: oracle.Lattice(d) for d in (4, 5)})
print(json.dumps([line for ops in job["ops"] for op in ops if op["kind"] == "intersect"
                  for line in (op["a"], op["b"])]))
"""


def test_the_literal_file_matches_the_benchmark_pool():
    proc = subprocess.run([sys.executable, "-B", "-c", DRAW, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120, check=True)
    drawn = json.loads(proc.stdout)
    stored = [line for line in LITERALS.read_text(encoding="utf-8").splitlines()
              if not line.startswith("#")]
    assert len(drawn) == 288
    assert stored == drawn
