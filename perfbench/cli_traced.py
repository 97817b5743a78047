"""Runs one acmcurves command under the tracer, as `python -m acmcurves.cli` would.

Usage: python perfbench/cli_traced.py <acmcurves arguments>

The import of acmcurves.cli is timed first, then the wrappers of
tracing.py are installed and acmcurves.cli.main runs.  The command's
stdout is left as it is; the counters go to stderr as one line that
starts with worker.TRACE_MARK.
"""

import sys
import time

t0 = time.perf_counter()
import acmcurves.cli  # noqa: E402  (timed)

import_s = time.perf_counter() - t0

import json  # noqa: E402

import tracing  # noqa: E402
from worker import TRACE_MARK  # noqa: E402

tracer = tracing.install()
code = acmcurves.cli.main(sys.argv[1:])
sys.stdout.flush()
counts = tracer.snapshot()
counts["cli_import"] = [1, import_s, 0]
print(TRACE_MARK + json.dumps(counts), file=sys.stderr)
sys.exit(code)
