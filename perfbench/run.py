#!/usr/bin/env python3
"""The acmcurves benchmark: one workload per run, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload repro_fresh --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):
  repro_fresh      build both Fermat models, validate them, run verify_all
  session_queries  warm session: divisor, classify, witness, connectedness
                   and literal-line queries on the cached models
  cli_cold         one fresh `python -m acmcurves.cli` process per command

--trace 0 measures the end-to-end metrics; --trace 1 runs a fixed number
of rounds untraced and then traced and reports per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit status is 0 only when a result was printed.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import gen
import oracle
import tracing
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("repro_fresh", "session_queries", "cli_cold")
# highest percentile with at least ten samples beyond it at the sample
# count a run reaches here; fixed so that runs compare like with like
TAIL_PERCENTILE = {"repro_fresh": 75, "session_queries": 99, "cli_cold": 85}
SESSION_POOL = 8  # distinct rounds of 40 queries, cycled
CLI_POOL = 4  # distinct rounds of 12 commands, cycled
TRACE_ROUNDS = {"repro_fresh": 2, "session_queries": SESSION_POOL, "cli_cold": 1}
SETUP_SAMPLES = {"repro_fresh": 12, "session_queries": 8, "cli_cold": 12}

SETUP_PROBES = {
    "repro_fresh": "import acmcurves",
    "session_queries": "import acmcurves; acmcurves.fermat_model(4); acmcurves.fermat_model(5)",
    "cli_cold": "import acmcurves.cli",
}


# --- inputs ------------------------------------------------------------------------


def session_round(rng, lat4, lat5, slot):
    """40 queries: 14 fast ones (classify, divisor, connectedness), 18
    literal-line intersections, 8 witness searches.

    By latency the intersections hold ranks 0.35 to 0.8, so the median
    falls inside them; the two P4.6 searches are the slowest 5%, so the
    p99 tail falls inside them.
    """
    ops = [gen.classify_op(rng) for _ in range(4)]
    ops += [gen.divisor_op(rng, lat5) for _ in range(4)]
    ops += [gen.divisor_op(rng, lat4) for _ in range(2)]
    ops += [gen.connected_op(rng, rng.choice((lat4, lat5))) for _ in range(4)]
    ops += [gen.intersect_op(rng, meeting=i % 2 == 0) for i in range(18)]
    for which in ("P4.4", "P4.6(b2)", "P4.6(b3)", "P4.7", "P4.8", "C4.3"):
        ops.append(gen.witness_op(rng, lat5, which, slot))
    ops.append(gen.witness_op(rng, lat4, "P2.2"))
    ops.append(gen.rewritten_op(lat5))
    rng.shuffle(ops)
    return ops


def cli_round(rng, lat5, slot):
    """12 commands: 7 import-only (3 classify, 4 intersect), 2 that build
    fermat5 (invariants, witness search) and 3 `repro all`.

    Sorted by latency the intersect commands hold ranks 0.25 to 0.58, so
    the median falls inside them; `repro all` holds 0.75 to 1, so the p85
    tail falls inside it.
    """
    cmds = []
    for _ in range(3):
        kind, deg, g, status, rule = gen.classify_args(rng)
        cmds.append({
            "argv": ["classify", "--kind", kind, "--deg", str(deg), "--genus", str(g)],
            "expect": [status, rule],
        })
    for i in range(4):
        a, b = gen.intersect_pair(rng, meeting=i % 2 == 0)
        cmds.append({"argv": ["intersect", a, b], "expect": "1" if i % 2 == 0 else "0"})
    op = gen.divisor_op(rng, lat5)
    want = [f"{k}: {v}" for k, v in zip(("degree", "genus", "chi", "k"), op["expect"])]
    # "--": a class written with a leading minus and no space would
    # otherwise be read as an option
    cmds.append({"argv": ["invariants", "--", op["expr"]], "expect": want})
    which = rng.choice(("P4.4", "P4.6(b2)", "P4.6(b3)", "P4.7", "P4.8", "C4.3"))
    op = gen.witness_op(rng, lat5, which, slot)
    cmds.append({
        "argv": ["witness", "search", "--prop", op["prop"], "--target", op["target"],
                 "--bound", "10"],
        "expect": op["expect"],
    })
    cmds += [{"argv": ["repro", "all"], "expect": None} for _ in range(3)]
    rng.shuffle(cmds)
    return cmds


def make_job(workload, seed, lattices):
    """Inputs as whole rounds; the worker cycles through them."""
    rng = random.Random(seed)
    job = {"workload": workload, "src": SRC}
    if workload == "repro_fresh":
        job["lattices"] = {
            str(d): {"names": list(lat.names), "gram": [list(r) for r in lat.gram]}
            for d, lat in lattices.items()
        }
        job["ops"] = [[None]]
    elif workload == "session_queries":
        job["ops"] = [session_round(rng, lattices[4], lattices[5], (i, SESSION_POOL))
                      for i in range(SESSION_POOL)]
    else:
        job["ops"] = [cli_round(rng, lattices[5], (i, CLI_POOL)) for i in range(CLI_POOL)]
    return job


# --- measuring -----------------------------------------------------------------------


def setup_probe(workload):
    """One set-up sample: time from a fresh interpreter until the first
    operation is ready.  cli_cold counts interpreter start, so it is timed
    from outside the child; the others time their import (and the two
    Fermat builds) inside it."""
    if workload == "cli_cold":
        code = SETUP_PROBES[workload]
    else:
        code = ("import time; t = time.perf_counter(); " + SETUP_PROBES[workload]
                + "; print(repr(time.perf_counter() - t))")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=worker.child_env(SRC),
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return wall if workload == "cli_cold" else float(proc.stdout.split()[-1])


def run_worker(job):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), env=worker.child_env(SRC),
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-1500:]}")
    return json.loads(lines[-1])


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def end_to_end(workload, res, setup_samples):
    lat = res["latencies"]
    done = res["attempted"] - res["failed"]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (done / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "latency_tail_ms": (1000 * percentile(lat, TAIL_PERCENTILE[workload]), "ms"),
        "cpu_ms_per_op": (1000 * res["cpu_s"] / done, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced):
    counts = traced["trace"]
    metrics = {}
    for name, (modname, quals) in tracing.NAMED.items():
        short = modname.rsplit(".", 1)[1]
        keys = [f"{short}.{q}" for q in quals]
        metrics[f"{name}.calls"] = (sum(counts.get(k, (0, 0, 0))[0] for k in keys), "count")
        metrics[f"{name}.self_s"] = (sum(counts.get(k, (0, 0, 0))[1] for k in keys), "s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v[1] for k, v in counts.items() if k.startswith(layer + ".")), "s")
    fm = counts.get("surfaces.fermat_model", (0, 0, 0))
    builds = counts.get("surfaces.build_fermat_model", (0, 0, 0))[2]
    metrics["surfaces.fermat_model.hit_ratio"] = ((fm[0] - builds) / fm[0] if fm[0] else 0.0,
                                                  "ratio")
    sw = counts.get("classify.search_witness", (0, 0, 0))
    metrics["classify.search_witness.found_ratio"] = (sw[2] / sw[0] if sw[0] else 0.0, "ratio")
    metrics["cli.import_s"] = (counts.get("cli_import", (0, 0.0, 0))[1], "s")
    ops = len(traced["latencies"]) or 1
    metrics["trace.overhead_ms_per_op"] = (
        1000 * (sum(traced["latencies"]) - sum(plain["latencies"])) / ops, "ms")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "acmcurves", "__init__.py")):
        sys.exit(f"no acmcurves package under {SRC}; run from a full checkout")

    errors = []
    lattices = {d: oracle.Lattice(d) for d in (4, 5)}
    for d, lat in lattices.items():
        rank = oracle.rational_rank(lat.gram)
        if rank != oracle.LATTICE_RANK[d]:
            errors.append(f"oracle Gram of fermat{d} has rank {rank}")
    job = make_job(args.workload, args.seed, lattices)

    if args.trace:
        rounds = TRACE_ROUNDS[args.workload]
        plain = run_worker({**job, "seconds": None, "rounds": rounds, "trace": False})
        traced = run_worker({**job, "seconds": None, "rounds": rounds, "trace": True})
        runs = (plain, traced)
        metrics = per_layer(plain, traced)
        absent = traced.get("absent", [])
    else:
        # half the set-up samples before the timed loop and half after it,
        # so that their median spans the run; the first writes the
        # bytecode cache and is not counted
        half = SETUP_SAMPLES[args.workload] // 2
        samples = [setup_probe(args.workload) for _ in range(1 + half)][1:]
        res = run_worker({**job, "seconds": args.seconds, "rounds": None, "trace": False})
        samples += [setup_probe(args.workload) for _ in range(half)]
        runs = (res,)
        metrics = end_to_end(args.workload, res, samples)
        absent = []
    for r in runs:
        errors += r["errors"]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "arithmetic": runs[0]["arithmetic"],
        "rounds": [r["rounds"] for r in runs],
        "samples": [len(r["latencies"]) for r in runs],
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "absent": absent,
    }
    print("# " + json.dumps(info))
    for e in errors:
        print(f"# MISMATCH {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
