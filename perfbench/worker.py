"""Runs one workload's operations in a closed loop and checks every output.

Started by run.py as a fresh process, one per workload run, so that the
peak RSS it reports is the workload's own.  It reads one JSON job from
stdin and prints one JSON result as its last stdout line.  The job holds
the generated inputs and the expected answers; the package under test sees
only the inputs.

Functions are looked up on their modules at call time (S.fermat_model,
not a local name), so the traced run sees every call through the
wrappers installed by tracing.py.
"""

import importlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Checker:
    """Collects the first few mismatches; any mismatch makes the run incorrect."""

    def __init__(self):
        self.errors = []

    def expect(self, ok, what):
        if not ok and len(self.errors) < 20:
            self.errors.append(what)
        return ok


def load_package(src):
    sys.path.insert(0, src)
    names = ("classify", "divisors", "exprs", "geometry", "repro", "surfaces")
    return {n: importlib.import_module(f"acmcurves.{n}") for n in names}


# --- repro_fresh ---------------------------------------------------------------


def repro_fresh_op(pkg, job, chk):
    S, R = pkg["surfaces"], pkg["repro"]
    t0, c0 = time.perf_counter(), time.process_time()
    m4 = S.build_fermat_model(4)
    m5 = S.build_fermat_model(5)
    v4 = S.model_validate(m4)
    v5 = S.model_validate(m5)
    summary = R.verify_all(models={"fermat4": m4, "fermat5": m5})
    dt, dc = time.perf_counter() - t0, time.process_time() - c0
    lattices = job["lattices"]
    for m, v in ((m4, v4), (m5, v5)):
        want = lattices[str(m.degree)]
        chk.expect(list(m.generators) == want["names"], f"{m.name}: generator names")
        chk.expect([list(r) for r in m.gram] == want["gram"], f"{m.name}: Gram != oracle")
        chk.expect(v.ok, f"{m.name}: model_validate reports violations")
    chk.expect(
        summary.ok and summary.failed_claims == 0 and summary.total_claims > 0,
        f"verify_all: {summary.failed_claims} of {summary.total_claims} claims failed",
    )
    return dt, dc, True


# --- session_queries -------------------------------------------------------------


def session_setup(pkg):
    pkg["surfaces"].fermat_model(4)
    pkg["surfaces"].fermat_model(5)


def session_op(pkg, op, chk):
    """One query; returns (wall s, cpu s, completed)."""
    C, V, E, G, S = (pkg[n] for n in ("classify", "divisors", "exprs", "geometry", "surfaces"))
    kind = op["kind"]
    t0, c0 = time.perf_counter(), time.process_time()
    if kind == "divisor":
        d = S.fermat_model(op["model"]).parse(op["expr"])
        got = [V.degree(d), V.genus(d), V.chi(d), V.k_invariant(d)]
    elif kind == "classify":
        v = C.classify_numeric(*op["args"])
        got = [v.status.value, v.rule]
    elif kind == "witness":
        m = S.fermat_model(op["model"])
        target = m.parse(op["target"])
        found = C.search_witness(op["prop"], target, bound=10)
        w = found
        if w is None and op["rewritten"]:
            w = V.Decomposition.of(*(m.parse(p) for p in op["witness"]))
        v = None if w is None else C.check_witness(op["prop"], target, w)
        got = None if v is None else [v.status.value, v.rule]
    elif kind == "connected":
        m = S.fermat_model(op["model"])
        dec = V.Decomposition(tuple((m.gen_class(n), k) for n, k in op["parts"]))
        res = V.is_m_connected(dec, op["m"])
        got = [res.connected, res.minimum]
    else:  # intersect
        got = G.lines_meet(E.parse_line(op["a"]), E.parse_line(op["b"])).name
    dt, dc = time.perf_counter() - t0, time.process_time() - c0

    if kind == "classify":
        status, rule = op["expect"]
        ok = got[0] == status and (rule is None or got[1] == rule)
        chk.expect(ok, f"classify_numeric{tuple(op['args'])} = {got}, want {op['expect']}")
    elif kind == "witness":
        ok = got == ["NOT_ACM", op["expect"]]
        if op["rewritten"]:
            # a known fault: equal classes written differently are not
            # recognised, so these count as failed, not as incorrect
            return dt, dc, ok
        chk.expect(found is not None and ok,
                   f"{op['prop']} target {op['target']}: got {got}, want NOT_ACM {op['expect']}")
    else:
        chk.expect(got == op["expect"], f"{kind} {op}: got {got}")
    return dt, dc, True


# --- cli_cold ----------------------------------------------------------------------


def child_env(src):
    """Environment of every process the benchmark starts: the package from
    src (it is not installed), a pinned hash seed, and bytecode caching on
    whatever the caller's environment says, so that imports are timed from
    the cache that the first, untimed process writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


TRACE_MARK = "PERFBENCH-TRACE "


def run_cli(argv, env, traced):
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "acmcurves.cli", *argv]
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    dc = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return proc, dt, dc


def check_cli(cmd, proc, chk):
    out = proc.stdout.splitlines()
    label = " ".join(cmd["argv"][:2])
    if not chk.expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}"):
        return
    want = cmd["expect"]
    verb = cmd["argv"][0]
    if verb == "classify":
        status, rule = want
        head = out[0].split() if out else []
        ok = bool(head) and head[0] == status and (rule is None or head[1:] == [f"rule={rule}"])
        chk.expect(ok, f"{label}: first line {out[:1]}, want {want}")
    elif verb == "intersect":
        chk.expect(out[:1] and out[0].split()[0] == want, f"{label}: {out[:1]}, want {want}")
    elif verb == "invariants":
        chk.expect(out == want, f"{label}: {out}, want {want}")
    elif verb == "witness":
        chk.expect(f"NOT_ACM rule={want}" in out and out[0].startswith("witness: "),
                   f"{label}: {out[:2]}, want NOT_ACM rule={want}")
    else:  # repro all
        tail = out[-1].split() if out else []
        chk.expect(len(tail) == 6 and tail[4:] == ["0", "failed"] and int(tail[2]) > 0,
                   f"{label}: last line {out[-1:]}")


def merge_trace(total, stderr):
    for line in stderr.splitlines():
        if line.startswith(TRACE_MARK):
            for key, vals in json.loads(line[len(TRACE_MARK):]).items():
                total[key] = [a + b for a, b in zip(total.get(key, (0, 0.0, 0)), vals)]
            return True
    return False


# --- the loop --------------------------------------------------------------------


# kernel.active() while that module exists, otherwise the one Python path
ARITHMETIC = (
    "import sys, acmcurves; active = getattr(sys.modules.get('acmcurves.kernel'), 'active', None); "
    "print(active() if active else 'python')"
)


def main():
    job = json.load(sys.stdin)
    workload, src = job["workload"], job["src"]
    chk = Checker()
    lat, cpu, attempted, failed = [], 0.0, 0, 0
    tracer = None
    cli_trace = {}
    env = child_env(src)

    probe = subprocess.run([sys.executable, "-c", ARITHMETIC], env=env,
                           capture_output=True, text=True)
    if probe.returncode:
        sys.exit(f"cannot import acmcurves from {src}: {probe.stderr[-500:]}")
    arithmetic = probe.stdout.strip()
    rounds_ops = job["ops"]  # whole rounds, each of the same make-up
    if workload == "cli_cold":
        warm = {}
        for cmd in rounds_ops[0]:
            warm.setdefault(cmd["argv"][0], cmd)
        for cmd in warm.values():  # untimed; writes the bytecode cache
            run_cli(cmd["argv"], env, False)
    else:
        pkg = load_package(src)
        if job["trace"]:
            import tracing

            tracer = tracing.install()
        if workload == "session_queries":
            session_setup(pkg)

    rounds = 0
    deadline = time.perf_counter() + (job["seconds"] or 0)
    while True:
        for op in rounds_ops[rounds % len(rounds_ops)]:
            attempted += 1
            if workload == "cli_cold":
                proc, dt, dc = run_cli(op["argv"], env, job["trace"])
                check_cli(op, proc, chk)
                if job["trace"]:
                    chk.expect(merge_trace(cli_trace, proc.stderr), "traced CLI sent no trace")
                done = True
            elif workload == "session_queries":
                dt, dc, done = session_op(pkg, op, chk)
            else:
                dt, dc, done = repro_fresh_op(pkg, job, chk)
            cpu += dc
            if done:
                lat.append(dt)
            else:
                failed += 1
        rounds += 1
        if job["rounds"]:
            if rounds >= job["rounds"]:
                break
        elif time.perf_counter() >= deadline:
            break

    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    result = {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "errors": chk.errors,
        "latencies": lat,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "arithmetic": arithmetic,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["absent"] = tracer.absent
    if workload == "cli_cold" and job["trace"]:
        result["trace"] = cli_trace
    print(json.dumps(result))


if __name__ == "__main__":
    main()
