"""Per-layer call counts and self time, installed from outside the package.

install() wraps, after acmcurves is imported, every public function of the
layer modules and the public methods and arithmetic operators of their
classes.  A wrapper replaces its function at every binding site in the
acmcurves.* module namespaces (surfaces and repro import lines_meet, Line
and others by name), and methods are replaced on their class, so class
names and isinstance checks are untouched.  Nothing under src/ is edited.

Self time is a call's duration minus the duration of the wrapped calls it
made.  The time of an unwrapped helper (kernel arithmetic, private
functions) counts as self time of the wrapped function that called it, so
the kernel's time shows in cyclo.self_s.
"""

import functools
import sys
import time
import types
from enum import Enum

# layer -> modules whose functions it wraps.  The kernel modules
# (acmcurves.kernel, acmcurves._corepy) are left unwrapped: only CycNum
# calls them, so their time is cyclo self time without a wrapper per
# coefficient operation.
LAYERS = {
    "cyclo": ("acmcurves.cyclo",),
    "geometry": ("acmcurves.geometry",),
    "surfaces": ("acmcurves.surfaces",),
    "divisors": ("acmcurves.divisors",),
    "exprs": ("acmcurves.exprs",),
    "classify": ("acmcurves.classify",),
    "repro": ("acmcurves.repro",),
    "cli": ("acmcurves.cli",),
}

# reported function metrics -> (module, qualified names) they sum
NAMED = {
    "cyclo.mul": ("acmcurves.cyclo", ("CycNum.__mul__", "CycNum.__rmul__")),
    "cyclo.add": ("acmcurves.cyclo", ("CycNum.__add__", "CycNum.__radd__", "CycNum.__sub__",
                                      "CycNum.__rsub__", "CycNum.__neg__")),
    "cyclo.lift": ("acmcurves.cyclo", ("CycNum.lift",)),
    "cyclo.inverse": ("acmcurves.cyclo", ("CycNum.inverse",)),
    "cyclo.eq": ("acmcurves.cyclo", ("CycNum.__eq__",)),
    "geometry.line": ("acmcurves.geometry", ("Line.__init__",)),
    "geometry.lines_meet": ("acmcurves.geometry", ("lines_meet",)),
    "geometry.line_on_fermat": ("acmcurves.geometry", ("line_on_fermat",)),
    "surfaces.build_fermat_model": ("acmcurves.surfaces", ("build_fermat_model",)),
    "surfaces.fermat_model": ("acmcurves.surfaces", ("fermat_model",)),
    "surfaces.model_validate": ("acmcurves.surfaces", ("model_validate",)),
    "divisors.pair": ("acmcurves.divisors", ("pair",)),
    "divisors.is_m_connected": ("acmcurves.divisors", ("is_m_connected",)),
    "divisors.certify_effective": ("acmcurves.divisors", ("certify_effective",)),
    "classify.classify_numeric": ("acmcurves.classify", ("classify_numeric",)),
    "classify.check_witness": ("acmcurves.classify", ("check_witness",)),
    "classify.search_witness": ("acmcurves.classify", ("search_witness",)),
    "exprs.parse_divisor": ("acmcurves.exprs", ("parse_divisor",)),
    "exprs.parse_line": ("acmcurves.exprs", ("parse_line",)),
    "repro.run_example": ("acmcurves.repro", ("run_example",)),
    "cli.main": ("acmcurves.cli", ("main",)),
}

# left unwrapped so that their time counts as self time of their caller:
# the incidence determinant belongs to lines_meet
FOLDED = frozenset(("geometry.stacked_determinant",))

# named by the benchmark or its README; a later change may remove them
OPTIONAL = ("acmcurves.kernel:active", "acmcurves.geometry:stacked_determinant")

DUNDERS = frozenset((
    "__init__", "__eq__", "__hash__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
))

CALLS, SELF, DEPTH, EXTRA = range(4)


class Tracer:
    """Counters for one process; stats[key] = [calls, self s, depth, extra]."""

    def __init__(self):
        self.stats = {}
        self.stack = [0.0]  # child time of each open call; base is a sentinel
        self.absent = []
        self.wrapped = set()

    def wrap(self, fn, key, hook=None):
        self.wrapped.add(key)
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[CALLS] += 1
            stat[DEPTH] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat[SELF] += dt - stack.pop()
                stack[-1] += dt
                stat[DEPTH] -= 1
            if hook is not None:
                hook(stat, result)
            return result

        return wrapper

    def snapshot(self):
        return {k: [v[CALLS], v[SELF], v[EXTRA]] for k, v in self.stats.items()}


def _owned(mod):
    """(qualname, owner, attribute, function) for the module's wrap targets."""
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            if issubclass(obj, (Enum, BaseException)):
                continue
            for attr, fn in sorted(vars(obj).items()):
                if isinstance(fn, types.FunctionType) and (
                    attr in DUNDERS or not attr.startswith("_")
                ):
                    out.append((f"{name}.{attr}", obj, attr, fn))
        elif callable(obj):
            out.append((name, mod, name, obj))
    return out


def install():
    """Wrap every layer function; returns the Tracer that counts them."""
    tracer = Tracer()
    building = tracer.stats.setdefault("surfaces.fermat_model", [0, 0.0, 0, 0])

    def count_build(stat, result):  # a build made inside fermat_model is a miss
        if building[DEPTH]:
            stat[EXTRA] += 1

    def count_found(stat, result):
        if result is not None:
            stat[EXTRA] += 1

    hooks = {
        "surfaces.build_fermat_model": count_build,
        "classify.search_witness": count_found,
    }
    replace = {}  # id(original) -> wrapper, for the module namespaces
    for layer, modnames in LAYERS.items():
        for modname in modnames:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            short = modname.rsplit(".", 1)[1]
            for qual, owner, attr, fn in _owned(mod):
                key = f"{short}.{qual}"
                if key in FOLDED:
                    continue
                if isinstance(owner, type):
                    setattr(owner, attr, tracer.wrap(fn, key))
                elif id(fn) not in replace:
                    replace[id(fn)] = tracer.wrap(fn, key, hooks.get(key))
    for modname, mod in list(sys.modules.items()):
        if modname == "acmcurves" or modname.startswith("acmcurves."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, name, replace[id(obj)])
    for modname, quals in NAMED.values():
        if modname not in sys.modules:  # not loaded by this workload (cli)
            continue
        short = modname.rsplit(".", 1)[1]
        for qual in quals:
            if f"{short}.{qual}" not in tracer.wrapped:
                tracer.absent.append(f"{modname}:{qual}")
    for spec in OPTIONAL:
        modname, name = spec.split(":")
        if not hasattr(sys.modules.get(modname), name):
            tracer.absent.append(spec)
    return tracer
