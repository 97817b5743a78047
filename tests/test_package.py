"""The package surface: lazy exports, one import direction, the README tour.

Each test runs in a fresh interpreter, so that what it imports is not
already loaded by other tests.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fresh(code):
    """Stdout of code run by a fresh interpreter with src first on sys.path.
    -S keeps site hooks out: a .pth file may import modules on its own."""
    prelude = "import sys; sys.path.insert(0, sys.argv[1])\n"
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", prelude + code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    return proc.stdout


def loaded_after(statement):
    return fresh(f"{statement}\n"
                 "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'acmcurves'))").split()


def test_imports_load_only_what_they_name():
    assert loaded_after("import acmcurves") == ["acmcurves"]
    assert loaded_after("import acmcurves.cyclo") == ["acmcurves", "acmcurves.cyclo"]
    # exprs sits below divisors and surfaces in the import direction
    assert loaded_after("import acmcurves.exprs") == [
        "acmcurves", "acmcurves.cyclo", "acmcurves.exprs", "acmcurves.geometry",
    ]
    # a package-level name loads its module and what that module imports
    assert loaded_after("import acmcurves; acmcurves.zeta") == ["acmcurves", "acmcurves.cyclo"]


def test_every_export_is_its_module_object():
    report = json.loads(fresh(textwrap.dedent("""
        import json, acmcurves
        names = acmcurves.__all__
        # the module that defines each name, and whether it binds that same object
        owners = {n: getattr(acmcurves, n).__module__ for n in names}
        same = [n for n in names if owners[n].startswith("acmcurves.")
                and getattr(sys.modules[owners[n]], n) is getattr(acmcurves, n)]
        star = {}
        exec("from acmcurves import *", star)
        try:
            acmcurves.not_an_export
            missing = None
        except AttributeError as exc:
            missing = str(exc)
        print(json.dumps({"names": names, "same": same,
                          "star": sorted(set(star) - {"__builtins__"}), "missing": missing}))
    """)))
    names = report["names"]
    assert len(names) == 36 and names == sorted(names)
    assert report["same"] == names
    assert report["star"] == names
    assert report["missing"] == "module 'acmcurves' has no attribute 'not_an_export'"


def test_readme_quick_tour_runs_on_package_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from acmcurves import (" in tour
    out = fresh(
        tour
        + "v = classify_numeric('quintic', 7, 5)\n"
        + "C = link(D, 3)\n"
        + "print(degree(D), genus(D), v.status.name, v.rule,\n"
        + "      check_witness('P4.7', D, w).status.name, degree(C), genus(C))\n"
    )
    assert out.split() == ["7", "5", "CONDITIONAL", "P4.7", "NOT_ACM", "8", "7"]
