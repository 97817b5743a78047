import pytest

from acmcurves.cyclo import CycNum
from acmcurves.geometry import Line
from acmcurves.surfaces import builtin_model, fermat_model


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
