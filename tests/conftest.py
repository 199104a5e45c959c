import pytest

from spdzgen import modmath
from spdzgen.modmath import DEFAULT_GROUP_256, TINY_GROUP


def _backend_line():
    return "modexp backend: %s" % modmath.modexp_backend()


def pytest_report_header(config):
    return _backend_line()


def pytest_terminal_summary(terminalreporter):
    # `-q` drops the header; this line keeps the backend in quiet logs too
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_backend_line())


@pytest.fixture
def tiny():
    return TINY_GROUP


@pytest.fixture(scope="session")
def group256():
    return DEFAULT_GROUP_256


@pytest.fixture
def modexp_backend(request, monkeypatch):
    """"loaded" keeps the backends modmath bound at import; "pow" puts builtin
    pow and the pure-Python Jacobi symbol in their place.  Parametrized
    through `helpers.both_backends`."""
    if request.param == "pow":
        monkeypatch.setattr(modmath, "_powmod", pow)
        monkeypatch.setattr(modmath, "_jacobi_symbol", modmath._jacobi)
    return request.param
