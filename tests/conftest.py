"""Interpreters that the tests start import naryalg from this checkout."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(autouse=True, scope="session")
def _children_import_the_checkout():
    # pyproject.toml puts src on the test process's sys.path; child
    # processes read PYTHONPATH instead
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield
