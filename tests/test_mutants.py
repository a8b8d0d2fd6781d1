"""Every committed mutant still applies, and every test it names exists.

Running the mutants takes about a minute, so ``tests/mutants.py`` stays
out of the suite; these checks are cheap and catch a refactor that moves
or rewrites a mutated line, or renames a test that a mutant names.
"""

import ast
import os
import shutil

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_to_its_file(mutant, tmp_path):
    source = os.path.join(mutants.ROOT, mutant.file)
    copy = tmp_path / mutant.file
    copy.parent.mkdir(parents=True)
    shutil.copy(source, copy)
    mutants.apply(mutant, str(tmp_path))
    with open(source) as f:
        assert copy.read_text() != f.read()


def test_mutant_names_are_unique():
    # main() selects mutants through a dict by name, so of two mutants
    # with one name ``python tests/mutants.py NAME`` would run only one
    names = [m.name for m in mutants.MUTANTS]
    assert sorted({n for n in names if names.count(n) > 1}) == []


def _test_names(path):
    with open(os.path.join(mutants.ROOT, path)) as f:
        tree = ast.parse(f.read())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_every_named_test_exists():
    names = {}
    missing = []
    for m in mutants.MUTANTS:
        for test in m.tests:
            path, _, name = test.partition("::")
            if path not in names:
                names[path] = _test_names(path)
            if name.split("[")[0] not in names[path]:
                missing.append(f"{m.name}: {test}")
    assert not missing


def test_a_function_selector_selects_every_mutant_of_that_function():
    # checked without running any mutant
    closure = "src/naryalg/classify.py::_closes_to_so"
    want = [m for m in mutants.MUTANTS
            if (m.file, m.function) == (mutants.CLASSIFY, "_closes_to_so")]
    assert len(want) >= 4
    assert mutants.select([closure]) == (want, [])
    # a name and a selector that both pick a mutant pick it once
    assert mutants.select([want[1].name, closure]) == \
        ([want[1]] + want[:1] + want[2:], [])
    assert mutants.select([]) == (mutants.MUTANTS, [])


def test_an_unknown_selector_exits_2_before_any_run(monkeypatch, capsys):
    def no_run(root, tests):
        raise AssertionError("a test run started")

    monkeypatch.setattr(mutants, "run_tests", no_run)
    for bad in ("src/naryalg/classify.py::no_such_function",
                "src/naryalg/nowhere.py::_closes_to_so",
                "src/naryalg/classify.py", "no-such-mutant"):
        assert mutants.main(["commutator-sign-flipped", bad]) == 2
        assert bad in capsys.readouterr().err
