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
