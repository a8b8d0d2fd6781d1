"""The benchmark's span table names only functions the engine defines."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_spans().WRAPPED


@pytest.mark.parametrize("layer", sorted(WRAPPED))
def test_wrapped_names_resolve(layer):
    module = importlib.import_module(f"naryalg.{layer}")
    missing = [name for name in WRAPPED[layer]
               if not callable(getattr(module, name, None))]
    assert not missing, f"naryalg.{layer} lacks {missing}"
