"""The traced benchmark run (perfbench/layertrace.py) wraps program functions
by module and attribute name.  Every name it lists must still exist, so a
refactor that drops or renames one fails here and not only in a traced run.
The module is loaded from its file and nothing is patched."""

import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layertrace = _layertrace()
    for name, module, attr in layertrace.SPANS + layertrace.COUNTS:
        owner, leaf = layertrace._resolve(module, attr)
        assert callable(vars(owner)[leaf]), name


def test_a_dropped_name_is_reported():
    layertrace = _layertrace()
    with pytest.raises(layertrace.MissingTarget):
        layertrace._resolve("insep.artin", "FiniteLocalAlgebra.no_such_method")
    with pytest.raises(layertrace.MissingTarget):
        layertrace._resolve("insep.no_such_module", "anything")
