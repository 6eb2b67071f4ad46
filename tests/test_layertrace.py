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


def test_matrix_spans_read_the_field_and_size_of_a_matrix():
    # the echelon span is named by the matrix's field and sized by its cells, so
    # a rename of Matrix.field, nrows or ncols fails here too
    from insep.fieldarith import FunctionField, Matrix, PrimeField

    layertrace = _layertrace()
    F3, K = PrimeField(3), FunctionField(3, ["s", "t"])
    over_fp = Matrix(F3, [[1, 2, 0], [0, 1, 1]])
    over_k = Matrix(K, [[K.gen("s")], [K.one()], [K.zero()], [K.gen("t")]])
    assert layertrace._matrix_span_name((over_fp,)) == "matrix.Fp.echelon"
    assert layertrace._matrix_span_name((over_k,)) == "matrix.K.echelon"
    assert (layertrace._matrix_cells((over_fp,)), layertrace._matrix_cells((over_k,))) == (6, 4)
    assert set(layertrace._matrix_span_name.names) == {"matrix.Fp.echelon", "matrix.K.echelon"}
