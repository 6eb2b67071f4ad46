"""The traced benchmark run (perfbench/layertrace.py) wraps program functions
by module and attribute name.  Every name it lists must still exist, so a
refactor that drops or renames one fails here and not only in a traced run.
The module is loaded from its file; only the last test patches a method, to
count its calls."""

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


def test_invariant_d_reaches_the_traced_matrix_layer(monkeypatch):
    # the traced matrix.* metrics read Matrix._echelon, and the p-degree d of a
    # hypersurface is the rank of its dense rows [d lambda/dt; lambda]: its
    # elimination must still go through that method to count there
    from insep.fermat import PFermatHypersurface, invariant_d
    from insep.fieldarith import FunctionField, Matrix, parse_expr

    layertrace = _layertrace()
    assert ("matrix.echelon", "insep.fieldarith.matrix", "Matrix._echelon") in layertrace.SPANS
    shapes = []
    echelon = Matrix._echelon

    def counted(self):
        shapes.append((self.nrows, self.ncols))
        return echelon(self)

    monkeypatch.setattr(Matrix, "_echelon", counted)
    K = FunctionField(2, ["s", "t"])
    X = PFermatHypersurface(field=K, n=2, coeffs=tuple(parse_expr(e, K) for e in ("s", "t", "1")))
    # past the cache, which another test may have filled for the same X
    assert invariant_d.__wrapped__(X) == 2
    assert shapes == [(3, 3)]
