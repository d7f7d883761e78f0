"""The result records compare, hash and print by their field values and
refuse assignment, as frozen dataclasses do; a record holding a dict, the
flag vector or the skeletal family, is unhashable."""
import copy
import pickle

import pytest

import cdindex as cd
from cdindex.flagcd import LocalIndex
from cdindex.ncpoly import CdPolynomial, UniPolynomial
from cdindex.subdivision import DecompositionRow
from cdindex.toric import CorrespondenceReport

ONE = CdPolynomial.one()

# (class, field names, values, repr) for each frozen record
RECORDS = [
    (cd.HVector, ("d", "h"), (2, (1, 1)), "HVector(d=2, h=(1, 1))"),
    (cd.StackedPolytope, ("boundary", "triangulation", "order"),
     ("bd", "tri", (3,)),
     "StackedPolytope(boundary='bd', triangulation='tri', order=(3,))"),
    (cd.FlagVector, ("n", "values"), (1, {0: 1, 1: 1}),
     "FlagVector(n=1, values={0: 1, 1: 1})"),
    (LocalIndex, ("cd",), (ONE,), "LocalIndex(cd=CdPolynomial(1))"),
    (cd.ValidationReport, ("kind", "ok", "failures"), ("k", True, ()),
     "ValidationReport(kind='k', ok=True, failures=())"),
    (DecompositionRow, ("sigma", "local_cd", "upper_cd"), ("s", ONE, ONE),
     "DecompositionRow(sigma='s', local_cd=CdPolynomial(1), "
     "upper_cd=CdPolynomial(1))"),
    (cd.CdDecomposition, ("rows", "total"), ((), ONE),
     "CdDecomposition(rows=(), total=CdPolynomial(1))"),
    (cd.LocalHTable, ("rows", "total"), ((), UniPolynomial((1,))),
     "LocalHTable(rows=(), total=UniPolynomial(1))"),
    (CorrespondenceReport,
     ("rows", "top_identity", "bottom_identity"),
     ((), None, False),
     "CorrespondenceReport(rows=(), top_identity=None, "
     "bottom_identity=False)"),
    (cd.SkeletalFamily, ("subdivision", "posets", "maps"), ("m", (), ({},)),
     "SkeletalFamily(subdivision='m', posets=(), maps=({},))"),
]


def test_records_behave_as_the_dataclasses_they_replace():
    for cls, names, values, text in RECORDS:
        r = cls(*values)
        assert repr(r) == text
        assert tuple(getattr(r, name) for name in names) == values
        assert r == cls(**dict(zip(names, values)))
        assert r != cls("other", *values[1:]) and r != values
        assert pickle.loads(pickle.dumps(r)) == r == copy.copy(r)
        if cls in (cd.FlagVector, cd.SkeletalFamily):
            with pytest.raises(TypeError):
                hash(r)  # its values or maps are dicts
        else:
            assert hash(r) == hash(values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        for wrong in (values[:-1], values + (0,)):
            with pytest.raises(TypeError):
                cls(*wrong)
