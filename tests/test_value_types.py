"""The contract of the package's nine immutable value types: fields cannot be
assigned, equal fields give equal values with equal hashes, the repr names the
type, permutations sort by their images, and the validating constructors
still refuse bad input."""

import pytest

from essdim.bounds import SearchResult
from essdim.constructions import ConstructionError, RepPlan
from essdim.edcalc import EdReport
from essdim.genfree import GenFreeVerdict
from essdim.lattice import IntegerMatrix, LatticeError, LatticeSpec, WeightSet, standard_weight
from essdim.permgroup import Perm, PermGroupSpec


def _weights():
    spec = LatticeSpec(3)
    return WeightSet.of([standard_weight(1, 2, spec), standard_weight(2, 3, spec)], spec)


# (type, a factory giving a fresh value with the same fields on every call,
#  one field name)
VALUES = [
    (Perm, lambda: Perm((2, 3, 1)), "images"),
    (PermGroupSpec,
     lambda: PermGroupSpec((Perm((2, 1, 3)),), 1, 2, 3, ((2, 3),)), "generators"),
    (LatticeSpec, lambda: LatticeSpec(4, 9), "modulus"),
    (WeightSet, _weights, "elements"),
    (IntegerMatrix, lambda: IntegerMatrix.of([[1, 2], [3, 4]]), "rows"),
    (SearchResult, lambda: SearchResult(2, _weights(), 3, 4, 0.5), "minimum"),
    (RepPlan, lambda: RepPlan("a", 3, 2, _weights(), ((1, "summand"),), 3), "total_dimension"),
    (EdReport, lambda: EdReport(3, 2, "a", 1, 1, 3, True), "value"),
    (GenFreeVerdict,
     lambda: GenFreeVerdict(True, True, "lemma 3.4", True, (("(1 2)", (1, -1)),)),
     "overall"),
]
IDS = [t.__name__ for t, _, _ in VALUES]


@pytest.mark.parametrize("kind, make, field", VALUES, ids=IDS)
def test_field_assignment_raises(kind, make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) == before


@pytest.mark.parametrize("kind, make, field", VALUES, ids=IDS)
def test_equal_fields_are_equal_with_equal_hashes(kind, make, field):
    a, b = make(), make()
    assert a is not b
    assert isinstance(a, kind)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("kind, make, field", VALUES, ids=IDS)
def test_repr_names_the_type(kind, make, field):
    assert repr(make()).startswith(kind.__name__ + "(")


def test_different_fields_differ():
    assert Perm((2, 3, 1)) != Perm((3, 1, 2))
    assert LatticeSpec(4, 9) != LatticeSpec(4, 3)
    assert EdReport(3, 2, "a", 1, 1, 3, True) != EdReport(3, 2, "a", 1, 1, 3, False)


def test_cached_data_survives_immutability():
    g = Perm((2, 3, 1))
    assert g.gather((10, 20, 30)) == (30, 10, 20)
    assert g.gather is g.gather
    ws = _weights()
    assert ws.index(standard_weight(1, 2, ws.spec)) == 1
    assert standard_weight(1, 3, ws.spec) not in ws


def test_perms_sort_by_images():
    perms = [Perm((3, 1, 2)), Perm((1, 2, 3)), Perm((2, 3, 1)), Perm((1, 3, 2))]
    assert [g.images for g in sorted(perms)] == sorted(g.images for g in perms)


@pytest.mark.parametrize("args", [(0,), (4, 6), (3, -2)])
def test_lattice_spec_still_validates(args):
    with pytest.raises(LatticeError):
        LatticeSpec(*args)


def test_lattice_spec_defaults_to_integers():
    assert LatticeSpec(5).modulus == 0
    assert LatticeSpec(n=5, modulus=25).prime == 5


def test_rep_plan_checks_its_total_dimension():
    with pytest.raises(ConstructionError, match="dimension bookkeeping"):
        RepPlan("a", 3, 2, _weights(), ((1, "summand"),), 4)


def test_report_and_verdict_defaults():
    report = EdReport(3, 2, "a", 1, 1, 3, True)
    assert report.field_hypothesis.startswith("char(k) != p")
    verdict = GenFreeVerdict(True, False, "lemma 3.4", False)
    assert verdict.witnesses == () and verdict.detail == ""
