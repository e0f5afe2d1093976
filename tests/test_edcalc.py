import pytest

from essdim.constructions import case_of
from essdim.edcalc import EdError, ed_table, ed_value
from essdim.lattice import LatticeSpec, WeightSet
from oracles import pgl_upper_bound


def formula(n, p):
    if n % p != 0:
        return n // p
    if n == p:
        return 2
    m, r = n, 0
    while m % p == 0:
        m //= p
        r += 1
    if m == 1:
        return n * n // p - n + 1
    pe = p ** r
    return pe * (n - pe) - n + 1


class TestCaseDetection:
    def test_exactly_one_case(self):
        for p in (2, 3, 5):
            for n in range(1, 65):
                case = case_of(n, p)
                assert case in "abcd"
                if case == "a":
                    assert n % p != 0
                elif case == "b":
                    assert n == p
                elif case == "c":
                    m = n
                    while m % p == 0:
                        m //= p
                    assert m == 1 and n >= p * p
                else:
                    assert n % p == 0 and n != p


class TestEdValue:
    @pytest.mark.parametrize("n,p,case,value", [
        (5, 2, "a", 2),
        (4, 2, "c", 5),
        (6, 2, "d", 3),
        (3, 3, "b", 2),
        (9, 3, "c", 19),
        (8, 2, "c", 25),
        (12, 2, "d", 21),
        (1, 2, "a", 0),
    ])
    def test_examples(self, n, p, case, value):
        report = ed_value(n, p)
        assert report.case_tag == case
        assert report.value == value

    def test_matches_formula_text(self):
        for p in (2, 3, 5):
            for n in range(1, 33):
                report = ed_value(n, p)
                assert report.value == formula(n, p)
                assert report.value >= 0

    def test_witness_consistency(self):
        for p in (2, 3, 5):
            for n in range(1, 28):
                assert ed_value(n, p).consistency, (n, p)

    def test_case_c_builds_no_weight_tuple(self, monkeypatch):
        # Lambda_c is counted from its index pairs: no weight is validated
        # and no set's tuples are read
        def refuse(*args):
            raise AssertionError("a weight tuple was built")

        monkeypatch.setattr(LatticeSpec, "weight", refuse)
        monkeypatch.setattr(WeightSet, "elements", property(refuse))
        report = ed_value(128, 2)
        assert report.case_tag == "c"
        assert report.consistency
        assert report.witness_total_dimension == 2 ** 13

    def test_p_power_field(self):
        assert ed_value(12, 2).p_power == 4
        assert ed_value(5, 2).p_power == 1
        assert ed_value(27, 3).p_power == 27

    def test_rejects_nonpositive(self):
        with pytest.raises(EdError):
            ed_value(0, 2)

    def test_table_checks_p_with_no_rows(self):
        # a table with no rows took any p; it is refused as ed_value refuses it
        assert ed_table(0, 2) == [] and ed_table(-3, 3) == []
        for max_n, p in [(0, 4), (-3, 9), (0, 0)]:
            with pytest.raises(EdError, match="is not a prime"):
                ed_table(max_n, p)


class TestPglUpperBound:
    @pytest.mark.parametrize("p,r,value", [(2, 2, 5), (3, 2, 19), (2, 3, 25)])
    def test_formula(self, p, r, value):
        assert pgl_upper_bound(p, r) == value

    def test_r1_rejected(self):
        with pytest.raises(EdError):
            pgl_upper_bound(3, 1)

    def test_agrees_with_case_c(self):
        for p, r in [(2, 2), (2, 3), (3, 2), (5, 2)]:
            n = p ** r
            assert pgl_upper_bound(p, r) == ed_value(n, p).value
