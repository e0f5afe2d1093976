import pytest

from essdim import constructions
from essdim.constructions import (
    ConstructionError,
    build_plan,
    kernel_witness,
    lambda_a,
    lambda_b,
    lambda_c,
    lambda_d,
    permute_coefficients,
    phi_image,
)
from essdim.edcalc import detect_case
from essdim.lattice import spans
from essdim.permgroup import act, center_order_p_elements, p_adic_digits, sylow_subgroup
from oracles import closed_lambda_c, closed_lambda_d


def assert_invariant(weights, group):
    members = set(weights.elements)
    for g in group.generators:
        for w in weights:
            assert act(g, w) in members


class TestCaseA:
    @pytest.mark.parametrize("n,p,size,extra,total", [
        (5, 2, 4, 2, 6),
        (3, 2, 2, 1, 3),
        (2, 3, 1, 0, 1),
        (7, 2, 6, 3, 9),
    ])
    def test_dimensions(self, n, p, size, extra, total):
        plan = lambda_a(n, p)
        assert len(plan.torus_weights) == size
        assert plan.extra_summands[0][0] == extra
        assert plan.total_dimension == total

    def test_rejects_divisible(self):
        with pytest.raises(ConstructionError):
            lambda_a(6, 2)

    def test_invariant_under_group(self):
        for n, p in [(5, 2), (7, 2), (7, 3)]:
            plan = lambda_a(n, p)
            assert_invariant(plan.torus_weights, sylow_subgroup(n, p))

    def test_spans(self):
        assert spans(lambda_a(5, 2).torus_weights)


class TestCaseB:
    @pytest.mark.parametrize("p,size,total", [(2, 2, 3), (3, 3, 4), (5, 5, 6)])
    def test_dimensions(self, p, size, total):
        plan = lambda_b(p)
        assert len(plan.torus_weights) == size
        assert plan.total_dimension == total

    def test_p2_degenerate_pair(self):
        ws = lambda_b(2).torus_weights
        assert ws.to_json() == [[-1, 1], [1, -1]]

    def test_cycle_orbit_structure(self):
        plan = lambda_b(3)
        assert_invariant(plan.torus_weights, sylow_subgroup(3, 3))
        assert spans(plan.torus_weights)


class TestCaseC:
    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2)])
    def test_orbit_size(self, p, r):
        plan = lambda_c(p, r)
        assert len(plan.torus_weights) == p ** (2 * r - 1)
        assert plan.extra_summands == ()

    def test_rejects_small_r(self):
        with pytest.raises(ConstructionError):
            lambda_c(2, 1)

    def test_invariant_and_spanning(self):
        for p, r in [(2, 2), (3, 2)]:
            plan = lambda_c(p, r)
            assert_invariant(plan.torus_weights, sylow_subgroup(p ** r, p))
            assert spans(plan.torus_weights)

    def test_big_block_adjacency(self):
        # each element points from big block i to big block i+1 mod p
        plan = lambda_c(2, 2)
        for w in plan.torus_weights:
            plus = w.index(1)
            minus = w.index(-1)
            assert (plus // 2 + 1) % 2 == minus // 2


class TestCaseD:
    @pytest.mark.parametrize("n,p,size", [
        (6, 2, 8),
        (12, 2, 32),
        (12, 3, 27),
        (10, 2, 16),
        (18, 3, 81),
    ])
    def test_sizes(self, n, p, size):
        pe = 1
        while n % (pe * p) == 0:
            pe *= p
        assert size == pe * (n - pe)
        plan = lambda_d(n, p)
        assert len(plan.torus_weights) == size

    def test_first_block_shape(self):
        plan = lambda_d(6, 2)
        for w in plan.torus_weights:
            plus = w.index(1) + 1
            minus = w.index(-1) + 1
            assert plus in (1, 2) and minus in (3, 4, 5, 6)

    def test_rejects_p_power_and_coprime(self):
        with pytest.raises(ConstructionError):
            lambda_d(8, 2)
        with pytest.raises(ConstructionError):
            lambda_d(5, 2)

    def test_invariant_and_spanning(self):
        for n, p in [(6, 2), (12, 2), (12, 3)]:
            plan = lambda_d(n, p)
            assert_invariant(plan.torus_weights, sylow_subgroup(n, p))
            assert spans(plan.torus_weights)


class TestClosedFormOrbits:
    """The witness sets, built as orbit closures, against their closed forms
    in tests/oracles.py, element for element in canonical order."""

    @pytest.mark.parametrize("p,r", [(p, r) for p in (2, 3, 5, 7, 11, 13)
                                     for r in range(2, 8) if p ** r <= 243])
    def test_lambda_c(self, p, r):
        assert lambda_c(p, r).torus_weights == closed_lambda_c(p, r)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lambda_d(self, p):
        for n in range(2 * p, 101):
            if detect_case(n, p) == "d":
                assert lambda_d(n, p).torus_weights == closed_lambda_d(n, p), n


class TestSizeBudget:
    @pytest.mark.parametrize("case,n,p", [("a", 5, 2), ("b", 5, 5), ("c", 8, 2), ("d", 12, 2)])
    def test_cap_is_the_formula_size(self, monkeypatch, case, n, p):
        # the refusal reads |Lambda| * n from the formula, so a cap of
        # exactly that many entries builds the plan and one less refuses it
        entries = len(build_plan(case, n, p).torus_weights) * n
        monkeypatch.setattr(constructions, "MAX_WITNESS_ENTRIES", entries)
        build_plan(case, n, p)
        monkeypatch.setattr(constructions, "MAX_WITNESS_ENTRIES", entries - 1)
        with pytest.raises(ConstructionError, match="witness set too large"):
            build_plan(case, n, p)


class TestPadicExpansion:
    def test_examples(self):
        assert p_adic_digits(6, 2) == (0, ((1, 1), (1, 2)))
        assert p_adic_digits(12, 2) == (0, ((1, 2), (1, 3)))
        assert p_adic_digits(8, 2) == (0, ((1, 3),))
        assert p_adic_digits(5, 2) == (1, ((1, 2),))

    def test_reconstruction(self):
        for n in range(1, 64):
            for p in (2, 3, 5):
                fixed, digits = p_adic_digits(n, p)
                total = fixed + sum(m * p ** e for m, e in digits)
                assert total == n


class TestKernelWitness:
    def test_case_c_small(self):
        coeffs, plan = kernel_witness("c", 4, 2)
        lam = plan.torus_weights
        assert sum(abs(c) for c in coeffs) == 2
        assert not any(phi_image(lam, coeffs))
        z = center_order_p_elements(sylow_subgroup(4, 2))[0]
        assert permute_coefficients(z, lam, coeffs) != coeffs

    def test_case_c_p3(self):
        coeffs, plan = kernel_witness("c", 9, 3)
        lam = plan.torus_weights
        assert sum(abs(c) for c in coeffs) == 3
        assert not any(phi_image(lam, coeffs))
        rot = next(z for z in center_order_p_elements(sylow_subgroup(9, 3)))
        assert permute_coefficients(rot, lam, coeffs) != coeffs

    def test_case_d(self):
        coeffs, plan = kernel_witness("d", 6, 2)
        lam = plan.torus_weights
        assert sorted(coeffs) == [-1, -1] + [0] * (len(coeffs) - 4) + [1, 1]
        assert not any(phi_image(lam, coeffs))
        # rotation of the first block must move the witness
        first_block_rot = next(
            z for z in center_order_p_elements(sylow_subgroup(6, 2))
            if z.cycle_string() == "(1 2)")
        assert permute_coefficients(first_block_rot, lam, coeffs) != coeffs

    def test_case_mismatch(self):
        with pytest.raises(ConstructionError):
            kernel_witness("b", 3, 3)


def test_build_plan_dispatch():
    assert build_plan("a", 5, 2).case_tag == "a"
    assert build_plan("b", 3, 3).case_tag == "b"
    assert build_plan("c", 8, 2).case_tag == "c"
    assert build_plan("d", 6, 2).case_tag == "d"
    with pytest.raises(ConstructionError):
        build_plan("c", 6, 2)
