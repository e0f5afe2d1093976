import pytest

from essdim import constructions
from essdim.constructions import (
    ConstructionError,
    build_plan,
    case_c_length,
    case_of,
    kernel_witness,
    lambda_a,
    lambda_b,
    lambda_c,
    lambda_d,
    permute_coefficients,
    witness_size,
)
from essdim.bounds import predicted_bound
from essdim.edcalc import ed_value
from essdim.lattice import MAX_WITNESS_ENTRIES, LatticeSpec, WeightSet, spans, standard_weight
from essdim.permgroup import (act, center_order_p_elements, orbit, p_adic_digits,
                              sylow_subgroup)
from oracles import closed_lambda_d, phi_image


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

    def test_listed_in_canonical_order(self):
        # the fan is listed, not sorted: it must be the sorted set of its weights
        for n in range(1, 200):
            for p in (2, 3, 5, 7):
                if n % p:
                    spec = LatticeSpec(n)
                    weights = lambda_a(n, p).torus_weights
                    assert weights == WeightSet.of(
                        [standard_weight(1, i, spec) for i in range(2, n + 1)], spec)


class TestCaseB:
    @pytest.mark.parametrize("p,size,total", [(2, 2, 3), (3, 3, 4), (5, 5, 6)])
    def test_dimensions(self, p, size, total):
        plan = lambda_b(p)
        assert len(plan.torus_weights) == size
        assert plan.total_dimension == total

    def test_p2_degenerate_pair(self):
        ws = lambda_b(2).torus_weights
        assert ws.to_json() == [[-1, 1], [1, -1]]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_listed_in_canonical_order(self, p):
        # the chain is listed, not sorted: it must be the sorted set of its weights
        spec = LatticeSpec(p)
        chain = [standard_weight(i, i % p + 1, spec) for i in range(1, p + 1)]
        assert lambda_b(p).torus_weights == WeightSet.of(chain, spec)

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


class TestWitnessSize:
    """witness_size is the one formula for |Lambda|; the paper's closed forms
    are written out again here, apart from it."""

    @staticmethod
    def paper_size(n, p):
        pe = 1
        while n % (pe * p) == 0:
            pe *= p
        if n % p:
            return n - 1  # the fan a[1,i]
        if n == pe:
            return n * n // p  # p^(2r-1); p at r = 1, the chain of case (b)
        return pe * (n - pe)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_built_bound_and_value(self, p):
        for n in range(1, 131):
            size = witness_size(n, p)
            assert size == self.paper_size(n, p)
            assert size == predicted_bound(n, p, p)["bound"]
            if size * n > MAX_WITNESS_ENTRIES:
                continue
            case = case_of(n, p)
            assert len(build_plan(case, n, p).torus_weights) == size
            report = ed_value(n, p)
            if case in ("c", "d"):
                # ed = |Lambda| - (n - 1) in the two cases without extra summands
                assert report.value == size - n + 1
            assert report.consistency


# every (p, r) whose case (c) witness set, p^(2r-1) weights of length p^r,
# fits in MAX_WITNESS_ENTRIES: all that lambda_c, and so ed, accepts
CASE_C_DOMAIN = ([(2, r) for r in range(2, 9)] + [(3, r) for r in range(2, 6)]
                 + [(p, r) for p in (5, 7) for r in (2, 3)]
                 + [(p, 2) for p in (11, 13, 17, 19, 23)])


class TestClosedFormOrbits:
    """The witness sets against their definitions, element for element in
    canonical order: case (c)'s closed form against the P_n-orbit closure of
    a[1, p^(r-1)+1], and case (d)'s orbit closures against the closed form
    in tests/oracles.py."""

    @pytest.mark.parametrize("p,r", CASE_C_DOMAIN)
    def test_lambda_c(self, p, r):
        n = p ** r
        spec = LatticeSpec(n)
        closure = orbit(sylow_subgroup(n, p), standard_weight(1, p ** (r - 1) + 1, spec), spec)
        assert lambda_c(p, r).torus_weights == closure

    def test_lambda_c_domain_is_complete(self):
        # the next r for each prime above, and every larger prime, is refused
        for p, r in [(2, 9), (3, 6), (5, 4), (7, 4), (11, 3), (23, 3), (29, 2)]:
            with pytest.raises(ConstructionError, match="witness set too large"):
                lambda_c(p, r)

    def test_lambda_c_builds_no_orbit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lambda_c closed an orbit")

        monkeypatch.setattr(constructions, "orbit", refuse)
        assert len(lambda_c(2, 6).torus_weights) == 2 ** 11

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lambda_d(self, p):
        for n in range(2 * p, 101):
            if case_of(n, p) == "d":
                assert lambda_d(n, p).torus_weights == closed_lambda_d(n, p), n

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lambda_d_pairs(self, p):
        # the pairs read off the sorted closure come in the closed form's
        # canonical order
        for n in range(2 * p, 101):
            if case_of(n, p) == "d":
                assert lambda_d(n, p).torus_weights.pairs == closed_lambda_d(n, p).pairs, n


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

    def test_case_c_length_refused_before_the_power(self):
        # p^(3r-1) >= 2^(3r-1) entries: r = 9 is past 2^24 for every p.  2^9
        # is formed and refused by check_size's exact count; the other two
        # powers, of over 2^16 bits, are refused unformed, from 2^(3r-1)
        assert case_c_length(2, 8) == 256
        for p, r in [(2, 9), (3, 10 ** 9), (10 ** 6 + 3, 10 ** 9)]:
            with pytest.raises(ConstructionError, match="witness set too large"):
                case_c_length(p, r)


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_plan_is_pair_listed(p):
    # the one form spans and the certificate read over Z, in every case; a
    # tag outside the case of (n, p) is refused
    for n in range(1, 65):
        for case in "abcd":
            if case != case_of(n, p):
                with pytest.raises(ConstructionError):
                    build_plan(case, n, p)
                continue
            lam = build_plan(case, n, p).torus_weights
            assert lam.pairs is not None and len(lam.pairs) == len(lam), (case, n, p)


def test_build_plan_dispatch():
    assert build_plan("a", 5, 2).case_tag == "a"
    assert build_plan("b", 3, 3).case_tag == "b"
    assert build_plan("c", 8, 2).case_tag == "c"
    assert build_plan("d", 6, 2).case_tag == "d"
    with pytest.raises(ConstructionError):
        build_plan("c", 6, 2)


class TestCaseRule:
    """case_of is the one four-case classifier, and check_plan refuses in a
    fixed order: p not a prime, then n < 1 (r < 2 in case (c)), then the
    case, then the witness size."""

    @staticmethod
    def paper_case(n, p):
        # the paper's definitions, by n mod p, n = p and the base-p digits
        digits = []
        m = n
        while m:
            digits.append(m % p)
            m //= p
        if n % p != 0:
            return "a"
        if n == p:
            return "b"
        if digits[-1] == 1 and not any(digits[:-1]):  # n = p^r, r >= 2
            return "c"
        return "d"

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_case_of_matches_the_paper(self, p):
        for n in range(1, 301):
            assert case_of(n, p) == self.paper_case(n, p), n

    RULES = {"a": "p not dividing n", "b": "n = p", "c": "n = p^r with r >= 2",
             "d": "p | n and n not a p-power"}

    @pytest.mark.parametrize("n,p", [(1, 2), (5, 2), (2, 2), (8, 2), (12, 2), (7, 3), (3, 3),
                                     (9, 3), (6, 3), (25, 5), (10, 5)])
    def test_build_plan_refuses_each_wrong_tag(self, n, p):
        for tag, rule in self.RULES.items():
            if tag == case_of(n, p):
                assert build_plan(tag, n, p).case_tag == tag
                continue
            with pytest.raises(ConstructionError) as excinfo:
                build_plan(tag, n, p)
            assert str(excinfo.value) == f"case ({tag}) needs {rule}; got n={n}, p={p}"

    @pytest.mark.parametrize("case,n,p,message", [
        ("c", 0, 4, "p=4 is not a prime"),
        ("a", -6, 1, "p=1 is not a prime"),
        ("c", 0, 2, "n must be positive, got 0"),
        ("a", -6, 5, "n must be positive, got -6"),
        ("d", 1, 2, "case (d) needs p | n and n not a p-power; got n=1, p=2"),
        ("b", 1024, 2, "case (b) needs n = p; got n=1024, p=2"),
        ("c", 1024, 2, "witness set too large"),
        ("e", 12, 2, "unknown case tag 'e'"),
    ])
    def test_refusal_order(self, case, n, p, message):
        with pytest.raises(ConstructionError) as excinfo:
            build_plan(case, n, p)
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("p,r,message", [
        (0, -1, "p=0 is not a prime"),
        (4, 10 ** 9, "p=4 is not a prime"),
        (2, -1, "case (c) needs n = p^r with r >= 2; got r=-1, p=2"),
        (3, 1, "case (c) needs n = p^r with r >= 2; got r=1, p=3"),
        (2, 10 ** 9, "witness set too large"),
    ])
    def test_case_c_length_refusal_order(self, p, r, message):
        with pytest.raises(ConstructionError) as excinfo:
            case_c_length(p, r)
        assert str(excinfo.value).startswith(message)
