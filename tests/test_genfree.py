import json
import random

import pytest

from essdim.cli import main
from essdim.constructions import (
    build_plan,
    kernel_witness,
    lambda_a,
    lambda_b,
    permute_coefficients,
)
from essdim import constructions, genfree, lattice
from essdim.genfree import (
    GenFreeError,
    _require_invariant,
    certify,
    check_certificate,
    check_lemma32,
    check_lemma34,
    kernel_action_faithful,
)
from essdim.lattice import (LatticeError, LatticeSpec, WeightSet, kernel_generators_mod, spans,
                            standard_weight)
from essdim.permgroup import (PermError, act, center_order_p_elements, orbit,
                              sylow_subgroup)
from oracles import (NOT_PAIRS, as_pairs, faithful_by_enumeration, faithful_on_center,
                     pair_set)


def random_invariant_set(rng, group, spec, max_orbits=3):
    weights = set()
    for _ in range(rng.randint(1, max_orbits)):
        ent = [rng.randint(-2, 2) for _ in range(spec.n - 1)]
        seed = spec.weight(ent + [-sum(ent)])
        weights.update(orbit(group, seed, spec))
    return WeightSet.of(weights, spec)


def random_invariant_pairs(rng, group, max_orbits=3):
    """A union of group orbits of a[i,j] over Z, listed from its pairs."""
    spec = LatticeSpec(group.n)
    weights = set()
    for _ in range(rng.randint(1, max_orbits)):
        i, j = rng.sample(range(1, group.n + 1), 2)
        weights.update(orbit(group, standard_weight(i, j, spec), spec))
    return as_pairs(WeightSet.of(weights, spec))


def dense(vec, size):
    """The sparse (position, coefficient) pairs as a coefficient tuple."""
    out = [0] * size
    for i, c in vec:
        out[i] = c
    return tuple(out)


class TestLemma34:
    def test_case_c_instances(self):
        for p, r in [(2, 2), (3, 2), (2, 3)]:
            n = p ** r
            verdict = check_lemma34(build_plan("c", n, p).torus_weights,
                                    sylow_subgroup(n, p))
            assert verdict.spans_ok and verdict.kernel_faithful and verdict.overall
            assert verdict.method == "center-reduction"

    def test_case_d_instances(self):
        for n, p in [(6, 2), (12, 2)]:
            verdict = check_lemma34(build_plan("d", n, p).torus_weights,
                                    sylow_subgroup(n, p))
            assert verdict.overall

    def test_swap_fixes_kernel(self):
        # opposite pair in n=2: kernel spanned by the all-ones relation,
        # which the swap fixes, so the action is not faithful
        lam = pair_set([(1, 2), (2, 1)], LatticeSpec(2))
        verdict = check_lemma34(lam, sylow_subgroup(2, 2))  # = S_2
        assert verdict.spans_ok
        assert verdict.kernel_faithful is False
        assert not verdict.overall

    def test_non_invariant_rejected(self):
        lam = WeightSet.from_pairs([(1, 3)], LatticeSpec(4))
        with pytest.raises(GenFreeError):
            check_lemma34(lam, sylow_subgroup(4, 2))

    @pytest.mark.parametrize("case, n, p, dropped, message", [
        # named by the second generator: the first, (1 2), fixes the dropped
        # weight
        ("c", 8, 2, (0, 0, -1, 0, 0, 0, 0, 1),
         "generator (1 3)(2 4) moves (-1, 0, 0, 0, 0, 0, 0, 1) outside the set"),
        ("d", 12, 3, (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, -1, 0),
         "generator (1 2 3) moves (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0) outside the set"),
    ])
    def test_plan_missing_one_weight_refused(self, case, n, p, dropped, message):
        lam = build_plan(case, n, p).torus_weights
        assert dropped in lam
        cut = WeightSet.from_pairs([e for k, e in enumerate(lam.pairs)
                                    if k != lam.index(dropped)], lam.spec)
        with pytest.raises(GenFreeError) as excinfo:
            check_lemma34(cut, sylow_subgroup(n, p))
        assert str(excinfo.value) == "weight set is not invariant: " + message

    def test_invariance_matches_every_image(self):
        # the check looks up each weight's image by its pair; against every
        # image of every weight, with the same offender.  A set listed as
        # tuples is refused
        rng = random.Random(20261019)
        for _ in range(300):
            n, p = rng.choice([(4, 2), (6, 2), (8, 2), (9, 3), (12, 3), (10, 5)])
            group = sylow_subgroup(n, p)
            with pytest.raises(LatticeError, match=NOT_PAIRS):
                _require_invariant(random_invariant_set(rng, group, LatticeSpec(n)), group)
            lam = random_invariant_pairs(rng, group)
            if rng.random() < 0.8:
                drop = set(rng.sample(range(len(lam)), min(rng.randint(1, 2), len(lam))))
                lam = WeightSet.from_pairs([e for k, e in enumerate(lam.pairs) if k not in drop],
                                           lam.spec)
            offender = next(((g, w) for g in group.generators for w in lam
                             if act(g, w) not in lam), None)
            if offender is None:
                _require_invariant(lam, group)
                continue
            with pytest.raises(GenFreeError) as excinfo:
                _require_invariant(lam, group)
            g, w = offender
            assert str(excinfo.value) == (f"weight set is not invariant: generator "
                                          f"{g.cycle_string()} moves {w} outside the set")

    def test_degree_mismatch_refused(self):
        lam = build_plan("c", 4, 2).torus_weights
        for ws in (lam, WeightSet.of(lam.elements, lam.spec)):
            with pytest.raises(PermError) as excinfo:
                check_lemma34(ws, sylow_subgroup(8, 2))
            assert str(excinfo.value) == "degree 8 vs lattice length 4"

    def test_center_scan_budget(self, monkeypatch):
        # case (d) at n = 12, p = 2: blocks of 8 and 4, so 2^2 - 1 central
        # elements times 32 weights; one entry fewer is refused before the
        # span test and before any central element is listed
        lam, group = build_plan("d", 12, 2).torus_weights, sylow_subgroup(12, 2)
        monkeypatch.setattr(genfree, "MAX_WITNESS_ENTRIES", 3 * 32)
        assert check_lemma34(lam, group).overall
        monkeypatch.setattr(genfree, "MAX_WITNESS_ENTRIES", 3 * 32 - 1)
        monkeypatch.setattr(genfree, "spans", None)
        monkeypatch.setattr(genfree, "center_order_p_elements", None)
        for check in (check_lemma34, kernel_action_faithful):
            with pytest.raises(GenFreeError) as excinfo:
                check(lam, group)
            assert str(excinfo.value) == ("center scan too large: 3 central elements "
                                          "times 32 weights, more than 95 entries")

    @pytest.mark.parametrize("n, p, elements, weights", [
        (120, 5, 390624, 575), (726, 3, 59048, 2169), (620, 5, 244140624, 3075)])
    def test_center_scan_refused_before_the_plan(self, monkeypatch, capsys, n, p, elements,
                                                 weights):
        # the count of central elements and weights is read off (n, p)
        def refuse(*args):
            raise AssertionError("the plan was built")

        monkeypatch.setattr(constructions, "lambda_d", refuse)
        assert main(["check-genfree", "--case", "d", "--n", str(n), "--p", str(p)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: center scan too large: {elements} central elements times "
                           f"{weights} weights, more than 16777216 entries\n")

    def test_center_scan_refusal_matches_the_plan(self, monkeypatch):
        # the count read off (n, p) is the one the built case (d) plan gives
        for n, p in [(12, 2), (48, 2), (24, 3), (10, 5), (20, 2), (45, 3)]:
            plan = build_plan("d", n, p)
            group = sylow_subgroup(n, p)
            limit = (p ** len(group.blocks) - 1) * len(plan.torus_weights)
            monkeypatch.setattr(genfree, "MAX_WITNESS_ENTRIES", limit)
            check_certificate("d", n, p)
            monkeypatch.setattr(genfree, "MAX_WITNESS_ENTRIES", limit - 1)
            with pytest.raises(GenFreeError, match="center scan too large"):
                check_certificate("d", n, p)

    def test_case_c_certified_without_tuples_or_snf(self, monkeypatch, capsys):
        # invariance, span, kernel, center scan and explicit witness all read
        # the index pairs of Lambda_c
        def refuse(*args):
            raise AssertionError("a weight tuple or the SNF was built")

        monkeypatch.setattr(lattice, "smith_normal_form", refuse)
        monkeypatch.setattr(WeightSet, "elements", property(refuse))
        argv = ["check-genfree", "--case", "c", "--r", "6", "--p", "2", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"] and len(payload["explicit_kernel_witness"]) == 2048

    def test_kernel_built_as_far_as_read(self, monkeypatch):
        # the center scan reads the cycles only up to the first each element
        # moves; the kernel read afterwards is the one a fresh set gives
        read = []

        def counted(rest):
            for cycle in rest:
                read.append(cycle)
                yield cycle

        as_read = lattice._AsRead
        monkeypatch.setattr(lattice, "_AsRead", lambda rest: as_read(counted(rest)))
        for case, n, p in [("c", 64, 2), ("c", 27, 3), ("d", 24, 2), ("d", 30, 3)]:
            lam = build_plan(case, n, p).torus_weights
            read.clear()
            faithful, witnesses = kernel_action_faithful(lam, sylow_subgroup(n, p))
            assert faithful and witnesses
            total = len(lam) - (n - 1)
            assert 0 < len(read) < total, (case, n, p)
            gens = kernel_generators_mod(lam)
            assert len(read) == total
            assert gens == kernel_generators_mod(build_plan(case, n, p).torus_weights)

    def test_tuple_listed_set_refused(self):
        # over Z, spans, the kernel and both certificate routes read a set's
        # pairs only: a set listed as tuples is refused with one line, even
        # when every weight is an a[i,j]
        for case, n, p in [("a", 5, 2), ("b", 3, 3), ("c", 4, 2), ("d", 6, 2)]:
            plan = build_plan(case, n, p)
            lam = plan.torus_weights
            tuples = WeightSet.of(lam.elements, lam.spec)
            assert tuples == lam and tuples.pairs is None
            for check in (spans, kernel_generators_mod, certify):
                arg = plan._replace(torus_weights=tuples) if check is certify else tuples
                with pytest.raises(LatticeError, match=NOT_PAIRS):
                    check(arg)
            assert certify(plan).overall

    def test_witnesses_recorded(self):
        verdict = check_lemma34(build_plan("c", 4, 2).torus_weights,
                                sylow_subgroup(4, 2))
        assert len(verdict.witnesses) == 1  # single central element for P_4
        elt, vec = verdict.witnesses[0]
        assert elt == "(1 2)(3 4)"
        assert any(vec)


class TestLemma32:
    def test_case_b_plans(self):
        for p in (2, 3, 5):
            verdict = check_lemma32(lambda_b(p))
            assert verdict.overall

    def test_case_a_plans(self):
        for n, p in [(5, 2), (7, 2)]:
            verdict = check_lemma32(lambda_a(n, p))
            assert verdict.overall

    def test_empty_torus_weights_fail_span(self):
        from essdim.constructions import RepPlan
        empty = WeightSet.from_pairs([], LatticeSpec(3))
        plan = RepPlan("b", 3, 3, empty, ((1, "faithful character"),))
        verdict = check_lemma32(plan)
        assert not verdict.spans_ok
        assert not verdict.overall

    def test_requires_extra_summand(self):
        with pytest.raises(GenFreeError):
            check_lemma32(build_plan("c", 4, 2))

    def test_refuses_a_case_without_a_recipe(self):
        # only cases (a) and (b) have an extra summand, so the rule has no
        # recipe for another case that is given one
        from essdim.constructions import RepPlan
        plan = build_plan("c", 4, 2)
        plan = RepPlan("c", 4, 2, plan.torus_weights, ((1, "faithful character"),))
        with pytest.raises(GenFreeError, match=r"^no combination-rule recipe for case 'c'$"):
            check_lemma32(plan)


class TestOracleAgreement:
    def test_center_reduction_matches_full_enumeration(self):
        # with p | n and, through the fixed points, with p not dividing n:
        # the package on unions of orbits of a[i,j], listed from their pairs;
        # the center reduction over the SNF's kernel on unions of orbits of
        # other weights, which the package refuses
        rng = random.Random(20240818)
        cases = [(4, 2), (6, 2), (3, 3), (6, 3), (2, 2), (5, 2), (7, 2), (4, 3), (5, 3)]
        checked = 0
        seen = set()
        while checked < 100:
            n, p = rng.choice(cases)
            group = sylow_subgroup(n, p)
            spec = LatticeSpec(n)
            lam = random_invariant_set(rng, group, spec)
            listed = as_pairs(lam)
            if listed is None:
                with pytest.raises(LatticeError, match=NOT_PAIRS):
                    kernel_action_faithful(lam, group)
                faithful = faithful_on_center(lam, group)
            else:
                faithful, _ = kernel_action_faithful(listed, group)
            assert faithful == faithful_by_enumeration(lam, group), (n, p, lam.to_json())
            lam = random_invariant_pairs(rng, group)
            faithful, _ = kernel_action_faithful(lam, group)
            assert faithful == faithful_by_enumeration(lam, group), (n, p, lam.pairs)
            seen.add(faithful)
            checked += 1
        assert seen == {True, False}

    def test_witnesses_match_per_vector_definition(self, monkeypatch):
        # the first kernel generator g moves, by permute_coefficients, for
        # each central element of order p, over Z, on a set listed from its
        # pairs; a set over Z/q, or over Z listed as tuples, is refused
        # before any central element is listed
        def refuse(*args):
            raise AssertionError("a central element was listed")

        rng = random.Random(20240819)
        cases = [(4, 2, 0), (6, 2, 0), (3, 3, 0), (6, 3, 0), (4, 2, 4), (6, 2, 2), (3, 3, 9),
                 (5, 2, 0), (7, 3, 3)]
        for _ in range(40):
            n, p, q = rng.choice(cases)
            group = sylow_subgroup(n, p)
            lam = random_invariant_set(rng, group, LatticeSpec(n, q))
            with monkeypatch.context() as patched:
                patched.setattr(genfree, "center_order_p_elements", refuse)
                refusal = "over Z only" if q else NOT_PAIRS
                with pytest.raises(LatticeError, match=refusal):
                    kernel_generators_mod(lam)
                with pytest.raises(LatticeError, match=refusal):
                    kernel_action_faithful(lam, group)
            if q:
                continue
            lam = random_invariant_pairs(rng, group)
            gens = [dense(v, len(lam)) for v in kernel_generators_mod(lam)]
            elements = center_order_p_elements(group)
            moved = [next((v for v in gens if permute_coefficients(g, lam, v) != v), None)
                     for g in elements]
            expected = tuple((g.cycle_string(), v)
                             for g, v in zip(elements, moved) if v is not None)
            faithful, witnesses = kernel_action_faithful(lam, group)
            assert faithful == (None not in moved)
            assert witnesses == expected, (n, p, q, lam.pairs)

    def test_explicit_witness_consistent_with_verdict(self):
        # the hand-built kernel vector is itself moved by some tested element
        for case, n, p in [("c", 4, 2), ("c", 8, 2), ("d", 6, 2), ("d", 12, 2)]:
            coeffs, plan = kernel_witness(case, n, p)
            group = sylow_subgroup(n, p)
            verdict = check_lemma34(plan.torus_weights, group)
            assert verdict.overall
            moved = any(
                permute_coefficients(z, plan.torus_weights, coeffs) != coeffs
                for z in center_order_p_elements(group))
            assert moved
