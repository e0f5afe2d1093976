import collections
import hashlib
import itertools
import json
import random
import time

import pytest

from essdim.bounds import (
    BoundsError,
    _exponent_cap,
    _first_moving,
    _level_counts,
    check_search,
    lattice_elements,
    min_invariant_generating_size,
    naive_min_by_subsets,
    _nonzero_orbits,
    naive_min_invariant_generating_size,
    orbit_decomposition,
    predicted_bound,
    verify_lower_bound,
)
from essdim.constructions import witness_size
from essdim.lattice import LatticeSpec, WeightSet, echelon_mod_p, spans, standard_weight, vp
from essdim.permgroup import Perm, act, legendre_exponent, orbit, part_levels, sylow_subgroup
from oracles import (basis_coordinates, branch_and_bound_min, class_counts, coinvariant_class,
                     coinvariant_radical, count_orbits, fiber_check, group_elements,
                     layout_counts, nakayama_filter, orbit_representatives, orbit_spans_mod_p,
                     per_orbit_greedy, reduce_mod, sigma_map)


def random_mod_weight(rng, n, q):
    spec = LatticeSpec(n, q)
    ent = [rng.randint(0, q - 1) for _ in range(n - 1)]
    return spec.weight(ent + [(-sum(ent)) % q])


def add_mod(a, b, q):
    return tuple((x + y) % q for x, y in zip(a, b))


class TestSigmaMap:
    def test_block_sums(self):
        spec = LatticeSpec(4, 4)
        assert sigma_map(spec.weight([1, 0, 3, 0]), 2, spec) == (1, 3)

    def test_zero(self):
        spec = LatticeSpec(6, 2)
        assert sigma_map(spec.weight([0] * 6), 2, spec) == (0, 0, 0)

    def test_mod2_blocks(self):
        spec = LatticeSpec(6, 2)
        assert sigma_map(spec.weight([1, 1, 1, 1, 0, 0]), 2, spec) == (0, 0, 0)

    def test_rejects_indivisible(self):
        spec = LatticeSpec(3)
        with pytest.raises(BoundsError):
            sigma_map(spec.weight([1, -1, 0]), 2, spec)

    def test_homomorphism(self):
        rng = random.Random(41)
        for _ in range(100):
            n, p, q = rng.choice([(4, 2, 4), (6, 2, 2), (6, 3, 3), (9, 3, 3)])
            spec = LatticeSpec(n, q)
            a = random_mod_weight(rng, n, q)
            b = random_mod_weight(rng, n, q)
            assert (sigma_map(add_mod(a, b, q), p, spec)
                    == add_mod(sigma_map(a, p, spec), sigma_map(b, p, spec), q))

    def test_equivariance(self):
        rng = random.Random(43)
        # per-small-block rotations collapse under the block-sum map, and
        # block-permuting elements act as the quotient group
        for _ in range(100):
            n, p, q = rng.choice([(4, 2, 4), (8, 2, 4), (9, 3, 3)])
            spec = LatticeSpec(n, q)
            w = random_mod_weight(rng, n, q)
            # rotation inside small block 1
            images = list(range(1, n + 1))
            for x in range(p):
                images[x] = (x + 1) % p + 1
            rot = Perm.of(images)
            assert sigma_map(act(rot, w), p, spec) == sigma_map(w, p, spec)
            # lift of a small-block swap: swap blocks 1 and 2 pointwise
            images = list(range(1, n + 1))
            for x in range(p):
                images[x], images[p + x] = images[p + x], images[x]
            lifted = Perm.of(images)
            quotient = Perm.of([2, 1] + list(range(3, n // p + 1)))
            assert sigma_map(act(lifted, w), p, spec) == act(quotient, sigma_map(w, p, spec))


class TestNakayama:
    def test_removes_p_multiples(self):
        spec = LatticeSpec(2, 4)
        lam = WeightSet.of([spec.weight([1, 3]), spec.weight([2, 2])], spec)
        assert nakayama_filter(lam, 2).to_json() == [[1, 3]]

    def test_disjoint_set_unchanged(self):
        spec = LatticeSpec(2, 4)
        lam = WeightSet.of([spec.weight([1, 3]), spec.weight([3, 1])], spec)
        assert nakayama_filter(lam, 2) == lam

    def test_lambda_c_reduction_unchanged(self):
        from essdim.constructions import lambda_c
        lam = reduce_mod(lambda_c(2, 2).torus_weights, 4)
        assert nakayama_filter(lam, 2) == lam

    def test_non_generating_rejected(self):
        spec = LatticeSpec(2, 4)
        with pytest.raises(BoundsError):
            nakayama_filter(WeightSet.of([spec.weight([2, 2])], spec), 2)

    def test_random_invariant_generating_sets(self):
        rng = random.Random(47)
        checked = 0
        while checked < 100:
            n, p, q = rng.choice([(2, 2, 4), (3, 3, 3), (4, 2, 4), (3, 3, 9)])
            spec = LatticeSpec(n, q)
            group = sylow_subgroup(n, p)
            members = set()
            for _ in range(rng.randint(1, 4)):
                members.update(orbit(group, random_mod_weight(rng, n, q), spec))
            lam = WeightSet.of(members, spec)
            if not spans(lam):
                continue
            assert spans(nakayama_filter(lam, p))
            checked += 1


class TestFiberCheck:
    def test_lambda_c_reduced(self):
        from essdim.constructions import lambda_c
        lam = reduce_mod(lambda_c(2, 2).torus_weights, 4)
        report = fiber_check(lam, 2)
        assert report["minimum_count"] == 4
        assert not report["violation"]

    def test_vacuous_scalar_orbit(self):
        spec = LatticeSpec(4, 4)
        lam = WeightSet.of([spec.weight([1, 1, 1, 1]), spec.weight([3, 3, 3, 3])], spec)
        report = fiber_check(lam, 2)
        assert report["tested_fibers"] == 0
        assert not report["violation"]

    def test_search_witness_fibers(self):
        result = min_invariant_generating_size(4, 2, 4)
        report = fiber_check(result.witness, 2)
        assert report["minimum_count"] >= 4


class TestSearch:
    @pytest.mark.parametrize("n,p,q,expected", [
        (2, 2, 4, 2),
        (3, 3, 3, 3),
        (4, 2, 4, 8),
        (6, 2, 2, 8),
        (5, 5, 5, 5),
        (3, 3, 81, 3),
        (6, 3, 3, 9),
    ])
    def test_exact_minima(self, n, p, q, expected):
        result = min_invariant_generating_size(n, p, q)
        assert result.minimum == expected
        assert len(result.witness) == expected
        assert spans(result.witness)
        # witness is invariant
        group = sylow_subgroup(n, p)
        members = set(result.witness.elements)
        for g in group.generators:
            for w in result.witness:
                assert act(g, w) in members

    def test_degenerate_excluded_case(self):
        result = min_invariant_generating_size(2, 2, 2)
        assert result.minimum == 1
        info = predicted_bound(2, 2, 2)
        assert not info["within_hypothesis"]
        assert "outside stated hypothesis" in info["note"]

    def test_naive_subset_agreement(self):
        for n, p, q in [(2, 2, 4), (2, 2, 2), (3, 2, 2), (3, 3, 3), (5, 2, 2)]:
            assert (min_invariant_generating_size(n, p, q).minimum
                    == naive_min_by_subsets(n, p, q))

    def test_naive_orbit_union_agreement(self):
        for n, p, q in [(4, 2, 4), (6, 2, 2), (3, 3, 3), (7, 2, 2), (8, 2, 2),
                        (4, 3, 3), (2, 2, 16)]:
            assert (min_invariant_generating_size(n, p, q).minimum
                    == naive_min_invariant_generating_size(n, p, q)[0])

    @pytest.mark.parametrize("refused, message", [
        (lambda: lattice_elements(LatticeSpec(3)), r"^finite enumeration needs a modulus$"),
        (lambda: naive_min_invariant_generating_size(5, 2, 4),
         r"^naive enumeration infeasible: 54 orbits$"),
        (lambda: naive_min_by_subsets(3, 2, 8), r"^subset enumeration infeasible$"),
        (lambda: predicted_bound(6, 4, 4), r"^p=4 is not a prime$"),
    ], ids=["lattice_elements", "naive_orbits", "naive_subsets", "predicted_bound"])
    def test_refused(self, refused, message):
        with pytest.raises(BoundsError, match=message):
            refused()

    def test_monotone_in_exponent(self):
        # generating mod p^e implies generating mod p
        for n, p in [(2, 2), (3, 3), (4, 2)]:
            hi = min_invariant_generating_size(n, p, p * p).minimum
            lo = min_invariant_generating_size(n, p, p).minimum
            assert hi >= lo

    def test_infeasible_size_rejected(self):
        # (25, 2, 2), refused by the q^(n-1) <= 2^20 cap, is searched now;
        # (64, 2, 4) would list 1.9 * 10^8 form entries
        with pytest.raises(BoundsError):
            min_invariant_generating_size(64, 2, 4)
        assert min_invariant_generating_size(25, 2, 2).minimum == witness_size(25, 2)

    def test_q_mismatch_rejected(self):
        with pytest.raises(BoundsError):
            min_invariant_generating_size(4, 2, 9)

    @pytest.mark.parametrize("n,p,q,witness", [
        (4, 2, 8, [[0, 1, 0, 7], [0, 1, 7, 0], [0, 7, 0, 1], [0, 7, 1, 0],
                   [1, 0, 0, 7], [1, 0, 7, 0], [7, 0, 0, 1], [7, 0, 1, 0]]),
        (4, 2, 4, [[0, 1, 0, 3], [0, 1, 3, 0], [0, 3, 0, 1], [0, 3, 1, 0],
                   [1, 0, 0, 3], [1, 0, 3, 0], [3, 0, 0, 1], [3, 0, 1, 0]]),
        (5, 5, 5, [[0, 0, 0, 1, 4], [0, 0, 1, 4, 0], [0, 1, 4, 0, 0], [1, 4, 0, 0, 0],
                   [4, 0, 0, 0, 1]]),
        (3, 3, 27, [[0, 1, 26], [1, 26, 0], [26, 0, 1]]),
        (6, 2, 2, [[0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 1, 0, 1, 0, 0],
                   [0, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0],
                   [1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0]]),
    ])
    def test_pinned_witness(self, n, p, q, witness):
        # the first generating union of optimal size in canonical inclusion
        # order; pinned so a change of search strategy cannot move it
        assert min_invariant_generating_size(n, p, q).witness.to_json() == witness

    def test_witness_is_first_optimal_union_in_canonical_order(self):
        # unions of equal total size are never prefixes of one another, so
        # canonical inclusion order among them is lexicographic order of the
        # sorted orbit-index tuples
        for n, p, q in [(4, 2, 4), (6, 2, 2), (7, 2, 2), (8, 2, 2), (4, 3, 3), (2, 2, 16)]:
            spec = LatticeSpec(n, q)
            orbits = [o for o in orbit_decomposition(sylow_subgroup(n, p), spec)
                      if not (len(o) == 1 and not any(o.elements[0]))]
            result = min_invariant_generating_size(n, p, q)
            first = min(
                combo
                for k in range(1, len(orbits) + 1)
                for combo in itertools.combinations(range(len(orbits)), k)
                if sum(len(orbits[i]) for i in combo) == result.minimum
                and spans(WeightSet.of([w for i in combo for w in orbits[i]], spec)))
            assert result.witness == WeightSet.of([w for i in first for w in orbits[i]], spec)

    # (minimum, orbits examined, orbit count, sha256 of the witness's JSON
    # with sorted keys and no spaces).  The minima and hashes of the first
    # six points were recorded from the branch-and-bound search the greedy
    # replaced; the orbits examined are the greedy's.  The last five were
    # recorded from the greedy over the listed lattice, before the orbit
    # representatives were generated.  Each minimum is the published bound.
    @pytest.mark.parametrize("n,p,q,pinned", [
        (10, 2, 2, (16, 20, 33,
                    "eb2687fcdbbd015582dd9f36b6479feb55f5af12c2b2df734b21332f3a0e1bd0")),
        (6, 3, 3, (9, 21, 42,
                   "50fce57626d02cc2131a734003e2a3466458edd41ed1409183d31351aa0ccb26")),
        (9, 3, 3, (27, 29, 156,
                   "60218a5170ccd2b80eaceb33d92672491f1151d37782b96fa182d1eed76ff836")),
        (5, 5, 25, (5, 5, 78128,
                    "9fcff30a3e860d1d341ab0cd15c04410c6d6adf119ce8212a9ac9bb04a357a3c")),
        (12, 2, 2, (32, 39, 67,
                    "97356ba8cb636946cb81432b15516fbe0616c04411b6ed4d526bdcf237a57339")),
        (8, 2, 4, (32, 129, 399,
                   "a3aeadcbcc6e34be61b6bfe406c95cbbacbc6888bdd47b24d6964fc2eab6ef7c")),
        (14, 2, 2, (24, 67, 193,
                    "b3793e82582a4a704c9a394c2568f1ce131b988516a0849d9eca4e348042f730")),
        (12, 3, 3, (27, 183, 1666,
                    "4ea362999ed1603c22e2dcc5cdf0cdc55ee3528d689df6e3e6d9fd4750192bf7")),
        (7, 7, 7, (7, 7, 16812,
                   "d4b1a19ef3399f03788f376852f8e57d478e386a17e5c8b91b9b6e904354e803")),
        (13, 3, 3, (12, 127, 4960,
                    "25d23b4c9c78f238069179647c47acc45c54cbb7f561250ea39a9bd4de143eb4")),
        (20, 2, 2, (64, 122, 715,
                    "44c6d5a6f44ff8a5253f39972bc4a70efe3c0d18d39faa95f9064ea2a16af0aa")),
        (21, 2, 2, (20, 68, 1385,
                    "ea8a6398a55532ec9e88894968776f86c27fde097ec300a220b425f26253f209")),
        (9, 5, 5, (8, 749, 78624,
                   "68a3aad728df0968edd014b7029620dc6f233e623ab5d74dc838db3925f7f787")),
    ])
    def test_frontier_pinned(self, n, p, q, pinned):
        result = min_invariant_generating_size(n, p, q)
        witness = json.dumps(result.witness.to_json(), sort_keys=True, separators=(",", ":"))
        assert (result.minimum, result.nodes_explored, result.orbit_count,
                hashlib.sha256(witness.encode()).hexdigest()) == pinned
        assert result.minimum == predicted_bound(n, p, q)["bound"]

    @pytest.mark.parametrize("n,p,q", [
        (4, 2, 4), (4, 2, 8), (5, 5, 5), (3, 3, 27), (3, 2, 16), (4, 3, 9),
        (6, 2, 2), (7, 2, 2), (8, 2, 2), (10, 2, 2), (6, 3, 3), (9, 3, 3)])
    def test_greedy_matches_branch_and_bound(self, n, p, q):
        result = min_invariant_generating_size(n, p, q)
        minimum, witness, _ = branch_and_bound_min(n, p, q)
        assert (result.minimum, result.witness) == (minimum, witness)

    @pytest.mark.parametrize("n,p,q", [(4, 2, 8), (3, 3, 27), (4, 3, 9), (3, 2, 16)])
    def test_shared_orbit_spans_are_each_orbits_own(self, n, p, q):
        # the branch-and-bound oracle computes one span per residue class of
        # an orbit's first element; a key too coarse would hand some orbit a
        # foreign span
        orbits = _nonzero_orbits(LatticeSpec(n, q), p)
        shared = orbit_spans_mod_p(orbits, p, n - 1)
        assert len({id(s) for s in shared}) < len(orbits)
        for o, span in zip(orbits, shared):
            assert span == echelon_mod_p(map(basis_coordinates, o), p, n - 1)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_coinvariant_radical_over_every_group_element(self, n, p):
        # g - 1 over the generators spans the augmentation ideal as a right
        # ideal, so IV is the span of (g - 1) v over every g and every v
        spec = LatticeSpec(n)
        chart = [standard_weight(j, j + 1, spec) for j in range(1, n)]
        brute = echelon_mod_p(
            (basis_coordinates([x - y for x, y in zip(act(g, a), a)])
             for g in group_elements(sylow_subgroup(n, p)) for a in chart), p, n - 1)
        radical = coinvariant_radical(sylow_subgroup(n, p))
        dim_c = n - 1 - len(radical)
        assert dim_c == n - 1 - len(brute)
        assert dim_c >= 1
        assert radical == brute

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coinvariant_class_kernel_is_the_radical(self, p):
        # f vanishes on the spanning set (g - 1) a[j, j+1] of IV, and its
        # rank on the chart is n - 1 - dim IV, so ker f = IV and f(V) = C
        for n in range(1, 61):
            group = sylow_subgroup(n, p)
            f, dim_c = coinvariant_class(group)
            spec = LatticeSpec(n)
            chart = [standard_weight(j, j + 1, spec) for j in range(1, n)]
            assert not any(any(f([x - y for x, y in zip(act(g, a), a)]))
                           for g in group.generators for a in chart), n
            rank = len(echelon_mod_p(map(f, chart), p, dim_c))
            assert rank == dim_c == n - 1 - len(coinvariant_radical(group)), n

    def test_witness_deterministic(self):
        a = min_invariant_generating_size(4, 2, 4).witness
        b = min_invariant_generating_size(4, 2, 4).witness
        assert a == b


class TestOrbitRepresentatives:
    # multi-block (12,2,2), (14,2,2), (7,2,4) and (12,3,3); deep-block
    # (8,2,4), (6,3,9) and (3,2,16); fixed points only at n = 1
    @pytest.mark.parametrize("n,p,q", [
        (1, 2, 2), (2, 2, 2), (2, 2, 4), (3, 3, 3), (4, 2, 4), (4, 2, 8), (5, 5, 5),
        (3, 3, 27), (3, 2, 16), (4, 3, 9), (6, 2, 2), (7, 2, 4), (8, 2, 4), (6, 3, 9),
        (10, 2, 2), (12, 2, 2), (14, 2, 2), (9, 3, 3), (7, 7, 7), (12, 3, 3)])
    def test_matches_listing(self, n, p, q):
        listed = [(len(o), o.elements[0]) for o in _nonzero_orbits(LatticeSpec(n, q), p)]
        group = sylow_subgroup(n, p)
        assert list(orbit_representatives(group, q)) == listed
        assert count_orbits(group, q) == len(listed)

    def test_count_orbits_mod_two_to_the_twenty(self):
        # S_2 swaps (a, -a) and (-a, a): q/2 - 1 pairs plus the fixed
        # (2^19, 2^19), the zero weight left out
        assert count_orbits(sylow_subgroup(2, 2), 2 ** 20) == 524288

    def test_first_orbits_without_listing_the_points(self):
        # the level-0 forms were listed and indexed first, q of each: at
        # q = 2^20 that took 4 s, and at these moduli it would not finish
        start = time.perf_counter()
        q = 2 ** 40
        first = list(itertools.islice(orbit_representatives(sylow_subgroup(2, 2), q), 3))
        assert first == [(1, (q // 2, q // 2)), (2, (1, q - 1)), (2, (2, q - 2))]
        q = 3 ** 25
        first = list(itertools.islice(orbit_representatives(sylow_subgroup(3, 3), q), 3))
        assert first == [(1, (q // 3,) * 3), (1, (2 * q // 3,) * 3), (3, (0, 1, q - 1))]
        assert time.perf_counter() - start < 1

    def test_trivial_lattice_with_a_large_modulus(self):
        # q^(n-1) = 1 passes the size cap for any q; nothing may be sized by q
        result = min_invariant_generating_size(1, 7, 7 ** 12)
        assert (result.minimum, result.nodes_explored, result.orbit_count) == (0, 0, 0)


# every (n, p, q) the q^(n-1) <= 2^20 cap admitted for p <= 7, with q <= 2^20
# also at n = 1
OLD_CAP_POINTS = [(n, p, p ** e) for p in (2, 3, 5, 7)
                  for e in range(1, 21) if p ** e <= 2 ** 20
                  for n in range(1, 22) if p ** (e * (n - 1)) <= 2 ** 20]


class TestRunStepping:
    def test_matches_the_per_orbit_greedy(self):
        # the greedy that examined every orbit on its own gave the same
        # minimum, witness, node count and orbit count at every point the
        # old cap admitted
        for n, p, q in OLD_CAP_POINTS:
            result = min_invariant_generating_size(n, p, q)
            assert ((result.minimum, result.witness, result.nodes_explored, result.orbit_count)
                    == per_orbit_greedy(n, p, q)), (n, p, q)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_level_counts_match_orbit_decomposition(self, p):
        # level r counts the orbits of P_(p^r) on (Z/q)^(p^r) by (exponent,
        # entry sum s): the orbits of P_n, n = p^r + 1, on the zero-sum
        # lattice, whose leading fixed point holds -s
        for e_q in range(1, 13):
            q = p ** e_q
            for r in itertools.takewhile(lambda r: q ** (p ** r) <= 2 ** 12, itertools.count(1)):
                n = p ** r + 1
                listed = collections.Counter()
                for o in orbit_decomposition(sylow_subgroup(n, p), LatticeSpec(n, q)):
                    listed[vp(len(o), p), -o.elements[0][0] % q] += 1
                top = legendre_exponent(p ** r, p) + 1
                g, counts = list(itertools.islice(_level_counts(p, q, top), r + 1))[r]
                assert listed == {(e, s): counts[e, s % g] for e, s in listed}, (p, q, r)
                assert sum(listed.values()) == sum(counts.values()) * q // g, (p, q, r)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_layout_and_class_counts_match_orbit_decomposition(self, p):
        # the zero-sum orbits of every layout, and on one block the first
        # exponent that holds an orbit of nonzero class, where the search
        # starts, with the orbits below it
        for e_q in range(1, 13):
            q = p ** e_q
            for n in itertools.takewhile(lambda n: q ** (n - 1) <= 2 ** 12, itertools.count(2)):
                group = sylow_subgroup(n, p)
                f, _ = coinvariant_class(group)
                orbits = orbit_decomposition(group, LatticeSpec(n, q))
                levels = part_levels(n, p)
                top = group.order_exponent + 1
                zero_sums = layout_counts(p, q, levels, top)[1]
                assert zero_sums == len(orbits), (n, p, q)
                if len(levels) == 1:
                    first = min(vp(len(o), p) for o in orbits if any(f(o.elements[0])))
                    below = sum(vp(len(o), p) < first for o in orbits)
                    assert check_search(n, p, q)[4] == (first, below), (n, p, q)

    def test_first_moving_matches_class_counts(self):
        # past the orbit decomposition's reach, the min-plus pass against the
        # Burnside count by class it replaced, on one block n = p^r <= 729,
        # q <= p^8, wherever that count's words read at most 800 letters
        # (p slots of g (cap + 2) (exponent, sum) pairs, g the sub-blocks'
        # period); on a block of level 1 the search reads int(q > 2) instead
        checked = 0
        for p in (2, 3, 5, 7):
            for r in itertools.takewhile(lambda r: p ** r <= 729, itertools.count(1)):
                cap = _exponent_cap(witness_size(p ** r, p), p)
                for q in (p ** e_q for e_q in range(1, 9)):
                    if p * min(p ** (r - 1), q) * (cap + 2) > 800:
                        continue
                    sub = list(itertools.islice(_level_counts(p, q, cap + 1), r))[-1]
                    moving = class_counts(sub, p, q, cap + 1)[1]
                    first = next((e for e, x in enumerate(moving[:cap + 1]) if x), cap + 1)
                    assert _first_moving(sub, p, q, cap + 1) == first, (p ** r, p, q)
                    assert r > 1 or first == int(q > 2), (p, q)
                    checked += 1
        assert checked == 127

    @pytest.mark.parametrize("n,p,q", [
        (22, 2, 2), (24, 2, 2), (40, 2, 2), (100, 2, 2), (15, 3, 3), (18, 3, 3), (10, 5, 5),
        (16, 2, 4), (27, 3, 3)])
    def test_frontier_answers(self, n, p, q):
        # refused by the q^(n-1) <= 2^20 cap; each takes well under a second
        report = verify_lower_bound(n, p, q)
        assert report["minimum"] == report["bound"] and report["holds"], (n, p, q)

    # (88, 2, 4) passes the witness bound and the listing, and is refused on
    # the runs it could step over
    @pytest.mark.parametrize("n,p,q", [(64, 2, 4), (125, 5, 5), (50, 5, 5), (10 ** 6, 2, 2),
                                       (88, 2, 4)])
    def test_refused_before_anything_is_listed(self, n, p, q):
        start = time.perf_counter()
        with pytest.raises(BoundsError, match=r"search space q\^\(n-1\) = .* too large"):
            check_search(n, p, q)
        assert time.perf_counter() - start < 1


class TestVerify:
    def test_p_power_instances(self):
        for n, p, q, bound in [(3, 3, 3, 3), (4, 2, 4, 8), (5, 5, 5, 5)]:
            report = verify_lower_bound(n, p, q)
            assert report["bound"] == bound
            assert report["tight"]
            assert report["holds"]

    def test_composite_instance(self):
        report = verify_lower_bound(6, 2, 2)
        assert report["bound"] == 8
        assert report["tight"]

    def test_whole_search_domain_for_small_p(self):
        # every (n, p, q) the q^(n-1) <= 2^20 cap admitted for p <= 7, with
        # q <= 2^20 also at n = 1: 184 points, 78 of them inside the
        # hypothesis, where Prop 7.2 or Lemma 8.2 must hold with equality
        points = OLD_CAP_POINTS
        assert len(points) == 184
        inside = 0
        for n, p, q in points:
            report = verify_lower_bound(n, p, q)
            assert report["nodes_explored"] <= report["orbit_count"] <= q ** (n - 1) - 1
            if report["within_hypothesis"]:
                inside += 1
                assert report["holds"] and report["tight"], (n, p, q)
        assert inside == 78

    def test_outside_hypothesis_labeled(self):
        report = verify_lower_bound(2, 2, 2)
        assert not report["within_hypothesis"]
        assert report["minimum"] == 1
        assert not report["holds"]
        assert "outside stated hypothesis" in report["note"]


def test_orbit_decomposition_partitions_lattice():
    spec = LatticeSpec(3, 3)
    group = sylow_subgroup(3, 3)
    orbits = orbit_decomposition(group, spec)
    total = [w for o in orbits for w in o]
    assert len(total) == len(set(total)) == 9
    assert sorted(total) == sorted(lattice_elements(spec))
