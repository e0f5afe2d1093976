import random

import pytest

from essdim import permgroup
from essdim.lattice import LatticeSpec, standard_weight
from essdim.permgroup import (
    Perm,
    PermError,
    act,
    center_order_p_elements,
    legendre_exponent,
    orbit,
    orbit_closure,
    orbit_size,
    p_adic_digits,
    sylow_subgroup,
)
from oracles import (compose, from_cycles, group_elements, is_identity, order, perm_identity,
                     rotation_center)


def random_weight(rng, n, q=0):
    spec = LatticeSpec(n, q)
    ent = [rng.randint(0, max(q - 1, 4)) if q else rng.randint(-4, 4) for _ in range(n - 1)]
    last = (-sum(ent)) % q if q else -sum(ent)
    return spec.weight(ent + [last])


class TestPerm:
    def test_cycle_parser(self):
        g = from_cycles("(1 2)(3 4)", 4)
        assert g.images == (2, 1, 4, 3)
        assert from_cycles("(1 2 3)", 3).images == (2, 3, 1)
        assert is_identity(from_cycles("()", 3))

    def test_cycle_parser_rejects_overlap(self):
        with pytest.raises(PermError):
            from_cycles("(1 2)(2 3)", 3)

    def test_inverse_and_order(self):
        g = from_cycles("(1 2 3)", 4)
        assert is_identity(compose(g, g.inverse()))
        assert order(g) == 3

    def test_cycle_string_roundtrip(self):
        rng = random.Random(1)
        for _ in range(20):
            images = list(range(1, 7))
            rng.shuffle(images)
            g = Perm.of(images)
            assert from_cycles(g.cycle_string(), 6) == g


class TestSylowConstruction:
    def test_single_p_cycle(self):
        g = sylow_subgroup(3, 3)
        assert [x.cycle_string() for x in g.generators] == ["(1 2 3)"]

    def test_p4_generators_and_order(self):
        g = sylow_subgroup(4, 2)
        assert {x.cycle_string() for x in g.generators} == {"(1 2)", "(1 3)(2 4)"}
        assert len(group_elements(g)) == 8

    def test_trivial_group(self):
        g = sylow_subgroup(1, 5)
        assert g.generators == ()
        assert group_elements(g) == (perm_identity(1),)

    def test_generators_fix_fixed_points(self):
        for n, p in [(5, 2), (7, 3), (10, 3)]:
            g = sylow_subgroup(n, p)
            for gen in g.generators:
                for pos in range(1, p_adic_digits(n, p)[0] + 1):
                    assert gen(pos) == pos

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("p", [2, 3])
    def test_closure_order_matches_legendre(self, n, p):
        g = sylow_subgroup(n, p)
        order = len(group_elements(g))
        assert order == p ** legendre_exponent(n, p)
        assert g.order_exponent == legendre_exponent(n, p)

    @pytest.mark.parametrize("n,p,message", [
        (6, 4, "p=4 is not a prime"),
        (0, 1, "p=1 is not a prime"),
        (0, 2, "n must be positive, got 0"),
        (-3, 3, "n must be positive, got -3"),
    ])
    def test_refusal_order(self, n, p, message):
        # p not a prime, then n < 1, with the plans' lines
        with pytest.raises(PermError, match=f"^{message}$"):
            sylow_subgroup(n, p)

    def test_digit_decomposition(self):
        assert p_adic_digits(6, 2) == (0, ((1, 1), (1, 2)))
        assert p_adic_digits(5, 2) == (1, ((1, 2),))
        assert p_adic_digits(8, 2) == (0, ((1, 3),))


class TestAction:
    def test_center_witness_motion(self):
        w = LatticeSpec(4).weight([1, 0, -1, 0])
        g = from_cycles("(1 2)(3 4)", 4)
        assert act(g, w) == (0, 1, 0, -1)

    def test_identity_action(self):
        rng = random.Random(3)
        for _ in range(10):
            w = random_weight(rng, 5)
            assert act(perm_identity(5), w) == w

    def test_standard_weight_equivariance(self):
        spec = LatticeSpec(3)
        g = from_cycles("(1 2 3)", 3)
        assert act(g, standard_weight(1, 2, spec)) == standard_weight(2, 3, spec)

    def test_composition_law(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 6)
            imgs = list(range(1, n + 1))
            rng.shuffle(imgs)
            g = Perm.of(imgs)
            rng.shuffle(imgs)
            h = Perm.of(imgs)
            w = random_weight(rng, n)
            assert act(g, act(h, w)) == act(compose(g, h), w)

    def test_length_mismatch(self):
        with pytest.raises(PermError):
            act(perm_identity(3), LatticeSpec(4).weight([0, 0, 0, 0]))


class TestOrbit:
    @pytest.mark.parametrize("n,p,length", [(4, 2, 3), (6, 3, 7), (3, 5, 4), (1, 2, 2)])
    def test_wrong_length_refused(self, n, p, length):
        # the degree is checked once, before the closure, also for a group
        # with no generators ((3, 5) and (1, 2)), which applies none
        group = sylow_subgroup(n, p)
        spec = LatticeSpec(length)
        seed = standard_weight(1, length, spec)
        for close in (lambda: orbit(group, seed, spec), lambda: orbit_closure(group, seed)):
            with pytest.raises(PermError) as excinfo:
                close()
            assert str(excinfo.value) == f"degree {n} vs lattice length {length}"

    def test_big_block_orbit(self):
        g = sylow_subgroup(4, 2)
        spec = LatticeSpec(4)
        orb = orbit(g, standard_weight(1, 3, spec), spec)
        assert len(orb) == 8
        # all a[alpha, beta] with alpha, beta in different big blocks
        for w in orb:
            plus = w.index(1) + 1
            minus = w.index(-1) + 1
            assert (plus <= 2) != (minus <= 2)

    def test_zero_orbit(self):
        g = sylow_subgroup(4, 2)
        spec = LatticeSpec(4)
        assert len(orbit(g, spec.weight([0, 0, 0, 0]), spec)) == 1

    def test_mixed_block_orbit(self):
        g = sylow_subgroup(6, 2)
        spec = LatticeSpec(6)
        orb = orbit(g, standard_weight(1, 3, spec), spec)
        assert len(orb) == 8

    def test_orbit_size_divides_group_order(self):
        rng = random.Random(17)
        cases = [(n, p) for n in (2, 3, 4, 6, 8, 9) for p in (2, 3)]
        count = 0
        while count < 200:
            n, p = rng.choice(cases)
            g = sylow_subgroup(n, p)
            w = random_weight(rng, n)
            size = len(orbit(g, w, LatticeSpec(n)))
            assert (p ** g.order_exponent) % size == 0
            count += 1


    def test_orbit_size_matches_closure(self):
        # read from the blocks' least forms, before anything is closed
        rng = random.Random(23)
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            n, q = rng.randint(1, 12), rng.choice((0, p, p * p))
            g = sylow_subgroup(n, p)
            w = random_weight(rng, n, q)
            assert orbit_size(g, w) == len(orbit(g, w, LatticeSpec(n, q)))
        # distinct entries have a trivial stabilizer: the orbit is all of P_n
        for n, p in [(32, 2), (27, 3), (30, 5)]:
            g = sylow_subgroup(n, p)
            w = LatticeSpec(n).weight(list(range(1, n)) + [-n * (n - 1) // 2])
            assert orbit_size(g, w) == p ** g.order_exponent


class TestOrbitCap:
    @pytest.mark.parametrize("n,p,weight", [
        (4, 2, (1, 0, -1, 0)), (6, 3, (2, -1, 0, 0, 0, -1)), (9, 3, (1, 0, 0, 0, 0, 0, 0, 0, -1))])
    def test_cap_is_the_orbit_size(self, monkeypatch, n, p, weight):
        # the closure is refused once it holds more than MAX_WITNESS_ENTRIES
        # entries: a cap of exactly |orbit| * n builds it, one less refuses it
        group, spec = sylow_subgroup(n, p), LatticeSpec(n)
        entries = len(orbit(group, weight, spec)) * n
        monkeypatch.setattr(permgroup, "MAX_WITNESS_ENTRIES", entries)
        assert len(orbit(group, weight, spec)) * n == entries
        monkeypatch.setattr(permgroup, "MAX_WITNESS_ENTRIES", entries - 1)
        with pytest.raises(PermError, match="orbit too large"):
            orbit(group, weight, spec)


class TestCenter:
    def test_p4_center(self):
        g = sylow_subgroup(4, 2)
        assert [x.cycle_string() for x in center_order_p_elements(g)] == ["(1 2)(3 4)"]
        # P_5 is P_4 on the positions after the fixed point 1
        g = sylow_subgroup(5, 2)
        assert [x.cycle_string() for x in center_order_p_elements(g)] == ["(2 3)(4 5)"]

    def test_p6_center(self):
        g = sylow_subgroup(6, 2)
        got = {x.cycle_string() for x in center_order_p_elements(g)}
        assert got == {"(1 2)", "(3 4)(5 6)", "(1 2)(3 4)(5 6)"}

    def test_cyclic_case(self):
        for p in (2, 3, 5):
            g = sylow_subgroup(p, p)
            elems = center_order_p_elements(g)
            assert len(elems) == p - 1
            cyc = g.generators[0]
            powers = set()
            acc = cyc
            for _ in range(p - 1):
                powers.add(acc)
                acc = compose(acc, cyc)
            assert set(elems) == powers

    def test_matches_rotation_products(self):
        # the images written from the block layout against the products of
        # the block rotations' powers, wherever there are at most 3000 of them
        checked = 0
        for p in (2, 3, 5, 7):
            for n in range(1, 65):
                g = sylow_subgroup(n, p)
                if p ** len(g.blocks) <= 3000:
                    assert center_order_p_elements(g) == rotation_center(g)
                    checked += 1
        assert checked > 200

    def test_commute_and_order(self):
        rng = random.Random(23)
        cases = [(4, 2), (6, 2), (8, 2), (9, 3), (6, 3), (5, 2), (7, 3)]
        checked = 0
        while checked < 100:
            n, p = rng.choice(cases)
            g = sylow_subgroup(n, p)
            z = rng.choice(center_order_p_elements(g))
            assert order(z) == p
            for gen in g.generators:
                assert compose(z, gen) == compose(gen, z)
            checked += 1


class TestEnumeration:
    def test_p4_full_list(self):
        elems = group_elements(sylow_subgroup(4, 2))
        assert len(elems) == 8
        assert len(set(elems)) == 8


@pytest.mark.parametrize("n,p", [(4, 2), (6, 2), (8, 2), (9, 3), (6, 3), (12, 2), (10, 5),
                                 (5, 2), (7, 3), (11, 2)])
def test_sylow_and_center_against_sympy(n, p):
    named_groups = pytest.importorskip("sympy.combinatorics.named_groups")
    ref = named_groups.SymmetricGroup(n).sylow_subgroup(p)
    group = sylow_subgroup(n, p)
    assert ref.order() == p ** group.order_exponent
    assert ref.center().order() == len(center_order_p_elements(group)) + 1
