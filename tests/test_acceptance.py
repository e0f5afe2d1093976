"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import random
import time

import pytest

from essdim.bounds import (
    min_invariant_generating_size,
    naive_min_by_subsets,
    naive_min_invariant_generating_size,
    predicted_bound,
)
from essdim.cli import CLAIMS
from essdim.constructions import build_plan, kernel_witness, permute_coefficients
from essdim.edcalc import ed_value
from essdim.genfree import certify, kernel_action_faithful
from essdim.lattice import LatticeError, LatticeSpec, WeightSet, spans, standard_weight
from essdim.permgroup import (
    Perm,
    act,
    center_order_p_elements,
    orbit,
    sylow_subgroup,
)
from oracles import (NOT_PAIRS, as_pairs, compose, faithful_by_enumeration, faithful_on_center,
                     nakayama_filter, order, phi_image, sigma_map)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def closed_form(n, p):
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


def test_criterion_1_closed_form_table():
    ok = True
    for p in (2, 3, 5):
        for n in range(1, 33):
            ok = ok and ed_value(n, p).value == closed_form(n, p)
    report("criterion 1: closed-form values agree for n <= 32, p in {2,3,5}", ok)


def claims(command):
    """Parameters of the CLAIMS rows for one reproduce-all command."""
    rows = [params for cmd, params in CLAIMS if cmd == command]
    assert rows, command
    return rows


def test_criterion_2_witness_dimensions():
    ok = True
    for params in claims("witness-size-c"):
        p, r = params["p"], params["r"]
        ok = ok and len(build_plan("c", p ** r, p).torus_weights) == p ** (2 * r - 1)
    for params in claims("witness-size-d"):
        n, p = params["n"], params["p"]
        pe = 1
        while n % (pe * p) == 0:
            pe *= p
        ok = ok and len(build_plan("d", n, p).torus_weights) == pe * (n - pe)
    for p in (2, 3, 5):
        for n in range(1, 28):
            rep = ed_value(n, p)
            ok = ok and rep.witness_total_dimension - (n - 1) == rep.value
    report("criterion 2: witness sizes and dimension bookkeeping exact", ok)


def test_criterion_3_generic_freeness():
    ok = True
    for params in claims("check-genfree"):
        case, n, p = params["case"], params["n"], params["p"]
        ok = ok and certify(build_plan(case, n, p)).overall
        if case in ("c", "d"):
            # explicit kernel vectors: in the kernel and moved by a central element
            coeffs, plan = kernel_witness(case, n, p)
            lam = plan.torus_weights
            ok = ok and not any(phi_image(lam, coeffs))
            ok = ok and any(
                permute_coefficients(z, lam, coeffs) != coeffs
                for z in center_order_p_elements(sylow_subgroup(n, p)))
    report("criterion 3: generic-freeness certificates and kernel witnesses", ok)


def test_criterion_4_lower_bound_searches():
    ok = True
    expected = {}
    start = time.perf_counter()
    for params in claims("search-min"):
        n, p, q = params["n"], params["p"], params["q"]
        expected[n, p, q] = params["expected"]
        result = min_invariant_generating_size(n, p, q)
        bound = predicted_bound(n, p, q)
        ok = ok and result.minimum == params["expected"] == bound["bound"]
        ok = ok and bound["within_hypothesis"]
    branch_and_bound_elapsed = time.perf_counter() - start
    ok = ok and branch_and_bound_elapsed < 30
    # naive completeness cross-checks (independent oracles): every subset of
    # the lattices with at most 16 elements, orbit unions on the
    # cross-checked rows
    small = [key for key in expected if key[2] ** (key[0] - 1) <= 16]
    assert small
    for n, p, q in small:
        ok = ok and naive_min_by_subsets(n, p, q) == expected[n, p, q]
    for params in claims("search-min-naive-crosscheck"):
        n, p, q = params["n"], params["p"], params["q"]
        ok = ok and naive_min_invariant_generating_size(n, p, q)[0] == expected[n, p, q]
    report("criterion 4: exact certified minima match the published bounds", ok)


def test_criterion_5_degenerate_exhibit():
    (params,) = claims("degenerate-exhibit")
    n, p, q = params["n"], params["p"], params["q"]
    result = min_invariant_generating_size(n, p, q)
    bound = predicted_bound(n, p, q)
    ok = (result.minimum == 1
          and result.minimum < 2
          and not bound["within_hypothesis"]
          and "outside stated hypothesis" in bound["note"])
    report("criterion 5: excluded p = q = 2 case exhibits a size-1 generating set", ok)


def test_criterion_6_property_suites():
    rng = random.Random(20240823)
    ok = True

    # block-sum homomorphism and equivariance
    for _ in range(100):
        n, p, q = rng.choice([(4, 2, 4), (6, 2, 2), (9, 3, 3)])
        spec = LatticeSpec(n, q)
        def rand_w():
            ent = [rng.randint(0, q - 1) for _ in range(n - 1)]
            return spec.weight(ent + [(-sum(ent)) % q])
        def add_mod(x, y):
            return tuple((s + t) % q for s, t in zip(x, y))
        a, b = rand_w(), rand_w()
        ok = ok and (sigma_map(add_mod(a, b), p, spec)
                     == add_mod(sigma_map(a, p, spec), sigma_map(b, p, spec)))
        images = list(range(1, n + 1))
        for x in range(p):
            images[x] = (x + 1) % p + 1
        ok = ok and sigma_map(act(Perm.of(images), a), p, spec) == sigma_map(a, p, spec)

    # Nakayama preservation on random invariant generating sets
    checked = 0
    while checked < 100:
        n, p, q = rng.choice([(2, 2, 4), (3, 3, 3), (4, 2, 4)])
        spec = LatticeSpec(n, q)
        group = sylow_subgroup(n, p)
        members = set()
        for _ in range(rng.randint(1, 4)):
            ent = [rng.randint(0, q - 1) for _ in range(n - 1)]
            members.update(orbit(group, spec.weight(ent + [(-sum(ent)) % q]), spec))
        lam = WeightSet.of(members, spec)
        if not spans(lam):
            continue
        ok = ok and spans(nakayama_filter(lam, p))
        checked += 1

    # orbit sizes divide the group order
    for _ in range(100):
        n, p = rng.choice([(n, p) for n in (2, 3, 4, 6, 8, 9) for p in (2, 3)])
        group = sylow_subgroup(n, p)
        ent = [rng.randint(-3, 3) for _ in range(n - 1)]
        spec = LatticeSpec(n)
        w = spec.weight(ent + [-sum(ent)])
        ok = ok and (p ** group.order_exponent) % len(orbit(group, w, spec)) == 0

    # action composition law
    for _ in range(100):
        n = rng.randint(2, 7)
        imgs = list(range(1, n + 1))
        rng.shuffle(imgs)
        g = Perm.of(list(imgs))
        rng.shuffle(imgs)
        h = Perm.of(list(imgs))
        ent = [rng.randint(-3, 3) for _ in range(n - 1)]
        w = LatticeSpec(n).weight(ent + [-sum(ent)])
        ok = ok and act(g, act(h, w)) == act(compose(g, h), w)

    # central elements commute with generators and have order p
    for _ in range(100):
        n, p = rng.choice([(4, 2), (6, 2), (8, 2), (9, 3), (6, 3)])
        group = sylow_subgroup(n, p)
        z = rng.choice(center_order_p_elements(group))
        ok = ok and order(z) == p
        ok = ok and all(compose(z, g) == compose(g, z) for g in group.generators)

    report("criterion 6: property suites, 100 seeded cases each, zero failures", ok)


def test_criterion_7_oracle_agreement():
    rng = random.Random(77)
    ok = True
    cases = [(2, 2), (4, 2), (6, 2), (3, 3), (6, 3), (5, 2), (7, 2), (4, 3), (5, 3)]
    checked = 0
    while checked < 100:
        n, p = rng.choice(cases)
        group = sylow_subgroup(n, p)
        assert p ** group.order_exponent <= 10 ** 4
        spec = LatticeSpec(n)
        members = set()
        for _ in range(rng.randint(1, 3)):
            ent = [rng.randint(-2, 2) for _ in range(n - 1)]
            members.update(orbit(group, spec.weight(ent + [-sum(ent)]), spec))
        lam = WeightSet.of(members, spec)
        # the package reads a set over Z from its a[i,j] pairs only; any
        # other set is refused, and the center reduction runs over the SNF
        listed = as_pairs(lam)
        if listed is None:
            with pytest.raises(LatticeError, match=NOT_PAIRS):
                kernel_action_faithful(lam, group)
            faithful = faithful_on_center(lam, group)
        else:
            faithful = kernel_action_faithful(listed, group)[0]
        ok = ok and faithful == faithful_by_enumeration(lam, group)
        # and the same on a union of orbits of a[i,j], listed from its pairs
        pairs = set()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(1, n + 1), 2)
            pairs.update(orbit(group, standard_weight(i, j, spec), spec))
        lam = as_pairs(WeightSet.of(pairs, spec))
        faithful = kernel_action_faithful(lam, group)[0]
        ok = ok and faithful == faithful_by_enumeration(lam, group)
        checked += 1
    report("criterion 7: center-reduction equals full-enumeration faithfulness", ok)
