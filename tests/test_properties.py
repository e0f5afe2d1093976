"""Property tests for the Smith normal form, the kernel generators, the
Sylow orbits and the exact search, with fixed, derandomized settings so the
suite's time stays flat."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

from essdim import permgroup
from essdim.bounds import _nonzero_orbits, min_invariant_generating_size
from essdim.lattice import (
    IntegerMatrix,
    LatticeError,
    LatticeSpec,
    WeightSet,
    kernel_generators_mod,
    smith_normal_form,
)
from essdim.permgroup import PermError, act, orbit, orbit_closure, orbit_size, sylow_subgroup
from oracles import (NOT_PAIRS, BudgetExhausted, as_pairs, branch_and_bound_min,
                     coinvariant_class, count_orbits, diagonal_matrix, group_elements, matmul,
                     orbit_representatives, per_orbit_greedy, phi_image, smith)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def determinant(grid):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in grid]
    n = len(a)
    det = Fraction(1)
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][t]), None)
        if piv is None:
            return 0
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


matrices = st.integers(1, 4).flatmap(lambda rows: st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows)))


@FIXED
@given(matrices)
def test_smith_normal_form_properties(grid):
    m = IntegerMatrix.of(grid)
    d, left, right = smith_normal_form(m)
    dense_right = IntegerMatrix.of([[col.get(i, 0) for col in right]
                                    for i in range(m.cols)])
    normal = diagonal_matrix(d, m.rows, m.cols)
    assert matmul(matmul(left, m), dense_right).entries == normal.entries
    rank = sum(1 for x in d if x)
    assert all(row[j] == 0 for row in matmul(m, dense_right).entries for j in range(rank, m.cols))
    assert abs(determinant(left.entries)) == 1
    assert abs(determinant(dense_right.entries)) == 1
    assert len(d) == min(m.rows, m.cols)
    assert all(x >= 0 for x in d)
    # d_i | d_(i+1), with 0 divisible by everything and dividing only 0
    for x, y in zip(d, d[1:]):
        assert (y == 0) if x == 0 else (y % x == 0)


weight_sets = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sampled_from([0, 0, 2, 3, 4, 8, 9]),
    st.lists(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
             min_size=1, max_size=7)))


@FIXED
@given(weight_sets)
def test_kernel_generators_map_to_zero(data):
    n, q, prefixes = data
    spec = LatticeSpec(n, q)
    lam = WeightSet.of((spec.weight(e + [-sum(e)]) for e in prefixes), spec)
    if q:  # the kernel is computed over Z only
        with pytest.raises(LatticeError, match="over Z only"):
            kernel_generators_mod(lam)
        return
    # over Z, from a set's a[i,j] pairs only; the SNF's kernel columns stand
    # in for any other set, which is refused
    with pytest.raises(LatticeError, match=NOT_PAIRS):
        kernel_generators_mod(lam)
    listed = as_pairs(lam)
    for vec in smith(lam)[1] if listed is None else kernel_generators_mod(listed):
        # never empty: an integer basis holds no zero vector
        assert vec
        positions = [i for i, _ in vec]
        assert positions == sorted(set(positions))
        assert all(0 <= i < len(lam) and c for i, c in vec)
        dense = [0] * len(lam)
        for i, c in vec:
            dense[i] = c
        assert not any(phi_image(lam, tuple(dense)))


orbit_seeds = st.tuples(st.integers(2, 8), st.sampled_from([2, 3]),
                        st.sampled_from([2, 3, 4, 5, 9])).flatmap(
    lambda npq: st.tuples(st.just(npq), st.lists(st.integers(0, npq[2] - 1),
                                                 min_size=npq[0] - 1, max_size=npq[0] - 1)))


@FIXED
@given(orbit_seeds)
def test_orbit_stabilizer(data):
    (n, p, q), prefix = data
    spec = LatticeSpec(n, q)
    w = spec.weight(prefix + [-sum(prefix)])
    group = sylow_subgroup(n, p)
    stabilizer = [g for g in group_elements(group) if act(g, w) == w]
    assert len(orbit(group, w, spec)) * len(stabilizer) == p ** group.order_exponent
    assert orbit_size(group, w) * len(stabilizer) == p ** group.order_exponent


def refusal(call) -> str:
    with pytest.raises(PermError) as excinfo:
        call()
    return str(excinfo.value)


@FIXED
@given(st.data())
def test_wreath_recursion_matches_the_closure(data):
    # the orbit listed by the wreath recursion, and its size, against the
    # closure under the generators; both refuse a weight of another degree
    # and an orbit past the entry budget with the same line
    n = data.draw(st.integers(1, 16))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    q = data.draw(st.sampled_from([0, p, p * p]))
    entries = st.integers(0, q - 1) if q else st.integers(-3, 3)
    prefix = data.draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    spec = LatticeSpec(n, q)
    w = spec.weight(prefix + [-sum(prefix) % q if q else -sum(prefix)])
    group = sylow_subgroup(n, p)
    closure = orbit_closure(group, w)
    assert orbit(group, w, spec).elements == tuple(sorted(closure))
    assert orbit_size(group, w) == len(closure)
    other = sylow_subgroup(data.draw(st.integers(1, 17).filter(lambda m: m != n)), p)
    assert (refusal(lambda: orbit(other, w, spec)) == refusal(lambda: orbit_closure(other, w))
            == f"degree {other.n} vs lattice length {n}")
    cap = len(closure) * n - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permgroup, "MAX_WITNESS_ENTRIES", cap)
        assert (refusal(lambda: orbit(group, w, spec)) == refusal(lambda: orbit_closure(group, w))
                == f"orbit too large: {len(closure)} weights of length {n}, "
                   f"more than {cap} entries")


class_points = st.tuples(st.integers(1, 40), st.sampled_from([2, 3, 5, 7])).flatmap(
    lambda np_: st.tuples(st.just(np_),
                          st.lists(st.integers(-9, 9), min_size=np_[0] - 1, max_size=np_[0] - 1),
                          st.lists(st.integers(0, 99), max_size=8)))


@FIXED
@given(class_points)
def test_coinvariant_class_is_invariant(data):
    # f(g w) = f(w) for g a word in the generators of P_n and w zero-sum
    (n, p), prefix, word = data
    group = sylow_subgroup(n, p)
    f, dim_c = coinvariant_class(group)
    w = LatticeSpec(n).weight(prefix + [-sum(prefix)])
    v = w
    for i in word if group.generators else ():
        v = act(group.generators[i % len(group.generators)], v)
    assert f(v) == f(w)
    assert len(f(w)) == dim_c


# every (n, p, q) with q = p^e and at most 4096 lattice elements
search_points = st.sampled_from([
    (n, p, p ** e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 13) for n in range(2, 14)
    if p ** (e * (n - 1)) <= 4096])


@settings(FIXED, max_examples=40)
@given(search_points)
def test_greedy_matches_branch_and_bound(npq):
    # points the oracle cannot finish within its node budget, such as
    # (12,2,2) and (8,3,3), are rejected; test_frontier_pinned holds the
    # oracle's witness for (12,2,2)
    try:
        minimum, witness, _ = branch_and_bound_min(*npq, budget=150_000)
    except BudgetExhausted:
        reject()
    result = min_invariant_generating_size(*npq)
    assert (result.minimum, result.witness) == (minimum, witness)


@settings(FIXED, max_examples=40)
@given(search_points)
def test_run_stepping_matches_the_per_orbit_greedy(npq):
    result = min_invariant_generating_size(*npq)
    assert ((result.minimum, result.witness, result.nodes_explored, result.orbit_count)
            == per_orbit_greedy(*npq))


@settings(FIXED, max_examples=40)
@given(search_points)
def test_orbit_representatives_match_listing(npq):
    n, p, q = npq
    listed = [(len(o), o.elements[0]) for o in _nonzero_orbits(LatticeSpec(n, q), p)]
    group = sylow_subgroup(n, p)
    assert list(orbit_representatives(group, q)) == listed
    assert count_orbits(group, q) == len(listed)
