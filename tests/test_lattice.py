import hashlib
import json
import random
import signal
import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from essdim import lattice
from essdim.bounds import min_invariant_generating_size
from essdim.cli import CLAIMS
from essdim.constructions import build_plan, case_of
from essdim.lattice import (
    IntegerMatrix,
    LatticeError,
    LatticeSpec,
    WeightSet,
    echelon_mod_p,
    kernel_generators_mod,
    pair_key,
    prime_power_root,
    rank_mod_p,
    smith_normal_form,
    spans,
    standard_weight,
    vp,
)
from essdim.permgroup import orbit, sylow_subgroup
import oracles
from oracles import (NOT_PAIRS, as_pairs, basis_coordinates, coordinate_matrix, diagonal_matrix,
                     identity, in_p_multiple, matmul, modulus_matrix, pair_set, reduce_mod,
                     smith)


def chain_pairs(n):
    """The pairs of the chart a[1,2], ..., a[n-1,n]."""
    return [(i, i + 1) for i in range(1, n)]


def from_columns(columns):
    """The square matrix whose columns are given as dicts from row to entry,
    as smith_normal_form returns right."""
    return IntegerMatrix.of([[col.get(i, 0) for col in columns]
                             for i in range(len(columns))])


def checked_smith(m):
    """smith_normal_form(m) with its certificate checked: left must bring
    m * right to the diagonal matrix of d, and the columns of right past
    the rank must be kernel vectors of m.  Returns (d, left, right)."""
    d, left, right = smith_normal_form(m)
    assert (matmul(matmul(left, m), from_columns(right)).entries
            == diagonal_matrix(d, m.rows, m.cols).entries)
    assert_kernel_columns(m, d, right)
    return d, left, right


@contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError, rather than hang, once it has run
    for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_kernel_columns(m, d, right):
    """m * right[rank:] == 0, over right's sparse columns."""
    rank = sum(1 for x in d if x)
    for col in right[rank:]:
        assert not any(sum(row[k] * c for k, c in col.items()) for row in m.entries)


def densify(vec, size):
    """A kernel generator as a dense coefficient tuple of length ``size``;
    accepts a dense tuple or (position, coefficient) pairs."""
    if len(vec) == size and all(isinstance(c, int) for c in vec):
        return tuple(vec)
    out = [0] * size
    for i, c in vec:
        out[i] = c
    return tuple(out)


class TestStandardWeight:
    def test_orbit_seed_weight(self):
        w = standard_weight(1, 3, LatticeSpec(4))
        assert w == (1, 0, -1, 0)

    def test_reversed_pair(self):
        assert standard_weight(2, 1, LatticeSpec(2)) == (-1, 1)

    def test_mod_reduction(self):
        assert standard_weight(1, 2, LatticeSpec(3, 3)) == (1, 2, 0)

    def test_index_errors(self):
        with pytest.raises(LatticeError):
            standard_weight(0, 2, LatticeSpec(3))
        with pytest.raises(LatticeError):
            standard_weight(2, 2, LatticeSpec(3))

    def test_opposite_pairs_cancel(self):
        spec = LatticeSpec(5)
        for i in range(1, 6):
            for j in range(1, 6):
                if i != j:
                    s = [a + b for a, b in zip(standard_weight(i, j, spec),
                                               standard_weight(j, i, spec))]
                    assert not any(s)


class TestPairListed:
    """Every case lists its witness set from a[i,j] index pairs; such a set
    behaves as the tuple-listed set of the same weights."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_tuple_listed(self, p):
        for n in range(1, 65):
            case = case_of(n, p)
            lam = build_plan(case, n, p).torus_weights
            spec = lam.spec
            dense = WeightSet.of([standard_weight(i, j, spec) for i, j in lam.pairs], spec)
            assert dense.pairs is None
            assert len(lam) == len(dense)
            assert "elements" not in lam.__dict__, (n, p)  # len reads no tuple
            assert lam == dense and dense == lam, (n, p)
            assert lam == build_plan(case, n, p).torus_weights
            assert hash(lam) == hash(dense)
            assert list(lam) == list(dense)
            assert lam.to_json() == dense.to_json()
            for i, w in enumerate(dense):
                assert w in lam and lam.index(w) == i
            absent = tuple(2 * x for x in dense.elements[0]) if n > 1 else (1,)
            assert absent not in lam
            with pytest.raises(ValueError):
                lam.index(absent)

    def test_differs_from_other_weights(self):
        spec = LatticeSpec(4)
        chain = WeightSet.from_pairs([(3, 4), (2, 3), (1, 2)], spec)
        assert chain != WeightSet.from_pairs([(3, 4), (1, 2)], spec)
        assert chain != WeightSet.of([standard_weight(i, j, spec) for i, j in [(3, 4), (1, 2)]],
                                     spec)
        assert chain != WeightSet.from_pairs([(3, 4), (2, 3), (1, 2)], LatticeSpec(5))

    def test_integers_only(self):
        with pytest.raises(LatticeError, match="only over the integers"):
            WeightSet.from_pairs([(1, 2)], LatticeSpec(2, 3))

    @pytest.mark.parametrize("pairs,line", [
        ([(0, 2), (1, 2), (2, 3)], "index out of range for n=3: (0, 2)"),
        ([(1, 5)], "index out of range for n=3: (1, 5)"),
        ([(1, 1), (1, 2)], "a[i,j] requires i != j: (1, 1)"),
        ([(1, 2), (1, 2), (2, 3)], "repeated pair (1, 2)"),
    ])
    def test_malformed_pairs_refused(self, pairs, line):
        # each would be kept as a wrong weight set: index 0 read as the last
        # coordinate, a non-zero-sum weight, a repeated weight with a zero
        # kernel vector, an IndexError later
        with pytest.raises(LatticeError) as excinfo:
            WeightSet.from_pairs(pairs, LatticeSpec(3))
        assert str(excinfo.value) == line


@st.composite
def distinct_pairs(draw):
    n = draw(st.integers(2, 12))
    index = st.integers(1, n)
    pairs = draw(st.sets(st.tuples(index, index).filter(lambda e: e[0] != e[1]), max_size=40))
    return n, list(pairs)


@given(distinct_pairs())
def test_pair_key_is_the_canonical_order(case):
    # sorting a[i,j] by pair_key sorts them as their weight tuples sort
    n, pairs = case
    spec = LatticeSpec(n)
    assert (sorted(pairs, key=pair_key)
            == sorted(pairs, key=lambda e: standard_weight(*e, spec)))


class TestBasisCoordinates:
    def test_prefix_sums(self):
        # coordinate k is the sum of the entries 0..k, over the chart
        # a[1,2], ..., a[n-1,n], for integer and reduced mod-q weights
        rng = random.Random(20261019)
        for _ in range(400):
            n = rng.randint(1, 130)
            q = rng.choice([0, 0, 2, 3, 4, 9, 25, 2 ** 20])
            spec = LatticeSpec(n, q)
            ent = [rng.randint(-50, 50) for _ in range(n - 1)]
            w = spec.weight(ent + [-sum(ent)])
            coords = basis_coordinates(w)
            assert coords == tuple(sum(w[:k + 1]) for k in range(n - 1))
            assert all(type(c) is int for c in coords)
            # in the chart they rebuild w's lift that sums to zero exactly
            rebuilt = [0] * n
            for k, c in enumerate(coords):
                rebuilt[k] += c
                rebuilt[k + 1] -= c
            assert tuple(rebuilt) == w[:-1] + (-sum(w[:-1]),)


class TestSmithNormalForm:
    def test_identity(self):
        d, _, _ = smith_normal_form(identity(2))
        assert d == (1, 1)

    def test_two_three(self):
        d, _, _ = checked_smith(IntegerMatrix.of([[2, 0], [0, 3]]))
        assert d == (1, 6)

    def test_zero_matrix(self):
        d, _, _ = smith_normal_form(IntegerMatrix.of([[0, 0, 0], [0, 0, 0]]))
        assert d == (0, 0)

    def test_random_roundtrip_and_divisibility(self):
        rng = random.Random(20240817)
        for _ in range(500):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntegerMatrix.of(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            d, left, right = checked_smith(m)
            assert len(d) == min(m.rows, m.cols)
            assert all(x >= 0 for x in d)
            nz = [x for x in d if x]
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            # off-diagonal of the normal form left * m * right is zero
            normal = matmul(matmul(left, m), from_columns(right))
            for i in range(normal.rows):
                for j in range(normal.cols):
                    if i != j:
                        assert normal.entries[i][j] == 0

    def test_right_columns_hold_no_zeros(self):
        # no column of right stores a zero, also after a Bezout step with a
        # factor 0 (x = 0 when the entry being cleared divides the pivot)
        grids = [[[-3, 2, 4], [2, -4, 1], [3, -4, -1]],
                 [[-4, 0, -2], [-1, -4, 0], [-3, -3, 0]],
                 [[2, 0], [0, 3]]]
        rng = random.Random(20261018)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            values = rng.choice([range(-9, 10), (0, 2, -2, 3, -3, 4, 6, -6)])
            grids.append([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        for grid in grids:
            m = IntegerMatrix.of(grid)
            d, _, right = checked_smith(m)
            assert len(right) == m.cols
            for col in right:
                assert col and all(col.values())
                assert all(0 <= k < m.cols for k in col)


class TestSmithNormalFormOracle:
    """Our SNF against sympy's, which is installed for the tests only."""

    @staticmethod
    def check(m):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
        d, left, right = checked_smith(m)
        ref = sympy_snf(sympy.Matrix([list(r) for r in m.entries]), domain=sympy.ZZ)
        assert d == tuple(abs(ref[i, i]) for i in range(min(m.rows, m.cols)))
        for t in (left, from_columns(right)):
            assert abs(sympy.Matrix([list(r) for r in t.entries]).det()) == 1

    def test_random_matrices(self):
        rng = random.Random(31)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            self.check(IntegerMatrix.of(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]))

    def test_former_blowup_matrix(self):
        # the former SNF did not finish on this matrix in 20 s: its fix-up
        # pass, adding an offending row to the pivot's, tripled the entries'
        # bit length at each round
        m = IntegerMatrix.of([[-3, 1, -1, -1, 9, 4, -1, -12], [1, 0, 9, 1, -12, 2, -3, 0],
                              [-12, -3, 0, -1, -3, 0, 0, 2], [-12, 9, 4, 6, -12, 2, -3, 6],
                              [4, 1, -1, -12, 6, 0, 0, 1], [0, -12, 2, -3, 9, 0, -3, 4]])
        with time_limit(5):
            d, _, _ = checked_smith(m)
        assert d == (1, 1, 1, 1, 1, 2)
        self.check(m)

    def test_witness_coordinate_matrices(self):
        for case, n, p in [("c", 4, 2), ("c", 9, 3), ("c", 8, 2),
                           ("d", 6, 2), ("d", 12, 2), ("d", 12, 3)]:
            self.check(coordinate_matrix(build_plan(case, n, p).torus_weights))


# (n, p, q) of the case (c)/(d) witness reductions below on which the entries
# of the former Smith normal form, the one that added an offending row to
# the pivot's until the pivot divided its block, blew up: it did not finish
# within a second, and on most not within 10 s.  The Bezout SNF finishes
# each in well under a second, so the kernel check takes them all.
SNF_BLOWUP = {
    *[(n, 3, 9) for n in (30, 33, 36, 39, 42, 45, 48, 51, 57, 60, 63)],
    (15, 5, 25), (20, 5, 25), (50, 5, 25),
    *[(n, 5, q) for n in (30, 35, 40, 45, 55, 60) for q in (5, 25)],
}


class TestKernelColumns:
    """The columns of right past the rank are kernel vectors of the
    coordinate matrices [A | q*I] of the witness sets, over Z and reduced
    mod p and p^2, and of the search-min witnesses.  (left is checked on the
    small matrices above: multiplying it out here would take minutes.)"""

    @staticmethod
    def check(m):
        d, _, right = smith_normal_form(m)
        assert_kernel_columns(m, d, right)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_witness_coordinate_matrices(self, p):
        for n in range(2 * p, 65):
            case = case_of(n, p)
            if case in ("c", "d"):
                lam = build_plan(case, n, p).torus_weights
                for q in (0, p, p * p):
                    self.check(modulus_matrix(reduce_mod(lam, q) if q else lam))

    def test_search_min_witnesses(self):
        for command, params in CLAIMS:
            if command == "search-min":
                witness = min_invariant_generating_size(
                    params["n"], params["p"], params["q"]).witness
                self.check(modulus_matrix(witness))


class TestSpans:
    def test_chain_basis_spans(self):
        for n in (2, 3, 5, 7):
            spec = LatticeSpec(n)
            assert spans(WeightSet.from_pairs(chain_pairs(n), spec))
        # the empty and the zero-weight set span the rank-0 lattice (n = 1)
        # and nothing larger, over Z and over Z/q; over Z the zero weight is
        # no a[i,j], so spans refuses that set and the SNF decides it
        for n in (1, 3):
            for q in (0, 2, 4, 9):
                spec = LatticeSpec(n, q)
                for ws in ([], [spec.weight([0] * n)]):
                    if q:
                        assert spans(WeightSet.of(ws, spec)) == (n == 1), (n, q, ws)
                    elif ws:
                        with pytest.raises(LatticeError, match=NOT_PAIRS):
                            spans(WeightSet.of(ws, spec))
                        assert snf_spans(WeightSet.of(ws, spec)) == (n == 1), (n, q, ws)
                    else:
                        assert spans(WeightSet.from_pairs(ws, spec)) == (n == 1), (n, q, ws)

    def test_single_weight_does_not_span_rank_two(self):
        spec = LatticeSpec(3)
        assert not spans(WeightSet.from_pairs([(1, 2)], spec))

    def test_mixed_specs_rejected(self):
        # weights are checked where they enter a lattice
        with pytest.raises(LatticeError):
            LatticeSpec(3).weight(standard_weight(1, 2, LatticeSpec(4)))

    def test_spans_mod_q(self):
        spec = LatticeSpec(2, 4)
        assert spans(WeightSet.of([spec.weight([1, 3])], spec))
        assert not spans(WeightSet.of([spec.weight([2, 2])], spec))

    def test_reduction_compatibility(self):
        # spanning over Z stays spanning after entrywise mod-q reduction
        rng = random.Random(7)
        for q in (2, 3, 4, 9):
            for n in (2, 3, 4):
                spec = LatticeSpec(n)
                lam = chain_pairs(n)
                for _ in range(3):
                    lam.append(tuple(rng.sample(range(1, n + 1), 2)))
                ws = pair_set(lam, spec)
                assert spans(ws)
                assert spans(reduce_mod(ws, q))


    def test_rank_mod_p_against_smith_normal_form(self):
        # the F_p rank is the number of SNF invariants prime to p, and by
        # Nakayama full F_p rank is the same as spanning mod p^e.  rank_mod_p
        # reads the weights' own n entries, the SNF their chart coordinates
        # (the oracle's prefix sums), so the two ranks agree only because a
        # weight sums to 0 mod p.  Half the sets hold dense weights, half
        # multiples c * a[i,j] (c a p-multiple included, which vanishes mod
        # p), as the search's witnesses do.  lattice's SNF and sympy's must
        # give the same invariants
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(11)
        moduli = [(p, p ** e) for p in (2, 3, 5) for e in (1, 2, 3)]
        seen = Counter()
        for trial in range(600):
            n = rng.randint(2, 12)
            p, q = rng.choice(moduli)
            spec = LatticeSpec(n, q)
            lam = []
            if trial % 2:
                for _ in range(rng.randint(1, 2 * n)):
                    i, j = rng.sample(range(n), 2)
                    c = rng.randrange(1, q)
                    ent = [0] * n
                    ent[i], ent[j] = c, -c
                    lam.append(spec.weight(ent))
            else:
                for _ in range(rng.randint(1, n + 1)):
                    ent = [rng.randrange(q) for _ in range(n - 1)]
                    lam.append(spec.weight(ent + [-sum(ent)]))
            ws = WeightSet.of(lam, spec)
            basis = echelon_mod_p(map(basis_coordinates, ws), p, n - 1)
            for col, row in basis.items():
                assert row[col] == 1
                assert all(row[other] == 0 for other in basis if other != col)
            m = modulus_matrix(ws)
            diag = invariant_factors(sympy.Matrix([list(r) for r in m.entries]), domain=sympy.ZZ)
            assert [x for x in smith_normal_form(m)[0] if x] == [abs(int(x)) for x in diag if x]
            assert len(basis) == sum(1 for d in diag if d % p)
            assert rank_mod_p(ws, p) == len(basis)
            assert (len(basis) == n - 1) == spans(ws)
            seen[trial % 2, spans(ws)] += 1
        # each kind of set both spans and fails to, many times over
        assert len(seen) == 4 and min(seen.values()) >= 50, seen

    def test_snf_blowup_sets_span_without_the_snf(self, monkeypatch):
        # the reductions on which the former Smith normal form blew up are
        # decided by their F_p rank; each reduces a witness set that spans
        # over Z
        def refuse(*args):
            raise AssertionError("spans built a Smith normal form")

        monkeypatch.setattr(lattice, "smith_normal_form", refuse)
        assert len(SNF_BLOWUP) == 26
        for n, p, q in sorted(SNF_BLOWUP):
            lam = build_plan(case_of(n, p), n, p).torus_weights
            assert spans(reduce_mod(lam, q)), (n, p, q)


class TestPackedEchelon:
    """echelon_mod_p against sympy's reduced row echelon form over GF(p).
    The names are those of the test that compared packed rows with tuple
    rows, kept so that the test ids carry over."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_matches_tuple_rows(self, p):
        # every dimension 1..12, entries outside [0, p) included, each input
        # holding zero vectors and repeats, with and without a starting basis;
        # the reduced echelon basis of a span is unique, so the rows must be
        # sympy's exactly
        pytest.importorskip("sympy")
        rng = random.Random(p)
        for dim in range(1, 13):
            for trial in range(12):
                vectors = [[rng.randrange(-p, 2 * p) for _ in range(dim)]
                           for _ in range(rng.randint(0, dim + 2))]
                vectors += [[0] * dim, [p * x for x in range(dim)]]
                vectors += rng.choices(vectors, k=rng.randint(1, 3))
                rng.shuffle(vectors)
                start = [[rng.randrange(p) for _ in range(dim)]
                         for _ in range(rng.randint(0, dim) if trial % 2 else 0)]
                start_basis = echelon_mod_p(start, p, dim)
                assert start_basis == oracles.sympy_rref_mod_p(start, p, dim)
                kept = dict(start_basis)
                got = echelon_mod_p(vectors, p, dim, start_basis or None)
                assert got == oracles.sympy_rref_mod_p(start + vectors, p, dim)
                assert start_basis == kept


class TestKernelBasis:
    def test_opposite_pair(self):
        spec = LatticeSpec(2)
        kb = kernel_generators_mod(pair_set([(1, 2), (2, 1)], spec))
        assert len(kb) == 1
        # relation between the two elements, up to sign
        v = densify(kb[0], 2)
        assert sorted(v) == [1, 1] or sorted(v) == [-1, -1]

    def test_cyclic_triangle(self):
        spec = LatticeSpec(3)
        lam = pair_set([(1, 2), (2, 3), (3, 1)], spec)
        kb = kernel_generators_mod(lam)
        assert len(kb) == 1
        v = densify(kb[0], 3)
        assert all(abs(c) == 1 for c in v) and len(set(v)) == 1

    def test_rank_nullity_for_spanning_sets(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(2, 5)
            spec = LatticeSpec(n)
            lam = chain_pairs(n)
            for _ in range(rng.randint(0, 4)):
                lam.append(tuple(rng.sample(range(1, n + 1), 2)))
            ws = pair_set(lam, spec)
            assert spans(ws)
            assert len(kernel_generators_mod(ws)) == len(ws) - (n - 1)

    def test_spans_iff_kernel_size(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 5)
            spec = LatticeSpec(n)
            lam = set()
            for _ in range(rng.randint(1, 6)):
                lam.add(tuple(rng.sample(range(1, n + 1), 2)))
            ws = pair_set(lam, spec)
            assert spans(ws) == (len(kernel_generators_mod(ws)) == len(ws) - (n - 1))

    def test_spans_builds_no_cycle(self, monkeypatch):
        # connectivity answers the span; the fundamental cycles are built
        # only when the kernel is read
        def refuse(*args):
            raise AssertionError("a fundamental cycle was built")

        for case, n, p in [("a", 6, 5), ("c", 9, 3), ("d", 12, 2)]:
            lam = build_plan(case, n, p).torus_weights
            with monkeypatch.context() as patched:
                patched.setattr(lattice, "_AsRead", refuse)
                assert spans(lam)
            assert "_cycles" not in lam.__dict__
            assert len(kernel_generators_mod(lam)) == len(lam) - (n - 1)

    def test_kernel_vectors_map_to_zero(self):
        spec = LatticeSpec(4)
        lam = pair_set(chain_pairs(4) + [(1, 4), (3, 1)], spec)
        for v in kernel_generators_mod(lam):
            total = [0] * 4
            for c, w in zip(densify(v, len(lam)), lam.elements):
                total = [t + c * e for t, e in zip(total, w)]
            assert all(t == 0 for t in total)


def snf_spans(lam):
    """The span verdict of the Smith normal form, of [A | q*I] for a set
    over Z/q: every diagonal entry 1."""
    d = smith_normal_form(modulus_matrix(lam))[0] if lam.spec.modulus else smith(lam)[0]
    return len(d) == lam.spec.rank and all(x == 1 for x in d)


def check_forest_against_snf(lam):
    """The graph route of a set of a[i,j] over Z, listed from its pairs,
    against the SNF: the same span verdict; one +-1 cycle in Ker(phi) per
    weight outside the forest, 1 there and otherwise on the forest only; and
    each of the SNF's kernel columns the sum of the cycles weighted by its
    own entries at those weights.  Returns the span verdict."""
    assert lam.pairs is not None
    d, snf_kernel = smith(lam)
    assert spans(lam) == (len(d) == lam.spec.rank and all(x == 1 for x in d))
    cycles = kernel_generators_mod(lam)
    forest = oracles.forest_positions(lam)
    own = [k for k in range(len(lam)) if k not in forest]
    assert len(cycles) == len(own)
    for k, cycle in zip(own, cycles):
        positions = [j for j, _ in cycle]
        assert positions == sorted(set(positions))
        assert all(c in (1, -1) for _, c in cycle)
        assert dict(cycle)[k] == 1 and all(j == k or j in forest for j in positions)
        assert oracles.phi_image(lam, densify(cycle, len(lam))) == (0,) * lam.spec.n
    cycle_at = dict(zip(own, cycles))
    for column in snf_kernel:
        total = Counter()
        for k, x in column:
            for j, c in cycle_at.get(k, ()):
                total[j] += x * c
        assert sorted(item for item in total.items() if item[1]) == list(column)
    return spans(lam)


class TestForestMatchesSnf:
    """spans and kernel_generators_mod read a set of a[i,j] over Z off a
    spanning forest of its graph; the Smith normal form is the oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_plan(self, p):
        for n in range(1, 65):
            lam = build_plan(case_of(n, p), n, p).torus_weights
            assert check_forest_against_snf(lam), (n, p)

    def test_random_invariant_unions(self):
        # unions of P_n-orbits of a[i,j]; some do not span, and some hold
        # both a[i,j] and a[j,i]
        rng = random.Random(20261019)
        seen = Counter()
        for _ in range(150):
            n, p = rng.choice([(4, 2), (6, 2), (8, 2), (12, 2), (6, 3), (9, 3), (12, 3), (10, 5)])
            group = sylow_subgroup(n, p)
            spec = LatticeSpec(n)
            weights = set()
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(1, n + 1), 2)
                weights |= set(orbit(group, standard_weight(i, j, spec), spec))
                if rng.random() < 0.3:
                    weights |= set(orbit(group, standard_weight(j, i, spec), spec))
            lam = WeightSet.of(weights, spec)
            listed = as_pairs(lam)
            assert listed == lam
            seen["spans" if check_forest_against_snf(listed) else "does not span"] += 1
            edges = set(listed.pairs)
            seen["both ways"] += any((j, i) in edges for i, j in edges)
            # the same set listed as tuples is refused
            for check in (spans, kernel_generators_mod):
                with pytest.raises(LatticeError, match=NOT_PAIRS):
                    check(lam)
        assert min(seen.values()) >= 10, seen

    def test_other_sets_keep_the_snf(self):
        # a set over Z listed as tuples is refused, whether or not its weights
        # are a[i,j]; the SNF in tests/oracles.py still decides it.  A set
        # over Z/q goes through its F_p rank
        spec = LatticeSpec(3)
        lam = WeightSet.of([standard_weight(1, 2, spec), standard_weight(2, 3, spec)], spec)
        assert as_pairs(lam).pairs == ((2, 3), (1, 2))
        for other in (lam, WeightSet.of([*lam, (2, -2, 0)], spec),
                      WeightSet.of([(0,)], LatticeSpec(1))):
            assert other.pairs is None
            for check in (spans, kernel_generators_mod):
                with pytest.raises(LatticeError, match=NOT_PAIRS):
                    check(other)
            d, kernel = smith(other)
            assert len(kernel) == len(other) - sum(1 for x in d if x)
            for column in kernel:
                zero = (0,) * other.spec.n
                assert oracles.phi_image(other, densify(column, len(other))) == zero
        assert kernel_generators_mod(as_pairs(lam)) == smith(lam)[1] == ()
        # a[1,2] twice less (2, -2, 0); and the zero weight of n = 1 alone
        assert smith(WeightSet.of([*lam, (2, -2, 0)], spec))[1] == (((1, -2), (2, 1)),)
        assert smith(WeightSet.of([(0,)], LatticeSpec(1)))[1] == (((0, 1),),)
        reduced = reduce_mod(lam, 3)
        assert reduced.pairs is None and spans(reduced) == snf_spans(reduced)


class TestKernelPinned:
    """The SNF's own kernel columns of the witness sets, recorded from the
    dense-transform SNF.  The certificate reads the kernel of a set of
    a[i,j] off a spanning forest, so these pin the SNF where no CLI call
    reaches it."""

    # sha256 of the canonical JSON (no spaces) of the dense kernel columns
    DIGESTS = [
        ("c", 16, 2, 113, "49c4c30280b22290c188d9fb994239b7bf1d11779096476119b0f298afd8ba1c"),
        ("c", 27, 3, 217, "7c5ec133fb74b145e07096cb6a693b9362b700fb0661687c471b1f0d72562dbe"),
        ("c", 25, 5, 101, "998f415754ec6c4e75475152d23e9c9c32b7e14737e4512a1219abb342d506d4"),
        ("d", 24, 2, 105, "471786ea062191a857a4c6aec3ea320def0c889c01cf207867b7856d66928a42"),
        ("d", 48, 2, 465, "bee4f0de24f683c30864553cbce4a05083077777dc2de522c6ba0fa0a903d1fe"),
        # the 2048-weight witness the check-genfree --case c --r 6 --p 2
        # payload pinned while the certificate ran the SNF
        ("c", 64, 2, 1985, "b885772b1be0d5af767de321f28a84ffdca422186eec9e113962a6a1031af8d1"),
    ]

    @pytest.mark.parametrize("case,n,p,size,digest", DIGESTS)
    def test_witness_kernel_digest(self, case, n, p, size, digest):
        lam = build_plan(case, n, p).torus_weights
        kb = [list(densify(v, len(lam))) for v in smith(lam)[1]]
        assert len(kb) == size
        text = json.dumps(kb, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_case_d_12_3_verbatim(self):
        lam = build_plan("d", 12, 3).torus_weights
        expected = (
            (0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, -1, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, -1, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, -1, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, -1, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, -1, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, -1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, -1, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0, 0, 0, -1, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1, 0),
            (0, 1, 0, 0, 0, 0, 0, 0, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1),
        )
        assert tuple(densify(v, 27) for v in smith(lam)[1]) == expected

    def test_generators_mod_q(self):
        # the kernel is computed over Z only: a reduced case (c) set and a
        # non-spanning set over Z/9 are refused
        cases = [
            reduce_mod(build_plan("c", 4, 2).torus_weights, 4),
            WeightSet.of([LatticeSpec(3, 9).weight(e)
                          for e in ((3, 6, 0), (1, 2, 6), (0, 3, 6))], LatticeSpec(3, 9)),
        ]
        for lam in cases:
            with pytest.raises(LatticeError, match="over Z only"):
                kernel_generators_mod(lam)


class TestPMultiple:
    def test_double_of_unit(self):
        spec = LatticeSpec(2, 4)
        assert in_p_multiple(spec.weight([2, 2]), 2, spec)

    def test_odd_entry(self):
        spec = LatticeSpec(2, 4)
        assert not in_p_multiple(spec.weight([1, 3]), 2, spec)

    def test_zero_weight(self):
        spec = LatticeSpec(3, 9)
        assert in_p_multiple(spec.weight([0, 0, 0]), 3, spec)

    def test_prime_mismatch(self):
        spec = LatticeSpec(2, 4)
        with pytest.raises(LatticeError):
            in_p_multiple(spec.weight([1, 3]), 3, spec)


def test_weightset_serialization_sorted():
    spec = LatticeSpec(3)
    ws = WeightSet.of([standard_weight(2, 1, spec), standard_weight(1, 2, spec)], spec)
    assert ws.to_json() == sorted(ws.to_json())


def test_prime_power_root_against_definition():
    # p if q = p^e with p prime and e >= 1, by brute force over the primes
    primes = [p for p in range(2, 3000) if all(p % k for k in range(2, p))]
    powers = {p ** e: p for p in primes for e in range(1, 12) if p ** e < 3000}
    for q in range(-5, 3000):
        assert prime_power_root(q) == powers.get(q)


def test_prime_power_root_of_large_numbers():
    # Miller-Rabin, exact below its bound, against sympy: q = b^e with the
    # largest e is a prime power iff b is prime
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1509)
    below = lattice.MILLER_RABIN_EXACT_BELOW
    cases = [below - 1, 2 ** 61 - 1, (2 ** 61 - 1) ** 7, 3 ** 5000, 2 * 3 ** 100,
             (10 ** 9 + 7) ** 300, 43 ** 2 * 47]
    for _ in range(300):
        p = sympy.randprime(2, 10 ** rng.randint(2, 12))
        cases += [p ** rng.randint(1, 6), p * sympy.randprime(2, 10 ** 8),
                  rng.randrange(2, below)]
    for q in cases:
        power = sympy.perfect_power(q)
        base = power[0] if power else q
        assert prime_power_root(q) == (base if sympy.isprime(base) else None), q


def test_prime_power_root_refuses_out_of_range():
    # a probable prime past the exact range, or its power, is refused rather
    # than trial-divided; a composite there is still decided
    big = 10 ** 30 + 57  # prime
    for q in (big, big ** 3):
        with pytest.raises(LatticeError, match="cannot decide"):
            prime_power_root(q)
    assert prime_power_root(big * (10 ** 27 + 61)) is None
    assert prime_power_root(big * 2) is None


def test_vp_against_definition():
    # the largest e with p^e | n, by brute force, including p not dividing n
    for p in (2, 3, 5, 7):
        for n in list(range(-30, 0)) + list(range(1, 300)):
            assert vp(n, p) == max(e for e in range(12) if n % p ** e == 0)
    with pytest.raises(LatticeError):
        vp(0, 2)


@pytest.mark.parametrize("p,e", [(2, 100000), (3, 60000), (2, 1), (5, 2 ** 10 - 1), (7, 2 ** 10)])
def test_vp_of_large_powers(p, e):
    # by halving exponents, not one division per factor: 2^100000 took 1.7 s
    start = time.perf_counter()
    for unit in (1, -1, p + 1, (p + 1) * (7 * p + 1) ** 40):
        assert vp(unit * p ** e, p) == e
    assert time.perf_counter() - start < 1
