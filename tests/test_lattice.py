import hashlib
import json
import random

import pytest

from essdim.bounds import min_invariant_generating_size
from essdim.cli import CLAIMS
from essdim.constructions import build_plan
from essdim.edcalc import detect_case
from essdim.lattice import (
    IntegerMatrix,
    LatticeError,
    LatticeSpec,
    WeightSet,
    basis_coordinates,
    coordinate_matrix,
    echelon_mod_p,
    kernel_basis,
    kernel_generators_mod,
    pack_mod_p,
    prime_power_root,
    rank_mod_p,
    smith_normal_form,
    spans,
    standard_weight,
    unpack_mod_p,
    vp,
)
import oracles
from oracles import dense_smith_normal_form, identity, in_p_multiple, matmul


def chain_basis(spec):
    return [standard_weight(i, i + 1, spec) for i in range(1, spec.n)]


def from_columns(columns):
    """The square matrix whose columns are given as dicts from row to entry,
    as smith_normal_form returns right."""
    return IntegerMatrix.of([[col.get(i, 0) for col in columns]
                             for i in range(len(columns))])


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


class TestSmithNormalForm:
    def test_identity(self):
        d, _, _ = smith_normal_form(identity(2))
        assert d.diagonal() == (1, 1)

    def test_two_three(self):
        m = IntegerMatrix.of([[2, 0], [0, 3]])
        d, left, right = smith_normal_form(m)
        assert d.diagonal() == (1, 6)
        assert matmul(matmul(left, m), from_columns(right)).entries == d.entries

    def test_zero_matrix(self):
        d, _, _ = smith_normal_form(IntegerMatrix.of([[0, 0, 0], [0, 0, 0]]))
        assert d.diagonal() == (0, 0)

    def test_random_roundtrip_and_divisibility(self):
        rng = random.Random(20240817)
        for _ in range(500):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntegerMatrix.of(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            d, left, right = smith_normal_form(m)
            assert matmul(matmul(left, m), from_columns(right)).entries == d.entries
            diag = [x for x in d.diagonal()]
            assert all(x >= 0 for x in diag)
            nz = [x for x in diag if x]
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            # off-diagonal of the normal form is zero
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d.entries[i][j] == 0

    def test_right_columns_hold_no_zeros(self):
        # the first matrix reaches a column update with factor 0 (a smaller
        # entry of the pivot's sign, so floor division gives 0), the next two
        # need the divisibility fix-up; that update must neither store a 0
        # nor fail
        grids = [[[-3, 2, 4], [2, -4, 1], [3, -4, -1]],
                 [[-4, 0, -2], [-1, -4, 0], [-3, -3, 0]],
                 [[2, 0], [0, 3]]]
        rng = random.Random(20261018)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            # entries from few divisors, so the fix-up is frequent
            values = rng.choice([range(-9, 10), (0, 2, -2, 3, -3, 4, 6, -6)])
            grids.append([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        for grid in grids:
            m = IntegerMatrix.of(grid)
            d, left, right = smith_normal_form(m)
            assert len(right) == m.cols
            for col in right:
                assert col and all(col.values())
                assert all(0 <= k < m.cols for k in col)
            assert matmul(matmul(left, m), from_columns(right)).entries == d.entries


class TestSmithNormalFormOracle:
    """Our SNF against sympy's, which is installed for the tests only."""

    @staticmethod
    def check(m):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
        d, left, right = smith_normal_form(m)
        ref = sympy_snf(sympy.Matrix([list(r) for r in m.entries]), domain=sympy.ZZ)
        assert d.diagonal() == tuple(abs(ref[i, i]) for i in range(min(m.rows, m.cols)))
        right = from_columns(right)
        assert matmul(matmul(left, m), right).entries == d.entries
        for t in (left, right):
            assert abs(sympy.Matrix([list(r) for r in t.entries]).det()) == 1

    def test_random_matrices(self):
        rng = random.Random(31)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            self.check(IntegerMatrix.of(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]))

    def test_witness_coordinate_matrices(self):
        for case, n, p in [("c", 4, 2), ("c", 9, 3), ("c", 8, 2),
                           ("d", 6, 2), ("d", 12, 2), ("d", 12, 3)]:
            self.check(coordinate_matrix(build_plan(case, n, p).torus_weights))


# (n, p, q) of the case (c)/(d) witness reductions below on which the entries
# of the Smith normal form blow up: neither SNF finishes within a second, and
# most not within 10 s, so they are left out of the comparison.
SNF_BLOWUP = {
    *[(n, 3, 9) for n in (30, 33, 36, 39, 42, 45, 48, 51, 57, 60, 63)],
    (15, 5, 25), (20, 5, 25), (50, 5, 25),
    *[(n, 5, q) for n in (30, 35, 40, 45, 55, 60) for q in (5, 25)],
}


class TestSparseMatchesDense:
    """The SNF whose updates follow the matrix's support repeats every
    operation of the whole-row one in tests/oracles.py, so diag, left and
    right are identical, not only equivalent."""

    @staticmethod
    def check(m):
        assert smith_normal_form(m) == dense_smith_normal_form(m)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_witness_coordinate_matrices(self, p):
        for n in range(2 * p, 65):
            case = detect_case(n, p)
            if case in ("c", "d"):
                lam = build_plan(case, n, p).torus_weights
                for q in (0, p, p * p):
                    if (n, p, q) not in SNF_BLOWUP:
                        self.check(coordinate_matrix(lam.reduce(q) if q else lam))

    def test_search_min_witnesses(self):
        for command, params in CLAIMS:
            if command == "search-min":
                witness = min_invariant_generating_size(
                    params["n"], params["p"], params["q"]).witness
                self.check(coordinate_matrix(witness))


class TestSpans:
    def test_chain_basis_spans(self):
        for n in (2, 3, 5, 7):
            spec = LatticeSpec(n)
            assert spans(WeightSet.of(chain_basis(spec), spec))
        # the empty and the zero-weight set span the rank-0 lattice (n = 1)
        # and nothing larger, over Z and over Z/q
        for n in (1, 3):
            for q in (0, 2, 4, 9):
                spec = LatticeSpec(n, q)
                for ws in ([], [spec.weight([0] * n)]):
                    assert spans(WeightSet.of(ws, spec)) == (n == 1), (n, q, ws)

    def test_single_weight_does_not_span_rank_two(self):
        spec = LatticeSpec(3)
        assert not spans(WeightSet.of([standard_weight(1, 2, spec)], spec))

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
                lam = list(chain_basis(spec))
                for _ in range(3):
                    i, j = rng.sample(range(1, n + 1), 2)
                    lam.append(standard_weight(i, j, spec))
                ws = WeightSet.of(lam, spec)
                assert spans(ws)
                assert spans(ws.reduce(q))


    def test_rank_mod_p_against_smith_normal_form(self):
        # the F_p rank is the number of SNF invariants prime to p, and by
        # Nakayama full F_p rank is the same as spanning mod p^e
        rng = random.Random(11)
        for _ in range(200):
            n, p, q = rng.choice([(3, 2, 4), (4, 2, 8), (3, 3, 9), (4, 3, 3), (3, 5, 25)])
            spec = LatticeSpec(n, q)
            lam = []
            for _ in range(rng.randint(1, n)):
                ent = [rng.randrange(q) for _ in range(n - 1)]
                lam.append(spec.weight(ent + [-sum(ent)]))
            ws = WeightSet.of(lam, spec)
            packed = echelon_mod_p((pack_mod_p(basis_coordinates(w), p) for w in ws), p, n - 1)
            basis = {col: unpack_mod_p(row, p, n - 1) for col, row in packed.items()}
            for col, row in basis.items():
                assert row[col] == 1
                assert all(row[other] == 0 for other in basis if other != col)
            diag, _, _ = smith_normal_form(coordinate_matrix(ws))
            assert len(basis) == sum(1 for d in diag.diagonal() if d % p)
            assert rank_mod_p(ws, p, n - 1) == len(basis)
            assert (len(basis) == n - 1) == spans(ws)


class TestPackedEchelon:
    @staticmethod
    def unpacked(basis, p, dim):
        return {col: unpack_mod_p(row, p, dim) for col, row in basis.items()}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_matches_tuple_rows(self, p):
        # every dimension 1..12, entries outside [0, p) included, each input
        # holding zero vectors and repeats, with and without a starting basis
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
                start_tuples = oracles.echelon_mod_p(start, p)
                start_packed = echelon_mod_p((pack_mod_p(v, p) for v in start), p, dim)
                assert self.unpacked(start_packed, p, dim) == start_tuples
                kept = dict(start_packed)
                got = echelon_mod_p((pack_mod_p(v, p) for v in vectors), p, dim,
                                    start_packed or None)
                assert self.unpacked(got, p, dim) == oracles.echelon_mod_p(
                    vectors, p, start_tuples or None)
                assert start_packed == kept

    def test_pack_round_trip(self):
        for p in (2, 3, 5, 7, 11, 101):
            for dim in (1, 2, 12, 20):
                vec = [(7 * i + 3) * (-1) ** i for i in range(dim)]
                assert unpack_mod_p(pack_mod_p(vec, p), p, dim) == tuple(x % p for x in vec)


class TestKernelBasis:
    def test_opposite_pair(self):
        spec = LatticeSpec(2)
        kb = kernel_basis(WeightSet.of(
            [standard_weight(1, 2, spec), standard_weight(2, 1, spec)], spec))
        assert len(kb) == 1
        # relation between the two elements, up to sign
        v = densify(kb[0], 2)
        assert sorted(v) == [1, 1] or sorted(v) == [-1, -1]

    def test_cyclic_triangle(self):
        spec = LatticeSpec(3)
        lam = WeightSet.of([
            standard_weight(1, 2, spec),
            standard_weight(2, 3, spec),
            standard_weight(3, 1, spec),
        ], spec)
        kb = kernel_basis(lam)
        assert len(kb) == 1
        v = densify(kb[0], 3)
        assert all(abs(c) == 1 for c in v) and len(set(v)) == 1

    def test_rank_nullity_for_spanning_sets(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(2, 5)
            spec = LatticeSpec(n)
            lam = list(chain_basis(spec))
            for _ in range(rng.randint(0, 4)):
                i, j = rng.sample(range(1, n + 1), 2)
                lam.append(standard_weight(i, j, spec))
            ws = WeightSet.of(lam, spec)
            assert spans(ws)
            assert len(kernel_basis(ws)) == len(ws) - (n - 1)

    def test_spans_iff_kernel_size(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 5)
            spec = LatticeSpec(n)
            lam = set()
            for _ in range(rng.randint(1, 6)):
                i, j = rng.sample(range(1, n + 1), 2)
                lam.add(standard_weight(i, j, spec))
            ws = WeightSet.of(lam, spec)
            assert spans(ws) == (len(kernel_basis(ws)) == len(ws) - (n - 1))

    def test_kernel_vectors_map_to_zero(self):
        spec = LatticeSpec(4)
        lam = WeightSet.of(chain_basis(spec) + [standard_weight(1, 4, spec),
                                                standard_weight(3, 1, spec)], spec)
        for v in kernel_basis(lam):
            total = [0] * 4
            for c, w in zip(densify(v, len(lam)), lam.elements):
                total = [t + c * e for t, e in zip(total, w)]
            assert all(t == 0 for t in total)


class TestKernelPinned:
    """The full kernel generators, recorded from the dense-transform SNF:
    the corpus pins only the first moved generator of each tested element."""

    # sha256 of the canonical JSON (no spaces) of the dense kernel_basis
    DIGESTS = [
        ("c", 16, 2, 113, "49c4c30280b22290c188d9fb994239b7bf1d11779096476119b0f298afd8ba1c"),
        ("c", 27, 3, 217, "7c5ec133fb74b145e07096cb6a693b9362b700fb0661687c471b1f0d72562dbe"),
        ("c", 25, 5, 101, "998f415754ec6c4e75475152d23e9c9c32b7e14737e4512a1219abb342d506d4"),
        ("d", 24, 2, 105, "471786ea062191a857a4c6aec3ea320def0c889c01cf207867b7856d66928a42"),
        ("d", 48, 2, 465, "bee4f0de24f683c30864553cbce4a05083077777dc2de522c6ba0fa0a903d1fe"),
    ]

    @pytest.mark.parametrize("case,n,p,size,digest", DIGESTS)
    def test_witness_kernel_digest(self, case, n, p, size, digest):
        lam = build_plan(case, n, p).torus_weights
        kb = [list(densify(v, len(lam))) for v in kernel_basis(lam)]
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
        assert tuple(densify(v, 27) for v in kernel_basis(lam)) == expected

    def test_generators_mod_q(self):
        # a reduced case (c) set and a non-spanning set over Z/9
        cases = [
            (build_plan("c", 4, 2).torus_weights.reduce(4),
             [(0, -3, 0, 1, -24, 0, 0, 8), (1, -1, 0, 0, -9, 0, 0, 3),
              (0, 0, 0, 0, 8, 1, 0, -3), (0, 0, 0, 0, -3, 0, 1, 0),
              (0, -3, 1, 0, -27, 0, 0, 9), (0, 4, 0, 0, 32, 0, 0, -12),
              (0, -4, 0, 0, -48, 0, 0, 16), (0, 0, 0, 0, 12, 0, 0, -4)]
             + [tuple(4 if j == i else 0 for j in range(8)) for i in range(8)]),
            (WeightSet.of([LatticeSpec(3, 9).weight(e)
                           for e in ((3, 6, 0), (1, 2, 6), (0, 3, 6))], LatticeSpec(3, 9)),
             [(0, -3, 1), (9, -9, 0), (-3, 0, 0), (9, 0, 0), (0, 9, 0), (0, 0, 9)]),
        ]
        for lam, expected in cases:
            gens = kernel_generators_mod(lam)
            assert tuple(densify(v, len(lam)) for v in gens) == tuple(expected)


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


def test_vp_against_definition():
    # the largest e with p^e | n, by brute force, including p not dividing n
    for p in (2, 3, 5, 7):
        for n in list(range(-30, 0)) + list(range(1, 300)):
            assert vp(n, p) == max(e for e in range(12) if n % p ** e == 0)
    with pytest.raises(LatticeError):
        vp(0, 2)
