"""Zero-sum weight lattices over Z and Z/q with exact integer linear algebra.

The ambient lattice is either Z^n or (Z/q)^n (q a prime power); the working
sublattice is the rank n-1 zero-sum part, and a weight is its n entries.
All arithmetic is exact (Python ints).  A question over Z/q is answered
over F_p, p the prime of q; over Z, a set is read off a spanning forest of
its a[i,j] pairs only, and one listed as tuples is refused.
smith_normal_form, the one Smith normal form, returns its certificate (both
transforms); it is the tests' oracle, kept for the tracer.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class LatticeError(ValueError):
    pass


# A weight set of more than this many entries (weights times their length)
# is refused before it is built: a witness set or an orbit.
MAX_WITNESS_ENTRIES = 2 ** 24


# An integer vector by its nonzero entries: (position, coefficient) pairs in
# increasing position.
SparseVector = Tuple[Tuple[int, int], ...]


# Miller-Rabin on these bases decides primality exactly below
# MILLER_RABIN_EXACT_BELOW (Sorenson and Webster, 2015)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n, odd and with no factor in _SMALL_PRIMES, is prime, by
    Miller-Rabin on those bases: a base that witnesses compositeness settles
    it at any size, but a probable prime is refused from the bound up."""
    d = (n - 1) >> 1
    s = 1
    while d % 2 == 0:
        d >>= 1
        s += 1
    for b in _SMALL_PRIMES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_EXACT_BELOW:
        raise LatticeError(f"cannot decide whether {n} is prime: primality is exact "
                           f"only below {MILLER_RABIN_EXACT_BELOW}")
    return True


def _integer_root(q: int, e: int) -> int:
    """The largest x with x^e <= q, for q >= 1, by Newton's method.  It
    starts just above a floating-point estimate, since from below its first
    step overshoots by a factor that grows with e; after one step it stays
    at or above the answer (AM-GM) and falls until it reaches it."""
    t = math.log2(q) / e
    k = max(int(t) - 50, 0)
    x = (int(2.0 ** (t - k) * (1 + 2 ** -30)) + 1) << k
    x = ((e - 1) * x + q // x ** (e - 1)) // e
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power_root(q: int) -> Optional[int]:
    """Return p if q = p^e for a prime p and e >= 1, else None.

    q with a factor in _SMALL_PRIMES is a power of it or of no prime.
    Otherwise every prime factor is at least 43 > 2^5, so e < bits / 5, and
    the integer e-th roots of q are tried from the largest e down: a prime
    power has exactly one e whose root is exact and prime.  A root whose
    primality is out of the test's exact range is refused (LatticeError)."""
    if q < 2:
        return None
    for b in _SMALL_PRIMES:
        if q % b == 0:
            return b if q == b ** vp(q, b) else None
    for e in range(q.bit_length() // 5, 0, -1):
        x = _integer_root(q, e)
        if x ** e == q and _is_prime(x):
            return x
    return None


def vp(n: int, p: int) -> int:
    """The p-adic valuation of n: the largest e with p^e dividing n.

    n is divided by p, p^2, p^4, ... while they divide it, then by the same
    powers in descending order, each at most once, so a large n takes a
    number of divisions logarithmic in e rather than e of them."""
    if n == 0:
        raise LatticeError("the p-adic valuation of 0 is infinite")
    powers = []  # p, p^2, p^4, ..., each dividing n when it was reached
    d = p
    while n % d == 0:
        powers.append(d)
        n //= d
        d *= d
    # d = p^(2^len(powers)) does not divide what is left, so its valuation
    # is below 2^len(powers)
    e = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return e


class _LatticeSpecFields(NamedTuple):
    n: int
    modulus: int = 0


class LatticeSpec(_LatticeSpecFields):
    """Length n of the weights plus coefficient modulus (0 = integers, q = p^e)."""

    __slots__ = ()

    def __new__(cls, n: int, modulus: int = 0) -> "LatticeSpec":
        if n < 1:
            raise LatticeError(f"n must be positive, got {n}")
        if modulus < 0:
            raise LatticeError("modulus must be non-negative")
        if modulus and prime_power_root(modulus) is None:
            raise LatticeError(f"modulus {modulus} is not a prime power")
        return super().__new__(cls, n, modulus)

    @property
    def rank(self) -> int:
        return self.n - 1

    def weight(self, entries: Iterable[int]) -> Tuple[int, ...]:
        """Check entries as an element of this lattice and return them as a
        tuple, reduced to [0, q) when a modulus is present, so equality and
        hashing are canonical."""
        entries = tuple(int(e) for e in entries)
        if len(entries) != self.n:
            raise LatticeError(f"expected {self.n} entries, got {len(entries)}")
        if self.modulus:
            entries = tuple(e % self.modulus for e in entries)
            if sum(entries) % self.modulus != 0:
                raise LatticeError(f"entries {entries} do not sum to 0 mod {self.modulus}")
        elif sum(entries) != 0:
            raise LatticeError(f"entries {entries} do not sum to 0")
        return entries


class WeightSet:
    """Deduplicated, sorted collection of weights of the lattice ``spec``.

    A weight is a tuple of ints in the form LatticeSpec.weight returns.  A
    set listed from index pairs keeps them as ``pairs``, the (i, j) of each
    weight a[i,j] in the canonical order of the weights, and builds its
    ``elements`` tuples only when they are first read; ``pairs`` is None for
    a set listed as tuples, which spans and the kernel refuse over Z.
    Immutable; the ``__dict__`` holds the elements and cached derived data."""

    __slots__ = ("spec", "pairs", "__dict__")

    def __init__(self, elements: Tuple[Tuple[int, ...], ...], spec: LatticeSpec) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "pairs", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: WeightSet is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements, self.spec) == (other.elements, other.spec)

    def __hash__(self) -> int:
        return hash((self.elements, self.spec))

    def __repr__(self) -> str:
        return f"WeightSet(elements={self.elements!r}, spec={self.spec!r})"

    @classmethod
    def of(cls, weights: Iterable[Tuple[int, ...]], spec: LatticeSpec) -> "WeightSet":
        return cls(tuple(sorted(set(weights))), spec)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]], spec: LatticeSpec) -> "WeightSet":
        """The weight set of the a[i,j] of Z^n for distinct pairs (i, j) of
        1..n with i != j, which the caller lists in the canonical order of
        their weights (pair_key); kept as those pairs, without sorting.  An
        index outside 1..n, a pair with i = j and a repeated pair are
        refused (LatticeError) before anything is stored."""
        if spec.modulus:
            raise LatticeError("a weight set is listed from pairs only over the integers")
        pairs = tuple(pairs)
        distinct = set(pairs)
        indices = set(chain.from_iterable(distinct))
        if indices and (min(indices) < 1 or max(indices) > spec.n):
            bad = next(e for e in pairs if not 1 <= min(e) <= max(e) <= spec.n)
            raise LatticeError(f"index out of range for n={spec.n}: {bad}")
        diagonal = range(1, spec.n + 1)  # n lookups, not one per pair
        if not distinct.isdisjoint(zip(diagonal, diagonal)):
            raise LatticeError(f"a[i,j] requires i != j: {next(e for e in pairs if e[0] == e[1])}")
        if len(distinct) != len(pairs):
            seen: set = set()
            raise LatticeError(f"repeated pair {next(e for e in pairs if e in seen or seen.add(e))}")
        ws = cls.__new__(cls)
        object.__setattr__(ws, "spec", spec)
        object.__setattr__(ws, "pairs", pairs)
        return ws

    @cached_property
    def elements(self) -> Tuple[Tuple[int, ...], ...]:
        # read only for a set listed from pairs: the others set it at once
        row = [0] * self.spec.n
        out = []
        for i, j in self.pairs:
            row[i - 1], row[j - 1] = 1, -1
            out.append(tuple(row))
            row[i - 1] = row[j - 1] = 0
        return tuple(out)

    def __len__(self) -> int:
        return len(self.elements if self.pairs is None else self.pairs)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.elements)

    @cached_property
    def _positions(self) -> Dict[Tuple[int, ...], int]:
        return {w: i for i, w in enumerate(self.elements)}

    def __contains__(self, w: Tuple[int, ...]) -> bool:
        return w in self._positions

    def index(self, w: Tuple[int, ...]) -> int:
        try:
            return self._positions[w]
        except KeyError:
            raise ValueError(f"{w} is not in the weight set") from None

    @cached_property
    def edge_positions(self) -> Dict[Tuple[int, int], int]:
        """The position of each weight a[i,j] by its pair (i, j)."""
        return {e: k for k, e in enumerate(self._listed_pairs)}

    @property
    def _listed_pairs(self) -> Tuple[Tuple[int, int], ...]:
        if self.pairs is None:  # over Z, a set is read off its pairs only
            raise LatticeError("weight set is not listed from a[i,j] pairs over Z")
        return self.pairs

    @cached_property
    def _forest(self) -> Tuple[bool, List[int], List[Tuple[int, int]], List[bool]]:
        """For a set listed from pairs: whether it spans, and a spanning
        forest of the graph on 1..n with an edge i -> j per weight a[i,j],
        as each vertex's depth, its (edge to the parent, parent) and whether
        each weight is a forest edge.  The forest is grown breadth first
        from vertex 1, then from each vertex not yet reached, in increasing
        order, the weights at each vertex taken in the canonical order.

        Span: the set spans the zero-sum lattice iff the graph is connected.
        If it is, each e_1 - e_i is a signed sum of the weights on a tree
        path; if not, every weight sums to 0 over each component, so no
        e_i - e_j across two components is reached.

        Kernel: a forest's weights are independent (a leaf's edge is the
        only one nonzero at the leaf; remove it and repeat).  The
        fundamental cycle of a weight a[i,j] outside the forest, 1 there
        and +-1 along the forest path from i to j so that the path sums to
        e_j - e_i, lies in Ker(phi).  A kernel vector c minus the sum over
        those weights k of c_k times k's cycle is a kernel vector on the
        forest, so 0: the cycles are an integer basis, and a kernel
        vector's coefficients are its entries at the weights outside the
        forest (the incidence matrix of a directed graph is totally
        unimodular; Schrijver 1986, ch. 19).  They are _cycles."""
        pairs, n = self._listed_pairs, self.spec.n
        adjacent: List[List[Tuple[int, int]]] = [[] for _ in range(n + 1)]
        for k, (i, j) in enumerate(pairs):
            adjacent[i].append((k, j))
            adjacent[j].append((k, i))
        depth = [-1] * (n + 1)
        up: List[Tuple[int, int]] = [(-1, 0)] * (n + 1)  # (edge to the parent, parent)
        in_forest = [False] * len(pairs)
        trees = 0
        for root in range(1, n + 1):
            if depth[root] >= 0:
                continue
            trees += 1
            depth[root] = 0
            queue = [root]
            for u in queue:
                for k, v in adjacent[u]:
                    if depth[v] < 0:
                        depth[v], up[v], in_forest[k] = depth[u] + 1, (k, u), True
                        queue.append(v)
        return trees == 1, depth, up, in_forest

    @cached_property
    def _cycles(self) -> _AsRead:
        """The fundamental cycles of _forest, in the canonical order of
        their weights outside the forest, each a +-1 vector in increasing
        position, produced only as far as they are read."""
        _, depth, up, in_forest = self._forest
        pairs = self.pairs

        def produce() -> Iterator[SparseVector]:
            for k, (i, j) in enumerate(pairs):
                if in_forest[k]:
                    continue
                # a step from x to y on the path from i to j adds e_y - e_x:
                # +1 on the weight a[y, x], -1 on a[x, y]
                cycle = {k: 1}
                while i != j:
                    if depth[i] >= depth[j]:
                        t, i_up = up[i]
                        cycle[t] = 1 if pairs[t][1] == i else -1
                        i = i_up
                    else:
                        t, j_up = up[j]
                        cycle[t] = 1 if pairs[t][0] == j else -1
                        j = j_up
                yield tuple(sorted(cycle.items()))

        return _AsRead(produce())

    def to_json(self) -> list:
        return [list(w) for w in self.elements]


class _AsRead:
    """The items of an iterator, each produced the first time a reader
    reaches it and kept: every iteration yields all of them in order, and
    reads the iterator only past what the iterations before it read."""

    __slots__ = ("made", "rest")

    def __init__(self, rest: Iterator) -> None:
        self.made: list = []
        self.rest = rest

    def __iter__(self) -> Iterator:
        made = self.made
        k = 0
        while True:
            if k == len(made):
                item = next(self.rest, None)
                if item is None:
                    return
                made.append(item)
            yield made[k]
            k += 1


def pair_key(pair: Tuple[int, int]) -> Tuple[int, int, int]:
    """The sort key of a[i,j], by its pair (i, j), that orders the a[i,j] as
    their weight tuples sort, the canonical order.  When j < i the first
    nonzero entry is the -1 at j, and such a weight comes before every
    weight whose first nonzero entry is a +1: by j up, then, at equal j, by
    i down (the larger i leaves a 0 where the other has its +1).  When
    i < j the +1 at i leads: by i down, then by j up (the smaller j has its
    -1 first)."""
    i, j = pair
    return (0, j, -i) if j < i else (1, -i, j)


class IntegerMatrix(NamedTuple):
    rows: int
    cols: int
    entries: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, grid: Sequence[Sequence[int]]) -> "IntegerMatrix":
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(r) != cols for r in grid):
            raise LatticeError("ragged matrix")
        return cls(rows, cols, tuple(tuple(int(x) for x in r) for r in grid))


def standard_weight(i: int, j: int, spec: LatticeSpec) -> Tuple[int, ...]:
    """The weight a[i,j]: +1 at position i, -1 at position j (1-based)."""
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise LatticeError(f"index out of range for n={spec.n}: ({i}, {j})")
    if i == j:
        raise LatticeError("a[i,j] requires i != j")
    ent = [0] * spec.n
    ent[i - 1] = 1
    ent[j - 1] = -1
    return spec.weight(ent)


def smith_normal_form(
        m: IntegerMatrix) -> Tuple[Tuple[int, ...], IntegerMatrix, List[Dict[int, int]]]:
    """Return (d, left, right) with left*m*right the diagonal matrix of d,
    left and right unimodular and d1 | d2 | ... non-negative; ``d`` is the
    tuple of the min(rows, cols) diagonal entries, ``left`` a square
    IntegerMatrix and ``right`` the list of its columns, each a dict from row
    to nonzero entry, those past the rank generating the integer kernel of
    m.  Each row or column operation runs over the whole row or column.  No
    code path calls it: it is the tests' oracle, kept here for the tracer.
    It eliminates by 2x2 unimodular Bezout steps (Cohen, 1993, 2.4): a step
    on an entry the pivot divides clears it, any other makes the pivot the
    gcd of the two, strictly smaller, so each pivot's loop ends.  A last
    pass turns each diagonal pair (a, b) into (gcd, lcm)."""
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [{j: 1} for j in range(cols)]

    def step(p, b):
        # (x, y, u, v), xv - yu = 1, taking (p, b) to (p, 0) if p | b, else
        # to (g, 0) with g = +-gcd(p, b), positive when p and b are
        if not b % p:
            return 1, 0, -(b // p), 1
        g, r, x, x1, y, y1 = p, b, 1, 0, 0, 1
        while r:
            f = g // r
            g, r, x, x1, y, y1 = r, g - f * r, x1, x - f * x1, y1, y - f * y1
        return x, y, -b // g, p // g

    def mix(s, r, x, y):  # x * s + y * r over sparse columns, no zero stored
        return {k: z for k in s.keys() | r.keys() if (z := x * s.get(k, 0) + y * r.get(k, 0))}

    def clear(t):
        # zero row t and column t past the pivot a[t][t], which is nonzero
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    x, y, u, v = step(a[t][t], a[i][t])
                    for mat in (a, left):
                        s, r = mat[t], mat[i]
                        if y:
                            mat[t] = [x * e + y * f for e, f in zip(s, r)]
                        mat[i] = [u * e + v * f for e, f in zip(s, r)]
            for j in range(t + 1, cols):
                if a[t][j]:
                    x, y, u, v = step(a[t][t], a[t][j])
                    for r in a:
                        r[t], r[j] = x * r[t] + y * r[j], u * r[t] + v * r[j]
                    s, r = right[t], right[j]
                    right[t], right[j] = mix(s, r, x, y), mix(s, r, u, v)
            if not any(a[i][t] for i in range(t + 1, rows)):
                return

    t = 0
    while t < min(rows, cols):
        # pivot: the row-major first nonzero entry of the block
        at = next(((i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]), None)
        if at is None:
            break
        i, j = at
        a[t], a[i], left[t], left[i] = a[i], a[t], left[i], left[t]
        for r in a:
            r[t], r[j] = r[j], r[t]
        right[t], right[j] = right[j], right[t]
        clear(t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        t += 1
    # (a, b) -> (gcd, lcm): row i += row j puts b beside a, and clear(i) ends
    # with the gcd at (i, i) and ab/gcd at (j, j), both positive as a and b are
    for i in range(t):
        for j in range(i + 1, t):
            if a[j][j] % a[i][i]:
                a[i] = [e + f for e, f in zip(a[i], a[j])]
                left[i] = [e + f for e, f in zip(left[i], left[j])]
                clear(i)
    return (tuple(a[i][i] for i in range(min(rows, cols))),
            IntegerMatrix(rows, rows, tuple(map(tuple, left))), right)


def spans(lam: WeightSet) -> bool:
    """True iff Lambda generates the full (zero-sum) lattice over Z or Z/q.

    Over Z/q, q = p^e, by its F_p rank: the lattice is free over the local
    ring Z/q with maximal ideal p, so by Nakayama a set generates it iff its
    reductions mod p span the zero-sum subspace of F_p^n, of dimension
    n - 1.  Over Z, by the connectivity of its graph (WeightSet._forest,
    which builds no cycle), the one route: a set over Z must be listed from
    its a[i,j] pairs, and any other is refused (LatticeError)."""
    if lam.spec.modulus:
        return rank_mod_p(lam, prime_power_root(lam.spec.modulus)) == lam.spec.rank
    return lam._forest[0]


def kernel_cycles(lam: WeightSet) -> Iterable[SparseVector]:
    """An integer basis of {c in Z[Lambda] : sum c_i * lambda_i = 0} for a
    set over Z, each a sparse vector indexed by the canonical order of
    Lambda: the fundamental cycles of a spanning forest of its graph
    (WeightSet._forest), produced as far as they are read and kept, so it
    can be iterated again.  A set over Z/q is refused, and so is a set over
    Z not listed from its a[i,j] pairs (LatticeError), before any cycle is
    built."""
    if lam.spec.modulus:
        raise LatticeError(f"the kernel is computed over Z only, not mod {lam.spec.modulus}")
    return lam._cycles


def kernel_generators_mod(lam: WeightSet) -> Tuple[SparseVector, ...]:
    """kernel_cycles(lam), all of them, as a tuple."""
    return tuple(kernel_cycles(lam))


def echelon_mod_p(
    vectors: Iterable[Sequence[int]],
    p: int,
    dim: int,
    basis: Optional[Dict[int, Tuple[int, ...]]] = None,
) -> Dict[int, Tuple[int, ...]]:
    """Reduced row-echelon basis over F_p of the span of ``basis`` and
    ``vectors``, as a new dict from pivot column to row.

    Vectors have one length and any integer entries; rows are tuples with
    entries below p.  ``basis`` must itself come from this function and is
    left unchanged.  Each row is 1 at its own pivot and 0 left of it and
    at every other pivot, so one pass over the rows, in any order, reduces
    a vector (its entries are reduced mod p once, at the end), and the rows
    are the unique reduced echelon basis of the span.  Reading stops once
    the rank reaches ``dim``.
    """
    out = dict(basis) if basis else {}
    for vec in vectors:
        v = vec
        for col, row in out.items():
            f = v[col] % p
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        v = [x % p for x in v]
        if not any(v):
            continue
        lead = next(i for i, x in enumerate(v) if x)
        inv = pow(v[lead], -1, p)
        new = tuple(v) if inv == 1 else tuple(x * inv % p for x in v)
        for col, row in out.items():
            f = row[lead]
            if f:
                out[col] = tuple((a - f * b) % p for a, b in zip(row, new))
        out[lead] = new
        if len(out) == dim:
            break
    return out


def rank_mod_p(lam: WeightSet, p: int) -> int:
    """F_p-rank of the weights of lam, each its n entries reduced mod p
    (Gaussian elimination, exact).  Each weight sums to 0 mod p, so the
    rank is at most n - 1, where reading stops."""
    return len(echelon_mod_p(lam, p, lam.spec.rank))
