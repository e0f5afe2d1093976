"""Zero-sum weight lattices over Z and Z/q with exact integer linear algebra.

The ambient lattice is either Z^n or (Z/q)^n (q a prime power); the working
sublattice is the rank n-1 zero-sum part, coordinatized in the fixed basis
a[1,2], a[2,3], ..., a[n-1,n].  All arithmetic is exact (Python ints).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class LatticeError(ValueError):
    pass


# An integer vector by its nonzero entries: (position, coefficient) pairs in
# increasing position.
SparseVector = Tuple[Tuple[int, int], ...]


def prime_power_root(q: int) -> Optional[int]:
    """Return p if q = p^e for a prime p and e >= 1, else None."""
    if q < 2:
        return None
    # the smallest divisor above 1 is prime, and q is a power of it or of no prime
    d = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    return d if q == d ** vp(q, d) else None


def vp(n: int, p: int) -> int:
    """The p-adic valuation of n: the largest e with p^e dividing n."""
    if n == 0:
        raise LatticeError("the p-adic valuation of 0 is infinite")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class _LatticeSpecFields(NamedTuple):
    n: int
    modulus: int = 0


class LatticeSpec(_LatticeSpecFields):
    """Ambient length n plus coefficient modulus (0 = integers, q = p^e)."""

    __slots__ = ()

    def __new__(cls, n: int, modulus: int = 0) -> "LatticeSpec":
        if n < 1:
            raise LatticeError(f"ambient length must be positive, got {n}")
        if modulus < 0:
            raise LatticeError("modulus must be non-negative")
        if modulus and prime_power_root(modulus) is None:
            raise LatticeError(f"modulus {modulus} is not a prime power")
        return super().__new__(cls, n, modulus)

    @property
    def prime(self) -> Optional[int]:
        return prime_power_root(self.modulus) if self.modulus else None

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

    A weight is a tuple of ints in the form LatticeSpec.weight returns.
    Immutable; the ``__dict__`` holds only the cached derived data."""

    __slots__ = ("elements", "spec", "__dict__")

    def __init__(self, elements: Tuple[Tuple[int, ...], ...], spec: LatticeSpec) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "spec", spec)

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

    def __len__(self) -> int:
        return len(self.elements)

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
    def _smith(self) -> Tuple[Tuple[int, ...], Tuple[SparseVector, ...]]:
        """The diagonal of the Smith normal form of coordinate_matrix(self),
        and the columns of its right transform past the rank, which generate
        the integer kernel, as sparse vectors.  Computed once, for spans and
        the kernel."""
        diag, _, right = smith_normal_form(coordinate_matrix(self))
        d = diag.diagonal()
        rank = sum(1 for x in d if x)
        return d, tuple(tuple(sorted(col.items())) for col in right[rank:])

    def reduce(self, q: int) -> "WeightSet":
        """Entrywise reduction into the mod-q lattice of the same length."""
        spec = LatticeSpec(self.spec.n, q)
        return WeightSet.of(map(spec.weight, self.elements), spec)

    def to_json(self) -> list:
        return [list(w) for w in self.elements]


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

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


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
        m: IntegerMatrix) -> Tuple[IntegerMatrix, IntegerMatrix, List[Dict[int, int]]]:
    """Return (diagonal, left, right) with left*m*right = diagonal,
    left/right unimodular and non-negative diagonal d1 | d2 | ... ;
    ``right`` is given as the list of its columns, each a dict from row to
    nonzero entry.  The rows stay dense lists, but a row update runs over the
    source row's nonzero columns only and a column update over the rows
    nonzero in the source column."""
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [{j: 1} for j in range(cols)]

    def support(i):  # the nonzero columns of row i
        return list(compress(range(cols), a[i]))

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        right[i], right[j] = right[j], right[i]

    def add_row(src, dst, f, src_support):  # row dst += f * row src
        if f:
            s, d = a[src], a[dst]
            for k in src_support:
                d[k] += f * s[k]
            left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f, holders):  # holders: the rows nonzero at column src
        if not f:
            return
        for r in holders:
            r[dst] += f * r[src]
        col = right[dst]
        for k, y in right[src].items():
            x = col.get(k, 0) + f * y
            if x:
                col[k] = x
            else:
                del col[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < rows and t < cols:
        # pivot: the row-major first entry of least nonzero |value| in the block
        piv = None
        for i in range(t, rows):
            # nothing beats a unit; rows t.. are 0 left of column t
            if 1 in a[i] or -1 in a[i]:
                piv = (1, i)
                break
            size = min(map(abs, filter(None, a[i][t:])), default=0)
            if size and (piv is None or size < piv[0]):
                piv = (size, i)
        if piv is None:
            break
        size, i = piv
        swap_rows(t, i)
        swap_cols(t, next(j for j in range(t, cols) if abs(a[t][j]) == size))
        while True:
            dirty = False
            pivot_support = support(t)
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]), pivot_support)
                    if a[i][t]:
                        swap_rows(t, i)
                        pivot_support = support(t)
                        dirty = True
            row = a[t]
            holders = [r for r in a if r[t]]
            # handling column j changes row t at columns t and j only, so the
            # columns to visit are those nonzero now
            for j in support(t):
                if j > t:
                    add_col(t, j, -(row[j] // row[t]), holders)
                    if row[j]:
                        swap_cols(t, j)
                        holders = [r for r in a if r[t]]
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            d = a[t][t]
            offender = None
            if abs(d) != 1:
                offender = next((i for i in range(t + 1, rows)
                                 if any(map(d.__rmod__, a[i][t + 1:]))), None)
            if offender is None:
                break
            add_row(offender, t, 1, support(offender))
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return (
        IntegerMatrix(rows, cols, tuple(map(tuple, a))),
        IntegerMatrix(rows, rows, tuple(map(tuple, left))),
        right,
    )


def basis_coordinates(w: Tuple[int, ...]) -> Tuple[int, ...]:
    """Coordinates of a weight in the canonical chart, over Z.

    The chart is the basis a[1,2], ..., a[n-1,n]; the coordinate vector is
    the prefix-sum sequence of the entries without the last, so a mod-q
    weight gets the coordinates of its lift that sums to zero exactly.
    """
    coords = []
    acc = 0
    for e in w[:-1]:
        acc += e
        coords.append(acc)
    return tuple(coords)


def coordinate_matrix(lam: WeightSet) -> IntegerMatrix:
    """rank x |Lambda| matrix whose columns are the chart coordinates of the
    elements of Lambda, lifted to Z; mod-q sets get q times each basis vector
    appended so integer surjectivity matches surjectivity over Z/q."""
    rank = lam.spec.rank
    cols = [basis_coordinates(w) for w in lam.elements]
    if lam.spec.modulus:
        q = lam.spec.modulus
        for i in range(rank):
            cols.append(tuple(q if j == i else 0 for j in range(rank)))
    return IntegerMatrix(rank, len(cols), tuple(zip(*cols)) if cols else ((),) * rank)


def spans(lam: WeightSet) -> bool:
    """True iff Lambda generates the full (zero-sum) lattice over Z or Z/q."""
    d = lam._smith[0]
    return len(d) == lam.spec.rank and all(x == 1 for x in d)


def kernel_basis(lam: WeightSet) -> Tuple[SparseVector, ...]:
    """Integer basis of {c in Z[Lambda] : sum c_i * lambda_i = 0} (modulus 0),
    each a sparse vector indexed by the canonical order of Lambda."""
    if lam.spec.modulus:
        raise LatticeError("kernel_basis requires modulus 0; see kernel_generators_mod")
    return lam._smith[1]


def kernel_generators_mod(lam: WeightSet) -> Tuple[SparseVector, ...]:
    """Generators of {c in Z[Lambda] : sum c_i * lambda_i = 0 in (Z/q)-lattice},
    each a sparse vector indexed by the canonical order of Lambda.

    Computed as the projection of the integer kernel of [A | q*I] onto the
    Z[Lambda] coordinates.
    """
    q = lam.spec.modulus
    if not q:
        return kernel_basis(lam)
    s = len(lam)
    # the columns of coordinate_matrix past s are the appended q*I
    gens = [tuple(e for e in col if e[0] < s) for col in lam._smith[1]]
    # q * e_i always lies in the kernel; make sure generation is not lost to
    # projection by including them explicitly.
    gens.extend(((i, q),) for i in range(s))
    return tuple(gens)


def field_width(p: int, dim: int) -> int:
    """Bits per coordinate of a packed F_p row of length ``dim``: 1 for p = 2;
    for odd p, room for an entry below p plus dim lazy updates of at most
    (p - 1)^2 each, so that no field carries into the next."""
    return 1 if p == 2 else (p - 1 + dim * (p - 1) ** 2).bit_length()


def pack_mod_p(vec: Sequence[int], p: int) -> int:
    """The F_p vector ``vec`` reduced mod p and packed into one int:
    coordinate i in the field at bit i * field_width(p, len(vec))."""
    width = field_width(p, len(vec))
    return sum(x % p << i * width for i, x in enumerate(vec))


def unpack_mod_p(row: int, p: int, dim: int) -> Tuple[int, ...]:
    """The coordinates of a packed row of length ``dim``, reduced mod p."""
    width = field_width(p, dim)
    mask = (1 << width) - 1
    return tuple((row >> i * width & mask) % p for i in range(dim))


def echelon_mod_p(
    vectors: Iterable[int],
    p: int,
    dim: int,
    basis: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Reduced row-echelon basis over F_p of the span of ``basis`` and
    ``vectors``, as a new dict from pivot column to packed row.

    Vectors and rows are packed by ``pack_mod_p`` with entries below p, all
    of length ``dim``; ``basis`` must itself come from this function and is
    left unchanged.  Each row is 1 at its own pivot and 0 at every other
    pivot, so one pass over the rows, in any order, reduces a vector, and the
    pivot entries it reads are the vector's own.  For p = 2 a row is a bit
    mask, reduction is XOR and the pivot is the lowest set bit.  For odd p a
    vector takes each update ``v + (p - f) * row`` without reducing its
    fields, which ``field_width`` leaves room for; once it has passed every
    row its pivot fields are 0 mod p and dropped, and its other fields are
    reduced in one pass, as are those of each back-substituted row.  The
    vectors stop being read once the rank reaches ``dim``.
    """
    out = dict(basis) if basis else {}
    if p == 2:
        for v in vectors:
            for col, row in out.items():
                if v >> col & 1:
                    v ^= row
            if v:
                low = v & -v
                for col, row in out.items():
                    if row & low:
                        out[col] = row ^ v
                out[low.bit_length() - 1] = v
                if len(out) == dim:
                    break
        return out
    width = field_width(p, dim)
    mask = (1 << width) - 1
    # the shifts of the non-pivot fields, the only ones a reduced vector keeps
    free = [i * width for i in range(dim) if i not in out]
    for v in vectors:
        u = v
        for col, row in out.items():
            f = u >> col * width & mask
            if f:
                u += (p - f) * row
        if u != v:
            u = sum((u >> s & mask) % p << s for s in free)
        if not u:
            continue
        lead = ((u & -u).bit_length() - 1) // width
        low = lead * width
        f = u >> low & mask
        if f != 1:
            u *= pow(f, -1, p)
            u = sum((u >> s & mask) % p << s for s in free)
        free.remove(low)
        for col, row in out.items():
            f = row >> low & mask
            if f:
                row += (p - f) * u
                out[col] = sum((row >> s & mask) % p << s for s in free) | 1 << col * width
        out[lead] = u
        if len(out) == dim:
            break
    return out


def rank_mod_p(lam: WeightSet, p: int, rank: int) -> int:
    """F_p-rank of the chart coordinates of the weights of lam, capped at
    ``rank`` (Gaussian elimination, exact)."""
    return min(rank, len(echelon_mod_p(
        (pack_mod_p(basis_coordinates(w), p) for w in lam), p, lam.spec.rank)))
