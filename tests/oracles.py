"""References the tests compare the library against, reached from no code
path of the package: brute force written from the definitions, the witness
sets of cases (c) and (d) in closed form, the Smith normal form as the
package computed it before its updates followed the matrix's support,
the F_p echelon basis over tuple rows as it was before rows were packed,
the branch-and-bound search the coinvariant greedy replaced, and the
paper's block-sum map, p-multiple test, Nakayama filter and fiber count,
which the greedy's coinvariant argument supersedes."""

import math
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from essdim.bounds import BoundsError, BudgetExhausted, _nonzero_orbits
from essdim.constructions import permute_coefficients
from essdim.edcalc import EdError
from essdim.lattice import (IntegerMatrix, LatticeError, LatticeSpec, WeightSet,
                            basis_coordinates, kernel_generators_mod,
                            pack_mod_p, prime_power_root, spans)
from essdim.lattice import echelon_mod_p as packed_echelon
from essdim.permgroup import Perm, p_adic_digits


def in_p_multiple(w: Tuple[int, ...], p: int, spec: LatticeSpec) -> bool:
    """True iff the weight w of spec lies in p * X_n, i.e. every entry is
    divisible by p in Z/q."""
    q = spec.modulus
    if not q:
        raise LatticeError("in_p_multiple requires a mod-q lattice")
    if spec.prime != p:
        raise LatticeError(f"prime {p} does not match modulus {q}")
    return all(e % p == 0 for e in w)


def sigma_map(w: Tuple[int, ...], p: int, spec: LatticeSpec) -> Tuple[int, ...]:
    """Block-sum homomorphism from spec to the lattice of length n/p with
    the same modulus: entry i of the image is the sum of w's entries over
    the i-th consecutive p-run."""
    n = spec.n
    if n % p != 0:
        raise BoundsError(f"p={p} does not divide n={n}")
    sums = [
        sum(w[(i - 1) * p: i * p]) for i in range(1, n // p + 1)
    ]
    return LatticeSpec(n // p, spec.modulus).weight(sums)


def nakayama_filter(lam: WeightSet, p: int) -> WeightSet:
    """Drop the elements lying in p * X_n; the rest still generates."""
    q = lam.spec.modulus
    if not q or prime_power_root(q) != p:
        raise BoundsError("nakayama_filter needs a mod-p^e lattice")
    if not spans(lam):
        raise BoundsError("input set does not generate the lattice")
    kept = WeightSet.of(
        [w for w in lam.elements if not in_p_multiple(w, p, lam.spec)], lam.spec)
    assert spans(kept), "Nakayama filtering lost generation"
    return kept


def fiber_check(lam: WeightSet, p: int) -> dict:
    """Count preimages in Lambda over each non-p-multiple block-sum image;
    the fiber-counting argument needs every count >= p^2."""
    images: Dict[Tuple[int, ...], int] = {}
    for w in lam.elements:
        s = sigma_map(w, p, lam.spec)
        images[s] = images.get(s, 0) + 1
    # in_p_multiple reads only the modulus, which sigma_map keeps
    tested = {s: c for s, c in images.items() if not in_p_multiple(s, p, lam.spec)}
    if not tested:
        return {
            "tested_fibers": 0,
            "minimum_count": None,
            "attained_at": None,
            "violation": False,
            "note": "no fibers tested: every block-sum image lies in p*X",
        }
    smin = min(tested, key=lambda s: (tested[s], s))
    return {
        "tested_fibers": len(tested),
        "minimum_count": tested[smin],
        "attained_at": list(smin),
        "violation": tested[smin] < p * p,
        "required": p * p,
    }


def is_identity(g):
    return all(g.images[i] == i + 1 for i in range(g.n))


def order(g):
    """The least k >= 1 with g^k the identity."""
    k = 1
    h = g
    while not is_identity(h):
        h = h * g
        k += 1
    return k


def identity(n):
    return IntegerMatrix.of([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def matmul(x, y):
    """The product of two IntegerMatrix values."""
    if x.cols != y.rows:
        raise LatticeError("dimension mismatch in matrix product")
    grid = [[sum(x.entries[i][k] * y.entries[k][j] for k in range(x.cols))
             for j in range(y.cols)]
            for i in range(x.rows)]
    return IntegerMatrix.of(grid) if grid else IntegerMatrix(0, y.cols, ())


def pgl_upper_bound(p, r):
    """The paper's upper bound p^(2r-1) - p^r + 1 for the projective linear
    group at p, valid only for r >= 2."""
    if r < 2:
        raise EdError("upper bound requires r >= 2 (the r = 1 value is at least 2)")
    return p ** (2 * r - 1) - p ** r + 1


def standard_weights(pairs, spec):
    """The weight set of the a[i,j] for distinct (i, j) pairs listed in the
    canonical order of their weights, built without sorting."""
    row = [0] * spec.n
    out = []
    for i, j in pairs:
        row[i - 1], row[j - 1] = 1, -1
        out.append(tuple(row))
        row[i - 1] = row[j - 1] = 0
    return WeightSet(tuple(out), spec)


def closed_lambda_c(p, r):
    """Case (c)'s witness set, the P_n-orbit of a[1, m+1] for n = p^r and
    m = p^(r-1), in closed form.

    P_n is (P_m)^p, one factor transitive on each sub-block B_t = [t*m+1,
    (t+1)*m], extended by the rotation B_t -> B_(t+1 mod p); so the orbit is
    the union over t of B_t x B_(t+1): p * m^2 weights, the index of their
    stabilizer.  In canonical order: the a[i,j] with j < i (B_(p-1) x B_0)
    by j up, i down, then those with i < j by i down, j up."""
    n = p ** r
    m = n // p
    last = ((i, j) for j in range(1, m + 1) for i in range(n, n - m, -1))
    rest = ((i, j) for t in range(p - 2, -1, -1) for i in range((t + 1) * m, t * m, -1)
            for j in range((t + 1) * m + 1, (t + 2) * m + 1))
    return standard_weights(chain(last, rest), LatticeSpec(n))


def closed_lambda_d(n, p):
    """Case (d)'s witness set in closed form: all a[alpha,beta] with alpha in
    the first block [1, s] and beta outside it.

    P_n is a product of one factor per block, transitive on it; so the orbit
    of a[1, lo] for a later block [lo, hi] is [1, s] x [lo, hi] (its size the
    index of the stabilizer), and the union is [1, s] x [s+1, n].  In
    canonical order: alpha down, beta up."""
    s = p ** p_adic_digits(n, p)[1][0][1]
    pairs = ((i, j) for i in range(s, 0, -1) for j in range(s + 1, n + 1))
    return standard_weights(pairs, LatticeSpec(n))


def group_elements(group):
    """Every element of the group, by closing the identity under left
    multiplication by the generators, in sorted order."""
    ident = Perm.identity(group.n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def faithful_by_enumeration(lam, group):
    """True iff every non-identity element of the group moves some
    generator of Ker(phi), each moved by permute_coefficients."""
    gens = []
    for vec in kernel_generators_mod(lam):
        dense = [0] * len(lam)
        for i, c in vec:
            dense[i] = c
        gens.append(tuple(dense))
    return all(any(permute_coefficients(g, lam, v) != v for v in gens)
               for g in group_elements(group) if not is_identity(g))


# The Smith normal form with whole-row and whole-column updates, as the
# package computed it before its updates followed the matrix's support: the
# package's must repeat its every operation.
def dense_smith_normal_form(
        m: IntegerMatrix) -> Tuple[IntegerMatrix, IntegerMatrix, List[Dict[int, int]]]:
    """Return (diagonal, left, right) with left*m*right = diagonal,
    left/right unimodular and non-negative diagonal d1 | d2 | ... ;
    ``right`` is given as the list of its columns, each a dict from row to
    nonzero entry."""
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [{j: 1} for j in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        right[i], right[j] = right[j], right[i]

    def add_row(src, dst, f):  # row dst += f * row src
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        if not f:
            return
        for r in a:
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
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            row = a[t]
            for j in range(t + 1, cols):
                if row[j]:
                    add_col(t, j, -(row[j] // row[t]))
                    if row[j]:
                        swap_cols(t, j)
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
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return (
        IntegerMatrix(rows, cols, tuple(map(tuple, a))),
        IntegerMatrix(rows, rows, tuple(map(tuple, left))),
        right,
    )


# The F_p echelon basis over tuple rows, as the package computed it before
# its rows were packed into ints: the packed one, unpacked, must equal it.
def echelon_mod_p(
    vectors: Iterable[Sequence[int]],
    p: int,
    basis: Optional[Dict[int, Tuple[int, ...]]] = None,
) -> Dict[int, Tuple[int, ...]]:
    """Reduced row-echelon basis over F_p of the span of ``basis`` and
    ``vectors``, as a new dict from pivot column to row.

    ``basis`` must itself come from this function and is left unchanged.
    Each row is 1 at its own pivot and 0 at every other pivot, so one pass
    over the rows, in any order, reduces a vector.
    """
    out = dict(basis) if basis else {}
    for vec in vectors:
        v = [x % p for x in vec]
        for col, row in out.items():
            f = v[col]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        new = tuple(x * inv % p for x in v)
        for col, row in list(out.items()):
            f = row[lead]
            if f:
                out[col] = tuple((a - f * b) % p for a, b in zip(row, new))
        out[lead] = new
        if len(out) == len(new):
            break
    return out


# The exact search as the package ran it before the coinvariant greedy: a
# depth-first branch-and-bound over orbit unions on packed F_p echelon bases.
# The greedy must return its minimum and its witness.
def rank_cover_bounds(sizes: Sequence[int], ranks: Sequence[int],
                      target: int) -> List[Tuple[float, ...]]:
    """Entry [i][d] is a lower bound on the total size of orbits i, i+1, ...
    that raise the F_p rank by d: the fractional knapsack in which orbit j
    covers at most ranks[j], filled in ascending size/rank order (inf when
    the ranks cannot add up to d).  The cover never needs more than target
    orbits, since every useful orbit has rank at least 1."""
    # float ratios order exactly here: distinct size/rank ratios of small
    # integers never round to the same double
    cheapest: List[Tuple[float, int, int]] = []
    bounds = [(0,) + (math.inf,) * target]
    for size, rank in zip(reversed(sizes), reversed(ranks)):
        if rank:
            cheapest = sorted(cheapest + [(size / rank, size, rank)])[:target]
        row = [0]
        for deficit in range(1, target + 1):
            cost, need = 0, deficit
            for _, s, r in cheapest:
                if r >= need:
                    cost += -(-s * need // r)
                    need = 0
                    break
                cost += s
                need -= r
            row.append(math.inf if need else cost)
        bounds.append(tuple(row))
    bounds.reverse()
    return bounds


def orbit_spans_mod_p(orbits: Sequence[WeightSet], p: int,
                      dim: int) -> List[Dict[int, int]]:
    """The packed F_p echelon basis of each orbit's chart coordinates.
    Reduction mod p commutes with P_n and with the prefix-sum chart, so an
    orbit's span is that of the orbit of its first element mod p; orbits
    with the same first element mod p share one dict, computed once."""
    by_residue: Dict[Tuple[int, ...], Dict[int, int]] = {}
    out = []
    for o in orbits:
        key = tuple(x % p for x in o.elements[0])
        span = by_residue.get(key)
        if span is None:
            span = by_residue[key] = packed_echelon(
                (pack_mod_p(basis_coordinates(w), p) for w in o), p, dim)
        out.append(span)
    return out


def branch_and_bound_min(n: int, p: int, q: int,
                         budget: int = 10_000_000) -> Tuple[int, WeightSet, int]:
    """(minimum, witness, nodes explored) of the invariant generating
    subsets of the zero-sum lattice mod q, by exhausting all cheaper orbit
    unions.

    Depth-first over include/exclude decisions, orbit i at depth i, with
    include explored first: unions are met in canonical inclusion order,
    and only strict improvements are kept, so the final choice is the first
    generating union of optimal size in that order.  Branches are pruned by
    the fractional rank-cover bound and by the rank the later orbits (their
    suffix spans) can still reach.  A node carries the echelon basis of its
    chosen orbits, copied only when an orbit is added."""
    spec = LatticeSpec(n, q)
    orbits = _nonzero_orbits(spec, p)
    target = spec.rank
    sizes = [len(o) for o in orbits]
    orbit_spans = orbit_spans_mod_p(orbits, p, target)
    # suffix[i]: F_p span of orbits i, i+1, ...; full spans are shared
    suffix = [{}]
    for span in reversed(orbit_spans):
        rest = suffix[-1]
        suffix.append(rest if len(rest) == target
                      else packed_echelon(span.values(), p, target, rest))
    suffix.reverse()
    lower = rank_cover_bounds(sizes, [len(s) for s in orbit_spans], target)
    best = math.inf
    nodes = 0
    choice: Tuple[int, ...] = ()
    stack = [(0, {}, 0, ())]
    while stack:
        i, basis, size, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"node budget {budget} exhausted")
        deficit = target - len(basis)
        if size + lower[i][deficit] >= best:
            continue
        if not deficit:
            best, choice = size, chosen
            continue
        # leaving orbit i out, the later orbits must still complete the rank
        rest = suffix[i + 1]
        if len(rest) == target or len(packed_echelon(rest.values(), p, target, basis)) == target:
            stack.append((i + 1, basis, size, chosen))
        # an orbit inside the current span only adds size
        grown = packed_echelon(orbit_spans[i].values(), p, target, basis)
        if len(grown) > len(basis):
            stack.append((i + 1, grown, size + sizes[i], chosen + (i,)))
    witness = WeightSet.of([w for i in choice for w in orbits[i].elements], spec)
    return best, witness, nodes
