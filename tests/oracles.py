"""References the tests compare the library against, reached from no code
path of the package: brute force written from the definitions, the
permutation, weight-set and lattice helpers only the tests use (cycle
notation, composition, the identity, mod-q reduction, the prime of a
modulus and the map phi), the central elements as products of block
rotations, the witness set of case (d) in closed form (the package builds
it as an orbit closure; case (c)'s closed form is the package's own, and
the tests check it against the closure instead), the prefix-sum chart
a[1,2], ..., a[n-1,n] in which the package took F_p ranks before it read
the weights' own entries, the matrix [A | q*I] from which the package read
a mod-q span before it went through F_p, the coordinate matrix and Smith
form of a set over Z, listed either way, from which the package read spans
and kernels before the spanning forest (the one Smith normal form, with
its left transform, is lattice's, kept there for the tracer), the reading
of a[i,j] pairs off a tuple-listed set, which the package refuses, the
block rotations that generate the center's p-torsion, the center scan by
which the package decided faithfulness before it counted characters, over
the Smith form's kernel and over the package's own cycles, the
breadth-first spanning forest of a set of a[i,j] read off its tuples,
sympy's reduced row echelon form over GF(p), the branch-and-bound
search the coinvariant greedy replaced, the echelon basis of IV the greedy
reduced against before its closed-form class map, the greedy as it ran
before it stepped over runs of orbits of one class, orbit by orbit, the
Burnside count refined by class from which a one-block search read its
first exponent of nonzero class before the min-plus pass, the paper's
block-sum map, p-multiple test, Nakayama filter and fiber count, which the
greedy's coinvariant argument supersedes, and views of the search's own
parts that only the tests read: its class map applied to a vector, its
orbit counts and its stream of orbit representatives, unrolled."""

import math
from itertools import accumulate, islice
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from essdim.bounds import (BoundsError, Table, _class_fold, _level_counts, _needs, _nonzero_orbits,
                           _Stream, _zero_sums)
from essdim.constructions import permute_coefficients
from essdim.edcalc import EdError
from essdim.lattice import (IntegerMatrix, LatticeError, LatticeSpec, SparseVector, WeightSet,
                            echelon_mod_p, kernel_generators_mod, prime_power_root,
                            smith_normal_form, spans, standard_weight)
from essdim.permgroup import (Perm, PermError, PermGroupSpec, act, center_order_p_elements, orbit,
                              p_adic_digits, part_levels, sylow_subgroup)


# the one line the package refuses a set over Z with that is not listed from
# its a[i,j] pairs, as a whole-message pattern for pytest.raises
NOT_PAIRS = r"^weight set is not listed from a\[i,j\] pairs over Z$"


def from_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation like "(1 2)(3 4)"; points are whitespace
    separated, fixed points may be omitted."""
    images = list(range(1, n + 1))
    text = text.strip()
    if text and text not in ("()", "e", "id"):
        if not (text.startswith("(") and text.endswith(")")):
            raise PermError(f"bad cycle notation: {text!r}")
        for chunk in text[1:-1].split(")("):
            pts = [int(t) for t in chunk.replace(",", " ").split()]
            if len(set(pts)) != len(pts) or any(not 1 <= x <= n for x in pts):
                raise PermError(f"bad cycle {chunk!r} for n={n}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a - 1] = b
    if sorted(images) != list(range(1, n + 1)):
        raise PermError(f"cycles overlap in {text!r}")
    return Perm.of(images)


def compose(g: Perm, h: Perm) -> Perm:
    """The composition g h: i -> g(h(i))."""
    if g.n != h.n:
        raise PermError("degree mismatch")
    return Perm(tuple(g.images[h.images[i] - 1] for i in range(g.n)))


def perm_identity(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def block_rotations(group) -> Tuple[Perm, ...]:
    """Per block, in block order, the product of the disjoint p-cycles
    rotating each consecutive p-run: the generators z_b of the center's
    p-torsion."""
    p, n = group.p, group.n
    rotations = []
    for lo, hi in group.blocks:
        images = list(range(1, n + 1))
        for start in range(lo, hi + 1, p):
            for x in range(p):
                images[start + x - 1] = start + (x + 1) % p
        rotations.append(Perm.of(images))
    return tuple(rotations)


def rotation_center(group) -> Tuple[Perm, ...]:
    """center_order_p_elements as the package built it before it wrote the
    images from the blocks: every product of powers of the block
    rotations."""
    p, n = group.p, group.n
    powers = []  # powers[b][k]: rotation b to the k
    for rot in block_rotations(group):
        powers.append([perm_identity(n)])
        for _ in range(p - 1):
            powers[-1].append(compose(powers[-1][-1], rot))
    out = []
    for code in range(1, p ** len(powers)):
        g = perm_identity(n)
        for b, power in enumerate(powers):
            g = compose(g, power[code // p ** b % p])
        out.append(g)
    return tuple(sorted(out))


def spec_prime(spec: LatticeSpec):
    """The prime of the modulus of spec, None over the integers."""
    return prime_power_root(spec.modulus) if spec.modulus else None


def reduce_mod(lam: WeightSet, q: int) -> WeightSet:
    """Entrywise reduction into the mod-q lattice of the same length."""
    spec = LatticeSpec(lam.spec.n, q)
    return WeightSet.of(map(spec.weight, lam.elements), spec)


def phi_image(lam: WeightSet, coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    """phi: Z[Lambda] -> X, sum of coeff * weight."""
    acc = [0] * lam.spec.n
    for c, w in zip(coeffs, lam.elements):
        if c:
            acc = [a + c * e for a, e in zip(acc, w)]
    return lam.spec.weight(acc)


def in_p_multiple(w: Tuple[int, ...], p: int, spec: LatticeSpec) -> bool:
    """True iff the weight w of spec lies in p * X_n, i.e. every entry is
    divisible by p in Z/q."""
    q = spec.modulus
    if not q:
        raise LatticeError("in_p_multiple requires a mod-q lattice")
    if spec_prime(spec) != p:
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
        h = compose(h, g)
        k += 1
    return k


def identity(n):
    return IntegerMatrix.of([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def diagonal_matrix(d, rows, cols):
    """The rows x cols IntegerMatrix with diagonal d and zeros elsewhere."""
    return IntegerMatrix.of([[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)])


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


def closed_lambda_d(n, p):
    """Case (d)'s witness set in closed form: all a[alpha,beta] with alpha in
    the first block [1, s] and beta outside it.

    P_n is a product of one factor per block, transitive on it; so the orbit
    of a[1, lo] for a later block [lo, hi] is [1, s] x [lo, hi] (its size the
    index of the stabilizer), and the union is [1, s] x [s+1, n].  In
    canonical order: alpha down, beta up."""
    s = p ** p_adic_digits(n, p)[1][0][1]
    pairs = ((i, j) for i in range(s, 0, -1) for j in range(s + 1, n + 1))
    return WeightSet.from_pairs(pairs, LatticeSpec(n))


def group_elements(group):
    """Every element of the group, by closing the identity under left
    multiplication by the generators, in sorted order."""
    ident = perm_identity(group.n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.generators:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def faithful_by_enumeration(lam, group):
    """True iff every non-identity element of the group moves some
    generator of Ker(phi), each moved by permute_coefficients; the
    generators are the SNF's kernel columns, so any set over Z is taken."""
    return all(map(kernel_moved(lam), (g for g in group_elements(group) if not is_identity(g))))


def faithful_on_center(lam, group):
    """The center scan by which genfree.kernel_action_faithful decided
    faithfulness before it counted characters, over the SNF's kernel
    columns, for any set over Z: every order-p central element moves some
    generator of Ker(phi)."""
    return all(map(kernel_moved(lam), center_order_p_elements(group)))


def faithful_on_center_lines(lam, group):
    """The same scan over the package's kernel cycles of lam, a set of
    a[i,j] listed from its pairs, with one central element per subgroup of
    order p (its powers fix what it fixes): (p^k - 1)/(p - 1) elements for
    k blocks, each written from its block exponents, not composed.  An
    element moves a cycle iff it moves the cycle's signed support, each
    a[i,j] going to a[g(i), g(j)]."""
    p, blocks, pairs = group.p, group.blocks, lam.pairs
    cycles, positions = kernel_generators_mod(lam), lam.edge_positions
    for code in range(1, p ** len(blocks)):
        exponents = [code // p ** b % p for b in range(len(blocks))]
        if next(e for e in exponents if e) != 1:
            continue
        at = list(range(group.n + 1))  # at[x] = g(x)
        for (lo, hi), e in zip(blocks, exponents):
            for x in range(lo, hi + 1):
                at[x] = x - (x - lo) % p + ((x - lo) % p + e) % p
        if not any(sorted((positions[at[pairs[k][0]], at[pairs[k][1]]], c) for k, c in vec)
                   != list(vec) for vec in cycles):
            return False
    return True


def kernel_moved(lam):
    """g -> whether g moves some kernel column of the SNF of lam, by
    permute_coefficients."""
    gens = []
    for vec in smith(lam)[1]:
        dense = [0] * len(lam)
        for i, c in vec:
            dense[i] = c
        gens.append(tuple(dense))
    return lambda g: any(permute_coefficients(g, lam, v) != v for v in gens)


def forest_positions(lam: WeightSet) -> set:
    """The positions in lam, a set of a[i,j] over Z, of the weights of the
    breadth-first spanning forest of its graph (an edge i -> j per a[i,j]):
    grown from vertex 1, then from each vertex not yet reached, in
    increasing order; a vertex's edges are taken in canonical order."""
    n = lam.spec.n
    reached, forest = set(), set()
    for root in range(1, n + 1):
        if root in reached:
            continue
        reached.add(root)
        queue = [root]
        for u in queue:
            for k, w in enumerate(lam.elements):
                if w[u - 1]:
                    v = next(x for x in range(1, n + 1) if x != u and w[x - 1])
                    if v not in reached:
                        reached.add(v)
                        forest.add(k)
                        queue.append(v)
    return forest


def pair_set(pairs: Iterable[Tuple[int, int]], spec: LatticeSpec) -> WeightSet:
    """The set of the a[i,j] of Z^n for the given (i, j), deduplicated and
    listed from its pairs in the canonical order of its weights."""
    return WeightSet.from_pairs(sorted(set(pairs), key=lambda e: standard_weight(*e, spec)), spec)


def as_pairs(lam: WeightSet):
    """A set over Z listed as tuples, every weight an a[i,j], listed from its
    pairs, each read off its tuple (as the package did before it certified
    pair-listed sets only); None when some weight is not an a[i,j]."""
    n = lam.spec.n
    # a zero-sum weight with n - 2 zeros and an entry 1 is an a[i,j]
    if not all(w.count(0) == n - 2 and 1 in w for w in lam.elements):
        return None
    return WeightSet.from_pairs(((w.index(1) + 1, w.index(-1) + 1) for w in lam.elements),
                                lam.spec)


def basis_coordinates(w: Tuple[int, ...]) -> Tuple[int, ...]:
    """Coordinates of a weight in the chart a[1,2], ..., a[n-1,n], over Z:
    the prefix sums of its entries without the last, so a mod-q weight gets
    the coordinates of its lift that sums to zero exactly.  The package
    took its F_p ranks in this chart before it read the weights' own
    entries."""
    return tuple(accumulate(w[:-1]))


def coordinate_matrix(lam: WeightSet) -> IntegerMatrix:
    """rank x |Lambda| matrix whose columns are the chart coordinates of the
    elements of Lambda, lifted to Z."""
    cols = [basis_coordinates(w) for w in lam.elements]
    return IntegerMatrix(lam.spec.rank, len(cols),
                         tuple(zip(*cols)) if cols else ((),) * lam.spec.rank)


def smith(lam: WeightSet) -> Tuple[Tuple[int, ...], Tuple[SparseVector, ...]]:
    """For a set over Z, listed either way: the diagonal of the Smith normal
    form of coordinate_matrix(lam), and the columns of its right transform
    past the rank, which generate the integer kernel, as sparse vectors (the
    package's spans and kernel read them before the spanning forest)."""
    d, _, right = smith_normal_form(coordinate_matrix(lam))
    rank = sum(1 for x in d if x)
    return d, tuple(tuple(sorted(col.items())) for col in right[rank:])


def modulus_matrix(lam: WeightSet) -> IntegerMatrix:
    """[A | q*I]: coordinate_matrix(lam), with q times each chart basis
    vector appended for a set over Z/q, so that its integer column span is
    the whole chart iff lam generates the mod-q lattice.  The package's
    spans read a mod-q set off the Smith normal form of this matrix before
    it went through the F_p rank."""
    m = coordinate_matrix(lam)
    q = lam.spec.modulus
    if not q:
        return m
    rows = tuple(row + tuple(q if j == i else 0 for j in range(m.rows))
                 for i, row in enumerate(m.entries))
    return IntegerMatrix(m.rows, m.cols + m.rows, rows)


def sympy_rref_mod_p(vectors: Iterable[Sequence[int]], p: int,
                     dim: int) -> Dict[int, Tuple[int, ...]]:
    """The reduced row echelon basis over GF(p) of the span of ``vectors``,
    each of length ``dim``, by sympy's ``DomainMatrix.rref``, as a dict from
    pivot column to row with entries in [0, p).  The reduced echelon basis
    of a span is unique, so the package's ``echelon_mod_p`` must equal it."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)
    rows = [[field(x) for x in v] for v in vectors]
    reduced, pivots = DomainMatrix(rows, (len(rows), dim), field).rref()
    return {col: tuple(int(x) % p for x in row)
            for col, row in zip(pivots, reduced.to_list())}


# The exact search as the package ran it before the coinvariant greedy: a
# depth-first branch-and-bound over orbit unions on F_p echelon bases.
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
                      dim: int) -> List[Dict[int, Tuple[int, ...]]]:
    """The F_p echelon basis of each orbit's chart coordinates.
    Reduction mod p commutes with P_n and with the prefix-sum chart, so an
    orbit's span is that of the orbit of its first element mod p; orbits
    with the same first element mod p share one dict, computed once."""
    by_residue: Dict[Tuple[int, ...], Dict[int, Tuple[int, ...]]] = {}
    out = []
    for o in orbits:
        key = tuple(x % p for x in o.elements[0])
        span = by_residue.get(key)
        if span is None:
            span = by_residue[key] = echelon_mod_p(map(basis_coordinates, o), p, dim)
        out.append(span)
    return out


def coinvariant_radical(group) -> Dict[int, Tuple[int, ...]]:
    """The F_p echelon basis of IV in the chart, V = X_n / p X_n and I the
    augmentation ideal of F_p[P_n], P_n = group: the vectors (g - 1) a[j, j+1]
    over the generators g of P_n and the chart basis.  g1 g2 - 1 = (g1 - 1) g2
    + (g2 - 1), so the g - 1 over the generators span I as a right ideal and
    the sum of the (g - 1) V is IV."""
    spec = LatticeSpec(group.n)
    chart = [standard_weight(j, j + 1, spec) for j in range(1, group.n)]
    return echelon_mod_p(
        (basis_coordinates([x - y for x, y in zip(act(g, a), a)])
         for g in group.generators for a in chart),
        group.p, spec.rank)


class BudgetExhausted(RuntimeError):
    """branch_and_bound_min explored its budget of nodes; its DFS is
    exponential, unlike the greedy, which examines each orbit at most once."""


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
                      else echelon_mod_p(span.values(), p, target, rest))
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
        if len(rest) == target or len(echelon_mod_p(rest.values(), p, target, basis)) == target:
            stack.append((i + 1, basis, size, chosen))
        # an orbit inside the current span only adds size
        grown = echelon_mod_p(orbit_spans[i].values(), p, target, basis)
        if len(grown) > len(basis):
            stack.append((i + 1, grown, size + sizes[i], chosen + (i,)))
    witness = WeightSet.of([w for i in choice for w in orbits[i].elements], spec)
    return best, witness, nodes


def per_orbit_greedy(n: int, p: int, q: int) -> Tuple[int, WeightSet, int, int]:
    """(minimum, witness, nodes explored, orbit count) of the coinvariant
    greedy as it ran before it stepped over runs of one class: each nonzero
    orbit of orbit_representatives, in (size, representative) order, is
    examined on its own, its class read by coinvariant_class off its
    representative, until the classes kept span the coinvariants."""
    spec = LatticeSpec(n, q)
    group = sylow_subgroup(n, p)
    f, target = coinvariant_class(group)
    basis: Dict[int, Tuple[int, ...]] = {}
    chosen = []
    examined = 0
    for _, rep in orbit_representatives(group, q):
        if len(basis) == target:
            break
        examined += 1
        image = f(rep)
        if not any(image):  # an orbit in IV cannot raise the rank
            continue
        grown = echelon_mod_p([image], p, target, basis)
        if len(grown) > len(basis):
            basis = grown
            chosen.append(orbit(group, rep, spec))
    witness = WeightSet.of([w for o in chosen for w in o.elements], spec)
    return len(witness), witness, examined, count_orbits(group, q)


def class_counts(sub: Table, p: int, q: int, top: int) -> Tuple[List[int], List[int]]:
    """For a block over the sub-block table sub, its zero-sum orbits by
    exponent, and those of nonzero class, the class sum_k k s_k mod p of
    the sums s_k of its p sub-blocks (coinvariant_class).  On zero-sum
    p-tuples the class is invariant under rotation, so Burnside counts the
    tuples by (exponent, sum, class) as _level_counts does by (exponent,
    sum), over a period raised to p, where k s_k mod p is read."""
    g, counts = sub
    period = max(g, p)
    scale = q // period
    slot = [(e, t, n) for (e, s), n in counts.items() for t in range(s, period, g)]
    tuples = {(e, t, 0): n for e, t, n in slot}
    for k in range(1, p - 1):
        grown: Dict[Tuple[int, int, int], int] = {}
        for (e1, s1, c1), n1 in tuples.items():
            for e2, s2, n2 in slot:
                key = (min(e1 + e2, top), (s1 + s2) % period, (c1 + k * s2) % p)
                grown[key] = grown.get(key, 0) + n1 * n2 * scale
        tuples = grown
    # the last slot's sum is the one that makes the tuple's sum zero
    by_sum: Dict[int, List[Tuple[int, int]]] = {}
    for e, t, n in slot:
        by_sum.setdefault(t, []).append((e, n))
    split = [[0, 0] for _ in range(top + 1)]
    for (e1, s1, c1), n1 in tuples.items():
        s2 = -s1 % period
        c = (c1 + (p - 1) * s2) % p > 0
        for e2, n2 in by_sum.get(s2, ()):
            split[min(e1 + e2, top)][c] += n1 * n2 * scale
    # p equal sub-orbits of zero sum s, s = k q / p, have class s p (p - 1)
    # / 2: nonzero only at p = 2 and s = q / 2 odd, that is q = 2 and s = 1
    const = [[0, 0] for _ in range(top + 1)]
    for (e, s), n in counts.items():
        for k in range(p):
            if (k * q // p - s) % g == 0:
                const[min(p * e, top)][q == 2 and k == 1] += n
    out = [list(c) for c in const]
    for e, (row, crow) in enumerate(zip(split, const)):
        for c in (0, 1):
            out[min(e + 1, top)][c] += (row[c] - crow[c]) // p
    return [a + b for a, b in out], [b for _, b in out]


def coinvariant_class(
    group: PermGroupSpec,
) -> Tuple[Callable[[Sequence[int]], Tuple[int, ...]], int]:
    """(f, dim C): the search's class map (bounds._class_fold, where the
    proof is) applied to a vector v of V = X_n / p X_n, P_n = group: f(v)
    folds the part sums of v but the last, or on one block its p sub-block
    sums."""
    p, n = group.p, group.n
    levels = part_levels(n, p)
    fold, dim = _class_fold(p, levels)
    if len(levels) == 1 and levels[0]:
        cuts = [(t * n // p, (t + 1) * n // p) for t in range(p)]
    else:
        ends = list(accumulate((p ** r for r in levels), initial=0))
        cuts = list(zip(ends, ends[1:]))[:-1]
    return (lambda v: fold([sum(v[lo:hi]) for lo, hi in cuts])), dim


def layout_counts(p: int, q: int, levels: List[int], top: int) -> Tuple[List[Table], int]:
    """(tables, zero-sum orbits) of the layout levels, exponents up to top:
    bounds._level_counts up to the top level, and bounds._zero_sums."""
    tables = list(islice(_level_counts(p, q, top), max(levels) + 1))
    return tables, _zero_sums(tables, levels, q)


def count_orbits(group: PermGroupSpec, q: int) -> int:
    """The number of nonzero orbits of group, a Sylow subgroup, on the
    zero-sum lattice mod q, a power of p, without listing them: the layout
    table with one exponent row, at residue 0, less the zero orbit."""
    return layout_counts(group.p, q, part_levels(group.n, group.p), 0)[1] - 1


def orbit_representatives(group: PermGroupSpec, q: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """(size, least element) of each nonzero orbit of group, a Sylow
    subgroup, on the zero-sum lattice mod q, in (size, representative)
    order, without listing the lattice: the runs of bounds._Stream,
    unrolled, up to the group's own order."""
    p, cap = group.p, group.order_exponent
    levels = part_levels(group.n, p)
    stream = _Stream(p, q, levels, _needs(levels, cap, p), layout_counts(p, q, levels, cap + 1)[0])
    for e in range(cap + 1):
        for _, _, reps in stream.runs(e):
            for rep in reps():
                if e or any(rep):
                    yield p ** e, rep
