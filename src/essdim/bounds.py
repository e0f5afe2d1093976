"""Lower-bound machinery: the exact minimum of an invariant generating set of
the zero-sum lattice mod q, its orbit representatives, and naive oracles.

The minimum rests on one lemma.  P_n is a p-group, so F_p[P_n] is local with
maximal ideal its augmentation ideal I, and by Nakayama a union of orbits
generates X_n / q iff its orbit representatives span the coinvariants
C = V / IV, V = X_n / p X_n.  ``coinvariant_class`` reads the class of a
vector in C off its part sums, in closed form.  The minimum is then a
minimum-weight basis of a linear matroid, which the greedy in ascending
orbit order finds exactly (Edmonds 1971): one F_p echelon step
(``lattice.echelon_mod_p``) in dim C <= #parts - 1 coordinates per orbit
examined.  The orbits come from ``orbit_representatives``, which builds
each orbit's least element from canonical forms of the Sylow subgroup's
blocks, in the greedy's order and without listing the lattice.  The
witness is certified by ``lattice.spans``, which reads a mod-q set's span
off its F_p rank, again by Nakayama; the naive oracles call the same
predicate.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .lattice import (
    LatticeSpec,
    WeightSet,
    echelon_mod_p,
    prime_power_root,
    spans,
    vp,
)
from .constructions import case_of, witness_size
from .permgroup import PermGroupSpec, act, legendre_exponent, orbit, sylow_subgroup


class BoundsError(ValueError):
    pass


class SearchResult(NamedTuple):
    minimum: int
    witness: WeightSet
    nodes_explored: int
    orbit_count: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "minimum": self.minimum,
            "witness": self.witness.to_json(),
            "nodes_explored": self.nodes_explored,
            "orbit_count": self.orbit_count,
            "elapsed_ms": int(self.elapsed * 1000),
        }


def lattice_elements(spec: LatticeSpec) -> List[Tuple[int, ...]]:
    """All q^(n-1) elements of the zero-sum mod-q lattice, lexicographic."""
    q = spec.modulus
    if not q:
        raise BoundsError("finite enumeration needs a modulus")
    return [head + (-sum(head) % q,) for head in itertools.product(range(q), repeat=spec.n - 1)]


def orbit_decomposition(group: PermGroupSpec, spec: LatticeSpec) -> List[WeightSet]:
    """P_n-orbits of the finite lattice, sorted by (size, representative)."""
    seen = set()
    orbits = []
    # lattice_elements is lexicographic, so each unseen element is the least
    # element of its orbit
    for w in lattice_elements(spec):
        if w not in seen:
            orb = orbit(group, w, spec)
            orbits.append(orb)
            seen.update(orb.elements)
    orbits.sort(key=lambda o: (len(o), o.elements))
    return orbits


def _nonzero_orbits(spec: LatticeSpec, p: int) -> List[WeightSet]:
    """The P_n-orbits of the finite lattice, without the zero orbit."""
    return [o for o in orbit_decomposition(sylow_subgroup(spec.n, p), spec)
            if not (len(o) == 1 and not any(o.elements[0]))]


def _part_levels(group: PermGroupSpec) -> List[int]:
    """The layout of group as parts: r for a block of size p^r, 0 for each
    fixed point, in position order."""
    fixed = group.blocks[0][0] - 1 if group.blocks else group.n
    return [0] * fixed + [vp(hi - lo + 1, group.p) for lo, hi in group.blocks]


class _Points:
    """The level-0 forms ((v,), 0, v), v < q, and their (exponent, residue) index, unlisted."""

    def __init__(self, q: int) -> None:
        self.q = q

    def __len__(self) -> int:
        return self.q

    def __getitem__(self, v: int) -> Tuple[Tuple[int], int, int]:
        if not 0 <= v < self.q:
            raise IndexError(v)
        return (v,), 0, v

    def get(self, key: Tuple[int, int], default: list) -> list:
        return [key[1]] if key[0] == 0 else default


def orbit_representatives(group: PermGroupSpec, q: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """(size, least element) of each nonzero orbit of group, a Sylow
    subgroup, on the zero-sum lattice mod q, in (size, representative)
    order, without listing the lattice.

    On a block of size p^r, the wreath product of P_{p^(r-1)} with the
    rotation of its p sub-blocks, an orbit's least element is the least
    rotation of the p sub-blocks' least forms, and its size exponent is p
    times the sub-exponent when the p forms are equal, else 1 plus their sum.
    Across the fixed points and blocks, the orbits are products, the least
    element is the concatenation and the exponents add.  So each exponent
    is walked in lexicographic order part by part, the zero-sum condition
    fixing the residue of the last part, whose forms are generated lazily;
    the other parts' form lists are listed once per call (level 0's is range(q)).
    """
    p = group.p
    levels = _part_levels(group)
    caps = [legendre_exponent(p ** r, p) for r in levels]
    reach = [sum(caps[k:]) for k in range(len(caps) + 1)]
    listed: Dict[int, list] = {0: _Points(q)}
    keyed: Dict[int, dict] = {0: listed[0]}

    def listing(r):
        if r not in listed:
            listed[r] = list(forms(r))
        return listed[r]

    def forms(r, want=None):
        """(form, exponent, residue) of the level-r block's orbits in
        lexicographic order; only those with (exponent, residue) = want."""
        if want is not None and want[0] == 0:
            # an orbit of size 1 is a constant block (v, ..., v), p^r v = want[1]
            g = min(p ** r, q)  # gcd(p^r, q): v = want[1] / g mod q / g
            for v in range(want[1] // g, q, q // g) if want[1] % g == 0 else ():
                yield (v,) * p ** r, 0, want[1]
            return
        sub = listing(r - 1)
        cap = legendre_exponent(p ** (r - 1), p)
        if want is not None and r - 1 not in keyed:
            keyed[r - 1] = index = {}
            for i, (_, e, s) in enumerate(sub):
                index.setdefault((e, s), []).append(i)

        def fits(e, slots):
            # whether slots more sub-forms can bring the exponent sum e to want's
            return want is None or e <= want[0] - 1 <= e + slots * cap

        def necklaces(t, e, s):
            # index tuples t + (...) of length p, each entry at least t[0],
            # that are strictly least among their rotations
            slots = p - len(t)
            if slots == 1:
                if want is None:
                    tail = range(t[0], len(sub))
                else:
                    tail = keyed[r - 1].get((want[0] - 1 - e, (want[1] - s) % q), [])
                    tail = tail[bisect_left(tail, t[0]):]
                for i in tail:
                    u = t + (i,)
                    if all(u[k:] + u[:k] > u for k in range(1, p)):
                        yield u, e + sub[i][1], (s + sub[i][2]) % q
                return
            for i in range(t[0], len(sub)):
                _, ei, si = sub[i]
                if fits(e + ei, slots - 1):
                    yield from necklaces(t + (i,), e + ei, s + si)

        for i0, (f0, e0, s0) in enumerate(sub):
            if want is None or want == (p * e0, p * s0 % q):
                yield f0 * p, p * e0, p * s0 % q
            if fits(e0, p - 1):
                for u, e, s in necklaces((i0,), e0, s0):
                    yield tuple(x for i in u for x in sub[i][0]), e + 1, s

    last = len(levels) - 1

    def parts(k, e, s, head):
        # the elements head + ... whose parts k.. have exponent e and residue s
        if k == last:
            for f, _, _ in forms(levels[k], (e, s % q)):
                yield head + f
            return
        for f, ek, sk in listing(levels[k]):
            if ek <= e <= ek + reach[k + 1]:
                yield from parts(k + 1, e - ek, s - sk, head + f)

    for e in range(group.order_exponent + 1):
        for rep in parts(0, e, 0, ()):
            if e or any(rep):
                yield p ** e, rep


def count_orbits(group: PermGroupSpec, q: int) -> int:
    """The number of nonzero orbits of group, a Sylow subgroup, on the
    zero-sum lattice mod q, a power of p, without listing them: per level r,
    the orbits of a block of size p^r by residue of their entry sum, by
    Burnside over the rotation of its p sub-blocks (only the constant
    p-tuples of sub-orbits are fixed by a nontrivial rotation), convolved
    over the parts."""
    if group.n == 1:  # the lattice is {0}
        return 0
    p = group.p

    def convolve(a, b):
        for x, y in ((a, b), (b, a)):
            if min(x) == max(x):  # a constant vector spreads the other's total
                return [x[0] * sum(y)] * q
        return [sum(x * b[(t - s) % q] for s, x in enumerate(a)) for t in range(q)]

    levels = _part_levels(group)
    counts = [[1] * q]
    for _ in range(max(levels)):
        sub = counts[-1]
        tuples = sub
        for _ in range(p - 1):
            tuples = convolve(sub, tuples)
        # p s mod q depends on s mod q/p only: the p slices of sub add up
        constant = [0] * q
        constant[::p] = map(sum, zip(*(sub[t:t + q // p] for t in range(0, q, q // p))))
        counts.append([(a + (p - 1) * b) // p for a, b in zip(tuples, constant)])
    total = counts[levels[0]]
    for r in levels[1:]:
        total = convolve(counts[r], total)
    return total[0] - 1


def coinvariant_class(
    group: PermGroupSpec,
) -> Tuple[Callable[[Sequence[int]], Tuple[int, ...]], int]:
    """(f, dim C): the linear map f from V = X_n / p X_n onto the
    coinvariants C = V / IV = F_p^(dim C), I the augmentation ideal of
    F_p[P_n], P_n = group, read off the entries of any lift of a vector of V.

    The parts of the layout are the fixed points (the leading n mod p
    positions) and the blocks.  With two or more parts, f(v) is the part
    sums mod p of every part but the last; with one block, n = p^r, it is
    sum_t t S_t(v) mod p, S_t the sum over the t-th sub-block of size
    p^(r-1); at n = 1, V = 0 and f(v) = ().

    IV lies in ker f.  Every g in P_n maps each part onto itself, so it
    fixes every part sum.  On one block, g permutes the p sub-blocks by a
    rotation t -> t + k, so f(g v) - f(v) = k sum_t S_t(v), which is 0 on
    the zero-sum vectors.

    dim C is the dimension of f's image, so ker f = IV and f induces
    C = F_p^(dim C).  Apply H_0(P_n, -) to 0 -> V -> F_p^n -> F_p -> 0:

        H_1(F_p^n) -> H_1(F_p) -> C -> H_0(F_p^n) -> F_p -> 0.

    By Shapiro's lemma H_0(F_p^n) = F_p^(#parts), mapped onto F_p by the
    sum, and H_1(F_p^n) -> H_1(F_p) sums the corestrictions from the point
    stabilizers' abelianizations mod p to P_n's: the product over the
    blocks of p^r points of C_p^r, one C_p per level.  A fixed point's
    stabilizer is P_n.  A point of a block has a stabilizer holding every
    other block's factor and, in its own block, the whole level below on
    another sub-block, but no rotation of the top level.  So with two or
    more parts the images cover P_n's and dim C = #parts - 1; on one block
    they miss the top level's C_p alone and dim C = 1.  f reaches both:
    e_x - e_y, x in some part and y in the last, is a unit vector of the
    image, and on one block f(a[1, 1 + p^(r-1)]) = -1.
    """
    p, n = group.p, group.n
    fixed = group.blocks[0][0] - 1 if group.blocks else n
    parts = [(i, i + 1) for i in range(fixed)] + [(lo - 1, hi) for lo, hi in group.blocks]
    if len(parts) == 1 and group.blocks:
        sub = n // p
        return (lambda v: (sum(t * sum(v[t * sub:(t + 1) * sub]) for t in range(1, p)) % p,)), 1
    cuts = parts[:-1]
    return (lambda v: tuple(sum(v[lo:hi]) % p for lo, hi in cuts)), len(cuts)


def check_search(n: int, p: int, q: int) -> None:
    """Refuse a search before anything is built, in this order: p not a
    prime; n < 1; q not a power of p; a search space q^(n-1) above 2^20."""
    if prime_power_root(p) != p:
        raise BoundsError(f"p={p} is not a prime")
    if n < 1:
        raise BoundsError(f"n must be positive, got {n}")
    if prime_power_root(q) != p:
        raise BoundsError(f"q={q} is not a power of p={p}")
    # q >= 2, so n - 1 > 20 alone means too large; test it before the power
    if n - 1 > 20 or q ** (n - 1) > 2 ** 20:
        raise BoundsError(f"search space q^(n-1) = {q}^{n - 1} too large")


def min_invariant_generating_size(n: int, p: int, q: int) -> SearchResult:
    """Exact minimum size of an invariant generating subset of the zero-sum
    lattice mod q, found by the greedy over the coinvariants.

    The union of orbits with representatives v_1, ..., v_k spans the
    submodule W of V generated by them, and by Nakayama W = V iff W + IV =
    V, that is iff the images of the v_i span the coinvariants C = V / IV.
    Generating mod q is generating mod p, again by Nakayama.  So the minimum
    is a minimum-weight basis of the linear matroid of the orbits' images in
    C, weighted by orbit size, and the greedy in (size, representative)
    order finds it (Edmonds 1971).  Its k-th orbit comes no later in that
    order than the k-th orbit of any other basis (Gale), so among the
    optimal unions its sorted orbit indices are lexicographically least: it
    is the first optimal union in canonical inclusion order.  An orbit's
    image in C is that of its first element, since g v - v lies in IV, so
    its class (coinvariant_class) decides it: a zero class lies in IV and is
    skipped, any other takes one echelon step.  Each nonzero orbit is
    examined at most once, so check_search's cap on q^(n-1) bounds the
    search before it starts.  The witness is certified once by spans, which
    decides a mod-q set by its F_p rank, the predicate the naive oracles use.
    """
    check_search(n, p, q)
    start = time.perf_counter()
    spec = LatticeSpec(n, q)
    group = sylow_subgroup(n, p)
    f, target = coinvariant_class(group)
    basis: Dict[int, Tuple[int, ...]] = {}
    chosen: List[WeightSet] = []
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
    if not spans(witness):
        # cannot happen: the classes span C (Nakayama)
        raise BoundsError("coinvariants spanned but the witness does not generate")
    return SearchResult(
        minimum=len(witness),
        witness=witness,
        nodes_explored=examined,
        orbit_count=count_orbits(group, q),
        elapsed=time.perf_counter() - start,
    )


def naive_min_invariant_generating_size(n: int, p: int, q: int) -> Tuple[int, WeightSet]:
    """Independent oracle: exhaustive enumeration of invariant unions of
    orbits, smallest generating union wins.  No pruning beyond feasibility."""
    spec = LatticeSpec(n, q)
    orbits = _nonzero_orbits(spec, p)
    if len(orbits) > 20:
        raise BoundsError(f"naive enumeration infeasible: {len(orbits)} orbits")
    sizes = [len(o) for o in orbits]
    best = None
    for k in range(1, len(orbits) + 1):
        for combo in itertools.combinations(range(len(orbits)), k):
            size = sum(sizes[i] for i in combo)
            if best is not None and size >= best[0]:
                continue
            ws = WeightSet.of([w for i in combo for w in orbits[i].elements], spec)
            if spans(ws):  # smaller than best, by the test above
                best = (size, ws)
    if best is None:
        raise BoundsError("no invariant generating subset exists")
    return best


def naive_min_by_subsets(n: int, p: int, q: int) -> int:
    """Fully naive oracle: every subset of the lattice, filtered to invariant
    and generating.  Only feasible for lattices with at most ~16 elements."""
    spec = LatticeSpec(n, q)
    group = sylow_subgroup(n, p)
    elements = lattice_elements(spec)
    if len(elements) > 16:
        raise BoundsError("subset enumeration infeasible")
    best = None
    for mask in range(1, 1 << len(elements)):
        subset = [elements[i] for i in range(len(elements)) if mask >> i & 1]
        if best is not None and len(subset) >= best:
            continue
        subset_set = set(subset)
        if any(act(g, w) not in subset_set for g in group.generators for w in subset):
            continue
        if spans(WeightSet.of(subset, spec)):
            best = len(subset)
    if best is None:
        raise BoundsError("no invariant generating subset exists")
    return best


def predicted_bound(n: int, p: int, q: int) -> dict:
    """The applicable published lower bound and its hypothesis status."""
    if prime_power_root(p) != p:
        raise BoundsError(f"p={p} is not a prime")
    e_q = vp(q, p)
    bound = witness_size(n, p)  # before case_of: its vp(n, p) refuses n = 0
    if case_of(n, p) in ("b", "c"):
        source = "p-power bound (minimal invariant generating sets in X_{p^r})"
        within = e_q >= (2 if p == 2 else 1)
        note = "" if within else "outside stated hypothesis: q must be >= p^2 when p = 2"
    else:
        source = "composite-n bound p^e(n - p^e)"
        within = q == p
        note = "" if within else "outside stated hypothesis: composite-n bound assumes q = p"
    return {"bound": bound, "source": source, "within_hypothesis": within, "note": note}


def verify_lower_bound(n: int, p: int, q: int) -> dict:
    """Run the exact search, then read the bound; holds is False below it, in hypothesis or out."""
    result = min_invariant_generating_size(n, p, q)
    info = predicted_bound(n, p, q)
    report = {
        "n": n,
        "p": p,
        "q": q,
        "bound": info["bound"],
        "bound_source": info["source"],
        "within_hypothesis": info["within_hypothesis"],
        "minimum": result.minimum,
        "tight": result.minimum == info["bound"],
        "witness": result.witness.to_json(),
        "nodes_explored": result.nodes_explored,
        "orbit_count": result.orbit_count,
        "holds": result.minimum >= info["bound"],
    }
    if info["note"]:
        report["note"] = info["note"]
    return report
