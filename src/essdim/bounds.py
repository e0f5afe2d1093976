"""Lower-bound machinery: block-sum homomorphism, Nakayama filter, fiber
counting, and the exact search for the minimal invariant generating set.

The search runs over unions of orbits (exactly the invariant subsets),
branch-and-bound in ascending orbit-size order over F_p echelon bases,
pruned by a fractional bound on the cost of the mod-p rank deficit; the
witness it returns is certified by the lift-to-Z span test.  Rows are packed
F_p vectors (``lattice.pack_mod_p``), each orbit's chart coordinates are
packed once, and orbits whose first elements agree mod p share one span.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .lattice import (
    LatticeSpec,
    WeightSet,
    basis_coordinates,
    echelon_mod_p,
    in_p_multiple,
    pack_mod_p,
    prime_power_root,
    spans,
    vp,
)
from .permgroup import PermGroupSpec, act, orbit, sylow_subgroup


class BoundsError(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    """Search node budget ran out before optimality was certified."""


@dataclass(frozen=True)
class SearchResult:
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


def lattice_elements(spec: LatticeSpec) -> List[Tuple[int, ...]]:
    """All q^(n-1) elements of the zero-sum mod-q lattice, lexicographic."""
    q = spec.modulus
    if not q:
        raise BoundsError("finite enumeration needs a modulus")
    out = []
    for head in itertools.product(range(q), repeat=spec.n - 1):
        last = (-sum(head)) % q
        out.append(head + (last,))
    return out


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


def _rank_cover_bounds(sizes: Sequence[int], ranks: Sequence[int],
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


def _nonzero_orbits(spec: LatticeSpec, p: int) -> List[WeightSet]:
    """The P_n-orbits of the finite lattice, without the zero orbit."""
    return [o for o in orbit_decomposition(sylow_subgroup(spec.n, p), spec)
            if not (len(o) == 1 and not any(o.elements[0]))]


def orbit_spans_mod_p(orbits: Sequence[WeightSet], p: int,
                      dim: int) -> List[Dict[int, int]]:
    """The F_p echelon basis of each orbit's chart coordinates.  Reduction
    mod p commutes with P_n and with the prefix-sum chart, so an orbit's span
    is that of the orbit of its first element mod p; orbits with the same
    first element mod p share one dict, computed once."""
    by_residue: Dict[Tuple[int, ...], Dict[int, int]] = {}
    out = []
    for o in orbits:
        key = tuple(x % p for x in o.elements[0])
        span = by_residue.get(key)
        if span is None:
            span = by_residue[key] = echelon_mod_p(
                (pack_mod_p(basis_coordinates(w), p) for w in o), p, dim)
        out.append(span)
    return out


def min_invariant_generating_size(
    n: int,
    p: int,
    q: int,
    budget: int = 10_000_000,
) -> SearchResult:
    """Exact minimum size of an invariant generating subset of the zero-sum
    lattice mod q, certified optimal by exhausting all cheaper orbit unions.

    By Nakayama a union generates the Z/q-lattice iff its chart coordinates
    have full F_p rank, so the search runs entirely over F_p; the witness it
    returns is certified once over Z by the Smith normal form span test.
    """
    if prime_power_root(p) != p:
        raise BoundsError(f"p={p} is not a prime")
    if prime_power_root(q) != p:
        raise BoundsError(f"q={q} is not a power of p={p}")
    # q >= 2, so n - 1 > 20 alone means too large; test it before the power
    if n - 1 > 20 or q ** (n - 1) > 2 ** 20:
        raise BoundsError(f"search space q^(n-1) = {q}^{n - 1} too large")
    start = time.perf_counter()
    spec = LatticeSpec(n, q)
    orbits = _nonzero_orbits(spec, p)
    target = spec.rank
    sizes = [len(o) for o in orbits]
    orbit_spans = orbit_spans_mod_p(orbits, p, target)
    # suffix[i]: F_p span of orbits i, i+1, ...; full spans are shared
    suffix = [{}]
    for span in reversed(orbit_spans):
        rest = suffix[-1]
        suffix.append(rest if len(rest) == target else echelon_mod_p(span.values(), p, target, rest))
    suffix.reverse()
    if len(suffix[0]) < target:
        raise BoundsError("no invariant generating subset exists")
    lower = _rank_cover_bounds(sizes, [len(s) for s in orbit_spans], target)

    # Depth-first over include/exclude decisions, orbit i at depth i, with
    # include explored first: unions are met in canonical inclusion order,
    # and only strict improvements are kept, so the final choice is the first
    # generating union of optimal size in that order.  The first descent is
    # the greedy union, which seeds the bound.  A node carries the echelon
    # basis of its chosen orbits, copied only when an orbit is added.
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
    if not spans(witness):
        # cannot happen for free modules over Z/p^e (Nakayama)
        raise BoundsError("mod-p rank full but lift-to-Z span test failed")
    return SearchResult(
        minimum=best,
        witness=witness,
        nodes_explored=nodes,
        orbit_count=len(orbits),
        elapsed=time.perf_counter() - start,
    )


def naive_min_invariant_generating_size(n: int, p: int, q: int) -> Tuple[int, WeightSet]:
    """Independent oracle: exhaustive enumeration of invariant unions of
    orbits, smallest generating union wins.  No pruning beyond feasibility."""
    spec = LatticeSpec(n, q)
    orbits = _nonzero_orbits(spec, p)
    if len(orbits) > 20:
        raise BoundsError(f"naive enumeration infeasible: {len(orbits)} orbits")
    best = None
    for k in range(1, len(orbits) + 1):
        for combo in itertools.combinations(range(len(orbits)), k):
            members = [w for i in combo for w in orbits[i].elements]
            if best is not None and len(members) >= best[0]:
                continue
            ws = WeightSet.of(members, spec)
            if spans(ws):
                if best is None or len(members) < best[0]:
                    best = (len(members), ws)
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
    members = set(elements)
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
    r = vp(n, p)
    if n == p ** r and r >= 1:
        bound = p ** (2 * r - 1)
        source = "p-power bound (minimal invariant generating sets in X_{p^r})"
        within = e_q >= (2 if p == 2 else 1)
        note = "" if within else "outside stated hypothesis: q must be >= p^2 when p = 2"
    else:
        e = r  # highest power of p dividing n
        bound = p ** e * (n - p ** e)
        source = "composite-n bound p^e(n - p^e)"
        within = q == p
        note = "" if within else "outside stated hypothesis: composite-n bound assumes q = p"
    return {"bound": bound, "source": source, "within_hypothesis": within, "note": note}


def verify_lower_bound(n: int, p: int, q: int, budget: int = 10_000_000) -> dict:
    """Run the exact search and compare against the published bound."""
    info = predicted_bound(n, p, q)
    result = min_invariant_generating_size(n, p, q, budget=budget)
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
    if info["within_hypothesis"] and result.minimum < info["bound"]:
        raise BoundsError(
            f"lower bound violated within hypothesis: minimum {result.minimum} "
            f"< bound {info['bound']} for (n={n}, p={p}, q={q})")
    return report
