"""Witness weight sets behind each upper bound: the four construction cases
and the explicit kernel vectors.

Case tags: (a) p does not divide n, (b) n = p, (c) n = p^r with r >= 2,
(d) p | n but n is not a p-power.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional, Tuple

from .lattice import (MAX_WITNESS_ENTRIES, LatticeSpec, WeightSet, pair_key, prime_power_root,
                      standard_weight, vp)
from .permgroup import act, orbit_closure, sylow_subgroup


class ConstructionError(ValueError):
    pass


class RepPlan(NamedTuple):
    """A representation plan: torus weights plus opaque extra summands;
    total_dimension - (n - 1) is the essential dimension value it
    witnesses, which edcalc cross-checks."""

    case_tag: str
    n: int
    p: int
    torus_weights: WeightSet
    extra_summands: Tuple[Tuple[int, str], ...]

    @property
    def total_dimension(self) -> int:
        return len(self.torus_weights) + sum(d for d, _ in self.extra_summands)

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "n": self.n,
            "p": self.p,
            "weights": self.torus_weights.to_json(),
            "extra": [[d, desc] for d, desc in self.extra_summands],
            "total_dimension": self.total_dimension,
        }


_RULES = {"a": "p not dividing n", "b": "n = p", "c": "n = p^r with r >= 2",
          "d": "p | n and n not a p-power"}


def case_of(n: int, p: int) -> str:
    """The case tag of (n, p), for n >= 1 and p a prime: the one place the
    four cases are told apart."""
    if n % p:
        return "a"
    if n == p:
        return "b"
    return "c" if n == p ** vp(n, p) else "d"


def witness_size(n: int, p: int) -> int:
    """|Lambda| of the plan for (n, p), also the published lower bound on an
    invariant generating set: p^(2e-1) in cases (b) and (c), n = p^e, and
    p^e (n - p^e) otherwise, p^e the largest power of p dividing n (n - 1 in
    case (a))."""
    e = vp(n, p)
    pe = p ** e
    return p ** (2 * e - 1) if case_of(n, p) in ("b", "c") else pe * (n - pe)


def _too_large(bits: int) -> ConstructionError:
    # a power of two, not the count: the count of a large case has too many
    # digits to print
    return ConstructionError(f"witness set too large: at least 2^{bits} entries, "
                             f"more than {MAX_WITNESS_ENTRIES}")


def check_plan(case_tag: Optional[str], n: int, p: int) -> str:
    """Refuse the plan of case_tag for (n, p) before anything is built, in
    this order: p not a prime; n < 1; (n, p) outside the case; a witness
    set, witness_size(n, p) weights of length n, of more than
    MAX_WITNESS_ENTRIES entries.  case_tag None stands for the case of
    (n, p), which is returned."""
    if case_tag is not None and case_tag not in _RULES:
        raise ConstructionError(f"unknown case tag {case_tag!r}")
    if prime_power_root(p) != p:
        raise ConstructionError(f"p={p} is not a prime")
    if n < 1:
        raise ConstructionError(f"n must be positive, got {n}")
    case = case_of(n, p)
    if case_tag not in (None, case):
        raise ConstructionError(f"case ({case_tag}) needs {_RULES[case_tag]}; got n={n}, p={p}")
    check_size(n, p)
    return case


def check_size(n: int, p: int) -> None:
    """check_plan's last rule, for n >= 1 and p a prime: refuse a witness
    set of more than MAX_WITNESS_ENTRIES entries."""
    entries = witness_size(n, p) * n
    if entries > MAX_WITNESS_ENTRIES:
        raise _too_large(entries.bit_length() - 1)


def case_c_length(p: int, r: int) -> int:
    """n = p^r of case (c), checked in check_plan's order: p not a prime;
    r < 2; a witness set past MAX_WITNESS_ENTRIES entries, by check_size's
    exact count once p^r is formed.  Only a p^r of over 2^15 bits (r times
    p's bit length past 2^16), longer than any n the CLI parses, is refused
    unformed, from the lower bound 2^(3r-1) on p^(2r-1) weights of length p^r."""
    if prime_power_root(p) != p:
        raise ConstructionError(f"p={p} is not a prime")
    if r < 2:
        raise ConstructionError(f"case (c) needs {_RULES['c']}; got r={r}, p={p}")
    if r * p.bit_length() > 2 ** 16:
        raise _too_large(3 * r - 1)
    n = p ** r
    check_size(n, p)
    return n


def lambda_a(n: int, p: int) -> RepPlan:
    """Case (a): the fan of weights a[1,i] out of the fixed position 1, plus a
    faithful permutation summand of dimension [n/p].  In canonical order: i
    up."""
    check_plan("a", n, p)
    weights = WeightSet.from_pairs(((1, i) for i in range(2, n + 1)), LatticeSpec(n))
    m = n // p
    extras = ((m, f"faithful permutation summand of the {p}-cycle normalizer, dim [n/p]"),)
    return RepPlan("a", n, p, weights, extras)


def lambda_b(p: int) -> RepPlan:
    """Case (b), n = p: the cyclic chain a[1,2], ..., a[p-1,p], a[p,1] plus a
    1-dimensional faithful character of Z/p.  In canonical order: a[p,1],
    then a[i,i+1] for i down."""
    check_plan("b", p, p)
    pairs = chain([(p, 1)], ((i, i + 1) for i in range(p - 1, 0, -1)))
    weights = WeightSet.from_pairs(pairs, LatticeSpec(p))
    extras = ((1, "faithful character of the cyclic group Z/p"),)
    return RepPlan("b", p, p, weights, extras)


def lambda_c(p: int, r: int) -> RepPlan:
    """Case (c), n = p^r, r >= 2: the P_n-orbit of a[1, m+1], m = p^(r-1);
    size p^(2r-1), no extra summands.

    Listed in closed form, with no group built.  P_n is (P_m)^p, one factor
    transitive on each sub-block B_t = [t*m+1, (t+1)*m], extended by the
    rotation B_t -> B_(t+1 mod p); every element maps each B_t onto B_(t+k)
    for one k.  So the orbit lies in the union over t of B_t x B_(t+1) (the
    pairs (i, j) of a[i,j]), and fills it: (P_m)^p moves a[1, m+1] onto
    every pair of B_0 x B_1, and the rotation carries B_0 x B_1 onto each
    B_t x B_(t+1).  By orbit-stabilizer these p * m^2 = p^(2r-1) weights
    are the index of the stabilizer of a[1, m+1] in P_n.  In canonical
    order the a[i,j] with j < i (B_(p-1) x B_0) come first, by j up, then i
    down; then B_t x B_(t+1) for t = p-2, ..., 0, by i down, then j up."""
    n = case_c_length(p, r)
    m = n // p
    last = ((i, j) for j in range(1, m + 1) for i in range(n, n - m, -1))
    rest = ((i, j) for t in range(p - 2, -1, -1) for i in range((t + 1) * m, t * m, -1)
            for j in range((t + 1) * m + 1, (t + 2) * m + 1))
    weights = WeightSet.from_pairs(chain(last, rest), LatticeSpec(n))
    return RepPlan("c", n, p, weights, ())


def lambda_d(n: int, p: int) -> RepPlan:
    """Case (d), p | n, n not a p-power: union of the P_n-orbits of a[1, s]
    for s the first position of each block after the first; all a[alpha,beta]
    with alpha in the smallest block and beta outside it.  Listed from its
    pairs, the one form spans and the kernel read over Z: the orbit closures
    are collected into one set, each weight's pair is read once, and the
    pairs are sorted once by pair_key, so in canonical order."""
    check_plan("d", n, p)
    spec = LatticeSpec(n)
    group = sylow_subgroup(n, p)
    accum: set = set()
    for lo, _hi in group.blocks[1:]:
        accum |= orbit_closure(group, standard_weight(1, lo, spec))
    pairs = sorted(((w.index(1) + 1, w.index(-1) + 1) for w in accum), key=pair_key)
    return RepPlan("d", n, p, WeightSet.from_pairs(pairs, spec), ())


def build_plan(case_tag: str, n: int, p: int) -> RepPlan:
    """Dispatch to the constructor matching the case tag, each of which
    refuses (n, p) by check_plan's rule before anything is built."""
    if case_tag == "a":
        return lambda_a(n, p)
    if case_tag == "d":
        return lambda_d(n, p)
    check_plan(case_tag, n, p)  # lambda_b and lambda_c are not given n
    return lambda_b(p) if case_tag == "b" else lambda_c(p, vp(n, p))


def kernel_witness(case_tag: str, n: int, p: int) -> Tuple[Tuple[int, ...], RepPlan]:
    """The explicit kernel element certifying faithfulness for cases (c), (d).

    Returns (coefficient vector indexed by the canonical order of the plan's
    torus weights, plan).  The vector sums to zero under phi and is moved by
    the rotation of the first block.
    """
    plan = build_plan(case_tag, n, p)
    return kernel_witness_coefficients(plan), plan


def kernel_witness_coefficients(plan: RepPlan) -> Tuple[int, ...]:
    """The coefficient vector of kernel_witness for an already built plan."""
    case_tag, n, p = plan.case_tag, plan.n, plan.p
    lam = plan.torus_weights
    coeffs = [0] * len(lam)
    if case_tag == "c":
        big = n // p  # p^(r-1), as n = p^r
        # a[1, big+1] + a[big+1, 2*big+1] + ... + a[(p-1)*big+1, 1]
        for t in range(p):
            i = t * big + 1
            j = ((t + 1) % p) * big + 1
            coeffs[lam.edge_positions[i, j]] += 1
    elif case_tag == "d":
        pe = p ** vp(n, p)
        terms = [((1, pe + 1), 1), ((1, pe + 2), -1), ((2, pe + 2), 1), ((2, pe + 1), -1)]
        for (i, j), c in terms:
            coeffs[lam.edge_positions[i, j]] += c
    else:
        raise ConstructionError("kernel witness exists only for cases (c) and (d)")
    return tuple(coeffs)


def permute_coefficients(g, lam: WeightSet, coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    """Induced action on Z[Lambda]: the basis vector at lambda moves to the
    one at g(lambda)."""
    out = [0] * len(lam)
    for c, w in zip(coeffs, lam.elements):
        out[lam.index(act(g, w))] = c
    return tuple(out)
