"""Witness weight sets behind each upper bound: the four construction cases
and the explicit kernel vectors.

Case tags: (a) p does not divide n, (b) n = p, (c) n = p^r with r >= 2,
(d) p | n but n is not a p-power.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .lattice import LatticeSpec, WeightSet, prime_power_root, standard_weight, vp
from .permgroup import act, orbit, p_adic_digits, sylow_subgroup


class ConstructionError(ValueError):
    pass


# A witness set of more than this many entries (|Lambda| weights of length
# n) is refused before any of it is built.
MAX_WITNESS_ENTRIES = 2 ** 24


class _RepPlanFields(NamedTuple):
    case_tag: str
    n: int
    p: int
    torus_weights: WeightSet
    extra_summands: Tuple[Tuple[int, str], ...]
    total_dimension: int


class RepPlan(_RepPlanFields):
    """A representation plan: torus weights plus opaque extra summands.

    total_dimension - (n - 1) is the essential dimension value the plan
    witnesses; edcalc cross-checks this.
    """

    __slots__ = ()

    def __new__(cls, case_tag: str, n: int, p: int, torus_weights: WeightSet,
                extra_summands: Tuple[Tuple[int, str], ...], total_dimension: int) -> "RepPlan":
        expected = len(torus_weights) + sum(d for d, _ in extra_summands)
        if expected != total_dimension:
            raise ConstructionError(
                f"dimension bookkeeping broken: {expected} != {total_dimension}")
        return super().__new__(cls, case_tag, n, p, torus_weights, extra_summands,
                               total_dimension)

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "n": self.n,
            "p": self.p,
            "weights": self.torus_weights.to_json(),
            "extra": [[d, desc] for d, desc in self.extra_summands],
            "total_dimension": self.total_dimension,
        }


def _check_size(size: int, n: int) -> None:
    """Refuse a witness set of ``size`` weights of length n, computed from its
    formula, if it has more than MAX_WITNESS_ENTRIES entries."""
    entries = size * n
    if entries > MAX_WITNESS_ENTRIES:
        # a power of two, not the count: the count of a large case has too
        # many digits to print
        raise ConstructionError(f"witness set too large: at least 2^{entries.bit_length() - 1} "
                                f"entries, more than {MAX_WITNESS_ENTRIES}")


def lambda_a(n: int, p: int) -> RepPlan:
    """Case (a): the fan of weights a[1,i] out of the fixed position 1, plus a
    faithful permutation summand of dimension [n/p]."""
    if n % p == 0:
        raise ConstructionError(f"case (a) needs p not dividing n; got n={n}, p={p}")
    spec = LatticeSpec(n)
    _check_size(n - 1, n)
    weights = WeightSet.of([standard_weight(1, i, spec) for i in range(2, n + 1)], spec)
    m = n // p
    extras = ((m, f"faithful permutation summand of the {p}-cycle normalizer, dim [n/p]"),)
    return RepPlan("a", n, p, weights, extras, (n - 1) + m)


def lambda_b(p: int) -> RepPlan:
    """Case (b), n = p: the cyclic chain a[1,2], ..., a[p-1,p], a[p,1] plus a
    1-dimensional faithful character of Z/p."""
    spec = LatticeSpec(p)
    _check_size(p, p)
    chain = [standard_weight(i, i + 1, spec) for i in range(1, p)]
    chain.append(standard_weight(p, 1, spec))
    weights = WeightSet.of(chain, spec)
    extras = ((1, "faithful character of the cyclic group Z/p"),)
    return RepPlan("b", p, p, weights, extras, len(weights) + 1)


def lambda_c(p: int, r: int) -> RepPlan:
    """Case (c), n = p^r, r >= 2: the P_n-orbit of a[1, p^(r-1)+1]; size
    p^(2r-1), no extra summands."""
    if r < 2:
        raise ConstructionError("case (c) needs r >= 2")
    n = p ** r
    spec = LatticeSpec(n)
    _check_size(p ** (2 * r - 1), n)
    group = sylow_subgroup(n, p)
    seed = standard_weight(1, p ** (r - 1) + 1, spec)
    weights = orbit(group, seed, spec)
    return RepPlan("c", n, p, weights, (), len(weights))


def lambda_d(n: int, p: int) -> RepPlan:
    """Case (d), p | n, n not a p-power: union of the P_n-orbits of a[1, s]
    for s the first position of each block after the first; all a[alpha,beta]
    with alpha in the smallest block and beta outside it."""
    if n % p != 0:
        raise ConstructionError("case (d) needs p | n")
    fixed, digits = p_adic_digits(n, p)
    if fixed or len(digits) == 1 and digits[0][0] == 1:
        raise ConstructionError("case (d) needs n divisible by p and not a p-power")
    s = p ** digits[0][1]  # the smallest block
    spec = LatticeSpec(n)
    _check_size(s * (n - s), n)
    group = sylow_subgroup(n, p)
    blocks = group.blocks
    accum: set = set()
    for lo, _hi in blocks[1:]:
        accum.update(orbit(group, standard_weight(1, lo, spec), spec))
    weights = WeightSet.of(accum, spec)
    return RepPlan("d", n, p, weights, (), len(weights))


def build_plan(case_tag: str, n: int, p: int) -> RepPlan:
    """Dispatch to the constructor matching the case tag, validating (n, p);
    a witness set past MAX_WITNESS_ENTRIES is refused before it is built."""
    if prime_power_root(p) != p:
        raise ConstructionError(f"p={p} is not a prime")
    if case_tag == "a":
        return lambda_a(n, p)
    if case_tag == "b":
        if n != p:
            raise ConstructionError("case (b) needs n = p")
        return lambda_b(p)
    if case_tag == "c":
        r = vp(n, p)
        if n != p ** r or r < 2:
            raise ConstructionError("case (c) needs n = p^r with r >= 2")
        return lambda_c(p, r)
    if case_tag == "d":
        return lambda_d(n, p)
    raise ConstructionError(f"unknown case tag {case_tag!r}")


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
    spec = lam.spec
    coeffs = [0] * len(lam)
    if case_tag == "c":
        big = n // p  # p^(r-1), as n = p^r
        # a[1, big+1] + a[big+1, 2*big+1] + ... + a[(p-1)*big+1, 1]
        for t in range(p):
            i = t * big + 1
            j = ((t + 1) % p) * big + 1
            coeffs[lam.index(standard_weight(i, j, spec))] += 1
    elif case_tag == "d":
        fixed, digits = p_adic_digits(n, p)
        if fixed:
            raise ConstructionError("case (d) witness needs p | n")
        pe = p ** digits[0][1]
        terms = [((1, pe + 1), 1), ((1, pe + 2), -1), ((2, pe + 2), 1), ((2, pe + 1), -1)]
        for (i, j), c in terms:
            coeffs[lam.index(standard_weight(i, j, spec))] += c
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


def phi_image(lam: WeightSet, coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    """phi: Z[Lambda] -> X, sum of coeff * weight."""
    acc = [0] * lam.spec.n
    for c, w in zip(coeffs, lam.elements):
        if c:
            acc = [a + c * e for a, e in zip(acc, w)]
    return lam.spec.weight(acc)
