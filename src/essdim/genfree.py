"""Generic-freeness certification for monomial representations.

Two routes: the span + faithful-kernel-action criterion for a weight set
under a Sylow p-subgroup, and the combination rule (faithful extra summand
+ torus-generically-free weight set) for plans carrying a W or L factor;
`certify` picks the route from the plan.  The extra summands of cases (a)
and (b) are faithful by standard facts, stated where they are used, so no
group is ever enumerated.

For p-groups faithfulness is decided on the center's p-torsion, which every
nontrivial normal subgroup meets, by counting the characters that occur in
Ker(phi) (kernel_action_faithful), with or without fixed points.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Tuple

from .constructions import RepPlan
from .lattice import WeightSet, kernel_cycles, spans
# act is not called here: the per-layer tracer wraps it in each module
from .permgroup import Perm, PermError, PermGroupSpec, act, sylow_subgroup


class GenFreeError(ValueError):
    pass


class GenFreeVerdict(NamedTuple):
    spans_ok: bool
    kernel_faithful: bool
    method: str
    overall: bool
    witnesses: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "spans_ok": self.spans_ok,
            "kernel_faithful": self.kernel_faithful,
            "method": self.method,
            "overall": self.overall,
            "witnesses": [
                {"element": elt, "kernel_vector": list(vec)} for elt, vec in self.witnesses
            ],
            "detail": self.detail,
        }


def _image_position(g: Perm, lam: WeightSet) -> Callable[[int], int]:
    # position k of lam -> the position of g applied to the k-th weight,
    # KeyError when that image is not in lam: a[i,j] goes to a[g(i), g(j)],
    # looked up by its pair; a set not listed from pairs is refused
    positions, pairs, at = lam.edge_positions, lam.pairs, (0,) + g.images  # at[i] = g(i)
    return lambda k: positions[at[pairs[k][0]], at[pairs[k][1]]]


def _require_invariant(lam: WeightSet, group: PermGroupSpec) -> None:
    if group.n != lam.spec.n:  # once for _image_position, and for n < p with no generator
        raise PermError(f"degree {group.n} vs lattice length {lam.spec.n}")
    for g in group.generators if len(lam) else ():
        image = _image_position(g, lam)
        for k in range(len(lam)):
            try:
                image(k)
            except KeyError:
                raise GenFreeError(
                    f"weight set is not invariant: generator {g.cycle_string()} "
                    f"moves {lam.elements[k]} outside the set") from None


def kernel_action_faithful(lam: WeightSet, group: PermGroupSpec) -> Tuple[bool, tuple, str]:
    """(faithful, witnesses, count table) of the Sylow subgroup P_n on
    Ker(phi) of lam, a P_n-invariant set of a[i,j] over Z.

    E = <z_b> = (Z/p)^k, z_b rotating each p-run of block b, is the center's
    p-torsion.  By 0 -> Ker(phi) -> Z[Lambda] -> Z^n -> H_0 -> 0 (H_0: Z on
    the components of the graph of the a[i,j]), chi != 1 occurs in Ker(phi)
    once per E-orbit on Lambda, plus the components, less the points, whose
    stabilizer chi kills.  A component moved by z_b lies in one p-run (P_n
    holds that run's rotation alone), so is a point; then no weight touches
    b (P_n is transitive on b), b's components cancel its points, and E
    fixes the rest.  As a[i,j]'s stabilizer kills the chi on its ends'
    blocks, e_b^a occurs iff the E-orbits of weights with an end in b (keyed
    by each end's p-run, or fixed point, and within one block the offset
    difference mod p) outnumber b's p-runs, e_b^a e_b'^c (a, c != 0) iff a
    weight joins b and b', and no other chi.  For odd p, e_b = e_b^2 e_b' /
    (e_b e_b'): the dual is generated iff each block is in an occurring
    singleton or pair; for p = 2, whose pairs give only even sums, iff each
    component of the block graph holds a singleton.  Witnesses: per z_b that
    acts, in block order, the first kernel cycle in canonical order that it
    moves, dense.  A set over Z/q or listed as tuples is refused."""
    cycles = kernel_cycles(lam)  # built only as far as the witnesses read
    p, n, blocks = group.p, group.n, group.blocks
    block, run = [-1] * (n + 1), list(range(n + 1))  # a fixed point is its own run
    for b, (lo, hi) in enumerate(blocks):
        block[lo:hi + 1] = [b] * (hi + 1 - lo)
        run[lo:hi + 1] = [x - (x - lo) % p for x in range(lo, hi + 1)]  # its first point
    orbits = {(block[i], block[j], run[i], run[j], (j - i) % p if block[i] == block[j] else 0)
              for i, j in lam.pairs}  # one key per E-orbit of weights
    ends = Counter(key[:2] for key in orbits)  # (block, block) -> its orbits
    touching = [sum(c for e, c in ends.items() if b in e) for b in range(len(blocks))]
    joined = {(min(e), max(e)) for e in ends if min(e) >= 0 and e[0] != e[1]}
    runs = [(hi + 1 - lo) // p for lo, hi in blocks]
    single = [t > r for t, r in zip(touching, runs)]
    acting = sorted({b for b, s in enumerate(single) if s} | {b for e in joined for b in e})
    covered = [b for b in acting if single[b] or p > 2]
    for b in covered:  # p = 2: spread along the joined pairs, read as it grows
        covered += [c for e in joined if b in e for c in e if c not in covered]
    witnesses = []
    for lo, hi in (blocks[b] for b in acting):  # z_b acts, so it moves a cycle of the basis
        z = Perm((*range(1, lo), *(s + (x + 1) % p for s in range(lo, hi, p) for x in range(p)),
                  *range(hi + 1, n + 1)))
        image = _image_position(z, lam)  # z moves vec iff it moves its signed support
        moved = next(v for v in cycles if sorted([(image(i), c) for i, c in v]) != list(v))
        dense = [0] * len(lam)
        for i, c in moved:
            dense[i] = c
        witnesses.append((z.cycle_string(), tuple(dense)))
    pairs = ", ".join(f"{b + 1}-{c + 1}" for b, c in sorted(joined)) or "none"
    table = ", ".join(f"{t}/{r}" for t, r in zip(touching, runs)) or "none"
    return (len(covered) == len(blocks), tuple(witnesses),
            f"weight orbits/p-runs per block under the center: {table}; blocks joined: {pairs}")


def check_lemma34(lam: WeightSet, group: PermGroupSpec) -> GenFreeVerdict:
    """Span + faithful kernel action; the weight set must be group-invariant."""
    _require_invariant(lam, group)
    faithful, witnesses, table = kernel_action_faithful(lam, group)
    spans_ok = spans(lam)
    return GenFreeVerdict(spans_ok=spans_ok, kernel_faithful=faithful, method="center-reduction",
                          overall=spans_ok and faithful, witnesses=witnesses, detail=table)


def check_lemma32(plan: RepPlan) -> GenFreeVerdict:
    """Combination rule for plans with an extra summand: the torus weights
    must span, and the extra summand must be a faithful representation of the
    finite part."""
    if not plan.extra_summands:
        raise GenFreeError("combination rule needs at least one extra summand")
    spans_ok = spans(plan.torus_weights)
    if plan.case_tag == "a":
        m = plan.extra_summands[0][0]
        if m == 0:
            detail = "extra summand for a trivial group; faithful vacuously"
        else:
            # Lemma 3.4 for the m unit vectors of (Z/p)^m under S_m: they
            # span, Ker(phi) = p*Z^m, and S_m permutes the p*e_i faithfully
            detail = (
                f"dual-basis weights over (Z/{plan.p})^{m} with S_{m}: "
                "spans=True, kernel_faithful=True")
    elif plan.case_tag == "b":
        # an order-p character is injective on Z/p
        detail = "order-p character is injective on the cyclic group Z/p"
    else:
        raise GenFreeError(f"no combination-rule recipe for case {plan.case_tag!r}")
    return GenFreeVerdict(
        spans_ok=spans_ok,
        kernel_faithful=True,
        method="combination-rule",
        overall=spans_ok,
        detail=detail,
    )


def certify(plan: RepPlan) -> GenFreeVerdict:
    """Generic freeness of a plan: the combination rule (Lemma 3.2) when it
    carries an extra summand, otherwise span + faithful kernel action
    (Lemma 3.4) of its weights under the Sylow p-subgroup."""
    if plan.extra_summands:
        return check_lemma32(plan)
    return check_lemma34(plan.torus_weights, sylow_subgroup(plan.n, plan.p))
