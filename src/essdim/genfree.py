"""Generic-freeness certification for monomial representations.

Two routes: the span + faithful-kernel-action criterion for a weight set
under a Sylow p-subgroup, and the combination rule (faithful extra summand
+ torus-generically-free weight set) for plans carrying a W or L factor;
`certify` picks the route from the plan.  The extra summands of cases (a)
and (b) are faithful by standard facts, stated where they are used, so no
group is ever enumerated.

For p-groups faithfulness is decided on the order-p central elements only:
every nontrivial normal subgroup meets the center, so the kernel of the
action on Ker(phi) is trivial iff no such central element acts trivially.
This holds for every Sylow subgroup, with or without fixed points.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

from .constructions import RepPlan, check_plan, witness_size
from .lattice import MAX_WITNESS_ENTRIES, WeightSet, kernel_cycles, spans
# act is not called here: the per-layer tracer wraps it in each module
from .permgroup import (Perm, PermError, PermGroupSpec, act, center_order_p_elements,
                        p_adic_digits, sylow_subgroup)


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
    if g.n != lam.spec.n:
        raise PermError(f"degree {g.n} vs lattice length {lam.spec.n}")
    positions, pairs, at = lam.edge_positions, lam.pairs, (0,) + g.images  # at[i] = g(i)
    return lambda k: positions[at[pairs[k][0]], at[pairs[k][1]]]


def _require_invariant(lam: WeightSet, group: PermGroupSpec) -> None:
    for g in group.generators if len(lam) else ():
        image = _image_position(g, lam)
        for k in range(len(lam)):
            try:
                image(k)
            except KeyError:
                raise GenFreeError(
                    f"weight set is not invariant: generator {g.cycle_string()} "
                    f"moves {lam.elements[k]} outside the set") from None


def _check_center_scan(p: int, blocks: int, weights: int) -> None:
    # the scan may store a dense witness of one entry per weight for each of
    # the p^k - 1 order-p central elements of k blocks
    elements = p ** blocks - 1
    if elements * weights > MAX_WITNESS_ENTRIES:
        raise GenFreeError(f"center scan too large: {elements} central elements "
                           f"times {weights} weights, more than {MAX_WITNESS_ENTRIES} entries")


def check_certificate(case_tag: str, n: int, p: int) -> None:
    """Refuse, before the plan is built, what certify would refuse of the
    plan of case_tag for (n, p): check_plan's rules, then, in case (d), a
    center scan past MAX_WITNESS_ENTRIES entries, read off (n, p): the Sylow
    subgroup has one block per base-p digit unit of n, and the plan
    witness_size(n, p) weights.  Case (c)'s scan, (p - 1) p^(2r-1)
    entries, is below check_size's p^(3r-1)."""
    if check_plan(case_tag, n, p) == "d":
        blocks = sum(mult for mult, _ in p_adic_digits(n, p)[1])
        _check_center_scan(p, blocks, witness_size(n, p))


def kernel_action_faithful(
    lam: WeightSet, group: PermGroupSpec
) -> Tuple[bool, Tuple[Tuple[str, Tuple[int, ...]], ...]]:
    """Decide whether the group acts faithfully on Ker(phi) by testing its
    order-p central elements, returning, per element that acts, the first
    kernel generator in canonical order that it moves as witness; the
    generators are built only as far as some element reads them.  Refused
    before the scan past MAX_WITNESS_ENTRIES witness entries, and for a set
    over Z/q before any central element is listed."""
    _check_center_scan(group.p, len(group.blocks), len(lam))
    cycles = kernel_cycles(lam)
    elements = center_order_p_elements(group)
    witnesses = []
    for g in elements:
        # g moves vec iff permute_coefficients(g, lam, vec) != vec; the image
        # is a bijection, so that is iff the support moved with its
        # coefficients differs from the support
        image = _image_position(g, lam)
        moved = next((vec for vec in cycles
                      if sorted([(image(i), c) for i, c in vec]) != list(vec)), None)
        if moved is not None:
            dense = [0] * len(lam)
            for i, c in moved:
                dense[i] = c
            witnesses.append((g.cycle_string(), tuple(dense)))
    return len(witnesses) == len(elements), tuple(witnesses)


def check_lemma34(lam: WeightSet, group: PermGroupSpec) -> GenFreeVerdict:
    """Span + faithful kernel action; the weight set must be group-invariant,
    and an oversized center scan is refused before the span test."""
    _require_invariant(lam, group)
    faithful, witnesses = kernel_action_faithful(lam, group)
    spans_ok = spans(lam)
    return GenFreeVerdict(
        spans_ok=spans_ok,
        kernel_faithful=faithful,
        method="center-reduction",
        overall=spans_ok and faithful,
        witnesses=witnesses,
    )


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
