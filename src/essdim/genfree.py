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

from typing import NamedTuple, Tuple

from .constructions import RepPlan
from .lattice import WeightSet, kernel_generators_mod, spans
from .permgroup import PermGroupSpec, act, center_order_p_elements, sylow_subgroup


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


def _require_invariant(lam: WeightSet, group: PermGroupSpec) -> None:
    for g in group.generators:
        for w in lam.elements:
            if act(g, w) not in lam:
                raise GenFreeError(
                    f"weight set is not invariant: generator {g.cycle_string()} "
                    f"moves {w} outside the set")


def kernel_action_faithful(
    lam: WeightSet, group: PermGroupSpec
) -> Tuple[bool, Tuple[Tuple[str, Tuple[int, ...]], ...]]:
    """Decide whether the group acts faithfully on Ker(phi) by testing its
    order-p central elements, returning one moved kernel generator per
    element as witness."""
    elements = center_order_p_elements(group)
    gens = kernel_generators_mod(lam)
    witnesses = []
    for g in elements:
        # g moves vec iff permute_coefficients(g, lam, vec) != vec; the image
        # is a bijection, so that is iff the support moved with its
        # coefficients differs from the support
        moved = next((vec for vec in gens
                      if sorted([(lam.index(act(g, lam.elements[i])), c) for i, c in vec])
                      != list(vec)), None)
        if moved is not None:
            dense = [0] * len(lam)
            for i, c in moved:
                dense[i] = c
            witnesses.append((g.cycle_string(), tuple(dense)))
    return len(witnesses) == len(elements), tuple(witnesses)


def check_lemma34(lam: WeightSet, group: PermGroupSpec) -> GenFreeVerdict:
    """Span + faithful kernel action; the weight set must be group-invariant."""
    _require_invariant(lam, group)
    spans_ok = spans(lam)
    faithful, witnesses = kernel_action_faithful(lam, group)
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
            extra_ok = True
            detail = "extra summand for a trivial group; faithful vacuously"
        else:
            # Lemma 3.4 for the m unit vectors of (Z/p)^m under S_m: they
            # span, Ker(phi) = p*Z^m, and S_m permutes the p*e_i faithfully
            extra_ok = True
            detail = (
                f"dual-basis weights over (Z/{plan.p})^{m} with S_{m}: "
                "spans=True, kernel_faithful=True")
    elif plan.case_tag == "b":
        # an order-p character is injective on Z/p
        extra_ok = True
        detail = "order-p character is injective on the cyclic group Z/p"
    else:
        raise GenFreeError(f"no combination-rule recipe for case {plan.case_tag!r}")
    return GenFreeVerdict(
        spans_ok=spans_ok,
        kernel_faithful=extra_ok,
        method="combination-rule",
        overall=spans_ok and extra_ok,
        detail=detail,
    )


def certify(plan: RepPlan) -> GenFreeVerdict:
    """Generic freeness of a plan: the combination rule (Lemma 3.2) when it
    carries an extra summand, otherwise span + faithful kernel action
    (Lemma 3.4) of its weights under the Sylow p-subgroup."""
    if plan.extra_summands:
        return check_lemma32(plan)
    return check_lemma34(plan.torus_weights, sylow_subgroup(plan.n, plan.p))
