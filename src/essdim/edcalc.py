"""Closed-form essential dimension values for the torus-normalizer at p,
with witness-dimension cross-checks; the case and the refusals are
constructions.check_plan's.

Valid over fields of characteristic != p containing a primitive p-th root of
unity; the reports carry that hypothesis as informational text.
"""

from __future__ import annotations

from typing import List, NamedTuple

from .constructions import ConstructionError, build_plan, check_plan, check_size, witness_size
from .lattice import vp


FIELD_HYPOTHESIS = "char(k) != p and k contains a primitive p-th root of unity"

# ed_value refuses what check_plan refuses
EdError = ConstructionError


class EdReport(NamedTuple):
    n: int
    p: int
    case_tag: str
    value: int
    p_power: int  # highest power of p dividing n
    witness_total_dimension: int
    consistency: bool
    field_hypothesis = FIELD_HYPOTHESIS  # the same for every report, so not a field

    def to_json(self) -> dict:
        out = self._asdict()
        out["case"] = out.pop("case_tag")
        out["field_hypothesis"] = self.field_hypothesis
        return out


def ed_value(n: int, p: int) -> EdReport:
    """Evaluate the closed-form value for (n, p) and cross-check it against
    the constructed witness dimension.

    consistency is whether the plan's total dimension minus n - 1 equals
    the value, so it compares, by case: (a) the n - 1 weights a[1,i] plus
    the [n/p]-dimensional permutation summand with n - 1 + [n/p]; (b) the
    p-weight cyclic chain plus one character with p + 1; (c) and (d) the
    built |Lambda| with the formula constructions.witness_size: |Lambda_c|,
    listed in closed form, with p^(2r-1), which rests on the tests checking
    that form against the orbit closure at every (p, r) the witness-size
    budget admits, and |Lambda_d|, a union of orbit closures, with
    p^e (n - p^e)."""
    case = check_plan(None, n, p)
    if case == "a":
        value = n // p
    elif case == "b":
        value = 2
    else:
        value = witness_size(n, p) - n + 1
    witness_total = build_plan(case, n, p).total_dimension
    return EdReport(
        n=n,
        p=p,
        case_tag=case,
        value=value,
        p_power=p ** vp(n, p),
        witness_total_dimension=witness_total,
        consistency=witness_total - (n - 1) == value,
    )


def ed_table(max_n: int, p: int) -> List[EdReport]:
    """ed_value at n = 1, ..., max_n.  p is checked as ed_value checks it,
    even with no rows, then every row's witness size before any row is
    built, so an oversized row is refused at once.  |Lambda| >= n - 1, so the
    first comes at n <= 4097, where n (n - 1) > MAX_WITNESS_ENTRIES."""
    check_plan(None, 1, p)
    ns = range(1, max_n + 1)
    for n in ns:
        check_size(n, p)
    return [ed_value(n, p) for n in ns]
