"""Closed-form essential dimension values for the torus-normalizer at p,
with case detection and witness-dimension cross-checks.

Valid over fields of characteristic != p containing a primitive p-th root of
unity; the reports carry that hypothesis as informational text.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import build_plan
from .lattice import prime_power_root, vp


FIELD_HYPOTHESIS = "char(k) != p and k contains a primitive p-th root of unity"


class EdError(ValueError):
    pass


class EdReport(NamedTuple):
    n: int
    p: int
    case_tag: str
    value: int
    p_power: int  # highest power of p dividing n
    witness_total_dimension: int
    consistency: bool
    field_hypothesis: str = FIELD_HYPOTHESIS

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "case": self.case_tag,
            "value": self.value,
            "p_power": self.p_power,
            "witness_total_dimension": self.witness_total_dimension,
            "consistency": self.consistency,
            "field_hypothesis": self.field_hypothesis,
        }


def detect_case(n: int, p: int) -> str:
    if n % p != 0:
        return "a"
    if n == p:
        return "b"
    return "c" if n == p ** vp(n, p) else "d"


def ed_value(n: int, p: int) -> EdReport:
    """Evaluate the closed-form value for (n, p) and cross-check it against
    the constructed witness dimension."""
    if n < 1:
        raise EdError("n must be positive")
    if prime_power_root(p) != p:
        raise EdError(f"p={p} is not a prime")
    case = detect_case(n, p)
    pe = p ** vp(n, p)
    if case == "a":
        value = n // p
    elif case == "b":
        value = 2
    elif case == "c":
        value = n * n // p - n + 1
    else:
        value = pe * (n - pe) - n + 1
    plan = build_plan(case, n, p)
    witness_total = plan.total_dimension
    return EdReport(
        n=n,
        p=p,
        case_tag=case,
        value=value,
        p_power=pe,
        witness_total_dimension=witness_total,
        consistency=witness_total - (n - 1) == value,
    )
