"""Expected answers for the benchmark calls, written from the paper's formulas.

Every value here comes from the closed forms of Meyer and Reichstein
(arXiv 0809.1688), never from running essdim:

- ed(N; p) has four regimes: [n/p] when p does not divide n; 2 when n = p;
  n^2/p - n + 1 when n = p^r with r >= 2; p^e(n - p^e) - n + 1 otherwise,
  where p^e is the largest power of p dividing n.
- The witness weight sets have p^(2r-1) elements (Lambda_c, n = p^r) and
  p^e(n - p^e) elements (Lambda_d); the value is witness size - (n - 1).
- The lower bounds on invariant generating sets of the zero-sum lattice mod q
  are p^(2r-1) for n = p^r (Prop 7.2) and p^e(n - p^e) otherwise (Lemma 8.2).
  Inside the stated hypothesis the minimum equals the bound, because the
  Lambda_c / Lambda_d weight set of that size (for n = p, the orbit of a[1,2])
  reduces to an invariant generating set.

Each ``*_check`` builder returns a function ``check(stdout, tmp)`` that parses
the call's output and returns ``(answer, mismatch)``: the answer is the part of
the verdict compared between passes, the mismatch is ``None`` or says which
parsed field differs from the paper.
"""

from __future__ import annotations

import json
from pathlib import Path


def p_part(n: int, p: int) -> tuple[int, int]:
    """(e, p^e) for the largest power p^e dividing n."""
    e = 0
    while n % p ** (e + 1) == 0:
        e += 1
    return e, p ** e


def ed_closed_form(n: int, p: int) -> dict:
    """Case tag, value and p^e of ed(N; p) for the torus normalizer in PGL_n."""
    e, pe = p_part(n, p)
    if e == 0:
        case, value = "a", n // p
    elif n == p:
        case, value = "b", 2
    elif pe == n:
        case, value = "c", n * n // p - n + 1
    else:
        case, value = "d", pe * (n - pe) - n + 1
    return {"case": case, "value": value, "p_power": pe}


def witness_size(n: int, p: int) -> int:
    """|Lambda_c| = p^(2r-1) for n = p^r, |Lambda_d| = p^e(n - p^e) otherwise."""
    r, pe = p_part(n, p)
    return p ** (2 * r - 1) if pe == n else pe * (n - pe)


def _mismatch(got: dict, want: dict) -> str | None:
    diffs = [f"{k}={got.get(k)!r}, expected {v!r}" for k, v in want.items() if got.get(k) != v]
    return "; ".join(diffs) or None


def _ed_row(n: int, p: int) -> dict:
    want = {"n": n, "p": p, **ed_closed_form(n, p), "consistency": True}
    want["witness_total_dimension"] = want["value"] + n - 1
    return want


def ed_check(n: int, p: int, expected_value: int | None = None):
    """Single ``ed --json`` value and its witness dimension."""
    want = _ed_row(n, p)
    if expected_value is not None:  # lets a test plant a wrong expectation
        want["value"] = expected_value

    def check(stdout: str, tmp: Path):
        got = json.loads(stdout)
        return got.get("value"), _mismatch(got, want)
    return check


def ed_table_check(p: int, max_n: int):
    """``ed --table --json``: one row per n = 1..max_n, each the closed form."""
    def check(stdout: str, tmp: Path):
        rows = json.loads(stdout)
        if len(rows) != max_n:
            return len(rows), f"{len(rows)} rows, expected {max_n}"
        for n, row in enumerate(rows, start=1):
            bad = _mismatch(row, _ed_row(n, p))
            if bad:
                return [r.get("value") for r in rows], f"row n={n}: {bad}"
        return [r["value"] for r in rows], None
    return check


def verify_check(n: int, p: int, q: int):
    """``verify --json``: inside the hypothesis the minimum is the bound."""
    r, pe = p_part(n, p)
    if pe == n:  # Prop 7.2, n = p^r; for p = 2 it needs q >= 4
        bound = p ** (2 * r - 1)
        assert q >= (4 if p == 2 else p)
    else:  # Lemma 8.2, q = p
        bound = pe * (n - pe)
        assert q == p
    want = {"n": n, "p": p, "q": q, "bound": bound, "minimum": bound, "tight": True,
            "holds": True, "within_hypothesis": True}

    def check(stdout: str, tmp: Path):
        got = json.loads(stdout)
        bad = _mismatch(got, want)
        size = len(got.get("witness", ()))
        if not bad and size != bound:
            bad = f"witness has {size} elements, expected {bound}"
        return got.get("minimum"), bad
    return check


def genfree_check(case: str, n: int, p: int):
    """``check-genfree --json`` on Lambda_c / Lambda_d: generically free
    (Lemma 3.4), with a kernel witness indexed by the witness weight set."""
    want = {"case": case, "n": n, "p": p, "spans_ok": True, "kernel_faithful": True,
            "overall": True}
    size = witness_size(n, p)

    def check(stdout: str, tmp: Path):
        got = json.loads(stdout)
        bad = _mismatch(got, want)
        entries = len(got.get("explicit_kernel_witness", ()))
        if not bad and entries != size:
            bad = f"kernel witness has {entries} entries, expected |Lambda| = {size}"
        return got.get("overall"), bad
    return check


def construct_check(case: str, n: int, p: int):
    """``construct --json`` for Lambda_c / Lambda_d: witness_size(n, p)
    distinct weights, each a[i,j] = e_i - e_j, and no extra summand."""
    size = witness_size(n, p)
    want = {"case": case, "n": n, "p": p, "extra": [], "total_dimension": size}

    def check(stdout: str, tmp: Path):
        got = json.loads(stdout)
        weights = got.get("weights", [])
        bad = _mismatch(got, want)
        if not bad and len({tuple(w) for w in weights}) != size:
            bad = f"{len(weights)} weights, expected {size} distinct"
        if not bad and not all(len(w) == n and sorted(w) == [-1] + [0] * (n - 2) + [1]
                               for w in weights):
            bad = "a weight is not of the form a[i,j] = e_i - e_j"
        return len(weights), bad
    return check


REPRODUCE_MIN_ROWS = 27  # the verification matrix had 27 rows when this was written


def reproduce_check(report_name: str):
    """``reproduce-all``: every row of the written report passes.  Rows may be
    added to the matrix; fewer than REPRODUCE_MIN_ROWS means claims were lost."""
    def check(stdout: str, tmp: Path):
        rows = json.loads((tmp / report_name).read_text())
        failed = [r["row"] for r in rows if not r["result"]["passed"]]
        answer = [len(rows), failed]
        if failed:
            return answer, f"rows {failed} do not pass"
        if len(rows) < REPRODUCE_MIN_ROWS:
            return answer, f"{len(rows)} rows, expected at least {REPRODUCE_MIN_ROWS}"
        return answer, None
    return check
