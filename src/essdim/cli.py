"""Command-line entry point.

Subcommands: construct, check-genfree, orbit, search-min, verify, ed,
reproduce-all.  JSON payloads use sorted keys and integer-only values so that
parse + re-serialize round-trips byte-identically.

Exit codes: 0 success, 2 usage error, 3 verification failure, 4 node budget
exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from . import __version__
from .bounds import (
    BoundsError,
    BudgetExhausted,
    min_invariant_generating_size,
    predicted_bound,
    verify_lower_bound,
)
from .constructions import build_plan, kernel_witness_coefficients
from .edcalc import ed_value
from .genfree import check_lemma32, check_lemma34
from .lattice import LatticeSpec, vp
from .permgroup import act, orbit as orbit_of, sylow_subgroup

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4


def emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def cmd_construct(args) -> int:
    plan = build_plan(args.case, _plan_n(args), args.p)
    payload = plan.to_json()
    if args.json:
        emit_json(payload)
    else:
        print(f"case ({plan.case_tag}), n={plan.n}, p={plan.p}")
        print(f"Lambda ({len(plan.torus_weights)} weights):")
        for w in plan.torus_weights:
            print("  " + str(list(w)))
        for dim, desc in plan.extra_summands:
            print(f"extra summand: dim {dim} ({desc})")
        print(f"total dimension: {plan.total_dimension}")
    return EXIT_OK


def _plan_n(args) -> int:
    if args.case == "c":
        if args.r is None:
            raise SystemExit("case (c) needs --r")
        return args.p ** args.r
    if args.case == "b":
        return args.p
    if args.n is None:
        raise SystemExit(f"case ({args.case}) needs --n")
    return args.n


def cmd_check_genfree(args) -> int:
    plan = build_plan(args.case, _plan_n(args), args.p)
    group = sylow_subgroup(plan.n, plan.p)
    if plan.extra_summands:
        verdict = check_lemma32(plan, group)
    else:
        verdict = check_lemma34(plan.torus_weights, group)
    payload = {"case": plan.case_tag, "n": plan.n, "p": plan.p}
    payload.update(verdict.to_json())
    if plan.case_tag in ("c", "d"):
        payload["explicit_kernel_witness"] = list(kernel_witness_coefficients(plan))
    if args.json:
        emit_json(payload)
    else:
        print(f"case ({plan.case_tag}), n={plan.n}, p={plan.p}: "
              f"generically free = {verdict.overall} [{verdict.method}]")
        print(f"  spans: {verdict.spans_ok}; kernel action faithful: {verdict.kernel_faithful}")
        if verdict.detail:
            print(f"  {verdict.detail}")
    return EXIT_OK if verdict.overall else EXIT_VERIFICATION


def cmd_orbit(args) -> int:
    spec = LatticeSpec(args.n, args.q)
    entries = [int(t) for t in args.weight.replace(",", " ").split()]
    w = spec.weight(entries)
    group = sylow_subgroup(args.n, args.p)
    orb = orbit_of(group, w, spec)
    payload = {
        "n": args.n,
        "p": args.p,
        "q": args.q,
        "seed": list(w),
        "size": len(orb),
        "orbit": orb.to_json(),
    }
    if args.json:
        emit_json(payload)
    else:
        print(f"orbit of {list(w)} under the Sylow {args.p}-subgroup of S_{args.n}: "
              f"{len(orb)} elements")
        for x in orb:
            print("  " + str(list(x)))
    return EXIT_OK


def _node_budget(args) -> int:
    if not math.isfinite(args.budget):
        raise SystemExit(f"--budget must be a finite number of nodes, got {args.budget}")
    return int(args.budget)


def cmd_search_min(args) -> int:
    try:
        result = min_invariant_generating_size(args.n, args.p, args.q, budget=_node_budget(args))
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    payload = {"n": args.n, "p": args.p, "q": args.q}
    payload.update(result.to_json())
    info = predicted_bound(args.n, args.p, args.q)
    payload["predicted_bound"] = info["bound"]
    payload["within_hypothesis"] = info["within_hypothesis"]
    if info["note"]:
        payload["note"] = info["note"]
    if args.json:
        emit_json(payload)
    else:
        print(f"minimal invariant generating set of X_{args.n} mod {args.q}: "
              f"{result.minimum} elements "
              f"({result.nodes_explored} nodes, {result.orbit_count} orbits)")
        if not info["within_hypothesis"]:
            print(f"  note: {info['note']}")
        print("  witness:")
        for w in result.witness:
            print("    " + str(list(w)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.prop is not None:
        if args.prop != "7.2":
            raise SystemExit(f"unknown proposition {args.prop!r}")
        if args.r is None:
            raise SystemExit("verifying the p-power bound needs --r")
        n = args.p ** args.r
        q = args.q if args.q is not None else (4 if args.p == 2 else args.p)
    elif args.lemma is not None:
        if args.lemma != "8.2":
            raise SystemExit(f"unknown lemma {args.lemma!r}")
        if args.n is None:
            raise SystemExit("verifying the composite-n bound needs --n")
        n = args.n
        q = args.q if args.q is not None else args.p
    else:
        raise SystemExit("verify needs --prop or --lemma")
    try:
        report = verify_lower_bound(n, args.p, q, budget=_node_budget(args))
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.json:
        emit_json(report)
    else:
        print(f"n={n}, p={args.p}, q={q}: bound {report['bound']}, "
              f"minimum {report['minimum']}, tight={report['tight']}")
        if "note" in report:
            print(f"  note: {report['note']}")
    return EXIT_OK if report["holds"] else EXIT_VERIFICATION


def cmd_ed(args) -> int:
    if args.table:
        rows = [ed_value(n, args.p) for n in range(1, args.max_n + 1)]
        if args.json:
            emit_json([r.to_json() for r in rows])
        else:
            print(f"| n | case | ed(N; {args.p}) |")
            print("|---|------|-------|")
            for r in rows:
                print(f"| {r.n} | {r.case_tag} | {r.value} |")
        return EXIT_OK
    if args.n is None:
        raise SystemExit("ed needs --n (or --table)")
    report = ed_value(args.n, args.p)
    if args.json:
        emit_json(report.to_json())
    else:
        print(f"ed(N; {args.p}) for n={args.n}: {report.value} (case {report.case_tag})")
        print(f"  witness dimension {report.witness_total_dimension}, "
              f"consistent={report.consistency}")
        print(f"  hypothesis: {report.field_hypothesis}")
    return EXIT_OK if report.consistency else EXIT_VERIFICATION


def _reproduce_rows(profile: str):
    quick_cap = 4096
    rows = []
    rows.append(("ed-table", {"p": 2, "max_n": 32},
                 lambda: all(ed_value(n, 2).consistency for n in range(1, 33))))
    rows.append(("ed-table", {"p": 3, "max_n": 32},
                 lambda: all(ed_value(n, 3).consistency for n in range(1, 33))))
    for p, r in [(2, 2), (2, 3), (3, 2)]:
        rows.append((
            "witness-size-c", {"p": p, "r": r},
            lambda p=p, r=r: len(build_plan("c", p ** r, p).torus_weights) == p ** (2 * r - 1)))
    for n, p in [(6, 2), (12, 2), (10, 2), (12, 3)]:
        pe = p ** vp(n, p)
        rows.append((
            "witness-size-d", {"n": n, "p": p},
            lambda n=n, p=p, pe=pe: len(build_plan("d", n, p).torus_weights) == pe * (n - pe)))
    for case, n, p in [("c", 4, 2), ("c", 9, 3), ("c", 8, 2), ("d", 6, 2), ("d", 12, 2)]:
        rows.append((
            "check-genfree", {"case": case, "n": n, "p": p},
            lambda case=case, n=n, p=p: check_lemma34(
                build_plan(case, n, p).torus_weights, sylow_subgroup(n, p)).overall))
    for case, n, p in [("a", 5, 2), ("a", 7, 2), ("b", 2, 2), ("b", 3, 3), ("b", 5, 5)]:
        rows.append((
            "check-genfree", {"case": case, "n": n, "p": p},
            lambda case=case, n=n, p=p: check_lemma32(
                build_plan(case, n, p), sylow_subgroup(n, p)).overall))
    searches = [(2, 2, 4, 2), (3, 3, 3, 3), (4, 2, 4, 8), (6, 2, 2, 8), (5, 5, 5, 5)]
    for n, p, q, expected in searches:
        if profile == "quick" and q ** (n - 1) > quick_cap:
            continue
        rows.append((
            "search-min", {"n": n, "p": p, "q": q, "expected": expected},
            lambda n=n, p=p, q=q, expected=expected:
                min_invariant_generating_size(n, p, q).minimum == expected))
    if profile == "full":
        from .bounds import naive_min_invariant_generating_size
        for n, p, q in [(4, 2, 4), (6, 2, 2)]:
            rows.append((
                "search-min-naive-crosscheck", {"n": n, "p": p, "q": q},
                lambda n=n, p=p, q=q: (
                    min_invariant_generating_size(n, p, q).minimum
                    == naive_min_invariant_generating_size(n, p, q)[0])))
    rows.append((
        "degenerate-exhibit", {"n": 2, "p": 2, "q": 2},
        lambda: (min_invariant_generating_size(2, 2, 2).minimum == 1
                 and not predicted_bound(2, 2, 2)["within_hypothesis"])))
    return rows


def cmd_reproduce_all(args) -> int:
    if args.profile not in ("quick", "full"):
        raise SystemExit(f"unknown profile {args.profile!r}")
    manifests = []
    ok = True
    for idx, (command, params, runner) in enumerate(_reproduce_rows(args.profile)):
        start = time.perf_counter()
        try:
            passed = bool(runner())
            error = None
        except Exception as exc:  # report the failure, keep going
            passed = False
            error = f"{type(exc).__name__}: {exc}"
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        manifest = {
            "row": idx,
            "command": command,
            "parameters": params,
            "version": __version__,
            "elapsed_ms": elapsed_ms,
            "result": {"passed": passed},
            "exit_code": 0 if passed else EXIT_VERIFICATION,
        }
        if error:
            manifest["result"]["error"] = error
        manifests.append(manifest)
        ok = ok and passed
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {command} {json.dumps(params, sort_keys=True)}")
    with open(args.report, "w") as fh:
        json.dump(manifests, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"report written to {args.report}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essdim",
        description="Essential dimension of the torus normalizer at a prime: "
                    "witness constructions, generic-freeness checks, exact "
                    "lower-bound searches, closed-form values.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n=False, p=True, q=False, r=False, case=False):
        if n:
            sp.add_argument("--n", type=int, default=None)
        if p:
            sp.add_argument("--p", type=int, required=True)
        if q:
            sp.add_argument("--q", type=int, default=None)
        if r:
            sp.add_argument("--r", type=int, default=None)
        if case:
            sp.add_argument("--case", choices=["a", "b", "c", "d"], required=True)
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("construct", help="build a witness weight set")
    add_common(sp, n=True, r=True, case=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("check-genfree", help="certify generic freeness of a case")
    add_common(sp, n=True, r=True, case=True)
    sp.set_defaults(func=cmd_check_genfree)

    sp = sub.add_parser("orbit", help="orbit of a weight under the Sylow subgroup")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, default=0)
    sp.add_argument("--weight", type=str, required=True,
                    help="comma- or space-separated entries")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("search-min", help="exact minimal invariant generating set size")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--budget", type=float, default=1e7)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_search_min)

    sp = sub.add_parser("verify", help="compare the search minimum to the published bound")
    sp.add_argument("--prop", type=str, default=None)
    sp.add_argument("--lemma", type=str, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--budget", type=float, default=1e7)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ed", help="closed-form essential dimension value")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--table", action="store_true")
    sp.add_argument("--max-n", type=int, default=32)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_ed)

    sp = sub.add_parser("reproduce-all", help="run the verification matrix")
    sp.add_argument("--profile", type=str, default="quick")
    sp.add_argument("--report", type=str, default="reproduce-report.json")
    sp.set_defaults(func=cmd_reproduce_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        raise
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, BoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
