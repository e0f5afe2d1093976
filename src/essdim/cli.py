"""Command-line entry point.

Subcommands: construct, check-genfree, orbit, search-min, verify, ed,
reproduce-all.  JSON payloads use sorted keys and integer-only values so that
parse + re-serialize round-trips byte-identically.

Exit codes: 0 success, 1 stdout closed by the reader or not writable, 2
usage error, a refusal before the work starts or a report that cannot be
written, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .bounds import (
    check_search,
    min_invariant_generating_size,
    naive_min_invariant_generating_size,
    predicted_bound,
    verify_lower_bound,
)
from .constructions import (build_plan, case_c_length, check_plan, kernel_witness_coefficients,
                            witness_size)
from .edcalc import ed_table, ed_value
from .genfree import certify
from .lattice import LatticeSpec
from .permgroup import act, orbit as orbit_of, sylow_subgroup

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3


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
    """The n of the plan; a given --n must agree with n = p (case b) or
    n = p^r (case c), and --r is given in case (c) only."""
    if args.r is not None and args.case != "c":
        raise ValueError(f"--r applies to case (c) only, not case ({args.case})")
    if args.case == "c":
        if args.r is None:
            raise ValueError("case (c) needs --r")
        n, rule = case_c_length(args.p, args.r), f"p^r = {args.p}^{args.r}"
    elif args.case == "b":
        n, rule = args.p, f"p = {args.p}"
    elif args.n is None:
        raise ValueError(f"case ({args.case}) needs --n")
    else:
        return args.n
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} disagrees with case ({args.case}), where n = {rule}")
    return n


def cmd_check_genfree(args) -> int:
    n = _plan_n(args)
    plan = build_plan(args.case, n, args.p)
    verdict = certify(plan)
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
    check_plan(None, 1, args.p)  # p first; the group is built once the weight is read
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


def cmd_search_min(args) -> int:
    result = min_invariant_generating_size(args.n, args.p, args.q)
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
              f"({result.nodes_explored} of {result.orbit_count} orbits examined)")
        if not info["within_hypothesis"]:
            print(f"  note: {info['note']}")
        print("  witness:")
        for w in result.witness:
            print("    " + str(list(w)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.prop is not None and args.lemma is not None:
        raise ValueError("verify takes --prop or --lemma, not both")
    if args.prop is not None:
        if args.prop != "7.2":
            raise ValueError(f"unknown proposition {args.prop!r}")
        if args.r is None:
            raise ValueError("verifying the p-power bound needs --r")
        q = args.q if args.q is not None else (4 if args.p == 2 else args.p)
        check_search(1, args.p, q)  # p and q, before p^r is formed
        if args.r < 1:
            raise ValueError(f"verifying the p-power bound needs --r >= 1, got {args.r}")
        # check_search's refusals, written with p^r unexpanded; past
        # 3r - 1 = 24 its first one, the witness bound p^(2r-1) weights of
        # p^r entries, refuses any p >= 2, so p^r is not formed there
        exponent = f"({args.p}^{args.r} - 1)"
        if 3 * args.r - 1 > 24:
            raise ValueError(f"search space q^(n-1) = {q}^{exponent} too large")
        n = args.p ** args.r
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} disagrees with Prop 7.2, where n = p^r = "
                             f"{args.p}^{args.r}")
        check_search(n, args.p, q, exponent)
    elif args.lemma is not None:
        if args.lemma != "8.2":
            raise ValueError(f"unknown lemma {args.lemma!r}")
        if args.n is None:
            raise ValueError("verifying the composite-n bound needs --n")
        if args.r is not None:
            raise ValueError("verifying the composite-n bound takes --n, not --r")
        n = args.n
        q = args.q if args.q is not None else args.p
    else:
        raise ValueError("verify needs --prop or --lemma")
    report = verify_lower_bound(n, args.p, q)
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
        if args.n is not None:
            raise ValueError("ed --table takes --max-n, not --n")
        rows = ed_table(32 if args.max_n is None else args.max_n, args.p)
        if args.json:
            emit_json([r.to_json() for r in rows])
        else:
            print(f"| n | case | ed(N; {args.p}) |")
            print("|---|------|-------|")
            for r in rows:
                print(f"| {r.n} | {r.case_tag} | {r.value} |")
        return EXIT_OK
    if args.max_n is not None:
        raise ValueError("--max-n applies to ed --table only")
    if args.n is None:
        raise ValueError("ed needs --n (or --table)")
    report = ed_value(args.n, args.p)
    if args.json:
        emit_json(report.to_json())
    else:
        print(f"ed(N; {args.p}) for n={args.n}: {report.value} (case {report.case_tag})")
        print(f"  witness dimension {report.witness_total_dimension}, "
              f"consistent={report.consistency}")
        print(f"  hypothesis: {report.field_hypothesis}")
    return EXIT_OK if report.consistency else EXIT_VERIFICATION


# The paper's claims that reproduce-all checks, in report order: value
# tables, the sizes of the built Lambda_c and Lambda_d against their formula,
# generic freeness, the exact minima behind Prop 7.2 and Lemma 8.2, naive
# cross-checks of two of them (full profile only), and the excluded p = q = 2
# case.
CLAIMS = (
    ("ed-table", {"p": 2, "max_n": 32}),
    ("ed-table", {"p": 3, "max_n": 32}),
    *[("witness-size-c", {"p": p, "r": r}) for p, r in [(2, 2), (2, 3), (3, 2)]],
    *[("witness-size-d", {"n": n, "p": p}) for n, p in [(6, 2), (12, 2), (10, 2), (12, 3)]],
    *[("check-genfree", {"case": case, "n": n, "p": p}) for case, n, p in [
        ("c", 4, 2), ("c", 9, 3), ("c", 8, 2), ("d", 6, 2), ("d", 12, 2),
        ("a", 5, 2), ("a", 7, 2), ("b", 2, 2), ("b", 3, 3), ("b", 5, 5)]],
    *[("search-min", {"n": n, "p": p, "q": q, "expected": expected}) for n, p, q, expected in [
        (2, 2, 4, 2), (3, 3, 3, 3), (4, 2, 4, 8), (6, 2, 2, 8), (5, 5, 5, 5)]],
    *[("search-min-naive-crosscheck", {"n": n, "p": p, "q": q})
      for n, p, q in [(4, 2, 4), (6, 2, 2)]],
    ("degenerate-exhibit", {"n": 2, "p": 2, "q": 2}),
)


def claim_holds(command: str, params: dict) -> bool:
    """Whether one row of CLAIMS holds."""
    if command == "ed-table":
        return all(r.consistency for r in ed_table(params["max_n"], params["p"]))
    if command in ("witness-size-c", "witness-size-d"):
        case, p = command[-1], params["p"]
        n = p ** params["r"] if case == "c" else params["n"]
        return len(build_plan(case, n, p).torus_weights) == witness_size(n, p)
    if command == "check-genfree":
        return certify(build_plan(params["case"], params["n"], params["p"])).overall
    n, p, q = params["n"], params["p"], params["q"]
    if command == "search-min":
        return min_invariant_generating_size(n, p, q).minimum == params["expected"]
    if command == "search-min-naive-crosscheck":
        return (min_invariant_generating_size(n, p, q).minimum
                == naive_min_invariant_generating_size(n, p, q)[0])
    if command == "degenerate-exhibit":
        return (min_invariant_generating_size(n, p, q).minimum == 1
                and not predicted_bound(n, p, q)["within_hypothesis"])
    raise ValueError(f"unknown claim {command!r}")


def cmd_reproduce_all(args) -> int:
    if args.profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {args.profile!r}")
    claims = [(command, params) for command, params in CLAIMS
              if args.profile == "full" or command != "search-min-naive-crosscheck"]
    try:  # before the run, so a bad path costs nothing
        open(args.report, "w").close()
    except OSError as exc:
        raise ValueError(f"cannot write the report: {exc}")
    manifests = []
    ok = True
    for idx, (command, params) in enumerate(claims):
        start = time.perf_counter()
        try:
            passed = claim_holds(command, params)
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
    try:  # a full device fails only here, when the report is written out
        with open(args.report, "w") as report:
            json.dump(manifests, report, sort_keys=True, indent=2)
            report.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write the report: {exc}")
    print(f"report written to {args.report}")
    return EXIT_OK if ok else EXIT_VERIFICATION


@functools.cache  # no option has a mutable default, so main can reuse one parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essdim",
        description="Essential dimension of the torus normalizer at a prime: "
                    "witness constructions, generic-freeness checks, exact "
                    "lower-bound searches, closed-form values.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in [
            ("construct", cmd_construct, "build a witness weight set"),
            ("check-genfree", cmd_check_genfree, "certify generic freeness of a case")]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--case", choices=["a", "b", "c", "d"], required=True)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=func)

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
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_search_min)

    sp = sub.add_parser("verify", help="compare the search minimum to the published bound")
    sp.add_argument("--prop", type=str, default=None)
    sp.add_argument("--lemma", type=str, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ed", help="closed-form essential dimension value")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--table", action="store_true")
    sp.add_argument("--max-n", type=int, default=None, help="the table's last n (default 32)")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # stdout cannot take the output (a full device); the same devnull
        # keeps the final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # stderr cannot take the line; the exit code still refuses
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
