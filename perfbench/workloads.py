"""The benchmark workloads: fixed lists of ``essdim`` CLI calls with the
answers the paper predicts for them.

Each workload is a closed loop with one client: the calls run one after
another in one fresh child process.  The seed only permutes the call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import expected

TMP = "{tmp}"  # replaced by a fresh per-pass directory inside the work dir


@dataclass(frozen=True)
class Call:
    id: str
    argv: tuple[str, ...]
    check: Callable  # (stdout, tmp) -> (answer, mismatch or None)


def _verify(prop_or_lemma: str, n: int, p: int, q: int, extra: tuple[str, ...]) -> Call:
    flag = "--prop" if prop_or_lemma == "7.2" else "--lemma"
    return Call(f"verify-{n}-{p}-{q}",
                ("verify", flag, prop_or_lemma, "--p", str(p), *extra, "--json"),
                expected.verify_check(n, p, q))


def _ed(n: int, p: int) -> Call:
    return Call(f"ed-{n}-{p}", ("ed", "--n", str(n), "--p", str(p), "--json"),
                expected.ed_check(n, p))


def _genfree(case: str, n: int, p: int, size_args: tuple[str, ...]) -> Call:
    return Call(f"genfree-{case}-{n}-{p}",
                ("check-genfree", "--case", case, *size_args, "--p", str(p), "--json"),
                expected.genfree_check(case, n, p))


def _table(p: int, max_n: int) -> Call:
    return Call(f"table-{p}-{max_n}",
                ("ed", "--table", "--max-n", str(max_n), "--p", str(p), "--json"),
                expected.ed_table_check(p, max_n))


def _construct(case: str, n: int, p: int, size_args: tuple[str, ...]) -> Call:
    return Call(f"construct-{case}-{n}-{p}",
                ("construct", "--case", case, *size_args, "--p", str(p), "--json"),
                expected.construct_check(case, n, p))


# Lower-bound searches: branch-and-bound in bounds plus lattice.rank_mod_p do
# the work.  (3,3,81) is the case where orbit decomposition dominates; it exits
# 2 ("orbit count too large for recursive search") until the search engine is
# rewritten, and counts as failed until then.
SEARCH = (
    _verify("7.2", 4, 2, 8, ("--r", "2", "--q", "8")),
    _verify("7.2", 4, 2, 4, ("--r", "2")),
    _verify("7.2", 5, 5, 5, ("--r", "1")),
    _verify("7.2", 3, 3, 27, ("--r", "1", "--q", "27")),
    _verify("7.2", 3, 3, 81, ("--r", "1", "--q", "81")),
    _verify("8.2", 6, 2, 2, ("--n", "6")),
)

# Upper-bound side: orbits, act and Smith normal form do the work, the search
# none.
CERTIFY = (
    _ed(128, 2),
    _ed(125, 5),
    _ed(96, 2),
    _genfree("c", 64, 2, ("--r", "6")),
    _genfree("d", 48, 2, ("--n", "48")),
)

# Many small calls over the same layers: per-call overhead (argparse, weight
# validation, JSON output), tiny SNFs, naive oracles and small searches.
REPRODUCE = (
    Call("reproduce-all",
         ("reproduce-all", "--profile", "full", "--report", f"{TMP}/report.json"),
         expected.reproduce_check("report.json")),
    _table(2, 64),
    _table(3, 64),
    _table(5, 64),
    _construct("c", 9, 3, ("--r", "2")),
    _construct("d", 12, 3, ("--n", "12")),
)

WORKLOADS = {"search": SEARCH, "certify": CERTIFY, "reproduce": REPRODUCE}

# Tiny calls for checking the harness itself; not part of BENCHMARK.json.
SMOKE = (_verify("8.2", 6, 2, 2, ("--n", "6")), _ed(12, 2))
