import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from essdim import bounds, cli, constructions, genfree, lattice, permgroup
from essdim.cli import CLAIMS, claim_holds, main
from essdim.constructions import witness_size


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_case_c_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--case", "c", "--p", "2", "--r", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "c"
        assert payload["n"] == 8
        assert len(payload["weights"]) == 32
        assert payload["total_dimension"] == 32

    def test_case_a_human(self, capsys):
        code, out, _ = run(capsys, "construct", "--case", "a", "--n", "5", "--p", "2")
        assert code == 0
        assert "total dimension: 6" in out

    def test_json_roundtrip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "construct", "--case", "d", "--n", "6", "--p", "2", "--json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, separators=(", ", ": ")) == out.strip()


class TestCheckGenfree:
    def test_case_d_json(self, capsys):
        code, out, _ = run(capsys, "check-genfree", "--case", "d", "--n", "12",
                           "--p", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        assert payload["method"] == "center-reduction"
        assert payload["explicit_kernel_witness"]

    def test_case_b(self, capsys):
        code, out, _ = run(capsys, "check-genfree", "--case", "b", "--p", "3", "--json")
        assert code == 0
        assert json.loads(out)["overall"] is True


# Golden corpus: argv, exit code, stdout and stderr of CLI calls over every
# subcommand, recorded before weights became plain int tuples.  The
# check-genfree --json payloads of cases (c) and (d) also pin the spanning
# forest, whose fundamental cycles are the kernel generators, the first
# cycle each block rotation moves and the character count table; they were
# re-recorded when the certificate stopped reading the kernel off the Smith
# normal form, and when it came to count characters instead of scanning the
# center.
# Run timings (search-min's elapsed_ms, reproduce-all's per-row elapsed_ms)
# are dropped; reproduce-all is compared through its report file.
# `PYTHONPATH=src python tests/test_cli.py` re-records it from the current code.
CORPUS_FILE = Path(__file__).resolve().parent / "cli_corpus.json"
CORPUS_ARGV = [
    ("construct", "--case", "a", "--n", "5", "--p", "2", "--json"),
    ("construct", "--case", "b", "--p", "3", "--json"),
    ("construct", "--case", "c", "--r", "3", "--p", "2", "--json"),
    ("construct", "--case", "d", "--n", "12", "--p", "3", "--json"),
    ("construct", "--case", "d", "--n", "6", "--p", "2"),
    *[("check-genfree", "--case", case, *size, "--p", p, "--json") for case, size, p in [
        ("c", ("--r", "2"), "2"), ("c", ("--r", "2"), "3"), ("c", ("--r", "3"), "2"),
        ("d", ("--n", "6"), "2"), ("d", ("--n", "12"), "2"), ("d", ("--n", "12"), "3"),
        ("a", ("--n", "5"), "2"), ("a", ("--n", "7"), "2"),
        ("b", (), "2"), ("b", (), "3"), ("b", (), "5")]],
    ("check-genfree", "--case", "d", "--n", "12", "--p", "2"),
    ("orbit", "--n", "4", "--p", "2", "--weight", "1,0,-1,0", "--json"),
    ("orbit", "--n", "6", "--p", "2", "--weight", "2 -1 0 0 -1 0"),
    ("orbit", "--n", "4", "--p", "2", "--q", "4", "--weight", "1,3,5,-1", "--json"),
    ("orbit", "--n", "6", "--p", "3", "--q", "3", "--weight", "1,2,0,0,0,0"),
    ("orbit", "--n", "4", "--p", "2", "--weight", "1,0,0,0"),
    ("orbit", "--n", "3", "--p", "3", "--q", "3", "--weight", "1,1"),
    ("orbit", "--n", "3", "--p", "3", "--q", "3", "--weight", "1,1,0"),
    ("ed", "--table", "--max-n", "32", "--p", "2", "--json"),
    ("ed", "--table", "--max-n", "32", "--p", "3", "--json"),
    ("ed", "--table", "--max-n", "12", "--p", "2"),
    ("ed", "--n", "12", "--p", "2"),
    ("search-min", "--n", "4", "--p", "2", "--q", "4", "--json"),
    ("search-min", "--n", "2", "--p", "2", "--q", "2", "--json"),
    ("search-min", "--n", "4", "--p", "2", "--q", "4"),
    ("verify", "--prop", "7.2", "--p", "2", "--r", "5"),
    ("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--json"),
    ("verify", "--lemma", "8.2", "--n", "6", "--p", "2", "--json"),
    ("verify", "--prop", "7.2", "--p", "3", "--r", "1"),
    ("reproduce-all", "--profile", "full", "--report", "{report}"),
]


def observe(argv, tmp_path):
    """(exit code, stdout, stderr) of one corpus call, timings dropped."""
    report = tmp_path / "report.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(report=report) for a in argv])
    stdout = out.getvalue().replace(str(report), "{report}")
    if argv[0] == "search-min" and "--json" in argv and code == 0:
        payload = json.loads(stdout)
        del payload["elapsed_ms"]
        stdout = json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
    if argv[0] == "reproduce-all":
        rows = json.loads(report.read_text())
        for row in rows:
            del row["elapsed_ms"]
        stdout += json.dumps(rows, sort_keys=True) + "\n"
    return [code, stdout, err.getvalue()]


@pytest.mark.parametrize("args", CORPUS_ARGV)
def test_check_genfree_payload_pinned(tmp_path, args):
    corpus = json.loads(CORPUS_FILE.read_text())
    assert observe(args, tmp_path) == corpus[" ".join(args)]


# The sha256 of the stdout of each benchmarked ed, check-genfree and verify
# call, the ed and check-genfree ones at sizes the corpus does not reach;
# each exits 0 with nothing on stderr.  The check-genfree payloads print
# fundamental cycles of the spanning forest, so these also pin its order on
# the 2048- and 512-weight witnesses; the SNF's kernel columns of the
# 2048-weight one are pinned in test_lattice.  The verify payloads pin each
# search's witness, node count and orbit count.
PINNED_CALLS = [
    (("ed", "--n", "128", "--p", "2", "--json"),
     "5f11ba537b8db382082f07345124dab1a9ca346b5ce4c3c68dfd9c007651efd1"),
    (("ed", "--n", "125", "--p", "5", "--json"),
     "cd323ee56304bc5f2d8b228e00a53c90c72bf474ab5bc9a83289f0abfe47efa7"),
    (("ed", "--n", "96", "--p", "2", "--json"),
     "025db256b89e46056b576b244d0733a433dcf9feb0a71b09eb36e1dd6709b3d6"),
    (("ed", "--n", "243", "--p", "3", "--json"),
     "ac6b250aca599e41f9fac905708c8bfe74686ab5abf4925049280dfb76780a3c"),
    (("check-genfree", "--case", "c", "--r", "6", "--p", "2", "--json"),
     "48067987adb0a77e802d607c40493df03d7e2ec31b85e6d929a1f8e4d81f2619"),
    (("check-genfree", "--case", "d", "--n", "48", "--p", "2", "--json"),
     "9d6fab78f118fd31424a1d91def22baab0dc5c2d1d4d67fac229f16665dd50b4"),
    (("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--q", "8", "--json"),
     "b8e8906135c4474278fefb5ed22fb08f6e418d6265eb01677c8bb926266257c0"),
    (("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--json"),
     "23ceeaec63eb9264f506fd2270dc68811d84a8c60bef26aae54708c0946bba35"),
    (("verify", "--prop", "7.2", "--p", "5", "--r", "1", "--json"),
     "d0609a486a0c3ebbb649573a97995580e2aca09c1dbc08eac46ad381e553b361"),
    (("verify", "--prop", "7.2", "--p", "3", "--r", "1", "--q", "27", "--json"),
     "1da6043717e12042effaaf26a87d366e4f807af397f269114bd7017e43533068"),
    (("verify", "--prop", "7.2", "--p", "3", "--r", "1", "--q", "81", "--json"),
     "463530a38f255f20bdea048d80519ae272b3f370cd0cdf0b23d2b0bfae55fa7b"),
    (("verify", "--lemma", "8.2", "--p", "2", "--n", "6", "--json"),
     "94768fa67e7c9420dec8d217508d2d4e431c74226b5bccecd0eeeb3acb077464"),
]


@pytest.mark.parametrize("args, digest", PINNED_CALLS, ids=[" ".join(a) for a, _ in PINNED_CALLS])
def test_benchmarked_call_pinned(capsys, args, digest):
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The sha256 of the stdout of orbit calls past the corpus, which stops at n
# = 6: two blocks mod 4, a fixed point and two blocks over Z at p = 3, one
# block of 27 mod 9, and a weight of distinct entries, whose orbit is all
# 2^15 elements of P_16.
PINNED_ORBITS = [
    (("orbit", "--n", "12", "--p", "2", "--q", "4", "--weight", "1,2,3,0,0,1,2,3,3,2,1,2",
      "--json"), "632252e1625509452a69e5d440f21c0117f05fb0c24ad1d6fbd83a8e4440a432"),
    (("orbit", "--n", "13", "--p", "3", "--weight", "2,-1,0,1,0,0,-3,0,1,0,0,0,0", "--json"),
     "b1f493d192fcbdc7a6a742783b3f69e6099bc58222e75d4b0df48bc6e7652a10"),
    (("orbit", "--n", "27", "--p", "3", "--q", "9", "--weight", "1,0,0,2," + "0," * 22 + "6",
      "--json"), "5ba959008308c66cee7bc3032eaa08d665c196b9784866c89fe41ba22c68b779"),
    (("orbit", "--n", "16", "--p", "2", "--weight", ",".join(map(str, range(1, 16))) + ",-120",
      "--json"), "d55b3eedc5f82761eb8df302cc5a340d8548536c6c95a2cbce74737ab3b2d98f"),
]


@pytest.mark.parametrize("args, digest", PINNED_ORBITS, ids=[a[2] for a, _ in PINNED_ORBITS])
def test_orbit_pinned(capsys, args, digest):
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_only_lambda_d_closes_an_orbit(monkeypatch, capsys):
    # orbit, the search and the naive oracles list an orbit by the wreath
    # recursion; only case (d)'s witness set closes one under the
    # generators.  The search and verify build no Sylow subgroup at all.
    def refuse(*args):
        raise AssertionError("refused")

    def patch(name):
        for module in (permgroup, bounds, constructions, cli, genfree):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)

    searches = [("search-min", "--n", "27", "--p", "3", "--q", "3"),  # one block
                ("search-min", "--n", "22", "--p", "2", "--q", "2"),  # three blocks
                ("verify", "--prop", "7.2", "--p", "2", "--r", "3"),
                ("verify", "--lemma", "8.2", "--n", "12", "--p", "3")]
    calls = [PINNED_ORBITS[1][0]] + searches
    answers = [run(capsys, *argv) for argv in calls]
    naive = bounds.naive_min_invariant_generating_size(6, 2, 2)
    assert all(code == 0 and not err for code, _, err in answers)
    patch("orbit_closure")
    assert [run(capsys, *argv) for argv in calls] == answers
    assert bounds.naive_min_invariant_generating_size(6, 2, 2) == naive
    with pytest.raises(AssertionError, match="refused"):
        constructions.lambda_d(12, 2)
    patch("sylow_subgroup")
    assert [run(capsys, *argv) for argv in searches] == answers[1:]


def test_searches_build_no_snf(monkeypatch, capsys):
    # no CLI call builds a Smith normal form: the greedy reduces closed-form
    # coinvariant classes, spans decides a mod-q set by its F_p rank (the
    # search's certificate and the naive cross-checks), and the certificates
    # read a set of a[i,j] over Z off a spanning forest
    def refuse(*args):
        raise AssertionError("a CLI call built a Smith normal form")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    assert {command for command, _ in CLAIMS} >= {"search-min", "search-min-naive-crosscheck",
                                                  "check-genfree"}
    for command, params in CLAIMS:
        assert claim_holds(command, params), (command, params)
    assert sum(args[0] == "verify" for args, _ in PINNED_CALLS) == 6
    for args, digest in PINNED_CALLS:
        code, out, _ = run(capsys, *args)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, args


class TestOrbit:
    def test_orbit_json(self, capsys):
        code, out, _ = run(capsys, "orbit", "--n", "4", "--p", "2",
                           "--weight", "1,0,-1,0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 8
        assert payload["orbit"] == sorted(payload["orbit"])


class TestSearchMin:
    def test_search_json(self, capsys):
        code, out, _ = run(capsys, "search-min", "--n", "2", "--p", "2", "--q", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["minimum"] == 2
        assert payload["predicted_bound"] == 2

    def test_budget_exit_code(self, capsys):
        # --budget capped the orbits examined (exit 4 when spent); check_search
        # caps the search space first, so the option is gone and the parser
        # refuses it
        for argv in (("search-min", "--n", "4", "--p", "2", "--q", "4", "--budget", "3"),
                     ("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--budget", "3")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and "unrecognized arguments: --budget 3" in out.err

    def test_degenerate_note(self, capsys):
        code, out, _ = run(capsys, "search-min", "--n", "2", "--p", "2", "--q", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["minimum"] == 1
        assert payload["within_hypothesis"] is False
        assert "outside stated hypothesis" in payload["note"]


class TestVerify:
    def test_prop_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--prop", "7.2", "--p", "2", "--r", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 8 and payload["tight"] is True
        # an --n that agrees with n = p^r is accepted and changes nothing
        assert run(capsys, "verify", "--prop", "7.2", "--p", "2", "--r", "2", "--n", "4",
                   "--json") == (0, out, "")

    def test_lemma_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "8.2", "--n", "6", "--p", "2", "--json")
        assert code == 0
        assert json.loads(out)["minimum"] == 8

    def test_failed_bound_exit_code(self, capsys):
        # outside-hypothesis case: minimum 1 < bound 2, reported not holding
        code, out, _ = run(capsys, "verify", "--prop", "7.2", "--p", "2", "--r", "1",
                           "--q", "2", "--json")
        assert code == 3
        assert json.loads(out)["holds"] is False

    @pytest.mark.parametrize("argv", [
        ("verify", "--lemma", "8.2", "--n", "6", "--p", "2", "--json"),
        ("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--json"),
    ])
    def test_counterexample_within_hypothesis_reported(self, capsys, monkeypatch, argv):
        # a search whose minimum falls one below the bound: inside the
        # hypothesis this raised BoundsError, so a counterexample to the paper
        # exited 2 as a usage error with nothing on stdout
        search = bounds.min_invariant_generating_size
        found = []

        def lowered(*args, **kwargs):
            result = search(*args, **kwargs)
            found.append(result)
            return result._replace(minimum=result.minimum - 1)

        monkeypatch.setattr(bounds, "min_invariant_generating_size", lowered)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (3, "")
        report = json.loads(out)
        assert report["holds"] is False and report["within_hypothesis"] is True
        assert report["minimum"] == report["bound"] - 1 and report["tight"] is False
        assert report["witness"] == found[0].witness.to_json()
        if argv[1] == "--lemma":
            assert bounds.verify_lower_bound(6, 2, 2) == report


class TestEd:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "ed", "--n", "12", "--p", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 21 and payload["case"] == "d"

    def test_table(self, capsys):
        code, out, _ = run(capsys, "ed", "--table", "--max-n", "8", "--p", "2", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["value"] for r in rows] == [0, 2, 1, 5, 2, 3, 3, 25]

    def test_markdown_table(self, capsys):
        code, out, _ = run(capsys, "ed", "--table", "--max-n", "4", "--p", "2")
        assert code == 0
        assert out.startswith("| n | case |")


class TestReproduceAll:
    def test_quick_profile(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "reproduce-all", "--profile", "quick",
                           "--report", str(report))
        assert code == 0
        assert "FAIL" not in out
        manifests = json.loads(report.read_text())
        assert all(m["exit_code"] == 0 for m in manifests)
        assert len(manifests) >= 10

    def test_unknown_profile(self, capsys, tmp_path):
        code, _, err = run(capsys, "reproduce-all", "--profile", "bogus",
                           "--report", str(tmp_path / "r.json"))
        assert code == 2


def cli_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_subprocess(argv):
    return subprocess.run([sys.executable, "-m", "essdim.cli", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=60)


def test_start_up_loads_no_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, about a
    # fifth of the CLI's start-up; -S keeps site's .pth files out of the count
    probe = ("import sys, essdim.cli as c; c.build_parser(); "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# the stdout of a check-genfree row of test_unusable_input_rejected that answers
ANSWERED = "generically free = True"


@st.composite
def check_genfree_argv(draw):
    """check-genfree --case c|d: p up to 13, more often a prime; n up to
    300, often a multiple of p; r up to 10; mostly the size flag of the case
    (--r in case (c), --n in case (d)), sometimes another, both or none;
    with or without --json."""
    case = draw(st.sampled_from("cd"))
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)) | st.integers(-1, 13))
    step = max(p, 1)
    n = draw(st.integers(-2, 300) | st.integers(1, 300 // step).map(lambda k: k * step))
    r = draw(st.integers(-1, 10))
    usual = ("--r", r) if case == "c" else ("--n", n)
    sizes = draw(st.sampled_from((usual, usual, ("--n", n), ("--n", n, "--r", r), ())))
    return ["check-genfree", "--case", case, "--p", str(p), *map(str, sizes),
            *["--json"] * draw(st.booleans())]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(argv=check_genfree_argv())
def test_check_genfree_grammar(argv):
    # an answer, a refusal in one error line with nothing on stdout, or a
    # failed verification, each within 5 s, and never an exception
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5, argv
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("error:") == 1, argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


PRIMES_TO_101 = tuple(k for k in range(2, 102) if all(k % d for d in range(2, k)))
# the fuzz's largest n: admitted calls take seconds from about n = 20 on
# (orbit --n 22 --p 2 of a weight with distinct entries builds 2^19 weights
# in about 8 s), so a larger bound would cost the suite more than its few
# seconds; r reaches 10, where n = p^r is refused by the size budgets
FUZZ_MAX_N = 18


@st.composite
def cli_argv(draw):
    """An argv of one of the seven commands: p up to 101, mostly a prime and
    often one below 10; q up to p^4, often a power of p; r up to 10; n up to
    FUZZ_MAX_N, often a multiple of p; mostly the flags the command reads,
    sometimes others or too few; with or without --json."""
    small = st.sampled_from((2, 3, 5, 7))
    p = draw(st.one_of(small, small, st.sampled_from(PRIMES_TO_101), st.integers(-1, 101)))
    base = max(p, 2)
    q = draw(st.sampled_from([base ** e for e in range(1, 5)]) | st.integers(-1, base ** 4))
    r = draw(st.integers(2, 10) | st.integers(-1, 10))
    n = draw(st.integers(1, max(FUZZ_MAX_N // base, 1)).map(lambda k: k * base)
             | st.integers(-1, FUZZ_MAX_N))

    def pick(usual, *others):
        # the usual choice twice as often as each other one
        return draw(st.sampled_from((usual, usual, *others)))

    command = draw(st.sampled_from(("construct", "check-genfree", "orbit", "search-min",
                                    "verify", "ed", "reproduce-all")))
    if command in ("construct", "check-genfree"):
        case = draw(st.sampled_from("abcd"))
        usual = ("--r", r) if case == "c" else () if case == "b" else ("--n", n)
        rest = ("--case", case, "--p", p, *pick(usual, ("--n", n), ("--n", n, "--r", r), ()))
    elif command == "orbit":
        # weights of length n, mostly zero-sum, so the orbit is often built
        size = max(n, 1) - 1
        body = draw(st.lists(st.integers(-abs(q), abs(q)), min_size=size, max_size=size))
        entries = body + pick([-sum(body)], [1 - sum(body)])
        rest = ("--n", n, "--p", p, *pick((), ("--q", q)),
                "--weight=" + ",".join(map(str, entries)))
    elif command == "search-min":
        rest = ("--n", n, "--p", p, "--q", q)
    elif command == "verify":
        rest = ("--p", p, *pick(("--prop", "7.2", "--r", r), ("--lemma", "8.2", "--n", n),
                                ("--lemma", "8.2", "--n", n), ("--prop", "7.2", "--r", r, "--n", n),
                                ("--prop", "7.3", "--r", r), ("--lemma", "8.2", "--r", r),
                                ("--prop", "7.2", "--lemma", "8.2"), ()),
                *pick((), ("--q", q)))
    elif command == "ed":
        rest = ("--p", p, *pick(("--n", n), ("--table", "--max-n", n), ("--table",),
                                ("--table", "--n", n), ("--max-n", n), ()))
    else:
        return ["reproduce-all", "--profile", pick("quick", "full", "bogus"),
                "--report", os.devnull]
    return [command, *map(str, rest), *pick((), ("--json",))]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv=cli_argv())
def test_every_command_exits_cleanly(argv):
    # an answer, a refusal or a failed verification, and never a traceback;
    # how long an admitted call may take is not bounded yet
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal of the grammar
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert "error: " in err.getvalue(), argv


class TestUsageErrors:
    def test_missing_case_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--p", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "--prop", "7.2", "--p", "1", "--r", "2"),
        ("verify", "--lemma", "8.2", "--p", "1", "--n", "6"),
        ("verify", "--prop", "7.2", "--p", "0", "--r", "2"),
        ("ed", "--n", "12", "--p", "1"),
        ("ed", "--n", "12", "--p", "0"),
        ("ed", "--n", "12", "--p", "-2"),
        ("ed", "--n", "12", "--p", "4"),
        ("construct", "--case", "d", "--n", "12", "--p", "0"),
        ("orbit", "--n", "4", "--p", "0", "--weight", "1,-1,0,0"),
        ("check-genfree", "--case", "c", "--r", "2", "--p", "4"),
    ])
    def test_non_prime_p_rejected(self, argv):
        # in a subprocess with a timeout: p = 1 used to loop forever, p = 0
        # and p = -2 raised tracebacks, and p = 4 gave a meaningless verdict
        done = run_subprocess(argv)
        assert done.returncode == 2
        assert "is not a prime" in done.stderr

    @pytest.mark.parametrize("argv,message", [
        # refused from the forms the search would list; --p 2 --r 5, refused
        # by the q^(n-1) <= 2^20 cap, is now searched
        (("verify", "--prop", "7.2", "--p", "2", "--r", "6"), "4^(2^6 - 1) too large"),
        (("verify", "--prop", "7.2", "--p", "1000000007", "--r", "20"),
         "1000000007^(1000000007^20 - 1) too large"),
        # q^(n-1) = 4^(2^22 - 1) must be refused before it is computed
        (("verify", "--prop", "7.2", "--p", "2", "--r", "22"), "too large"),
        (("verify", "--lemma", "8.2", "--n", "0", "--p", "2"), "n must be positive, got 0"),
        (("verify", "--lemma", "8.2", "--n", "6", "--p", "2", "--q", "0"),
         "q=0 is not a power of p=2"),
        (("construct", "--case", "d", "--n", "-6", "--p", "2"), "n must be positive"),
        (("check-genfree", "--case", "d", "--n", "-6", "--p", "2"), "n must be positive"),
        (("verify", "--prop", "7.2", "--p", "3", "--r", "0"), "--r >= 1"),
        (("verify", "--prop", "7.2", "--p", "3", "--r", "-1"), "--r >= 1"),
        (("construct", "--case", "b", "--p", "2", "--n", "9"), "disagrees"),
        (("check-genfree", "--case", "b", "--p", "2", "--n", "9"), "disagrees"),
        (("construct", "--case", "c", "--p", "2", "--r", "2", "--n", "99"), "disagrees"),
        (("check-genfree", "--case", "c", "--p", "2", "--r", "2", "--n", "99"), "disagrees"),
        # these three rows answer: the center scan over p^k - 1 elements that
        # refused them is gone, and the character count takes milliseconds;
        # their ids keep the refusal they gave
        pytest.param(("check-genfree", "--case", "d", "--n", "120", "--p", "5"), ANSWERED,
                     id="argv13-center scan too large"),
        pytest.param(("check-genfree", "--case", "d", "--n", "726", "--p", "3"), ANSWERED,
                     id="argv14-center scan too large"),
        pytest.param(("check-genfree", "--case", "d", "--n", "620", "--p", "5"), ANSWERED,
                     id="argv15-center scan too large"),
        # the form of r = 20 above, where p^r - 1 was written out in full
        (("verify", "--prop", "7.2", "--p", "1000000007", "--r", "21"),
         "1000000007^(1000000007^21 - 1) too large"),
        (("construct", "--case", "c", "--r", "-1", "--p", "0"), "is not a prime"),
        (("check-genfree", "--case", "c", "--r", "-1", "--p", "0"), "is not a prime"),
        (("ed", "--table", "--max-n", "0", "--p", "4"), "is not a prime"),
        (("ed", "--table", "--max-n", "-3", "--p", "9"), "is not a prime"),
        (("orbit", "--n", "0", "--p", "4", "--q", "6", "--weight", "0"), "p=4 is not a prime"),
        (("orbit", "--n", "0", "--p", "2", "--q", "6", "--weight", "0"),
         "n must be positive, got 0"),
        # refused from the forms the search would list (p^r = 125) and the
        # runs it would step over (n = 50)
        (("verify", "--prop", "7.2", "--p", "5", "--r", "3"), "5^(5^3 - 1) too large"),
        (("verify", "--lemma", "8.2", "--n", "50", "--p", "5"), "5^49 too large"),
        # flags the command would ignore: verify answered Prop 7.2 at n = 4
        # when also given --lemma 8.2 --n 6, and ignored --r beside --lemma
        (("verify", "--prop", "7.2", "--lemma", "8.2", "--n", "6", "--p", "2"),
         "--prop or --lemma, not both"),
        (("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--n", "6"),
         "--n 6 disagrees with Prop 7.2, where n = p^r = 2^2"),
        (("verify", "--lemma", "8.2", "--n", "4", "--p", "2", "--r", "5"), "takes --n, not --r"),
        (("ed", "--table", "--n", "12", "--p", "2"), "takes --max-n, not --n"),
        (("construct", "--case", "d", "--n", "12", "--p", "2", "--r", "2"),
         "--r applies to case (c) only, not case (d)"),
        (("construct", "--case", "b", "--p", "3", "--r", "1"),
         "--r applies to case (c) only, not case (b)"),
        (("check-genfree", "--case", "a", "--n", "5", "--p", "2", "--r", "1"),
         "--r applies to case (c) only, not case (a)"),
        (("ed", "--n", "12", "--p", "2", "--max-n", "5"), "--max-n applies to ed --table only"),
    ])
    def test_unusable_input_rejected(self, argv, message):
        # r = 22 built a 4-million-digit integer, and r = 20 at p = 10^9 + 7
        # printed p^r - 1 in full (181 digits, 233 bytes against 71 at
        # r = 21); n = 0 or q = 0 looped forever, and so did case (d) with
        # n = -6 in the base-p digits (-1 // p == -1); r = 0 verified n = 1
        # against the bound 0; case (b) and (c) ignored an inconsistent --n;
        # case (c) with --r -1 --p 0 raised ZeroDivisionError from 0 ** -1;
        # a table with no rows printed nothing and exited 0 for a non-prime
        # p; orbit checked n and q before p; case (d) at n = 120, 726 and 620
        # listed every order-p central element and ended in a traceback;
        # a flag the command does not read was ignored
        start = time.monotonic()
        done = run_subprocess(argv)
        assert time.monotonic() - start < 10
        if message == ANSWERED:
            assert (done.returncode, done.stderr) == (0, "") and message in done.stdout
            return
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert done.stderr.count("\n") == 1 and len(done.stderr) < 200

    @pytest.mark.parametrize("argv", [
        ("ed", "--n", "1024", "--p", "2"),  # case (c): 2^19 weights of length 2^10
        ("ed", "--n", "100000", "--p", "2"),  # case (d): 32 * 99,968 weights
        ("ed", "--n", "100001", "--p", "2"),  # case (a): 100,000 weights
        ("construct", "--case", "b", "--p", "1000003"),
        # |Lambda| = 2^15999 has more digits than int-to-str conversion allows
        ("construct", "--case", "c", "--p", "2", "--r", "8000"),
        ("check-genfree", "--case", "d", "--n", "100000", "--p", "2"),
    ])
    def test_oversized_witness_set_refused(self, argv):
        # |Lambda| * n is computed from the case's formula and refused past
        # 2^24 entries; without the cap ed --n 1024 --p 2 would start building
        # 2^19 weights of length 1024
        start = time.monotonic()
        done = run_subprocess(argv)
        assert time.monotonic() - start < 10
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: witness set too large")
        assert done.stderr.count("\n") == 1 and len(done.stderr) < 200

    @pytest.mark.parametrize("argv,message", [
        (("construct", "--case", "c", "--p", "2", "--r", "100000"), "witness set too large"),
        (("construct", "--case", "c", "--p", "3", "--r", "1000000000"), "witness set too large"),
        (("check-genfree", "--case", "c", "--p", "3", "--r", "1000000000"),
         "witness set too large"),
        (("verify", "--prop", "7.2", "--p", "3", "--r", "1000000000"), "too large"),
    ])
    def test_oversized_r_refused_before_p_to_the_r(self, capsys, argv, message):
        # p^r was built first: --p 2 --r 100000 took 1.8 s to be refused and
        # --p 3 --r 1000000000 did not finish
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("argv,bits", [
        (("ed", "--table", "--max-n", "512", "--p", "2"), 26),  # row 512, case (c)
        (("ed", "--table", "--max-n", "5000", "--p", "101"), 24),  # row 505, case (d)
        (("ed", "--table", "--max-n", "5000", "--p", "2305843009213693951"), 24),  # row 4097
    ])
    def test_oversized_table_row_refused_before_any_row(self, capsys, argv, bits):
        # every row before the oversized one was built first: 93.6 s at
        # --p 2 and 4.8 s at --p 101, with nothing printed
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: witness set too large: at least 2^{bits} entries, "
                       f"more than 16777216\n")

    @pytest.mark.parametrize("argv,message", [
        (("ed", "--n", "12", "--p", "1000000000000000000000000000057"),
         "cannot decide whether 1000000000000000000000000000057 is prime"),
        (("orbit", "--n", "32", "--p", "2",
          "--weight", ",".join(map(str, range(1, 32))) + ",-496"), "orbit too large"),
    ])
    def test_refused_at_once(self, capsys, argv, message):
        # the prime p, past Miller-Rabin's exact range, was trial-divided up
        # to its square root and did not finish; the 2^31-element orbit was
        # closed up to the cap (0.9 s, 190 MB) before it was refused
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and len(err) < 200

    def test_large_prime_in_range_decided(self, capsys):
        # 10^9 + 7 and 2^61 - 1 are prime; 12 < p puts n in case (a)
        for p in ("1000000007", "2305843009213693951"):
            start = time.perf_counter()
            code, out, err = run(capsys, "ed", "--n", "12", "--p", p, "--json")
            assert time.perf_counter() - start < 1
            assert code == 0 and err == ""
            report = json.loads(out)
            assert (report["case"], report["value"], report["consistency"]) == ("a", 0, True)

    def test_oversized_orbit_refused(self, capsys, monkeypatch):
        # the closure stops past MAX_WITNESS_ENTRIES entries; a 2^31-element
        # orbit at n = 32 ended in a SystemError traceback
        monkeypatch.setattr(permgroup, "MAX_WITNESS_ENTRIES", 4 * 4)
        code, out, _ = run(capsys, "orbit", "--n", "4", "--p", "2", "--weight", "1,-1,0,0")
        assert code == 0 and "4 elements" in out
        code, out, err = run(capsys, "orbit", "--n", "4", "--p", "2", "--weight", "1,0,-1,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: orbit too large")
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("argv", [
        ("check-genfree", "--case", "a", "--n", "17", "--p", "2"),
        ("check-genfree", "--case", "a", "--n", "25", "--p", "3"),
    ])
    def test_large_case_a_certified(self, argv):
        # the combination rule used to enumerate S_[n/p], past the element
        # cap here (exit 4); the permutation summand is now decided by its lemma
        done = run_subprocess(argv)
        assert done.returncode == 0
        assert "generically free = True" in done.stdout
        assert done.stderr == ""

    def test_unwritable_report_rejected(self, tmp_path):
        # this ran every claim, then exited 1 with a FileNotFoundError traceback
        report = tmp_path / "missing" / "r.json"
        done = run_subprocess(("reproduce-all", "--report", str(report)))
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot write the report")
        assert done.stderr.count("\n") == 1
        assert done.stdout == "" and not report.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_report_rejected(self):
        # this ran every claim, then exited 1 with an OSError traceback when
        # the report was closed
        done = run_subprocess(("reproduce-all", "--report", "/dev/full"))
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot write the report")
        assert done.stderr.count("\n") == 1
        assert "report written" not in done.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_stdout_exits_quietly(self):
        # print's final flush ended in an OSError traceback
        with open("/dev/full", "w") as full:
            argv = [sys.executable, "-m", "essdim.cli", "ed", "--n", "12", "--p", "2"]
            done = subprocess.run(argv, env=cli_env(), stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith("error: cannot write the output")
        assert done.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_stderr_keeps_the_refusal(self):
        # the refusal's error line raised OSError in print, which ended in a
        # traceback and exit 1
        with open("/dev/full", "w") as full:
            argv = [sys.executable, "-m", "essdim.cli", "ed", "--n", "12", "--p", "2",
                    "--max-n", "5"]
            done = subprocess.run(argv, env=cli_env(), stdout=subprocess.PIPE, stderr=full,
                                  text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")

    def test_closed_stdout_exits_quietly(self):
        # a reader that stops after 50 bytes got a BrokenPipeError traceback;
        # the payload (about 400 kB) is larger than any pipe buffer
        with subprocess.Popen(
                [sys.executable, "-m", "essdim.cli", "construct", "--case", "c", "--p", "2",
                 "--r", "6", "--json"],
                env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(50)) == 50
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""

    def test_refusal_grid(self, capsys):
        # every command over small, zero, negative and non-prime parameters:
        # each call ends in an exit code of the contract, never an exception,
        # and a refusal is one error line with nothing on stdout
        ns, ps, rs = (-6, 0, 1, 2, 3, 4, 6, 9), (-2, 0, 1, 2, 3, 4), (-1, 0, 1, 2)
        argvs = []
        for p in map(str, ps):
            for cmd in ("construct", "check-genfree"):
                argvs.append((cmd, "--case", "b", "--p", p))
                argvs += [(cmd, "--case", "c", "--r", str(r), "--p", p) for r in rs]
                argvs += [(cmd, "--case", case, "--n", str(n), "--p", p)
                          for case in "ad" for n in ns]
            argvs += [("verify", "--prop", "7.2", "--p", p, "--r", str(r)) for r in rs]
            for n in map(str, ns):
                argvs += [("ed", "--n", n, "--p", p), ("ed", "--table", "--max-n", n, "--p", p),
                          ("verify", "--lemma", "8.2", "--n", n, "--p", p),
                          ("search-min", "--n", n, "--p", p, "--q", p)]
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code in (0, 2, 3), argv
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv

    def test_search_refusal_order(self, capsys):
        # search-min and verify refuse a search by one rule, each fact with
        # one line, in this order: p not a prime; n < 1; q not a power of p;
        # a search whose work passes 2^24 entries.  verify --lemma 8.2
        # computed the bound first (n = 0 or q = 0 gave "valuation of 0"),
        # and verify --prop 7.2 refused r > 20 before p.  verify --prop 7.2
        # writes the search space as q^(p^r - 1).  The work starts with the
        # witness bound, witness_size(n, p) weights of n entries, which
        # verify --prop 7.2 reads from r; the rest is read off orbit counts,
        # and of the points below it refuses (243, 3, 3) alone.  The
        # q^(n-1) <= 2^20 cap refused every n = 22 and r = 5 here
        def first_refusal(n, p, q, exponent=None):
            if p not in (2, 3):  # the primes among the p below
                return f"p={p} is not a prime"
            if n < 1:
                return f"n must be positive, got {n}"
            if q not in (p, p * p, p ** 3):
                return f"q={q} is not a power of p={p}"
            if witness_size(n, p) * n > 2 ** 24 or (n, p, q) == (243, 3, 3):
                return f"search space q^(n-1) = {q}^{exponent or n - 1} too large"
            return None

        ps, ns, qs = (-2, 0, 1, 2, 3, 4), (-3, 0, 1, 6, 22), (0, 1, 3, 4, 9)
        cases = []
        for p in ps:
            for n in ns:
                cases.append((("verify", "--lemma", "8.2", "--n", n, "--p", p),
                              first_refusal(n, p, p)))
                for q in qs:
                    cases += [(("search-min", "--n", n, "--p", p, "--q", q),
                               first_refusal(n, p, q)),
                              (("verify", "--lemma", "8.2", "--n", n, "--p", p, "--q", q),
                               first_refusal(n, p, q))]
            q = 4 if p == 2 else p
            for r in (-1, 0, 1, 2, 5, 22, 10 ** 9):
                expected = first_refusal(1, p, q)  # p and q, before r
                if expected is None and r < 1:
                    expected = f"verifying the p-power bound needs --r >= 1, got {r}"
                elif expected is None and 3 * r - 1 > 24:  # p^r not formed
                    expected = f"search space q^(n-1) = {q}^({p}^{r} - 1) too large"
                elif expected is None:
                    expected = first_refusal(p ** r, p, q, f"({p}^{r} - 1)")
                cases.append((("verify", "--prop", "7.2", "--p", p, "--r", r), expected))
        for argv, expected in cases:
            start = time.perf_counter()
            code, out, err = run(capsys, *map(str, argv))
            assert time.perf_counter() - start < 1, argv
            if expected is None:
                assert code in (0, 3) and err == "", argv
            else:
                assert (code, out, err) == (2, "", f"error: {expected}\n"), argv

    def test_case_c_size_refusal_matches_ed(self, capsys):
        # construct --case c printed case_c_length's lower bound 2^(3r-1),
        # ed --n p^r the exact |Lambda| n: 2^26 and 2^41 at p = 3, r = 9
        for p, r in itertools.product((2, 3, 5, 7), range(9, 21)):
            code, out, err = run(capsys, "construct", "--case", "c", "--r", str(r), "--p", str(p))
            assert (code, out) == (2, "")
            assert err.startswith("error: witness set too large: at least 2^")
            assert run(capsys, "ed", "--n", str(p ** r), "--p", str(p)) == (code, out, err)

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "search-min", "--n", "4", "--p", "2", "--q", "9")
        assert code == 2
        assert "error" in err


if __name__ == "__main__":
    import tempfile
    corpus = {}
    for argv in CORPUS_ARGV:
        with tempfile.TemporaryDirectory() as tmp:
            corpus[" ".join(argv)] = observe(argv, Path(tmp))
    CORPUS_FILE.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
