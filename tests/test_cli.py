import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from essdim.cli import main


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
# check-genfree --json payloads also pin the SNF pivot order, which picks the
# kernel generators, and the first moved generator reported for each element.
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
    ("search-min", "--n", "4", "--p", "2", "--q", "4", "--budget", "3"),
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


# The sha256 of the stdout of each benchmarked ed and check-genfree call, at
# sizes the corpus does not reach; each exits 0 with nothing on stderr.  The
# check-genfree payloads print the SNF's kernel generators, so these also pin
# its operation sequence on the 2048- and 512-weight witnesses.
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
     "80113bc93f78b6a2363b497fa7a0bcd0f2deaa7a222692928328ed0cf7b04047"),
    (("check-genfree", "--case", "d", "--n", "48", "--p", "2", "--json"),
     "8841d7b8087accfc7538ecb042d4facbb4b191bc38381c48dd295a2ed7233ba6"),
]


@pytest.mark.parametrize("args, digest", PINNED_CALLS, ids=[" ".join(a) for a, _ in PINNED_CALLS])
def test_benchmarked_call_pinned(capsys, args, digest):
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        code, _, err = run(capsys, "search-min", "--n", "4", "--p", "2", "--q", "4",
                           "--budget", "3")
        assert code == 4
        assert "budget" in err

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
        (("search-min", "--n", "4", "--p", "2", "--q", "4", "--budget", "inf"), "--budget"),
        (("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--budget", "inf"), "--budget"),
        # q^(n-1) = 4^(2^22 - 1) must be refused before it is computed
        (("verify", "--prop", "7.2", "--p", "2", "--r", "22"), "too large"),
        (("verify", "--lemma", "8.2", "--n", "0", "--p", "2"), "valuation of 0"),
        (("verify", "--lemma", "8.2", "--n", "6", "--p", "2", "--q", "0"), "valuation of 0"),
        (("construct", "--case", "d", "--n", "-6", "--p", "2"), "n must be positive"),
        (("check-genfree", "--case", "d", "--n", "-6", "--p", "2"), "n must be positive"),
        (("verify", "--prop", "7.2", "--p", "3", "--r", "0"), "--r >= 1"),
        (("verify", "--prop", "7.2", "--p", "3", "--r", "-1"), "--r >= 1"),
        (("construct", "--case", "b", "--p", "2", "--n", "9"), "disagrees"),
        (("check-genfree", "--case", "b", "--p", "2", "--n", "9"), "disagrees"),
        (("construct", "--case", "c", "--p", "2", "--r", "2", "--n", "99"), "disagrees"),
        (("check-genfree", "--case", "c", "--p", "2", "--r", "2", "--n", "99"), "disagrees"),
        (("search-min", "--n", "4", "--p", "2", "--q", "4", "--budget", "0"), "--budget"),
        (("search-min", "--n", "4", "--p", "2", "--q", "4", "--budget", "-1"), "--budget"),
        (("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--budget", "0"), "--budget"),
        (("verify", "--prop", "7.2", "--p", "2", "--r", "2", "--budget", "-1"), "--budget"),
    ])
    def test_unusable_input_rejected(self, argv, message):
        # --budget inf raised OverflowError, r = 22 built a 4-million-digit
        # integer, n = 0 or q = 0 looped forever, and so did case (d) with
        # n = -6 in the base-p digits (-1 // p == -1); r = 0 verified n = 1
        # against the bound 0; case (b) and (c) ignored an inconsistent --n;
        # --budget 0 and -1 reported an exhausted budget (exit 4)
        done = run_subprocess(argv)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert len(done.stderr) < 200

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
