import json
import os
import subprocess
import sys
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


# Full check-genfree --json payloads recorded before the Smith normal form kept
# its right transform as columns: they pin the SNF pivot order, which picks the
# kernel generators, and the first moved generator reported for each element.
PINNED_GENFREE = {
    ("--case", "c", "--r", "3", "--p", "2"): {
        "case": "c", "detail": "", "kernel_faithful": True, "method": "center-reduction",
        "n": 8, "overall": True, "p": 2, "spans_ok": True,
        "explicit_kernel_witness": [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                    0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        "witnesses": [
            {"element": "(1 2)(3 4)(5 6)(7 8)",
             "kernel_vector": [-1, 0, 1, 0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                               0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]},
        ],
    },
    ("--case", "c", "--r", "2", "--p", "3"): {
        "case": "c", "detail": "", "kernel_faithful": True, "method": "center-reduction",
        "n": 9, "overall": True, "p": 3, "spans_ok": True,
        "explicit_kernel_witness": [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
                                    0, 0, 0, 0, 0, 1, 0, 0],
        "witnesses": [
            {"element": element,
             "kernel_vector": [1, 0, -1, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                               0, 0, 0, 0, 0, 0, 0, 0]}
            for element in ("(1 2 3)(4 5 6)(7 8 9)", "(1 3 2)(4 6 5)(7 9 8)")
        ],
    },
    ("--case", "d", "--n", "12", "--p", "3"): {
        "case": "d", "detail": "", "kernel_faithful": True, "method": "center-reduction",
        "n": 12, "overall": True, "p": 3, "spans_ok": True,
        "explicit_kernel_witness": [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 1,
                                    -1, 0, 0, 0, 0, 0, 0, 0],
        "witnesses": [
            {"element": element,
             "kernel_vector": [0, 1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0,
                               0, 0, 0, 0, 0, 0, 0, 0]}
            for element in ("(4 5 6)(7 8 9)(10 11 12)", "(4 6 5)(7 9 8)(10 12 11)",
                            "(1 2 3)", "(1 2 3)(4 5 6)(7 8 9)(10 11 12)",
                            "(1 2 3)(4 6 5)(7 9 8)(10 12 11)", "(1 3 2)",
                            "(1 3 2)(4 5 6)(7 8 9)(10 11 12)",
                            "(1 3 2)(4 6 5)(7 9 8)(10 12 11)")
        ],
    },
}


@pytest.mark.parametrize("args", sorted(PINNED_GENFREE))
def test_check_genfree_payload_pinned(capsys, args):
    code, out, _ = run(capsys, "check-genfree", *args, "--json")
    assert code == 0
    expected = json.dumps(PINNED_GENFREE[args], sort_keys=True, separators=(", ", ": "))
    assert out == expected + "\n"


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
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "essdim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "is not a prime" in done.stderr

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "search-min", "--n", "4", "--p", "2", "--q", "9")
        assert code == 2
        assert "error" in err
