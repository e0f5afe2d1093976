"""Tests of the benchmark harness, on the smoke workload's tiny calls.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import expected
import run
from tracer import Tracer
from workloads import SMOKE, WORKLOADS, Call

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _bench(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_expected_answers_from_the_closed_forms():
    assert [expected.ed_closed_form(n, p)["value"] for n, p in
            [(128, 2), (125, 5), (96, 2), (12, 2), (7, 7), (7, 2)]] == [8065, 3001, 1953, 21, 2, 3]
    assert [expected.witness_size(n, p) for n, p in
            [(64, 2), (48, 2), (9, 3), (12, 3), (6, 2)]] == [2048, 512, 27, 27, 8]


def test_tracer_installs_everywhere_and_restores():
    import essdim
    import essdim.cli as cli
    from essdim import bounds, constructions, genfree, permgroup
    modules = [m for name, m in sys.modules.items() if name.startswith("essdim")]
    before = {m.__name__: dict(vars(m)) for m in modules}
    original_act, original_orbit = permgroup.act, permgroup.orbit

    tracer = Tracer()
    tracer.install()
    try:
        wrapped = permgroup.act
        assert wrapped is not original_act
        assert bounds.act is constructions.act is genfree.act is cli.act is wrapped
        assert cli.orbit_of is permgroup.orbit is not original_orbit
        assert essdim.ed_value is essdim.edcalc.ed_value is cli.ed_value
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--lemma", "8.2", "--n", "6", "--p", "2", "--json"]) == 0
    finally:
        tracer.restore()

    metrics = tracer.metrics()
    assert metrics["bounds.search.nodes"] > 0
    assert metrics["lattice.rank_mod_p.calls"] > metrics["bounds.search.nodes"]
    assert metrics["permgroup.act.calls"] > 0
    assert metrics["bounds.search.self_s"] < metrics["bounds.search.s"]
    for m in modules:
        now = vars(m)
        assert all(now[k] is v for k, v in before[m.__name__].items()), m.__name__


def _outcome(code, stdout="", error=None, stderr=""):
    return {"id": "x", "exit": code, "error": error, "stdout": stdout, "stderr": stderr}


@pytest.mark.parametrize("outcome, failed, wrong", [
    (_outcome(0, '{"n": 12, "p": 2, "case": "d", "value": 21, "p_power": 4, '
                 '"witness_total_dimension": 32, "consistency": true}'), False, False),
    (_outcome(0, '{"value": 21}'), True, True),
    (_outcome(0, "not json"), True, True),
    (_outcome(3, "{}"), True, True),
    (_outcome(2, stderr="error: orbit count too large"), True, False),
    (_outcome(4), True, False),
    (_outcome(None, error="ZeroDivisionError: boom"), True, False),
])
def test_judge_classifies_outcomes(outcome, failed, wrong, tmp_path):
    run.judge(Call("ed-12-2", (), expected.ed_check(12, 2)), outcome, tmp_path)
    assert (outcome["failed"], outcome["wrong"]) == (failed, wrong)
    assert (outcome["reason"] is None) == (not failed)


def test_wrong_expected_value_counts_toward_fail_frac(monkeypatch):
    verify_call, ed_call = SMOKE
    wrong = Call(ed_call.id, ed_call.argv, expected.ed_check(12, 2, expected_value=22))
    monkeypatch.setattr(run, "SMOKE", (verify_call, wrong))
    result = run.run_workload("smoke", seed=0, seconds=0.01, trace=False)
    assert result["attempted"] == 2 * len(result["passes"])
    assert result["failed"] == len(result["passes"])
    assert result["metrics"]["pass_frac"]["value"] == 0.5
    assert result["wrong"]
    reasons = [o["reason"] for o in result["passes"][0]["outcomes"] if o["id"] == ed_call.id]
    assert "value=21, expected 22" in reasons[0]


def test_smoke_untraced():
    out = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert list(out["metrics"]) == [m for m, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced():
    out = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 6
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert list(metrics) == [m for m, _, _ in run.per_layer_metrics()]
    assert metrics["edcalc.ed_value.calls"] == 1
    assert metrics["bounds.search.nodes"] > 0
    assert metrics["cli.call.verify-6-2-2.s"] > 0
