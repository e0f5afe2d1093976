"""Benchmark for essdim: time to a verdict on the paper's claims.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``search``, ``certify`` and ``reproduce``, plus
``smoke`` (two tiny calls, for testing the harness) and ``all`` (the three
benchmark workloads in turn).  Every pass runs the workload's calls in one
fresh child process; the seed permutes their order and is recorded.

With ``--trace 0`` passes repeat until another one would overrun
``--seconds`` (at least one runs), and the end-to-end metrics are reported:
``wall_s`` (first call to last verdict, median over passes), ``setup_s``
(spawn until ``essdim.cli`` is imported and its parser built, median over
every child of the run), ``peak_rss_mb`` (median of the passes' peak resident
memory) and ``pass_frac`` (calls whose answer matches the paper, over calls
attempted).  With ``--trace 1`` one untraced pass and two traced passes run,
and the per-layer metrics of tracer.py are reported, with the tracing
overhead and each call's seconds.

Every answer is checked against expected.py.  A call fails when its answer
is wrong, it exits nonzero, it raises, or its budget runs out; ``correct`` is
false when an answer is wrong, when traced and untraced verdicts differ, when
the repeatable counts of two traced passes differ, or when the run changed
the repository's files.  The last line of stdout is the result as JSON.
"""

import sys

sys.dont_write_bytecode = True  # keep caches out of the benchmark directory

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS, REPEATABLE
from workloads import SMOKE, TMP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"  # pass scratch and bytecode cache; git-ignored
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 8  # set-up-only children per untraced run, after one warm-up
EXIT_VERIFICATION = 3  # essdim's exit code for a failed verification
WATCHED = ("src", "tests", "README.md", "reproduce-report.json", "pyproject.toml")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "frac", "higher"),
)


def per_layer_metrics() -> list:
    calls = [(f"cli.call.{c.id}.s", "s", "lower") for calls in WORKLOADS.values() for c in calls]
    return [*LAYER_METRICS, *calls, ("trace.overhead_s", "s", "lower")]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def spawn(job, timeout: float) -> dict:
    """Run child.py; ``job`` None means set-up only.  Adds ``setup_s``."""
    if timeout <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    # Bytecode, the standard library's too, is cached under WORK whatever the
    # caller's environment says, so set-up time does not include compiling.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, str(HERE / "child.py")] + ([] if job else ["--setup-only"])
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(argv, cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(json.dumps(job) if job else "", timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited {proc.returncode}: {_last_line(err)}")
    data = json.loads(_last_line(out))
    data["setup_s"] = data["ready_at"] - t0
    return data


def judge(call, outcome: dict, tmp: Path) -> None:
    """Add ``answer``, ``failed``, ``wrong`` and ``reason`` to a call outcome."""
    code = outcome["exit"]
    answer, reason, wrong = None, None, False
    if outcome["error"]:
        reason = f"raised {outcome['error']}"
    elif code not in (0, EXIT_VERIFICATION):
        reason = f"exit {code}: {_last_line(outcome['stderr'])}"
    else:
        try:
            answer, reason = call.check(outcome["stdout"], tmp)
        except (ValueError, LookupError, TypeError, OSError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None and code:
            reason = f"exit {code} although the answer matches"
        wrong = reason is not None
        if wrong:
            reason = f"wrong answer: {reason}"
    outcome.update(answer=answer, failed=reason is not None, wrong=wrong, reason=reason)


def run_pass(calls, trace: bool, deadline: float) -> dict:
    """One child running every call; outcomes are judged before the
    per-pass directory (which holds reproduce-all's report) is removed."""
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        job = {"trace": trace, "calls": [
            {"id": c.id, "argv": [a.replace(TMP, str(tmp)) for a in c.argv]} for c in calls]}
        data = spawn(job, deadline - time.monotonic())
        for call, outcome in zip(calls, data["outcomes"]):
            judge(call, outcome, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return data


def tree_state() -> tuple:
    """Hashes of the repository's own files, and ``git status`` when the
    checkout is a git work tree."""
    digests = {}
    for rel in WATCHED:
        path = ROOT / rel
        files = [path] if path.is_file() else sorted(
            f for f in path.rglob("*") if f.is_file() and "__pycache__" not in f.parts
        ) if path.is_dir() else []
        for f in files:
            digests[str(f.relative_to(ROOT))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests, _git("status", "--porcelain")


def _git(*args: str):
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return None
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60)
    return done.stdout.strip()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = list(SMOKE if name == "smoke" else WORKLOADS[name])
    random.Random(seed).shuffle(calls)
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn(None, deadline - time.monotonic())  # warm-up: fills the bytecode cache
    problems = []
    if trace:
        base = run_pass(calls, False, deadline)
        passes = [base, run_pass(calls, True, deadline), run_pass(calls, True, deadline)]
        traced = passes[1:]
        for p in traced:
            for b, t in zip(base["outcomes"], p["outcomes"]):
                if (b["exit"], b["answer"]) != (t["exit"], t["answer"]):
                    problems.append(f"{t['id']}: traced verdict differs from untraced")
        for key in REPEATABLE:
            if traced[0]["spans"][key] != traced[1]["spans"][key]:
                problems.append(f"{key} differs between traced passes: "
                                f"{traced[0]['spans'][key]} vs {traced[1]['spans'][key]}")
        metrics = {}
        for metric, unit, _ in per_layer_metrics():
            if metric == "trace.overhead_s":
                value = _median([p["wall_s"] for p in traced]) - base["wall_s"]
            elif metric.startswith("cli.call."):
                value = _median([o["seconds"] for p in traced for o in p["outcomes"]
                                 if f"cli.call.{o['id']}.s" == metric])
            else:
                value = _median([p["spans"][metric] for p in traced])
            metrics[metric] = {"value": value, "unit": unit}
    else:
        setups = [spawn(None, deadline - time.monotonic())["setup_s"] for _ in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(calls, False, deadline))
            passes[-1]["total_s"] = time.monotonic() - t0
            longest = max(p["total_s"] for p in passes)
            if time.monotonic() - start + longest > seconds:
                break
        setups += [p["setup_s"] for p in passes]
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted, failed = len(outcomes), sum(o["failed"] for o in outcomes)
    if not trace:
        values = {"wall_s": _median([p["wall_s"] for p in passes]),
                  "setup_s": _median(setups),
                  "peak_rss_mb": _median([p["rss_mb"] for p in passes]),
                  "pass_frac": 1 - failed / attempted}
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in END_TO_END}
    return {
        "name": name, "seed": seed, "trace": trace, "order": [c.id for c in calls],
        "passes": passes, "attempted": attempted, "failed": failed,
        "wrong": any(o["wrong"] for o in outcomes), "problems": problems, "metrics": metrics,
    }


def report(result: dict) -> None:
    """Human-readable summary: every metric with its unit, every failed call."""
    r = result
    print(f"== {r['name']}  seed {r['seed']}  trace {int(r['trace'])}  "
          f"passes {len(r['passes'])}  order {' '.join(r['order'])}")
    for metric, m in r["metrics"].items():
        print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_frac {r['failed'] / r['attempted']:.4f} "
          f"({r['failed']} of {r['attempted']} calls failed)")
    for i, p in enumerate(r["passes"], start=1):
        for o in p["outcomes"]:
            if o["failed"]:
                print(f"  FAILED pass {i} {o['id']}: {o['reason']}")
    for problem in r["problems"]:
        print(f"  INCORRECT {problem}")
    per_call = {}
    for p in r["passes"]:
        for o in p["outcomes"]:
            per_call.setdefault(o["id"], []).append(o["seconds"])
    print("  call seconds (median over passes): " + ", ".join(
        f"{cid} {_median(v):.3f}" for cid, v in per_call.items()))


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / "src" / "essdim").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "smoke", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    WORK.mkdir(exist_ok=True)
    before = tree_state()
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    after = tree_state()
    if after != before:
        changed = sorted(k for k in before[0].keys() | after[0].keys()
                         if before[0].get(k) != after[0].get(k))
        if before[1] != after[1]:
            changed.append("git status --porcelain")
        results[-1]["problems"].append(f"the run changed the repository: {changed}")

    for r in results:
        report(r)
    print("record " + json.dumps({
        "seed": args.seed, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": _git("rev-parse", "HEAD"), "src_lines": src_lines(),
        "cpu_s": {r["name"]: [p["cpu_s"] for p in r["passes"]] for r in results},
    }))
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["wrong"] or r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
