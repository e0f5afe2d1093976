"""One benchmark pass in a fresh interpreter.

Run by run.py, never by hand.  The child imports ``essdim.cli`` from the
checkout's ``src`` and builds its parser; that moment, on the system-wide
monotonic clock, ends the set-up time.  With ``--setup-only`` it stops there.
Otherwise it reads a job ``{"calls": [{"id", "argv"}], "trace": bool}`` from
stdin, runs each call through ``essdim.cli.main(argv)`` with its output
captured, and prints one JSON line with the outcomes, the pass wall time, its
own peak resident memory and CPU time, and the span values when traced.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    import essdim
    import essdim.cli as cli
    cli.build_parser()
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if Path(essdim.__file__).resolve().parent != src / "essdim":
        print(f"essdim imported from {essdim.__file__}, not from {src}", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outcomes = []
    start = time.perf_counter()
    try:
        for call in job["calls"]:
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(call["argv"])
                except SystemExit as exc:
                    code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a traceback fails this call; the pass goes on
                    error = f"{type(exc).__name__}: {exc}"
            outcomes.append({"id": call["id"], "exit": code, "error": error,
                             "seconds": time.perf_counter() - t0,
                             "stdout": out.getvalue(), "stderr": err.getvalue()})
        wall_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "ready_at": ready_at,
        "wall_s": wall_s,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "outcomes": outcomes,
        "spans": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
