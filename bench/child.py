"""One timed benchmark run in a fresh interpreter.

Usage: python3 child.py PLAN_JSON TRACE

The package keeps module-level caches that never evict, so a second
run in the same interpreter would time cache hits; every timed run is
therefore its own process.  The child imports btriangles (the parent
times spawn-to-import as set-up), runs the plan's steps inside the
timed region with the CLI's stdout captured, then runs the plan's
``after`` calls untimed and untraced.  The last stdout line is one JSON
object; integers returned by library calls travel as hex, which has no
digit limit.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import btriangles
import btriangles.cli

# CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
# its own spawn timestamp from this one.
IMPORTED = time.monotonic()

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers worker processes.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024


def _run(step: list) -> dict:
    kind, *rest = step
    buffer = io.StringIO()
    start = time.perf_counter()
    if kind == "cli":
        (argv,) = rest
        with contextlib.redirect_stdout(buffer):
            code = btriangles.cli.run(argv)
        out = {"argv": argv, "code": code, "stdout": buffer.getvalue()}
    else:
        name, args = rest
        if name not in btriangles.__all__:
            raise ValueError(f"{name} is not a public btriangles function")
        with contextlib.redirect_stdout(buffer):
            value = getattr(btriangles, name)(*args)
        out = {"call": name, "value": hex(value)}
    out["seconds"] = time.perf_counter() - start
    return out


def main() -> None:
    if not Path(btriangles.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported btriangles from {btriangles.__file__}, not from {SRC}")
    plan, trace = json.loads(sys.argv[1]), sys.argv[2] == "1"
    tracer, scope = None, contextlib.nullcontext()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        scope = tracing.installed(tracer)
    with scope:
        cpu = _cpu_seconds()
        start = time.perf_counter()
        steps = [_run(step) for step in plan["steps"]]
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
        peak = _peak_rss_mb()
    result = {
        "pid": os.getpid(),
        "imported": IMPORTED,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "steps": steps,
        "after": [_run(step) for step in plan["after"]],
        "layers": tracer.metrics() if tracer else {},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
