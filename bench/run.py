#!/usr/bin/env python3
"""btriangles benchmark: cold-process runs of one workload, checked and summarised.

Usage, from the repository root:

    python3 bench/run.py --workload sweep|scale|sequences|all --seed N \\
        --seconds S --trace 0|1

Each timed run is one fresh interpreter (``child.py``), started one at
a time from this process, that imports the package from ``src/`` and
drives it through ``btriangles.cli.run`` or public library functions.
Runs repeat until the next would end after ``--seconds``; the reported
figures are medians over them.  Set-up time is spawn-to-import, taken
from every run plus a few import-only probes.

With ``--trace 1`` one more run is made with every layer wrapped (see
``tracing.py``) and the per-layer figures come from it; the tracing
overhead is its wall time minus the untraced median.

Every run's outputs are checked against independent routes (see
``workloads.py``).  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed/attempted
is the error rate.  Exit status is 0 when that line is printed.  With
``--workload all`` each workload runs in turn and prints its own line,
prefixed by its name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
DEADLINE_S = 170  # a workload's run must end within 180 s
SETUP_PROBES = 5
PROBE = {"steps": [], "after": []}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = ("verify", "derive-poly", "pathsum", "oeis-check", "sequence")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    Which end-to-end figure each layer should move, on which workload:

    - identities.*: sweep wall_s and peak_rss_mb; no change on the others.
    - exactnum.binomial, gfib.lambda_explicit: sweep wall_s (corollary1);
      gfib.lambda_rec also sequences wall_s.
    - polyderive.*: scale wall_s; about zero on sweep.
    - triangle.TriangleStore.row, paths.*: scale wall_s and peak_rss_mb;
      sequences wall_s guards the shared-store reuse.
    - fibonacci.fib: scale peak_rss_mb; sweep and sequences guard small n.
    - oeis.*, cli.*: attribute sequences wall_s and setup_s.
    """
    units = {"identities.oracle.s": "s", "identities.closed.s": "s", "identities.checks": "count"}
    units.update({f"identities.{name}.s": "s" for name in workloads.IDENTITIES})
    for layer in tracing.COUNTED:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({f"{layer}.s": "s" for layer in tracing.SPANS})
    units.update({f"cli.{command}.s": "s" for command in CLI_COMMANDS})
    units["trace.overhead.s"] = "s"
    return units


def spawn(plan: dict, trace: bool, deadline: float) -> dict | None:
    """Run one child to completion: its result, or None if it failed.

    A child still running at ``deadline`` (a ``time.monotonic`` value)
    is killed and counts as failed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(CHILD), json.dumps(plan), str(int(trace))]
    spawned = time.monotonic()
    child = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = child.communicate(timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"child timed out: {' '.join(argv[2:])}", file=sys.stderr)
        return None
    if child.returncode != 0 or not out:
        print(f"child exited with {child.returncode}:\n{err}", file=sys.stderr)
        return None
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["imported"] - spawned
    result["total_s"] = time.monotonic() - spawned
    return result


def distinct_interpreters(pids: list[int]) -> bool:
    """True when no two timed runs, nor this process, share a PID."""
    return len(set(pids)) == len(pids) and os.getpid() not in pids


def checked(workload: str, result: dict | None, expected: dict) -> list[tuple[str, bool]]:
    if result is None:
        return [("child exited cleanly", False)]
    try:
        return workloads.check(workload, result, expected)
    except (ValueError, IndexError, KeyError) as exc:
        return [(f"output parses: {exc!r}", False)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    plan, expected = workloads.plan(workload, seed, ROOT)
    spawn(PROBE, False, deadline)  # byte-compiles the package in a fresh checkout
    runs, checks = [], []
    start = time.monotonic()
    while True:
        result = spawn(plan, False, deadline)
        checks += checked(workload, result, expected)
        if result is None:
            break
        runs.append(result)
        estimate = statistics.median(r["total_s"] for r in runs)
        if time.monotonic() - start + estimate > seconds:
            break
    timed, traced = list(runs), None
    if trace:
        traced = spawn(plan, True, deadline) if runs else None
        checks += checked(workload, traced, expected)
        timed += [traced] if traced else []
    else:
        probes = [spawn(PROBE, False, deadline) for _ in range(SETUP_PROBES)]
        checks += [("setup probe exited cleanly", p is not None) for p in probes]
        timed += [p for p in probes if p is not None]
    checks.append(("one interpreter per timed run", distinct_interpreters([r["pid"] for r in timed])))
    for label, ok in checks:
        if not ok:
            print(f"check failed: {label}", file=sys.stderr)

    if not runs or (trace and traced is None):
        raise SystemExit(f"{workload}: no run completed; nothing to report")
    wall = statistics.median(r["wall_s"] for r in runs)
    if trace:
        layers = traced["layers"]
        layers["identities.checks"] = layers.get("identities.oracle.calls", 0)
        for step in traced["steps"]:
            if "argv" in step:
                key = f"cli.{step['argv'][0]}.s"
                layers[key] = layers.get(key, 0) + step["seconds"]
        layers["trace.overhead.s"] = traced["wall_s"] - wall
        metrics = {
            name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failed = sum(not ok for _, ok in checks)
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "btriangles" / "__init__.py", ROOT / "tools" / "make_bfile_snapshots.py"):
        if not needed.is_file():
            raise SystemExit(f"{needed} is missing; run from a full checkout of the repository")
    if args.workload == "all":
        for workload in workloads.WORKLOADS:
            summary = measure(workload, args.seed, args.seconds, bool(args.trace))
            print(workload, json.dumps(summary), flush=True)
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
