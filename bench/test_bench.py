"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q bench``.  They
check the harness, not the package: names against BENCHMARK.json, the
one-interpreter-per-run rule, that the output gate can fail, the
independent oracles, and the tracer's bookkeeping.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

Q4, R4 = "1/8 X^2 + 17/8 X + 10", "1/4 X + 2"  # derive-poly --order 4


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_timed_runs_use_distinct_interpreters():
    results = [run.spawn(run.PROBE, False, time.monotonic() + 60) for _ in range(2)]
    pids = [r["pid"] for r in results]
    assert run.distinct_interpreters(pids)
    assert not run.distinct_interpreters([pids[0], pids[0]])
    assert not run.distinct_interpreters([pids[0], os.getpid()])
    assert all(0 < r["setup_s"] < 10 for r in results)


def _sweep_output(identities):
    lines = [f"{name} n=[0..{workloads.SWEEP_N_MAX}] OK" for name in identities]
    step = {"argv": ["verify"], "code": 0, "stdout": "\n".join(lines) + "\n"}
    return {"steps": [step], "after": []}


def test_sweep_gate_counts_a_corrupted_expected_value():
    _, expected = workloads.plan("sweep", 1, ROOT)
    result = _sweep_output(expected["identities"])
    assert all(ok for _, ok in workloads.check("sweep", result, expected))
    expected["identities"][3] = "corollary2"
    assert sum(not ok for _, ok in workloads.check("sweep", result, expected)) == 1


def test_scale_gate_counts_a_corrupted_expected_value(monkeypatch):
    monkeypatch.setattr(workloads, "DERIVE_ORDER", 4)
    _, expected = workloads.plan("scale", 7, ROOT)
    steps = [
        {"argv": ["derive-poly"], "code": 0, "stdout": f"Q = {Q4}\nR = {R4}\n"},
        {"call": "tm_closed", "value": hex(expected["tm"])},
    ]
    steps += [{"argv": ["pathsum"], "code": 0, "stdout": f"{v}\n"} for v in expected["pathsums"]]
    after = [{"call": "tm_closed", "value": hex(v)} for v in expected["spots"].values()]
    result = {"steps": steps, "after": after}
    assert all(ok for _, ok in workloads.check("scale", result, expected))
    expected["pathsums"][1] += 1
    assert sum(not ok for _, ok in workloads.check("scale", result, expected)) == 1
    first = next(iter(expected["spots"]))
    expected["spots"][first] -= 1  # both the printed polynomials and tm_closed now disagree
    assert sum(not ok for _, ok in workloads.check("scale", result, expected)) == 3


def test_sequences_run_is_correct_and_a_corrupted_expected_value_fails_it(monkeypatch):
    summary = run.measure("sequences", 1, 0, False)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 20
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())

    honest = workloads.plan

    def corrupted(name, seed, root):
        plan, expected = honest(name, seed, root)
        expected["terms"]["A005251"][1000] += 1
        return plan, expected

    monkeypatch.setattr(workloads, "plan", corrupted)
    summary = run.measure("sequences", 1, 0, False)
    assert not summary["correct"] and summary["failed"] == 1


def test_oracles_agree_with_closed_forms():
    fibs = [0, 1]
    while len(fibs) < 60:
        fibs.append(fibs[-1] + fibs[-2])
    assert [workloads.fib(n) for n in range(60)] == fibs
    q, r = workloads.parse_poly(Q4), workloads.parse_poly(R4)
    for n in range(40):
        assert workloads.t_path_oracle(2, n) == fibs[n + 3] - (1 << (n + 1) // 2)
        assert workloads.t_path_closed(4, n, q, r) == workloads.t_path_oracle(4, n)
    assert workloads.parse_poly("-1/3 X^5 - X + 7") == {5: -workloads.Fraction(1, 3), 1: -1, 0: 7}
    assert workloads.parse_poly("0") == {}


def test_tracer_self_time_excludes_wrapped_callees():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer(depth):
        time.sleep(0.01)
        inner()
        if depth:
            outer(depth - 1)

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    start = time.perf_counter()
    outer(2)
    elapsed = time.perf_counter() - start
    stats = tracer.metrics()
    assert stats["outer.calls"] == 3 and stats["inner.calls"] == 3
    assert stats["outer.self_s"] == pytest.approx(0.03, abs=0.015)
    assert stats["inner.self_s"] == pytest.approx(0.06, abs=0.015)
    assert stats["outer.self_s"] + stats["inner.self_s"] == pytest.approx(elapsed, abs=0.005)


def test_tracing_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import btriangles
        from btriangles import cli, identities, polyderive
    finally:
        sys.path.remove(str(ROOT / "src"))
    originals = (polyderive.fib, identities.fib, cli.derive_QR, cli._FAMILY_SUM["T"],
                 btriangles.TriangleStore.row, identities.REGISTRY["theorem1"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wrapped = (polyderive.fib, identities.fib, cli.derive_QR, cli._FAMILY_SUM["T"],
                   btriangles.TriangleStore.row, identities.REGISTRY["theorem1"])
        assert all(a is not b for a, b in zip(originals, wrapped))
        assert cli.run(["pathsum", "--order", "2", "--family", "T", "--c", "-1", "--l", "-1", "--n", "8"]) == 0
        assert cli.run(["verify", "--identity", "theorem1", "--n-max", "10"]) == 0
    stats = tracer.metrics()
    assert stats["paths.sum_T.calls"] == 1 and stats["triangle.TriangleStore.row.calls"] > 0
    assert stats["identities.oracle.calls"] == stats["identities.closed.calls"] == 11
    assert stats["identities.theorem1.s"] > 0
    restored = (polyderive.fib, identities.fib, cli.derive_QR, cli._FAMILY_SUM["T"],
                btriangles.TriangleStore.row, identities.REGISTRY["theorem1"])
    assert all(a is b for a, b in zip(originals, restored))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout
