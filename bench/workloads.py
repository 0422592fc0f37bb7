"""The three benchmark workloads: what a child runs and how its output is checked.

Nothing here imports btriangles.  Expected values come from routes that
share no code with the package: closed forms evaluated with this file's
own Fibonacci routine, binomial sums over ``math.comb``, and the
snapshot generator ``tools/make_bfile_snapshots.py`` (which does not
import the package either).  The seed picks only the spot-check
indices of ``scale``; the timed work is the same for every seed.

A plan is JSON sent to the child: ``steps`` run inside the timed
region, ``after`` runs once the region (and any tracing) has ended.
Each step is ``["cli", argv]`` for ``btriangles.cli.run(argv)`` or
``["call", name, args]`` for a public library function.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

# verify --all --n-max 300 with default flags: the ROADMAP baseline sweep.
SWEEP_N_MAX = 300
IDENTITIES = (
    "S2diff", "S3barClosed", "T2even", "T2odd", "T4closed", "T5closed",
    "TmEven", "TmOdd", "corollary1", "rel8", "relB2diff", "resT2", "resT3",
    "theorem1", "theoremS3", "theoremTm",
)

# One large request per layer: polyderive, the Fibonacci cache, and the
# TriangleStore + paths engine at a size where the store dominates.
DERIVE_ORDER = 50
TM_N = 100_000
PATH_N = 2000
PATHSUMS = (  # family, order, c, l
    ("T", 2, -1, -1),
    ("S", 2, 2, -1),
    ("Sbar", 3, 2, -1),
)
SPOT_CHECKS = 3
SPOT_MAX_N = 600

# Many small path sums sharing oeis' module-level store.
OEIS_CHECK_TERMS = 50
SEQUENCE_TERMS = 1500
SEQUENCE_OFFSETS = {  # b-file index of term 0, as frozen in the bindings
    "A027934": 1,
    "A099568": 0,
    "A005251": 3,
    "A138653": 0,
    "A005314": 1,
}

WORKLOADS = ("sweep", "scale", "sequences")


def fib(n: int) -> int:
    """F_n by fast doubling: F_2k = F_k(2F_(k+1) - F_k), F_2k+1 = F_k^2 + F_(k+1)^2."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def t_path_oracle(m: int, n: int) -> int:
    """Order-m T path sum along (-1, -1) from direct binomial sums, m >= 2.

    T_n = sum_k cell(n - k, k) over k <= n/2, with the order-m cell
    cell(r, k) = sum_j C(r, j) * C(k - j + m - 2, m - 2).
    """
    return sum(
        comb(n - k, j) * comb(k - j + m - 2, m - 2)
        for k in range(n // 2 + 1)
        for j in range(k + 1)
    )


def t_path_closed(m: int, n: int, q: dict[int, Fraction], r: dict[int, Fraction]) -> Fraction:
    """F_(n+2m-1) - 2^p (Q(p) + (-1)^n R(p)), p = floor((n+1)/2)."""
    p = (n + 1) // 2
    sign = -1 if n % 2 else 1
    qp = sum(c * p**k for k, c in q.items())
    rp = sum(c * p**k for k, c in r.items())
    return fib(n + 2 * m - 1) - (1 << p) * (qp + sign * rp)


def parse_poly(text: str) -> dict[int, Fraction]:
    """Coefficients by power from the CLI's printed form, e.g. '1/8 X^2 - X + 10'."""
    if text == "0":
        return {}
    coeffs: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        *coeff, var = term.lstrip("-").split(" ")
        if var.startswith("X"):
            power = int(var[2:]) if var.startswith("X^") else 1
            value = Fraction(coeff[0]) if coeff else Fraction(1)
        else:
            power, value = 0, Fraction(var)
        coeffs[power] = sign * value
    return coeffs


def _snapshot_terms(root: Path, count: int) -> dict[str, list[int]]:
    """build_all(count) from tools/, cached under .bench_build by file hash.

    The generator takes about half a minute at this size, so it runs
    once per checkout and never inside a timed child.
    """
    source = root / "tools" / "make_bfile_snapshots.py"
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    cache = root / ".bench_build" / f"snapshots-{count}-{digest}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    spec = importlib.util.spec_from_file_location("make_bfile_snapshots", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    values = {oeis_id: vals for oeis_id, (vals, _) in module.build_all(count).items()}
    cache.parent.mkdir(exist_ok=True)
    partial = cache.with_suffix(".part")
    partial.write_text(json.dumps(values))
    os.replace(partial, cache)
    return values


def plan(name: str, seed: int, root: Path) -> tuple[dict, dict]:
    """(plan for the child, expected values for :func:`check`)."""
    if name == "sweep":
        steps = [["cli", ["verify", "--all", "--n-max", str(SWEEP_N_MAX)]]]
        return {"steps": steps, "after": []}, {"identities": list(IDENTITIES)}
    if name == "scale":
        spots = sorted(random.Random(seed).sample(range(1, SPOT_MAX_N + 1), SPOT_CHECKS))
        steps = [["cli", ["derive-poly", "--order", str(DERIVE_ORDER)]]]
        steps.append(["call", "tm_closed", [2, TM_N]])
        for family, order, c, l in PATHSUMS:
            steps.append(["cli", [
                "pathsum", "--order", str(order), "--family", family,
                "--c", str(c), "--l", str(l), "--n", str(PATH_N),
            ]])
        after = [["call", "tm_closed", [DERIVE_ORDER, n]] for n in spots]
        expected = {
            "spots": {n: t_path_oracle(DERIVE_ORDER, n) for n in spots},
            # resT2 at TM_N, then resT2, theorem1 and S3barClosed at PATH_N.
            "tm": fib(TM_N + 3) - (1 << (TM_N + 1) // 2),
            "pathsums": [
                fib(PATH_N + 3) - (1 << (PATH_N + 1) // 2),
                (1 << PATH_N + 1) - fib(PATH_N + 2),
                3 * (1 << PATH_N) - fib(PATH_N + 3),
            ],
        }
        return {"steps": steps, "after": after}, expected
    if name == "sequences":
        snapshots = _snapshot_terms(root, SEQUENCE_TERMS + max(SEQUENCE_OFFSETS.values()))
        steps = [["cli", ["oeis-check", "--all", "--terms", str(OEIS_CHECK_TERMS)]]]
        steps += [
            ["cli", ["sequence", "--id", oeis_id, "--terms", str(SEQUENCE_TERMS)]]
            for oeis_id in SEQUENCE_OFFSETS
        ]
        expected = {
            "bindings": sorted(snapshots),
            "terms": {
                oeis_id: snapshots[oeis_id][off : off + SEQUENCE_TERMS]
                for oeis_id, off in SEQUENCE_OFFSETS.items()
            },
        }
        return {"steps": steps, "after": []}, expected
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _ok_names(stdout: str, pattern: str) -> set[str]:
    return {m[1] for m in re.finditer(pattern, stdout, re.MULTILINE)}


def check(name: str, result: dict, expected: dict) -> list[tuple[str, bool]]:
    """One (label, passed) pair per checked output of one child run."""
    steps = result["steps"]
    checks = [(f"{s['argv'][0]} exit code", s["code"] == 0) for s in steps if "argv" in s]
    if name == "sweep":
        ok = _ok_names(steps[0]["stdout"], rf"^(\S+) n=\[\d+\.\.{SWEEP_N_MAX}\] OK$")
        checks += [(f"verify {ident}", ident in ok) for ident in expected["identities"]]
    elif name == "scale":
        q_line, r_line = steps[0]["stdout"].splitlines()
        q, r = parse_poly(q_line.removeprefix("Q = ")), parse_poly(r_line.removeprefix("R = "))
        for (n, want), got in zip(expected["spots"].items(), result["after"]):
            checks.append((f"printed Q, R at n={n}", t_path_closed(DERIVE_ORDER, n, q, r) == want))
            checks.append((f"tm_closed({DERIVE_ORDER}, {n})", int(got["value"], 16) == want))
        checks.append((f"tm_closed(2, {TM_N})", int(steps[1]["value"], 16) == expected["tm"]))
        for step, want in zip(steps[2:], expected["pathsums"]):
            checks.append((" ".join(step["argv"]), step["stdout"].strip() == str(want)))
    elif name == "sequences":
        ok = _ok_names(steps[0]["stdout"], r"^(A\d{6}) n=\[\d+\.\.\d+\] OK$")
        checks += [(f"oeis-check {oeis_id}", oeis_id in ok) for oeis_id in expected["bindings"]]
        for step, (oeis_id, want) in zip(steps[1:], expected["terms"].items()):
            got = [int(v) for v in step["stdout"].split()]
            checks.append((f"sequence {oeis_id}", got == want))
    return checks
