import ast
import dataclasses
import functools
import inspect
import os
import re
import sys
import threading
import time
import tracemalloc
from itertools import count, islice
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

import btriangles
from btriangles import bruteforce, identities
from btriangles.bruteforce import cell_bruteforce
from btriangles.exactnum import binomial
from btriangles.fibonacci import telescope
from btriangles.gfib import lambda_explicit
from btriangles.identities import (
    REGISTRY,
    Cursor,
    IdentityRecord,
    VerifyReport,
    sbar31,
    sbar31diff3,
    sbar41,
    verify,
    verify_all,
)
from btriangles.oeis import BINDINGS, load_snapshot
from btriangles.paths import path_sums
from btriangles.triangle import rows

EXPECTED_NAMES = {
    "theorem1",
    "S2diff",
    "relB2diff",
    "corollary1",
    "T2even",
    "T2odd",
    "resT2",
    "rel8",
    "S3barClosed",
    "theoremS3",
    "TmOdd",
    "TmEven",
    "resT3",
    "T4closed",
    "T5closed",
    "theoremTm",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_NAMES
    for name, rec in REGISTRY.items():
        assert rec.name == name
        assert rec.valid_from in (0, 1)
        assert rec.description


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_every_identity_verifies(name):
    report = verify(name, 50)
    assert report.ok, report.summary()
    assert report.name == name
    assert report.stop == 50
    assert report.elapsed >= 0


def test_closed_sides_never_reach_the_oracle(monkeypatch):
    def oracle(*args):
        raise AssertionError("closed side called oracle code")

    # Every function the oracle module defines, found rather than listed.
    for name, fn in inspect.getmembers(bruteforce, inspect.isfunction):
        if fn.__module__ == bruteforce.__name__:
            monkeypatch.setattr(bruteforce, name, oracle)
    reached = []
    for name, rec in REGISTRY.items():
        try:
            for n in range(rec.valid_from, 21):
                rec.closed_form(n)
        except AssertionError:
            reached.append(name)
    assert reached == []
    # The patched names are the oracle route: a fresh oracle stream hits them.
    for rec in REGISTRY.values():
        with pytest.raises(AssertionError):
            next(rec.oracle.start())


_CACHES = {"cache", "lru_cache", "cached_property"}


def _package_imports():
    # (importing module, imported module, names) for every import in the package.
    root = Path(btriangles.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.stem, alias.name, ()
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    module = ".".join(filter(None, ("btriangles", module)))
                yield path.stem, module, tuple(a.name for a in node.names)


def test_oracle_module_imports_only_the_standard_library():
    imports = [(m, names) for src, m, names in _package_imports() if src == "bruteforce"]
    assert imports
    for module, names in imports:
        assert module.partition(".")[0] in sys.stdlib_module_names, module
        if module == "functools":
            assert not _CACHES & set(names), names
    tree = ast.parse(inspect.getsource(bruteforce))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not _CACHES & used


def test_only_the_registry_and_package_root_import_the_oracle():
    importers = {}
    for src, module, names in _package_imports():
        if module == "btriangles.bruteforce" or (
            module == "btriangles" and "bruteforce" in names
        ):
            importers.setdefault(src, set()).add((module, names))
    assert set(importers) == {"identities", "__init__"}
    # The registry binds the module, never its names, so patching the module
    # patches every oracle route.
    assert importers["identities"] == {("btriangles", ("bruteforce",))}


def _t_walk(m, n):
    return sum(cell_bruteforce(m, n - k, k) for k in range(n // 2 + 1))


def _s_walk(m, c, l, n):
    return sum(cell_bruteforce(m, n + k * l, n - k * c) for k in range(n // c + 1))


@st.composite
def _stream_cases(draw):
    # Several paths through one stream, as the registry's tuple records read
    # them; an S stream yields the S-bar sums of the same paths and the row.
    kind = draw(st.sampled_from(("T", "S2", "S3")))
    if kind == "T":
        orders = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True))
        paths = [(m, -1, -1) for m in orders]
    elif kind == "S2":
        drops = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4, unique=True))
        paths = [(2, c, 1 - c) for c in drops]
    else:
        paths = [(3, 2, -1)]
    N = draw(st.integers(0, 120))
    return kind[0], paths, N, draw(st.integers(0, N))


def _stream(family, paths):
    # T_n of each order, or the S or the S-bar sums of the S stream.
    if family == "T":
        return bruteforce.t_sums([m for m, _, _ in paths])
    steps = [(c, l) for _, c, l in paths]
    part = slice(0, len(steps)) if family == "S" else slice(len(steps), 2 * len(steps))
    return (sums[part] for sums, _ in bruteforce.s_sums(paths[0][0], steps))


def _walk(m, c, l, family, n):
    if family == "T":
        return _t_walk(m, n)
    walk = _s_walk(m, c, l, n)
    return 2 * cell_bruteforce(m, n, n) - walk if family == "Sbar" else walk


@given(_stream_cases())
@example(("S", [(3, 2, -1)], 60, 41))
@example(("S", [(2, c, 1 - c) for c in range(2, 9)], 60, 41))
def test_oracle_streams_match_path_sums_and_walks(case):
    kind, paths, N, n = case
    columns = []
    for family in ("T",) if kind == "T" else ("S", "Sbar"):
        values = list(islice(_stream(family, paths), N + 1))
        for i, (m, c, l) in enumerate(paths):
            column = [value[i] for value in values]
            assert column == path_sums(m, c, l, family, N), (m, c, l, family)
            assert column[n] == _walk(m, c, l, family, n), (m, c, l, family, n)
            columns.append(column)
    if kind == "S":
        # The difference half, u_n - 2 u_(n-1) with u_(-1) = 0, for every
        # S sum and then every S-bar sum.  Row n follows, reversed, and its
        # differences stop with row n - 1: cell(n, q) - 2 cell(n-1, q-1)
        # for q = n down to 1.  The rows come from the Pascal-rule route.
        m, width = paths[0][0], 2 * len(paths)
        stream = bruteforce.s_sums(m, [(c, l) for _, c, l in paths])
        upper = ()
        for k, ((value, diffs), row) in enumerate(zip(islice(stream, N + 1), rows(m))):
            expected = tuple(u[k] - 2 * u[k - 1] if k else u[0] for u in columns)
            assert diffs[:width] == expected, k
            assert value[width:] == row[::-1], k
            expected = tuple(row[q] - 2 * upper[q - 1] for q in range(k, 0, -1))
            assert diffs[width:] == expected, k
            upper = row


def _row_by_row_t_sums(orders):
    # The route the anti-diagonal stream replaced: whole rows 0, 1, 2, ...,
    # each cell (r, k) added to the pending sum of index r + k.
    pending = [[] for _ in orders]
    for r in count():
        out = []
        for sums, m in zip(pending, orders):
            sums.extend([0] * (r + 1 - len(sums)))
            for k, cell in enumerate(bruteforce._row(m, r)):
                sums[k] += cell
            out.append(sums.pop(0))
        yield tuple(out)


@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True),
    st.integers(0, 150),
)
def test_t_stream_by_anti_diagonals_matches_row_by_row(orders, N):
    assert list(islice(bruteforce.t_sums(orders), N + 1)) == list(
        islice(_row_by_row_t_sums(orders), N + 1)
    )


# The per-n closed sides that the streamed and Pascal-rule ones replaced.
_PER_N_CLOSED = {
    "corollary1": lambda n: tuple(
        telescope(1, [lambda_explicit(c, k) for k in range(1, n + 1)], n)
        for c in range(2, 9)
    ),
    "relB2diff": lambda n: tuple(binomial(n - 1, q) for q in range(1, n + 1)),
}


@given(st.sampled_from(sorted(_PER_N_CLOSED)), st.data())
def test_closed_sides_in_any_order_match_the_per_n_routes(name, data):
    rec = REGISTRY[name]
    calls = data.draw(st.lists(st.integers(rec.valid_from, 60), max_size=20))
    for n in calls:
        expected = _PER_N_CLOSED[name](n)
        assert rec.closed_form(n) == expected, n
        assert rec.closed_form(n) == expected, n


def _shared_passes():
    # Record names grouped by the cursor their oracles read.
    records = [REGISTRY[name] for name in sorted(REGISTRY)]
    return [[rec.name for rec in group] for group in identities._shared_passes(records)]


def test_records_group_into_the_four_shared_passes():
    def timed(oracle):
        return functools.wraps(oracle)(lambda n: oracle(n))

    wrapped = [
        dataclasses.replace(rec, oracle=timed(rec.oracle))
        for rec in (REGISTRY[name] for name in sorted(REGISTRY))
    ]
    assert identities._shared_passes(wrapped) == [
        [rec for rec in wrapped if rec.name in names] for names in _shared_passes()
    ]
    assert _shared_passes() == [
        ["S2diff", "corollary1", "relB2diff", "theorem1"],
        ["S3barClosed", "rel8", "theoremS3"],
        ["T2even", "T2odd", "TmEven", "TmOdd"],
        ["T4closed", "T5closed", "resT2", "resT3", "theoremTm"],
    ]


@given(st.sampled_from(_shared_passes()), st.data())
def test_oracle_calls_in_any_order_match_a_fresh_sweep(names, data):
    # Calls interleave the records of one shared pass at any n.
    expected = {}
    for name in names:
        rec = REGISTRY[name]
        fresh = Cursor(rec.oracle.start)
        expected[name] = {n: fresh(n) for n in range(rec.valid_from, 41)}
    calls = data.draw(
        st.lists(
            st.sampled_from(names).flatmap(
                lambda name: st.tuples(
                    st.just(name), st.integers(REGISTRY[name].valid_from, 40)
                )
            ),
            max_size=30,
        )
    )
    for name, n in calls:
        assert REGISTRY[name].oracle(n) == expected[name][n], (name, n)
        assert REGISTRY[name].oracle(n) == expected[name][n], (name, n)


def test_verify_all_starts_each_shared_pass_once(monkeypatch, tmp_path):
    # Every pass is past the sweep's first n in this process, and so in any
    # worker forked from it.
    for rec in REGISTRY.values():
        rec.oracle(30)
    # One line per start, appended from whichever process starts the pass.
    starts = tmp_path / "starts"
    for name in bruteforce.__all__:
        route = getattr(bruteforce, name)

        def counted(*args, name=name, route=route):
            with starts.open("a") as log:
                log.write(name + "\n")
            return route(*args)

        monkeypatch.setattr(bruteforce, name, counted)
    # Every pass restarts once, at its first n, however many records view it.
    assert all(report.ok for report in verify_all(30))
    assert sorted(starts.read_text().split()) == ["s_sums"] * 2 + ["t_sums"] * 2


def test_a_one_cpu_sweep_starts_the_largest_pass_first(monkeypatch):
    # The T pairs read to index 2 n_max + 1 and take longest; the order-3 S
    # pass takes least.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    starts = []
    for name in bruteforce.__all__:
        route = getattr(bruteforce, name)

        def logged(first, *args, name=name, route=route):
            starts.append((name, first))
            return route(first, *args)

        monkeypatch.setattr(bruteforce, name, logged)
    assert all(report.ok for report in verify_all(10))
    assert starts == [
        ("t_sums", range(2, 7)),
        ("s_sums", 2),
        ("t_sums", range(1, 11)),
        ("s_sums", 3),
    ]


@pytest.mark.parametrize(
    "sweep",
    [lambda: verify_all(300), lambda: [verify("corollary1", 300)]],
    ids=["verify_all", "corollary1"],
)
def test_a_sweep_leaves_no_stream_behind(sweep, monkeypatch):
    # The cursors that a sweep's records read, shared oracle passes and
    # streamed closed sides alike, drop their streams when it returns.  One
    # CPU, so every pass is swept in this process.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    tracemalloc.start()
    try:
        reports = sweep()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(report.ok for report in reports)
    assert held < 2**19


def _fields(reports):
    return [(r.name, r.start, r.stop, r.failures) for r in reports]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # Two usable CPUs; the list grows by one at each os.fork call.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _claim_by_process(monkeypatch, worker, caller):
    # Patch the per-process claim loop: ``caller`` runs in this process and
    # ``worker`` in a forked worker, each given the original loop.
    claim, pid = identities._claim, os.getpid()
    monkeypatch.setattr(
        identities,
        "_claim",
        lambda *args: (caller if os.getpid() == pid else worker)(claim, *args),
    )


def test_verify_all_forks_one_worker_per_spare_cpu(two_cpus, monkeypatch):
    # 2 usable CPUs and 4 passes: the caller and one worker.
    forked = _fields(verify_all(30))
    assert len(two_cpus) == 1
    _assert_no_child_left()
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    alone = _fields(verify_all(30))
    assert len(two_cpus) == 1
    assert alone == forked
    assert [name for name, *_ in forked] == sorted(EXPECTED_NAMES)


def test_verify_all_forks_nothing_beside_a_live_thread(two_cpus):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        beside = _fields(verify_all(30))
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert two_cpus == []
    assert beside == _fields(verify(name, 30) for name in sorted(REGISTRY))


def test_a_worker_exception_is_raised_in_the_caller(two_cpus, monkeypatch):
    def closed(n):
        raise ArithmeticError(f"no closed side at n = {n}")

    monkeypatch.setitem(
        REGISTRY, "broken", IdentityRecord("broken", closed, lambda n: n, 2, "")
    )
    # The caller claims nothing, so the worker sweeps every pass.
    _claim_by_process(monkeypatch, lambda claim, *args: claim(*args), lambda *_: {})
    with pytest.raises(ArithmeticError, match="^no closed side at n = 2$"):
        verify_all(30)
    assert len(two_cpus) == 1
    _assert_no_child_left()


def test_a_worker_that_dies_without_a_result_is_an_error(two_cpus, monkeypatch):
    _claim_by_process(
        monkeypatch, lambda claim, *args: os._exit(3), lambda claim, *args: claim(*args)
    )
    with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
        verify_all(30)
    assert len(two_cpus) == 1
    _assert_no_child_left()


def test_a_caller_exception_stops_the_running_workers(two_cpus, monkeypatch):
    def interrupted(claim, *args):
        raise KeyboardInterrupt

    def slow(claim, *args):
        time.sleep(30)
        return claim(*args)

    _claim_by_process(monkeypatch, slow, interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify_all(30)
    assert time.monotonic() - started < 10
    assert len(two_cpus) == 1
    _assert_no_child_left()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60))
def test_lockstep_sweep_matches_per_name_verify(n_max):
    bogus = IdentityRecord(
        "bogus", lambda n: n * n, lambda n: n * n + (n % 7 == 3), 0, "negative control"
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(REGISTRY, "bogus", bogus)
        together = verify_all(n_max)
        apart = [verify(name, n_max) for name in sorted(REGISTRY)]
    fields = [
        [(r.name, r.start, r.stop, r.failures) for r in reports]
        for reports in (together, apart)
    ]
    assert fields[0] == fields[1]
    assert [r.name for r in together] == sorted(EXPECTED_NAMES | {"bogus"})
    failed = {r.name: r.failures[:1] for r in together if r.failures}
    assert failed == ({"bogus": ((3, 9, 10),)} if n_max >= 3 else {})


@pytest.mark.parametrize("step", [(1, -2), (3, 1), (2, -2)])
def test_s_stream_rejects_a_step_outside_its_domain(step):
    # The S oracle covers l <= -1 and c + l >= 1 only.
    with pytest.raises(ValueError, match=re.escape(f"S step {step}")):
        next(bruteforce.s_sums(2, [(2, -1), step]))


@pytest.mark.parametrize(
    "stream, args, m",
    [
        ("s_sums", (0, [(2, -1)]), 0),
        ("s_sums", (-1, [(2, -1)]), -1),
        ("t_sums", ([0],), 0),
        ("t_sums", ([-1],), -1),
        ("t_sums", ([0, 3],), 0),
    ],
)
def test_oracle_streams_reject_an_order_below_one(stream, args, m):
    # Same message as cell_bruteforce, on the first next() as for a bad step.
    message = f"triangle order must be >= 1, got {m}"
    with pytest.raises(ValueError, match=re.escape(message)):
        next(getattr(bruteforce, stream)(*args))


def test_oracle_rejects_negative_index():
    with pytest.raises(ValueError):
        REGISTRY["theorem1"].oracle(-1)


def test_oracle_sweep_memory_is_flat():
    # The cached per-cell oracle kept every row of orders 1..6 up to n = 400.
    tracemalloc.start()
    try:
        report = verify("TmEven", 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 3 * 2**20


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        verify("thm99", 10)


def test_n_max_below_valid_from_raises():
    with pytest.raises(ValueError, match="^S2diff needs n_max >= 1, got 0$"):
        verify("S2diff", 0)
    # The lockstep sweep checks every record before any work, in name order.
    with pytest.raises(ValueError, match="^S2diff needs n_max >= 1, got 0$"):
        verify_all(0)


def test_report_summary_formats():
    ok = VerifyReport("theorem1", 0, 50, (), 0.1)
    assert ok.summary() == "theorem1 n=[0..50] OK"
    bad = VerifyReport("theorem1", 0, 50, ((7, 10, 11),), 0.1)
    assert not bad.ok
    assert bad.summary() == "theorem1 FAIL at n=7: closed=10 oracle=11"


def test_failing_record_is_reported(monkeypatch):
    rec = IdentityRecord(
        "bogus", lambda n: n * n, lambda n: n * n + (n == 3), 0, "negative control"
    )
    monkeypatch.setitem(REGISTRY, "bogus", rec)
    report = verify("bogus", 10)
    assert report.failures == ((3, 9, 10),)
    assert "FAIL at n=3" in report.summary()


def test_sequence_generators_without_closed_forms():
    assert [sbar31(n) for n in range(13)] == [
        1, 2, 4, 7, 12, 21, 37, 65, 114, 200, 351, 616, 1081,
    ]
    assert [sbar41(n) for n in range(13)] == [
        1, 2, 4, 8, 15, 27, 48, 86, 156, 285, 521, 950, 1728,
    ]
    assert [sbar31diff3(n) for n in range(1, 13)] == [
        1, 2, 3, 5, 9, 16, 28, 49, 86, 151, 265, 465,
    ]


@pytest.mark.parametrize(
    "oeis_id, term, first",
    [("A005251", sbar31, 0), ("A138653", sbar41, 0), ("A005314", sbar31diff3, 1)],
)
def test_sequence_generators_match_the_bundled_b_files(oeis_id, term, first):
    # The binding's term j, the generator's term first + j, is b-file index
    # offset + j; every index the snapshot covers from the offset is checked.
    offset = BINDINGS[oeis_id].offset
    entries = [(i, v) for i, v in load_snapshot(oeis_id).entries if i >= offset]
    assert len(entries) >= 97
    for i, value in entries:
        assert term(first + i - offset) == value, i


def test_diff_generator_rejects_zero():
    with pytest.raises(ValueError):
        sbar31diff3(0)
