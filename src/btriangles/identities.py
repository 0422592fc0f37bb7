"""Registry pairing each closed-form identity with a brute-force oracle.

Every record names one verifiable statement about the triangles: a
closed form built from Fibonacci numbers, powers of two, binomial
coefficients and the derived and printed polynomials on one side, and
an oracle that recomputes the same quantity by direct binomial summation
over the triangle on the other.  Every oracle is a forward stream of
:mod:`btriangles.bruteforce`, reached only through that module, and
closed sides never call it, so agreement over a sweep is genuine
evidence.

Both sides are per-n.  The closed sides that stream (``corollary1``'s
recurrence over n and ``relB2diff``'s Pascal-rule
:func:`~btriangles.triangle.rows`) are each read through a
:class:`~btriangles.triangle.Cursor`.  Oracles that read the same
brute-force pass share one cursor, one per triangle family, order and
index rate, and each reads its part through a
:class:`~btriangles.triangle.View`: T_n of orders 1..10 (``theoremTm``,
``resT2``, ``resT3``, ``T4closed``, ``T5closed``); T at (2p, 2p + 1) of
orders 2..6 (``TmEven``, ``TmOdd``, ``T2even``, ``T2odd``); and the S
passes, which yield S, S-bar and the row with their differences from
twice the previous values: order 2 along (c, 1 - c), c = 2..8
(``corollary1``, ``theorem1``, ``S2diff``, and ``relB2diff`` from the
row differences), and order 3 along (2, -1) (``theoremS3``,
``S3barClosed``, ``rel8``).  Nothing is cached: each cursor holds only
its current value.

:func:`verify` sweeps one record over an index range and reports every
mismatch.  :func:`verify_all` sweeps every shared pass whole in one
process, in one pass over n with the pass's records in name order inside
it, so they read it at the same n and it is built once; the four passes
are spread over the usable CPUs by forked workers.  Each report's elapsed
time is that record's own calls, except that at each n the advance of a
shared pass is charged to the first record in name order that reads it
(``S2diff`` for the order-2 S pass).  Multi-parameter families (a range of
orders m or drops c) are single records whose sides return tuples,
compared elementwise.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from inspect import unwrap
from itertools import chain
from operator import itemgetter
from typing import BinaryIO, NoReturn

from . import bruteforce
from .exactnum import pow2
from .fibonacci import fib
from .gfib import _lambda_stream
from .paths import path_sums, sum_Sbar
from .polyderive import QRPair, RatPolynomial, qr_closed, tm_closed
from .triangle import Cursor, View, rows

__all__ = [
    "IdentityRecord",
    "VerifyReport",
    "REGISTRY",
    "verify",
    "verify_all",
    "sbar31",
    "sbar41",
    "sbar31diff3",
]

Side = Callable[[int], "int | tuple[int, ...]"]


@dataclass(frozen=True)
class IdentityRecord:
    """One identity: closed form vs oracle, valid for n >= valid_from."""

    name: str
    closed_form: Side
    oracle: Side
    valid_from: int
    description: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of sweeping one identity over [start, stop]."""

    name: str
    start: int
    stop: int
    failures: tuple[tuple[int, object, object], ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"{self.name} n=[{self.start}..{self.stop}] OK"
        n, closed, oracle = self.failures[0]
        return f"{self.name} FAIL at n={n}: closed={closed} oracle={oracle}"


# The paper's printed (Q, R) pairs for orders 2..5, coefficients of p^0 up.
_PRINTED_QR = {
    m: QRPair(m, RatPolynomial(q), RatPolynomial(r))
    for m, (q, r) in {
        2: ((1,), ()),
        3: ((Fraction(7, 2), Fraction(1, 2)), (Fraction(1, 2),)),
        4: ((10, Fraction(17, 8), Fraction(1, 8)), (2, Fraction(1, 4))),
        5: (
            (27, Fraction(317, 48), Fraction(5, 8), Fraction(1, 48)),
            (6, Fraction(19, 16), Fraction(1, 16)),
        ),
    }.items()
}


_DROPS = range(2, 9)
_T_ORDERS = range(2, 7)
_TM_ORDERS = range(1, 11)


def _corollary1_closed() -> Iterator[tuple[int, ...]]:
    # S2_n(c, 1 - c) rebuilt from its defining difference lambda_n(c):
    # u_0 = 1 and u_n = 2 u_(n-1) + lambda_n(c), lambda streamed per drop c.
    sums = (1,) * len(_DROPS)
    lambdas = zip(*map(_lambda_stream, _DROPS))
    next(lambdas)  # lambda_0(c), before u_0
    for at_n in lambdas:
        yield sums
        sums = tuple(2 * u + lam for u, lam in zip(sums, at_n))


def _even_odd(stream: Iterator) -> Iterator[tuple]:
    # (u_2p, u_2p+1) for p = 0, 1, 2, ...
    return zip(stream, stream)


# The shared oracle passes.  Values: T_n of orders 1..10; the pair
# (T_2p, T_2p+1) of orders 2..6; and (S, S-bar, the row reversed; their
# differences from twice the previous ones) over the order-2 paths along
# (c, 1 - c) and the order-3 path along (2, -1).  Nothing reads the order-3
# row differences.
_T_PASS = Cursor(lambda: bruteforce.t_sums(_TM_ORDERS))
_T_EVEN_ODD = Cursor(lambda: _even_odd(bruteforce.t_sums(_T_ORDERS)))
_S2_PASS = Cursor(lambda: bruteforce.s_sums(2, [(c, 1 - c) for c in _DROPS]))
_S3_PASS = Cursor(lambda: bruteforce.s_sums(3, [(2, -1)]))


REGISTRY: dict[str, IdentityRecord] = {
    rec.name: rec
    for rec in [
        IdentityRecord(
            "theorem1",
            lambda n: pow2(n + 1) - fib(n + 2),
            View(_S2_PASS, lambda v: v[0][0]),
            0,
            "order-2 diagonal path sum S_n(2,-1) = 2^(n+1) - F_(n+2)",
        ),
        IdentityRecord(
            "S2diff",
            lambda n: fib(n - 1),
            View(_S2_PASS, lambda v: v[1][0]),
            1,
            "difference of consecutive order-2 path sums is Fibonacci",
        ),
        IdentityRecord(
            "relB2diff",
            # C(n - 1, q) for q in 1..n, none at n = 0: Pascal's row n - 1 from
            # column 1.  Closed sides may use the Pascal rule; oracles never do.
            Cursor(lambda: chain([()], ((*row[1:], 0) for row in rows(1)))),
            View(_S2_PASS, lambda v: v[1][2 * len(_DROPS) :][::-1]),
            1,
            "cell minus twice its upper-left neighbour is binomial",
        ),
        IdentityRecord(
            "corollary1",
            Cursor(_corollary1_closed),
            View(_S2_PASS, lambda v: v[0][: len(_DROPS)]),
            0,
            "path-sum reconstruction from the explicit lambda expansion, c in [2,8]",
        ),
        IdentityRecord(
            "T2even",
            lambda p: tm_closed(2, 2 * p - 1) + fib(2 * p + 1),
            View(_T_EVEN_ODD, lambda v: v[0][0]),
            1,
            "even-index order-2 T recurrence with Fibonacci increment",
        ),
        IdentityRecord(
            "T2odd",
            lambda p: tm_closed(2, 2 * p) + tm_closed(2, 2 * p - 1),
            View(_T_EVEN_ODD, lambda v: v[1][0]),
            1,
            "odd-index order-2 T recurrence",
        ),
        IdentityRecord(
            "resT2",
            lambda n: qr_closed(_PRINTED_QR[2], n),
            View(_T_PASS, itemgetter(1)),
            0,
            "order-2 T path sum closed form",
        ),
        IdentityRecord(
            "rel8",
            lambda n: fib(n),
            View(_S3_PASS, lambda v: v[1][1]),
            1,
            "difference of consecutive order-3 complementary sums is Fibonacci",
        ),
        IdentityRecord(
            "S3barClosed",
            lambda n: 3 * pow2(n) - fib(n + 3),
            View(_S3_PASS, lambda v: v[0][1]),
            0,
            "order-3 complementary path sum closed form",
        ),
        IdentityRecord(
            "theoremS3",
            lambda n: fib(n + 3) + (n - 1) * pow2(n),
            View(_S3_PASS, lambda v: v[0][0]),
            0,
            "order-3 diagonal path sum S_n(2,-1) closed form",
        ),
        IdentityRecord(
            "TmOdd",
            lambda p: tuple(
                tm_closed(m, 2 * p) + tm_closed(m, 2 * p - 1) for m in _T_ORDERS
            ),
            View(_T_EVEN_ODD, itemgetter(1)),
            1,
            "odd-index T recurrence, orders 2..6",
        ),
        IdentityRecord(
            "TmEven",
            lambda p: tuple(
                tm_closed(m, 2 * p - 1) + tm_closed(m - 1, 2 * p) for m in _T_ORDERS
            ),
            View(_T_EVEN_ODD, itemgetter(0)),
            1,
            "even-index T recurrence dropping one order, orders 2..6",
        ),
        IdentityRecord(
            "resT3",
            lambda n: qr_closed(_PRINTED_QR[3], n),
            View(_T_PASS, itemgetter(2)),
            0,
            "order-3 T path sum closed form with rational halves",
        ),
        IdentityRecord(
            "T4closed",
            lambda n: qr_closed(_PRINTED_QR[4], n),
            View(_T_PASS, itemgetter(3)),
            0,
            "order-4 T path sum closed form, fixed printed coefficients",
        ),
        IdentityRecord(
            "T5closed",
            lambda n: qr_closed(_PRINTED_QR[5], n),
            View(_T_PASS, itemgetter(4)),
            0,
            "order-5 T path sum closed form, fixed printed coefficients",
        ),
        IdentityRecord(
            "theoremTm",
            lambda n: tuple(tm_closed(m, n) for m in _TM_ORDERS),
            _T_PASS,
            0,
            "derived polynomial closed form for T path sums, orders 1..10",
        ),
    ]
}


def _check_reach(records: list[IdentityRecord], n_max: int) -> None:
    for rec in records:
        if n_max < rec.valid_from:
            raise ValueError(
                f"{rec.name} needs n_max >= {rec.valid_from}, got {n_max}"
            )


def _sweep(records: list[IdentityRecord], n_max: int) -> list[VerifyReport]:
    # One pass over n with the records inside it, so records whose oracles
    # view one shared cursor read it at the same n and advance it once.
    _check_reach(records, n_max)
    failures: list[list[tuple[int, object, object]]] = [[] for _ in records]
    elapsed = [0.0] * len(records)
    for n in range(min(rec.valid_from for rec in records), n_max + 1):
        for i, rec in enumerate(records):
            if n < rec.valid_from:
                continue
            started = time.perf_counter()
            closed = rec.closed_form(n)
            oracle = rec.oracle(n)
            elapsed[i] += time.perf_counter() - started
            if closed != oracle:
                failures[i].append((n, closed, oracle))
    return [
        VerifyReport(rec.name, rec.valid_from, n_max, tuple(fails), secs)
        for rec, fails, secs in zip(records, failures, elapsed)
    ]


def verify(name: str, n_max: int) -> VerifyReport:
    """Sweep one registered identity over n in [valid_from, n_max]."""
    try:
        rec = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown identity {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None
    return _sweep([rec], n_max)[0]


def _shared_passes(records: list[IdentityRecord]) -> list[list[IdentityRecord]]:
    """The records grouped, in order, by the brute-force pass they read.

    A record whose oracle is a :class:`~btriangles.triangle.View` reads
    the view's cursor; any other record reads its own oracle.  An oracle
    wrapped by :func:`functools.wraps`, to time it say, reads the pass of
    the oracle it wraps.
    """
    passes: dict[int, list[IdentityRecord]] = {}
    for rec in records:
        oracle = unwrap(rec.oracle)
        passes.setdefault(id(getattr(oracle, "cursor", oracle)), []).append(rec)
    return list(passes.values())


def _usable_cpus() -> int:
    # A forked child keeps only the forking thread, so a lock that another
    # thread held at the fork, a Cursor's say, would stay held in the child.
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# Each pass index in the work queue is this many bytes.  The queue is full
# before any worker starts, so each read of this many bytes, atomic below
# PIPE_BUF, takes one whole index.
_INDEX_BYTES = 4


def _claim(
    queue: int, passes: list[list[IdentityRecord]], n_max: int
) -> dict[str, VerifyReport]:
    # Sweep whole passes, taken one index at a time from the queue, until
    # it is empty.
    reports = {}
    while index := os.read(queue, _INDEX_BYTES):
        for report in _sweep(passes[int.from_bytes(index, "big")], n_max):
            reports[report.name] = report
    return reports


def _work(
    queue: int, passes: list[list[IdentityRecord]], n_max: int, sink: int
) -> NoReturn:
    # A forked worker sends its reports, or the exception it raised, pickled
    # to ``sink``.  os._exit runs no atexit handler and flushes no stdio
    # buffer that the worker inherited, and the worker never returns into
    # the caller's frames.
    status = 1
    try:
        try:
            outcome = _claim(queue, passes, n_max)
        except BaseException as exc:  # raised again in the caller
            outcome = exc
        import pickle

        with open(sink, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _outcome(pid: int, data: bytes, status: int) -> dict[str, VerifyReport]:
    import pickle

    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(
            f"verify worker {pid} ended without a result (exit status {code})"
        )
    outcome = pickle.loads(data)
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def verify_all(n_max: int) -> list[VerifyReport]:
    """Sweep every registered identity, each shared pass in one process.

    Equal to ``[verify(name, n_max) for name in sorted(REGISTRY)]``; a
    record whose valid_from exceeds n_max raises before any work.  The
    records are split into their shared passes (:func:`_shared_passes`)
    and each pass is swept whole, in one pass over n with its records in
    name order, so it is built once.  On k = min(passes, usable CPUs)
    processes: the caller forks k - 1 workers, and each process claims
    passes from one queue until it is empty.  The caller alone sweeps
    everything when one CPU is usable, when another thread is alive
    (forking would copy locks that thread may hold), or where
    ``os.sched_getaffinity`` does not exist.  A worker's exception is
    raised again here, and no worker outlives the call.
    """
    records = [REGISTRY[name] for name in sorted(REGISTRY)]
    _check_reach(records, n_max)
    passes = _shared_passes(records)
    queue, fill = os.pipe()
    os.write(
        fill, b"".join(i.to_bytes(_INDEX_BYTES, "big") for i in range(len(passes)))
    )
    os.close(fill)
    workers: dict[int, BinaryIO] = {}  # pid: its result pipe, until reaped
    try:
        for _ in range(min(len(passes), _usable_cpus()) - 1):
            result, sink = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(queue, passes, n_max, sink)
            os.close(sink)
            workers[pid] = open(result, "rb")
        reports = _claim(queue, passes, n_max)
        for pid, pipe in list(workers.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            reports.update(_outcome(pid, data, status))
    finally:
        os.close(queue)
        if workers:  # left running by an exception
            import signal

            for pid, pipe in workers.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [reports[rec.name] for rec in records]


# Sequence generators without closed forms, so they live outside REGISTRY.
# The test suite checks them against the bundled b-file snapshots of
# A005251, A138653 and A005314 at the frozen offsets of the oeis bindings.


def sbar31(n: int) -> int:
    """Complementary order-2 path sum along (3, -1)."""
    return sum_Sbar(2, 3, -1, n)


def sbar41(n: int) -> int:
    """Complementary order-2 path sum along (4, -1)."""
    return sum_Sbar(2, 4, -1, n)


def sbar31diff3(n: int) -> int:
    """Difference sequence of the order-3 complementary sums along (3, -1)."""
    if n < 1:
        raise ValueError(f"difference sequence starts at n = 1, got {n}")
    sums = path_sums(3, 3, -1, "Sbar", n)
    return sums[n] - 2 * sums[n - 1]
