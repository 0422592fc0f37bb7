"""Registry pairing each closed-form identity with a brute-force oracle.

Every record names one verifiable statement about the triangles: a
closed form built from Fibonacci numbers, powers of two, binomial
coefficients and the derived and printed polynomials on one side, and
an oracle that recomputes the same quantity by direct binomial summation
over the triangle on the other.  Every oracle is a forward stream of
:mod:`btriangles.bruteforce`, reached only through that module, and
closed sides never call it, so agreement over a sweep is genuine
evidence.

Both sides are per-n.  Every oracle, and the closed sides that stream
(``corollary1``'s recurrence over n and ``relB2diff``'s Pascal-rule
:func:`~btriangles.triangle.rows`), is read through one
:class:`~btriangles.triangle.Cursor` per side.

:func:`verify` sweeps one record over an index range and reports every
mismatch.  Multi-parameter families (a range of orders m or drops c)
are single records whose sides return tuples, compared elementwise.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice

from . import bruteforce
from .exactnum import pow2
from .fibonacci import fib
from .gfib import lambda_explicit
from .paths import path_sums, sum_Sbar
from .polyderive import QRPair, RatPolynomial, qr_closed, tm_closed
from .triangle import Cursor, rows

__all__ = [
    "IdentityRecord",
    "VerifyReport",
    "REGISTRY",
    "verify",
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
    # u_0 = 1 and u_n = 2 u_(n-1) + lambda_n(c), one lambda per (c, n).
    sums = (1,) * len(_DROPS)
    for n in count(1):
        yield sums
        sums = tuple(2 * u + lambda_explicit(c, n) for u, c in zip(sums, _DROPS))


REGISTRY: dict[str, IdentityRecord] = {
    rec.name: rec
    for rec in [
        IdentityRecord(
            "theorem1",
            lambda n: pow2(n + 1) - fib(n + 2),
            Cursor(lambda: bruteforce.one(bruteforce.s_sums(2, [(2, -1)]))),
            0,
            "order-2 diagonal path sum S_n(2,-1) = 2^(n+1) - F_(n+2)",
        ),
        IdentityRecord(
            "S2diff",
            lambda n: fib(n - 1),
            Cursor(
                lambda: bruteforce.minus_twice_previous(
                    bruteforce.one(bruteforce.s_sums(2, [(2, -1)]))
                )
            ),
            1,
            "difference of consecutive order-2 path sums is Fibonacci",
        ),
        IdentityRecord(
            "relB2diff",
            # C(n - 1, q) for q in 1..n, none at n = 0: Pascal's row n - 1 from
            # column 1.  Closed sides may use the Pascal rule; oracles never do.
            Cursor(lambda: chain([()], ((*row[1:], 0) for row in rows(1)))),
            Cursor(lambda: bruteforce.cell_minus_twice_upper_left(2)),
            1,
            "cell minus twice its upper-left neighbour is binomial",
        ),
        IdentityRecord(
            "corollary1",
            Cursor(_corollary1_closed),
            Cursor(lambda: bruteforce.s_sums(2, [(c, 1 - c) for c in _DROPS])),
            0,
            "path-sum reconstruction from the explicit lambda expansion, c in [2,8]",
        ),
        IdentityRecord(
            "T2even",
            lambda p: tm_closed(2, 2 * p - 1) + fib(2 * p + 1),
            Cursor(lambda: islice(bruteforce.one(bruteforce.t_sums([2])), 0, None, 2)),
            1,
            "even-index order-2 T recurrence with Fibonacci increment",
        ),
        IdentityRecord(
            "T2odd",
            lambda p: tm_closed(2, 2 * p) + tm_closed(2, 2 * p - 1),
            Cursor(lambda: islice(bruteforce.one(bruteforce.t_sums([2])), 1, None, 2)),
            1,
            "odd-index order-2 T recurrence",
        ),
        IdentityRecord(
            "resT2",
            lambda n: qr_closed(_PRINTED_QR[2], n),
            Cursor(lambda: bruteforce.one(bruteforce.t_sums([2]))),
            0,
            "order-2 T path sum closed form",
        ),
        IdentityRecord(
            "rel8",
            lambda n: fib(n),
            Cursor(
                lambda: bruteforce.minus_twice_previous(
                    bruteforce.one(bruteforce.s_sums(3, [(2, -1)], True))
                )
            ),
            1,
            "difference of consecutive order-3 complementary sums is Fibonacci",
        ),
        IdentityRecord(
            "S3barClosed",
            lambda n: 3 * pow2(n) - fib(n + 3),
            Cursor(lambda: bruteforce.one(bruteforce.s_sums(3, [(2, -1)], True))),
            0,
            "order-3 complementary path sum closed form",
        ),
        IdentityRecord(
            "theoremS3",
            lambda n: fib(n + 3) + (n - 1) * pow2(n),
            Cursor(lambda: bruteforce.one(bruteforce.s_sums(3, [(2, -1)]))),
            0,
            "order-3 diagonal path sum S_n(2,-1) closed form",
        ),
        IdentityRecord(
            "TmOdd",
            lambda p: tuple(
                tm_closed(m, 2 * p) + tm_closed(m, 2 * p - 1) for m in _T_ORDERS
            ),
            Cursor(lambda: islice(bruteforce.t_sums(_T_ORDERS), 1, None, 2)),
            1,
            "odd-index T recurrence, orders 2..6",
        ),
        IdentityRecord(
            "TmEven",
            lambda p: tuple(
                tm_closed(m, 2 * p - 1) + tm_closed(m - 1, 2 * p) for m in _T_ORDERS
            ),
            Cursor(lambda: islice(bruteforce.t_sums(_T_ORDERS), 0, None, 2)),
            1,
            "even-index T recurrence dropping one order, orders 2..6",
        ),
        IdentityRecord(
            "resT3",
            lambda n: qr_closed(_PRINTED_QR[3], n),
            Cursor(lambda: bruteforce.one(bruteforce.t_sums([3]))),
            0,
            "order-3 T path sum closed form with rational halves",
        ),
        IdentityRecord(
            "T4closed",
            lambda n: qr_closed(_PRINTED_QR[4], n),
            Cursor(lambda: bruteforce.one(bruteforce.t_sums([4]))),
            0,
            "order-4 T path sum closed form, fixed printed coefficients",
        ),
        IdentityRecord(
            "T5closed",
            lambda n: qr_closed(_PRINTED_QR[5], n),
            Cursor(lambda: bruteforce.one(bruteforce.t_sums([5]))),
            0,
            "order-5 T path sum closed form, fixed printed coefficients",
        ),
        IdentityRecord(
            "theoremTm",
            lambda n: tuple(tm_closed(m, n) for m in _TM_ORDERS),
            Cursor(lambda: bruteforce.t_sums(_TM_ORDERS)),
            0,
            "derived polynomial closed form for T path sums, orders 1..10",
        ),
    ]
}


def verify(name: str, n_max: int) -> VerifyReport:
    """Sweep one registered identity over n in [valid_from, n_max]."""
    try:
        rec = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown identity {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None
    if n_max < rec.valid_from:
        raise ValueError(
            f"{name} needs n_max >= {rec.valid_from}, got {n_max}"
        )
    started = time.perf_counter()
    failures = []
    for n in range(rec.valid_from, n_max + 1):
        closed = rec.closed_form(n)
        oracle = rec.oracle(n)
        if closed != oracle:
            failures.append((n, closed, oracle))
    elapsed = time.perf_counter() - started
    return VerifyReport(name, rec.valid_from, n_max, tuple(failures), elapsed)


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
