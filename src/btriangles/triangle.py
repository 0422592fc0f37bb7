"""Iterated partial-sum triangles, read row by row, and the per-n cursor.

Order 1 is Pascal's triangle.  Order m is the prefix sum of order m - 1:
entry (n, k) of order m is the sum of entries (n, 0..k) of order m - 1.
:func:`rows` streams one order: interior cells follow the Pascal rule
cell(n, k) = cell(n-1, k) + cell(n-1, k-1) and the diagonal has a closed
form, so no row reads a lower order.  :func:`step` is that rule, over a
window of columns, for :func:`rows`, :class:`TriangleStore` and the path
walks of :mod:`btriangles.paths`.  :class:`TriangleStore` also builds a
far row directly, as Pascal's row followed by m - 1 prefix sums, when
that takes fewer big-integer operations than stepping to it.
:class:`Cursor`, the package's one per-n view of a forward stream,
serves the identity registry, where a :class:`View` reads one part of a
cursor that several records share.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, count
from operator import add

__all__ = ["Cursor", "View", "TriangleStore", "rows", "step"]


class Cursor:
    """Per-n view of the forward stream ``start()``: ``cursor(n)`` is its value n.

    A later n advances the stream, the same n returns the held value and
    an earlier n restarts the stream from 0.  A stream whose advance
    raised, even by an interrupt, is dropped and restarted by the next
    call.  Calls from several threads take turns.
    """

    def __init__(self, start: Callable[[], Iterator]) -> None:
        self.start = start
        self._lock = threading.Lock()
        self._stream, self._at, self._value = None, -1, None

    def __call__(self, n: int):
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            # Taken out while it advances, so a stream that raised is dropped.
            stream, self._stream = self._stream, None
            if stream is None or n < self._at:
                stream, self._at = self.start(), -1
            while self._at < n:
                self._value = next(stream)
                self._at += 1
            self._stream = stream
            return self._value


class View:
    """Per-n view of one part of a shared :class:`Cursor`: ``view(n)`` is
    ``pick(cursor(n))``.

    Views read at the same n share one advance of the cursor's stream.
    ``start()`` is a fresh stream of the view's own values.
    """

    def __init__(self, cursor: Cursor, pick: Callable) -> None:
        self.cursor, self.pick = cursor, pick

    def __call__(self, n: int):
        return self.pick(self.cursor(n))

    def start(self) -> Iterator:
        return map(self.pick, self.cursor.start())


def step(m: int, r: int, prev: Sequence[int], lo: int, hi: int) -> tuple[int, ...]:
    """Columns lo..hi of row r >= 1 of the order-m triangle, by the Pascal rule.

    ``prev`` holds columns max(lo - 1, 0)..min(hi, r - 1) of row r - 1.
    Column 0 is 1 and column r is the closed-form diagonal.
    """
    head = (1,) if lo == 0 else ()
    tail = (_diagonal(m, r),) if hi == r else ()
    return (*head, *map(add, prev, prev[1:]), *tail)


def rows(m: int) -> Iterator[tuple[int, ...]]:
    """Rows 0, 1, 2, ... of the order-m triangle, each stepped from the last."""
    _check_row(m, 0)
    row = (1,)
    for r in count(1):
        yield row
        row = step(m, r, row, 0, r)


class TriangleStore:
    """Triangle rows of any order, each order holding the last row read.

    ``row(m, n)`` reaches row n by whichever route takes fewer big-integer
    operations: stepping by :func:`step` from the held row, or from row 0
    when n is earlier, or building row n from binomials and prefix sums.
    It then holds row n.  A read that raised, even by an interrupt, leaves
    the held row as it was.  Calls from several threads take turns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: dict[int, tuple[int, tuple[int, ...]]] = {}

    def row(self, m: int, n: int) -> tuple[int, ...]:
        """Row n of the order-m triangle: entries for columns 0..n."""
        _check_row(m, n)
        with self._lock:
            at, row = self._held.get(m, (0, (1,)))
            if n < at:
                at, row = 0, (1,)
            if _build_cost(m, n) < _step_cost(m, n) - _step_cost(m, at):
                at, row = n, _built_row(m, n)
            for r in range(at + 1, n + 1):
                row = step(m, r, row, 0, r)
            self._held[m] = n, row
        return row

    def cell(self, m: int, n: int, k: int) -> int:
        """Entry (n, k) of the order-m triangle.

        Columns outside 0..n read as 0 (vanishing convention);
        addressability proper is the 0 <= k <= n condition.  An order
        below 1 or a negative row raises ValueError, as in :meth:`row`.
        """
        _check_row(m, n)
        if k < 0 or k > n:
            return 0
        return self.row(m, n)[k]


def _check_row(m: int, n: int) -> None:
    if m < 1:
        raise ValueError(f"triangle order must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")


def _built_row(m: int, n: int) -> tuple[int, ...]:
    # Pascal's row n by C(n, q+1) = C(n, q)(n - q)/(q + 1), then m - 1 prefix sums.
    row = [1]
    for q in range(n):
        row.append(row[-1] * (n - q) // (q + 1))
    for _ in range(m - 1):
        row = list(accumulate(row))
    return tuple(row)


def _build_cost(m: int, n: int) -> int:
    # Big-integer operations in _built_row: a multiply and a divide per
    # binomial, then n additions per prefix sum.
    return (m + 1) * n


def _step_cost(m: int, n: int) -> int:
    # Big-integer operations to step rows 1..n: row r adds r - 1 pairs, and
    # each of the min(r, m - 2) terms of its diagonal is a multiply, a divide
    # and an addition.
    d = max(m - 2, 0)
    k = min(n, d)
    return n * (n - 1) // 2 + 3 * (k * (k + 1) // 2 + d * (n - k))


def _diagonal(m: int, n: int) -> int:
    # cell(m, n, n), the row sum of order m - 1, as sum_i C(n, i) C(m-2, i) 2^(n-i)
    # by Vandermonde's identity and sum_j C(n, j) C(j, i) = C(n, i) 2^(n-i)
    # (Concrete Math. 5.1).  Each term is the last one times
    # (n - i)(m - 2 - i) / (2 (i + 1)^2), an exact division.
    if m == 1:
        return 1
    term = total = 1 << n
    for i in range(min(n, m - 2)):
        term = term * ((n - i) * (m - 2 - i)) // (2 * (i + 1) ** 2)
        total += term
    return total
