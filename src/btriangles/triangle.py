"""Iterated partial-sum triangles, read row by row.

Order 1 is Pascal's triangle.  Order m is the prefix sum of order m - 1:
entry (n, k) of order m is the sum of entries (n, 0..k) of order m - 1,
so row n is coefficients 0..n of the series (1 + z)^n (1 - z)^(1 - m).
Its coefficients a(k) obey one first-order recurrence, read off
(1 - z^2) f' = ((n + m - 1) + (m - 1 - n) z) f:

    (k + 1) a(k + 1) = (n + m - 1) a(k) + (k + m - 2 - n) a(k - 1),

every division exact.  :func:`step` steps a window of columns by the
Pascal rule cell(n, k) = cell(n-1, k) + cell(n-1, k-1), and the diagonal
by that recurrence from the last two entries of the row above, so no row
reads a lower order.  It serves :func:`rows`, the sequential route, and
the path walks of :mod:`btriangles.paths`.  :class:`TriangleStore` builds
any row by the recurrence, in O(n) operations at any order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import count
from operator import add

__all__ = ["TriangleStore", "rows", "step"]


def step(m: int, r: int, prev: Sequence[int], lo: int, hi: int) -> tuple[int, ...]:
    """Columns lo..hi of row r >= 1 of the order-m triangle, by the Pascal rule.

    ``prev`` holds columns max(lo - 1, 0)..min(hi, r - 1) of row r - 1,
    and a window that reaches the diagonal (hi == r) holds at least two
    columns (lo <= r - 1).  Column 0 is 1.  Column r is cell(r-1, r-1)
    plus coefficient r of row r - 1's series, which the module's
    recurrence gives from row r - 1's last two entries.
    """
    head = (1,) if lo == 0 else ()
    tail = ()
    if hi == r:
        a, b = prev[-1], prev[-2] if r > 1 else 0
        tail = (a + ((r + m - 2) * a + (m - 2) * b) // r,)
    return (*head, *map(add, prev, prev[1:]), *tail)


def rows(m: int) -> Iterator[tuple[int, ...]]:
    """Rows 0, 1, 2, ... of the order-m triangle, each stepped from the last."""
    _check_row(m, 0)
    row = (1,)
    for r in count(1):
        yield row
        row = step(m, r, row, 0, r)


class TriangleStore:
    """Triangle rows of any order, each built when read.

    ``row(m, n)`` builds row n by the series recurrence, in O(n)
    operations at any order, and so does ``cell(m, n, k)``: read many
    entries of one row from one ``row`` call.  Read rows in sequence
    from :func:`rows`.
    """

    def row(self, m: int, n: int) -> tuple[int, ...]:
        """Row n of the order-m triangle: entries for columns 0..n."""
        _check_row(m, n)
        # Coefficients 0..n of (1 + z)^n (1 - z)^(1 - m) by the series recurrence.
        row, a, b = [1], 1, 0
        for k in range(n):
            a, b = ((n + m - 1) * a + (k + m - 2 - n) * b) // (k + 1), a
            row.append(a)
        return tuple(row)

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

