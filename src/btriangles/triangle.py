"""Iterated partial-sum triangles, read row by row.

Order 1 is Pascal's triangle.  Order m is the prefix sum of order m - 1:
entry (n, k) of order m is the sum of entries (n, 0..k) of order m - 1.
Each order is built on its own: interior cells follow the Pascal rule
cell(n, k) = cell(n-1, k) + cell(n-1, k-1) and the diagonal has a
closed form, so no row reads a lower order.
"""

from __future__ import annotations

from operator import add

__all__ = ["TriangleStore"]


class TriangleStore:
    """Forward cursor over triangle rows, holding one row per order.

    ``row(m, n)`` steps the held row of order m forward to row n by the
    Pascal rule and then holds row n; an earlier n rebuilds from row 0.
    """

    def __init__(self) -> None:
        self._cursor: dict[int, tuple[int, tuple[int, ...]]] = {}

    def row(self, m: int, n: int) -> tuple[int, ...]:
        """Row n of the order-m triangle: entries for columns 0..n."""
        _check_row(m, n)
        held, row = self._cursor.get(m, (0, (1,)))
        if held > n:
            held, row = 0, (1,)
        for r in range(held + 1, n + 1):
            row = (1, *map(add, row, row[1:]), _diagonal(m, r))
        self._cursor[m] = (n, row)
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

