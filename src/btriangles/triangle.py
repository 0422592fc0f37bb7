"""Iterated partial-sum triangles, read row by row.

Order 1 is Pascal's triangle.  Order m is the prefix sum of order m - 1:
entry (n, k) of order m is the sum of entries (n, 0..k) of order m - 1.
Each order is built on its own: interior cells follow the Pascal rule
cell(n, k) = cell(n-1, k) + cell(n-1, k-1) and the diagonal has a
closed form, so no row reads a lower order.

The prefix-sum definition survives only as the independent brute-force
oracle: :func:`bruteforce_rows` builds row n of orders 1..m from the
binomials C(n, q) alone, with no cache and no step from row n - 1, and
:func:`cell_bruteforce` reads one cell of it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

__all__ = ["TriangleStore", "bruteforce_rows", "cell_bruteforce"]


class TriangleStore:
    """Forward cursor over triangle rows, holding one row per order.

    ``row(m, n)`` steps the held row of order m forward to row n by the
    Pascal rule and then holds row n; an earlier n rebuilds from row 0.
    """

    def __init__(self) -> None:
        self._cursor: dict[int, tuple[int, tuple[int, ...]]] = {}

    def row(self, m: int, n: int) -> tuple[int, ...]:
        """Row n of the order-m triangle: entries for columns 0..n."""
        if m < 1:
            raise ValueError(f"triangle order must be >= 1, got {m}")
        if n < 0:
            raise ValueError(f"row index must be >= 0, got {n}")
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
        addressability proper is the 0 <= k <= n condition.
        """
        if k < 0 or k > n:
            return 0
        return self.row(m, n)[k]


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


def bruteforce_rows(m: int, n: int) -> list[list[int]]:
    """Row n of the orders 1..m, by binomials and prefix sums alone.

    Order 1 is C(n, 0..n) by the multiplicative update
    C(n, q+1) = C(n, q)(n - q)/(q + 1) up to the middle, mirrored by
    C(n, q) = C(n, n - q); order j is the prefix sum of order j - 1.
    Each call builds its row fresh, so nothing steps across rows: this is
    the oracle route, independent of the Pascal rule :class:`TriangleStore`
    uses.
    """
    half = [1]
    for q in range(n // 2):
        half.append(half[-1] * (n - q) // (q + 1))
    rows = [half + half[: (n + 1) // 2][::-1]]
    for _ in range(m - 1):
        rows.append(list(accumulate(rows[-1])))
    return rows


def cell_bruteforce(m: int, n: int, k: int) -> int:
    """Entry (n, k) of the order-m triangle by direct nested summation.

    Oracle counterpart of :meth:`TriangleStore.cell`, read from one
    :func:`bruteforce_rows` row; rejects columns outside 0..n instead of
    returning 0.
    """
    if m < 1:
        raise ValueError(f"triangle order must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"column {k} out of range for row {n}")
    return bruteforce_rows(m, n)[m - 1][k]
