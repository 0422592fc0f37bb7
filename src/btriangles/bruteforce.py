"""The brute-force oracle route: triangle cells and path sums from binomials.

Every value is built from C(n, q), by the multiplicative update
C(n, q+1) = C(n, q)(n - q)/(q + 1), and from prefix sums, the definition
of the higher orders: entry (n, k) of order m sums entries (n, 0..k) of
order m - 1.  Nothing steps between rows by the Pascal rule, nothing is
cached, and nothing is imported from the rest of the package, so the
closed forms checked against this route share none of its code.  S-path
streams take one pass over fresh rows and add every cell to the pending
sums of the paths through it; one pass yields S, its complement S-bar
and the row reversed, with their differences from twice their previous
values, which align each cell with its upper-left neighbour.  T-path
streams hold anti-diagonal n, the cells (n - k, k) that T_n sums, and
move each cell one column along its row to reach anti-diagonal n + 1.
A sweep to n holds O(n) numbers per order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import partial
from itertools import accumulate, count, islice
from operator import add, floordiv, mul, sub

__all__ = [
    "cell_bruteforce",
    "t_sums",
    "s_sums",
]


def _row(m: int, n: int) -> list[int]:
    # Order 1 is C(n, 0..n) by the multiplicative update up to the middle,
    # mirrored by C(n, q) = C(n, n - q); order j is the prefix sum of order
    # j - 1.  Each call builds its row fresh.
    half = [1]
    for q in range(n // 2):
        half.append(half[-1] * (n - q) // (q + 1))
    row = half + half[: (n + 1) // 2][::-1]
    for _ in range(m - 1):
        row = list(accumulate(row))
    return row


def _check_order(m: int) -> None:
    if m < 1:
        raise ValueError(f"triangle order must be >= 1, got {m}")


def cell_bruteforce(m: int, n: int, k: int) -> int:
    """Entry (n, k) of the order-m triangle by direct nested summation.

    Oracle counterpart of :meth:`~btriangles.triangle.TriangleStore.cell`;
    rejects columns outside 0..n instead of returning 0.
    """
    _check_order(m)
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"column {k} out of range for row {n}")
    return _row(m, n)[k]


def _rows(m: int) -> Iterator[list[int]]:
    return map(partial(_row, m), count())


def _feed(pending: list[int], cells: list[int], step: int) -> int:
    # pending[j] is the partial sum of index r + j while row r is fed;
    # cells[k] belongs to index r + k*step.  Returns the now complete
    # sum of index r and shifts pending to start at r + 1.
    reach = (len(cells) - 1) * step + 1
    pending.extend([0] * (reach - len(pending)))
    pending[:reach:step] = map(add, pending[:reach:step], cells)
    return pending.pop(0)


def t_sums(orders: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """T_n along (-1, -1) for each of the orders, n = 0, 1, 2, ...

    An order below 1 raises ValueError.
    """
    # T_n sums anti-diagonal n, the cells (n - k, k) for k <= n/2.
    # levels[j - 1][k] holds cell (n - k, k) of order j.  From n to n + 1
    # each cell moves one column along its own row r = n - k: order 1 by
    # C(r, k+1) = C(r, k)(r - k)/(k + 1), order j by adding order j - 1 at
    # the new cell (the prefix-sum definition).  Row n + 1 enters at
    # column 0; range(n, 0, -2) runs out before k = n/2, whose row ends at
    # that column, so the row leaves.
    _check_order(min(orders))
    levels = [[1] for _ in range(max(orders))]
    for n in count():
        yield tuple(sum(levels[m - 1]) for m in orders)
        below = [1, *map(floordiv, map(mul, levels[0], range(n, 0, -2)), count(1))]
        levels[0] = below
        for j in range(1, len(levels)):
            levels[j] = below = [1, *map(add, levels[j], islice(below, 1, None))]


def s_sums(
    m: int, steps: Sequence[tuple[int, int]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(u_n, u_n - 2 u_(n-1)) elementwise for n = 0, 1, 2, ..., with u_(-1) = 0.

    u_n holds S_n of order m along each (c, l) with l <= -1 and c + l >= 1,
    then each complement 2*cell(n, n) - S_n, in the order of ``steps``,
    then row n from cell(n, n) down to cell(n, 0).  The difference stops
    where u_(n-1) does, so its row part is cell(n, q) - 2*cell(n-1, q-1)
    for q = n down to 1.  A step outside that domain, or m < 1, raises
    ValueError.
    """
    _check_order(m)
    for c, l in steps:
        if l > -1 or c + l < 1:
            raise ValueError(f"S step ({c}, {l}) needs l <= -1 and c + l >= 1")
    # Cell (r, r - k(c + l)) is step k of the path from (r + k|l|, r + k|l|).
    pending: list[list[int]] = [[] for _ in steps]
    previous = (0,) * (2 * len(steps))
    for r, row in enumerate(_rows(m)):
        sums = [_feed(p, row[r :: -(c + l)], -l) for p, (c, l) in zip(pending, steps)]
        value = (*sums, *(2 * row[r] - s for s in sums), *reversed(row))
        yield value, tuple(map(sub, value, map(add, previous, previous)))
        previous = value
