"""Sums of triangle entries along straight lattice paths.

A path starts at a cell of the order-m triangle and repeatedly moves by
a fixed step: the row index changes by l and the column index by -c (a
column drop of c).  Summing the visited entries while they stay inside
the triangle yields the three families

* S: start (n, n), c > 0, l < 0 - walk down-left from the diagonal;
* Sbar: the diagonal-reflected complement 2*cell(n, n) - S;
* T: start (n, 0), c < 0, l < 0 - walk up-right from the left edge.

Every family stops at the last in-range cell, so each sum is finite.
One sum (:func:`trace`, :func:`sum_S`, ...) builds only the cells its
path depends on; :func:`path_sums` gives every n <= N from full rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangle import TriangleStore, rows, step

__all__ = [
    "InvalidPathSpec",
    "PathSpec",
    "PathTrace",
    "trace",
    "path_sums",
    "sum_S",
    "sum_Sbar",
    "sum_T",
]

_FAMILIES = ("S", "Sbar", "T")


class InvalidPathSpec(ValueError):
    """Raised for step parameters outside a family's admissible range."""


@dataclass(frozen=True)
class PathSpec:
    """One path-sum instance: order, column drop c, row step l, family, n."""

    m: int
    c: int
    l: int
    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidPathSpec(
                f"family must be one of {_FAMILIES}, got {self.family!r}"
            )
        if self.m < 1:
            raise InvalidPathSpec(f"order must be >= 1, got {self.m}")
        if self.n < 0:
            raise InvalidPathSpec(f"n must be >= 0, got {self.n}")
        if self.family in ("S", "Sbar"):
            if self.c <= 0 or self.l >= 0:
                raise InvalidPathSpec(
                    f"S paths need c > 0 and l < 0, got c={self.c} l={self.l}"
                )
            if self.c + self.l < 0:
                # A drop steeper than the row step would carry the column
                # below 0 while the row is still nonnegative; every cell
                # on an admissible path satisfies 0 <= col <= row.
                raise InvalidPathSpec(
                    f"S paths need c + l >= 0, got c={self.c} l={self.l}"
                )
        else:
            if self.c >= 0 or self.l >= 0:
                raise InvalidPathSpec(
                    f"T paths need c < 0 and l < 0, got c={self.c} l={self.l}"
                )


@dataclass(frozen=True)
class PathTrace:
    """Cells visited by a path, in walk order, with their entries."""

    spec: PathSpec
    cells: tuple[tuple[int, int], ...]
    values: tuple[int, ...]

    @property
    def total(self) -> int:
        """The path sum; for Sbar, 2*values[0] - S, as the walk starts at (n, n)."""
        if self.spec.family == "Sbar":
            return 2 * self.values[0] - sum(self.values)
        return sum(self.values)


def trace(spec: PathSpec) -> PathTrace:
    """List the cells a path visits together with their entries.

    For Sbar the cells and values are those of the underlying S walk;
    the complement applies to :attr:`PathTrace.total` only.

    Only the path's dependency cone is built, in one walk over rows
    0..n.  Step k lies on row n - k|l|, e*k columns in from the left
    edge (T, e = |c|) or from the diagonal (S, e = c + l).  On row r the
    path's cells on rows >= r, steps 0..k, reach through the Pascal rule
    the columns within e*k of that side, and never fewer than one, as
    :func:`~btriangles.triangle.step` reads a diagonal off the two
    entries before it.  This window shrinks as r grows, so the rows it
    covers whole are a prefix.  Of those, the store gives only the rows
    that hold a path cell and the last one, which the first window steps
    from, each in O(r) operations at any order; each later row is
    stepped over its window alone.
    """
    m, n, rise = spec.m, spec.n, -spec.l
    if spec.family == "T":
        start_col, steps, e = 0, -n // (spec.c + spec.l), -spec.c
    else:
        start_col, steps, e = n, n // spec.c, spec.c + spec.l
    cells = tuple((n - k * rise, start_col - k * spec.c) for k in range(steps + 1))

    def width(r: int) -> int:
        # Columns of row r, from the path's side, that steps on rows >= r reach.
        # At least one, so a window at the diagonal holds two columns.
        return min(r, max(1, min(steps, (n - r) // rise) * e))

    store = TriangleStore()
    values = [0] * len(cells)
    row, lo = (), 0  # row holds columns lo.. of the current row
    for r in range(n + 1):
        k, off = divmod(n - r, rise)
        on_path = not off and k <= steps
        w = width(r)
        if w < r:
            new_lo, hi = (0, w) if spec.family == "T" else (r - w, r)
            prev = row[max(new_lo - 1, 0) - lo : min(hi, r - 1) - lo + 1]
            row, lo = step(m, r, prev, new_lo, hi), new_lo
        elif on_path or width(r + 1) <= r:
            row = store.row(m, r)
        if on_path:
            values[k] = row[cells[k][1] - lo]
    return PathTrace(spec, cells, tuple(values))


def path_sums(m: int, c: int, l: int, family: str, N: int) -> list[int]:
    """One family's path sums for every n in 0..N, from one pass over rows 0..N.

    Step k of path n lies on row r = n - k|l|, at column r - k(c + l) for
    S and k|c| for T, so each row is scattered into the sums it feeds.
    Sum n is complete after row n, when Sbar takes its complement.
    """
    PathSpec(m, c, l, family, N)
    drop = c if family == "T" else c + l
    sums = [0] * (N + 1)
    for r, row in zip(range(N + 1), rows(m)):
        col = 0 if family == "T" else r
        for n in range(r, N + 1, -l):
            if not 0 <= col <= r:
                break
            sums[n] += row[col]
            col -= drop
        if family == "Sbar":
            sums[r] = 2 * row[r] - sums[r]
    return sums


def sum_S(m: int, c: int, l: int, n: int) -> int:
    """Down-left path sum from the diagonal cell (n, n)."""
    return trace(PathSpec(m, c, l, "S", n)).total


def sum_Sbar(m: int, c: int, l: int, n: int) -> int:
    """Complementary sum 2*cell(n, n) - S; counts the diagonal cell twice."""
    return trace(PathSpec(m, c, l, "Sbar", n)).total


def sum_T(m: int, c: int, l: int, n: int) -> int:
    """Up-right path sum from the left-edge cell (n, 0)."""
    return trace(PathSpec(m, c, l, "T", n)).total
