import tracemalloc

from hypothesis import example, given
from hypothesis import strategies as st
import pytest

from btriangles import paths
from btriangles.bruteforce import cell_bruteforce
from btriangles.fibonacci import fib
from btriangles.paths import (
    InvalidPathSpec,
    PathSpec,
    path_sums,
    sum_S,
    sum_Sbar,
    sum_T,
    trace,
)
from btriangles.triangle import TriangleStore, _diagonal, step


def test_spec_accepts_admissible_parameters():
    PathSpec(2, 2, -1, "S", 5)
    PathSpec(2, 3, -2, "Sbar", 5)
    PathSpec(3, -1, -1, "T", 5)


@pytest.mark.parametrize(
    "m, c, l, family, n",
    [
        (2, -1, -1, "S", 5),  # S needs c > 0
        (2, 2, 1, "S", 5),  # S needs l < 0
        (2, 3, -4, "S", 5),  # S needs c + l >= 0
        (2, 3, -4, "Sbar", 5),
        (2, 1, -1, "T", 5),  # T needs c < 0
        (2, -1, 1, "T", 5),  # T needs l < 0
        (0, 2, -1, "S", 5),  # order >= 1
        (2, 2, -1, "S", -1),  # n >= 0
        (2, 2, -1, "diagonal", 5),  # unknown family
    ],
)
def test_spec_rejects_bad_parameters(m, c, l, family, n):
    with pytest.raises(InvalidPathSpec):
        PathSpec(m, c, l, family, n)


def test_invalid_spec_is_a_value_error():
    assert issubclass(InvalidPathSpec, ValueError)


def test_trace_walk_cells_and_values():
    walk = trace(PathSpec(2, 2, -1, "S", 4))
    assert walk.cells == ((4, 4), (3, 2), (2, 0))
    assert walk.values == (16, 7, 1)
    assert walk.total == 24


def test_trace_t_family_starts_at_left_edge():
    walk = trace(PathSpec(2, -1, -1, "T", 8))
    assert walk.cells == ((8, 0), (7, 1), (6, 2), (5, 3), (4, 4))
    assert walk.total == 73


def test_s_path_worked_sequences():
    assert [sum_S(2, 2, -1, n) for n in range(8)] == [
        1, 2, 5, 11, 24, 51, 107, 222,
    ]
    assert [sum_S(2, 3, -2, n) for n in range(9)] == [
        1, 2, 4, 9, 19, 39, 80, 163, 330,
    ]


def test_sbar_worked_sequences():
    assert [sum_Sbar(2, 2, -1, n) for n in range(10)] == [
        1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
    ]
    assert [sum_Sbar(3, 2, -1, n) for n in range(8)] == [
        1, 3, 7, 16, 35, 75, 158, 329,
    ]


def test_t_path_worked_sequences():
    assert [sum_T(2, -1, -1, n) for n in range(9)] == [
        1, 1, 3, 4, 9, 13, 26, 39, 73,
    ]
    assert [sum_T(3, -1, -1, n) for n in range(8)] == [
        1, 1, 4, 5, 14, 19, 45, 64,
    ]


def test_order1_t_path_is_fibonacci():
    # The shallow diagonal of Pascal's triangle.
    for n in range(101):
        assert sum_T(1, -1, -1, n) == fib(n + 1)


def test_sbar_is_complement():
    store = TriangleStore()
    for m in (2, 3):
        for n in range(61):
            assert (
                sum_Sbar(m, 2, -1, n)
                == 2 * store.cell(m, n, n) - sum_S(m, 2, -1, n)
            )


def test_sums_match_bruteforce_cells():
    # Re-evaluate each traced cell by nested summation; no shared code
    # with the Pascal-rule rows.
    for m in range(2, 5):
        for n in range(25):
            for spec in (
                PathSpec(m, 2, -1, "S", n),
                PathSpec(m, 3, -2, "S", n),
                PathSpec(m, -1, -1, "T", n),
            ):
                walk = trace(spec)
                brute = sum(cell_bruteforce(m, r, c) for r, c in walk.cells)
                direct = (sum_S if spec.family == "S" else sum_T)(
                    m, spec.c, spec.l, n
                )
                assert brute == direct, spec


def test_trace_matches_sum():
    for n in range(30):
        spec = PathSpec(2, 3, -1, "S", n)
        assert trace(spec).total == sum_S(2, 3, -1, n)
    for n in range(30):
        spec = PathSpec(2, 3, -1, "Sbar", n)
        assert trace(spec).total == sum_Sbar(2, 3, -1, n)
    for n in range(30):
        spec = PathSpec(4, -2, -1, "T", n)
        assert trace(spec).total == sum_T(4, -2, -1, n)


def test_all_traced_cells_are_in_range():
    for n in range(25):
        for spec in (
            PathSpec(2, 2, -1, "S", n),
            PathSpec(2, 3, -2, "S", n),
            PathSpec(3, -1, -1, "T", n),
            PathSpec(3, -2, -3, "T", n),
        ):
            for row, col in trace(spec).cells:
                assert 0 <= col <= row


class _MemoStore:
    # The store's former design: every row of every order kept in a
    # dict, a missing row built from its nearest held predecessor.
    def __init__(self):
        self._rows = {}

    def cell(self, m, n, k):
        if k < 0 or k > n:
            return 0
        if (m, n) not in self._rows:
            start = n
            while start > 0 and (m, start - 1) not in self._rows:
                start -= 1
            for r in range(start, n + 1):
                if r == 0:
                    row = (1,)
                else:
                    prev = self._rows[m, r - 1]
                    inner = (prev[j] + prev[j - 1] for j in range(1, r))
                    row = (1, *inner, _diagonal(m, r))
                self._rows[m, r] = row
        return self._rows[m, n][k]


def _walk_sum(spec, cell):
    # The former per-index route: walk one path from its start cell,
    # sum what `cell` reads there, and complement the total for Sbar.
    if spec.family == "T":
        start_col, steps = 0, -spec.n // (spec.c + spec.l)
    else:
        start_col, steps = spec.n, spec.n // spec.c
    total = sum(
        cell(spec.m, spec.n + k * spec.l, start_col - k * spec.c)
        for k in range(steps + 1)
    )
    if spec.family == "Sbar":
        return 2 * cell(spec.m, spec.n, spec.n) - total
    return total


@st.composite
def _path_families(draw):
    family = draw(st.sampled_from(("S", "Sbar", "T")))
    l = -draw(st.integers(1, 6))
    c = -draw(st.integers(1, 6)) if family == "T" else draw(st.integers(-l, 8))
    return draw(st.integers(1, 6)), c, l, family, draw(st.integers(0, 60))


@given(_path_families())
@example((2, 1, -1, "S", 60))  # c + l = 0: one diagonal cell feeds every n,
@example((2, 2, -2, "S", 60))  # and a single sum's window is the diagonal alone
@example((3, 1, -1, "Sbar", 60))
@example((3, 3, -2, "S", 60))  # |l| > 1
@example((2, -1, -3, "T", 60))
@example((1, 2, -1, "Sbar", 60))  # m = 1
@example((1, -1, -1, "T", 60))
@example((2, 2, -1, "Sbar", 0))  # n = 0
@example((2, -1, -1, "T", 0))
@example((2, -3, -1, "T", 60))  # |c| > |l|
def test_path_sums_match_memo_walk_and_bruteforce(case):
    # path_sums and each single sum's cone walk against the slow routes.
    m, c, l, family, N = case
    sums = path_sums(m, c, l, family, N)
    assert len(sums) == N + 1
    memo = _MemoStore()
    one_sum = getattr(paths, f"sum_{family}")
    for n, value in enumerate(sums):
        spec = PathSpec(m, c, l, family, n)
        assert value == _walk_sum(spec, memo.cell), n
        assert value == _walk_sum(spec, cell_bruteforce), n
        walk = trace(spec)
        assert walk.values == tuple(cell_bruteforce(m, r, k) for r, k in walk.cells), n
        assert one_sum(m, c, l, n) == walk.total == value, n


@pytest.mark.parametrize(
    "one_sum, args, value",
    [
        (sum_T, (2, -1, -1, 400), fib(403) - (1 << 200)),
        (sum_S, (2, 2, -1, 400), (1 << 401) - fib(402)),
    ],
    ids=("T", "S"),
)
def test_single_sum_reads_no_store_row_past_its_full_cone(monkeypatch, one_sum, args, value):
    # Rows past 200 are narrower than the row at n = 400, so they are stepped
    # over the path's window and never read whole from the store.
    read = []
    row = TriangleStore.row

    def counted_row(self, m, n):
        read.append(n)
        return row(self, m, n)

    monkeypatch.setattr(TriangleStore, "row", counted_row)
    assert one_sum(*args) == value
    assert read and max(read) <= 200


@given(_path_families())
@example((2, 1, -1, "S", 60))
@example((2, -1, -1, "T", 60))
@example((3, 3, -2, "Sbar", 60))
def test_trace_reads_whole_rows_from_the_store_then_steps_cone_windows(case):
    m, c, l, family, n = case
    if family == "T":
        steps, e = n // (-c - l), -c
    else:
        steps, e = n // c, c + l

    def window(r):
        # Steps 0..k lie on rows >= r and reach e*k columns in from their
        # side of row r: the left edge for T, the diagonal for S.
        k = min(steps, (n - r) // -l)
        return (0, min(r, e * k)) if family == "T" else (max(0, r - e * k), r)

    r0 = max(r for r in range(n + 1) if window(r) == (0, r))
    read, stepped = [], []
    row = TriangleStore.row

    def counted_row(self, m, n):
        read.append((m, n))
        return row(self, m, n)

    def counted_step(m, r, prev, lo, hi):
        stepped.append((m, r, lo, hi))
        return step(m, r, prev, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TriangleStore, "row", counted_row)
        patch.setattr(paths, "step", counted_step)
        trace(PathSpec(m, c, l, family, n))
    # Of the whole rows, the store gives those that hold a path cell and
    # the last one, which the first window steps from.
    on_path = {n + k * l for k in range(steps + 1)}
    assert read == [(m, r) for r in range(r0 + 1) if r in on_path or r == r0]
    assert stepped == [(m, r, *window(r)) for r in range(r0 + 1, n + 1)]


def test_path_sums_rejects_inadmissible_families():
    with pytest.raises(InvalidPathSpec):
        path_sums(2, 3, -4, "S", 10)
    with pytest.raises(InvalidPathSpec):
        path_sums(2, 2, -1, "T", 10)


def test_path_sum_memory_is_one_row_deep():
    # The former store kept rows 0..n and peaked near 55 MB here.
    tracemalloc.start()
    try:
        sum_T(2, -1, -1, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
