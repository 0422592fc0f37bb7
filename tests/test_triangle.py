import sys
import threading
from itertools import count, islice
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from btriangles import bruteforce, triangle
from btriangles.bruteforce import cell_bruteforce
from btriangles.identities import REGISTRY
from btriangles.triangle import Cursor, TriangleStore, rows, step


@pytest.fixture(scope="module")
def store():
    return TriangleStore()


def test_order1_is_pascal(store):
    assert store.row(1, 5) == (1, 5, 10, 10, 5, 1)
    assert store.cell(1, 5, 2) == 10


def test_small_rows(store):
    assert store.row(2, 3) == (1, 4, 7, 8)
    assert store.row(3, 3) == (1, 5, 12, 20)


def test_worked_rows_order2_and_3(store):
    assert store.row(2, 9) == (1, 10, 46, 130, 256, 382, 466, 502, 511, 512)
    assert store.row(3, 9) == (1, 11, 57, 187, 443, 825, 1291, 1793, 2304, 2816)


def test_single_cells(store):
    assert store.cell(2, 9, 4) == 256
    assert store.cell(3, 9, 4) == 443
    assert store.cell(4, 6, 3) == 111


def test_boundaries(store):
    for m in range(1, 5):
        for n in range(61):
            assert store.cell(m, n, 0) == 1
    # Known diagonals: order 2 doubles, order 3 is (n+2)*2^(n-1).
    for n in range(61):
        assert store.cell(2, n, n) == 2**n
    for n in range(1, 61):
        assert store.cell(3, n, n) == (n + 2) * 2 ** (n - 1)


def test_recurrence_sweep(store):
    for m in range(1, 6):
        for n in range(2, 61):
            for k in range(1, n):
                assert store.cell(m, n, k) == (
                    store.cell(m, n - 1, k) + store.cell(m, n - 1, k - 1)
                )


def test_order_stacking(store):
    # Each order's row is the running prefix sum of the order below.
    for m in range(2, 6):
        for n in range(61):
            below = store.row(m - 1, n)
            acc = 0
            for k, expected in enumerate(store.row(m, n)):
                acc += below[k]
                assert expected == acc, (m, n, k)


_PROPERTY_STORE = TriangleStore()


@given(st.integers(1, 4), st.integers(2, 40), st.data())
def test_interior_pascal_rule(m, n, data):
    k = data.draw(st.integers(1, n - 1))
    store = _PROPERTY_STORE
    assert store.cell(m, n, k) == store.cell(m, n - 1, k) + store.cell(m, n - 1, k - 1)


@given(st.integers(1, 6), st.integers(1, 40), st.data())
def test_windowed_step_matches_the_full_row(m, r, data):
    # A window that reaches the diagonal holds at least two columns.
    hi = data.draw(st.integers(0, r))
    lo = data.draw(st.integers(0, min(hi, r - 1)))
    prev, full = islice(rows(m), r - 1, r + 1)
    window = prev[max(lo - 1, 0) : min(hi, r - 1) + 1]
    assert triangle.step(m, r, window, lo, hi) == full[lo : hi + 1]


def test_out_of_range_columns_read_zero(store):
    assert store.cell(2, 5, 6) == 0
    assert store.cell(2, 5, -1) == 0


def test_rejects_bad_indices(store):
    with pytest.raises(ValueError):
        store.row(0, 3)
    with pytest.raises(ValueError):
        store.row(2, -1)
    # A missing triangle is an error even where a column would vanish.
    for m, n, k in ((0, 3, 7), (-5, 2, 9), (2, -1, 0)):
        with pytest.raises(ValueError):
            store.cell(m, n, k)


def test_rows_are_memoized(store):
    assert store.row(2, 12) is store.row(2, 12)


def test_store_holds_one_row_per_order(monkeypatch):
    stepped = []

    def counted_step(m, r, prev, lo, hi):
        stepped.append((m, r))
        return step(m, r, prev, lo, hi)

    monkeypatch.setattr(triangle, "step", counted_step)
    store = TriangleStore()
    for n in range(40):
        store.row(2, n)
        store.row(3, n)
    # The next row on from the held one is stepped.
    assert stepped == [(m, r) for r in range(1, 40) for m in (2, 3)]
    assert store._held == {2: (39, store.row(2, 39)), 3: (39, store.row(3, 39))}
    # An earlier row is built, with no step, and held; the row after it is
    # stepped from there.
    stepped.clear()
    assert store.row(2, 30) == tuple(_passes_row(2, 30))
    assert stepped == [] and store._held[2] == (30, store.row(2, 30))
    assert store.row(2, 31) == tuple(_passes_row(2, 31))
    assert stepped == [(2, 31)]
    # A near earlier row is built too, with no step from row 0.
    assert store.row(2, 3) == (1, 4, 7, 8)
    assert stepped == [(2, 31)] and store._held[2] == (3, (1, 4, 7, 8))
    # Rows up to 8 past the held one are stepped; one further is built.
    store.row(2, 11)
    assert stepped == [(2, 31), *((2, r) for r in range(4, 12))]
    store.row(2, 20)
    assert stepped[-1] == (2, 11) and store._held[2][0] == 20
    assert store._held[3] == (39, store.row(3, 39))


def test_a_far_read_from_a_cold_store_steps_no_row(monkeypatch):
    stepped = []

    def counted_step(*args):
        stepped.append(args[:2])
        return step(*args)

    monkeypatch.setattr(triangle, "step", counted_step)
    row = TriangleStore().row(2, 2000)
    assert stepped == []
    assert len(row) == 2001 and row[-1] == 1 << 2000
    assert row[1000] == sum(comb(2000, j) for j in range(1001))


@st.composite
def _store_reads(draw):
    # Reads of up to three interleaved orders: forward and backward jumps,
    # repeats and, where n lands next to the held row, single-row steps.
    orders = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(orders), st.integers(0, 400)), max_size=10))


@settings(deadline=None)
@given(_store_reads())
@example([(2, 300), (2, 301), (2, 301), (2, 100), (40, 400), (40, 3), (2, 5), (1, 400)])
def test_store_reads_in_any_order_match_the_stepped_rows(reads):
    store = TriangleStore()
    got = [store.row(m, n) for m, n in reads]
    stepped = {}
    for m in {m for m, _ in reads}:
        wanted = {n for k, n in reads if k == m}
        stepped.update(
            ((m, n), row) for n, row in zip(range(max(wanted) + 1), rows(m)) if n in wanted
        )
    for (m, n), row in zip(reads, got):
        assert row == stepped[m, n], (m, n)
        assert row[-1] == cell_bruteforce(m, n, n), (m, n)


def _squares():
    return map(lambda i: i * i, count())


@given(st.lists(st.integers(0, 60), max_size=30))
def test_cursor_calls_in_any_order_match_a_fresh_stream(calls):
    starts = []

    def start():
        starts.append(None)
        return _squares()

    cursor = Cursor(start)
    held, restarts = -1, 1
    for n in calls:
        assert cursor(n) == next(islice(_squares(), n, None)), n
        restarts += n < held
        held = n
    # A stream starts on the first call and again only for an earlier index.
    assert len(starts) == (restarts if calls else 0)
    with pytest.raises(ValueError):
        cursor(-1)


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 40)), max_size=20))
def test_store_rows_in_any_order_match_bruteforce(reads):
    store = TriangleStore()
    for m, n in reads:
        assert store.row(m, n) == tuple(cell_bruteforce(m, n, k) for k in range(n + 1))


def test_a_stream_that_raised_restarts_on_the_next_call(monkeypatch):
    # An interrupt mid-advance must not leave a dead stream held, which
    # would make every later call at or past its index raise StopIteration.
    # theorem1 and S2diff view one shared oracle cursor; both must recover.
    views = [REGISTRY[name].oracle for name in ("theorem1", "S2diff")]
    assert views[0].cursor is views[1].cursor
    expected = [[view(n) for n in range(8)] for view in views]
    s_sums = bruteforce.s_sums

    def interrupted_s_sums(*args):
        yield from islice(s_sums(*args), 3)
        raise KeyboardInterrupt

    def interrupted_step(m, r, *args):
        if r == 3:
            raise KeyboardInterrupt
        return step(m, r, *args)

    monkeypatch.setattr(bruteforce, "s_sums", interrupted_s_sums)
    monkeypatch.setattr(triangle, "step", interrupted_step)
    store = TriangleStore()
    for view in views:
        with pytest.raises(KeyboardInterrupt):
            view(5)
    with pytest.raises(KeyboardInterrupt):
        store.row(2, 5)
    monkeypatch.undo()
    assert views[1](6) == expected[1][6]
    assert views[0](7) == expected[0][7]
    assert store.row(2, 6) == (1, 7, 22, 42, 57, 63, 64)


def test_bruteforce_values():
    assert cell_bruteforce(2, 4, 2) == 11
    assert cell_bruteforce(3, 7, 6) == 448
    assert cell_bruteforce(2, 5, 5) == 32


def test_bruteforce_rejects_out_of_range():
    with pytest.raises(ValueError):
        cell_bruteforce(2, 5, 6)
    with pytest.raises(ValueError):
        cell_bruteforce(2, 5, -1)
    with pytest.raises(ValueError):
        cell_bruteforce(0, 5, 2)
    with pytest.raises(ValueError):
        cell_bruteforce(2, -1, 0)


def _convolution(m, n, k):
    # cell(m, n, k) = sum_j C(n, j) C(k - j + m - 2, m - 2) for m >= 2.
    return sum(comb(n, j) * comb(k - j + m - 2, m - 2) for j in range(k + 1))


def _passes_row(m, n):
    # The oracle's former route: the binomial row, then m - 1 in-place
    # prefix-sum passes.
    row = [comb(n, q) for q in range(n + 1)]
    for _ in range(m - 1):
        acc = 0
        for i, value in enumerate(row):
            acc += value
            row[i] = acc
    return row


@given(st.integers(1, 10), st.integers(0, 80), st.data())
def test_bruteforce_matches_passes_and_convolution(m, n, data):
    k = data.draw(st.integers(0, n))
    cell = cell_bruteforce(m, n, k)
    assert cell == _passes_row(m, n)[k]
    if m >= 2:
        assert cell == _convolution(m, n, k)


@settings(deadline=None)
@given(st.integers(1, 1200), st.integers(0, 80), st.integers(0, 81))
@example(1, 80, 40)
@example(2, 9, 9)
@example(1200, 80, 3)
def test_built_row_and_the_next_stepped_row_match_bruteforce(m, n, k):
    # The two series-recurrence routes at any order: a row built whole
    # and the diagonal stepped from its last two entries.
    built = triangle._built_row(m, n)
    stepped = triangle.step(m, n + 1, built, 0, n + 1)
    for r, row in ((n, built), (n + 1, stepped)):
        assert len(row) == r + 1
        for q in (min(k, r), r):
            assert row[q] == cell_bruteforce(m, r, q), (m, r, q)


def test_high_order_row_builds_no_lower_order():
    store = TriangleStore()
    assert store.row(1200, 3) == (1, 1202, 723000, 290161598)
    assert store.row(1200, 3) == tuple(_convolution(1200, 3, k) for k in range(4))
    # A far row is built by the series recurrence, again without a lower order.
    assert store.row(1200, 1000)[-1] == _convolution(1200, 1000, 1000)
    assert set(store._held) == {1200}


class _CrossOrderStore:
    # The store's former builder: the last entry of row r is the sum of
    # row r one order down, so order m builds every order below it.
    def __init__(self):
        self._rows = {}

    def row(self, m, n):
        got = self._rows.get((m, n))
        if got is None:
            got = self._build_row(m, n)
        return got

    def _build_row(self, m, n):
        start = n
        while start > 0 and (m, start - 1) not in self._rows:
            start -= 1
        for r in range(start, n + 1):
            if (m, r) in self._rows:
                continue
            if r == 0:
                row = (1,)
            else:
                prev = self._rows[m, r - 1]
                mid = [1]
                mid.extend(prev[k] + prev[k - 1] for k in range(1, r))
                mid.append(prev[r - 1] if m == 1 else sum(self.row(m - 1, r)))
                row = tuple(mid)
            self._rows[m, r] = row
        return self._rows[m, n]


_CROSS_ORDER = _CrossOrderStore()


@given(st.integers(2, 40), st.integers(0, 120))
def test_diagonal_matches_cross_order_sum_and_convolution(m, n):
    diagonal = TriangleStore().cell(m, n, n)
    assert diagonal == sum(_CROSS_ORDER.row(m - 1, n))
    assert diagonal == _convolution(m, n, n)


def test_cell_matches_bruteforce(store):
    for m in range(1, 5):
        for n in range(25):
            for k in range(n + 1):
                assert store.cell(m, n, k) == cell_bruteforce(m, n, k)


def test_concurrent_row_builds_agree():
    store = TriangleStore()
    results = {}

    def worker(tag):
        results[tag] = [store.row(3, n) for n in range(60)]

    # A short switch interval makes the threads interleave inside row().
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = [TriangleStore().row(3, n) for n in range(60)]
    assert sorted(results) == list(range(8))
    for tag in results:
        assert results[tag] == expected
