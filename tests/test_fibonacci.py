import tracemalloc

from hypothesis import given
from hypothesis import strategies as st
import pytest

from btriangles.fibonacci import fib, fib_diag, telescope


def test_fib_seeds_and_values():
    assert [fib(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert fib(7) == 13
    assert fib(11) == 89


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_large_index_exact():
    # F_100, a well-known 21-digit value; floats could not get this right.
    assert fib(100) == 354224848179261915075


def _fib_additive(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@given(st.integers(0, 2999))
def test_fib_matches_additive_recurrence(n):
    assert fib(n) == _fib_additive(n)


def test_fib_large_index_keeps_no_cache():
    # F_100000 has ~69k bits (~9 kB); caching F_0..F_n would take ~430 MB.
    tracemalloc.start()
    try:
        value = fib(100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert value == _fib_additive(100_000)


def test_telescope_zero_differences_gives_doubling():
    assert telescope(1, [0] * 8, 8) == 256


def test_telescope_frozen_examples():
    # u_n = F_{n+2}: u_0 = 1, v_k = -F_{k-1}.
    assert telescope(1, [-fib(k - 1) for k in range(1, 11)], 10) == fib(12) == 144
    # u_n = F_{2n+4}: u_0 = F_4 = 3, v_k = F_{2k+1}.
    assert telescope(3, [fib(2 * k + 1) for k in range(1, 6)], 5) == fib(14) == 377


def test_telescope_relation_sums_up_to_200():
    v3 = [-fib(k - 1) for k in range(1, 201)]
    v4 = [fib(2 * k + 1) for k in range(1, 201)]
    for n in range(201):
        assert telescope(1, v3, n) == fib(n + 2)
        assert telescope(3, v4, n) == fib(2 * n + 4)


def test_telescope_argument_errors():
    with pytest.raises(ValueError):
        telescope(1, [], -1)
    with pytest.raises(ValueError):
        telescope(1, [1, 2], 3)


@given(
    st.integers(-10**6, 10**6),
    st.lists(st.integers(-10**9, 10**9), min_size=0, max_size=60),
)
def test_telescope_inverts_differences(u0, tail):
    # Build u from arbitrary values, derive v_k = u_k - 2u_{k-1}, rebuild.
    u = [u0] + tail
    v = [u[k] - 2 * u[k - 1] for k in range(1, len(u))]
    for n in range(len(u)):
        assert telescope(u0, v, n) == u[n]


def test_fib_diag_matches_fibonacci():
    assert fib_diag(6) == 13
    assert fib_diag(9) == 55
    for n in range(300):
        assert fib_diag(n) == fib(n + 1)


def test_fib_diag_rejects_negative():
    with pytest.raises(ValueError):
        fib_diag(-2)
