from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from btriangles.fibonacci import fib
from btriangles.gfib import (
    _lambda_stream,
    lambda_diff,
    lambda_explicit,
    lambda_rec,
    lambda_values,
    s2_reconstruct,
)
from btriangles.paths import sum_S


def test_recurrence_shape():
    # Zeros below c, a single 1 at c, then the delayed addition.
    assert [lambda_rec(4, n) for n in range(12)] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 4, 5]
    assert lambda_rec(4, 9) == 3
    assert lambda_rec(3, 7) == 3
    assert lambda_rec(3, 8) == 4
    assert lambda_rec(2, 9) == 21


def test_values_list_matches_single_terms():
    for c in range(2, 9):
        assert lambda_values(c, 40) == [lambda_rec(c, n) for n in range(41)]
    # Only n + 1 entries are allocated, however large the drop.
    assert lambda_values(10**12, 3) == [0, 0, 0, 0]


def test_explicit_values():
    assert lambda_explicit(3, 2) == 0
    assert lambda_explicit(3, 8) == 4
    assert lambda_explicit(2, 10) == 34


def test_diff_values():
    assert lambda_diff(4, 9) == 3
    assert lambda_diff(3, 8) == 4
    assert lambda_diff(2, 9) == 21


def test_three_way_agreement_small():
    for c in range(2, 9):
        for n in range(61):
            rec = lambda_rec(c, n)
            assert lambda_diff(c, n) == rec
            assert lambda_explicit(c, n) == rec


def test_c2_specializes_to_fibonacci():
    for n in range(1, 200):
        assert lambda_rec(2, n) == fib(n - 1)


@settings(max_examples=60)
@given(st.integers(2, 10), st.integers(1, 300))
def test_recurrence_property(c, n):
    if n < c:
        assert lambda_rec(c, n) == 0
    elif n == c:
        assert lambda_rec(c, n) == 1
    else:
        assert lambda_rec(c, n) == lambda_rec(c, n - 1) + lambda_rec(c, n - c)


@given(st.integers(2, 8), st.integers(0, 200))
def test_lambda_stream_matches_the_explicit_sum(c, n):
    expected = [lambda_explicit(c, k) for k in range(n + 1)]
    assert list(islice(_lambda_stream(c), n + 1)) == expected


def test_reconstruction_frozen_values():
    assert s2_reconstruct(3, 7) == 163
    assert s2_reconstruct(2, 7) == 222
    assert s2_reconstruct(9, 0) == 1


def test_reconstruction_matches_path_sum():
    for c in range(2, 9):
        for n in range(61):
            assert s2_reconstruct(c, n) == sum_S(2, c, 1 - c, n)


def test_rejects_bad_arguments():
    for fn in (lambda_rec, lambda_explicit):
        with pytest.raises(ValueError):
            fn(1, 5)
        with pytest.raises(ValueError):
            fn(3, -1)
    with pytest.raises(ValueError):
        lambda_diff(1, 5)
    with pytest.raises(ValueError):
        s2_reconstruct(1, 5)
