"""Generalized Fibonacci sequences attached to second-order path sums.

For a column drop c >= 2, the difference sequence

    lambda_n(c) = S2_n(c, 1 - c) - 2 * S2_{n-1}(c, 1 - c)

(with S2 the order-2 path sum along steps (c, 1 - c)) vanishes for
n < c, equals 1 at n = c, and afterwards obeys the delayed recurrence
lambda_n = lambda_{n-1} + lambda_{n-c}.  c = 2 recovers the Fibonacci
numbers: lambda_n(2) = F_{n-1}.

Three independent routes to the same values live here: the defining
difference of path sums, the recurrence, and an explicit binomial sum.
Inverting the difference by telescoping rebuilds the path sum itself.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count

from .exactnum import binomial
from .fibonacci import telescope
from .paths import path_sums

__all__ = ["lambda_diff", "lambda_rec", "lambda_explicit", "s2_reconstruct"]


def _check_args(c: int, n: int) -> None:
    if c < 2:
        raise ValueError(f"column drop must be >= 2, got {c}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")


def lambda_diff(c: int, n: int) -> int:
    """lambda_n(c) from its definition as a difference of path sums."""
    _check_args(c, n)
    if n == 0:
        return 0
    sums = path_sums(2, c, 1 - c, "S", n)
    return sums[n] - 2 * sums[n - 1]


def lambda_values(c: int, n: int) -> list[int]:
    """The list lambda_0(c)..lambda_n(c), by lambda_k = lambda_{k-1} + lambda_{k-c}."""
    _check_args(c, n)
    values = [int(k == c) for k in range(n + 1)]
    for k in range(c + 1, n + 1):
        values[k] = values[k - 1] + values[k - c]
    return values


def lambda_rec(c: int, n: int) -> int:
    """lambda_n(c) from the recurrence lambda_n = lambda_{n-1} + lambda_{n-c}."""
    return lambda_values(c, n)[n]


def lambda_explicit(c: int, n: int) -> int:
    """lambda_n(c) as the binomial sum over i of C(n - c + i*(1 - c), i).

    The upper binomial index decreases with i and the terms vanish once
    it drops below i, so the sum over 0 <= i <= (n - c) // (c - 1) is
    exact without an explicit in-range test.
    """
    _check_args(c, n)
    if n < c:
        return 0
    return sum(
        binomial(n - c + i * (1 - c), i) for i in range((n - c) // (c - 1) + 1)
    )


def _lambda_stream(c: int) -> Iterator[int]:
    """lambda_0(c), lambda_1(c), ... by the binomial sum of :func:`lambda_explicit`.

    Term i is C(a, i) with a = n - c - i*(c - 1).  From n - 1 to n each
    term moves to C(a, i) = C(a - 1, i) a/(a - i), an exact division, and
    term i joins as C(i, i) = 1 when n - c = i*c, so no binomial is
    computed afresh.
    """
    terms: list[int] = []
    for n in count():
        terms = [
            t * a // (a - i)
            for i, (t, a) in enumerate(zip(terms, range(n - c, 0, 1 - c)))
        ]
        if n - c == len(terms) * c:
            terms.append(1)
        yield sum(terms)


def s2_reconstruct(c: int, n: int) -> int:
    """Rebuild S2_n(c, 1 - c) as 2^n + sum_k 2^(n-k) lambda_k(c).

    Telescopes the defining difference back up from S2_0 = 1; the test
    suite checks the result against the direct path sum.
    """
    return telescope(1, lambda_values(c, n)[1:], n)
