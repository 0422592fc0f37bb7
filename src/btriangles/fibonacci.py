"""Fibonacci numbers, a telescoping reconstruction, and the diagonal sum.

The telescoping inversion is the workhorse behind most closed forms in
this package: if v_n = u_n - 2*u_{n-1}, then u_n can be rebuilt from u_0
and the differences as u_n = 2^n*u_0 + sum_{k=1}^{n} 2^{n-k} v_k.
"""

from __future__ import annotations

from typing import Sequence

from .exactnum import binomial

__all__ = ["fib", "telescope", "fib_diag"]


def fib(n: int) -> int:
    """Fibonacci number F_n with F_0 = 0 and F_1 = 1.

    Fast doubling over the bits of n, most significant first, using
    F_2k = F_k (2 F_(k+1) - F_k) and F_(2k+1) = F_k^2 + F_(k+1)^2:
    O(log n) big multiplications and no state kept between calls.
    """
    if n < 0:
        raise ValueError(f"fib requires n >= 0, got {n}")
    a, b = 0, 1  # (F_k, F_(k+1)), k = the leading bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def telescope(u0: int, v: Sequence[int], n: int) -> int:
    """Rebuild u_n from u_0 and the differences v_k = u_k - 2*u_{k-1}.

    ``v`` supplies v_1 .. v_n in order (``v[k-1]`` is v_k), so it needs at
    least ``n`` entries.  Accepts signed differences and may return a
    signed value: several instantiations feed negated Fibonacci numbers.
    """
    if n < 0:
        raise ValueError(f"telescope requires n >= 0, got {n}")
    if len(v) < n:
        raise ValueError(f"telescope needs {n} differences, got {len(v)}")
    total = u0
    for x in v[:n]:
        total = 2 * total + x
    return total


def fib_diag(n: int) -> int:
    """Shallow-diagonal binomial sum: sum_{k=0}^{floor(n/2)} C(n-k, k).

    Evaluates the sum directly; it equals F_{n+1}, which the test suite
    asserts against :func:`fib`.
    """
    if n < 0:
        raise ValueError(f"fib_diag requires n >= 0, got {n}")
    return sum(binomial(n - k, k) for k in range(n // 2 + 1))
