"""Exact rational polynomials and the order-m closed form for T paths.

The up-right path sum T_n of the order-m triangle along steps (-1, -1)
satisfies

    T_n = F_{n+2m-1} - 2^p * (Q(p) + (-1)^n * R(p)),   p = floor((n+1)/2),

where Q and R are rational polynomials of degree (m-2)^+ and (m-3)^+.
:func:`derive_QR` builds them by induction on the order:

    Q' = (A + F_{2m+2} - 1 + Q + R) / 2,    R' = (Q + R) / 2,

with A the discrete sum of Q + R and base case Q = R = 0 at order 1.

The induction holds Q and R in the binomial (Newton) basis C(p, j),
where the discrete sum is a coefficient shift by the hockey-stick
identity sum_{k<x} C(k, j) = C(x, j+1) (Graham, Knuth and Patashnik,
*Concrete Mathematics*, section 2.6).  It runs in integers, on
2^(order-1) Q and 2^(order-1) R; the expansion into monomials runs in
integers too, and only its output becomes one Fraction per coefficient.
:class:`RatPolynomial` keeps monomial coefficients.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm

from .exactnum import Rational
from .fibonacci import fib

__all__ = [
    "RatPolynomial",
    "QRPair",
    "poly_eval",
    "discrete_sum",
    "derive_QR",
    "tm_closed",
]


def _plus(a: Sequence[Rational], b: Sequence[Rational]) -> list[Rational]:
    if len(a) < len(b):
        a, b = b, a
    merged = list(a)
    for k, c in enumerate(b):
        merged[k] += c
    return merged


def _over_lcm(coeffs: Sequence[Rational]) -> tuple[int, tuple[int, ...]]:
    # (d, d*coeffs) in integers, d the least common denominator.
    d = lcm(*(c.denominator for c in coeffs))
    return d, tuple(c.numerator * (d // c.denominator) for c in coeffs)


@dataclass(frozen=True)
class RatPolynomial:
    """Dense univariate polynomial over the rationals.

    ``coeffs[k]`` is the coefficient of X^k; trailing zeros are stripped
    on construction, so the zero polynomial has no coefficients at all.
    ``degree`` reports 0 for the zero polynomial (callers that care use
    ``is_zero`` to tell it apart from a nonzero constant).
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def __add__(self, other: "RatPolynomial") -> "RatPolynomial":
        return RatPolynomial(tuple(_plus(self.coeffs, other.coeffs)))

    def scale(self, factor: Rational | int) -> "RatPolynomial":
        return RatPolynomial(tuple(c * factor for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "X" if k == 1 else f"X^{k}"
                body = var if abs(c) == 1 else f"{abs(c)} {var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class QRPair:
    """The polynomial pair attached to one triangle order."""

    m: int
    Q: RatPolynomial
    R: RatPolynomial

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        # (D, D*Q, D*R) with D the least common denominator of Q and R.
        d, qr = _over_lcm(self.Q.coeffs + self.R.coeffs)
        return d, qr[: len(self.Q.coeffs)], qr[len(self.Q.coeffs) :]


def poly_eval(P: RatPolynomial, x: int) -> Fraction:
    """Evaluate P at x by Horner's rule, exactly."""
    return Fraction(_horner(P.coeffs, x))


def _horner(coeffs: Sequence[Rational], x: int) -> Rational:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _to_newton(P: RatPolynomial) -> list[Fraction]:
    # b[j] = (Delta^j P)(0), so that P(x) = sum_j b[j] * C(x, j).
    b = [poly_eval(P, x) for x in range(len(P.coeffs))]
    for j in range(1, len(b)):
        for i in range(len(b) - 1, j - 1, -1):
            b[i] -= b[i - 1]
    return b


def _from_newton(b: Sequence[Rational]) -> RatPolynomial:
    # Horner's rule over falling factorials in integers, scaled by n! d with
    # n = len(b) and d the least common denominator of b, as
    # C(x, j) = x(x-1)...(x-j+1) / j! and every j! divides n!:
    # n! d P = n!/0! d b[0] + x (n!/1! d b[1] + (x-1) (n!/2! d b[2] + ...)).
    d, num = _over_lcm(b)
    n_factorial = factorial(len(b))
    acc: list[int] = []
    for j in reversed(range(len(b))):
        acc = [0, *acc]
        for k in range(len(acc) - 1):
            acc[k] -= j * acc[k + 1]
        acc[0] += num[j] * (n_factorial // factorial(j))
    return RatPolynomial(tuple(Fraction(c, n_factorial * d) for c in acc))


def _hockey_stick(a: list[Rational]) -> list[Rational]:
    # Summing from k = 0 gives sum_j a[j] C(x, j+1); k = 0 adds P(0) = a[0].
    return [-a[0], *a] if a else []


def discrete_sum(P: RatPolynomial) -> RatPolynomial:
    """The polynomial S with S(x) = sum_{k=1}^{x-1} P(k) for integers x >= 1.

    With P(x) = sum_j a_j C(x, j), a_j the j-th forward difference of P
    at 0, the hockey-stick identity gives S(x) = sum_j a_j C(x, j+1) - a_0:
    a coefficient shift.  S has degree deg(P) + 1 unless P is zero.
    """
    return _from_newton(_hockey_stick(_to_newton(P)))


# Bounded, because a pair's coefficients grow with its order: caching
# orders 1..n without bound holds O(n^3) digits.  `verify --all` reads
# orders 1..10, so a sweep never evicts.
@lru_cache(maxsize=16)
def derive_QR(m: int) -> QRPair:
    """Polynomial pair (Q, R) for the order-m T-path closed form.

    The induction shifts and adds the integer binomial-basis coefficients
    of 2^(order-1) Q and 2^(order-1) R, O(m) integer additions per order;
    only order m is divided by 2^(m-1) and becomes monomial, with one
    Fraction per printed coefficient.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    q: list[int] = []
    r: list[int] = []
    for order in range(2, m + 1):
        qr = _plus(q, r)
        const = (fib(2 * order) - 1) << (order - 2)
        q, r = _plus(_plus(_hockey_stick(qr), qr), [const]), qr
    Q, R = (_from_newton([Fraction(c, 1 << (m - 1)) for c in b]) for b in (q, r))
    return QRPair(m, Q, R)


def qr_closed(pair: QRPair, n: int) -> int:
    """F_{n+2m-1} - 2^p (Q(p) + (-1)^n R(p)) at n >= 0, for the pair's m, Q, R.

    Q(p) + (-1)^n R(p) is evaluated in integers over the pair's least
    common denominator D, and 2^p times it is divided by D exactly: a
    nonzero remainder raises, so a wrong polynomial cannot round its way
    to a wrong integer.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = (n + 1) // 2
    sign = -1 if n % 2 else 1
    d, q, r = pair._integer_form
    shifted = (_horner(q, p) + sign * _horner(r, p)) << p
    quotient, remainder = divmod(shifted, d)
    head = fib(n + 2 * pair.m - 1)
    if remainder:
        raise ArithmeticError(
            f"closed form produced non-integer {head - Fraction(shifted, d)} "
            f"at m={pair.m}, n={n}"
        )
    return head - quotient


def tm_closed(m: int, n: int) -> int:
    """T-path sum of order m at n: :func:`qr_closed` over ``derive_QR(m)``."""
    return qr_closed(derive_QR(m), n)
