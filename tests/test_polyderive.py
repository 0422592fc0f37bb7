from fractions import Fraction
from itertools import zip_longest
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from btriangles.fibonacci import fib
from btriangles.identities import _PRINTED_QR, verify_all
from btriangles.paths import sum_T
from btriangles.polyderive import (
    QRPair,
    RatPolynomial,
    _from_newton,
    _to_newton,
    derive_QR,
    discrete_sum,
    poly_eval,
    qr_closed,
    tm_closed,
)

F = Fraction


def test_trailing_zeros_stripped():
    p = RatPolynomial((F(1), F(2), F(0), F(0)))
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert not p.is_zero


def test_zero_polynomial():
    z = RatPolynomial((F(0), F(0)))
    assert z.coeffs == ()
    assert z.is_zero
    assert z.degree == 0
    assert str(z) == "0"
    assert poly_eval(z, 17) == 0


def test_addition_and_scaling():
    p = RatPolynomial((F(1), F(2)))
    q = RatPolynomial((F(3), F(-2), F(5)))
    assert (p + q).coeffs == (F(4), F(0), F(5))
    assert p.scale(F(1, 2)).coeffs == (F(1, 2), F(1))
    # Cancellation down to zero.
    assert (p + p.scale(-1)).is_zero


def test_print_format():
    assert str(RatPolynomial((F(27), F(317, 48), F(5, 8), F(1, 48)))) == (
        "1/48 X^3 + 5/8 X^2 + 317/48 X + 27"
    )
    assert str(RatPolynomial((F(-4), F(15, 4), F(1, 4)))) == "1/4 X^2 + 15/4 X - 4"
    assert str(RatPolynomial((F(7, 2), F(1, 2)))) == "1/2 X + 7/2"
    assert str(RatPolynomial((F(1),))) == "1"
    assert str(RatPolynomial((F(0), F(-1)))) == "-X"


def test_poly_eval_examples():
    assert poly_eval(RatPolynomial((F(7, 2), F(1, 2))), 3) == 5
    assert poly_eval(RatPolynomial((F(10), F(17, 8), F(1, 8))), 2) == F(59, 4)


def test_discrete_sum_examples():
    one = RatPolynomial((F(1),))
    assert discrete_sum(one).coeffs == (F(-1), F(1))  # X - 1
    x = RatPolynomial((F(0), F(1)))
    assert discrete_sum(x).coeffs == (F(0), F(-1, 2), F(1, 2))  # X^2/2 - X/2
    mixed = RatPolynomial((F(4), F(1, 2)))
    assert discrete_sum(mixed).coeffs == (F(-4), F(15, 4), F(1, 4))
    assert discrete_sum(RatPolynomial(())).is_zero


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(max_denominator=20, min_value=-10, max_value=10),
        min_size=1,
        max_size=7,
    )
)
def test_discrete_sum_matches_defining_sum(coeffs):
    p = RatPolynomial(tuple(coeffs))
    s = discrete_sum(p)
    for x in range(1, 31):
        assert poly_eval(s, x) == sum(poly_eval(p, k) for k in range(1, x))
    if not p.is_zero:
        assert s.degree == p.degree + 1


def test_derived_pairs_match_printed_polynomials():
    assert derive_QR(1).Q.is_zero and derive_QR(1).R.is_zero
    assert derive_QR(2).Q.coeffs == (F(1),)
    assert derive_QR(2).R.is_zero
    assert derive_QR(3).Q.coeffs == (F(7, 2), F(1, 2))
    assert derive_QR(3).R.coeffs == (F(1, 2),)
    assert derive_QR(4).Q.coeffs == (F(10), F(17, 8), F(1, 8))
    assert derive_QR(4).R.coeffs == (F(2), F(1, 4))
    assert derive_QR(5).Q.coeffs == (F(27), F(317, 48), F(5, 8), F(1, 48))
    assert derive_QR(5).R.coeffs == (F(6), F(19, 16), F(1, 16))


def test_degree_law_up_to_12():
    for m in range(1, 13):
        pair = derive_QR(m)
        assert pair.m == m
        assert pair.Q.degree == max(m - 2, 0)
        assert pair.R.degree == max(m - 3, 0)


def test_derive_rejects_bad_order():
    with pytest.raises(ValueError):
        derive_QR(0)


def test_tm_closed_frozen_values():
    assert tm_closed(1, 6) == 13
    assert tm_closed(2, 8) == 73
    assert tm_closed(3, 7) == 64


def test_tm_closed_matches_path_sum():
    for m in range(1, 7):
        for n in range(61):
            assert tm_closed(m, n) == sum_T(m, -1, -1, n)


def test_tm_closed_rejects_negative_index():
    with pytest.raises(ValueError):
        tm_closed(2, -1)


def _fraction_qr(pair, n):
    # The evaluator's former route: Fraction Horner's rule on Q and R.
    p = (n + 1) // 2
    sign = -1 if n % 2 else 1
    return fib(n + 2 * pair.m - 1) - (1 << p) * (
        poly_eval(pair.Q, p) + sign * poly_eval(pair.R, p)
    )


@given(st.integers(1, 30), st.integers(0, 400))
def test_qr_closed_matches_fraction_evaluation(m, n):
    for pair in (derive_QR(m), *_PRINTED_QR.values()):
        assert qr_closed(pair, n) == _fraction_qr(pair, n), (pair.m, n)


_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=16)


@given(
    st.lists(_RATIONALS, max_size=4),
    st.lists(_RATIONALS, max_size=3),
    st.integers(1, 6),
    st.integers(0, 60),
)
def test_qr_closed_raises_exactly_on_non_integer_values(q, r, m, n):
    pair = QRPair(m, RatPolynomial(tuple(q)), RatPolynomial(tuple(r)))
    value = _fraction_qr(pair, n)
    if value.denominator == 1:
        assert qr_closed(pair, n) == value
    else:
        with pytest.raises(ArithmeticError):
            qr_closed(pair, n)


def test_qr_closed_rejects_non_integer_value():
    # F_3 - 2^0 * 1/3 is not an integer: the evaluator must not round it.
    pair = QRPair(2, RatPolynomial((F(1, 3),)), RatPolynomial(()))
    with pytest.raises(ArithmeticError):
        qr_closed(pair, 0)


# Reference route for derive_QR: the same induction with each discrete
# sum found by sampling the defining sum and Lagrange interpolation.


def _lagrange(points):
    result = RatPolynomial(())
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = [F(1)]
        denom = F(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            shifted = [F(0)] + basis
            basis = [s - xj * b for s, b in zip(shifted, basis + [F(0)])]
            denom *= xi - xj
        result = result + RatPolynomial(tuple(basis)).scale(yi / denom)
    return result


def _sampled_discrete_sum(p):
    if p.is_zero:
        return p
    points = []
    acc = F(0)
    for x in range(1, p.degree + 4):
        points.append((x, acc))
        acc += poly_eval(p, x)
    return _lagrange(points)


def _reference_pairs(m_max):
    q = r = RatPolynomial(())
    pairs = [(q, r)]
    for m in range(2, m_max + 1):
        qr = q + r
        const = RatPolynomial((F(fib(2 * m) - 1),))
        q = (_sampled_discrete_sum(qr) + const + qr).scale(F(1, 2))
        r = qr.scale(F(1, 2))
        pairs.append((q, r))
    return pairs


def test_derive_matches_lagrange_reference_up_to_20():
    for m, (q, r) in enumerate(_reference_pairs(20), start=1):
        pair = derive_QR(m)
        assert pair.Q.coeffs == q.coeffs
        assert pair.R.coeffs == r.coeffs


# Frozen copy of derive_QR's former Fraction route: the induction halves
# every Newton coefficient at each order, and the expansion to monomials
# divides every coefficient at each step.


def _fraction_from_newton(b):
    acc = []
    for j in reversed(range(len(b))):
        acc = [F(0), *acc]
        for k in range(len(acc) - 1):
            acc[k] -= j * acc[k + 1]
        acc = [c / (j + 1) for c in acc]
        acc[0] += b[j]
    return RatPolynomial(tuple(acc))


def _fraction_pairs(m_max):
    q = r = []
    yield RatPolynomial(()), RatPolynomial(())
    for m in range(2, m_max + 1):
        qr = [a + b for a, b in zip_longest(q, r, fillvalue=F(0))]
        shifted = [-qr[0], *qr] if qr else []
        step = [a + b for a, b in zip_longest(shifted, qr, fillvalue=F(0))] or [F(0)]
        step[0] += fib(2 * m) - 1
        q, r = [c / 2 for c in step], [c / 2 for c in qr]
        yield _fraction_from_newton(q), _fraction_from_newton(r)


def test_derive_matches_fraction_route_up_to_60():
    for m, (q, r) in enumerate(_fraction_pairs(60), start=1):
        pair = derive_QR(m)
        assert pair.Q.coeffs == q.coeffs, m
        assert pair.R.coeffs == r.coeffs, m


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(max_denominator=50, min_value=-100, max_value=100),
        max_size=13,
    )
)
def test_newton_round_trip_is_identity(coeffs):
    p = RatPolynomial(tuple(coeffs))
    b = _to_newton(p)
    assert len(b) == len(p.coeffs)
    assert _from_newton(b) == p
    for x in range(len(b) + 2):
        assert poly_eval(p, x) == sum(c * comb(x, j) for j, c in enumerate(b))


def _t_path_oracle(m, n):
    # T_n = sum_k cell(n - k, k), k <= n/2, with the order-m cell
    # cell(r, k) = sum_j C(r, j) C(k - j + m - 2, m - 2), for m >= 2.
    return sum(
        comb(n - k, j) * comb(k - j + m - 2, m - 2)
        for k in range(n // 2 + 1)
        for j in range(k + 1)
    )


@pytest.mark.parametrize("m", [30, 50, 80])
def test_tm_closed_high_order_matches_binomial_oracle(m):
    for n in (0, 1, 7, 64, 151, 200):
        assert tm_closed(m, n) == _t_path_oracle(m, n)


def test_derive_cache_is_bounded():
    # An unbounded cache over orders 1..n holds O(n^3) digits.
    derive_QR.cache_clear()
    for m in range(1, 41):
        derive_QR(m)
    assert derive_QR.cache_info().currsize <= 16


def test_verify_sweep_derives_each_order_once():
    # `verify --all` reads orders 1..10, which the bounded cache holds whole.
    derive_QR.cache_clear()
    verify_all(30)
    assert derive_QR.cache_info().misses == 10
