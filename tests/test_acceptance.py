"""Acceptance gate: one test (and one printed pass line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see each criterion
reported individually; ``-s`` additionally shows the printed lines.
"""

import random
from fractions import Fraction

from btriangles import (
    BINDINGS,
    TriangleStore,
    cell_bruteforce,
    crosscheck,
    derive_QR,
    export_bfile,
    fib,
    lambda_diff,
    lambda_explicit,
    lambda_rec,
    parse_bfile,
    s2_reconstruct,
    sum_S,
    sum_Sbar,
    sum_T,
    telescope,
    tm_closed,
    verify,
)

F = Fraction


def report(k, text):
    print(f"ACCEPTANCE {k:02d} PASS: {text}")


def test_criterion_01_order2_diagonal_sum_closed_form():
    result = verify("theorem1", 300)
    assert result.ok, result.summary()
    assert result.elapsed < 10.0
    report(1, f"double sum = 2^(n+1) - F_(n+2) for n in [0,300] "
              f"({result.elapsed:.2f}s)")


def test_criterion_02_order2_t_sum_closed_form():
    result = verify("resT2", 300)
    assert result.ok, result.summary()
    report(2, "double sum = F_(n+3) - 2^floor((n+1)/2) for n in [0,300]")


def test_criterion_03_order3_diagonal_sum_closed_form():
    result = verify("theoremS3", 300)
    assert result.ok, result.summary()
    report(3, "triple sum = F_(n+3) + (n-1)*2^n for n in [0,300]")


def test_criterion_04_order3_to_5_t_sum_closed_forms():
    # Closed forms carry (-1)^n/2 terms; integrality is asserted inside.
    for name in ("resT3", "T4closed", "T5closed"):
        result = verify(name, 200)
        assert result.ok, result.summary()
    report(4, "order 3/4/5 T-sum closed forms hold for n in [0,200], "
              "rational intermediates integral")


def test_criterion_05_polynomial_derivation_end_to_end():
    for m in range(1, 11):
        pair = derive_QR(m)
        assert pair.Q.degree == max(m - 2, 0)
        assert pair.R.degree == max(m - 3, 0)
        for n in range(121):
            assert tm_closed(m, n) == sum_T(m, -1, -1, n), (m, n)
    printed = {
        2: ((F(1),), ()),
        3: ((F(7, 2), F(1, 2)), (F(1, 2),)),
        4: ((F(10), F(17, 8), F(1, 8)), (F(2), F(1, 4))),
        5: (
            (F(27), F(317, 48), F(5, 8), F(1, 48)),
            (F(6), F(19, 16), F(1, 16)),
        ),
    }
    for m, (q, r) in printed.items():
        pair = derive_QR(m)
        assert pair.Q.coeffs == q, m
        assert pair.R.coeffs == r, m
    report(5, "derived (Q, R) have the stated degrees for m in [1,10], "
              "match T sums for n in [0,120], and reproduce the printed "
              "polynomials for m in {2,3,4,5}")


def test_criterion_06_lambda_three_way_and_reconstruction():
    for c in range(2, 9):
        for n in range(1, 201):
            rec = lambda_rec(c, n)
            assert lambda_diff(c, n) == rec, (c, n)
            assert lambda_explicit(c, n) == rec, (c, n)
    for n in range(1, 201):
        assert lambda_rec(2, n) == fib(n - 1)
    for c in range(2, 9):
        for n in range(121):
            assert s2_reconstruct(c, n) == sum_S(2, c, 1 - c, n), (c, n)
    report(6, "lambda_diff = lambda_rec = lambda_explicit for c in [2,8], "
              "n in [1,200]; lambda(2) is Fibonacci; reconstruction matches "
              "path sums for n in [0,120]")


def test_criterion_07_worked_example_values():
    store = TriangleStore()
    assert store.row(2, 9) == (1, 10, 46, 130, 256, 382, 466, 502, 511, 512)
    assert store.row(3, 9) == (1, 11, 57, 187, 443, 825, 1291, 1793, 2304, 2816)
    assert [sum_Sbar(2, 2, -1, n) for n in range(10)] == [
        1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
    ]
    assert [sum_S(2, 2, -1, n) for n in range(8)] == [
        1, 2, 5, 11, 24, 51, 107, 222,
    ]
    assert [sum_S(2, 3, -2, n) for n in range(8)] == [
        1, 2, 4, 9, 19, 39, 80, 163,
    ]
    assert [sum_T(2, -1, -1, n) for n in range(9)] == [
        1, 1, 3, 4, 9, 13, 26, 39, 73,
    ]
    assert [sum_Sbar(3, 2, -1, n) for n in range(8)] == [
        1, 3, 7, 16, 35, 75, 158, 329,
    ]
    assert [sum_T(3, -1, -1, n) for n in range(8)] == [
        1, 1, 4, 5, 14, 19, 45, 64,
    ]
    report(7, "all worked example rows and sequences reproduce exactly")


def test_criterion_08_triangle_oracle_equivalence():
    store = TriangleStore()
    for m in range(1, 5):
        for n in range(25):
            for k in range(n + 1):
                assert store.cell(m, n, k) == cell_bruteforce(m, n, k), (m, n, k)
    report(8, "memoized cells equal nested-sum brute force for m in [1,4], "
              "n <= 24")


def test_criterion_09_telescoping_inversion():
    rng = random.Random(20260814)
    for _ in range(100):
        u = [rng.randint(-10**9, 10**9) for _ in range(50)]
        v = [u[k] - 2 * u[k - 1] for k in range(1, 50)]
        for n in range(50):
            assert telescope(u[0], v, n) == u[n]
    v3 = [-fib(k - 1) for k in range(1, 201)]
    v4 = [fib(2 * k + 1) for k in range(1, 201)]
    for n in range(201):
        assert telescope(1, v3, n) == fib(n + 2)
        assert telescope(3, v4, n) == fib(2 * n + 4)
    report(9, "telescoping inverts 100 random difference sequences; both "
              "Fibonacci summation relations hold for n in [0,200]")


def test_criterion_10_oeis_crosschecks_offline(tmp_path):
    for oeis_id in sorted(BINDINGS):
        result = crosscheck(oeis_id, 50)
        assert result.ok, result.summary()
    for oeis_id in sorted(BINDINGS):
        path = tmp_path / f"{oeis_id}.txt"
        written = export_bfile(oeis_id, 60, path)
        parsed = parse_bfile(path.read_text(), str(path))
        assert parsed.entries == written.entries
        second = tmp_path / f"{oeis_id}.again.txt"
        export_bfile(oeis_id, 60, second)
        assert second.read_bytes() == path.read_bytes()
    report(10, "all 11 sequence bindings crosscheck on 50 terms against "
               "bundled snapshots; b-file export/parse round-trips "
               "bit-exactly")
