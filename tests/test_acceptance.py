"""Acceptance gate: ten criteria, one test function each.

Each test is self-contained and asserts both the mathematical content and,
where stated, a wall-clock budget. The two extra `*_strict` tests pin known
defects of the published reference table and of the B < A claim at l = 1;
they are strict xfails so a change in either fact shows up as a failure.
"""

import json
import math
import random
import time

import pytest

from oracles import ZERO, chebyshev_s, naive_delta, primes_below
from symmoment import cli, combinatorics, euler, exponents, hecke, sums
from symmoment.symbolic import verify_decomposition
from test_combinatorics import J2_LISTS
from test_exponents import (
    EVEN_PAIRS_6_32,
    MISPRINT_CELL,
    all_cells,
    cell_tolerance,
    trunc_to,
)


def test_criterion_01_coefficient_oracle_equivalence():
    start = time.perf_counter()
    for l in range(1, 9):
        for j in range(1, 9):
            a = combinatorics.coeffs_bruteforce(l, j)
            b = combinatorics.coeffs_closed_form(l, j)
            assert a == b, (l, j)
    elapsed = time.perf_counter() - start
    # seven printed (c, d) half-lists at j = 2 plus the closed l = 2 family
    for l, (c_half, d_half) in J2_LISTS.items():
        c = combinatorics.coeffs_bruteforce(l, 2)
        assert list(c[: l + 1]) == c_half
        assert list(combinatorics.weights(l, 2)) == d_half
    for j in range(1, 9):
        c = combinatorics.coeffs_bruteforce(2, j)
        assert list(c[: j + 1]) == [m + 1 for m in range(j + 1)]
        assert list(combinatorics.weights(2, j)) == [1] * (j + 1)
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.3f}s"


def test_criterion_02_structural_properties():
    for l in range(1, 9):
        for j in range(1, 9):
            c = combinatorics.coeffs_bruteforce(l, j)
            # raises ConsistencyError unless c is palindromic, unimodal and
            # totals (j+1)^l
            combinatorics.check_coeffs(l, j, c)
            lj = l * j
            assert all(c[m] == c[lj - m] for m in range(lj + 1)), (l, j)
            assert all(c[m] <= c[m + 1] for m in range(lj // 2)), (l, j)
            assert all(c[m] >= c[m + 1] for m in range(lj // 2, lj)), (l, j)
            assert sum(c) == (j + 1) ** l, (l, j)


def test_criterion_03_decomposition_identity():
    pairs = [
        (l, j) for l in range(1, 33) for j in range(1, 33) if 4 <= l * j <= 32
    ]
    start = time.perf_counter()
    for l, j in pairs:
        # raises ConsistencyError unless the two sides agree over Z[t]
        lhs = verify_decomposition(l, j)
        w = combinatorics.weights(l, j)
        rhs = sum((wm * chebyshev_s(l * j - 2 * m) for m, wm in enumerate(w)), ZERO)
        assert lhs == rhs, (l, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{len(pairs)} certificates took {elapsed:.3f}s"


def test_criterion_04_degree_identity():
    for l in range(1, 9):
        for j in range(1, 9):
            assert verify_decomposition(l, j)(2) == (j + 1) ** l, (l, j)
            w = combinatorics.weights(l, j)
            degree = sum(wm * (l * j - 2 * m + 1) for m, wm in enumerate(w))
            assert degree == (j + 1) ** l, (l, j)


def test_criterion_05_table_reproduction():
    for l, j, prev_s, th_s, ts_s in all_cells():
        prev = float(exponents.PREVIOUS_EXPONENTS[(l, j)])
        r = exponents.exponent_report(l, j)
        th, ts = r.theta, r.theta_star
        assert trunc_to(prev, prev_s) == prev_s, (l, j)
        assert trunc_to(ts, ts_s) == ts_s, (l, j)
        if (l, j) == MISPRINT_CELL:
            # reference table misprint in its final digit; the formula value
            # is still inside the stated numeric tolerance
            assert trunc_to(th, th_s) == "0.9996856"
            assert abs(th - float(th_s)) <= 5e-5
        else:
            assert trunc_to(th, th_s) == th_s, (l, j)
        assert abs(prev - float(prev_s)) <= cell_tolerance(prev_s), (l, j)
        assert abs(th - float(th_s)) <= cell_tolerance(th_s), (l, j)
        assert abs(ts - float(ts_s)) <= cell_tolerance(ts_s), (l, j)
    assert abs(exponents.exponent_report(2, 2).theta_star - 0.75) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="theta(8,2) is misprinted in the published table; "
    "all other 41 cells match digit-for-digit",
)
def test_criterion_05_strict_all_digits_verbatim():
    for l, j, prev_s, th_s, ts_s in all_cells():
        assert trunc_to(exponents.exponent_report(l, j).theta, th_s) == th_s, (l, j)


def test_criterion_06_proof_consistency():
    for l, j in EVEN_PAIRS_6_32:
        r = exponents.exponent_report(l, j)
        assert abs(r.theta - (1 - 1 / (j**3 * (1 + r.A)))) <= 1e-12, (l, j)
        d_half = combinatorics.weights(l, j)[(l * j) // 2]
        if d_half > 0:
            assert r.B < r.A, (l, j)
        else:
            # l = 1: the central weight vanishes and with it the saving
            assert l == 1 and r.B == r.A, (l, j)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="B < A fails for l = 1 (central weight 0 makes B = A exactly); "
    "the strict universal quantifier over even 6 <= l*j <= 32 is unattainable",
)
def test_criterion_06_strict_quantifier():
    for l, j in EVEN_PAIRS_6_32:
        r = exponents.exponent_report(l, j)
        assert r.B < r.A, (l, j)


def test_criterion_07_euler_local_certification(delta_1e4):
    for l, j in ((2, 2), (3, 2), (2, 3)):
        series = euler.correction_series_sym(l, j, 2)
        assert series.coeffs[1] == ZERO, (l, j)
    pairs = [
        (l, j) for l in range(1, 13) for j in range(1, 13) if 4 <= l * j <= 12
    ]
    rng = random.Random(20240814)
    points = [rng.uniform(-2.0, 2.0) for _ in range(50)]
    for l, j in pairs:
        for t in points:
            series = euler.correction_series(l, j, t, 2)
            assert abs(series.coeffs[1]) <= 1e-9, (l, j, t)
        for p in (2, 3, 5, 7):
            t = delta_1e4.lam(p)
            series = euler.correction_series(l, j, t, 2)
            assert abs(series.coeffs[1]) <= 1e-9, (l, j, p)


def test_criterion_08_hecke_table(delta_1e4):
    start = time.perf_counter()
    big = hecke.eigenform_qexp(12, 100_000)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"tau to 1e5 took {elapsed:.1f}s"
    assert big.raw[:10_001] == delta_1e4.raw

    form = delta_1e4
    assert form.raw[1] == 1
    for p in primes_below(10_001):
        assert abs(form.lam(p)) <= 2.0 + 1e-12, p
    rng = random.Random(20240815)
    done = 0
    while done < 500:
        m = rng.randrange(2, 100)
        n = rng.randrange(2, 10_000 // m)
        if math.gcd(m, n) == 1:
            assert form.raw[m * n] == form.raw[m] * form.raw[n], (m, n)
            done += 1
    for p in primes_below(101):
        c = 1
        while p ** (c + 1) <= 10_000:
            assert (
                form.raw[p ** (c + 1)]
                == form.raw[p] * form.raw[p**c] - p**11 * form.raw[p ** (c - 1)]
            ), (p, c)
            c += 1
    oracle = naive_delta(200)
    assert list(form.raw[:201]) == oracle
    assert form.raw[2] == -24 and form.raw[3] == 252 and form.raw[6] == -6048


def test_criterion_09_partial_sum_properties(delta_1e5):
    N = 100_000

    start = time.perf_counter()
    points = sums.partial_sum(2, 2, delta_1e5)
    coeffs, _ = sums.fit_main_term(2, 2, points)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    assert len(coeffs) == 1  # degree 0
    last8 = points[-8:]
    mean_ratio = sum(s / x for x, s in last8) / 8
    assert abs(coeffs[0] - mean_ratio) <= 0.1 * abs(mean_ratio)

    for l, j in ((1, 5), (3, 3)):
        start = time.perf_counter()
        odd = sums.partial_sum(l, j, delta_1e5)
        elapsed = time.perf_counter() - start
        assert elapsed <= 120.0, (l, j)
        s_final = odd[-1][1]
        assert abs(s_final) / N < 0.1, (l, j)
        for x, s in odd:
            if x >= 1000:
                assert abs(s) <= x**0.99, (l, j, x)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    cache = str(tmp_path)
    runs = [
        ["coeffs", "--l", "4", "--j", "2", "--format", "csv"],
        ["coeffs", "--l", "4", "--j", "2", "--format", "json"],
        ["identity", "--l", "2", "--j", "3", "--format", "json"],
        ["identity", "--l", "2", "--j", "3", "--format", "csv"],
        ["exponents", "--table", "--format", "csv"],
        ["exponents", "--table", "--format", "json"],
        ["euler", "--l", "2", "--j", "2", "--exact", "--format", "json"],
        ["euler", "--l", "2", "--j", "2", "--p", "3", "--cache-dir", cache,
         "--format", "csv"],
        ["tau", "--limit", "50", "--cache-dir", cache, "--format", "csv"],
        ["tau", "--limit", "50", "--cache-dir", cache, "--format", "json"],
        ["partial-sum", "--l", "2", "--j", "2", "--limit", "2000",
         "--cache-dir", cache, "--format", "csv"],
        ["partial-sum", "--l", "2", "--j", "2", "--limit", "2000",
         "--cache-dir", cache, "--format", "json"],
    ]
    for argv in runs:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first, argv
        if argv[-1] == "json":
            json.loads(first)  # well-formed, schema-stable artifact
