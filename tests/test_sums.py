import json
import math

import numpy as np
import pytest

from symmoment import cli, hecke, sums
from symmoment.errors import CapacityError, FitError


def test_trivial_series_N1(table):
    assert sums.partial_sum(1, 1, table(1)) == ((1, 1.0),)


def test_checkpoint_grid_shape():
    grid = sums.checkpoint_grid(100_000)
    assert len(grid) == 24
    assert grid == sorted(set(grid))
    assert grid[-1] == 100_000
    assert grid[0] == math.ceil(100_000 / 1.25**23)
    small = sums.checkpoint_grid(10)
    assert small[0] == 1 and small[-1] == 10
    assert len(small) < 24  # rounding collapses the early entries


def test_partial_sum_matches_fsum_oracle(delta_1e4):
    # independent accumulation: math.fsum is correctly rounded, and so is S(x)
    for l, j in ((2, 2), (1, 4), (3, 3), (6, 2), (64, 1)):
        points = sums.partial_sum(l, j, delta_1e4)
        terms = hecke.sym_coeff_sieve(j, delta_1e4, l).tolist()
        assert [x for x, _ in points] == sums.checkpoint_grid(delta_1e4.limit)
        for x, s in points:
            assert s == math.fsum(terms[1 : x + 1]), (l, j, x)


def test_partial_sum_is_exact_with_subnormal_terms(delta_1e5):
    # at 10^4 the least (64, 1) term is about 3e-289; at 10^5 some terms are
    # subnormal, which the exact sum carries in units of 2^-1126
    terms = hecke.sym_coeff_sieve(1, delta_1e5, 64).tolist()
    assert any(0.0 < abs(v) < 2.0**-1022 for v in terms)
    for x, s in sums.partial_sum(64, 1, delta_1e5):
        assert s == math.fsum(terms[1 : x + 1]), x


def test_second_moment_j1_against_normalized_table(table, delta_1e4):
    points = sums.partial_sum(2, 1, table(500))
    want = math.fsum(delta_1e4.lam(n) ** 2 for n in range(1, 501))
    assert points[-1] == (500, pytest.approx(want, rel=1e-9))


def test_sym2_sum_against_divisor_identity(table, delta_1e6):
    # sum_{n<=N} lam_sym^2(n) = sum_{d^2 m <= N} lam_f(m^2), checked
    # against the normalized level-1 table, which is an independent route
    N = 1000
    points = sums.partial_sum(1, 2, table(N))
    terms = []
    d = 1
    while d * d <= N:
        terms.extend(delta_1e6.lam(m * m) for m in range(1, N // (d * d) + 1))
        d += 1
    want = math.fsum(terms)
    got = points[-1][1]
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_partial_sum_deterministic(table):
    a = sums.partial_sum(2, 2, table(3000))
    b = sums.partial_sum(2, 2, table(3000))
    assert a == b  # bit-identical floats, not just approx


def test_default_fit_degree():
    assert sums.default_fit_degree(2, 2) == 0
    assert sums.default_fit_degree(2, 4) == 0  # l = 2 keeps d identically 1
    assert sums.default_fit_degree(4, 2) == 2
    assert sums.default_fit_degree(6, 2) == 14
    # l = 1 has vanishing central weight: no polynomial main term
    assert sums.default_fit_degree(1, 2) == -1
    with pytest.raises(ValueError):
        sums.default_fit_degree(3, 3)


def test_fit_degenerate_degree_rejected(table):
    points = sums.partial_sum(1, 2, table(200))
    with pytest.raises(FitError, match="degree must be nonnegative, got -1"):
        sums.fit_main_term(1, 2, points)


def test_fit_window_and_residual_identity(table):
    points = sums.partial_sum(2, 2, table(5000))
    q, residuals = sums.fit_main_term(2, 2, points)
    assert len(q) == 1  # degree 0
    assert len(residuals) == len(points)
    for (x, s), (rx, e) in zip(points, residuals):
        assert rx == x
        main = x * sum(c * math.log(x) ** k for k, c in enumerate(q))
        assert e == pytest.approx(s - main, abs=1e-9)


def test_fit_constant_is_window_mean_ratio(table):
    # degree 0 least squares collapses to the mean of S(x)/x on the window
    points = sums.partial_sum(2, 2, table(10_000))
    coeffs, _ = sums.fit_main_term(2, 2, points)
    ratios = [s / x for x, s in points[len(points) // 2 :]]
    assert coeffs[0] == pytest.approx(sum(ratios) / len(ratios), rel=1e-9)


def test_fit_too_few_checkpoints(table):
    # degree 14 needs 17 window points; N = 5 has a grid of 5
    points = sums.partial_sum(6, 2, table(5))
    with pytest.raises(FitError):
        sums.fit_main_term(6, 2, points)


def test_fit_deterministic(table):
    points = sums.partial_sum(2, 2, table(4000))
    assert sums.fit_main_term(2, 2, points) == sums.fit_main_term(2, 2, points)


def test_residual_exponent_recovers_synthetic_power_law():
    xs = sums.checkpoint_grid(50_000)
    report = sums.residual_exponent(tuple((x, x**0.7) for x in xs))
    assert report is not None
    slope, stderr, n = report
    assert n == len(xs)
    assert slope == pytest.approx(0.7, abs=1e-9)
    assert stderr <= 1e-9


def test_residual_exponent_none_cases(table):
    points = sums.partial_sum(1, 3, table(50))
    assert sums.residual_exponent(points) is None  # below the size floor
    zero = ((100, 0.0), (200, 0.0), (300, 0.0))
    assert sums.residual_exponent(zero) is None  # no nonzero points
    flat_x = ((100, 1.0), (100, 2.0), (100, 3.0))
    assert sums.residual_exponent(flat_x) is None  # zero log-x variance


def test_residual_exponent_uses_fit_residuals(table):
    points = sums.partial_sum(2, 2, table(5000))
    _, residuals = sums.fit_main_term(2, 2, points)
    report = sums.residual_exponent(residuals)
    assert report is not None
    assert report[0] < 1.0  # residuals grow slower than the main term


def partial_sum_out(capsys, cache, l, j, N, fmt):
    argv = f"partial-sum --l {l} --j {j} --limit {N} --cache-dir {cache} --format {fmt}"
    assert cli.main(argv.split()) == 0
    return capsys.readouterr().out


def test_series_to_csv_schema(capsys, tmp_path, table):
    # odd l*j has no fit
    points = sums.partial_sum(1, 3, table(1000))
    bare = partial_sum_out(capsys, tmp_path, 1, 3, 1000, "csv")
    lines = bare.splitlines()
    assert lines[0] == "x,S,main_fit,residual"
    assert len(lines) == len(points) + 1
    assert all(line.endswith(",,") for line in lines[1:])
    points = sums.partial_sum(2, 2, table(1000))
    full = partial_sum_out(capsys, tmp_path, 2, 2, 1000, "csv")
    last = full.splitlines()[-1].split(",")
    x, s = points[-1]
    assert last[0] == str(x) and last[1] == repr(s)
    assert float(last[2]) + float(last[3]) == pytest.approx(s, rel=1e-12)
    assert partial_sum_out(capsys, tmp_path, 2, 2, 1000, "csv") == full


def test_series_to_json_schema(capsys, tmp_path, table):
    # odd l*j has no fit, and N < 100 no residual slope
    points = sums.partial_sum(1, 3, table(99))
    doc = json.loads(partial_sum_out(capsys, tmp_path, 1, 3, 99, "json"))
    assert doc["l"] == 1 and doc["j"] == 3
    assert doc["weight"] == 12 and doc["limit"] == 99
    assert doc["fit"] is None and doc["residual_exponent"] is None
    assert doc["checkpoints"] == [[x, s] for x, s in points]
    points = sums.partial_sum(2, 2, table(1000))
    coeffs, residuals = sums.fit_main_term(2, 2, points)
    slope, stderr, n = sums.residual_exponent(residuals)
    full = partial_sum_out(capsys, tmp_path, 2, 2, 1000, "json")
    doc2 = json.loads(full)
    assert doc2["fit"]["degree"] == 0
    assert doc2["fit"]["coeffs"] == list(coeffs)
    assert doc2["residual_exponent"] == {"slope": slope, "stderr": stderr, "points": n}
    assert partial_sum_out(capsys, tmp_path, 2, 2, 1000, "json") == full


def test_partial_sum_domain_errors(table):
    with pytest.raises(ValueError, match="must be positive integers"):
        sums.partial_sum(0, 2, table(100))
    with pytest.raises(CapacityError, match=r"l\*j = 65 exceeds the size cap 64"):
        sums.partial_sum(13, 5, table(100))
    with pytest.raises(ValueError, match="N must be positive"):
        table(0)  # a table's size is checked where the table is made


@pytest.mark.filterwarnings("error")  # and no numpy RuntimeWarning on the way
def test_partial_sum_out_of_float_range_is_a_domain_error(table, monkeypatch):
    # no pair within the cap overflows, so the terms are planted: a term
    # that overflowed, as 1e200^2 would, is inf
    monkeypatch.setattr(sums, "sym_coeff_sieve", lambda j, form, l: np.array([0.0, math.inf, 1.0]))
    with pytest.raises(ValueError, match=r"l out of range: S\(1\) .* at l=2"):
        sums.partial_sum(2, 1, table(2))
    # every term is finite, but their sum is not
    monkeypatch.setattr(sums, "sym_coeff_sieve", lambda j, form, l: np.array([0.0, 1e308, 1e308]))
    with pytest.raises(ValueError, match=r"l out of range: S\(2\) .* at l=1"):
        sums.partial_sum(1, 1, table(2))
