import json
import math

import pytest

from symmoment import cli, hecke, sums
from symmoment.errors import FitError


def test_trivial_series_N1(delta_1e4):
    series = sums.partial_sum(1, 1, 1, delta_1e4)
    assert series.checkpoints == ((1, 1.0),)
    assert series.weight == 12 and series.limit == 1


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
    # independent accumulation: math.fsum is exactly rounded
    series = sums.partial_sum(2, 2, 2000, delta_1e4)
    lam = hecke.sym_coeff_sieve(2, 2000, delta_1e4)
    for x, s in series.checkpoints:
        want = math.fsum(lam[n] ** 2 for n in range(1, x + 1))
        assert abs(s - want) <= 1e-9 * max(1.0, abs(want))


def test_second_moment_j1_against_normalized_table(delta_1e4):
    series = sums.partial_sum(2, 1, 500, delta_1e4)
    want = math.fsum(delta_1e4.lam(n) ** 2 for n in range(1, 501))
    assert series.checkpoints[-1] == (500, pytest.approx(want, rel=1e-9))


def test_sym2_sum_against_divisor_identity(delta_1e4, delta_1e6):
    # sum_{n<=N} lam_sym^2(n) = sum_{d^2 m <= N} lam_f(m^2), checked
    # against the normalized level-1 table, which is an independent route
    N = 1000
    series = sums.partial_sum(1, 2, N, delta_1e4)
    terms = []
    d = 1
    while d * d <= N:
        terms.extend(delta_1e6.lam(m * m) for m in range(1, N // (d * d) + 1))
        d += 1
    want = math.fsum(terms)
    got = series.checkpoints[-1][1]
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_partial_sum_deterministic(delta_1e4):
    a = sums.partial_sum(2, 2, 3000, delta_1e4)
    b = sums.partial_sum(2, 2, 3000, delta_1e4)
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


def test_fit_degenerate_degree_rejected(delta_1e4):
    series = sums.partial_sum(1, 2, 200, delta_1e4)
    with pytest.raises(ValueError):
        sums.fit_main_term(series)


def test_fit_window_and_residual_identity(delta_1e4):
    series = sums.partial_sum(2, 2, 5000, delta_1e4)
    fit = sums.fit_main_term(series)
    assert fit.degree == 0
    assert fit.window == series.checkpoints[len(series.checkpoints) // 2 :]
    assert len(fit.residuals) == len(series.checkpoints)
    q = fit.coeffs
    for (x, s), (rx, e) in zip(series.checkpoints, fit.residuals):
        assert rx == x
        main = x * sum(c * math.log(x) ** k for k, c in enumerate(q))
        assert e == pytest.approx(s - main, abs=1e-9)


def test_fit_constant_is_window_mean_ratio(delta_1e4):
    # degree 0 least squares collapses to the mean of S(x)/x on the window
    series = sums.partial_sum(2, 2, 10_000, delta_1e4)
    fit = sums.fit_main_term(series)
    ratios = [s / x for x, s in fit.window]
    assert fit.coeffs[0] == pytest.approx(sum(ratios) / len(ratios), rel=1e-9)


def test_fit_too_few_checkpoints(delta_1e4):
    # degree 14 needs 17 window points; N = 5 has a grid of 5
    series = sums.partial_sum(6, 2, 5, delta_1e4)
    with pytest.raises(FitError):
        sums.fit_main_term(series)


def test_fit_deterministic(delta_1e4):
    series = sums.partial_sum(2, 2, 4000, delta_1e4)
    assert sums.fit_main_term(series) == sums.fit_main_term(series)


def test_residual_exponent_recovers_synthetic_power_law():
    xs = sums.checkpoint_grid(50_000)
    series = sums.PartialSumSeries(
        l=1, j=3, weight=12, limit=50_000,
        checkpoints=tuple((x, x**0.7) for x in xs),
    )
    report = sums.residual_exponent(series)
    assert report is not None
    assert report.points == len(xs)
    assert report.slope == pytest.approx(0.7, abs=1e-9)
    assert report.stderr <= 1e-9


def test_residual_exponent_none_cases(delta_1e4):
    series = sums.partial_sum(1, 3, 50, delta_1e4)
    assert sums.residual_exponent(series) is None  # below the size floor
    zero = sums.PartialSumSeries(
        l=1, j=3, weight=12, limit=1000,
        checkpoints=((100, 0.0), (200, 0.0), (300, 0.0)),
    )
    assert sums.residual_exponent(zero) is None  # no nonzero points
    flat_x = sums.PartialSumSeries(
        l=1, j=3, weight=12, limit=1000,
        checkpoints=((100, 1.0), (100, 2.0), (100, 3.0)),
    )
    assert sums.residual_exponent(flat_x) is None  # zero log-x variance


def test_residual_exponent_uses_fit_residuals(delta_1e4):
    series = sums.partial_sum(2, 2, 5000, delta_1e4)
    fit = sums.fit_main_term(series)
    report = sums.residual_exponent(series, fit)
    assert report is not None
    assert report.slope < 1.0  # residuals grow slower than the main term


def partial_sum_out(capsys, cache, l, j, N, fmt):
    argv = f"partial-sum --l {l} --j {j} --limit {N} --cache-dir {cache} --format {fmt}"
    assert cli.main(argv.split()) == 0
    return capsys.readouterr().out


def test_series_to_csv_schema(capsys, tmp_path, delta_1e4):
    # odd l*j has no fit
    series = sums.partial_sum(1, 3, 1000, delta_1e4)
    bare = partial_sum_out(capsys, tmp_path, 1, 3, 1000, "csv")
    lines = bare.splitlines()
    assert lines[0] == "x,S,main_fit,residual"
    assert len(lines) == len(series.checkpoints) + 1
    assert all(line.endswith(",,") for line in lines[1:])
    series = sums.partial_sum(2, 2, 1000, delta_1e4)
    full = partial_sum_out(capsys, tmp_path, 2, 2, 1000, "csv")
    last = full.splitlines()[-1].split(",")
    x, s = series.checkpoints[-1]
    assert last[0] == str(x) and last[1] == repr(s)
    assert float(last[2]) + float(last[3]) == pytest.approx(s, rel=1e-12)
    assert partial_sum_out(capsys, tmp_path, 2, 2, 1000, "csv") == full


def test_series_to_json_schema(capsys, tmp_path, delta_1e4):
    # odd l*j has no fit, and N < 100 no residual slope
    series = sums.partial_sum(1, 3, 99, delta_1e4)
    doc = json.loads(partial_sum_out(capsys, tmp_path, 1, 3, 99, "json"))
    assert doc["l"] == 1 and doc["j"] == 3
    assert doc["weight"] == 12 and doc["limit"] == 99
    assert doc["fit"] is None and doc["residual_exponent"] is None
    assert doc["checkpoints"] == [[x, s] for x, s in series.checkpoints]
    series = sums.partial_sum(2, 2, 1000, delta_1e4)
    fit = sums.fit_main_term(series)
    resid = sums.residual_exponent(series, fit)
    full = partial_sum_out(capsys, tmp_path, 2, 2, 1000, "json")
    doc2 = json.loads(full)
    assert doc2["fit"]["degree"] == 0
    assert doc2["fit"]["coeffs"] == list(fit.coeffs)
    assert doc2["residual_exponent"]["points"] == resid.points
    assert partial_sum_out(capsys, tmp_path, 2, 2, 1000, "json") == full


def test_partial_sum_domain_errors(delta_1e4):
    with pytest.raises(ValueError):
        sums.partial_sum(0, 2, 100, delta_1e4)
    with pytest.raises(ValueError):
        sums.partial_sum(2, 2, 0, delta_1e4)
    with pytest.raises(ValueError):
        sums.partial_sum(2, 2, 20_000, delta_1e4)  # table too small
