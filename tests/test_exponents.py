import inspect
import json
import math
from fractions import Fraction

import pytest

from symmoment import cli, combinatorics
from symmoment import exponents as X
from symmoment.errors import ConsistencyError

# Published reference tables. Digit strings are exactly as printed (values
# truncated, not rounded, by the source); the computed theta(8, 2) is known
# to disagree with the printed string in the final digit, see the xfail.
TABLE1 = [
    # (l, j=2): previous, theta, theta_star
    (2, "0.7642", "0.7604", "0.75"),
    (3, "0.9193", "0.9185", "0.91735537"),
    (4, "0.9737", "0.9734", "0.97311827"),
    (5, "0.99136", "0.991307", "0.99122807"),
    (6, "0.99714", "0.997133", "0.99711149"),
    (7, "0.9990558", "0.9990516", "0.99904598"),
    (8, "0.9996868", "0.9996852", "0.99968408"),
]
TABLE2 = [
    # (j, l=2): previous, theta, theta_star
    (2, "0.764", "0.7604", "0.75"),
    (3, "0.866", "0.8629", "0.86111111"),
    (4, "0.916", "0.9149", "0.91452991"),
    (5, "0.9428", "0.9420", "0.94186046"),
    (6, "0.9583", "0.957865", "0.95780590"),
    (7, "0.9682", "0.967975", "0.96794871"),
    (8, "0.97499", "0.9748248", "0.97481108"),
]

MISPRINT_CELL = (8, 2)  # computed theta truncates to 0.9996856, print says ...2


def trunc_to(x: float, printed: str) -> str:
    return f"{x:.17f}"[: len(printed)]


def cell_tolerance(printed: str) -> float:
    decimals = len(printed) - 2
    return max(5e-5, 10.0**-decimals)


def all_cells():
    for l, prev_s, th_s, ts_s in TABLE1:
        yield l, 2, prev_s, th_s, ts_s
    for j, prev_s, th_s, ts_s in TABLE2:
        yield 2, j, prev_s, th_s, ts_s


@pytest.mark.parametrize("l,j,prev_s,th_s,ts_s", list(all_cells()))
def test_previous_column_digits(l, j, prev_s, th_s, ts_s):
    prev = float(X.PREVIOUS_EXPONENTS[(l, j)])
    assert trunc_to(prev, prev_s) == prev_s


@pytest.mark.parametrize("l,j,prev_s,th_s,ts_s", list(all_cells()))
def test_theta_column_digits(l, j, prev_s, th_s, ts_s):
    th = X.exponent_report(l, j).theta
    if (l, j) == MISPRINT_CELL:
        assert trunc_to(th, th_s) == "0.9996856"  # independently verified digits
    else:
        assert trunc_to(th, th_s) == th_s


@pytest.mark.parametrize("l,j,prev_s,th_s,ts_s", list(all_cells()))
def test_theta_star_column_digits(l, j, prev_s, th_s, ts_s):
    assert trunc_to(X.exponent_report(l, j).theta_star, ts_s) == ts_s


@pytest.mark.parametrize("l,j,prev_s,th_s,ts_s", list(all_cells()))
def test_all_cells_within_absolute_tolerance(l, j, prev_s, th_s, ts_s):
    r = X.exponent_report(l, j)
    assert abs(float(X.PREVIOUS_EXPONENTS[(l, j)]) - float(prev_s)) <= cell_tolerance(prev_s)
    assert abs(r.theta - float(th_s)) <= cell_tolerance(th_s)
    assert abs(r.theta_star - float(ts_s)) <= cell_tolerance(ts_s)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="reference table misprint: the theta(8,2) formula value truncates "
    "to 0.9996856, the printed string ends ...2; the same row's other two "
    "columns and the balancing identity all follow the formula value",
)
def test_theta_8_2_printed_string_verbatim():
    assert trunc_to(X.exponent_report(8, 2).theta, "0.9996852") == "0.9996852"


def test_theta_star_22_is_exactly_three_quarters():
    assert abs(X.exponent_report(2, 2).theta_star - 0.75) <= 1e-12


def test_lj4_closed_form():
    want = 1.0 - 63.0 * math.sqrt(2) / (252.0 * math.sqrt(2) + 4.0 * math.sqrt(15))
    assert X.exponent_report(2, 2).theta == want
    assert X.exponent_report(4, 1).theta == want
    assert X.exponent_report(1, 4).theta == want


def test_even_formula_spot_2_4():
    r = X.exponent_report(2, 4)
    assert r.saving == pytest.approx(0.0850233428, abs=1e-9)
    assert r.theta == pytest.approx(0.9149766571576008, abs=1e-12)


def test_proof_exponents_3_2():
    r = X.exponent_report(3, 2)
    # D=27, d_half=1, d_{half-1}=3; value computed independently by hand
    assert r.A == pytest.approx(0.5342350221232208, abs=1e-12)
    assert r.B == pytest.approx(0.5125, abs=1e-12)
    assert 1 - 1 / (8 * (1 + r.A)) == pytest.approx(r.theta, abs=1e-12)


def test_odd_formula_values():
    def theta(l, j):
        return X.exponent_report(l, j).theta

    assert theta(3, 3) == pytest.approx(1 - 6 / 188, abs=1e-15)  # D=64, e_half=2
    assert theta(1, 5) == pytest.approx(2 / 3, abs=1e-15)  # D=6, e_half=0
    assert theta(5, 1) == pytest.approx(1 - 6 / (3 * 32 - 2 * 5), abs=1e-15)


EVEN_PAIRS_6_32 = [
    (l, j)
    for l in range(1, 33)
    for j in range(1, 33)
    if (l * j) % 2 == 0 and 6 <= l * j <= 32
]


@pytest.mark.parametrize("l,j", EVEN_PAIRS_6_32)
def test_balance_identity(l, j):
    r = X.exponent_report(l, j)
    assert abs(r.theta - (1 - 1 / (j**3 * (1 + r.A)))) <= 1e-12


@pytest.mark.parametrize("l,j", EVEN_PAIRS_6_32)
def test_saving_orders_A_and_B(l, j):
    d_half = combinatorics.weights(l, j)[(l * j) // 2]
    r = X.exponent_report(l, j)
    if d_half > 0:
        assert r.B < r.A
    else:
        assert r.B == r.A  # the saving term is identically zero when l = 1


def test_theta_in_unit_interval_and_below_star():
    for l, j in EVEN_PAIRS_6_32:
        r = X.exponent_report(l, j)
        th, ts = r.theta, r.theta_star
        assert 0.0 < th < 1.0
        assert ts <= th


# top weights (D, e_half) at which the odd saving 6 / (3 D - 2 e_half)
# evaluates to each bad value
BAD_SAVING_WEIGHTS = {0.0: (math.inf, 0), -1e-17: (0, 3 * 10**17), 1.0: (2, 0)}


@pytest.mark.parametrize("bad", [0.0, -1e-17, 1.0])
def test_exponent_report_rejects_saving_outside_unit_interval(monkeypatch, bad):
    # the range check reads 1 - theta itself, so it stays strict where
    # theta alone would round to 1.0
    D, e_half = BAD_SAVING_WEIGHTS[bad]
    assert 6.0 / (3 * D - 2 * e_half) == bad
    monkeypatch.setattr(X, "_top_weights", lambda l, j: (D, e_half, 0))
    with pytest.raises(ConsistencyError, match="theta out of range"):
        X.exponent_report(3, 3)


PAIRS_4_64 = [(l, j) for l in range(1, 65) for j in range(1, 65) if 4 <= l * j <= 64]


def test_one_exponent_engine():
    # theta is 1 - saving bit for bit; theta_star exists exactly for even
    # l*j, A and B exactly for the generic even branch
    for l, j in PAIRS_4_64:
        r = X.exponent_report(l, j)
        assert r.theta == 1.0 - r.saving, (l, j)
        assert (r.theta_star is None) == (l * j % 2 == 1), (l, j)
        assert (r.A is None) == (l * j % 2 == 1 or l * j == 4), (l, j)
        # the baseline it was certified against, None off the table
        assert r.previous == X.PREVIOUS_EXPONENTS.get((l, j)), (l, j)
    # the table reads the same engine
    for r in X.reference_table():
        assert r == X.exponent_report(r.l, r.j)
        assert r.previous == X.PREVIOUS_EXPONENTS[(r.l, r.j)]


def test_exponent_report_reads_the_top_weights_once(monkeypatch):
    reads = []
    real = X._top_weights

    def counted(l, j):
        reads.append((l, j))
        return real(l, j)

    monkeypatch.setattr(X, "_top_weights", counted)
    for l, j in [(2, 2), (3, 3), (3, 2), (1, 6)]:
        reads.clear()
        X.exponent_report(l, j)
        assert reads == [(l, j)]


def test_monotone_along_table_directions():
    t1 = [X.exponent_report(l, 2).theta for l in range(2, 9)]
    t2 = [X.exponent_report(2, j).theta for j in range(2, 9)]
    assert t1 == sorted(t1) and len(set(t1)) == len(t1)
    assert t2 == sorted(t2) and len(set(t2)) == len(t2)


def test_reference_table_rows():
    rows = X.reference_table()
    assert len(rows) == 14
    for row in rows:
        previous = X.PREVIOUS_EXPONENTS[(row.l, row.j)]
        assert row.theta < previous  # float vs Fraction, compared exactly
        assert row.theta_star < row.theta


def test_exponent_report_flags():
    assert X.exponent_report(2, 2).flags == ()
    assert "extrapolated" in X.exponent_report(1, 4).flags
    r41 = X.exponent_report(4, 1)
    assert "extrapolated" in r41.flags and "j1-degenerate" in r41.flags
    odd = X.exponent_report(3, 3)
    assert odd.parity == "odd"
    assert "no-reference-value" in odd.flags
    assert odd.theta_star is None and odd.A is None
    assert combinatorics.weights(3, 3)[9 // 2] == 2  # e_half


def test_domain_errors():
    with pytest.raises(ValueError):
        X.exponent_report(1, 3)
    with pytest.raises(ValueError):
        X.exponent_report(0, 8)
    # no refined exponent for odd l*j, no A or B outside lj >= 6 even
    assert X.exponent_report(3, 3).theta_star is None
    assert X.exponent_report(2, 2).A is None
    assert X.exponent_report(1, 5).A is None


def exponents_out(capsys, argv):
    assert cli.main(f"exponents {argv}".split()) == 0
    return capsys.readouterr().out


def test_serialization_deterministic(capsys):
    # the table starts with the j = 2 rows, l = 2..8
    csv = exponents_out(capsys, "--table --format csv")
    doc = exponents_out(capsys, "--table --format json")
    assert exponents_out(capsys, "--table --format csv") == csv
    assert exponents_out(capsys, "--table --format json") == doc
    header = csv.splitlines()[0]
    assert header == "l,j,parity,D,theta,theta_star,previous,improved"
    parsed = json.loads(doc)
    assert parsed[0]["previous"] == "389/509"
    assert parsed[1]["theta"] == X.exponent_report(3, 2).theta


def test_report_row_odd_case_nulls(capsys):
    [row] = json.loads(exponents_out(capsys, "--l 3 --j 3 --format json"))
    assert row["theta_star"] is None
    assert row["previous"] is None and row["improved"] is None


def test_previous_exponents_are_exact_fractions():
    assert X.PREVIOUS_EXPONENTS[(3, 2)] == Fraction(1367, 1487)
    assert all(0 < f < 1 for f in X.PREVIOUS_EXPONENTS.values())


def test_exponent_report_is_an_immutable_value():
    r = X.exponent_report(2, 2)
    fields = "l j parity D A B saving theta theta_star flags previous".split()
    assert list(inspect.signature(X.ExponentReport).parameters) == fields
    assert X.ExponentReport(*(getattr(r, f) for f in fields)) == r
    assert r == X.exponent_report(2, 2) and r != X.exponent_report(3, 2)
    assert type(r.previous) is Fraction
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
    assert r.theta == X.exponent_report(2, 2).theta
