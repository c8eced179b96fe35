import random
import time
from fractions import Fraction

import pytest

from oracles import ONE, ZERO, chebyshev_s, sym_prime_power_gauss
from symmoment import cli, combinatorics
from symmoment import euler as E
from symmoment import hecke as H
from symmoment import symbolic as S
from symmoment.errors import CapacityError, ConsistencyError
from symmoment.symbolic import T, IntPolynomial

LJ_4_TO_12 = [
    (l, j) for l in range(1, 13) for j in range(1, 13) if 4 <= l * j <= 12
]


def assert_degree(l, j, want):
    # the certified decomposition at t = 2, and the weight sum it stands for
    assert S.verify_decomposition(l, j)(2) == want
    w = combinatorics.weights(l, j)
    assert sum(wm * (l * j - 2 * m + 1) for m, wm in enumerate(w)) == want


@pytest.mark.parametrize("l,j", [(l, j) for l in range(1, 9) for j in range(1, 9)])
def test_degree_identity(l, j):
    assert_degree(l, j, (j + 1) ** l)


def test_degree_examples():
    assert_degree(2, 2, 9)
    assert_degree(3, 2, 27)
    assert_degree(3, 1, 8)


def test_lhs_basic_values():
    for l, j, t in [(2, 2, 0.3), (3, 1, -1.2), (1, 5, 1.1)]:
        lhs = E.lhs_local(l, j, t, 3)
        assert lhs[0] == 1.0
        want1 = chebyshev_s(j)(t) ** l
        assert lhs[1] == pytest.approx(want1, rel=1e-12, abs=1e-12)


def test_lhs_weight2_j1_closed_form():
    for t in (0.7, -1.1, 1.9):
        lhs = E.lhs_local(2, 1, t, 2)
        assert lhs[2] == pytest.approx((t * t - 1) ** 2, rel=1e-12)


def test_rhs_first_order_is_decomposition_value():
    for l, j, t in [(2, 2, 0.4), (3, 2, -0.9), (2, 3, 1.3)]:
        rhs = E.rhs_local(l, j, t, 2)
        assert rhs[0] == 1.0
        # independent evaluation through the basis decomposition weights
        want = sum(
            w * chebyshev_s(l * j - 2 * m)(t)
            for m, w in enumerate(combinatorics.weights(l, j))
        )
        assert rhs[1] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_rhs_boundary_degree_count():
    assert E.rhs_local(2, 2, 2.0, 1)[1] == pytest.approx(9.0, abs=1e-9)


def test_correction_x1_vanishes_floating():
    rng = random.Random(31)
    for l, j in LJ_4_TO_12:
        for _ in range(5):
            t = rng.uniform(-2, 2)
            q = E.correction_series(l, j, t, 3)
            assert q[0] == 1.0
            assert abs(q[1]) <= 1e-9, (l, j, t)


def test_correction_x1_vanishes_at_delta_primes(delta_1e4):
    for p in (2, 3, 5, 7):
        t = delta_1e4.lam(p)
        for l, j in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            q = E.correction_series(l, j, t, 4)
            assert abs(q[1]) <= 1e-9


def test_correction_x2_generally_nonzero():
    q = E.correction_series(2, 2, 0.7, 3)
    assert abs(q[2]) > 1e-3


def test_correction_boundary_point():
    # at t = 2 every root degenerates to 1 and X^1 must still cancel
    for l, j in LJ_4_TO_12:
        q = E.correction_series(l, j, 2.0, 2)
        assert abs(q[1]) <= 1e-9


# ---------------------------------------------------------------------------
# symbolic mode


@pytest.mark.parametrize("l,j", [(2, 2), (3, 2), (2, 3)])
def test_symbolic_correction_x1_is_zero_polynomial(l, j):
    q = E.correction_series_sym(l, j, 4)
    assert q[0] == ONE
    assert q[1] == ZERO


@pytest.mark.parametrize("l,j", [(8, 8), (16, 4), (4, 16), (64, 1), (1, 64)])
def test_symbolic_correction_x1_is_zero_at_the_size_cap(l, j):
    # lj = 64 is combinatorics.LJ_CAP; (8, 8) has 43 million roots
    q = E.correction_series_sym(l, j, 6)
    assert q[0] == ONE
    assert q[1] == ZERO


def test_symbolic_integrality_guard(monkeypatch):
    # a wrong p_2 leaves 2 h_2 with an odd constant term, which Newton's
    # identities cannot divide by 2 in Z[t]
    real = S._power_sum

    def wrong_p2(weights, top, x):
        p = real(weights, top, x)
        return p + ONE if x.degree == 2 else p

    monkeypatch.setattr(S, "_power_sum", wrong_p2)
    with pytest.raises(ConsistencyError):
        E.rhs_local(2, 2, T, 4)
    with pytest.raises(ConsistencyError):
        E.correction_series_sym(3, 2, 4)


@pytest.mark.parametrize("A", [0, 1, 4])
def test_symbolic_x1_is_the_decomposition_certificate(monkeypatch, A):
    # a wrong p_1 shifts both X^1 terms, so S_j^l no longer expands over the
    # basis. A shift by 6 multiplies each side by exp(6X), whose coefficients
    # 6^n/n! are integers up to n = 4: Newton's identities still divide
    # exactly, and only verify_decomposition can refuse it, at every order.
    # p_1 is the power sum at x = t: T itself over Z[t], or the integer
    # point at which the certificate evaluates
    real = S._power_sum

    def wrong_p1(weights, top, x):
        p = real(weights, top, x)
        return p + 6 * p**0 if x is T or isinstance(x, int) else p

    monkeypatch.setattr(S, "_power_sum", wrong_p1)
    with pytest.raises(ConsistencyError, match=r"decomposition fails at \(l=2, j=2\)"):
        E.correction_series_sym(2, 2, A)


def patch_top_of_powers(monkeypatch):
    # every power n >= 2 of a nonconstant polynomial gains 1 at its top
    # coefficient: a fault in the Z[t] arithmetic that builds the returned
    # series, which verify_decomposition, evaluating at an integer, never uses
    real = IntPolynomial.__pow__

    def wrong_pow(self, n):
        p = real(self, n)
        if n < 2 or self.degree < 1:
            return p
        return IntPolynomial(p.coeffs[:-1] + (p.coeffs[-1] + 1,))

    monkeypatch.setattr(IntPolynomial, "__pow__", wrong_pow)


def test_symbolic_x1_term_is_read_where_it_is_returned(monkeypatch):
    patch_top_of_powers(monkeypatch)
    S.verify_decomposition(3, 3)  # the certificate alone still passes
    with pytest.raises(ConsistencyError, match=r"decomposition fails at \(l=3, j=3\)"):
        E.correction_series_sym(3, 3, 2)


def test_symbolic_x1_term_fault_exits_3_through_the_cli(monkeypatch, capsys):
    patch_top_of_powers(monkeypatch)
    code = cli.main(["euler", "--l", "3", "--j", "3", "--exact", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "internal error: decomposition fails at (l=3, j=3)\n"


def test_symbolic_x2_values_are_recorded_polynomials():
    q = E.correction_series_sym(2, 2, 2)
    assert q[2] == IntPolynomial([-1, 0, 2, 0, -1])  # -(t^2-1)^2


def test_symbolic_first_order_identity():
    for l, j in [(2, 2), (3, 2), (2, 3), (4, 1)]:
        lhs = E.lhs_local(l, j, T, 1)
        rhs = E.rhs_local(l, j, T, 1)
        assert lhs[1] == rhs[1]


def sym_prime_power_poly(j, a):
    # lam_sym^j(p^a) as a polynomial in t, exactly over Z[t]
    return H.local_expansion((1,), j, E.T, a)[a]


def test_sym_prime_power_poly_base_cases():
    for j in range(1, 9):
        assert sym_prime_power_poly(j, 0) == ONE
        assert sym_prime_power_poly(j, 1) == chebyshev_s(j)


def test_sym_prime_power_poly_j1_gives_basis():
    # for j = 1 the power-a value is the degree-a basis polynomial
    for a in range(0, 9):
        assert sym_prime_power_poly(1, a) == chebyshev_s(a)


def test_sym_prime_power_poly_matches_gaussian_binomial_oracle():
    for j in range(1, 9):
        for a in range(0, 11):
            assert sym_prime_power_poly(j, a) == sym_prime_power_gauss(j, a), (j, a)


def test_float_vs_symbolic_agreement():
    rng = random.Random(41)
    cases = [(2, 2, 3), (3, 2, 3), (2, 3, 3), (6, 4, 6), (7, 4, 6), (8, 3, 6), (10, 2, 6)]
    for l, j, order in cases:
        fs = E.correction_series_sym(l, j, order)
        rs = E.rhs_local(l, j, T, order)
        for _ in range(5):
            den = rng.randint(1, 50)
            tf = Fraction(rng.randint(-2 * den, 2 * den), den)
            qf = E.correction_series(l, j, float(tf), order)
            rf = E.rhs_local(l, j, float(tf), order)
            for a in range(order + 1):
                exact = float(fs[a](tf))
                assert qf[a] == pytest.approx(exact, rel=1e-7, abs=1e-7), (l, j, a)
                # rhs coefficients reach D^a / a!, so the error is measured
                # against the exact value at the float t itself
                exact = rs[a](Fraction(float(tf)))
                assert abs(rf[a] - exact) <= 1e-8 * max(1, abs(exact)), (l, j, a, tf)


def test_series_normalization_guard():
    with pytest.raises(ConsistencyError):
        E.LocalFactorSeries((0.5, 1.0))


def test_local_factor_series_is_an_immutable_value():
    for t in (0.5, T):
        s = E.lhs_local(2, 2, t, 3)
        assert s == E.lhs_local(2, 2, t, 3) and s != E.rhs_local(3, 2, t, 3)
        assert s == E.LocalFactorSeries(s.coeffs) and s[1] == s.coeffs[1]
        with pytest.raises(AttributeError):
            s.coeffs = (1.0,)
        with pytest.raises(AttributeError):
            del s.coeffs
        assert s == E.lhs_local(2, 2, t, 3)


def test_domain_errors():
    with pytest.raises(ValueError):
        E.lhs_local(0, 2, 0.5)
    with pytest.raises(ValueError):
        E.rhs_local(2, 2, 2.7)
    with pytest.raises(ValueError):
        E.lhs_local(2, 2, 0.5, -1)


@pytest.mark.parametrize("fn", [E.lhs_local, E.rhs_local, E.correction_series])
def test_nan_t_is_rejected(fn):
    # abs(nan) > 2 is False: a NaN must not pass the Deligne test as t = 2
    with pytest.raises(ValueError, match="t=nan outside the Deligne interval"):
        fn(2, 2, float("nan"), 3)


def test_order_cap_raises_before_any_work():
    # (8, 8) at lj = 64 takes 1.5-2.4 s at the cap, and about 10 s at order 24
    A = E.ORDER_CAP + 1
    start = time.perf_counter()
    for call in (
        lambda: E.lhs_local(8, 8, T, A),
        lambda: E.rhs_local(8, 8, T, A),
        lambda: E.correction_series_sym(8, 8, A),
    ):
        with pytest.raises(CapacityError, match=f"order {A} exceeds limit"):
            call()
    for fn in (E.lhs_local, E.rhs_local, E.correction_series):
        with pytest.raises(CapacityError, match=f"order {A} exceeds limit"):
            fn(2, 2, 0.5, A)
    assert time.perf_counter() - start < 1.0


def test_float_series_at_the_order_cap():
    q = E.correction_series(2, 2, 0.5, E.ORDER_CAP)
    assert len(q.coeffs) == E.ORDER_CAP + 1
    assert abs(q[1]) <= 1e-12


def test_correction_at_real_satake_parameters_various_weights():
    for weight in (16, 18):
        tab = H.eigenform_qexp(weight, 16)
        t = tab.lam(2)
        q = E.correction_series(2, 2, t, 3)
        assert abs(q[1]) <= 1e-9
