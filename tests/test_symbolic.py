import math
from fractions import Fraction

import pytest

from oracles import chebyshev_s, random_rational_points
from symmoment import combinatorics
from symmoment import symbolic as S
from symmoment.errors import ConsistencyError
from symmoment.symbolic import ONE, T, ZERO, IntPolynomial, verify_decomposition


def engine_s(r):
    # the library's S_r: the X^1 coefficient of the engine at the single
    # weight 1, top r, over Z[t]
    return S.local_expansion((1,), r, T, 1)[1]


def test_basis_polynomials_small():
    assert engine_s(0) == ONE
    assert engine_s(1) == IntPolynomial([0, 1])
    assert engine_s(2) == IntPolynomial([-1, 0, 1])
    assert engine_s(3) == IntPolynomial([0, -2, 0, 1])
    assert engine_s(4) == IntPolynomial([1, 0, -3, 0, 1])


def test_basis_matches_closed_form_oracle():
    for r in range(65):
        assert engine_s(r) == chebyshev_s(r), r


@pytest.mark.parametrize("r", range(0, 20))
def test_basis_monic_of_degree_r(r):
    p = engine_s(r)
    assert p.degree == r
    assert p.coeffs[-1] == 1


def test_recursion_holds():
    for r in range(2, 25):
        assert engine_s(r) == T * engine_s(r - 1) - engine_s(r - 2)


@pytest.mark.parametrize("r", [1, 2, 5, 9, 14])
def test_sine_ratio_identity(r):
    for theta in (0.3, 1.1, 2.0, 2.9):
        want = math.sin((r + 1) * theta) / math.sin(theta)
        got = engine_s(r)(2.0 * math.cos(theta))
        assert abs(got - want) < 1e-9


def test_boundary_values():
    for r in range(12):
        assert engine_s(r)(2) == r + 1
        assert engine_s(r)(-2) == (-1) ** r * (r + 1)


def test_polynomial_arithmetic():
    t = IntPolynomial([0, 1])
    assert t == T
    p = t * t - ONE
    assert p == engine_s(2)
    assert p - p == ZERO
    assert -p == ZERO - p
    assert (t**3).coeffs == (0, 0, 0, 1)
    assert t**0 == ONE
    with pytest.raises(ValueError):
        t ** (-1)
    assert 3 * t == t * 3 == IntPolynomial([0, 3])
    assert str(t * t - ONE) == "t^2 - 1"
    assert str(ZERO) == "0"
    assert IntPolynomial([1, 0, 0]).degree == 0  # trailing zeros normalized


def test_exact_rational_evaluation():
    p = engine_s(6)
    t = Fraction(3, 2)
    # S_6 at 3/2 via the recursion in exact arithmetic
    vals = [Fraction(1), t]
    for _ in range(5):
        vals.append(t * vals[-1] - vals[-2])
    assert p(t) == vals[6]


@pytest.mark.parametrize(
    "l,j", [(2, 2), (3, 2), (2, 3), (1, 4), (4, 1), (5, 2), (3, 4), (2, 7)]
)
def test_decomposition_certificates(l, j):
    lhs = verify_decomposition(l, j)  # raises unless the two sides agree
    c = combinatorics.coeffs_bruteforce(l, j)
    diffs = [c[m] - (c[m - 1] if m else 0) for m in range(l * j // 2 + 1)]
    assert combinatorics.weights(l, j) == tuple(diffs)
    # both sides against the closed-form S_r oracle
    assert lhs == chebyshev_s(j) ** l
    assert lhs == sum((w * chebyshev_s(l * j - 2 * m) for m, w in enumerate(diffs)), ZERO)
    assert lhs.degree == l * j


def test_decomposition_rational_sample():
    # identity of polynomials implies identity of exact values
    lhs_poly = verify_decomposition(3, 3)
    weights = combinatorics.weights(3, 3)
    for t in random_rational_points(10, seed=5):
        lhs = engine_s(3)(t) ** 3
        rhs = sum(w * engine_s(9 - 2 * m)(t) for m, w in enumerate(weights))
        assert lhs == rhs
        assert lhs_poly(t) == lhs


@pytest.mark.parametrize("t", [2.0, 2.0 + 1e-7, -2.0 - 1e-7])
def test_deligne_t_clamps_within_the_slack(t):
    assert S.deligne_t(t) == math.copysign(2.0, t)


@pytest.mark.parametrize("t", [float("nan"), 2.1, -3.0, float("inf")])
def test_deligne_t_rejects_nan_and_values_past_the_slack(t):
    with pytest.raises(ValueError, match=f"t={t} outside the Deligne interval"):
        S.deligne_t(t)


def test_decomposition_reads_the_engine(monkeypatch):
    # the certificate is the engine's X^1 coefficient: a wrong power sum at
    # top lj must break it
    real = S._power_sum

    def wrong_top(weights, top, x):
        p = real(weights, top, x)
        return p + ONE if top == 6 else p

    monkeypatch.setattr(S, "_power_sum", wrong_top)
    with pytest.raises(ConsistencyError, match=r"decomposition fails at \(l=3, j=2\)"):
        verify_decomposition(3, 2)
    # the two sides the certificate compares differ by exactly the fault
    lhs = S.local_expansion((1,), 2, T, 1)[1] ** 3
    rhs = S.local_expansion(combinatorics.weights(3, 2), 6, T, 1)[1]
    assert rhs - lhs == ONE
