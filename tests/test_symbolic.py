import math
from fractions import Fraction

import pytest

from oracles import random_rational_points
from symmoment import combinatorics
from symmoment.symbolic import ONE, ZERO, IntPolynomial, sym_prime_poly, verify_decomposition


def test_basis_polynomials_small():
    assert sym_prime_poly(0) == ONE
    assert sym_prime_poly(1) == IntPolynomial([0, 1])
    assert sym_prime_poly(2) == IntPolynomial([-1, 0, 1])
    assert sym_prime_poly(3) == IntPolynomial([0, -2, 0, 1])
    assert sym_prime_poly(4) == IntPolynomial([1, 0, -3, 0, 1])


@pytest.mark.parametrize("r", range(0, 20))
def test_basis_monic_of_degree_r(r):
    p = sym_prime_poly(r)
    assert p.degree == r
    assert p.coeffs[-1] == 1


def test_recursion_holds():
    t = IntPolynomial([0, 1])
    for r in range(2, 25):
        assert sym_prime_poly(r) == t * sym_prime_poly(r - 1) - sym_prime_poly(r - 2)


@pytest.mark.parametrize("r", [1, 2, 5, 9, 14])
def test_sine_ratio_identity(r):
    for theta in (0.3, 1.1, 2.0, 2.9):
        want = math.sin((r + 1) * theta) / math.sin(theta)
        got = sym_prime_poly(r)(2.0 * math.cos(theta))
        assert abs(got - want) < 1e-9


def test_boundary_values():
    for r in range(12):
        assert sym_prime_poly(r)(2) == r + 1
        assert sym_prime_poly(r)(-2) == (-1) ** r * (r + 1)


def test_polynomial_arithmetic():
    t = IntPolynomial([0, 1])
    p = t * t - ONE
    assert p == sym_prime_poly(2)
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
    p = sym_prime_poly(6)
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
    cert = verify_decomposition(l, j)
    assert cert.holds
    assert cert.lhs == cert.rhs
    assert cert.lhs.degree == l * j
    d = combinatorics.diff_coeffs(combinatorics.coeffs_bruteforce(l, j))
    assert cert.weights == d.values


def test_decomposition_rational_sample():
    # identity of polynomials implies identity of exact values
    cert = verify_decomposition(3, 3)
    for t in random_rational_points(10, seed=5):
        lhs = sym_prime_poly(3)(t) ** 3
        rhs = sum(w * sym_prime_poly(9 - 2 * m)(t) for m, w in enumerate(cert.weights))
        assert lhs == rhs


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        sym_prime_poly(-1)
