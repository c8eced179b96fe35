import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from oracles import ONE, ZERO, chebyshev_s, random_rational_points
from symmoment import combinatorics
from symmoment import symbolic as S
from symmoment.errors import ConsistencyError
from symmoment.symbolic import T, IntPolynomial, verify_decomposition


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
    assert (t**3).coeffs == (0, 0, 0, 1)
    assert t**0 == ONE
    with pytest.raises(ValueError):
        t ** (-1)
    assert 3 * t == t * 3 == IntPolynomial([0, 3])
    assert str(t * t - ONE) == "t^2 - 1"
    assert str(ZERO) == "0"
    assert t and not ZERO
    with pytest.raises(TypeError):
        hash(t)  # __eq__ without __hash__: unhashable, not hashed by identity
    assert IntPolynomial([1, 0, 0]).degree == 0  # trailing zeros normalized


def seeded_polynomial(rng, degree, kind):
    """A polynomial of the given degree with nonzero top coefficient.

    "dense" has no zero coefficient; "even" and "odd" are zero at the other
    parity, as every polynomial the engine forms over Z[t] is; "holes" is
    zero at about half its lower degrees. Coefficients are signed, some
    past one machine word.
    """
    coeffs = []
    for d in range(degree + 1):
        c = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 25))
        if kind == "even" and d % 2 or kind == "odd" and not d % 2:
            c = 0
        elif kind == "holes" and d < degree and rng.random() < 0.5:
            c = 0
        coeffs.append(c)
    return IntPolynomial(coeffs)


def seeded_polynomials(seed):
    rng = random.Random(seed)
    polys = [ZERO, ONE, IntPolynomial([-7]), T]
    kinds = {"dense": (1, 2, 5), "even": (2, 6, 10), "odd": (1, 5, 9), "holes": (3, 8, 13)}
    for kind, degrees in kinds.items():
        polys.extend(seeded_polynomial(rng, d, kind) for d in degrees)
    return polys


def schoolbook(a, b):
    """Coefficients of the product of two coefficient sequences, normalized."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for k in range(len(b)):
            out[i + k] += a[i] * b[k]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_product_matches_schoolbook_in_both_orders():
    polys = seeded_polynomials(11)
    for p in polys:
        for q in polys:
            want = schoolbook(p.coeffs, q.coeffs)
            assert (p * q).coeffs == want, (p, q)
            assert (q * p).coeffs == want, (q, p)


@pytest.mark.parametrize("c", [-3, 0, 1, 7, 2**70])
def test_product_by_an_int_matches_schoolbook(c):
    for p in seeded_polynomials(12):
        want = schoolbook(p.coeffs, (c,))
        assert (p * c).coeffs == want
        assert (c * p).coeffs == want


def test_power_is_the_repeated_product_and_forms_no_larger_one(monkeypatch):
    # square-and-multiply must stop squaring at the top bit of n: a square
    # past it has degree above n * deg p and is never read
    real = IntPolynomial.__mul__
    formed = []

    def recording_mul(self, other):
        out = real(self, other)
        formed.append(out.degree)
        return out

    monkeypatch.setattr(IntPolynomial, "__mul__", recording_mul)
    for p in seeded_polynomials(13):
        for n in range(18):
            formed.clear()
            got = p**n
            assert got == reduce(real, [p] * n, ONE), (p, n)  # real: not recorded
            assert max(formed, default=-1) <= n * max(p.degree, 0), (p, n, formed)
        with pytest.raises(ValueError):
            p ** (-1)


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
        return p + p**0 if top == 6 else p

    monkeypatch.setattr(S, "_power_sum", wrong_top)
    with pytest.raises(ConsistencyError, match=r"decomposition fails at \(l=3, j=2\)"):
        verify_decomposition(3, 2)
    # the two sides the certificate compares differ by exactly the fault,
    # over Z[t] and at an integer point
    lhs = S.local_expansion((1,), 2, T, 1)[1] ** 3
    rhs = S.local_expansion(combinatorics.weights(3, 2), 6, T, 1)[1]
    assert rhs - lhs == ONE
    t0 = 2**20
    assert S._power_sum(combinatorics.weights(3, 2), 6, t0) - S._power_sum((1,), 2, t0) ** 3 == 1


PAIRS_TO_THE_CAP = [
    (l, j) for l in range(1, combinatorics.LJ_CAP + 1) for j in range(1, combinatorics.LJ_CAP // l + 1)
]


def test_decomposition_at_every_pair_to_the_cap():
    # the certificate evaluates at one integer point and decodes S_j(t)^l
    # from its digits; the decode must give every coefficient, the largest
    # at lj = 64 included
    assert len(PAIRS_TO_THE_CAP) == 280
    for l, j in PAIRS_TO_THE_CAP:
        lhs = verify_decomposition(l, j)
        assert lhs == chebyshev_s(j) ** l, (l, j)
        assert lhs(2) == (j + 1) ** l, (l, j)


@pytest.mark.parametrize("l,j", [(8, 8), (64, 1), (1, 64), (2, 32)])
def test_decomposition_refuses_a_fault_with_small_integer_roots(monkeypatch, l, j):
    # the planted difference t^2 - 4 vanishes at t = +-2, so an evaluation
    # at the wrong point would pass it; past Cauchy's root bound it cannot
    real = S._power_sum

    def wrong_top(weights, top, x):
        p = real(weights, top, x)
        return p + x * x - 4 * p**0 if top == l * j and weights != (1,) else p

    monkeypatch.setattr(S, "_power_sum", wrong_top)
    rhs = S.local_expansion(combinatorics.weights(l, j), l * j, T, 1)[1]
    assert rhs - chebyshev_s(j) ** l == IntPolynomial([-4, 0, 1])
    with pytest.raises(ConsistencyError, match=rf"decomposition fails at \(l={l}, j={j}\)"):
        verify_decomposition(l, j)
