import math

import pytest

from oracles import coeffs_closed_form, weights_closed_form
from symmoment import combinatorics as C
from symmoment.errors import CapacityError, ConsistencyError

ALL_PAIRS = [(l, j) for l in range(1, 9) for j in range(1, 9)]

# reference half-vectors for j = 2, l = 2..8
J2_LISTS = {
    2: ([1, 2, 3], [1, 1, 1]),
    3: ([1, 3, 6, 7], [1, 2, 3, 1]),
    4: ([1, 4, 10, 16, 19], [1, 3, 6, 6, 3]),
    5: ([1, 5, 15, 30, 45, 51], [1, 4, 10, 15, 15, 6]),
    6: ([1, 6, 21, 50, 90, 126, 141], [1, 5, 15, 29, 40, 36, 15]),
    7: ([1, 7, 28, 77, 161, 266, 357, 393], [1, 6, 21, 49, 84, 105, 91, 36]),
    8: (
        [1, 8, 36, 112, 266, 504, 784, 1016, 1107],
        [1, 7, 28, 76, 154, 238, 280, 232, 91],
    ),
}


@pytest.mark.parametrize("l,j", ALL_PAIRS)
def test_closed_form_matches_bruteforce(l, j):
    assert coeffs_closed_form(l, j) == C.coeffs_bruteforce(l, j)


@pytest.mark.parametrize("l", sorted(J2_LISTS))
def test_reference_lists_j2(l):
    c = C.coeffs_bruteforce(l, 2)
    d = C.weights(l, 2)
    want_c, want_d = J2_LISTS[l]
    assert list(c[: l + 1]) == want_c
    assert list(d) == want_d


@pytest.mark.parametrize("j", range(2, 9))
def test_reference_family_l2(j):
    # at l = 2 the half-vector is 1, 2, ..., j+1 and all differences are 1
    c = C.coeffs_bruteforce(2, j)
    d = C.weights(2, j)
    assert list(c[: j + 1]) == [m + 1 for m in range(j + 1)]
    assert all(v == 1 for v in d)


@pytest.mark.parametrize("l,j", ALL_PAIRS)
def test_structure(l, j):
    c = C.coeffs_bruteforce(l, j)
    C.check_coeffs(l, j, c)  # raises on any failed property
    assert sum(c) == (j + 1) ** l
    lj = l * j
    for m in range(lj + 1):
        assert c[m] == c[lj - m]
    assert all(c[m] <= c[m + 1] for m in range(lj // 2))
    assert all(c[m] >= c[m + 1] for m in range(lj // 2, lj))


# each vector breaks exactly one property at (l, j) = (2, 2), whose
# certified c is (1, 2, 3, 2, 1)
CORRUPTED = {
    "not palindromic": (1, 2, 3, 1, 2),
    "not unimodal": (1, 3, 1, 3, 1),
    "totals 10": (1, 2, 4, 2, 1),
}


@pytest.mark.parametrize("message", sorted(CORRUPTED))
def test_check_coeffs_raises_on_each_corruption(message):
    # the structural checks run before the identity, so each vector meets
    # the one property it breaks
    with pytest.raises(ConsistencyError, match=message):
        C.check_coeffs(2, 2, CORRUPTED[message])


def test_check_coeffs_raises_on_a_structured_vector_that_is_not_c():
    # palindromic, unimodal and totalling 27 = 3^3, but not c at (3, 2),
    # which is (1, 3, 6, 7, 6, 3, 1): only the identity at x = 2^B refuses it
    C.check_coeffs(3, 2, C.coeffs_bruteforce(3, 2))
    with pytest.raises(ConsistencyError, match=r"c is not \[x\^m\] .* at \(l=3, j=2\)"):
        C.check_coeffs(3, 2, (1, 3, 5, 9, 5, 3, 1))


# every pair within the size cap
CAP_PAIRS = [
    (l, j) for l in range(1, C.LJ_CAP + 1) for j in range(1, C.LJ_CAP + 1) if l * j <= C.LJ_CAP
]


def test_check_coeffs_certifies_c_and_refuses_every_unit_change_at_every_pair():
    assert len(CAP_PAIRS) == 280
    for l, j in CAP_PAIRS:
        c = C.coeffs_bruteforce(l, j)
        C.check_coeffs(l, j, c)
        for m in range(len(c)):
            for step in (1, -1):
                bad = c[:m] + (c[m] + step,) + c[m + 1 :]
                with pytest.raises(ConsistencyError):
                    C.check_coeffs(l, j, bad)
        # a wrong length is refused before any index is read
        for bad in (c[:-1], c + (0,)):
            with pytest.raises(ConsistencyError, match=r"c has \d+ entries, not lj \+ 1"):
                C.check_coeffs(l, j, bad)


@pytest.mark.parametrize("l,j", ALL_PAIRS)
def test_first_difference_defining_property(l, j):
    c = C.coeffs_bruteforce(l, j)
    d = C.weights(l, j)
    assert len(d) == l * j // 2 + 1
    for m, dm in enumerate(d):
        prev = c[m - 1] if m >= 1 else 0
        assert dm == c[m] - prev


@pytest.mark.parametrize("l,j", [(l, j) for l in range(2, 9) for j in range(1, 9)])
def test_diff_closed_form(l, j):
    assert weights_closed_form(l, j) == C.weights(l, j)


def test_small_prefix_binomials():
    # c_m = C(m+l-1, l-1) while m <= j
    for l in (2, 5, 8):
        c = C.coeffs_bruteforce(l, 6)
        for m in range(0, 7):
            assert c[m] == math.comb(m + l - 1, l - 1)


def test_l1_degenerate_row():
    assert C.coeffs_bruteforce(1, 4) == (1, 1, 1, 1, 1)
    assert C.weights(1, 4) == (1, 0, 0)


def test_domain_errors():
    for bad in [(0, 2), (2, 0), (-1, 3), (3, -2)]:
        with pytest.raises(ValueError):
            C.coeffs_bruteforce(*bad)
    with pytest.raises(CapacityError):
        C.coeffs_bruteforce(13, 5)  # lj = 65 over the cap
