import math

import pytest

from oracles import weights_closed_form
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
    assert C.coeffs_closed_form(l, j) == C.coeffs_bruteforce(l, j)


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
def test_check_coeffs_raises_on_each_corruption(monkeypatch, message):
    # the closed form agrees with the corrupted vector, so only the named
    # structural property can fail
    bad = CORRUPTED[message]
    monkeypatch.setattr(C, "coeffs_closed_form", lambda l, j: bad)
    with pytest.raises(ConsistencyError, match=message):
        C.check_coeffs(2, 2, bad)


def test_check_coeffs_raises_on_closed_form_mismatch():
    c = C.coeffs_bruteforce(3, 2)
    C.check_coeffs(3, 2, c)
    wrong = c[:3] + (c[3] + 1,) + c[4:]
    with pytest.raises(ConsistencyError, match="closed form disagrees"):
        C.check_coeffs(3, 2, wrong)


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
