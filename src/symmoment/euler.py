"""Local Euler factors of the moment Dirichlet series and their factorization.

At a prime p with Satake parameter t = alpha + 1/alpha, the series
sum_a lam_sym^j(p^a)^l X^a factors, up to a correction that is 1 + O(X^2),
into a product of inverse linear factors whose root multiset is dictated by
the first-difference weights from `combinatorics`: weight w_m attaches w_m
copies of the roots alpha^(lj-2m-2i), i = 0..lj-2m. The even-parity m =
lj/2 term degenerates to (1 - X)^(-w) and plays the zeta role.

Both sides are expanded by `symbolic.local_expansion`: power sums of the
roots computed from the weights, then Newton's identities. The moment side
uses the single weight 1 at top j, raised to the l-th power coefficientwise.
Floating mode runs it in real doubles and returns the X^1 cancellation as
computed; symbolic mode runs the same recurrence over Z[t], where every
division in Newton's identities must be exact, and certifies the
cancellation as a polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import combinatorics
from .errors import CapacityError, ConsistencyError
from .symbolic import ONE, T, IntPolynomial, deligne_t, local_expansion

DEFAULT_ORDER = 6
# exact mode grows about as A^4: every lj = 64 pair takes 4-6 s at order 16
# and 20-27 s at order 24 on 2 CPUs, so 16 bounds the worst case
ORDER_CAP = 16


@dataclass(frozen=True)
class LocalFactorSeries:
    """Truncated expansion in X = p^(-s): coeffs[a] multiplies X^a."""

    order: int
    coeffs: tuple
    label: str

    def __post_init__(self):
        lead = self.coeffs[0]
        ok = lead == ONE if isinstance(lead, IntPolynomial) else abs(lead - 1.0) < 1e-12
        if not ok:
            raise ConsistencyError(f"local factor not normalized: {self.label}")

    def __getitem__(self, a):
        return self.coeffs[a]


def degree(l: int, j: int) -> int:
    """Degree of the factored product, certified equal to (j+1)^l."""
    lj = l * j
    w = combinatorics.weights(l, j)
    total = sum(mult * (lj - 2 * m + 1) for m, mult in enumerate(w))
    expected = (j + 1) ** l
    if total != expected:
        raise ConsistencyError(
            f"degree mismatch at (l={l}, j={j}): sum {total} != {expected}"
        )
    return total


def _check(l: int, j: int, A: int) -> None:
    if l < 1 or j < 1:
        raise ValueError(f"l and j must be positive, got l={l}, j={j}")
    if A < 0:
        raise ValueError(f"series order must be nonnegative, got {A}")
    if A > ORDER_CAP:
        raise CapacityError(f"series order {A} exceeds limit {ORDER_CAP}")


def _lhs(l, j, t, A):
    # lam_sym^j(p^a) for a = 0..A is one expansion at the single weight 1
    return tuple(h**l for h in local_expansion((1,), j, t, A))


def _rhs(l, j, t, A):
    return tuple(local_expansion(combinatorics.weights(l, j), l * j, t, A))


def lhs_local(l: int, j: int, t: float, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Moment side: coeffs[a] = lam_sym^j(p^a)^l."""
    _check(l, j, A)
    coeffs = _lhs(l, j, deligne_t(t), A)
    return LocalFactorSeries(order=A, coeffs=coeffs, label=f"lhs(l={l},j={j},t={t})")


def rhs_local(l: int, j: int, t: float, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Factored side, expanded in real doubles from the weights' power sums."""
    _check(l, j, A)
    coeffs = _rhs(l, j, deligne_t(t), A)
    return LocalFactorSeries(order=A, coeffs=coeffs, label=f"rhs(l={l},j={j},t={t})")


def _quotient(lhs, rhs, label):
    # formal quotient; rhs constant term is 1 so no division happens
    q = []
    for n in range(lhs.order + 1):
        acc = lhs[n]
        for k in range(n):
            acc = acc - q[k] * rhs[n - k]
        q.append(acc)
    return LocalFactorSeries(order=lhs.order, coeffs=tuple(q), label=label)


def correction_series(l: int, j: int, t: float, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Formal quotient lhs/rhs; equals 1 + O(X^2) when the library is right.

    The X^1 coefficient is the difference of the two first-order terms and
    must vanish; it is returned as computed (tests pin the tolerance).
    """
    lhs, rhs = lhs_local(l, j, t, A), rhs_local(l, j, t, A)
    return _quotient(lhs, rhs, f"correction(l={l},j={j},t={t})")


# ---------------------------------------------------------------------------
# exact symbolic mode: the same expansion over Z[t]


def lhs_local_sym(l: int, j: int, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Moment side with exact polynomial coefficients in t."""
    _check(l, j, A)
    coeffs = _lhs(l, j, T, A)
    return LocalFactorSeries(order=A, coeffs=coeffs, label=f"lhs_sym(l={l},j={j})")


def rhs_local_sym(l: int, j: int, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Factored side with exact polynomial coefficients in t."""
    _check(l, j, A)
    coeffs = _rhs(l, j, T, A)
    return LocalFactorSeries(order=A, coeffs=coeffs, label=f"rhs_sym(l={l},j={j})")


def correction_series_sym(l: int, j: int, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Exact correction factor: X^1 coefficient is the zero polynomial."""
    lhs, rhs = lhs_local_sym(l, j, A), rhs_local_sym(l, j, A)
    return _quotient(lhs, rhs, f"correction_sym(l={l},j={j})")
