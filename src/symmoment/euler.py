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
`lhs_local` and `rhs_local` take t as a float, for real doubles, or as
`symbolic.T`, for the same recurrence over Z[t], where every division in
Newton's identities must be exact. `correction_series` returns the float
X^1 cancellation as computed; over Z[t] that term is the decomposition
identity, which `correction_series_sym` certifies by
`symbolic.verify_decomposition`, the same engine run at one integer point
past Cauchy's root bound of the difference. `check` owns the (l, j, A)
rule; `cli` writes every label.
"""

from . import combinatorics
from .errors import CapacityError, ConsistencyError
from .symbolic import T, deligne_t, local_expansion, verify_decomposition

DEFAULT_ORDER = 6
# exact mode grows about as A^4: every lj = 64 pair takes 1.5-2.7 s at order
# 16 and 10-13 s at order 24 on 2 CPUs, so 16 bounds the worst case
ORDER_CAP = 16


class LocalFactorSeries(tuple):
    """Truncated expansion in X = p^(-s): the tuple of its coefficients, the
    a-th multiplying X^a, with the X^0 term checked to be 1.

    A tuple, so immutable, equal to any tuple of the same coefficients and
    hashable where they are; `coeffs` is that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        self = super().__new__(cls, coeffs)
        lead = self[0]
        if lead != lead**0:  # exactly 1.0, or the constant polynomial 1
            raise ConsistencyError(f"local factor not normalized: X^0 coefficient {lead}")
        return self

    @property
    def coeffs(self) -> tuple:
        return tuple(self)

    def __repr__(self):
        return f"LocalFactorSeries(coeffs={self.coeffs!r})"


def check(l: int, j: int, A: int) -> None:
    """`combinatorics.check_pair`, then 0 <= A <= ORDER_CAP."""
    combinatorics.check_pair(l, j)
    if A < 0:
        raise ValueError(f"series order must be nonnegative, got {A}")
    if A > ORDER_CAP:
        raise CapacityError(f"series order {A} exceeds limit {ORDER_CAP}")


def lhs_local(l: int, j: int, t, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Moment side: coeffs[a] = lam_sym^j(p^a)^l.

    t is a float in the Deligne interval, or `symbolic.T` for coefficients
    in Z[t].
    """
    check(l, j, A)
    t = t if t is T else deligne_t(t)
    # lam_sym^j(p^a) for a = 0..A is one expansion at the single weight 1
    return LocalFactorSeries(h**l for h in local_expansion((1,), j, t, A))


def rhs_local(l: int, j: int, t, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Factored side, expanded from the weights' power sums; t as in `lhs_local`."""
    check(l, j, A)
    t = t if t is T else deligne_t(t)
    w = combinatorics.weights(l, j)
    return LocalFactorSeries(local_expansion(w, l * j, t, A))


def _quotient(lhs, rhs):
    # formal quotient; rhs constant term is 1 so no division happens
    q = []
    for n in range(len(lhs)):
        acc = lhs[n]
        for k in range(n):
            acc = acc - q[k] * rhs[n - k]
        q.append(acc)
    return LocalFactorSeries(q)


def correction_series(l: int, j: int, t: float, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Formal quotient lhs/rhs at a float t; 1 + O(X^2) when the library is right.

    The X^1 coefficient is the difference of the two first-order terms and
    must vanish; it is returned as computed (tests pin the tolerance).
    """
    return _quotient(lhs_local(l, j, t, A), rhs_local(l, j, t, A))


def correction_series_sym(l: int, j: int, A: int = DEFAULT_ORDER) -> LocalFactorSeries:
    """Exact correction factor over Z[t], certified to be 1 + O(X^2).

    The X^1 coefficient is lhs[1] - rhs[1], as q[0] = 1. Those are
    S_j(t)^l and sum_m w_m S_{lj-2m}(t), the two sides that
    `symbolic.verify_decomposition` compares, at one integer point t0 that
    no nonzero difference of their size can vanish at (Cauchy's bound), so
    equality there is equality in Z[t]. That holds at every order, A = 0
    included, and the returned X^1, built by `IntPolynomial` arithmetic the
    certificate never uses, must be zero too; either failure raises
    ConsistencyError, a defect in this library. The quotient comes first,
    so that `check` refuses a bad order before any expansion.
    """
    q = _quotient(lhs_local(l, j, T, A), rhs_local(l, j, T, A))
    verify_decomposition(l, j)
    if A >= 1 and q[1]:
        raise ConsistencyError(f"decomposition fails at (l={l}, j={j})")
    return q
