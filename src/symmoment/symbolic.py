"""Exact integer polynomial arithmetic in t = lambda_f(p), and the
local-factor engine.

The basis polynomials S_r satisfy S_0 = 1, S_1 = t and the Hecke-type
recursion S_r = t S_{r-1} - S_{r-2}, so that S_r(2 cos theta) =
sin((r+1) theta) / sin theta and S_r(lambda_f(p)) is the normalized
eigenvalue at p of the r-th symmetric power. The recursion runs in one
place, `_power_sum`, which `local_expansion` reads for the power sums of
its root multiset: its X^1 coefficient over Z[t] is sum_m w_m
S_{top-2m}(t). The same engine, in doubles at a float t, gives `euler` its
local factors and `hecke` its symmetric-power values at prime powers.
`verify_decomposition` runs it at one integer point t0 = 2^B and certifies
that the l-th power of S_j expands over this basis with the
first-difference weights from `combinatorics`: every coefficient of the
difference of the two sides is bounded by the recursion, so by Cauchy's
root bound t0 is no root of a nonzero difference, and equality at t0 is
equality in Z[t]. It returns S_j(t)^l, decoded from the digits of its
value at t0, and raises ConsistencyError where the two sides differ. The
module imports no numpy, so the exact command-line paths never load it.
"""

from . import combinatorics
from .errors import ConsistencyError


class IntPolynomial:
    """Dense polynomial with arbitrary-precision integer coefficients.

    Coefficients are indexed by degree and stored normalized: the highest
    stored coefficient is nonzero unless the polynomial is zero. They are
    Python ints, stored as given.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other):
        out = list(self.coeffs)
        out.extend([0] * (len(other.coeffs) - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        # every polynomial over Z[t] that the engine forms is even or odd,
        # so half of each operand is zero; skip zeros on both sides
        terms = [(k, b) for k, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for k, b in terms:
                    out[i + k] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, n: int):
        """Exact quotient by a nonzero integer.

        A coefficient that n does not divide has no quotient in Z[t]; where
        the library divides, that is a defect, so it raises ConsistencyError.
        """
        if not isinstance(n, int):
            return NotImplemented
        if any(c % n for c in self.coeffs):
            raise ConsistencyError(
                f"polynomial of degree {self.degree} not divisible by {n}"
            )
        return IntPolynomial([c // n for c in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the square past the top bit would never be read
                base = base * base
        return result

    def __call__(self, t):
        """Horner evaluation; exact for int/Fraction t, double for float t."""
        acc = 0 * t if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                term = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# the polynomial t, at which `local_expansion` works over Z[t]
T = IntPolynomial([0, 1])


# ---------------------------------------------------------------------------
# the local-factor engine: over Z[t] at T, in doubles at a float t, or in Z
# at an integer point


def _power_sum(weights, top, x):
    """sum_m w_m S_{top-2m}(x), S_r by the recursion S_{r+1} = x S_r - S_{r-1}.

    With x = alpha^k + alpha^(-k) this is the k-th power sum of the root
    multiset of `local_expansion`, since S_r(alpha^k + alpha^(-k)) sums
    alpha^(k(r-2i)) over i = 0..r.
    """
    s_prev, s = 0 * x, x**0
    acc = 0 * x
    for r in range(top + 1):
        m, odd = divmod(top - r, 2)
        if not odd and m < len(weights) and weights[m]:
            acc = acc + weights[m] * s
        s_prev, s = s, x * s - s_prev
    return acc


def local_expansion(weights, top, t, A):
    """h_0..h_A, the coefficients of prod (1 - beta X)^(-1) over a root multiset.

    For each m, weight w_m = weights[m] brings w_m copies of the r + 1 roots
    beta = alpha^(r-2i), i = 0..r, with r = top - 2m and alpha + 1/alpha = t.
    The power sums p_k of the roots come from the weights by `_power_sum`
    at x_k = alpha^k + alpha^(-k), where x_{k+1} = t x_k - x_{k-1}, and
    Newton's identities n h_n = sum_{k=1..n} p_k h_{n-k} give the h_n, in
    O(top A + A^2) ring operations whatever the number of roots.

    t is a float (or a numpy array of floats), or the polynomial t itself
    (`T`) for coefficients in Z[t]. There the division by n is exact, and a
    remainder, which correct power sums never leave, raises ConsistencyError.
    """
    one = t**0  # 1.0, or the constant polynomial 1
    x_prev, x = 2 * one, t
    p = []
    for k in range(A):
        if k:
            x_prev, x = x, t * x - x_prev
        p.append(_power_sum(weights, top, x))
    h = [one]
    for n in range(1, A + 1):
        acc = p[n - 1]
        for k in range(1, n):
            acc = acc + p[k - 1] * h[n - k]
        h.append(acc / n)
    return h


# |t| above this is outside the Deligne interval by more than rounding
_T_MAX = 2.0 + 1e-6


def deligne_t(t) -> float:
    """t as a float in [-2, 2]; ValueError beyond the rounding slack of 1e-6,
    or for NaN."""
    if not abs(t) <= _T_MAX:
        raise ValueError(f"t={t} outside the Deligne interval [-2, 2]")
    return max(-2.0, min(2.0, float(t)))


# ---------------------------------------------------------------------------
# the decomposition certificate


def verify_decomposition(l: int, j: int) -> IntPolynomial:
    """S_j(t)^l over Z[t], certified equal to sum_m w_m S_{lj-2m}(t).

    Its value at t = 2 is the degree (j+1)^l of the factored product: S_r(2)
    = r + 1, so the identity there reads sum_m w_m (lj - 2m + 1) = (j+1)^l.

    The weights w are `combinatorics.weights`, the d (even lj) or e (odd
    lj) vector; for even lj the last term is the constant w_{lj/2} S_0.
    Both sides are the engine's p_1, the X^1 coefficient of
    `local_expansion` (those of `euler.lhs_local` and `euler.rhs_local` at
    `T`, so `euler.correction_series_sym` certifies its X^1 term here): S_j
    at the single weight 1, to the l-th power, and the weighted sum at top
    lj. Evaluation at an integer is a ring homomorphism Z[t] -> Z, so the
    engine runs at one integer point t0 = 2^B, in integer arithmetic,
    instead of over Z[t]:

    - `_power_sum` runs S_{r+1} = t S_r - S_{r-1}, so the coefficients of
      S_r sum in absolute value to at most the Fibonacci number F_{r+1} <=
      2^r;
    - that sum is submultiplicative, so every coefficient of lhs - rhs is
      at most C = 2^{lj} (1 + sum_m |w_m|) in absolute value;
    - by Cauchy's bound a nonzero integer polynomial with such coefficients
      has no root z with |z| > 1 + C, and t0 = 2^B with B = C.bit_length()
      + 1 exceeds 2C >= 1 + C, so equality at t0 holds exactly when lhs =
      rhs in Z[t];
    - every coefficient c of S_j(t)^l has |c| <= 2^{lj} < t0 / 2, so its
      value at t0 read in balanced base-2^B digits is its coefficients.

    The identity holds for every valid (l, j), so a mismatch is a defect in
    this library, never a property of the input, and raises
    ConsistencyError.
    """
    w = combinatorics.weights(l, j)
    bits = ((1 + sum(map(abs, w))) << (l * j)).bit_length() + 1
    t0 = 1 << bits
    value = _power_sum((1,), j, t0) ** l
    if value != _power_sum(w, l * j, t0):
        raise ConsistencyError(f"decomposition fails at (l={l}, j={j})")
    half, mask = t0 >> 1, t0 - 1
    coeffs = []
    while value:
        c = ((value + half) & mask) - half  # the residue in [-t0/2, t0/2)
        coeffs.append(c)
        value = (value - c) >> bits
    return IntPolynomial(coeffs)
