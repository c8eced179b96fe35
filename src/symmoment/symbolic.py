"""Exact integer polynomial arithmetic in t = lambda_f(p).

The basis polynomials S_r satisfy S_0 = 1, S_1 = t and the Hecke-type
recursion S_r = t S_{r-1} - S_{r-2}, so that S_r(2 cos theta) =
sin((r+1) theta) / sin theta and S_r(lambda_f(p)) is the normalized
eigenvalue at p of the r-th symmetric power. The recursion runs in one
place, `hecke.local_expansion`, whose X^1 coefficient over Z[t] is
sum_m w_m S_{top-2m}(t). `verify_decomposition` reads both sides from it
and certifies, coefficientwise in exact integers, that the l-th power of
S_j expands over this basis with the first-difference weights from
`combinatorics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import combinatorics
from .errors import ConsistencyError
from .hecke import local_expansion


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

    def __hash__(self):
        return hash(self.coeffs)

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

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for k, b in enumerate(other.coeffs):
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
            base = base * base
            n >>= 1
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


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
# the polynomial t, at which `hecke.local_expansion` works over Z[t]
T = IntPolynomial([0, 1])


@dataclass(frozen=True)
class DecompositionCertificate:
    l: int
    j: int
    holds: bool
    lhs: IntPolynomial
    rhs: IntPolynomial
    weights: tuple[int, ...]


def verify_decomposition(l: int, j: int) -> DecompositionCertificate:
    """Certify S_j(t)^l = sum_m w_m S_{lj-2m}(t) with first-difference weights.

    The weights w are `combinatorics.weights`, the d (even lj) or e (odd
    lj) vector; for even lj the last term is the constant w_{lj/2} S_0.
    Both sides are X^1 coefficients of `hecke.local_expansion` over Z[t],
    those of `euler.lhs_local_sym` and `euler.rhs_local_sym`: S_j at the
    single weight 1, to the l-th power, and the weighted sum at top lj. The
    identity holds for every valid (l, j); `holds` false means a defect in
    this library, never a property of the input.
    """
    w = combinatorics.weights(l, j)
    lhs = local_expansion((1,), j, T, 1)[1] ** l
    rhs = local_expansion(w, l * j, T, 1)[1]
    return DecompositionCertificate(
        l=l, j=j, holds=(lhs == rhs), lhs=lhs, rhs=rhs, weights=w
    )

