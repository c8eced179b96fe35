"""Level-1 eigenform q-expansions and symmetric-power coefficients.

Exact integer coefficients a(n) for the unique normalized cusp eigenforms
of weights 12, 16, 18, 20, 22, 26, each built as q eta^24 E_{k-12} from
the sparse eta-cube series and the Eisenstein series in `_WEIGHTS`, the
one record per weight. A table holds a(n) as CRT digits, the bytes of its
cache file; every table, built, loaded or made by hand, passed the gate
(`check_table`, run by `crt_primes`) and the certificate (its constructor).
Integers, and lam(n) = a(n)/n^((k-1)/2), are formed where they are read:
at the primes, for the symmetric-power values at prime powers and a
multiplicative sieve over n <= N. `_combine` forms them, three digits to
an int64 limb and the limbs joined as Python ints in numpy object arrays,
one chunk of columns at a time.

The q-expansion is multi-modular. For each of a few primes, below 2^21 and
small enough for N that exact convolution values stay within 2^50, each
series product is one numpy float FFT product of balanced int64 residues,
and Garner's CRT turns the residues into balanced digits, read with no
offset. Every residue array is reduced by `_rem`, numpy's floor division by
the scalar modulus, a multiplication by its reciprocal, instead of `%`.
The number of primes comes from the Deligne bound, so the digits fix the
integers exactly.
`_convolve`, the one FFT product, checks its magnitude before the
transform and its rounding margin after it.

Work that does not depend on the prime runs once. eta^6 is squared over
the integers while the operand passes `_convolve`'s bound (eta^24 for
N <= 172, eta^12 for N <= 15,253, eta^6 above), so each prime does only
the squarings left.
Delta = q eta^24 is the weight-12 table, built on its own CRT primes
(4 at N = 5000) and certified like every table. A weight above 12 is
built on it: each of its own primes (9 for weight 26 at N = 5000) reads
Delta mod p off Delta's digits and makes one product with E_{k-12}.
`cached_eigenform` takes Delta from the cache, so a cache builds it once.
Delta's table is held while the weight's is built, d x (N+1) int32 for d
primes: 8 rows, 32 MB, at HARD_CAP.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .combinatorics import check_pair
from .errors import CapacityError, ConsistencyError
from .symbolic import deligne_t, local_expansion

HARD_CAP = 1_000_000

# weight k -> (m, (c, r) or None). m is the numerator of B_k / 2k: the
# eigenform is congruent to E_k mod m, so a(n) = sigma_{k-1}(n) mod m for
# every n (Swinnerton-Dyer 1973). The eigenform is Delta * E_{k-12}, and each
# of these Eisenstein spaces is one-dimensional, E = 1 + c sum sigma_r(n) q^n
_WEIGHTS = {
    12: (691, None),
    16: (3617, (240, 3)),
    18: (43867, (-504, 5)),
    20: (174611, (480, 7)),
    22: (77683, (-264, 9)),
    26: (657931, (-24, 13)),
}
SUPPORTED_WEIGHTS = tuple(_WEIGHTS)


def check_table(weight: int, N: int) -> None:
    """ValueError for an unsupported weight or N < 1, CapacityError past HARD_CAP."""
    if weight not in _WEIGHTS:
        raise ValueError(f"weight {weight} not supported; choose from {SUPPORTED_WEIGHTS}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if N > HARD_CAP:
        raise CapacityError(f"N={N} exceeds limit {HARD_CAP}")


# ---------------------------------------------------------------------------
# multi-modular series arithmetic

PRIME_CEIL = 1 << 21

# a convolution value this far from an integer means the FFT lost exactness
_ROUND_GUARD = 0.25
# digits turned into Python ints per pass, which bounds the temporaries
_CHUNK = 1 << 16


@functools.lru_cache(maxsize=None)  # a cache load needs them before any table
def crt_primes(weight: int, N: int) -> tuple:
    """Primes below a ceiling, largest first, whose product exceeds 2B.

    `check_table` runs first: every table path is gated here, once per (k, N).
    B = 2 N^(k/2) is the Deligne bound: |a(n)| <= d(n) n^((k-1)/2) with
    d(n) <= 2 sqrt(n), so every a(n) with n <= N lies in [-B, B], and a
    modulus above 2B gives each such integer its own balanced residue. The
    ceiling min(PRIME_CEIL, isqrt(2^52 // N)) keeps N ((q-1)/2)^2 <= 2^50,
    the bound `_convolve` checks for products of N balanced residues.
    """
    check_table(weight, N)
    need = 2 * (2 * N ** (weight // 2))
    ceil = min(PRIME_CEIL, math.isqrt(2**52 // N))
    small = primes_up_to(math.isqrt(ceil))
    primes = []
    prod = 1
    cand = (ceil - 2) | 1  # the largest odd number below ceil
    while prod <= need:
        # a prime dividing the congruence modulus would hide the digits above
        # it from the certificate in `EigenformTable`'s constructor
        if all(cand % q for q in small) and _WEIGHTS[weight][0] % cand:
            primes.append(cand)
            prod *= cand
        cand -= 2
    return tuple(primes)


@functools.lru_cache(maxsize=None)
def _fft_size(n):
    # smallest 2^a 3^b 5^c >= n
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _rem(x, p):
    # x mod p in [0, p), in place, for an integer array x with |x| + p < 2^63
    # (2^31 for int32), where q p stays in range: numpy's floor division by a
    # scalar multiplies by a precomputed reciprocal (Granlund and Montgomery,
    # PLDI 1994), while its % divides each element on its own
    q = x // p
    q *= p
    x -= q
    return x


def _balanced(x, p):
    # residues in [0, p) to (-p/2, p/2]
    x = np.asarray(x, dtype=np.int64)
    return x - (x > p // 2) * p


def _rounded(x):
    # x is overwritten with its distance to r; the largest distance measured
    # on eigenform products is 1.95e-2 at N = 1000, 1.66e-2 at 5000, 3.7e-3
    # at 1e5 and 1.7e-3 at 1e6 (weight 26)
    r = np.rint(x)
    x -= r
    dist = np.abs(x, out=x).max()
    if dist >= _ROUND_GUARD:
        raise ConsistencyError(f"FFT rounding distance {dist:.3g} >= {_ROUND_GUARD}")
    return r.astype(np.int64)


def _top(x, y):
    # max|x| max|y| min(len x, len y), a bound on every exact convolution value
    mx = int(np.abs(x).max())
    my = mx if y is x else int(np.abs(y).max())
    return mx * my * min(len(x), len(y))


def _convolve(x, y, n_out):
    """The first n_out terms of the exact convolution of int64 arrays x and y.

    ConsistencyError is raised before any transform if `_top(x, y)`
    exceeds 2^50, and after it if a rounding distance reaches 0.25, instead
    of returning a wrong integer (residues all (p-1)/2 at the bound read
    0.5). One float FFT product: one rfft per distinct operand (y is x for
    a squaring), the spectra multiplied in place, one irfft.
    """
    top = _top(x, y)
    if top > 1 << 50:
        raise ConsistencyError(f"convolution bound {top} exceeds 2^50")
    size = _fft_size(max(len(x) + len(y) - 1, n_out))
    f = np.fft.rfft(x, size)
    f *= f if y is x else np.fft.rfft(y, size)
    return _rounded(np.fft.irfft(f, size)[:n_out])


def series_mul(a, b, n_out, p):
    """Product of power series a*b mod p, truncated to n_out terms.

    a and b hold residues in [0, p), indexed by exponent, and are left as
    they were; each is balanced once into a new array, `_convolve`
    multiplies them and `_rem` reduces the product mod p in place.
    Returns n_out int64 residues.
    """
    x = _balanced(a[:n_out], p)
    y = x if b is a else _balanced(b[:n_out], p)
    return _rem(_convolve(x, y, n_out), p)


def _eta_exact(n_terms):
    """(eta-tilde^(24 / 2^left), left) over the integers: `left` is the
    number of squarings still to do mod each prime.

    eta-tilde^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2) has about sqrt(2 n_terms)
    terms, each below 2^12 at HARD_CAP, so its `_top` is about 8e12 there,
    far below 2^50, and eta^6 is always exact. Each further squaring is
    made while the operand's own `_top` stays within 2^50: eta^24 for
    n_terms <= 172, eta^12 for n_terms <= 15,253.
    """
    k = np.arange(math.isqrt(2 * n_terms) + 2, dtype=np.int64)
    k = k[k * (k + 1) // 2 < n_terms]
    s = np.zeros(n_terms, dtype=np.int64)
    s[k * (k + 1) // 2] = (1 - 2 * (k & 1)) * (2 * k + 1)
    left = 3
    while left and _top(s, s) <= 1 << 50:
        s = _convolve(s, s, n_terms)
        left -= 1
    return s, left


def _sigma_mod(power, n_terms, p):
    """sigma_power(m) mod p for m = 0..n_terms-1 (index 0 is 0), as int32.

    m^power mod p comes by repeated squaring, each product reduced by
    `_rem`, over one period 0..p-1 tiled when p < n_terms, since it depends
    only on m mod p. Each m = d*q with d <= q is visited once, from the row
    of d: one numpy slice step per d <= sqrt(m), adding d^power + q^power
    (d^power once when q = d). The int32 sum at m holds at most d(m)
    residues, one more at a square until its correction, and d(m) <= 240
    for m <= HARD_CAP (odd, so <= 239, at a square): for p < PRIME_CEIL it
    stays below 240 * 2^21 < 2^31 - p, inside `_rem`'s int32 domain, which
    reduces it in place.
    """
    pw = base = np.arange(min(n_terms, p), dtype=np.int64)
    for bit in bin(power)[3:]:
        pw = _rem(pw * pw, p)
        if bit == "1":
            pw = _rem(pw * base, p)
    pw = np.resize(pw.astype(np.int32), n_terms)
    sig = np.zeros(n_terms, dtype=np.int32)
    for d in range(1, math.isqrt(n_terms - 1) + 1):
        top = (n_terms - 1) // d
        sig[d * d :: d] += pw[d : top + 1] + pw[d]
        sig[d * d] -= pw[d]
    return _rem(sig, p)


def _garner(primes, residues, n):
    """Balanced mixed-radix digits of n integers |x| <= (M-1)/2, M =
    prod(primes), from their residues, one int64 array per prime in order,
    none of which is modified. Each array becomes a row as it arrives: row i
    of the int32 result lies in [-(p_i-1)/2, (p_i-1)/2], and x = d_0 + p_0
    (d_1 + p_1 (d_2 + ...)), a bijection onto that range, so `_mod` reads
    x mod any further prime off the rows (Cohen, GTM 138). Each row is one
    shifted reduction, `_rem(v + h, p) - h` with h = p // 2, which for odd p
    is `_balanced(v % p, p)`.
    """
    digits = np.empty((len(primes), n), dtype=np.int32)
    for i, (p, v) in enumerate(zip(primes, residues)):
        if i:
            # v = (v - digits so far, evaluated mod p) / (p_0 ... p_{i-1})
            v = v - _mod(primes[:i], digits[:i], p)
            v *= pow(math.prod(primes[:i]), -1, p)
        digits[i] = _rem(v + p // 2, p) - p // 2
    return digits


def _mod(primes, digits, q):
    """The integers x whose `_garner` digits are the columns of `digits`,
    mod q, in [0, q), as one weighted sum: sum_i w_i d_i with w_i = p_0 ...
    p_{i-1} mod q. Every |d_i| is below PRIME_CEIL / 2 = 2^20 and there are
    at most 17 rows (weight 26 at HARD_CAP), so for any q < 2^31 the int64
    sum stays below 17 * 2^20 * 2^31 < 2^56 in absolute value, well inside
    the domain of `_rem`, which reduces it in place."""
    w = np.array([math.prod(primes[:i]) % q for i in range(len(primes))], dtype=np.int64)
    return _rem(np.einsum("i,ij->j", w, digits, dtype=np.int64), q)


def _combine(primes, digits):
    """The integers whose `_garner` digits are the columns of `digits`, as a
    list of Python ints: three digits to a signed int64 limb, |limb| <=
    (p_0 p_1 p_2 - 1)/2 < 2^62 for three primes below 2^21, and the limbs
    joined per chunk of `_CHUNK` columns in numpy object arrays of Python
    ints, acc * radix + limb with each radix the product of its limb's
    primes, which bounds the Python-int temporaries."""
    groups = [(primes[g : g + 3], digits[g : g + 3]) for g in range(0, len(primes), 3)]
    radices = [math.prod(ps) for ps, _ in groups]
    out = []
    for lo in range(0, digits.shape[1], _CHUNK):
        limbs = []
        for ps, ds in groups:
            limb = ds[-1][lo : lo + _CHUNK].astype(np.int64)
            for d, q in zip(reversed(ds[:-1]), reversed(ps[:-1])):
                limb *= q
                limb += d[lo : lo + _CHUNK]
            limbs.append(limb)
        acc = limbs[-1].astype(object)
        for limb, radix in zip(reversed(limbs[:-1]), reversed(radices[:-1])):
            acc = acc * radix + limb
        out += acc.tolist()
    return out


@dataclass(frozen=True, eq=False)
class EigenformTable:
    """q-expansion of the normalized eigenform of one-dimensional weight.

    `digits` is the (len(crt_primes(weight, limit)), limit + 1) int32
    matrix of balanced `_garner` digits of a(0..limit), a(0) = 0: a(n) =
    d_0 + p_0 (d_1 + p_1 (d_2 + ...)), |d_i| <= (p_i-1)/2. The digits are the
    only copy; exact integers are formed where they are read: all of them
    by `raw`, the primes for the sieve, one column by `lam`; the
    constructor gates (weight, limit) and certifies the digits first.
    """

    weight: int
    limit: int
    digits: np.ndarray

    @functools.cached_property
    def raw(self) -> tuple:
        """raw[n] = a(n) exactly for 0 <= n <= limit."""
        return tuple(_combine(crt_primes(self.weight, self.limit), self.digits))

    def lam(self, n: int) -> float:
        """lam_f(n) = a(n) / n^((weight-1)/2) in double precision, 1 <= n <= limit."""
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside 1..{self.limit}")
        return _lam(self, (n,))[0]

    def __post_init__(self) -> None:
        """Raise ConsistencyError unless, in this order, the digit matrix has
        one row per CRT prime and limit + 1 columns, dtype int32, digit i of
        every a(n) lies in [-h, h], h = p_i // 2, column 1 is (1, 0, ..., 0), the
        digits of a(1) = 1, and a(n) = sigma_{k-1}(n) mod m, the modulus in
        `_WEIGHTS`, at every n, read off the digits; then make them read-only,
        with every array they view. Digits that view memory no array owns (a
        bytearray, say) could not be made read-only: they raise ValueError,
        after the gate."""
        primes = crt_primes(self.weight, self.limit)
        chain = [self.digits]
        while isinstance(chain[-1].base, np.ndarray):
            chain.append(chain[-1].base)
        if chain[-1].base is not None:
            kind = type(chain[-1].base).__name__
            raise ValueError(f"digits view a {kind}, which cannot be made read-only")
        want = (len(primes), self.limit + 1)
        if self.digits.shape != want:
            raise ConsistencyError(f"digits have shape {self.digits.shape}, expected {want}")
        if self.digits.dtype != np.int32:
            raise ConsistencyError(f"digits have dtype {self.digits.dtype}, expected int32")
        for i, (row, p) in enumerate(zip(self.digits, primes)):
            h = p // 2
            if row.min() < -h or row.max() > h:
                n = np.flatnonzero((row < -h) | (row > h))[0]
                raise ConsistencyError(f"digit {i} of a({n}) outside [-{h}, {h}]")
        if self.digits[0, 1] != 1 or self.digits[1:, 1].any():
            raise ConsistencyError("eigenform not normalized: a(1) != 1")
        m = _WEIGHTS[self.weight][0]
        acc = _mod(primes, self.digits, m)
        bad = np.flatnonzero(acc != _sigma_mod(self.weight - 1, self.limit + 1, m))
        if bad.size:
            n, k = bad[0], self.weight
            raise ConsistencyError(f"a({n}) != sigma_{k - 1}({n}) mod {m} at weight {k}")
        for array in chain:
            array.flags.writeable = False


def _lam(form, ns):
    # a(n) / n^((k-1)/2) for each n in ns, ints or an int array, which indexes
    # the digits as it is; n**e is a Python float power of a Python int:
    # np.power rounds it differently for thousands of n <= 1e5
    e = (form.weight - 1) / 2
    ns = np.asarray(ns)
    raw = _combine(crt_primes(form.weight, form.limit), form.digits[:, ns])
    return [a / n**e for a, n in zip(raw, ns.tolist())]


def eigenform_qexp(weight: int, N: int) -> EigenformTable:
    """Normalized cusp eigenform of any one-dimensional level-1 weight,
    built in memory.

    Each CRT prime of the weight gives a(0..N) mod p, and Garner turns
    those residues into the table. At weight 12 that is Delta = q eta^24:
    `_eta_exact`'s series squared mod p the times it has left. Above it the
    gate runs first, then `_on_delta` builds the weight on Delta's table.
    """
    primes = crt_primes(weight, N)
    if _WEIGHTS[weight][1] is not None:
        return _on_delta(weight, eigenform_qexp(12, N))
    s, left = _eta_exact(N)

    def delta_mod(p):
        x = _rem(s.copy(), p)  # s is shared by every prime
        for _ in range(left):
            x = series_mul(x, x, N, p)
        return x

    return _tabulate(weight, N, primes, delta_mod)


def _on_delta(weight, delta):
    """The table of a weight above 12 to N = delta.limit, built on Delta's
    certified table: the gate, then at each of the weight's CRT primes Delta
    mod p read off Delta's digits with `_mod` and one product with E_{k-12}
    mod p, then Garner."""
    N = delta.limit
    primes = crt_primes(weight, N)
    delta_primes = crt_primes(12, N)
    c, r = _WEIGHTS[weight][1]

    def form_mod(p):
        e = _rem(_sigma_mod(r, N, p).astype(np.int64) * (c % p), p)
        e[0] = 1
        return series_mul(_mod(delta_primes, delta.digits, p)[1:], e, N, p)

    return _tabulate(weight, N, primes, form_mod)


def _tabulate(weight, N, primes, form_mod):
    # form_mod(p) is a(1..N) mod p; Garner takes one prime's residues at a time
    residues = (np.concatenate(([0], form_mod(p))) for p in primes)
    return EigenformTable(weight=weight, limit=N, digits=_garner(primes, residues, N + 1))


# ---------------------------------------------------------------------------
# symmetric-power coefficients


def sym_prime_power(j: int, a: int, t: float) -> float:
    """lam_sym^j(p^a) given t = lam_f(p).

    This is h_a of the roots alpha^(j-2m), m = 0..j: `symbolic.local_expansion`
    with the single weight 1 at top = j, in real doubles. j must pass
    `combinatorics.check_pair(1, j)`.
    """
    check_pair(1, j)
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    return local_expansion((1,), j, deligne_t(t), a)[a]


def largest_prime_powers(N: int) -> tuple:
    """(P, primes), both int32: P[n] is the full power of the largest prime
    factor of n that divides n (P[0] = 0, P[1] = 1), primes the primes <= N.

    Each prime p <= sqrt(N), in ascending order, writes q over the slice
    P[q::q] for q = p, p^2, ... <= N, so at n what stays is the largest
    power of the largest of them that divides n. A prime p above sqrt(N)
    divides only k p with k < sqrt(N) < p, and is the largest factor there
    with exponent 1, so one scatter writes p at every such k p. Its int32
    index and value arrays hold one entry per pair (k, p) with k p <= N;
    every index is below N + 1 <= 2^31.
    """
    P = np.zeros(N + 1, dtype=np.int32)
    P[1:2] = 1  # a slice, since N may be 0
    root = math.isqrt(N)
    small = []
    for p in range(2, root + 1):
        if P[p] == 0:
            small.append(p)
            q = p
            while q <= N:
                P[q::q] = q
                q *= p
    big = np.flatnonzero(P[root + 1 :] == 0).astype(np.int32) + np.int32(root + 1)
    # multiplier k takes big[:count[k - 1]], the primes with k p <= N
    count = np.searchsorted(big, N // np.arange(1, N // (root + 1) + 1), "right")
    k = np.repeat(np.arange(1, len(count) + 1, dtype=np.int32), count)
    top = np.arange(len(k), dtype=np.int32)  # the position of p in big, then p
    top -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    top = big[top]
    k *= top
    P[k] = top
    return P, np.concatenate((np.array(small, dtype=np.int32), big))


def primes_up_to(N: int) -> list:
    return largest_prime_powers(max(N, 1))[1].tolist()


def sym_coeff_sieve(j: int, form: EigenformTable, l: int = 1) -> np.ndarray:
    """lam_sym^j(n)^l for n = 0..N = form.limit, multiplicatively, as float64
    (index 0 unused).

    With P from `largest_prime_powers` and f from `_prime_power_values`,
    out[n] = out[n // P[n]] * f[P[n]], where n // P[n] holds only primes
    below that of P[n]. The blocks [lo, 2 lo) are filled for lo = 2, 4,
    8, ..., each in one gather: n // P[n] <= n / 2 < lo, so every value it
    reads is finished. Each product is thus formed from the smallest prime
    up, ((f(p1^a1) f(p2^a2)) ...), in the order of a factorization loop
    and with the same floats; at l = 1 the values are that loop's.

    The l-th power is taken at the prime powers, so for n with k distinct
    prime factors the term is k rounded powers times one another, not the
    rounded power of the l = 1 value v. With u = 2^-53, each product within
    u of exact and each Python pow within one ulp, 2u, the term carries
    2k + (k - 1) roundings and v**l carries l(k - 1) + 2, so while every
    power and product is a normal float the two agree to a relative
    gamma_m = m u / (1 - m u), m = (l + 3) k (Higham, *Accuracy and
    Stability of Numerical Algorithms*, lemma 3.1). (l, j) must pass
    `combinatorics.check_pair`, so no power overflows (see `sums.partial_sum`).
    """
    check_pair(l, j)
    N = form.limit
    P, primes = largest_prime_powers(N)
    out = _prime_power_values(j, l, N, primes, form)[P]
    lo = 2
    while lo <= N:
        hi = min(2 * lo, N + 1)
        out[lo:hi] *= out[np.arange(lo, hi, dtype=np.int32) // P[lo:hi]]
        lo *= 2
    return out


def _prime_power_values(j, l, N, primes, form):
    """f[p^a] = lam_sym^j(p^a)^l for every prime power p^a <= N, f[1] = 1.0
    and 0.0 elsewhere.

    Two vector calls of `symbolic.local_expansion`: order 1 for the primes
    above sqrt(N), whose squares exceed N, and order floor(log2 N) for the
    few below. The Deligne check and clamp are those of `symbolic.deligne_t`.
    The l-th power is then taken at the prime powers, about 9,700 at
    N = 10^5, by Python pow: np.power rounds differently (see `_lam`).
    """
    t = np.array(_lam(form, primes))
    for x in t[~(np.abs(t) <= 2.0)].tolist():
        deligne_t(x)  # raises at the least prime whose t is past the slack
    np.clip(t, -2.0, 2.0, out=t)
    f = np.zeros(N + 1)
    f[1] = 1.0
    s = int(np.searchsorted(primes, math.isqrt(N), "right"))
    f[primes[s:]] = local_expansion((1,), j, t[s:], 1)[1]
    small = primes[:s]
    q = small
    for h in local_expansion((1,), j, t[:s], N.bit_length() - 1)[1:]:
        # p^a <= N holds for a prefix of the ascending primes; int32 q p <= N^1.5 < 2^31
        c = int(np.searchsorted(q, N, "right"))
        q = q[:c]
        f[q] = h[:c]
        q = q * small[:c]
    if l > 1:
        # the zeros off the prime powers stay zeros
        q = np.flatnonzero(f)
        f[q] = [v**l for v in f[q].tolist()]
    return f


# ---------------------------------------------------------------------------
# on-disk cache


def cache_path(cache_dir: str, weight: int, N: int) -> str:
    return os.path.join(cache_dir, f"tau_{weight}_{N}.b32")


def save_table(form: EigenformTable, cache_dir: str) -> str:
    """Write the table's balanced digits as little-endian int32 into its
    cache file, `tau_<weight>_<N>.b32`.

    cache_dir must exist; `cached_eigenform` makes it. Each writer renames its
    own temp file, named by process and thread, into place, so overlapping
    writers cannot take each other's; a failed write or rename removes it.
    """
    path = cache_path(cache_dir, form.weight, form.limit)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        form.digits.astype("<i4", copy=False).tofile(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def load_table(weight: int, N: int, cache_dir: str) -> EigenformTable | None:
    """Read a cached table back; None when absent.

    `check_table` runs first, inside `crt_primes`. A file whose length is
    not that of the digit matrix, or whose digits fail the certificate in
    `EigenformTable`'s constructor, raises ConsistencyError: stale caches
    are a real failure mode, so they are not silently rebuilt.
    """
    primes = crt_primes(weight, N)
    path = cache_path(cache_dir, weight, N)
    if not os.path.exists(path):
        return None
    want = 4 * len(primes) * (N + 1)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            raise ConsistencyError(f"cache {path} has {size} bytes, expected {want}")
        # the file is little-endian; the certificate wants native int32,
        # which costs a copy only on a big-endian host
        digits = np.fromfile(fh, dtype="<i4").astype(np.int32, copy=False)
    digits = digits.reshape(len(primes), N + 1)
    return EigenformTable(weight=weight, limit=N, digits=digits)


def cached_eigenform(weight: int, N: int, cache_dir: str) -> EigenformTable:
    """Load from cache when present, else compute and persist; an unusable
    cache_dir fails before the table is built. A weight above 12 is built
    on Delta from the same cache: loaded when `tau_12_<N>.b32` is there (a
    file that fails the certificate raises before the weight's table is
    written), else built and saved."""
    form = load_table(weight, N, cache_dir)
    if form is None:
        os.makedirs(cache_dir, exist_ok=True)
        if _WEIGHTS[weight][1] is None:
            form = eigenform_qexp(weight, N)
        else:
            form = _on_delta(weight, cached_eigenform(12, N, cache_dir))
        save_table(form, cache_dir)
    return form
