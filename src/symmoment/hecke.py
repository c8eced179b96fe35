"""Level-1 eigenform q-expansions and symmetric-power coefficients.

Exact integer coefficients a(n) for the unique normalized cusp eigenforms
of weights 12, 16, 18, 20, 22, 26, each built as q eta^24 E_{k-12} from
the sparse eta-cube series and the Eisenstein series in `_WEIGHTS`, the
one record per weight. A table holds a(n) as CRT digits, the bytes of its
cache file; every table, built, loaded or made by hand, passed the gate
(`check_table`, run by `crt_primes`) and the certificate (its constructor).
Integers, and lam(n) = a(n)/n^((k-1)/2), are formed where they are read:
at the primes, for the symmetric-power values at prime powers and a
multiplicative sieve over n <= N.

The q-expansion is multi-modular. For each of a few primes, below 2^21 and
small enough for N that exact convolution values stay within 2^50, each
series product is one numpy float FFT product of balanced int64 residues,
and Garner's CRT turns the residues into the digits. The number of primes
comes from the Deligne bound, so the digits fix the integers exactly.
`_convolve`, the one FFT product (the integer eta^6 squaring too), checks
its magnitude before the transform and its rounding margin after it.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul

import numpy as np

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
    the bound `series_mul` checks for products of N balanced residues.
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


def _balanced(x, p):
    # residues in [0, p) to (-p/2, p/2]
    x = np.asarray(x, dtype=np.int64)
    return np.where(x > p // 2, x - p, x)


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


def _convolve(x, y, n_out):
    """The first n_out terms of the exact convolution of int64 arrays x and y.

    ConsistencyError is raised before any transform if max|x| max|y|
    min(len x, len y), a bound on every exact convolution value, exceeds
    2^50, and after it if a rounding distance reaches 0.25, instead of
    returning a wrong integer (residues all (p-1)/2 at the bound read 0.5).
    One float FFT product: one rfft per distinct operand (y is x for a
    squaring), the spectra multiplied in place, one irfft.
    """
    top = int(np.abs(x).max()) * int(np.abs(y).max()) * min(len(x), len(y))
    if top > 1 << 50:
        raise ConsistencyError(f"convolution bound {top} exceeds 2^50")
    size = _fft_size(max(len(x) + len(y) - 1, n_out))
    f = np.fft.rfft(x, size)
    f *= f if y is x else np.fft.rfft(y, size)
    return _rounded(np.fft.irfft(f, size)[:n_out])


def series_mul(a, b, n_out, p):
    """Product of power series a*b mod p, truncated to n_out terms.

    a and b hold residues in [0, p), indexed by exponent; each is balanced
    once, `_convolve` multiplies them and the product is reduced mod p.
    Returns n_out int64 residues.
    """
    x = _balanced(a[:n_out], p)
    y = x if b is a else _balanced(b[:n_out], p)
    out = _convolve(x, y, n_out)
    out %= p
    return out


def _eta_six(n_terms):
    """eta-tilde^6 over the integers, the first of the three squarings.

    eta-tilde^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2) has about sqrt(2 n_terms)
    terms, each below 2^12 at HARD_CAP, so the bound `_convolve` checks is
    about 8e12 there, far below 2^50; this squaring is then shared by all
    primes.
    """
    k = np.arange(math.isqrt(2 * n_terms) + 2, dtype=np.int64)
    k = k[k * (k + 1) // 2 < n_terms]
    eta3 = np.zeros(n_terms, dtype=np.int64)
    eta3[k * (k + 1) // 2] = (1 - 2 * (k & 1)) * (2 * k + 1)
    return _convolve(eta3, eta3, n_terms)


def _sigma_mod(power, n_terms, p):
    """sigma_power(m) mod p for m = 0..n_terms-1 (index 0 is 0).

    Each m = d*q with d <= q is visited once, from the row of d: one numpy
    slice step per d <= sqrt(m), adding d^power + q^power (d^power once
    when q = d).
    """
    m = np.arange(n_terms, dtype=np.int64) % p
    pw = m
    for _ in range(power - 1):
        pw = pw * m % p
    sig = np.zeros(n_terms, dtype=np.int64)
    for d in range(1, math.isqrt(n_terms - 1) + 1):
        top = (n_terms - 1) // d
        sig[d * d :: d] += pw[d : top + 1] + pw[d]
        sig[d * d] -= pw[d]
    return sig % p


def _eigenform_mod(weight, eta6, p):
    # a(n+1) mod p for n = 0..N-1, as eta^24 * E_{weight-12}; eta^24 is
    # eta^6 squared twice, and the q-shift is left to the caller
    N = len(eta6)
    s = eta6 % p
    for _ in range(2):
        s = series_mul(s, s, N, p)
    if _WEIGHTS[weight][1]:
        c, r = _WEIGHTS[weight][1]
        e = _sigma_mod(r, N, p) * (c % p) % p
        e[0] = 1
        s = series_mul(s, e, N, p)
    return s


def _garner(primes, residues, n):
    """Mixed-radix digits of x + H, H = (M-1)/2, M = prod(primes), for n
    integers |x| < M/2 from their residues, one int64 array per prime in
    order. Each array becomes a row as it arrives: row i of the int32 result
    lies in [0, p_i), and x + H = d_0 + p_0 (d_1 + p_1 (d_2 + ...)).
    """
    half = math.prod(primes) // 2
    digits = np.empty((len(primes), n), dtype=np.int32)
    for i, (p, v) in enumerate(zip(primes, residues)):
        v = v + half % p
        if i:
            # v -= (digits so far, evaluated mod p); v /= p_0 ... p_{i-1}
            v -= _digits_mod(primes[:i], digits[:i], p)
            v *= pow(math.prod(primes[:i]), -1, p)
        v %= p
        digits[i] = v
    return digits


def _digits_mod(primes, digits, q):
    # the integers whose mixed-radix digits are the columns of `digits`, mod q
    acc = np.zeros(digits.shape[1], dtype=np.int64)
    for d, p in zip(digits[::-1], primes[::-1]):
        acc *= p
        acc += d
        acc %= q
    return acc


def _combine(primes, digits):
    """The integers whose `_garner` digits are the columns of `digits`: three
    digits to an int64 limb (three primes below 2^21 multiply to under 2^63),
    H subtracted from each limb as R // 2, R its radix, since every digit of
    H is (p_i - 1)/2, and the limbs combined as Python ints per chunk."""
    groups = [(primes[g : g + 3], digits[g : g + 3]) for g in range(0, len(primes), 3)]
    radices = [math.prod(ps) for ps, _ in groups]
    out = []
    for lo in range(0, digits.shape[1], _CHUNK):
        limbs = []
        for (ps, ds), radix in zip(groups, radices):
            limb = ds[-1][lo : lo + _CHUNK].astype(np.int64)
            for d, q in zip(reversed(ds[:-1]), reversed(ps[:-1])):
                limb *= q
                limb += d[lo : lo + _CHUNK]
            limb -= radix // 2
            limbs.append(limb.tolist())
        acc = limbs[-1]
        for limb, radix in zip(reversed(limbs[:-1]), reversed(radices[:-1])):
            acc = list(map(add, map(mul, acc, repeat(radix)), limb))
        out += acc
    return out


@dataclass(frozen=True, eq=False)
class EigenformTable:
    """q-expansion of the normalized eigenform of one-dimensional weight.

    `digits` is the (len(crt_primes(weight, limit)), limit + 1) int32
    matrix of `_garner` digits of a(0..limit), a(0) = 0. The digits are the
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
        one row per CRT prime and limit + 1 columns, digit i of every a(n)
        lies in [0, p_i), a(1) = 1 and, with m the modulus in `_WEIGHTS`,
        a(n) = sigma_{k-1}(n) mod m at every n; a(n) mod m comes off the digits."""
        primes = crt_primes(self.weight, self.limit)
        want = (len(primes), self.limit + 1)
        if self.digits.shape != want:
            raise ConsistencyError(f"digits have shape {self.digits.shape}, expected {want}")
        for i, (row, p) in enumerate(zip(self.digits, primes)):
            if row.min() < 0 or row.max() >= p:
                n = np.flatnonzero((row < 0) | (row >= p))[0]
                raise ConsistencyError(f"digit {i} of a({n}) outside [0, {p})")
        if self.lam(1) != 1.0:  # as floats, only the integer 1 is 1.0
            raise ConsistencyError("eigenform not normalized: a(1) != 1")
        m = _WEIGHTS[self.weight][0]
        acc = _digits_mod(primes, self.digits, m)
        acc -= math.prod(primes) // 2 % m
        bad = np.flatnonzero(acc % m != _sigma_mod(self.weight - 1, self.limit + 1, m))
        if bad.size:
            n, k = bad[0], self.weight
            raise ConsistencyError(f"a({n}) != sigma_{k - 1}({n}) mod {m} at weight {k}")


def _lam(form, ns):
    # a(n) / n^((k-1)/2) for each n in ns, as Python float powers: np.power
    # rounds n**e differently for thousands of n <= 1e5
    e = (form.weight - 1) / 2
    raw = _combine(crt_primes(form.weight, form.limit), form.digits[:, ns])
    return [a / n**e for a, n in zip(raw, ns)]


def eigenform_qexp(weight: int, N: int) -> EigenformTable:
    """Normalized cusp eigenform of any one-dimensional level-1 weight."""
    primes = crt_primes(weight, N)
    eta6 = _eta_six(N)
    residues = (np.concatenate(([0], _eigenform_mod(weight, eta6, p))) for p in primes)
    return EigenformTable(weight=weight, limit=N, digits=_garner(primes, residues, N + 1))


# ---------------------------------------------------------------------------
# symmetric-power coefficients


def sym_prime_power(j: int, a: int, t: float) -> float:
    """lam_sym^j(p^a) given t = lam_f(p).

    This is h_a of the roots alpha^(j-2m), m = 0..j: `symbolic.local_expansion`
    with the single weight 1 at top = j, in real doubles.
    """
    _check_power(j, a)
    return local_expansion((1,), j, deligne_t(t), a)[a]


def _check_power(j: int, a: int) -> None:
    if j < 1:
        raise ValueError(f"j must be positive, got {j}")
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")


def largest_prime_factors(N: int) -> np.ndarray:
    """lpf[n] = largest prime factor of n as int32 (lpf[0] = lpf[1] = 0).

    The primes p <= sqrt(N), in ascending order, each overwrite the slice
    lpf[p::p], so the largest of them that divides n is what stays. A prime
    p above sqrt(N) divides only k p with k < sqrt(N), and is the largest
    factor there, so one step per k writes the whole slice of such primes
    at once.
    """
    lpf = np.zeros(N + 1, dtype=np.int32)
    root = math.isqrt(N)
    for p in range(2, root + 1):
        if lpf[p] == 0:
            lpf[p::p] = p
    big = np.flatnonzero(lpf[root + 1 :] == 0).astype(np.int32) + np.int32(root + 1)
    for k in range(1, N // (root + 1) + 1):
        top = big[: np.searchsorted(big, N // k, "right")]
        lpf[k * top] = top
    return lpf


def _primes(lpf):
    # n >= 2 is prime exactly when it is its own largest prime factor
    return 2 + np.flatnonzero(lpf[2:] == np.arange(2, len(lpf), dtype=np.int32))


def primes_up_to(N: int) -> list:
    return _primes(largest_prime_factors(max(N, 1))).tolist()


def sym_coeff_sieve(j: int, form: EigenformTable) -> list:
    """lam_sym^j(n) for n = 0..N = form.limit, multiplicatively (index 0 unused).

    Each n splits as rest * P, where P is the full power of the largest
    prime factor of n that divides it, so rest holds only smaller primes.
    With f = `_prime_power_values`, out[n] = out[rest[n]] * f[P[n]] is
    filled by one gather pass per distinct prime factor, so each product is
    formed from the smallest prime up, ((f(p1^a1) f(p2^a2)) ...), in the
    order of a factorization loop and with the same floats.
    """
    _check_power(j, 0)
    N = form.limit
    rest, power, primes = _split_largest_prime_power(N)
    fP = _prime_power_values(j, N, primes, form)[power]
    del power
    # a number <= N has at most as many distinct primes as the largest
    # primorial <= N
    passes, primorial = 0, 1
    for p in primes:
        primorial *= int(p)
        if primorial > N:
            break
        passes += 1
    out = fP
    for _ in range(passes - 1):
        out = out[rest]
        out *= fP
    del rest, fP  # only out is left while the list is built
    return out.tolist()


def _split_largest_prime_power(N):
    """rest, P and the primes up to N, with n = rest[n] P[n] and P[n] the
    full power of the largest prime factor of n (rest = P = n at 0 and 1)."""
    lpf = largest_prime_factors(N)
    primes = _primes(lpf)
    n = np.arange(N + 1, dtype=np.int32)
    rest = n.copy()
    rest[2:] //= lpf[2:]
    idx = 2 + np.flatnonzero(lpf[rest[2:]] == lpf[2:])
    while idx.size:
        rest[idx] //= lpf[idx]
        idx = idx[lpf[rest[idx]] == lpf[idx]]
    n[2:] //= rest[2:]
    return rest, n, primes


def _prime_power_values(j, N, primes, form):
    """f[p^a] = lam_sym^j(p^a) for every prime power p^a <= N, f[1] = 1.0
    and 0.0 elsewhere.

    Two vector calls of `symbolic.local_expansion`: order 1 for the primes
    above sqrt(N), whose squares exceed N, and order floor(log2 N) for the
    few below. The Deligne check and clamp are those of `symbolic.deligne_t`.
    """
    t = np.array(_lam(form, primes.tolist()))
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
        # p^a <= N holds for a prefix of the ascending primes
        c = int(np.searchsorted(q, N, "right"))
        q = q[:c]
        f[q] = h[:c]
        q = q * small[:c]
    return f


# ---------------------------------------------------------------------------
# on-disk cache


def cache_path(cache_dir: str, weight: int, N: int) -> str:
    return os.path.join(cache_dir, f"tau_{weight}_{N}.i32")


def save_table(form: EigenformTable, cache_dir: str) -> str:
    """Write the table's digits to its cache file as little-endian int32.

    Each writer renames its own temp file, named by process and thread, into
    place, so overlapping writers of one table cannot take each other's; a
    failed write or rename removes it.
    """
    os.makedirs(cache_dir, exist_ok=True)
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
        digits = np.fromfile(fh, dtype="<i4").reshape(len(primes), N + 1)
    return EigenformTable(weight=weight, limit=N, digits=digits)


def cached_eigenform(weight: int, N: int, cache_dir: str) -> EigenformTable:
    """Load from cache when present, else compute and persist; an unusable
    cache_dir fails before the table is built."""
    form = load_table(weight, N, cache_dir)
    if form is None:
        os.makedirs(cache_dir, exist_ok=True)
        form = eigenform_qexp(weight, N)
        save_table(form, cache_dir)
    return form
