"""Level-1 eigenform q-expansions and symmetric-power coefficients.

Exact integer coefficients a(n) for the unique normalized cusp eigenforms
of weights 12, 16, 18, 20, 22, 26, each built as q eta^24 E_{k-12} from
the sparse eta-cube series and one Eisenstein series. Normalized values
lam(n) = a(n)/n^((k-1)/2) feed the symmetric-power values at prime
powers and a multiplicative sieve over n <= N.

The q-expansion is multi-modular. For each of a few primes below 2^21 the
series products run on int64 residues through numpy float FFTs of 11-bit
halves, and the integers are rebuilt by Garner's CRT. The number of primes
comes from the Deligne bound, so the rebuilt integers are exact, and every
FFT product checks its rounding margin before its residues are used.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

import numpy as np

from .errors import CapacityError, ConsistencyError

HARD_CAP = 1_000_000

SUPPORTED_WEIGHTS = (12, 16, 18, 20, 22, 26)


def _check_limit(n: int, limit: int | None = None) -> None:
    if n < 1:
        raise ValueError(f"N must be positive, got {n}")
    cap = HARD_CAP if limit is None else min(limit, HARD_CAP)
    if n > cap:
        raise CapacityError(f"N={n} exceeds limit {cap}")


# ---------------------------------------------------------------------------
# multi-modular series arithmetic

PRIME_CEIL = 1 << 21

# residues are split into 11-bit halves before the float convolution
_HALF_BITS = 11
# a convolution value this far from an integer means the float FFT lost
# exactness; correct products stay below 1e-5 at HARD_CAP
_ROUND_GUARD = 0.25
# digits turned into Python ints per pass, which bounds the temporaries
_CHUNK = 1 << 16


def crt_primes(weight: int, N: int) -> list:
    """Primes below PRIME_CEIL, largest first, whose product exceeds 2B.

    B = 2 N^(k/2) is the Deligne bound: |a(n)| <= d(n) n^((k-1)/2) with
    d(n) <= 2 sqrt(n), so every a(n) with n <= N lies in [-B, B], and a
    modulus above 2B gives each such integer its own balanced residue.
    """
    need = 2 * (2 * N ** (weight // 2))
    small = primes_up_to(math.isqrt(PRIME_CEIL))
    primes = []
    prod = 1
    cand = PRIME_CEIL - 1
    while prod <= need:
        if all(cand % q for q in small):
            primes.append(cand)
            prod *= cand
        cand -= 2
    return primes


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


def _halves(x, p):
    # balanced residue in (-p/2, p/2], then lo in [-2^10, 2^10), hi in [-2^9, 2^9]
    x = np.asarray(x, dtype=np.int64)
    x = np.where(x > p // 2, x - p, x)
    hi = (x + (1 << (_HALF_BITS - 1))) >> _HALF_BITS
    return x - (hi << _HALF_BITS), hi


def _rounded(x):
    # x is overwritten with its distance to r
    r = np.rint(x)
    x -= r
    dist = np.abs(x, out=x).max()
    if dist >= _ROUND_GUARD:
        raise ConsistencyError(f"FFT rounding distance {dist:.3g} >= {_ROUND_GUARD}")
    return r.astype(np.int64)


def series_mul(a, b, n_out, p):
    """Product of power series a*b mod p, truncated to n_out terms.

    a and b hold residues in [0, p) with p < PRIME_CEIL, indexed by
    exponent. Each residue is balanced and split into 11-bit halves, and the
    three half products are float FFT convolutions whose exact values stay
    below 2^40 at HARD_CAP, far inside double precision. A rounding distance
    of 0.25 anywhere raises ConsistencyError instead of returning a
    wrong residue. Returns an int64 array of n_out residues.
    """
    fft = np.fft
    a_lo, a_hi = _halves(a[:n_out], p)
    b_lo, b_hi = (a_lo, a_hi) if b is a else _halves(b[:n_out], p)
    size = _fft_size(len(a_lo) + len(b_lo) - 1)
    fa_lo, fa_hi = fft.rfft(a_lo, size), fft.rfft(a_hi, size)
    if b is a:
        fb_lo, fb_hi = fa_lo, fa_hi
    else:
        fb_lo, fb_hi = fft.rfft(b_lo, size), fft.rfft(b_hi, size)
    lo = _rounded(fft.irfft(fa_lo * fb_lo, size)[:n_out])
    mid = _rounded(fft.irfft(fa_lo * fb_hi + fa_hi * fb_lo, size)[:n_out])
    hi = _rounded(fft.irfft(fa_hi * fb_hi, size)[:n_out])
    out = np.zeros(n_out, dtype=np.int64)
    out[: len(lo)] = (
        lo + (mid % p << _HALF_BITS) + hi % p * pow(2, 2 * _HALF_BITS, p)
    ) % p
    return out


def _eta_six(n_terms):
    """eta-tilde^6 over the integers, the first of the three squarings.

    eta-tilde^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2) has about sqrt(2 n_terms)
    terms, each below 2^12 at HARD_CAP, so its square stays below 2^34 and
    one float FFT product is exact; this squaring is then shared by all
    primes.
    """
    k = np.arange(math.isqrt(2 * n_terms) + 2, dtype=np.int64)
    k = k[k * (k + 1) // 2 < n_terms]
    eta3 = np.zeros(n_terms, dtype=np.int64)
    eta3[k * (k + 1) // 2] = (1 - 2 * (k & 1)) * (2 * k + 1)
    size = _fft_size(2 * n_terms - 1)
    f = np.fft.rfft(eta3, size)
    return _rounded(np.fft.irfft(f * f, size)[:n_terms])


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


# weight -> (c, r): the eigenform is Delta * E_{weight-12}, and each of
# these Eisenstein spaces is one-dimensional, E = 1 + c sum sigma_r(n) q^n
_EISENSTEIN = {
    16: (240, 3),
    18: (-504, 5),
    20: (480, 7),
    22: (-264, 9),
    26: (-24, 13),
}


def _eigenform_mod(weight, eta6, p):
    # a(n+1) mod p for n = 0..N-1, as eta^24 * E_{weight-12}; eta^24 is
    # eta^6 squared twice, and the q-shift is left to the caller
    N = len(eta6)
    s = eta6 % p
    for _ in range(2):
        s = series_mul(s, s, N, p)
    if weight in _EISENSTEIN:
        c, r = _EISENSTEIN[weight]
        e = _sigma_mod(r, N, p) * (c % p) % p
        e[0] = 1
        s = series_mul(s, e, N, p)
    return s


def _crt_balanced(primes, residues):
    """Integers x with |x| < M/2, M = prod(primes), from their residues.

    `residues` yields one int64 array per prime, in order. Garner's
    method turns each into a mixed-radix digit as it arrives, so only the
    digits are kept; the offset H = (M-1)/2 makes every digit string that
    of x + H >= 0. Digits are packed three to an int64 limb (three primes
    below 2^21 multiply to less than 2^63), H is subtracted limb by limb,
    and the signed limbs are combined as Python ints one chunk at a time.
    """
    half = math.prod(primes) // 2
    digits = []
    for i, (p, v) in enumerate(zip(primes, residues)):
        v = v + half % p
        if digits:
            # v -= (digits so far, evaluated mod p); v /= p_0 ... p_{i-1}
            t = digits[-1].astype(np.int64)
            for d, q in zip(reversed(digits[:-1]), reversed(primes[: i - 1])):
                t *= q
                t += d
                t %= p
            v -= t
            v *= pow(math.prod(primes[:i]), -1, p)
        v %= p
        digits.append(v.astype(np.int32))
    groups = [(primes[g : g + 3], digits[g : g + 3]) for g in range(0, len(primes), 3)]
    radices = [math.prod(ps) for ps, _ in groups]
    offsets = []
    for radix in radices:
        half, h = divmod(half, radix)
        offsets.append(h)
    out = []
    for lo in range(0, len(digits[0]), _CHUNK):
        limbs = []
        for (ps, ds), h in zip(groups, offsets):
            limb = ds[-1][lo : lo + _CHUNK].astype(np.int64)
            for d, q in zip(reversed(ds[:-1]), reversed(ps[:-1])):
                limb *= q
                limb += d[lo : lo + _CHUNK]
            limb -= h
            limbs.append(limb.tolist())
        acc = limbs[-1]
        for limb, radix in zip(reversed(limbs[:-1]), reversed(radices[:-1])):
            acc = list(map(add, map(mul, acc, repeat(radix)), limb))
        out += acc
    return out


@dataclass(frozen=True)
class EigenformTable:
    """q-expansion of the normalized eigenform of one-dimensional weight.

    raw[n] = a(n) exactly for 1 <= n <= limit (raw[0] = 0 padding);
    normalized[n] = a(n) / n^((weight-1)/2) in double precision.
    """

    weight: int
    limit: int
    raw: tuple
    normalized: tuple = field(repr=False)

    def __post_init__(self):
        if self.raw[1] != 1:
            raise ConsistencyError("eigenform not normalized: a(1) != 1")

    def spot_check(self) -> None:
        """Cheap structural validation: Hecke recursion and multiplicativity.

        Raises ConsistencyError on any mismatch; used both after
        construction in tests and when re-reading cached tables.
        """
        kk = self.weight - 1
        for p in (2, 3, 5):
            c = 1
            while p ** (c + 1) <= self.limit:
                lhs = self.raw[p ** (c + 1)]
                rhs = self.raw[p] * self.raw[p**c] - p**kk * self.raw[p ** (c - 1)]
                if lhs != rhs:
                    raise ConsistencyError(
                        f"Hecke recursion fails at p={p}, c={c}, weight={self.weight}"
                    )
                c += 1
        for m, n in ((2, 3), (3, 4), (2, 9), (5, 8)):
            if m * n <= self.limit and self.raw[m * n] != self.raw[m] * self.raw[n]:
                raise ConsistencyError(f"multiplicativity fails at {m}*{n}")


def _table(weight, raw):
    # raw = [0, a(1), ..., a(N)]; normalized[n] = a(n) / n^((weight-1)/2)
    e = (weight - 1) / 2
    normalized = [0.0] + [raw[n] / n**e for n in range(1, len(raw))]
    return EigenformTable(
        weight=weight, limit=len(raw) - 1, raw=tuple(raw), normalized=tuple(normalized)
    )


def delta_qexp(N: int, limit: int | None = None) -> EigenformTable:
    """Weight-12 table with raw = Ramanujan tau(1..N)."""
    return eigenform_qexp(12, N, limit)


def eigenform_qexp(weight: int, N: int, limit: int | None = None) -> EigenformTable:
    """Normalized cusp eigenform of any one-dimensional level-1 weight."""
    if weight not in SUPPORTED_WEIGHTS:
        raise ValueError(
            f"weight {weight} not supported; choose from {SUPPORTED_WEIGHTS}"
        )
    _check_limit(N, limit)
    primes = crt_primes(weight, N)
    eta6 = _eta_six(N)
    return _table(
        weight, [0] + _crt_balanced(primes, (_eigenform_mod(weight, eta6, p) for p in primes))
    )


# ---------------------------------------------------------------------------
# symmetric-power coefficients


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

    t is a float, or the polynomial t itself (symbolic.IntPolynomial([0, 1]))
    for coefficients in Z[t]. There the division by n is exact, and a
    remainder, which correct power sums never leave, raises ConsistencyError.
    """
    one = t**0  # 1.0, or the constant polynomial 1
    x_prev, x = 2 * one, t
    p = []
    for _ in range(A):
        p.append(_power_sum(weights, top, x))
        x_prev, x = x, t * x - x_prev
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
    """t as a float in [-2, 2]; ValueError beyond the rounding slack of 1e-6."""
    if abs(t) > _T_MAX:
        raise ValueError(f"t={t} outside the Deligne interval [-2, 2]")
    return max(-2.0, min(2.0, float(t)))


def sym_prime_power(j: int, a: int, t: float) -> float:
    """lam_sym^j(p^a) given t = lam_f(p).

    This is h_a of the roots alpha^(j-2m), m = 0..j: `local_expansion` with
    the single weight 1 at top = j, in real doubles.
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


def sym_coeff_sieve(j: int, N: int, form: EigenformTable) -> list:
    """lam_sym^j(n) for n = 0..N by multiplicative extension (index 0 unused).

    Each n splits as rest * P, where P is the full power of the largest
    prime factor of n that divides it, so rest holds only smaller primes.
    With f = `_prime_power_values`, out[n] = out[rest[n]] * f[P[n]] is
    filled by one gather pass per distinct prime factor, so each product is
    formed from the smallest prime up, ((f(p1^a1) f(p2^a2)) ...), in the
    order of a factorization loop and with the same floats.
    """
    _check_power(j, 0)
    if form.limit < N:
        raise ValueError(f"form table limit {form.limit} < N={N}")
    _check_limit(N)
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

    Two vector calls of `local_expansion`: order 1 for the primes above
    sqrt(N), whose squares exceed N, and order floor(log2 N) for the few
    below. The Deligne check and clamp are those of `deligne_t`.
    """
    t = np.fromiter(map(form.normalized.__getitem__, primes.tolist()), float, len(primes))
    outside = np.flatnonzero(np.abs(t) > _T_MAX)
    if outside.size:
        deligne_t(float(t[outside[0]]))  # raises, naming the least such prime's t
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
    return os.path.join(cache_dir, f"tau_{weight}_{N}.csv")


def save_table(form: EigenformTable, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, form.weight, form.limit)
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "a_n"])
        for n in range(1, form.limit + 1):
            writer.writerow([n, form.raw[n]])
    os.replace(tmp, path)
    return path


# characters read per parse step; each step's strings and lists are
# transient, so a smaller chunk keeps the peak RSS of a load lower
_PARSE_CHUNK = 1 << 14

_TWO_COMMAS = re.compile(r",[^\n]*,")


def load_table(weight: int, N: int, cache_dir: str) -> EigenformTable | None:
    """Read a cached table back, re-validating; None when absent.

    Rows must run n = 1..N in order, each with exactly two integer fields.
    A malformed or failing file raises ConsistencyError rather than being
    silently recomputed, since stale caches are a real failure mode.

    The rows are read in chunks of about 16 KiB, each ending at a line
    end. A chunk whose lines each hold one comma and whose n column reads
    exactly row, row + 1, ... is split in one pass; any other chunk goes
    through `csv.reader` row by row, which accepts and rejects what it
    always has, with the same messages.
    """
    path = cache_path(cache_dir, weight, N)
    if not os.path.exists(path):
        return None
    raw = [0]
    with open(path) as fh:
        header = next(csv.reader(fh), None)
        if header != ["n", "a_n"]:
            raise ConsistencyError(f"bad cache header in {path}: {header}")
        while text := fh.read(_PARSE_CHUNK):
            text += fh.readline()  # finish the last line
            row = len(raw) - 1
            k = text.count("\n")  # a last line without one takes the csv path
            fields = text.replace("\n", ",").split(",")
            if (
                text.count(",") == k
                and _TWO_COMMAS.search(text) is None
                and fields[0:-1:2] == list(map(str, range(row + 1, row + k + 1)))
            ):
                try:
                    raw += map(int, fields[1::2])
                    continue
                except ValueError:
                    del raw[row + 1 :]  # the row-by-row parse names the field
            _parse_rows(io.StringIO(text), row, raw, path)
    if len(raw) != N + 1:
        raise ConsistencyError(f"cache {path} has {len(raw) - 1} rows, expected {N}")
    form = _table(weight, raw)
    form.spot_check()
    return form


def _parse_rows(lines, row, raw, path):
    # rows row + 1, ... one at a time, naming the first fault
    try:
        for row, (n, a_n) in enumerate(csv.reader(lines), row + 1):
            if int(n) != row:
                raise ConsistencyError(f"cache {path} row {row} holds n={n}")
            raw.append(int(a_n))
    except ValueError as exc:
        raise ConsistencyError(f"malformed cache row {row} in {path}: {exc}") from None


def cached_eigenform(weight: int, N: int, cache_dir: str) -> EigenformTable:
    """Load from cache when present, else compute and persist."""
    form = load_table(weight, N, cache_dir)
    if form is None:
        form = eigenform_qexp(weight, N)
        save_table(form, cache_dir)
    return form
