"""Correctness checks for CLI outputs, computed apart from the library.

Nothing here imports `symmoment`. Every expected value comes from a
standard fact recomputed in this file: divisor sums, Bernoulli numbers,
Ramanujan's sigma_5 convolution formula for tau, the Eisenstein
congruences, the Deligne bound, Hecke multiplicativity, the q-binomial
form of lam_sym^j(p^a), composition counts and the Chebyshev basis S_r.

Each `check_*` function takes the text a subcommand printed and raises
`CheckError` on the first discrepancy.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction


class CheckError(Exception):
    """An output disagrees with an independent computation or property."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# number theory helpers


def smallest_prime_factors(n: int) -> list:
    spf = [0] * (n + 1)
    for p in range(2, n + 1):
        if spf[p] == 0:
            for m in range(p, n + 1, p):
                if spf[m] == 0:
                    spf[m] = p
    return spf


def primes_up_to(n: int) -> list:
    spf = smallest_prime_factors(n)
    return [p for p in range(2, n + 1) if spf[p] == p]


def divisor_sums(power: int, n: int, modulus: int | None = None) -> list:
    """sigma_power(m) for m = 0..n, reduced mod `modulus` when given."""
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        dp = d**power if modulus is None else pow(d, power, modulus)
        for m in range(d, n + 1, d):
            sig[m] += dp
    if modulus is not None:
        sig = [s % modulus for s in sig]
    return sig


def bernoulli(k: int) -> Fraction:
    """B_k from sum_{i<=m} C(m+1, i) B_i = 0 (B_1 = -1/2 convention)."""
    b = [Fraction(1)]
    for m in range(1, k + 1):
        b.append(-sum(math.comb(m + 1, i) * b[i] for i in range(m)) / (m + 1))
    return b[k]


def eisenstein_modulus(weight: int) -> int:
    """Numerator of B_k/2k: a(n) = sigma_{k-1}(n) modulo it (Swinnerton-Dyer)."""
    return abs((bernoulli(weight) / (2 * weight)).numerator)


def tau_exact(n: int, sigma5: list, sigma11: list) -> int:
    """Ramanujan: 756 tau(n) = 65 s11 + 691 s5 - 691*252 sum s5(k) s5(n-k)."""
    conv = sum(sigma5[k] * sigma5[n - k] for k in range(1, n))
    num = 65 * sigma11[n] + 691 * sigma5[n] - 691 * 252 * conv
    _require(num % 756 == 0, f"Ramanujan numerator not divisible by 756 at n={n}")
    return num // 756


# ---------------------------------------------------------------------------
# q-expansion tables


def parse_table(text: str, limit: int) -> list:
    """`tau --format csv` text to a(0..limit) with a(0) = 0; rows n = 1..limit."""
    lines = text.split("\n")
    _require(lines[0] == "n,a_n", f"bad table header {lines[0]!r}")
    _require(lines[-1] == "" and len(lines) == limit + 2, "table row count wrong")
    a = [0] * (limit + 1)
    for n in range(1, limit + 1):
        idx, sep, val = lines[n].partition(",")
        _require(sep == "," and idx == str(n), f"table row {n} is {lines[n]!r}")
        try:
            a[n] = int(val)
        except ValueError:
            raise CheckError(f"non-integer a({n}) = {val!r}") from None
    return a


def check_same(warm: str, cold: str | None) -> None:
    """A table served from the cache must print byte for byte as when built."""
    _require(cold is not None and warm == cold, "cached output differs from the built one")


def check_table(a: list, weight: int, sample: list, spf: list | None = None) -> None:
    """Certify a(1..N) of the weight-k eigenform.

    Every n: a(1) = 1, the Eisenstein congruence, Hecke multiplicativity
    and the prime-power recursion; every prime: the Deligne bound. For
    weight 12 the n in `sample` are also recomputed exactly.
    """
    N = len(a) - 1
    kk = weight - 1
    _require(a[1] == 1, f"a(1) = {a[1]}, not 1")
    modulus = eisenstein_modulus(weight)
    sig = divisor_sums(kk, N, modulus)
    for n in range(1, N + 1):
        if (a[n] - sig[n]) % modulus:
            raise CheckError(f"a({n}) breaks the congruence mod {modulus}")
    spf = spf if spf is not None and len(spf) > N else smallest_prime_factors(N)
    for n in range(2, N + 1):
        p = spf[n]
        m, pa = n, 1
        while m % p == 0:
            m //= p
            pa *= p
        if m > 1:
            if a[n] != a[pa] * a[m]:
                raise CheckError(f"a({n}) != a({pa}) a({m})")
        elif pa == p:
            if a[p] * a[p] > 4 * p**kk:
                raise CheckError(f"a({p}) breaks the Deligne bound")
        elif a[n] != a[p] * a[n // p] - p**kk * a[n // (p * p)]:
            raise CheckError(f"Hecke recursion fails at {n}")
    if weight == 12 and sample:
        top = max(sample)
        sigma5 = divisor_sums(5, top)
        sigma11 = divisor_sums(11, top)
        for n in sample:
            if a[n] != tau_exact(n, sigma5, sigma11):
                raise CheckError(f"tau({n}) disagrees with the sigma_5 formula")


# ---------------------------------------------------------------------------
# composition counts and the S_r basis


def composition_counts(l: int, j: int) -> list:
    """c_m = #{(x_1..x_l) in [0, j]^l : sum = m}, by dynamic programming."""
    c = [1]
    for _ in range(l):
        nxt = [0] * (len(c) + j)
        run = 0
        for m in range(len(nxt)):
            run += c[m] if m < len(c) else 0
            run -= c[m - j - 1] if 0 <= m - j - 1 < len(c) else 0
            nxt[m] = run
        c = nxt
    return c


def first_differences(c: list) -> list:
    half = (len(c) - 1) // 2
    return [c[m] - (c[m - 1] if m else 0) for m in range(half + 1)]


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y
    return out


def _poly_add(a: list, b: list, scale: int = 1) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += scale * y
    return out


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def chebyshev_s(r_max: int) -> list:
    """S_0..S_rmax with S_r(2 cos x) = sin((r+1)x)/sin x, coefficient lists."""
    s = [[1], [0, 1]]
    while len(s) <= r_max:
        s.append(_trim(_poly_add(_poly_mul([0, 1], s[-1]), s[-2], -1)))
    return s


# ---------------------------------------------------------------------------
# coeffs / identity / exponents / euler


def check_coeffs(text: str, l: int, j: int) -> None:
    doc = json.loads(text)
    c = doc["c"]
    D = (j + 1) ** l
    _require((doc["l"], doc["j"]) == (l, j), "coeffs echoes the wrong pair")
    _require(len(c) == l * j + 1, f"coeffs has {len(c)} entries, not lj+1")
    _require(sum(c) == D and doc["total"] == D, f"c_m do not total (j+1)^l = {D}")
    _require(c == c[::-1] and doc["palindromic"] is True, "c_m not palindromic")
    _require(c == composition_counts(l, j), "c_m differ from composition counts")
    _require(doc["diff"] == first_differences(c), "diff is not the first difference")
    _require(doc["diff_kind"] == ("D" if l * j % 2 == 0 else "E"), "wrong diff_kind")
    _require(doc["unimodal"] is True, "c_m reported not unimodal")


def check_identity(text: str, l: int, j: int) -> None:
    doc = json.loads(text)
    _require(doc["degree"] == (j + 1) ** l, "degree differs from (j+1)^l")
    _require(doc["holds"] is True, "decomposition reported not to hold")
    w = first_differences(composition_counts(l, j))
    _require(doc["weights"] == w, "weights are not the first differences")
    s = chebyshev_s(l * j)
    lhs = [1]
    for _ in range(l):
        lhs = _poly_mul(lhs, s[j])
    rhs = []
    for m, wm in enumerate(w):
        rhs = _poly_add(rhs, s[l * j - 2 * m], wm)
    _require(_trim(lhs) == _trim(rhs), "S_j^l != sum w_m S_(lj-2m)")
    _require(doc["lhs_coeffs"] == _trim(lhs), "lhs_coeffs differ from S_j^l")


def check_exponents(text: str, pairs: list) -> None:
    rows = json.loads(text)
    _require([(r["l"], r["j"]) for r in rows] == pairs, "exponent rows for wrong pairs")
    for r in rows:
        l, j = r["l"], r["j"]
        lj = l * j
        parity = "even4" if lj == 4 else ("evenBig" if lj % 2 == 0 else "odd")
        _require(r["D"] == (j + 1) ** l, f"D wrong at ({l},{j})")
        _require(r["parity"] == parity, f"parity wrong at ({l},{j})")
        th, ts = r["theta"], r["theta_star"]
        _require(0.0 < th < 1.0, f"theta out of (0, 1) at ({l},{j})")
        if lj % 2:
            _require(ts is None, f"odd ({l},{j}) has theta_star")
        else:
            _require(ts is not None and 0.0 < ts <= th, f"theta_star wrong at ({l},{j})")
        if r["previous"] is None:
            _require(r["improved"] is None, f"improved without previous at ({l},{j})")
        else:
            _require(r["improved"] == (th < Fraction(r["previous"])),
                     f"improved flag wrong at ({l},{j})")


def check_euler_exact(text: str, l: int, j: int, order: int) -> None:
    doc = json.loads(text)
    coeffs = doc["coeffs"]
    _require(doc["exact"] is True and len(coeffs) == order + 1, "exact series shape")
    _require(coeffs[0] == "1", "exact X^0 coefficient is not 1")
    if order >= 1:
        _require(coeffs[1] == "0", f"exact X^1 is {coeffs[1]!r}, not the zero polynomial")


def euler_x1_tolerance(l: int, j: int) -> float:
    """Bound on the float X^1 coefficient, which should cancel to zero.

    It is lam^l minus the sum of D = (j+1)^l unit-modulus roots, where
    both terms and the partial sums reach size D; rounding then grows
    like eps * D^1.5. Over every prime below 500 and every float pair of
    the benchmark the largest |X^1| seen was 0.35 eps D^1.5.
    """
    return 16 * 2.0**-52 * ((j + 1) ** l) ** 1.5


def check_euler_float(text: str, l: int, j: int, p: int, order: int) -> None:
    doc = json.loads(text)
    coeffs = doc["coeffs"]
    _require(doc["exact"] is False and doc["p"] == p, "float series echoes wrong input")
    _require(len(coeffs) == order + 1, "float series has the wrong length")
    _require(abs(coeffs[0] - 1.0) < 1e-12, "float X^0 coefficient is not 1")
    _require(all(math.isfinite(c) for c in coeffs), "float series not finite")
    if order >= 1:
        tol = euler_x1_tolerance(l, j)
        _require(abs(coeffs[1]) <= tol, f"float X^1 = {coeffs[1]!r} exceeds {tol:.3g}")


# ---------------------------------------------------------------------------
# partial sums


def checkpoint_grid(N: int) -> list:
    """Distinct ceil(N (4/5)^i), i = 0..23, in exact integer arithmetic."""
    return sorted({-((-N * 4**i) // 5**i) for i in range(24)})


def sym_prime_power(j: int, a: int, t: float) -> float:
    """lam_sym^j(p^a) = alpha^(-ja) [a+j choose j]_(alpha^2), alpha = e^(i theta).

    The Gaussian binomial comes from the q-Pascal rule, so no division by
    1 - q^i is needed even when q is a root of unity.
    """
    theta = math.acos(max(-1.0, min(1.0, t / 2.0)))
    q = cmath.exp(2j * theta)
    row = [1 + 0j]  # [n choose k]_q for k = 0..n
    for n in range(1, a + j + 1):
        new = [1 + 0j] * (n + 1)
        for k in range(1, n):
            new[k] = row[k - 1] + q**k * row[k]
        row = new
    return (cmath.exp(-1j * j * a * theta) * row[j]).real


class MomentReference:
    """lam_sym^j(n) for n <= N from a checked table, and its partial sums."""

    def __init__(self, a: list, weight: int, spf: list | None = None):
        self.a = a
        self.weight = weight
        self.N = len(a) - 1
        self.spf = spf if spf is not None and len(spf) > self.N else smallest_prime_factors(self.N)
        self._lam = {}

    def lam(self, j: int) -> list:
        if j not in self._lam:
            N, spf, e = self.N, self.spf, (self.weight - 1) / 2
            memo = {}
            out = [0.0] * (N + 1)
            out[1] = 1.0
            for n in range(2, N + 1):
                p = spf[n]
                m, k = n, 0
                while m % p == 0:
                    m //= p
                    k += 1
                f = memo.get((p, k))
                if f is None:
                    f = memo[(p, k)] = sym_prime_power(j, k, self.a[p] / p**e)
                out[n] = f * out[m]
            self._lam[j] = out
        return self._lam[j]


def _poly_log(coeffs: list, x: int) -> float:
    lx = math.log(x)
    return x * math.fsum(c * lx**k for k, c in enumerate(coeffs))


def _slope(points: list) -> tuple:
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(e) for _, e in points]
    n = len(points)
    mx, my = math.fsum(lx) / n, math.fsum(ly) / n
    sxx = math.fsum((u - mx) ** 2 for u in lx)
    slope = math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly)) / sxx
    var = math.fsum((v - my - slope * (u - mx)) ** 2 for u, v in zip(lx, ly)) / max(n - 2, 1)
    return slope, math.sqrt(var / sxx)


def _close(x: float, y: float, rel: float, scale: float = 0.0) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), scale)


def check_partial_sum(text: str, l: int, j: int, N: int, ref: MomentReference) -> None:
    """S(x) at every checkpoint by math.fsum, then fit and residual slope."""
    doc = json.loads(text)
    _require((doc["l"], doc["j"], doc["limit"]) == (l, j, N), "partial-sum echoes wrong input")
    _require(doc["weight"] == ref.weight, "partial-sum used the wrong weight")
    pts = doc["checkpoints"]
    grid = checkpoint_grid(N)
    _require([x for x, _ in pts] == grid, "checkpoints differ from ceil(N/1.25^i)")
    terms = [v**l for v in ref.lam(j)[1 : N + 1]]
    for x, s in pts:
        head = terms[:x]
        want = math.fsum(head)
        scale = math.fsum(abs(v) for v in head)
        if not _close(s, want, 1e-10, scale):
            raise CheckError(f"S({x}) = {s!r}, fsum gives {want!r}")

    c = composition_counts(l, j)
    window = len(pts) - len(pts) // 2
    fit = doc["fit"]
    degree = c[l * j // 2] - c[l * j // 2 - 1] - 1 if l * j % 2 == 0 else -1
    _require((fit is not None) == (0 <= degree and degree + 3 <= window),
             f"fit present={fit is not None} but degree {degree}, window {window}")
    if fit is not None:
        _require(fit["degree"] == degree, "fit degree is not d_(lj/2) - 1")
        q = fit["coeffs"]
        _require(len(q) == degree + 1, "fit has the wrong number of coefficients")
        for (x, s), (xr, e) in zip(pts, fit["residuals"]):
            main = _poly_log(q, x)
            _require(x == xr and _close(e, s - main, 1e-9, abs(s) + abs(main)),
                     f"fit residual wrong at x={x}")
        # least squares: residual ratios orthogonal to every column log(x)^k
        win = pts[len(pts) // 2 :]
        r = [s / x - _poly_log(q, x) / x for x, s in win]
        for k in range(degree + 1):
            col = [math.log(x) ** k for x, _ in win]
            dot = math.fsum(u * v for u, v in zip(r, col))
            norm = math.sqrt(math.fsum(v * v for v in col))
            size = math.sqrt(math.fsum((s / x) ** 2 for x, s in win))
            _require(abs(dot) <= 1e-8 * norm * size, f"fit not least squares in column {k}")
    data = fit["residuals"] if fit is not None else pts
    nz = [(x, abs(e)) for x, e in data if e != 0.0]
    rep = doc["residual_exponent"]
    if N < 100 or len(nz) < 3:
        _require(rep is None, "residual slope reported for a degenerate series")
    else:
        slope, stderr = _slope(nz)
        _require(rep is not None and rep["points"] == len(nz), "residual point count wrong")
        _require(_close(rep["slope"], slope, 1e-9, 1.0), "residual slope wrong")
        _require(_close(rep["stderr"], stderr, 1e-9, 1e-6), "residual stderr wrong")
