"""Empirical partial sums S(x) = sum_{n<=x} lam_sym^j(n)^l and main-term fits.

The even-case asymptotic has shape x Q(log x) + error, with deg Q one less
than the central first-difference weight. At desk scale the error exponent
is not recoverable, so this module only (a) computes S on a geometric
checkpoint grid up to the table's limit, as the correctly rounded sum of
the sieve's float terms, whose l-th power is taken at the prime powers
(`hecke.sym_coeff_sieve`), (b) least-squares fits
Q over the top half of the grid, and (c) reports the growth slope of the
residuals with its standard error, as exploratory output. Each step returns
plain tuples and takes the previous step's values with the (l, j) the
caller already holds; `cli` alone labels them.
"""

import math

import numpy as np

from . import combinatorics
from .errors import FitError
from .hecke import EigenformTable, sym_coeff_sieve

CHECKPOINT_RATIO = 1.25
CHECKPOINT_COUNT = 24

MIN_N_FOR_SLOPE = 100

_UNIT = 1 << 1126


def checkpoint_grid(N: int) -> list:
    """Distinct values of ceil(N / r^i), i = 0..23, ascending."""
    xs = {math.ceil(N / CHECKPOINT_RATIO**i) for i in range(CHECKPOINT_COUNT)}
    return sorted(xs)


def partial_sum(l: int, j: int, form: EigenformTable) -> tuple:
    """((x, S(x)), ...) ascending over `checkpoint_grid(form.limit)`, where
    S(x) is the correctly rounded sum of the float terms n <= x of
    `sym_coeff_sieve(j, form, l)`: their `math.fsum`.

    The sum is exact until each checkpoint rounds it once. Per checkpoint
    interval, `np.frexp` writes each term as an integer M, |M| < 2^53, times
    2^(E - 1126), E >= 0: 2^-1126 is the unit of M for the least subnormal.
    With E = 8 g + r, M 2^r = 2^30 hi + lo, |hi| <= 2^30 and
    0 <= lo < 2^30, and the float sums of hi and of lo per g
    (`np.bincount`) over fewer than 2^20 terms (N <= 10^6) stay below 2^50,
    so they are exact. They are carried in one Python int in units of
    2^-1126, and S(x) is that int over 2^1126: one int/int true division,
    which CPython rounds correctly.

    Past the sieve's `combinatorics.check_pair`, a term is at most
    d(n)^(lj) <= 240^64, about 1e152 at N <= 10^6 (Deligne), so the
    ValueError for a term or a sum out of the float range, naming the
    checkpoint x, is a safety check.
    """
    terms = sym_coeff_sieve(j, form, l)
    out = []
    total = 0
    lo = 1
    try:
        for x in checkpoint_grid(form.limit):
            chunk = terms[lo : x + 1]
            # a term past the float range has no exponent
            if not np.isfinite(chunk).all():
                raise OverflowError
            m, e = np.frexp(chunk)
            e += 1073  # the docstring's E
            r = e & 7
            e >>= 3
            hi = np.floor(np.ldexp(m, r + 23))
            g = int(e.min())
            e -= g
            his = np.bincount(e, hi)
            los = np.bincount(e, np.ldexp(m, r + 53) - hi * 2.0**30)
            for b in np.flatnonzero((his != 0) | (los != 0)).tolist():
                total += ((int(his[b]) << 30) + int(los[b])) << (8 * (g + b))
            # a sum can pass the largest float without any term doing so
            out.append((x, total / _UNIT))
            lo = x + 1
    except OverflowError:
        raise ValueError(f"l out of range: S({x}) overflows a float at l={l}") from None
    return tuple(out)


def default_fit_degree(l: int, j: int) -> int:
    """deg Q = d_{lj/2} - 1 from the central first-difference weight."""
    if (l * j) % 2:
        raise ValueError("main-term degree is defined for even l*j only")
    return combinatorics.weights(l, j)[(l * j) // 2] - 1


def fit_main_term(l: int, j: int, checkpoints) -> tuple:
    """(coeffs, residuals): least squares of S(x)/x against powers of log x
    over the top half of the `partial_sum` checkpoints.

    coeffs is Q, constant first, at degree `default_fit_degree` =
    len(coeffs) - 1; residuals is ((x, S(x) - x Q(log x)), ...) over every
    checkpoint. Early checkpoints are pre-asymptotic and excluded from the
    fit. Raises FitError when there is nothing to fit (l = 1, where the
    degree is -1), too few points or a rank-deficient design.
    """
    degree = default_fit_degree(l, j)
    if degree < 0:
        raise FitError(f"degree must be nonnegative, got {degree}")
    window = checkpoints[len(checkpoints) // 2 :]
    if len(window) < degree + 3:
        raise FitError(
            f"need at least {degree + 3} checkpoints in the fit window, have {len(window)}"
        )
    logs = np.array([math.log(x) for x, _ in window])
    ratios = np.array([s / x for x, s in window])
    design = np.vander(logs, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, ratios, rcond=None)
    if rank < degree + 1:
        raise FitError(f"rank-deficient design matrix: rank {rank} < {degree + 1}")
    q = [float(c) for c in coeffs]

    def main(x):
        lx = math.log(x)
        return x * sum(c * lx**k for k, c in enumerate(q))

    return tuple(q), tuple((x, s - main(x)) for x, s in checkpoints)


def residual_exponent(points) -> tuple | None:
    """(slope, stderr, points) of log|e(x)| against log x over ((x, e), ...):
    the fit residuals when a fit exists, else the checkpoints themselves.
    None when degenerate (N < 100, read from the top x, or fewer than three
    nonzero values)."""
    if points[-1][0] < MIN_N_FOR_SLOPE:
        return None
    pts = [(x, abs(e)) for x, e in points if e != 0.0]
    if len(pts) < 3:
        return None
    lx = np.array([math.log(x) for x, _ in pts])
    ly = np.array([math.log(e) for _, e in pts])
    n = len(pts)
    mx = lx.mean()
    my = ly.mean()
    sxx = float(((lx - mx) ** 2).sum())
    if sxx == 0.0:
        return None
    slope = float(((lx - mx) * (ly - my)).sum()) / sxx
    resid = ly - (my + slope * (lx - mx))
    var = float((resid**2).sum()) / max(n - 2, 1)
    stderr = math.sqrt(var / sxx)
    return slope, stderr, n

