"""Empirical partial sums S(x) = sum_{n<=x} lam_sym^j(n)^l and main-term fits.

The even-case asymptotic has shape x Q(log x) + error, with deg Q one less
than the central first-difference weight. At desk scale the error exponent
is not recoverable, so this module only (a) computes S deterministically on
a geometric checkpoint grid up to the table's limit, (b) least-squares fits
Q over the top half of the grid, and (c) reports the growth slope of the
residuals with its standard error, as exploratory output. Each step returns
plain tuples and takes the previous step's values with the (l, j) the
caller already holds; `cli` alone labels them.
"""

from __future__ import annotations

import math

import numpy as np

from . import combinatorics
from .errors import FitError
from .hecke import EigenformTable, sym_coeff_sieve

CHECKPOINT_RATIO = 1.25
CHECKPOINT_COUNT = 24

MIN_N_FOR_SLOPE = 100


def checkpoint_grid(N: int) -> list:
    """Distinct values of ceil(N / r^i), i = 0..23, ascending."""
    xs = {math.ceil(N / CHECKPOINT_RATIO**i) for i in range(CHECKPOINT_COUNT)}
    return sorted(xs)


def partial_sum(l: int, j: int, form: EigenformTable) -> tuple:
    """((x, S(x)), ...) ascending over `checkpoint_grid(form.limit)`, from
    one deterministic pass with compensated accumulation.

    Raises ValueError when a term or a sum leaves the float range (l too
    large for the table's values), naming the checkpoint x it reached.
    """
    if l < 1:
        raise ValueError(f"l must be positive, got {l}")
    lam = sym_coeff_sieve(j, form)
    out = []
    total = 0.0
    comp = 0.0
    lo = 1
    try:
        for x in checkpoint_grid(form.limit):
            for v in lam[lo : x + 1]:
                # Kahan step keeps the accumulation error near one ulp of the sum
                y = v**l - comp
                t = total + y
                comp = (t - total) - y
                total = t
            # a sum can reach inf or nan without any term overflowing
            if not math.isfinite(total):
                raise OverflowError
            out.append((x, total))
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

