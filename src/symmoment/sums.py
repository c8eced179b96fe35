"""Empirical partial sums S(x) = sum_{n<=x} lam_sym^j(n)^l and main-term fits.

The even-case asymptotic has shape x Q(log x) + error, with deg Q one less
than the central first-difference weight. At desk scale the error exponent
is not recoverable, so this module only (a) computes S on a geometric
checkpoint grid deterministically, (b) least-squares fits Q over the top
half of the grid, and (c) reports the growth slope of the residuals with
its standard error, as exploratory output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import combinatorics
from .errors import FitError
from .hecke import EigenformTable, sym_coeff_sieve

CHECKPOINT_RATIO = 1.25
CHECKPOINT_COUNT = 24

MIN_N_FOR_SLOPE = 100


@dataclass(frozen=True)
class PartialSumSeries:
    l: int
    j: int
    weight: int
    limit: int
    checkpoints: tuple  # (x, S(x)) ascending in x


@dataclass(frozen=True)
class FitResult:
    degree: int
    coeffs: tuple  # Q coefficients, constant first
    window: tuple  # checkpoints actually fitted
    residuals: tuple  # (x, S(x) - x*Q(log x)) over all checkpoints


@dataclass(frozen=True)
class ResidualReport:
    slope: float
    stderr: float
    points: int


def checkpoint_grid(N: int) -> list:
    """Distinct values of ceil(N / r^i), i = 0..23, ascending."""
    xs = {math.ceil(N / CHECKPOINT_RATIO**i) for i in range(CHECKPOINT_COUNT)}
    return sorted(xs)


def partial_sum(l: int, j: int, N: int, form: EigenformTable) -> PartialSumSeries:
    """One deterministic ascending pass with compensated accumulation."""
    if l < 1:
        raise ValueError(f"l must be positive, got {l}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    lam = sym_coeff_sieve(j, N, form)
    out = []
    total = 0.0
    comp = 0.0
    lo = 1
    for x in checkpoint_grid(N):
        for v in lam[lo : x + 1]:
            # Kahan step keeps the accumulation error near one ulp of the sum
            y = v**l - comp
            t = total + y
            comp = (t - total) - y
            total = t
        out.append((x, total))
        lo = x + 1
    return PartialSumSeries(
        l=l, j=j, weight=form.weight, limit=N, checkpoints=tuple(out)
    )


def default_fit_degree(l: int, j: int) -> int:
    """deg Q = d_{lj/2} - 1 from the central first-difference weight."""
    if (l * j) % 2:
        raise ValueError("main-term degree is defined for even l*j only")
    return combinatorics.weights(l, j)[(l * j) // 2] - 1


def fit_main_term(series: PartialSumSeries) -> FitResult:
    """Least squares of S(x)/x against powers of log x, top half of the grid.

    The degree is `default_fit_degree`. Early checkpoints are pre-asymptotic
    and excluded from the fit but still reported in the residual list.
    """
    degree = default_fit_degree(series.l, series.j)
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    pts = series.checkpoints
    window = pts[len(pts) // 2 :]
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

    residuals = tuple((x, s - main(x)) for x, s in pts)
    return FitResult(degree=degree, coeffs=tuple(q), window=window, residuals=residuals)


def residual_exponent(
    series: PartialSumSeries, fit: FitResult | None = None
) -> ResidualReport | None:
    """Slope of log|e(x)| against log x; e is the fit residual when given,
    else S itself (odd case). None when degenerate (N < 100, or fewer than
    three nonzero residuals)."""
    if series.limit < MIN_N_FOR_SLOPE:
        return None
    data = fit.residuals if fit is not None else series.checkpoints
    pts = [(x, abs(e)) for x, e in data if e != 0.0]
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
    return ResidualReport(slope=slope, stderr=stderr, points=n)

