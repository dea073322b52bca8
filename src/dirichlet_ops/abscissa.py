"""Convergence-abscissa estimation from partial-sum growth.

For a Dirichlet series with abscissa of convergence >= 0 the classical
formula reads it off as limsup log|A_M| / log M with A_M the partial
coefficient sums.  The pointwise ratio carries an O(1/log M) bias from any
constant prefactor (log|c M^p| / log M = p + log c / log M), which at
M = 10^5 is ~0.06, already outside the accuracy this module targets.  The
estimator therefore fits the least-squares slope of log|A_M| against log M
over the dyadic window [N/2, N]; the slope is exact for pure power growth
and the window spread of the pointwise ratios is reported as uncertainty.

Negative abscissas are reached by the shift protocol: multiply the
coefficients by n^k, k = 1, 2, ..., until the window shows clear polynomial
divergence (fitted slope >= 0.5 here; each shift raises the true abscissa
by exactly 1), then report slope - k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evaluation import _MAX_GRID_POINTS, _grid_sup
from .series import _MAX_TERMS, CoefficientRule, _exp, _log, _slope, _validate_index, _validate_real

__all__ = [
    "Estimate",
    "BoundednessProbe",
    "AbscissaEstimate",
    "sigma_c_estimate",
    "sigma_a_estimate",
    "bracket_sigma_u",
    "SIGMA_U_NOTE",
]

SIGMA_U_NOTE = (
    "sigma_u has no direct estimator; reported as the bracket "
    "[sigma_c_est, sigma_a_est] plus boundedness probes"
)

_DIVERGENCE_SLOPE = 0.5
_MAX_SHIFT = 8
_MIN_UNCERTAINTY = 0.01


@dataclass(frozen=True)
class Estimate:
    """Abscissa estimate with window-spread uncertainty and shift used;
    slopes[k] is the window slope after k shifts (nan where |A_M| vanished
    almost everywhere), so an accepted estimate's value is slopes[-1] - shift."""

    value: float
    uncertainty: float
    shift: int
    slopes: tuple[float, ...] = ()


@dataclass(frozen=True)
class BoundednessProbe:
    """Evidence-only sup of |sum_{n<=N} a_n n^(-eps - i t)| over a t grid of
    `points` points: a GEMM screen, then per-row numpy sums of the `refined`
    points it kept; no BLAS under any returned bit."""

    epsilon: float
    sup_abs: float
    t_max: float
    points: int
    refined: int


@dataclass(frozen=True)
class AbscissaEstimate:
    sigma_c: Estimate
    sigma_a: Estimate
    N: int
    probes: tuple[BoundednessProbe, ...]
    note: str = SIGMA_U_NOTE

    @property
    def sigma_u_bracket(self) -> tuple[float, float]:
        return (self.sigma_c.value, self.sigma_a.value)


def _window_fit(ms: np.ndarray, amps: np.ndarray) -> tuple[float, float] | None:
    """Slope of log|A_M| vs log M over the window, or None if |A| vanishes
    almost everywhere there.  Second value is the pointwise-ratio spread."""
    mask = amps > 0.0
    if mask.sum() < 2:
        return None
    x = np.log(ms[mask].astype(np.float64))
    y = np.log(amps[mask])
    slope = _slope(x, y)
    ratios = y / x
    spread = float(ratios.max() - ratios.min())
    return slope, max(_MIN_UNCERTAINTY, spread)


def _estimate(values: np.ndarray, N: int) -> Estimate:
    """Raises DomainError naming N when a shifted partial sum passes double
    range, which would otherwise read as convergence everywhere."""
    ns = np.arange(1, N + 1, dtype=np.float64)
    window = slice(N // 2 - 1, N)  # indices of M = N//2 .. N
    ms = np.arange(1, N + 1, dtype=np.int64)[window]
    shifted = values.astype(np.complex128).copy()
    slopes = []
    for k in range(0, _MAX_SHIFT + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if k > 0:
                shifted = shifted * ns
            amps = np.abs(np.cumsum(shifted))[window]
        if not np.isfinite(amps).all():
            raise DomainError(
                f"partial sums of n^{k} a_n up to window length N = {N} overflow double precision"
            )
        slope, spread = _window_fit(ms, amps) or (math.nan, 0.0)
        slopes.append(slope)
        if slope >= _DIVERGENCE_SLOPE:
            return Estimate(value=slope - k, uncertainty=spread, shift=k, slopes=tuple(slopes))
    # no polynomial divergence surfaced within the shift budget: either the
    # series converges everywhere (abscissa -inf) or it lies below -_MAX_SHIFT
    return Estimate(value=-math.inf, uncertainty=0.0, shift=_MAX_SHIFT, slopes=tuple(slopes))


def sigma_c_estimate(rule: CoefficientRule, N: int) -> Estimate:
    """Estimate of the abscissa of convergence from signed partial sums."""
    N = _validate_index(N, "window length N", 100, _MAX_TERMS)
    return _estimate(rule.values(np.arange(1, N + 1, dtype=np.int64)), N)


def sigma_a_estimate(rule: CoefficientRule, N: int) -> Estimate:
    """Estimate of the abscissa of absolute convergence from |a_n| sums."""
    N = _validate_index(N, "window length N", 100, _MAX_TERMS)
    vals = np.abs(rule.values(np.arange(1, N + 1, dtype=np.int64)))
    return _estimate(vals.astype(np.complex128), N)


def bracket_sigma_u(
    rule: CoefficientRule,
    N: int,
    probe_eps,
    t_max: float = 30.0,
    points: int = 121,
) -> AbscissaEstimate:
    """Bracket [sigma_c_est, sigma_a_est] for the uniform-convergence
    abscissa, with partial-sum boundedness probes at each requested epsilon.

    The probes are evidence, not estimators: a bounded sup at epsilon is
    consistent with uniform convergence on Re s > epsilon and nothing more.
    Each probe's sup over the linspace(0, t_max, points) grid is seminorm's
    scan, evaluation._grid_sup (a GEMM screen, about 2 N sqrt(points) exps,
    then per-row numpy sums of the kept points; no BLAS under any returned
    bit), so sup_abs is bit for bit the direct scan's maximum.  points is
    capped at evaluation._MAX_GRID_POINTS = 2^24, seminorm's grid cap.
    """
    N = _validate_index(N, "window length N", 100, _MAX_TERMS)
    probe_eps = tuple(_validate_real(e, "probe epsilon", 0.0) for e in probe_eps)
    if not probe_eps:
        raise DomainError("probe_eps must be a nonempty list of epsilons")
    t_max = _validate_real(t_max, "probe grid extent t_max", 0.0, strict=True)
    points = _validate_index(points, "probe grid points")
    if points > _MAX_GRID_POINTS:
        raise DomainError(f"probe grid points = {points} is above the cap of {_MAX_GRID_POINTS}")
    values = rule.values(np.arange(1, N + 1, dtype=np.int64))
    sc = _estimate(values, N)
    sa = _estimate(np.abs(values).astype(np.complex128), N)
    logn = _log(np.arange(1, N + 1, dtype=np.int64))
    ts = np.linspace(0.0, t_max, points)
    probes = []
    for e in probe_eps:
        with np.errstate(over="ignore", invalid="ignore"):
            sup_abs, refined = _grid_sup(logn, values * _exp(-e * logn), ts)
        if not math.isfinite(sup_abs):
            raise DomainError(f"probe sup at epsilon = {e} overflows double precision")
        probes.append(
            BoundednessProbe(epsilon=e, sup_abs=sup_abs, t_max=t_max, points=points, refined=refined)
        )
    return AbscissaEstimate(sigma_c=sc, sigma_a=sa, N=N, probes=tuple(probes))
