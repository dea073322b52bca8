"""Evaluation, summation by parts, tail bounds, and sup-seminorm brackets.

Dirichlet polynomials are entire, so evaluation is an exact finite sum with
n^(-s) = exp(-s log n).  Everything about infinite series here is a
numerical diagnostic: tail bounds combine a probed partial-sum supremum
with an Abel-type monotone-weight factor, and the sup seminorm over a right
half-plane is reported as a bracket [grid lower bound, coefficient upper
bound] rather than a single number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import DomainError
from .series import CoefficientRule, DirichletPolynomial, HalfPlanePoint, _validate_index

__all__ = [
    "evaluate",
    "partial_sum",
    "boundary_values",
    "summation_by_parts",
    "TailBound",
    "tail_bound_monotone",
    "truncation_for_tolerance",
    "GridSpec",
    "SeminormEstimate",
    "seminorm",
]


def _as_complex_point(s) -> complex:
    if isinstance(s, HalfPlanePoint):
        return s.as_complex()
    if isinstance(s, (int, float, complex)) and not isinstance(s, bool):
        s = complex(s)
        if math.isfinite(s.real) and math.isfinite(s.imag):
            return s
        raise DomainError(f"evaluation point must be finite, got {s!r}")
    raise DomainError(f"evaluation point must be complex or HalfPlanePoint, got {s!r}")


def _finite(value: complex, what: str) -> complex:
    if not cmath.isfinite(value):
        raise DomainError(f"{what} overflows double precision, got {value!r}")
    return value


def evaluate(f: DirichletPolynomial, s) -> complex:
    """Exact finite sum  sum_n a_n exp(-s log n)  over the stored terms."""
    s = _as_complex_point(s)
    if f.is_zero:
        return 0j
    ns = f.index_array().astype(np.float64)
    coeffs = f.coefficient_array()
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(coeffs * np.exp(-s * np.log(ns))))
    return _finite(value, f"f(s) at s = {s}")


def partial_sum(rule: CoefficientRule, s, N: int, chunk: int = 1 << 19) -> complex:
    """sum_{n<=N} rule(n) n^(-s), streamed in chunks so N ~ 10^8 never
    materializes a coefficient map.  Agrees with evaluate(truncate(rule, N), s)."""
    s = _as_complex_point(s)
    N = _validate_index(N, "partial sum length N")
    total = 0j
    lo = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while lo <= N:
            hi = min(N, lo + chunk - 1)
            ns = np.arange(lo, hi + 1, dtype=np.int64)
            vals = rule.values(ns)
            if s != 0:
                vals = vals * np.exp(-s * np.log(ns.astype(np.float64)))
            total += complex(vals.sum())
            lo = hi + 1
    return _finite(total, f"partial sum of {N} terms at s = {s}")


def _grid_values(logn: np.ndarray, w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_n w_n exp(-i t log n) at each t of a 1-d grid: the one boundary-grid
    kernel, chunked in t so no block holds more than 2^23 entries."""
    out = np.empty(ts.shape, dtype=np.complex128)
    t_step = max(1, (1 << 23) // max(1, logn.size))
    for i in range(0, ts.size, t_step):
        tc = ts[i : i + t_step]
        out[i : i + t_step] = w @ np.exp(np.outer(logn, -1j * tc))
    return out


def boundary_values(f: DirichletPolynomial, epsilon: float, ts: np.ndarray) -> np.ndarray:
    """f(epsilon + i t) on a grid of t values, chunked to bound memory.

    Raises DomainError naming epsilon and t when a value overflows double
    precision (a far-left epsilon makes n^(-epsilon) overflow), and names a
    NaN or infinite epsilon or t before computing anything."""
    ts = np.asarray(ts, dtype=np.float64)
    if not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite, got {epsilon!r}")
    bad = np.flatnonzero(~np.isfinite(ts))
    if bad.size:
        raise DomainError(f"grid points t must be finite, got t = {ts[bad[0]]}")
    if f.is_zero:
        return np.zeros(ts.shape, dtype=np.complex128)
    logn = np.log(f.index_array().astype(np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        values = _grid_values(logn, f.coefficient_array() * np.exp(-epsilon * logn), ts)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        _finite(complex(values[i]), f"f(epsilon + i t) at epsilon = {epsilon}, t = {ts[i]}")
    return values


def summation_by_parts(x, y) -> complex:
    """Abel rearrangement  X_N y_N - sum_{n<N} X_n (y_{n+1} - y_n)  with
    X_n the running partial sums of x.  Equals the direct inner product."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise DomainError(f"sequence lengths must match, got {x.size} and {y.size}")
    if x.size == 0:
        raise DomainError("sequences must have length >= 1")
    X = np.cumsum(x)
    if x.size == 1:
        return complex(X[0] * y[0])
    return complex(X[-1] * y[-1] - np.sum(X[:-1] * np.diff(y)))


@dataclass(frozen=True)
class TailBound:
    """Uniform bound for the discarded tail sum_{n>M} x_n y_n on the
    half-plane Re s > epsilon.  `regime` records how the probe window was
    completed: 'oscillatory' keeps the observed partial-sum supremum with a
    1% slack, 'accumulating' adds a fitted power-law integral remainder,
    'divergent' means no finite bound was certifiable (bound = inf)."""

    M: int
    epsilon: float
    bound: float
    regime: str
    probe_end: int


def _fit_decay_exponent(ns: np.ndarray, mags: np.ndarray) -> float | None:
    # least-squares slope of log|x_n| vs log n over the probe tail
    mask = mags > 0
    if mask.sum() < 8:
        return None
    idx = np.nonzero(mask)[0]
    take = idx[np.linspace(0, idx.size - 1, min(64, idx.size)).astype(int)]
    lx = np.log(ns[take].astype(np.float64))
    ly = np.log(mags[take])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(-slope)


# tail ladder: _PROBE terms per rung, _SETTLE_REL slack on a settled maximum,
# _PAD on a fitted remainder; M runs _LADDER_START * 2^k for k < _LADDER_RUNGS
_PROBE = 1 << 16
_SETTLE_REL = 0.01
_PAD = 1.2
_LADDER_START = 1024
_LADDER_RUNGS = 40


def tail_bound_monotone(rule: CoefficientRule, weight, M: int, epsilon: float) -> TailBound:
    """Abel-style bound for |sum_{n>M} x_n y_n| on Re s > epsilon, where
    x_n = rule(n) n^(-epsilon) and y_n is a real monotone weight.

    The partial-sum factor sup_k |sum_{n=M+1}^{M+k} x_n| is probed on the
    2^16 terms past M and completed by regime: when |S_k| oscillates and its
    running maximum has settled, the supremum is taken as observed (plus 1%
    slack); when |S_k| is still accumulating, the remaining mass is bounded
    by a fitted power-law integral comparison (padded by a factor 1.2), or
    reported as infinite when the fitted decay is not integrable.  The
    monotone factor contributes |y_end| plus the probed total variation,
    which telescopes for monotone y.  Diagnostic, not a certificate:
    completion trusts the fitted decay of |x_n| past the probe window.

    weight may be None for the trivial weight y_n = 1.  M must be an integer
    with M + 2^16 <= 2^63 - 1, and epsilon must keep every probed x_n finite.
    """
    M = _validate_index(M, "tail start M")
    _validate_index(M + _PROBE, "tail probe end M + 2^16")
    ns = np.arange(M + 1, M + _PROBE + 1, dtype=np.int64)
    xs = rule.values(ns)
    if epsilon != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            xs = xs * np.exp(-epsilon * np.log(ns.astype(np.float64)))
    if not (math.isfinite(epsilon) and np.isfinite(xs).all()):
        raise DomainError(
            f"epsilon must be finite and keep rule(n) n^(-epsilon) finite on n = {M + 1}..{M + _PROBE}, "
            f"got {epsilon!r}"
        )

    if weight is None:
        ys = None
    else:
        ys = np.fromiter((float(weight(int(n))) for n in ns), dtype=np.float64, count=_PROBE)
        bad = ~np.isfinite(ys)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(f"weight must be finite, got {float(ys[i])!r} at n = {ns[i]}")
        dy = np.diff(ys[:4096])
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ys))))
        if not (np.all(dy >= -tol) or np.all(dy <= tol)):
            raise DomainError(f"weight is not monotone on the checked window ({M + 1}..{M + 4096})")

    S = np.cumsum(xs)
    A = np.abs(S)
    B0 = float(A.max())
    half = _PROBE // 2
    regime = "oscillatory"
    if B0 == 0.0:
        B = 0.0
        regime = "zero"
    else:
        tiny = 1e-15 * B0
        increasing = bool(np.all(np.diff(A[half:]) >= -tiny))
        settled = float(A[:half].max()) >= B0 * (1.0 - _SETTLE_REL)
        if increasing or not settled:
            mags = np.abs(xs[half:])
            p = _fit_decay_exponent(ns[half:], mags)
            if p is None or p <= 1.05:
                B = math.inf
                regime = "divergent"
            else:
                E = float(M + _PROBE)
                B = float(A[-1]) + _PAD * float(np.abs(xs[-1])) * E / (p - 1.0)
                regime = "accumulating"
        else:
            B = B0 * (1.0 + _SETTLE_REL)

    if ys is None:
        factor = 1.0
    else:
        factor = abs(float(ys[-1])) + abs(float(ys[0]) - float(ys[-1]))
    bound = 0.0 if factor == 0.0 else B * factor
    return TailBound(M=M, epsilon=float(epsilon), bound=float(bound), regime=regime, probe_end=M + _PROBE)


def truncation_for_tolerance(
    rule: CoefficientRule, epsilon: float, tol: float, weight=None
) -> tuple[int, TailBound]:
    """Smallest M on the ladder 1024 * 2^k, k < 40, with
    tail_bound_monotone(rule, weight, M, epsilon).bound <= tol."""
    if not (tol > 0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    M = _LADDER_START
    for _ in range(_LADDER_RUNGS):
        tb = tail_bound_monotone(rule, weight, M, epsilon)
        if tb.bound <= tol:
            return M, tb
        M *= 2
    raise DomainError(
        f"no truncation length with tail bound <= {tol} found below M = {M} "
        f"(last regime: {tb.regime})"
    )


@dataclass(frozen=True)
class GridSpec:
    t_max: float
    step: float
    two_sided: bool


@dataclass(frozen=True)
class SeminormEstimate:
    """Bracket for sup |f| on Re s > epsilon.

    lower: maximum of |f(epsilon + i t)| over the sampled boundary grid
    (a genuine lower bound for the sup).  upper: sum |a_n| n^(-epsilon)
    (a genuine upper bound).  The truth lies in [lower, upper].
    """

    epsilon: float
    lower: float
    upper: float
    grid: GridSpec


_TWO_PI_OVER_LOG2 = 2.0 * math.pi / math.log(2.0)

# largest boundary grid seminorm scans; the default grid has at most
# 2 * 10^5 + 1 points (t_max <= 10^3, step 10^-2, two-sided)
_MAX_GRID_POINTS = 1 << 24


def seminorm(
    f: DirichletPolynomial,
    epsilon: float,
    t_max: float | None = None,
    step: float = 1e-2,
) -> SeminormEstimate:
    """Bracketed sup of |f| over the half-plane Re s > epsilon.

    The sup of a Dirichlet polynomial over a closed right half-plane is
    attained on the boundary line, so the lower bound scans
    |f(epsilon + i t)| on a grid.  Default grid length is one full period
    2 pi / log 2 per unit index, capped at 10^3; polynomials with real
    coefficients are conjugate-symmetric in t, so only t >= 0 is scanned.
    A grid of more than 2^24 points (t_max / step too large) raises
    DomainError instead of being allocated.
    """
    if not (epsilon >= 0.0) or not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be a finite real >= 0, got {epsilon!r}")
    if not (step > 0.0) or not math.isfinite(step):
        raise DomainError(f"grid step must be positive, got {step!r}")
    if t_max is None:
        t_max = min(1000.0, _TWO_PI_OVER_LOG2 * max(1, f.max_index))
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise DomainError(f"grid extent must be positive, got {t_max!r}")

    two_sided = not f.has_real_coefficients()
    t0 = -t_max if two_sided else 0.0
    points = (t_max - t0) / step + 1.0
    if not points <= _MAX_GRID_POINTS:
        raise DomainError(
            f"grid of t_max = {t_max} and step = {step} would hold {points:.4g} points, "
            f"above the cap of {_MAX_GRID_POINTS}"
        )
    grid = GridSpec(t_max=float(t_max), step=float(step), two_sided=two_sided)
    if f.is_zero:
        return SeminormEstimate(epsilon=float(epsilon), lower=0.0, upper=0.0, grid=grid)

    logn = np.log(f.index_array().astype(np.float64))
    upper = fsum(abs(a) * math.exp(-epsilon * ln) for a, ln in zip(f.coefficient_array(), logn))

    ts = np.arange(t0, t_max + 0.5 * step, step)
    lower = float(np.max(np.abs(boundary_values(f, epsilon, ts))))
    # the grid scan can only overshoot the coefficient bound by roundoff
    lower = min(lower, upper)
    return SeminormEstimate(epsilon=float(epsilon), lower=lower, upper=float(upper), grid=grid)
