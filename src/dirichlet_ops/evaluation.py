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
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import CoefficientRule, DirichletPolynomial, HalfPlanePoint
from .series import _MAX_TERMS, _exp, _fsum, _log, _slope, _validate_complex, _validate_index, _validate_real

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
    return _validate_complex(s, "evaluation point")


def _finite(value: complex, what: str) -> complex:
    if not cmath.isfinite(value):
        raise DomainError(f"{what} overflows double precision, got {value!r}")
    return value


def evaluate(f: DirichletPolynomial, s) -> complex:
    """Exact finite sum  sum_n a_n exp(-s log n)  over the stored terms."""
    s = _as_complex_point(s)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(f.coefficient_array() * np.exp(-s * _log(f.index_array()))))
    return _finite(value, f"f(s) at s = {s}")


def _chunk_terms(rule: CoefficientRule, s: complex, lo: int, hi: int) -> np.ndarray:
    """rule(n) n^(-s) for lo <= n <= hi: one chunk of partial_sum's stream."""
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    vals = rule.values(ns)
    if s == 0:
        return vals
    return vals * np.exp(-s * np.log(ns.astype(np.float64)))


# threads that off-axis partial sums may use; the CPUs this process may run on
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on this platform
    _WORKERS = os.cpu_count() or 1


def _chunk_sum(rule: CoefficientRule, s: complex, lo: int, hi: int) -> complex:
    """One pool job: the chunk's sum, not its terms (arrays freed on the thread
    that allocated them left library peak_rss_mb ~4 MB lower).

    np.errstate is thread-local, so the job sets its own around the terms and
    their sum: on a pool thread the caller's would not apply, and an overflow
    would escape as a RuntimeWarning instead of reaching partial_sum's
    finiteness check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(_chunk_terms(rule, s, lo, hi).sum())


def _pooled_sum(rule: CoefficientRule, s: complex, bounds, window: int) -> complex:
    """The chunk sums are computed on a pool of min(_WORKERS, window) threads,
    `window` chunks in flight, and added here in chunk order, so the total
    and the first error raised are the sequential loop's.

    The pool belongs to this call and is shut down before it returns, so no
    thread outlives the call and a forked child has no pool to rebuild.  The
    trade: K concurrent callers run up to K * _WORKERS threads, each call
    with its own _TERMS_IN_FLIGHT bound.  concurrent.futures (~5 ms) is
    imported here, which keeps it out of the CLI's cold start."""
    from concurrent.futures import ThreadPoolExecutor

    pending: deque = deque()
    total = 0j
    with ThreadPoolExecutor(min(_WORKERS, window), thread_name_prefix="partial_sum") as pool:
        try:
            for lo, hi in bounds:
                pending.append(pool.submit(_chunk_sum, rule, s, lo, hi))
                if len(pending) == window:
                    total += pending.popleft().result()
            while pending:
                total += pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
    return total


# most terms whose chunks the pool computes at once, so the pool never needs
# more than one sequential 2^22-term chunk, ~0.2 GB, however many CPUs
# there are
_TERMS_IN_FLIGHT = 1 << 22


def _window(N: int, chunk: int) -> int:
    """Chunks an off-axis partial_sum keeps in flight on the pool: twice the
    workers, at most _TERMS_IN_FLIGHT terms.  1 means the sequential loop."""
    in_flight = _TERMS_IN_FLIGHT // chunk
    workers = min(_WORKERS, -(-N // chunk), in_flight)
    return 1 if workers < 2 else min(2 * workers, in_flight)


def partial_sum(rule: CoefficientRule, s, N: int, chunk: int = 1 << 16) -> complex:
    """sum_{n<=N} rule(n) n^(-s), streamed in chunks so N ~ 10^8 never
    materializes a coefficient map.  Agrees with evaluate(truncate(rule, N), s).

    For s != 0 the chunks' terms are computed on a pool of up to _WORKERS
    threads (the CPUs this process may use, at most one per chunk) that the
    call starts and stops, with at most 2^22 terms in flight, so chunks
    longer than 2^21 run sequentially.  s = 0 stays sequential: its chunks
    are memory-bound, and threads made the 2^27-term Basel sum slower on a
    loaded 2-core machine.  Either way each chunk is summed alone and the
    chunk sums are added in chunk order, so `chunk` (at most 2^24) fixes the
    bits of the result and the number of workers does not move them."""
    s = _as_complex_point(s)
    N = _validate_index(N, "partial sum length N")
    # a chunk near 2^63 terms gave an empty np.arange and a silent 0
    chunk = _validate_index(chunk, "chunk length", most=_MAX_TERMS)
    bounds = ((lo, min(N, lo + chunk - 1)) for lo in range(1, N + 1, chunk))
    window = _window(N, chunk)
    with np.errstate(over="ignore", invalid="ignore"):
        if s != 0 and window > 1:
            total = _pooled_sum(rule, s, bounds, window)
        else:
            total = 0j
            for lo, hi in bounds:
                # the last chunk's terms stay alive while the next is built:
                # freeing a whole chunk at once lets malloc return the heap
                # top to the OS, and refaulting it made the Basel sum ~4x slower
                terms = _chunk_terms(rule, s, lo, hi)
                total += complex(terms.sum())
    return _finite(total, f"partial sum of {N} terms at s = {s}")


def _t_step(n_terms: int) -> int:
    """Points per t-chunk of the boundary grid: at most 2^23 exps per block."""
    return max(1, (1 << 23) // max(1, n_terms))


def _grid_values(logn: np.ndarray, w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_n w_n exp(-i t log n) at each t of a 1-d grid: the one
    boundary-grid kernel, chunked in t so no block holds more than 2^23
    entries.

    A chunk is a T x N block holding one t's terms in each row; the exp and
    the weighting run in place, and each row is summed by numpy's pairwise
    np.sum, whose order depends only on N.  So a value's bits depend neither
    on how ts is cut nor on the other points: a point computed alone, or
    among any subset of the grid, has the full scan's bits, and no BLAS call
    decides them.  N = 1 is the exception (boundary_values): there a value
    also depends on its place in the chunk."""
    out = np.empty(ts.shape, dtype=np.complex128)
    t_step = _t_step(logn.size)
    phase = -1j * logn
    for i in range(0, ts.size, t_step):
        E = np.outer(ts[i : i + t_step], phase)
        np.exp(E, out=E)
        E *= w
        out[i : i + t_step] = E.sum(axis=1)
    return out


_U = 2.0**-53  # unit roundoff of a double


def _grid_sup(logn: np.ndarray, w: np.ndarray, ts: np.ndarray) -> tuple[float, int]:
    """float(np.max(np.abs(_grid_values(logn, w, ts)))) to the bit, for a
    uniform grid ts, computed by a GEMM screen and a direct refine.  Also
    returns how many grid points the direct kernel recomputed.

    Screen.  Cut the T points into blocks of B ~ sqrt(T): point j = bB + k
    is t_j ~ a_b + o_k with anchor a_b = ts[bB] and offset o_k = k h,
    h = (ts[-1] - ts[0]) / (T - 1).  Then
        S_j = sum_n R[k, n] A[n, b],  R = exp(-i o_k log n),
                                      A = w_n exp(-i a_b log n),
    one complex GEMM over about N (B + T / B) ~ 2 N sqrt(T) exps instead of
    the direct kernel's N T.

    The bound delta on |S_j - D_j|, D_j the direct kernel's value at ts[j]:
    both sums run over the same log n, so only the phases, the exps, the
    products and the summation differ.  With W = sum |w_n|, L = max log n,
    u = 2^-53, tau = max |ts| + B |h| and dev = max_j |a_b + o_k - ts[j]|
    (the grid's own rounding against the factored points):
      - a phase t log n is rounded to within u |t| L; the screen's two
        phases and the direct one together move a term by <= 3 u tau L |w_n|;
      - moving the point from ts[j] to a_b + o_k moves it by <= dev L |w_n|;
      - each exp is within 2u of the unit circle point, each complex
        product within 4u, and a sum of N terms (pairwise np.sum or GEMM,
        in any order) within 2 N u sqrt(2) W, for each side.
    Summing, |S_j - D_j| <= W (L (dev + 3 u tau) + u (6 N + 18)); delta is
    W (L (dev + 4 u tau) + 16 u (N + 4)), which also covers the rounding of
    W, dev and |S_j| themselves.

    Refine.  If |S_i| = max |S| and |D_j| = max |D|, then |S_j| >= |D_j| -
    delta >= |D_i| - delta >= |S_i| - 2 delta, so every point with
    |S_j| >= max |S| - 2 delta is kept and the direct maximum is among them.
    _grid_values computes only them, each with the full scan's bits, into a
    zero array of the grid's length before np.abs, whose vector body and
    scalar tail round differently.  At N = 1, where a lone point's bits can
    differ, every point is kept (each |S_j| is |w_1| within a few u, and
    2 delta >= 160 u |w_1|), so the refine is the full scan.  A non-finite
    screen maximum or delta keeps every point.  The screen runs on every
    grid (at N = 3, T = 1024 the two paths tie), under its caller's errstate."""
    n, T = logn.size, ts.size
    t_step = _t_step(n)
    B = min(math.isqrt(T), t_step)
    h = (float(ts[-1]) - float(ts[0])) / (T - 1) if T > 1 else 0.0
    offsets = np.arange(B) * h
    anchors = ts[::B]
    R = np.exp(np.outer(offsets, -1j * logn))
    blocks = []
    for i in range(0, anchors.size, t_step):
        A = np.exp(np.outer(logn, -1j * anchors[i : i + t_step]))
        A *= w[:, None]
        blocks.append(R @ A)
    screen = np.abs(np.concatenate(blocks, axis=1).T.reshape(-1)[:T])
    dev = float(np.max(np.abs((anchors[:, None] + offsets).reshape(-1)[:T] - ts)))
    tau = float(np.max(np.abs(ts))) + B * abs(h)
    delta = float(np.sum(np.abs(w))) * (float(np.max(logn)) * (dev + 4 * _U * tau) + 16 * _U * (n + 4))
    top = float(np.max(screen))
    finite = math.isfinite(top) and math.isfinite(delta)
    keep = np.flatnonzero(screen >= top - 2 * delta) if finite else np.arange(T)
    values = np.zeros(T, dtype=np.complex128)
    values[keep] = _grid_values(logn, w, ts[keep])
    return float(np.max(np.abs(values))), int(keep.size)


def boundary_values(f: DirichletPolynomial, epsilon: float, ts: np.ndarray) -> np.ndarray:
    """f(epsilon + i t) on a grid of t values, chunked to bound memory.

    A value's bits are the same t's computed alone, except for one stored
    term: numpy coalesces that (T, 1) product into one 1-d loop, so a value
    can differ from the lone t's in the last bit (relative ~1.7e-16).

    Raises DomainError naming epsilon and t when a value overflows double
    precision (a far-left epsilon makes n^(-epsilon) overflow), and names a
    NaN or infinite epsilon or t, or ts that is not a 1-d sequence of real
    numbers, before computing anything."""
    epsilon = _validate_real(epsilon, "epsilon")
    try:
        ts = np.asarray(ts)
    except ValueError:  # a ragged nesting
        ts = np.asarray(ts, dtype=object)
    if ts.ndim != 1 or ts.dtype.kind not in "iuf":
        raise DomainError(f"ts must be a 1-d sequence of real numbers, got {ts.dtype} of shape {ts.shape}")
    ts = ts.astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(ts))
    if bad.size:
        raise DomainError(f"grid points t must be finite, got t = {ts[bad[0]]}")
    logn = _log(f.index_array())
    with np.errstate(over="ignore", invalid="ignore"):
        values = _grid_values(logn, f.coefficient_array() * _exp(-epsilon * logn), ts)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        _finite(complex(values[i]), f"f(epsilon + i t) at epsilon = {epsilon}, t = {ts[i]}")
    return values


def summation_by_parts(x, y) -> complex:
    """Abel rearrangement  X_N y_N - sum_{n<N} X_n (y_{n+1} - y_n)  with
    X_n the running partial sums of x.  Equals the direct inner product.
    Input that is not two equal-length 1-D numeric sequences, a non-finite
    entry, or a result past double range raises DomainError."""
    try:
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("x and y must be sequences of complex numbers") from None
    if x.ndim != 1 or y.ndim != 1:
        raise DomainError(f"x and y must be one-dimensional, got shapes {x.shape} and {y.shape}")
    if x.size != y.size:
        raise DomainError(f"sequence lengths must match, got {x.size} and {y.size}")
    if x.size == 0:
        raise DomainError("sequences must have length >= 1")
    for name, seq in (("x", x), ("y", y)):
        bad = np.flatnonzero(~np.isfinite(seq))
        if bad.size:
            raise DomainError(f"{name}[{bad[0]}] must be finite, got {complex(seq[bad[0]])}")
    with np.errstate(over="ignore", invalid="ignore"):
        X = np.cumsum(x)
        value = complex(X[-1] * y[-1] - np.sum(X[:-1] * np.diff(y)))
    return _finite(value, "summation by parts")


@dataclass(frozen=True)
class TailBound:
    """Uniform bound for the discarded tail sum_{n>M} x_n y_n on the
    half-plane Re s > epsilon.  `regime` records how the probe window was
    completed: 'oscillatory' keeps the observed partial-sum supremum with a
    1% slack, 'accumulating' adds a fitted power-law integral remainder,
    'divergent' means the fitted decay is not integrable (bound = inf), and
    'sparse' means the window's second half holds fewer than 8 nonzero terms,
    or indices so near 2^63 that their logs round to one double, too few to
    fit a decay, so no finite bound is certified (bound = inf)."""

    M: int
    epsilon: float
    bound: float
    regime: str
    probe_end: int


def _fit_decay_exponent(ns: np.ndarray, mags: np.ndarray) -> float | None:
    # least-squares slope of log|x_n| vs log n over the probe tail; None for
    # too few nonzero terms, or log n all one double (n near 2^63)
    mask = mags > 0
    if mask.sum() < 8:
        return None
    idx = np.nonzero(mask)[0]
    take = idx[np.linspace(0, idx.size - 1, min(64, idx.size)).astype(int)]
    lx = np.log(ns[take].astype(np.float64))
    if lx[0] == lx[-1]:
        return None
    return -_slope(lx, np.log(mags[take]))


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
    # the gate takes all but a float epsilon, which the window check below names
    epsilon = epsilon if isinstance(epsilon, float) else _validate_real(epsilon, "epsilon")
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
        # a flat window (one nonzero term, then nothing) has settled
        increasing = bool(np.all(np.diff(A[half:]) >= -tiny)) and A[-1] > A[half]
        settled = float(A[:half].max()) >= B0 * (1.0 - _SETTLE_REL)
        if increasing or not settled:
            mags = np.abs(xs[half:])
            p = _fit_decay_exponent(ns[half:], mags)
            if p is None or p <= 1.05:
                B = math.inf
                regime = "sparse" if p is None else "divergent"
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
    tol = _validate_real(tol, "tolerance", 0.0, strict=True)
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

    lower: the larger of the maximum of |f(epsilon + i t)| over the sampled
    boundary grid and the largest term max_n |a_n| n^(-epsilon), each a
    genuine lower bound for the sup (the second by Bohr's coefficient
    formula, which floors a grid that misses the largest term), capped at
    upper.  A monomial's lower is its upper, bit for bit.  upper:
    sum |a_n| n^(-epsilon) (a genuine upper bound).  The truth lies in
    [lower, upper].  points: grid points scanned; refined: how many of them
    the kernel recomputed after the GEMM screen (all of them when the screen
    overflows), each by a per-row numpy sum, so no BLAS call decides a bit
    of lower.
    """

    epsilon: float
    lower: float
    upper: float
    grid: GridSpec
    points: int
    refined: int


_TWO_PI_OVER_LOG2 = 2.0 * math.pi / math.log(2.0)

# largest boundary grid that seminorm or a bracket_sigma_u probe scans;
# seminorm's default grid has at most 2 * 10^5 + 1 points (t_max <= 10^3,
# step 10^-2, two-sided)
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

    The scan is _grid_sup, on every grid: a GEMM screen, then per-row numpy
    sums of the kept points; no BLAS under any returned bit.  The screen
    costs about 2 N sqrt(T) exps, the kept points are those within 2 delta
    of its maximum, and lower is their maximum, bit for bit the direct
    scan's.  delta bounds the screen's error, about 16 u (max|t| log n_max
    + N) sum |a_n| n^(-epsilon) (derived in _grid_sup).  An overflow reruns
    the direct scan through boundary_values, which names epsilon and t; a
    modulus or a coefficient bound past double range raises DomainError
    naming epsilon.
    """
    epsilon = _validate_real(epsilon, "epsilon", 0.0)
    step = _validate_real(step, "grid step", 0.0, strict=True)
    if t_max is None:
        t_max = min(1000.0, _TWO_PI_OVER_LOG2 * max(1, f.max_index))
    t_max = _validate_real(t_max, "grid extent t_max", 0.0, strict=True)

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
        return SeminormEstimate(
            epsilon=float(epsilon), lower=0.0, upper=0.0, grid=grid, points=0, refined=0
        )

    logn = _log(f.index_array())
    coeffs = f.coefficient_array()
    ts = np.arange(t0, t_max + 0.5 * step, step)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = _exp(-epsilon * logn)
        lower, refined = _grid_sup(logn, coeffs * decay, ts)
        terms = np.hypot(coeffs.real, coeffs.imag) * decay
    if not math.isfinite(lower):
        lower = float(np.max(np.abs(boundary_values(f, epsilon, ts))))
    upper = _fsum(terms.tolist())
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError(
            f"max |f| or sum |a_n| n^(-epsilon) overflows double precision at epsilon = {epsilon}"
        )
    # Bohr's coefficient bound lifts a grid that misses the largest term; the
    # grid scan can only overshoot the coefficient bound by roundoff
    lower = min(max(lower, float(np.max(terms))), upper)
    return SeminormEstimate(
        epsilon=float(epsilon), lower=lower, upper=float(upper), grid=grid,
        points=int(ts.size), refined=refined,
    )
