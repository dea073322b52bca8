"""Spectrum of the termwise derivative and its resolvent calculus.

On the subspace with vanishing constant term the derivative's spectrum is
the set {-log n : n >= 2} of symbol values, each an eigenvalue with
eigenvector the corresponding monomial; on the full space the point 0
joins (constants are annihilated).  Away from the spectrum the resolvent
of (lambda I - D) acts diagonally, b_n -> b_n / (log n + lambda), with an
extra b_1 / lambda coefficient on the full space.

spectral_gap exploits that |log n + lambda| is unimodal in log n: the
minimizing integer sits next to exp(-Re lambda), so an O(1) window scan
equals the brute-force minimum whenever that minimizer is in range.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, SpectralError
from .operators import Multiplier, _reciprocal, _with_array_symbol, apply
from .series import DirichletPolynomial, _Record, monomial
from .series import _MAX_TERMS, _validate_complex, _validate_index, _validate_real, np

__all__ = [
    "FULL",
    "ZERO_SUBSPACE",
    "SPECTRUM_TOLERANCE",
    "NEAR_SPECTRUM_RADIUS",
    "SpectrumClassification",
    "spectral_gap",
    "classify_point",
    "resolvent_apply",
    "VariationReport",
    "bv_check",
    "ReciprocalReport",
    "reciprocal_spectrum_check",
]

FULL = "full"
ZERO_SUBSPACE = "zero_subspace"

# absolute tolerance for "equals a spectrum point"; see classify_point
SPECTRUM_TOLERANCE = 1e-12
# resolvent points closer than this to the spectrum get a warning flag
NEAR_SPECTRUM_RADIUS = 1e-6

_LOG2 = math.log(2.0)
# beyond this, exp(-Re lambda) exceeds any indexable integer and the
# nearest log n is dense to fp resolution
_X_HUGE = 43.0


def _validate_space(space: str) -> str:
    if space not in (FULL, ZERO_SUBSPACE):
        raise DomainError(f"space must be '{FULL}' or '{ZERO_SUBSPACE}', got {space!r}")
    return space


def _window(x: float) -> tuple[int, int] | None:
    """The integers bracketing exp(x), two either side: the only candidates
    for the n >= 2 whose log n is nearest x, since (log n - x)^2 is unimodal
    in log n.  (2, 3) when x <= log 2; None past _X_HUGE, where log n comes
    within ~exp(-x) of x and no indexable integer attains it."""
    if x <= _LOG2:
        return 2, 3
    if x > _X_HUGE:
        return None
    n0 = math.exp(x)
    return max(2, int(math.floor(n0)) - 2), int(math.ceil(n0)) + 2


def _spectral_parameter(lmbda) -> complex:
    """lambda as a finite complex whose modulus is a double; DomainError
    naming the spectral parameter otherwise.  Every |log n + lambda| that
    the window scans is then a double too."""
    lam = _validate_complex(lmbda, "spectral parameter")
    try:
        abs(lam)
    except OverflowError:
        raise DomainError(f"spectral parameter must have a modulus within double range, got {lam}") from None
    return lam


def _symbol_distance(lam: complex) -> tuple[float, int | None]:
    """min over n >= 2 of |log n + lambda| and its minimizing index, with
    x* = -Re lambda as the target of log n.  Past _X_HUGE the real part is
    matched to fp resolution, only Im lambda survives and the index is None.
    lambda is finite, and so is its modulus: every caller passes it through
    _spectral_parameter, or reciprocal_spectrum_check's bound on |mu|.
    """
    window = _window(-lam.real)
    if window is None:
        return abs(lam.imag), None
    lo, hi = window
    best_n = lo
    best = abs(complex(math.log(lo), 0.0) + lam)
    for n in range(lo + 1, hi + 1):
        d = abs(complex(math.log(n), 0.0) + lam)
        if d < best:
            best, best_n = d, n
    return best, best_n


def spectral_gap(lmbda) -> float:
    """min(|lambda|, min_{n>=2} |log n + lambda|): distance from lambda to
    the full-space spectrum.  Exact O(1) window method."""
    lam = _spectral_parameter(lmbda)
    inner, _ = _symbol_distance(lam)
    return min(abs(lam), inner)


class SpectrumClassification(_Record):
    """Verdict for one spectral parameter.

    kind is one of 'eigenvalue' (lambda = -log n, eigenvector the n-th
    monomial), 'eigenvalue_constant' (lambda = 0 on the full space, the
    constants are the kernel and the range misses them), 'resolvent_point'
    (invertible, with gap the coefficient-wise inverse bound), or
    'dense_spectrum' (Re lambda < -_X_HUGE with Im lambda within tolerance
    of 0: consecutive -log n there are far closer than the tolerance and
    their index exceeds int64, so n and eigenvector stay None).
    """

    lam: complex
    space: str
    kind: str
    n: int | None = None
    eigenvector: DirichletPolynomial | None = None
    gap: float | None = None
    near_spectrum: bool = False
    reason: str = ""


def classify_point(lmbda, space: str) -> SpectrumClassification:
    """Locate lambda relative to the derivative's spectrum on the given
    space.  Membership is decided to absolute tolerance SPECTRUM_TOLERANCE;
    note that for Re lambda << -30 consecutive -log n are themselves closer
    than that tolerance, so verdicts there say 'within tolerance of some
    spectrum point', not which one.
    """
    space = _validate_space(space)
    lam = _spectral_parameter(lmbda)

    inner, n_best = _symbol_distance(lam)
    if inner <= SPECTRUM_TOLERANCE:
        return SpectrumClassification(
            lam=lam,
            space=space,
            kind="dense_spectrum" if n_best is None else "eigenvalue",
            n=n_best,
            eigenvector=None if n_best is None else monomial(n_best),
            reason=f"lambda = -log {n_best} to within {SPECTRUM_TOLERANCE}"
            if n_best is not None
            else f"within {SPECTRUM_TOLERANCE} of -log n for n past int64 (Re lambda < -{_X_HUGE})",
        )
    if space == FULL and abs(lam) <= SPECTRUM_TOLERANCE:
        return SpectrumClassification(
            lam=lam,
            space=space,
            kind="eigenvalue_constant",
            n=1,
            eigenvector=monomial(1),
            reason=(
                "constants are annihilated (eigenvalue 0) and the range "
                "contains no constant term, so 0 is not invertible"
            ),
        )

    # resolvent territory; on the zero-constant subspace there is no
    # b_1/lambda coefficient, so |lambda| does not enter the inverse bound
    gap = inner if space == ZERO_SUBSPACE else min(abs(lam), inner)
    return SpectrumClassification(
        lam=lam,
        space=space,
        kind="resolvent_point",
        gap=gap,
        near_spectrum=gap < NEAR_SPECTRUM_RADIUS,
        reason="within NEAR_SPECTRUM_RADIUS of the spectrum" if gap < NEAR_SPECTRUM_RADIUS else "",
    )


def resolvent_apply(lmbda, f: DirichletPolynomial, space: str) -> DirichletPolynomial:
    """(lambda I - D)^(-1) f, coefficient-wise b_n -> b_n / (log n + lambda)
    (plus b_1 -> b_1 / lambda on the full space).

    Raises SpectralError when lambda is classified inside the spectrum, and
    DomainError when f has a constant term but the zero subspace was named.
    """
    cls = classify_point(lmbda, space)
    lam = cls.lam
    if cls.kind != "resolvent_point":
        raise SpectralError(
            f"lambda = {lam} lies in the spectrum ({cls.kind}); no resolvent there",
            classification=cls,
        )
    # log 1 = 0, so the n = 1 entry of this symbol is the b_1 / lambda term;
    # the array symbol adds as float + complex does, imaginary part 0.0 + Im lambda
    symbol = _with_array_symbol(lambda n: 1.0 / (math.log(n) + lam),
                                lambda g: _reciprocal(g.log_index_array() + lam.real, 0.0 + lam.imag))
    return apply(Multiplier(symbol, f"{space} resolvent", requires_zero_constant=space == ZERO_SUBSPACE), f)


class VariationReport(_Record):
    """Total-variation diagnostics for the damped resolvent symbol
    gamma_n = 1 / ((log n + lambda) n^delta).

    fitted_constant is the smallest C with
    |gamma_n - gamma_{n+1}| <= C / (gap^2 n^(1 + delta/2)) over the scanned
    range; the verdict is 'bounded' when C has stabilized (< 1% change over
    the last dyadic step), since the majorant then certifies a finite total
    variation.  majorant_ratio compares the observed variation increment on
    (N/2, N] against the integral bound of the fitted majorant tail; it is
    <= 1 by construction of C, and an increment lost to the running sum's
    rounding is summed exactly (see bv_check).  partial_sums, the running
    variation at n = 2 .. N, is read-only and left out of == and hash:
    (lam, delta, N) determine it.
    """

    lam: complex
    delta: float
    N: int
    gap: float
    variation: float
    partial_sums: np.ndarray
    fitted_constant: float
    majorant_ratio: float
    verdict: str

    _uncompared = ("partial_sums",)


def bv_check(lmbda, delta: float, N: int = 10**4) -> VariationReport:
    """Scan the total variation of gamma_n = 1 / ((log n + lambda) n^delta)
    over n = 2 .. N + 1 and fit its majorant; see VariationReport.

    majorant_ratio's increment is V[-1] - V[N/2 - 2] on the running
    variation V.  Near the spectrum the n = 2 term dominates V, and that
    difference can fall within the cumsum's rounding of V[-1] (at
    lambda = -log 2 + 1e-12 i it was exactly 0); when
    |V[-1] - V[N/2 - 2]| <= N u V[-1], u = 2^-53, the increment is the
    math.fsum of the window's own diffs instead.  Elsewhere the difference
    stands, bit for bit.
    """
    lam = _spectral_parameter(lmbda)
    if _validate_real(delta, "delta", 0.0, strict=True) >= 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    N = _validate_index(N, "N", 10**3, _MAX_TERMS)
    mu = spectral_gap(lam)
    if mu <= 0.0:
        raise SpectralError(
            f"lambda = {lam} has zero spectral gap; damped symbol is unbounded",
            classification=classify_point(lam, FULL),
        )

    # the majorant scales by gap^2: past normal range it is 0 or inf
    gap2 = mu * mu
    if not sys.float_info.min <= gap2 < math.inf:
        raise DomainError(f"lambda = {lam} has spectral gap {mu!r}, whose square is not a normal double")

    ns = np.arange(2, N + 2, dtype=np.float64)
    gamma = 1.0 / ((np.log(ns) + lam) * ns**delta)
    diffs = np.abs(np.diff(gamma))  # n = 2 .. N
    V = np.cumsum(diffs)
    V.flags.writeable = False

    n_lo = ns[:-1]
    weights = gap2 * diffs * n_lo ** (1.0 + 0.5 * delta)
    running_c = np.maximum.accumulate(weights)
    C = float(running_c[-1])
    C_half = float(running_c[(N // 2) - 2])
    stable = C > 0 and abs(C - C_half) <= 0.01 * C

    # integral comparison for the majorant tail past N/2
    M = float(N // 2)
    tail_majorant = (C / gap2) * (2.0 / delta) * M ** (-0.5 * delta)
    increment = float(V[-1] - V[(N // 2) - 2])
    if abs(increment) <= N * 2.0**-53 * V[-1]:
        # within the cumsum's rounding of V[-1]: the increment may have been
        # absorbed by a large early term, so sum the window's diffs exactly
        increment = math.fsum(diffs[(N // 2) - 1 :])
    ratio = increment / tail_majorant if tail_majorant > 0 else math.inf
    variation = float(V[-1])
    if not all(map(math.isfinite, (variation, C, ratio))):
        raise DomainError(f"bv_check at lambda = {lam} (spectral gap {mu!r}) leaves double range")

    return VariationReport(
        lam=lam,
        delta=float(delta),
        N=int(N),
        gap=mu,
        variation=variation,
        partial_sums=V,
        fitted_constant=C,
        majorant_ratio=float(ratio),
        verdict="bounded" if stable else "violated",
    )


def _reciprocal_symbol_distance(w: complex) -> float:
    """inf over n >= 2 of |-1/log n - w|, over the same window as
    _symbol_distance with target log n = -1/Re w.

    The values -1/log n fill [-1/log 2, 0) and tend to 0 from below, so the
    infimum also covers the n -> inf limit |w|; where the window is dense
    (Re w just below 0) only the imaginary offset |Im w| survives.
    """
    window = _window(-1.0 / w.real) if w.real < 0.0 else (2, 3)
    tail = abs(w) if window else abs(w.imag)
    lo, hi = window or (2, 3)
    best = min(abs((-1.0 / math.log(n)) - w) for n in range(lo, hi + 1))
    return min(best, tail)


class ReciprocalReport(_Record):
    mu: complex
    in_rho_d: bool
    in_rho_j_reciprocal: bool
    consistent: bool
    gap_d: float
    gap_j: float


def reciprocal_spectrum_check(mu) -> ReciprocalReport:
    """Cross-check the inverse-pair spectral correspondence on the zero
    subspace: mu avoids the derivative's spectrum exactly when 1/mu avoids
    the integration operator's spectrum {-1/log n}.  Both sides use the
    same membership tolerance, so agreement is expected wherever that
    tolerance can decide the pair.  It cannot once |1/mu| <= SPECTRUM_TOLERANCE
    (|mu| >= 10^12): 1/mu is then within tolerance of 0, where J's spectrum
    accumulates, while mu is a resolvent point of D, so such mu raise
    DomainError."""
    m = _validate_complex(mu, "spectral parameter")
    if m == 0:
        raise DomainError("mu must be nonzero (0 is handled by classify_point directly)")
    if abs(1.0 / m) <= SPECTRUM_TOLERANCE:
        raise DomainError(
            f"mu = {m} is too large: 1/mu lies within {SPECTRUM_TOLERANCE} of 0, where the "
            "integration operator's spectrum accumulates, so the pair cannot be decided"
        )
    gap_d, _ = _symbol_distance(m)
    gap_j = _reciprocal_symbol_distance(1.0 / m)
    in_rho_d = gap_d > SPECTRUM_TOLERANCE
    in_rho_j = gap_j > SPECTRUM_TOLERANCE
    return ReciprocalReport(
        mu=m,
        in_rho_d=in_rho_d,
        in_rho_j_reciprocal=in_rho_j,
        consistent=in_rho_d == in_rho_j,
        gap_d=gap_d,
        gap_j=gap_j,
    )
