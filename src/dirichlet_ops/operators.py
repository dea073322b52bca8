"""Diagonal coefficient multipliers: differentiation, integration, growth.

A multiplier acts term by term,  T(sum a_n n^(-s)) = sum gamma_n a_n n^(-s).
Termwise differentiation has gamma_n = -log n (the n = 1 value is 0, so the
constant term is annihilated); the integration operator inverts it on the
subspace with zero constant term via gamma_n = -1/log n for n >= 2.

check_growth probes the admissibility condition log|gamma_n| / log n -> 0,
under which a multiplier maps convergent series to series absolutely
convergent on Re s > 1.  Pure threshold tests on a finite sample cannot see
through slowly varying factors (log|log n| / log n is still ~0.2 at
n = 10^6), so the verdict combines a plain smallness test with a fitted
limit in the basis {1, log log n / log n}, which resolves every multiplier
of the form n^c (log n)^p exactly.
"""

from __future__ import annotations

import math
from cmath import isfinite
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .series import _ARRAY_MIN_TERMS, DirichletPolynomial, _log, _normal, _slope, _validate_index

__all__ = [
    "Multiplier",
    "GrowthReport",
    "derivative_multiplier",
    "integration_multiplier",
    "identity_multiplier",
    "check_growth",
    "apply",
    "differentiate",
    "integrate",
    "compose",
]

# Array symbols reproduce CPython's scalar arithmetic on real arrays, so they
# give the scalar symbol's bits: series._log for log n, unfused complex
# products, _Py_c_quot's division (numpy's complex division multiplies by a
# reciprocal) and c_powu's binary powers.


def _product(ar, ai, br, bi) -> tuple:
    """(a * b).real, (a * b).imag as CPython's _Py_c_prod forms them."""
    return ar * br - ai * bi, ar * bi + ai * br


def _reciprocal(br, bi) -> tuple:
    """1.0 / b as CPython's _Py_c_quot divides (1 + 0j) by b: by b.real
    where |b.real| >= |b.imag|, else by b.imag (Smith's method).  Each
    branch divides by 0 where the other is taken, so callers run it under
    np.errstate, as apply does."""
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, 1.0 + 0.0 * ratio, 1.0 * ratio + 0.0) / denom
    im = np.where(by_real, 0.0 - 1.0 * ratio, 0.0 * ratio - 1.0) / denom
    return re, im


# the largest k for which CPython's complex ** k takes c_powu; past it
# _Py_c_pow (exp and log) rounds differently
_POWU_MAX = 100


def _power(re, im, k: int) -> tuple:
    """z ** k for 1 <= k <= _POWU_MAX as CPython's c_powu forms it: r = 1,
    p = z; for each bit of k from the lowest, r *= p where the bit is set,
    then p *= p."""
    r = (np.ones_like(re), np.zeros_like(re))
    p = (re, im)
    mask = 1
    while True:
        if k & mask:
            r = _product(*r, *p)
        mask <<= 1
        if mask > k:
            return r
        p = _product(*p, *p)


@dataclass(frozen=True)
class Multiplier:
    """Termwise coefficient multiplier n -> gamma_n.

    requires_zero_constant (keyword-only) restricts the domain to series with
    a_1 = 0; the read-only min_index is then 2, else 1.  Calling it reads one
    symbol value, raising DomainError below min_index, past double range
    (the value or its modulus) or if it is not finite.  So m(n), check_growth
    and normalized_power_norm, which need |gamma_n|, reject a finite value
    whose modulus alone passes double range; apply, which needs only finite
    products, accepts it.

    array_symbol (keyword-only, optional, left out of == and hash) maps a
    sorted int64 index array to the real and imaginary parts of
    complex(symbol(n)), bit for bit; apply and the orbit norms of dynamics
    take it from series._ARRAY_MIN_TERMS terms on.  The derivative,
    integration and identity multipliers, the resolvent and their
    power_apply iterates for k <= 100 carry one; user symbols, cesaro_mean
    and compose run the scalar symbol alone.
    """

    symbol: Callable[[int], complex]
    label: str
    requires_zero_constant: bool = field(default=False, kw_only=True)
    array_symbol: Callable[[np.ndarray], tuple] | None = field(default=None, kw_only=True, compare=False)

    @property
    def min_index(self) -> int:
        return 2 if self.requires_zero_constant else 1

    def __call__(self, n: int) -> complex:
        if n < self.min_index:
            raise DomainError(
                f"multiplier '{self.label}' is defined for n >= {self.min_index}, got {n}"
            )
        try:
            g = complex(self.symbol(n))
            abs(g)  # a finite value whose modulus passes double range raises here
        except OverflowError:
            raise DomainError(
                f"multiplier '{self.label}' overflows double precision at n = {n}"
            ) from None
        if not isfinite(g):
            raise DomainError(f"multiplier '{self.label}' is not finite at n = {n}, got {g!r}")
        return g

    def check_domain(self, f: DirichletPolynomial) -> None:
        """Raise DomainError unless f lies in the multiplier's domain (in
        normal form, a_1 = 0 leaves no stored index below 2)."""
        if self.requires_zero_constant and f.coefficient(1) != 0:
            raise DomainError(
                f"multiplier '{self.label}' requires a vanishing constant term, "
                f"got a_1 = {f.coefficient(1)}"
            )


# multipliers are immutable, so each built-in one is made once and shared
_DERIVATIVE = Multiplier(
    symbol=lambda n: -math.log(n),
    label="derivative",
    array_symbol=lambda idx: (-_log(idx), np.zeros(idx.size)),
)
_INTEGRATION = Multiplier(
    symbol=lambda n: -1.0 / math.log(n),
    label="integration",
    requires_zero_constant=True,
    array_symbol=lambda idx: (-1.0 / _log(idx), np.zeros(idx.size)),
)
_IDENTITY = Multiplier(
    symbol=lambda n: 1.0,
    label="identity",
    array_symbol=lambda idx: (np.ones(idx.size), np.zeros(idx.size)),
)


def derivative_multiplier() -> Multiplier:
    """gamma_n = -log n; multiplies each term by the log of its index."""
    return _DERIVATIVE


def integration_multiplier() -> Multiplier:
    """gamma_n = -1/log n on n >= 2; inverts the derivative where the
    constant term vanishes."""
    return _INTEGRATION


def identity_multiplier() -> Multiplier:
    return _IDENTITY


@dataclass(frozen=True)
class GrowthReport:
    """check_growth diagnostics: sampled ratios log|gamma_n|/log n, the
    fitted limit (intercept in the {1, log log n / log n} basis), and the
    residual of that fit."""

    verdict: str  # admissible | inadmissible | inconclusive
    sample_points: tuple[int, ...]
    ratios: tuple[float, ...]
    limit_estimate: float
    fit_residual: float


_RATIO_THRESHOLD = 0.05
_FIT_RESIDUAL_OK = 0.01


def check_growth(m: Multiplier, n_max: int = 10**5) -> GrowthReport:
    """Sample log|gamma_n| / log n geometrically up to n_max and decide
    whether it is consistent with a vanishing limit.

    admissible: the tail ratios already sit below 0.05 in absolute value,
    or the fitted limit does and the fit is tight.  inadmissible: the fit
    is tight with a limit >= 0.05, or the tail is flat and bounded away
    from 0 by 0.05.  inconclusive otherwise.
    """
    n_max = _validate_index(n_max, "n_max", 10**3)
    pts = [2**j for j in range(1, n_max.bit_length())]
    if pts[-1] != n_max:
        pts.append(n_max)

    ratios = []
    for n in pts:
        g = m(n)
        if g == 0:
            raise DomainError(f"multiplier '{m.label}' vanishes at n = {n}")
        ratios.append(math.log(abs(g)) / math.log(n))
    r = np.array(ratios)
    logn = np.log(np.array(pts, dtype=np.float64))
    u = np.log(logn) / logn

    # r ~ limit + slope u, fitted in closed form
    slope = _slope(u, r)
    limit = float(np.mean(r)) - slope * float(np.mean(u))
    resid = float(np.sqrt(np.mean((limit + slope * u - r) ** 2)))

    tail = np.abs(r[-3:])
    if tail.max() < _RATIO_THRESHOLD:
        verdict = "admissible"
    elif resid < _FIT_RESIDUAL_OK:
        verdict = "admissible" if abs(limit) < _RATIO_THRESHOLD else "inadmissible"
    elif tail.min() >= _RATIO_THRESHOLD and tail[-1] >= tail[0] * 0.99:
        verdict = "inadmissible"
    else:
        verdict = "inconclusive"
    return GrowthReport(
        verdict=verdict,
        sample_points=tuple(pts),
        ratios=tuple(float(v) for v in ratios),
        limit_estimate=limit,
        fit_residual=resid,
    )


def apply(m: Multiplier, f: DirichletPolynomial) -> DirichletPolynomial:
    """Termwise action of the multiplier; result is renormalized, so
    annihilated terms disappear from the coefficient map.  A symbol value
    past double range or not finite raises DomainError naming the
    multiplier and n; a product that overflows names its coefficient.
    The symbol is read directly, not through m(n): a finite value whose
    modulus alone passes double range is accepted when the products are
    finite (complex(1.5e308, 1.5e308) times 0.5 gives 7.5e307+7.5e307j).

    From _ARRAY_MIN_TERMS terms on, a multiplier with an array symbol
    forms the same products on arrays, bit for bit; anything non-finite
    there reruns the scalar path, which raises the error."""
    m.check_domain(f)
    if m.array_symbol is not None and f.term_count >= _ARRAY_MIN_TERMS:
        idx, a = f.index_array(), f.coefficient_array()
        out = np.empty(idx.size, dtype=np.complex128)
        with np.errstate(all="ignore"):
            out.real, out.imag = _product(*m.array_symbol(idx), a.real, a.imag)
        try:
            return _normal(idx, out)
        except DomainError:
            pass  # a value is not finite: the scalar path names it
    symbol = m.symbol
    try:
        return _normal(f.indices(), [complex(symbol(n)) * a for n, a in f.items()])
    except (OverflowError, DomainError):
        # error path only: re-read the symbol through m(n), which names a bad value
        for n in f.indices():
            m(n)
        raise


def differentiate(f: DirichletPolynomial) -> DirichletPolynomial:
    """Termwise derivative: a_n -> -a_n log n (constant term drops)."""
    return apply(_DERIVATIVE, f)


def integrate(f: DirichletPolynomial) -> DirichletPolynomial:
    """Termwise antiderivative a_n -> -a_n / log n, defined only when the
    constant term vanishes; inverse of differentiate on that subspace."""
    return apply(_INTEGRATION, f)


def compose(m1: Multiplier, m2: Multiplier) -> Multiplier:
    return Multiplier(
        symbol=lambda n: complex(m1.symbol(n)) * complex(m2.symbol(n)),
        label=f"{m1.label}*{m2.label}",
        requires_zero_constant=m1.requires_zero_constant or m2.requires_zero_constant,
    )
