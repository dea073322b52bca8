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
from .series import DirichletPolynomial, _normal, _validate_index

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
    """

    symbol: Callable[[int], complex]
    label: str
    requires_zero_constant: bool = field(default=False, kw_only=True)

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


def derivative_multiplier() -> Multiplier:
    """gamma_n = -log n; multiplies each term by the log of its index."""
    return Multiplier(symbol=lambda n: -math.log(n), label="derivative")


def integration_multiplier() -> Multiplier:
    """gamma_n = -1/log n on n >= 2; inverts the derivative where the
    constant term vanishes."""
    return Multiplier(
        symbol=lambda n: -1.0 / math.log(n),
        label="integration",
        requires_zero_constant=True,
    )


def identity_multiplier() -> Multiplier:
    return Multiplier(symbol=lambda n: 1.0, label="identity")


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

    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    limit = float(coef[0])
    resid = float(np.sqrt(np.mean((design @ coef - r) ** 2)))

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
    finite (complex(1.5e308, 1.5e308) times 0.5 gives 7.5e307+7.5e307j),
    which keeps the happy path one comprehension."""
    m.check_domain(f)
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
    return apply(derivative_multiplier(), f)


def integrate(f: DirichletPolynomial) -> DirichletPolynomial:
    """Termwise antiderivative a_n -> -a_n / log n, defined only when the
    constant term vanishes; inverse of differentiate on that subspace."""
    return apply(integration_multiplier(), f)


def compose(m1: Multiplier, m2: Multiplier) -> Multiplier:
    return Multiplier(
        symbol=lambda n: complex(m1.symbol(n)) * complex(m2.symbol(n)),
        label=f"{m1.label}*{m2.label}",
        requires_zero_constant=m1.requires_zero_constant or m2.requires_zero_constant,
    )
