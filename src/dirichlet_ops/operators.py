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
from typing import Callable

from .errors import DomainError
from .series import (_ARRAY_MIN_TERMS, DirichletPolynomial, _Record, _list_slope, _normal, _pairwise_sum, _product,
                     _termwise, _validate_index, np)

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
# give the scalar symbol's bits: series._log for log n (a polynomial's
# log_index_array), unfused complex products, _Py_c_quot's division (numpy's
# complex division multiplies by a reciprocal) and c_powu's binary powers.


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


class Multiplier(_Record):
    """Termwise coefficient multiplier n -> gamma_n.

    requires_zero_constant (keyword-only) restricts the domain to series with
    a_1 = 0; the read-only min_index is then 2, else 1.  Calling it reads one
    symbol value, raising DomainError below min_index, if complex() rejects
    it, past double range (the value or its modulus) or if it is not finite.
    So m(n), check_growth and normalized_power_norm, which need |gamma_n|,
    reject a finite value whose modulus alone passes double range; apply,
    which needs only finite products, accepts it.

    `_array_symbol`, private, maps a polynomial to the real and imaginary
    parts of complex(symbol(n)) at its indices, bit for bit; the built-ins
    and the resolvent read its cached log_index_array.  apply and the orbit
    norms of dynamics take it from series._ARRAY_MIN_TERMS terms on.
    Only _with_array_symbol sets it, on the built-ins, the resolvent and
    their power_apply iterates for k <= 100.  It takes no part in
    construction, comparison or repr, so replace() drops it.
    """

    symbol: Callable[[int], complex]
    label: str
    requires_zero_constant: bool = False
    _array_symbol: Callable[[DirichletPolynomial], tuple] | None = None

    def __init__(self, symbol: Callable[[int], complex], label: str, *, requires_zero_constant: bool = False):
        vars(self).update(symbol=symbol, label=label, requires_zero_constant=requires_zero_constant)

    @property
    def min_index(self) -> int:
        return 2 if self.requires_zero_constant else 1

    def __call__(self, n: int) -> complex:
        if n < self.min_index:
            raise DomainError(
                f"multiplier '{self.label}' is defined for n >= {self.min_index}, got {n}"
            )
        g = _finite_value(self, n)
        try:
            abs(g)  # a finite value whose modulus passes double range raises here
        except OverflowError:
            raise _overflow(self, n) from None
        return g

    def check_domain(self, f: DirichletPolynomial) -> None:
        """Raise DomainError unless f lies in the multiplier's domain (in
        normal form, a_1 = 0 leaves no stored index below 2)."""
        if self.requires_zero_constant and f.coefficient(1) != 0:
            raise DomainError(
                f"multiplier '{self.label}' requires a vanishing constant term, "
                f"got a_1 = {f.coefficient(1)}"
            )


def _number(m: Multiplier, n: int) -> complex:
    """complex(m.symbol(n)); DomainError naming m and n where the value is
    not a number: complex() rejects it, or it is a string, which complex()
    would parse but no coefficient gate accepts."""
    value = m.symbol(n)
    if not isinstance(value, str):
        try:
            return complex(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"multiplier '{m.label}' is not a number at n = {n}, got {value!r}")


def _overflow(m: Multiplier, n: int) -> DomainError:
    return DomainError(f"multiplier '{m.label}' overflows double precision at n = {n}")


def _finite_value(m: Multiplier, n: int) -> complex:
    """_number(m, n), which must be finite: DomainError naming m and n for a
    value past double range (complex() overflows) or not finite."""
    try:
        g = _number(m, n)
    except OverflowError:
        raise _overflow(m, n) from None
    if not isfinite(g):
        raise DomainError(f"multiplier '{m.label}' is not finite at n = {n}, got {g!r}")
    return g


def _with_array_symbol(m: Multiplier, array_symbol: Callable[[DirichletPolynomial], tuple]) -> Multiplier:
    """m, carrying array_symbol as its private _array_symbol."""
    object.__setattr__(m, "_array_symbol", array_symbol)
    return m


# multipliers are immutable, so each built-in one is made once and shared
_DERIVATIVE = _with_array_symbol(Multiplier(lambda n: -math.log(n), "derivative"),
                                 lambda f: (-f.log_index_array(), np.zeros(f.term_count)))
_INTEGRATION = _with_array_symbol(Multiplier(lambda n: -1.0 / math.log(n), "integration", requires_zero_constant=True),
                                  lambda f: (-1.0 / f.log_index_array(), np.zeros(f.term_count)))
_IDENTITY = _with_array_symbol(Multiplier(lambda n: 1.0, "identity"),
                               lambda f: (np.ones(f.term_count), np.zeros(f.term_count)))


def derivative_multiplier() -> Multiplier:
    """gamma_n = -log n; multiplies each term by the log of its index."""
    return _DERIVATIVE


def integration_multiplier() -> Multiplier:
    """gamma_n = -1/log n on n >= 2; inverts the derivative where the
    constant term vanishes."""
    return _INTEGRATION


def identity_multiplier() -> Multiplier:
    return _IDENTITY


class GrowthReport(_Record):
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
    logn = [math.log(n) for n in pts]
    u = [math.log(x) / x for x in logn]

    # ratios ~ limit + slope u, fitted in closed form on Python floats, the
    # sums and means in numpy's order (series._pairwise_sum)
    slope = _list_slope(u, ratios)
    limit = _pairwise_sum(ratios) / len(ratios) - slope * (_pairwise_sum(u) / len(u))
    errs = [limit + slope * x - r for x, r in zip(u, ratios)]
    resid = math.sqrt(_pairwise_sum([e * e for e in errs]) / len(errs))

    tail = [abs(r) for r in ratios[-3:]]
    if max(tail) < _RATIO_THRESHOLD:
        verdict = "admissible"
    elif resid < _FIT_RESIDUAL_OK:
        verdict = "admissible" if abs(limit) < _RATIO_THRESHOLD else "inadmissible"
    elif min(tail) >= _RATIO_THRESHOLD and tail[-1] >= tail[0] * 0.99:
        verdict = "inadmissible"
    else:
        verdict = "inconclusive"
    return GrowthReport(
        verdict=verdict,
        sample_points=tuple(pts),
        ratios=tuple(ratios),
        limit_estimate=limit,
        fit_residual=resid,
    )


def apply(m: Multiplier, f: DirichletPolynomial) -> DirichletPolynomial:
    """Termwise action of the multiplier; result is renormalized, so
    annihilated terms disappear from the coefficient map.  A symbol value
    that is not a number (a string too, which complex() would parse), past
    double range or not finite raises DomainError naming the multiplier
    and n; a product that overflows names its coefficient.
    The symbol is read directly, not through m(n): a finite value whose
    modulus alone passes double range is accepted when the products are
    finite (complex(1.5e308, 1.5e308) times 0.5 gives 7.5e307+7.5e307j).

    From _ARRAY_MIN_TERMS terms on, a multiplier with an array symbol
    forms the same products on arrays, bit for bit; anything non-finite
    there reruns the scalar path, which raises the error."""
    m.check_domain(f)
    array_symbol = m._array_symbol
    if array_symbol is not None and f.term_count >= _ARRAY_MIN_TERMS:
        a = f.coefficient_array()
        out = np.empty(a.size, dtype=np.complex128)
        with np.errstate(all="ignore"):
            out.real, out.imag = _product(*array_symbol(f), a.real, a.imag)
        try:
            return _termwise(f, out)
        except DomainError:
            pass  # a value is not finite: the scalar path names it
    symbol, items = m.symbol, f.items()
    try:
        if array_symbol is None:
            # a user's symbol may return a string, which complex() would parse
            terms = [complex(g) * a for n, a in items if not isinstance(g := symbol(n), str)]
            if len(terms) < len(items):
                raise TypeError  # a string value, left out above: m(n) names it
        else:
            # the package's own symbols, the only ones with an array symbol,
            # return floats or complex numbers
            terms = [complex(symbol(n)) * a for n, a in items]
        return _normal(f.indices(), terms)
    except (OverflowError, DomainError, TypeError, ValueError):
        # error path only: each term in index order by the rule above, a
        # value's and then its product's, so the first bad term is named
        for n, a in items:
            _normal((n,), (_finite_value(m, n) * a,))
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
        symbol=lambda n: _number(m1, n) * _number(m2, n),
        label=f"{m1.label}*{m2.label}",
        requires_zero_constant=m1.requires_zero_constant or m2.requires_zero_constant,
    )
