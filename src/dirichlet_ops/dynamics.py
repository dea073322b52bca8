"""Operator iterates, Cesàro means, and mean-ergodicity diagnostics.

Mean ergodicity and power boundedness both force (1/k) T^k f -> 0, so a
single orbit along which the normalized iterate seminorm grows disproves
both.  The diagnostic samples that quantity for a diagonal multiplier and
classifies the orbit.  "diverges" is a disproof witness; "converges" on a
sampled orbit is evidence only, since these are space-level properties.

The seminorm of an iterate is taken as the coefficient upper bound
sum |symbol(n)^k a_n| n^(-eps) / k, which is exact for single monomials;
that is where the closed-form growth rates live.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError
from .operators import _POWU_MAX, Multiplier, _number, _power, _with_array_symbol, apply
from .series import (_ARRAY_MIN_TERMS, DirichletPolynomial, _Record, _exp, _expm1, _fsum, _list_slope,
                     _nonnegative_fsum, _product, _validate_index, _validate_real, np, replace)

__all__ = [
    "power_apply",
    "cesaro_mean",
    "normalized_power_norm",
    "DynamicsReport",
    "ergodicity_diagnostic",
]

# |symbol - 1| up to this takes the ring form in cesaro_mean: the geometric
# form divides by (1 - symbol) and loses ~k*eps/|1-symbol| to cancellation
_UNIT_SYMBOL_RADIUS = 1e-8

_MIN_NORMAL = sys.float_info.min
_LOG_MAX = math.log(sys.float_info.max)  # exp of more overflows


def power_apply(m: Multiplier, k: int, f: DirichletPolynomial) -> DirichletPolynomial:
    """k-th iterate, coefficient-wise a_n -> symbol(n)^k a_n.

    Computed as a single power rather than k sequential applications, so
    the error stays at one complex-power rounding instead of k of them.
    A power past double range raises DomainError.  For k <= 100, where
    CPython forms the power by binary products, an array symbol of m
    carries over to the power."""
    k = _validate_index(k, "iterate count")
    power = replace(m, symbol=lambda n: _number(m, n) ** k, label=f"{m.label}^{k}")
    if m._array_symbol is not None and k <= _POWU_MAX:
        _with_array_symbol(power, lambda g: _power(*m._array_symbol(g), k))
    return apply(power, f)


def cesaro_mean(m: Multiplier, k: int, f: DirichletPolynomial) -> DirichletPolynomial:
    """(1/k) sum_{j=1}^k of the j-th iterate, coefficient-wise, O(1) in k.

    gamma (1 - gamma^k) / (1 - gamma) / k away from gamma = 1, and 1 at it.
    Within _UNIT_SYMBOL_RADIUS of 1: gamma expm1(k log gamma) / (k (gamma - 1)),
    log gamma by three terms of its series in gamma - 1 and expm1 in real
    arithmetic.  A mean past double range raises DomainError."""
    k = _validate_index(k, "iterate count")

    def mean_symbol(n: int) -> complex:
        g = _number(m, n)
        d = g - 1.0
        if abs(d) > _UNIT_SYMBOL_RADIUS:
            return g * (1.0 - g**k) / (1.0 - g) / k
        if g == 1.0:
            return 1.0  # sum of k ones over k
        return g * _expm1(k * (d - d * d / 2.0 + d * d * d / 3.0)) / (k * d)

    mean = replace(m, symbol=mean_symbol, label=f"cesaro({m.label}, {k})")
    return apply(mean, f)


class _ArrayOrbit(NamedTuple):
    """An _orbit on arrays: symbol(n) as real and imaginary parts, |symbol(n)|,
    a_n as real and imaginary parts, |a_n|, n^(-epsilon) and epsilon log n,
    for each stored term with symbol(n) != 0."""

    gr: np.ndarray
    gi: np.ndarray
    mod_g: np.ndarray
    ar: np.ndarray
    ai: np.ndarray
    mod_a: np.ndarray
    decay: np.ndarray
    eps_log: np.ndarray


def _orbit(m: Multiplier, f: DirichletPolynomial, epsilon: float) -> list[tuple] | _ArrayOrbit:
    """The k-independent part of each orbit term, read once: (symbol(n), a_n,
    |a_n|, n^(-epsilon), epsilon log n) for each stored term with symbol(n) != 0.
    From _ARRAY_MIN_TERMS terms on, for a multiplier with an array symbol,
    the same values as an _ArrayOrbit."""
    m.check_domain(f)
    if m._array_symbol is not None and f.term_count >= _ARRAY_MIN_TERMS:
        orbit = _array_orbit(m, f, epsilon)
        if orbit is not None:
            return orbit
    orbit = []
    for n, a in f.items():
        g = m(n)
        if g == 0:
            continue
        try:
            mod_a = abs(a)
        except OverflowError:
            raise DomainError(f"|a_n| at n = {n} overflows double precision, got {a!r}") from None
        eps_log = epsilon * math.log(n)
        orbit.append((g, a, mod_a, math.exp(-eps_log), eps_log))
    return orbit


def _array_orbit(m: Multiplier, f: DirichletPolynomial, epsilon: float) -> _ArrayOrbit | None:
    """_orbit's values on arrays, bit for bit: symbol(n) from the array
    symbol; np.hypot for the moduli (CPython's complex abs; np.abs is not);
    f's log_index_array and series._exp, which give math.log's and
    math.exp's bits.  None where the loop must run to raise its error: an
    |a_n| past double range, or an array symbol value or modulus that is
    not finite."""
    a = f.coefficient_array()
    with np.errstate(over="ignore"):
        mod_a = np.hypot(a.real, a.imag)
    if np.isinf(mod_a).any():
        return None
    gr, gi = m._array_symbol(f)
    with np.errstate(over="ignore", invalid="ignore"):
        mod_g = np.hypot(gr, gi)
    if not np.isfinite(mod_g).all():
        return None
    logn = f.log_index_array()
    keep = mod_g != 0
    if not keep.all():
        logn, a, mod_a, gr, gi, mod_g = (x[keep] for x in (logn, a, mod_a, gr, gi, mod_g))
    eps_log = epsilon * logn
    return _ArrayOrbit(gr, gi, mod_g, a.real, a.imag, mod_a, _exp(-eps_log), eps_log)


def _log_space_term(mod_g: float, mod_a: float, eps_log: float, k: int) -> float:
    """|g^k a| n^(-epsilon) / k from the logs of its factors; inf past double range."""
    log_term = k * math.log(mod_g) + math.log(mod_a) - eps_log - math.log(k)
    return math.inf if log_term > _LOG_MAX else math.exp(log_term)


def _cpython_power(g: complex, k: int) -> complex:
    """g ** k as CPython forms it, inf where it overflows."""
    try:
        return g**k
    except OverflowError:
        return complex(math.inf)


def _array_sum(o: _ArrayOrbit, k: int) -> float:
    """_orbit_norm's _fsum of its terms on an _ArrayOrbit, the loop's bits:
    g^k by operators._power (CPython's c_powu) for k <= 100 and by CPython's
    ** per term past it, unfused products, and the log-space terms per
    index.  Where no term needs log space, the terms are summed on arrays
    (series._nonnegative_fsum); otherwise they become a list, in the loop's
    order, for _fsum."""
    with np.errstate(all="ignore"):
        if k <= _POWU_MAX:
            pr, pi = _power(o.gr, o.gi, k)
        else:
            p = np.array([_cpython_power(complex(r, i), k) for r, i in zip(o.gr.tolist(), o.gi.tolist())])
            pr, pi = p.real, p.imag
        mod_p = np.hypot(pr, pi)
        term = np.hypot(*_product(pr, pi, o.ar, o.ai))
        terms = term * o.decay / k
    direct = (_MIN_NORMAL <= mod_p) & (mod_p < math.inf) & (_MIN_NORMAL <= term) & (term < math.inf)
    if direct.all():
        return _nonnegative_fsum(terms)
    terms = terms.tolist()
    for i in np.flatnonzero(~direct).tolist():
        terms[i] = _log_space_term(float(o.mod_g[i]), float(o.mod_a[i]), float(o.eps_log[i]), k)
    return _fsum(terms)


def _orbit_norm(orbit: list[tuple] | _ArrayOrbit, k: int) -> float:
    """sum |g^k a| n^(-epsilon) / k over an _orbit; inf past double range.
    A term is taken as computed where g^k and g^k a are normal doubles, else
    in log space.  The terms are nonnegative and their sum is fsum's, the
    exactly rounded one: on an _ArrayOrbit whose terms are all taken as
    computed, by series._nonnegative_fsum on arrays, else by _fsum."""
    if isinstance(orbit, _ArrayOrbit):
        total = _array_sum(orbit, k)
    else:
        terms = []
        for g, a, mod_a, decay, eps_log in orbit:
            try:
                power = g**k
                term = abs(power * a)
                direct = _MIN_NORMAL <= abs(power) < math.inf and _MIN_NORMAL <= term < math.inf
            except OverflowError:
                direct = False
            terms.append(term * decay / k if direct else _log_space_term(abs(g), mod_a, eps_log, k))
        total = _fsum(terms)
    # nan: the nonnegative terms overflowed in the sum
    return math.inf if math.isnan(total) else total


def normalized_power_norm(m: Multiplier, f: DirichletPolynomial, epsilon: float, k: int) -> float:
    """sum_n |symbol(n)^k a_n| n^(-epsilon) / k: the coefficient seminorm
    upper bound of (1/k) * power_apply(m, k, f).

    A term is |symbol(n)^k a_n| n^(-epsilon) / k, as computed, whenever
    symbol(n)^k and symbol(n)^k a_n are normal doubles; otherwise it is
    assembled in log space, so |symbol|^k never overflows on the way to a
    representable value.  inf is returned exactly when a term or the sum
    passes double range.  A coefficient whose modulus passes double range
    raises DomainError naming its index.  ergodicity_diagnostic samples this
    sum for every k from one read of the symbol values, bit for bit.

    From _ARRAY_MIN_TERMS terms on, a multiplier with an array symbol has
    the terms formed on arrays, with the per-term loop's bits and error
    messages; user symbols keep the loop.  The sum is fsum's correctly
    rounded one, taken on arrays (series._nonnegative_fsum) where every
    term of an array orbit is taken as computed."""
    k = _validate_index(k, "iterate count")
    epsilon = _validate_real(epsilon, "epsilon", 0.0)
    return _orbit_norm(_orbit(m, f, epsilon), k)


class DynamicsReport(_Record):
    """Orbit samples (k, normalized iterate bound), a verdict, and the
    fitted exponential rate.

    verdict rules: 'diverges' needs the last three samples strictly
    increasing together with either a 10^3-fold rise over the first sample
    or a positive fitted rate (slow-growing witnesses such as the rate
    log log 3 ~ 0.094 never clear a 10^3 rise by k = 40, yet grow without
    bound); 'converges' needs the last sample below 10^-6 of the first;
    anything else is 'inconclusive'.

    fitted_rate is the least-squares slope of log(k * value) against k over
    the tail half of the samples; multiplying back by k removes the 1/k
    normalization, so the slope estimates log of the dominant |symbol|.
    The fit uses every finite, positive tail sample, taking log v + log k
    where k * v overflows; it is 0.0 when fewer than two remain.  It runs
    on Python floats, by math.log and numpy's float64 summation order
    (series._list_slope), so no numpy SIMD level sets a bit.  A sample
    is inf exactly when its value passes double range: an inf last sample
    means 'diverges', and an inf first sample rules out 'converges'.
    """

    samples: tuple[tuple[int, float], ...]
    verdict: str
    fitted_rate: float


_RATE_POSITIVE = 0.01


def ergodicity_diagnostic(
    m: Multiplier, f: DirichletPolynomial, epsilon: float, k_max: int = 40
) -> DynamicsReport:
    """Sample normalized_power_norm(m, f, epsilon, k) for k = 1..k_max and
    classify the orbit (rules in DynamicsReport).  The symbol values, |a_n|
    and n^(-epsilon) are read once for all k, on arrays from
    _ARRAY_MIN_TERMS terms on where m has an array symbol; every sample is
    normalized_power_norm's, bit for bit."""
    k_max = _validate_index(k_max, "k_max", 10)
    orbit = _orbit(m, f, _validate_real(epsilon, "epsilon", 0.0))
    samples = tuple((k, _orbit_norm(orbit, k)) for k in range(1, k_max + 1))
    values = [v for _, v in samples]

    tail = [(k, v) for k, v in samples if k > k_max // 2 and 0.0 < v < math.inf]
    if len(tail) >= 2:
        # k * v past double range: log v + log k instead
        ys = [math.log(v * k) if v * k < math.inf else math.log(v) + math.log(k) for k, v in tail]
        rate = _list_slope([float(k) for k, _ in tail], ys)
    else:
        rate = 0.0

    first = values[0]
    last3 = values[-3:]
    increasing = all(b > a for a, b in zip(last3, last3[1:]))
    if first == 0.0:
        verdict = "converges"  # zero orbit stays zero
    elif math.isinf(values[-1]):
        verdict = "diverges"  # overflow is as unbounded as it gets
    elif increasing and (values[-1] > 1e3 * first or rate > _RATE_POSITIVE):
        verdict = "diverges"
    elif math.isfinite(first) and values[-1] < 1e-6 * first:
        verdict = "converges"
    else:
        verdict = "inconclusive"
    return DynamicsReport(samples=samples, verdict=verdict, fitted_rate=rate)
