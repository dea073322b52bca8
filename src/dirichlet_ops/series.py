"""Sparse Dirichlet polynomials and coefficient rules.

A Dirichlet polynomial is a finite sum  sum_n a_n n^(-s)  stored as a sparse
coefficient map index -> complex.  The normal form keeps no explicit zeros
and all indices are integers >= 1, so equality of coefficient maps is
equality of the represented series.  Instances are immutable after
construction; every operation returns a fresh object, which makes
unrestricted concurrent reads safe.

Infinite series enter only through CoefficientRule: a deterministic, total
rule n -> a_n, computed on whole index arrays.
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import fsum
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "DirichletPolynomial",
    "HalfPlanePoint",
    "CoefficientRule",
    "ZERO",
    "monomial",
    "add",
    "scale",
    "dirichlet_multiply",
    "coefficient_close",
    "truncate",
    "ones_rule",
    "eta_rule",
    "zeta_shift_rule",
    "moebius_rule",
    "table_rule",
]


# indices are stored and multiplied as int64
_INDEX_MAX = 2**63 - 1


def _validate_index(n, what: str = "series index", least: int = 1, most: int = _INDEX_MAX) -> int:
    """n as an int in [least, most]; DomainError naming `what` otherwise."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")
    if n < least:
        raise DomainError(f"{what} must be >= {least}, got {n}")
    if n > most:
        bound = "2^63 - 1" if most == _INDEX_MAX else most
        raise DomainError(f"{what} must be <= {bound}, got {n}")
    return int(n)


# concrete types, as in _validate_index: isinstance against numbers.Real is ~5x slower
_REALS = (float, int, np.floating, np.integer)
_COMPLEXES = (complex, *_REALS, np.complexfloating)
_FLOAT_MAX = sys.float_info.max


def _validate_real(x, what: str, least: float | None = None, strict: bool = False) -> float:
    """x as a finite float, > least (strict) or >= least when least is given;
    DomainError naming `what` otherwise.  A bool or a string is not a real."""
    real = isinstance(x, _REALS) and not isinstance(x, bool)
    v = float(x) if real and (not isinstance(x, int) or abs(x) <= _FLOAT_MAX) else math.nan
    if math.isfinite(v) and (least is None or v > least or (v == least and not strict)):
        return v
    bound = "" if least is None else f" {'>' if strict else '>='} {least:g}"
    kind = "finite" if real and not bound else "a finite real" + bound
    raise DomainError(f"{what} must be {kind}, got {x!r}")


def _validate_complex(z, what: str) -> complex:
    """z as a finite complex; DomainError naming `what` otherwise."""
    if isinstance(z, _COMPLEXES) and not isinstance(z, bool):
        c = complex(z) if not isinstance(z, int) or abs(z) <= _FLOAT_MAX else complex(math.inf)
        if isfinite(c):
            return c
        raise DomainError(f"{what} must be finite, got {c}")
    raise DomainError(f"{what} must be a finite complex number, got {z!r}")


class DirichletPolynomial:
    """Finite coefficient map n -> a_n, zeros implied elsewhere.

    Accepts a mapping or an iterable of (index, coefficient) pairs;
    duplicate indices are accumulated.  Exact zero coefficients are dropped
    so two polynomials are equal iff they represent the same function.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, complex] = {}
        for n, a in items:
            n = _validate_index(n)
            acc[n] = acc.get(n, 0j) + complex(a)
        keys = sorted(acc)
        self._coeffs = _normal_map(keys, map(acc.__getitem__, keys))

    @property
    def coeffs(self) -> Mapping[int, complex]:
        return self._coeffs

    def coefficient(self, n: int) -> complex:
        return self._coeffs.get(_validate_index(n), 0j)

    def items(self):
        return self._coeffs.items()

    def indices(self):
        return self._coeffs.keys()

    @property
    def max_index(self) -> int:
        # 0 for the zero polynomial; indices are stored in increasing order
        return next(reversed(self._coeffs), 0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def term_count(self) -> int:
        return len(self._coeffs)

    def index_array(self) -> np.ndarray:
        return np.fromiter(self._coeffs.keys(), dtype=np.int64, count=len(self._coeffs))

    def coefficient_array(self) -> np.ndarray:
        return np.fromiter(self._coeffs.values(), dtype=np.complex128, count=len(self._coeffs))

    def has_real_coefficients(self) -> bool:
        return all(a.imag == 0 for a in self._coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        return dict(self._coeffs) == dict(other._coeffs)

    __hash__ = None  # mutable-feeling value type, keep it out of sets

    def __add__(self, other):
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        return add(self, scale(-1.0, other))

    def __neg__(self):
        return scale(-1.0, self)

    def __rmul__(self, c):
        if isinstance(c, (int, float, complex)) and not isinstance(c, bool):
            return scale(c, self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, DirichletPolynomial):
            return dirichlet_multiply(self, other)
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return scale(other, self)
        return NotImplemented

    def __repr__(self):
        if self.is_zero:
            return "DirichletPolynomial(0)"
        body = ", ".join(f"{n}: {a}" for n, a in self.items())
        return f"DirichletPolynomial({{{body}}})"


def _normal_map(keys, values) -> MappingProxyType:
    """Normal form of coefficients whose keys are valid, distinct and
    increasing: each value is rounded as 0j + a (so a -0.0 component
    becomes +0.0), exact zeros are dropped and a non-finite value raises."""
    data = {}
    for n, a in zip(keys, values):
        a = 0j + a
        if a:
            if not isfinite(a):
                raise DomainError(f"coefficient at n={n} must be finite, got {a!r}")
            data[n] = a
    return MappingProxyType(data)


def _normal(keys, values) -> DirichletPolynomial:
    """Trusted constructor for polynomials the library builds itself: the
    keys come from validated polynomials, so no index check, accumulation
    or sort is repeated."""
    f = object.__new__(DirichletPolynomial)
    f._coeffs = _normal_map(keys, values)
    return f


def _normal_arrays(idx: np.ndarray, coeffs: np.ndarray) -> DirichletPolynomial:
    """_normal for an increasing int64 index array and its complex128
    coefficients, with the same rounding, zero dropping and finiteness check."""
    coeffs = coeffs + 0j
    bad = ~np.isfinite(coeffs)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"coefficient at n={idx[i]} must be finite, got {complex(coeffs[i])!r}")
    keep = coeffs != 0
    f = object.__new__(DirichletPolynomial)
    f._coeffs = MappingProxyType(dict(zip(idx[keep].tolist(), coeffs[keep].tolist())))
    return f


ZERO = DirichletPolynomial()


def monomial(n: int, coefficient=1.0) -> DirichletPolynomial:
    """The single term  coefficient * n^(-s)."""
    return _normal((_validate_index(n),), (complex(coefficient),))


def add(f: DirichletPolynomial, g: DirichletPolynomial) -> DirichletPolynomial:
    out = dict(f.coeffs)
    for n, b in g.items():
        out[n] = out.get(n, 0j) + b
    keys = sorted(out)
    return _normal(keys, map(out.__getitem__, keys))


def scale(c, f: DirichletPolynomial) -> DirichletPolynomial:
    c = complex(c)
    return _normal(f.indices(), [c * a for a in f.coeffs.values()])


def _fsum(xs) -> float:
    # fsum raises on an intermediate overflow or inf - inf; nan lets the
    # normal form name the offending index instead
    try:
        return fsum(xs)
    except (OverflowError, ValueError):
        return math.nan


# below this many index pairs the per-pair loop beats the array kernel: the
# measured crossover is 42-49 pairs (2-core x86-64, numpy 2.4)
_KERNEL_MIN_PAIRS = 48


def dirichlet_multiply(f: DirichletPolynomial, g: DirichletPolynomial) -> DirichletPolynomial:
    """Coefficient convolution: (f*g)_n = sum over divisor splits n1*n2 = n.

    Works on the stored index pairs, so cost is O(terms(f) * terms(g))
    regardless of index magnitudes.  Each pair product is formed as
    CPython forms a complex product, re = ar*br - ai*bi and
    im = ar*bi + ai*br, with no fused multiply-add; each output coefficient
    is then the exactly rounded sum of its bucket (a bucket of one or two
    products needs one IEEE add at most, larger buckets go through fsum),
    which makes the product independent of operand order bit for bit.
    From _KERNEL_MIN_PAIRS pairs on this runs as an array kernel (outer
    products, a stable sort by index, np.add.reduceat); below it a per-pair
    loop is faster and gives the same bits.
    """
    if f.max_index * g.max_index > _INDEX_MAX:
        raise DomainError(f"product index {f.max_index} * {g.max_index} exceeds 2^63 - 1")
    if f.term_count * g.term_count < _KERNEL_MIN_PAIRS:
        buckets: dict[int, tuple[list, list]] = {}
        for n1, a in f.items():
            for n2, b in g.items():
                p = a * b
                re_l, im_l = buckets.setdefault(n1 * n2, ([], []))
                re_l.append(p.real)
                im_l.append(p.imag)
        keys = sorted(buckets)
        return _normal(
            keys, [complex(_fsum(re_l), _fsum(im_l)) for re_l, im_l in map(buckets.__getitem__, keys)]
        )
    fc, gc = f.coefficient_array(), g.coefficient_array()
    idx = np.multiply.outer(f.index_array(), g.index_array()).ravel()
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    bounds = np.concatenate(([True], idx[1:] != idx[:-1], [True])).nonzero()[0]
    starts = bounds[:-1]
    big = (bounds[1:] - starts >= 3).nonzero()[0]
    lo, hi = starts[big].tolist(), bounds[big + 1].tolist()
    out = np.empty(starts.size, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        re = np.multiply.outer(fc.real, gc.real) - np.multiply.outer(fc.imag, gc.imag)
        im = np.multiply.outer(fc.real, gc.imag) + np.multiply.outer(fc.imag, gc.real)
        for part, prods in ((out.real, re), (out.imag, im)):
            prods = prods.ravel()[order]
            part[:] = np.add.reduceat(prods, starts)
            if big.size:
                prods = prods.tolist()
                part[big] = [_fsum(prods[i:j]) for i, j in zip(lo, hi)]
    return _normal_arrays(idx[starts], out)


def coefficient_close(
    f: DirichletPolynomial, g: DirichletPolynomial, rtol: float = 1e-12, atol: float = 0.0
) -> bool:
    """Coefficient-wise |f_n - g_n| <= atol + rtol * max(|f_n|, |g_n|) over
    the union of stored indices (missing terms count as zero)."""
    rtol = _validate_real(rtol, "rtol", 0.0)
    atol = _validate_real(atol, "atol", 0.0)
    for n in f.indices() | g.indices():
        a, b = f.coefficient(n), g.coefficient(n)
        if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
            return False
    return True


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point sigma + i t of the complex plane, named by half-plane role."""

    sigma: float
    t: float = 0.0

    def __post_init__(self):
        _validate_real(self.sigma, "sigma")
        _validate_real(self.t, "t")

    def as_complex(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class CoefficientRule:
    """Deterministic total coefficient rule n -> a_n for n >= 1.

    `vectorized` maps an int64 index array to the coefficient array; it is
    the only way a rule is evaluated.  values() returns its native dtype
    (float64 for real rules, so streamed sums skip a complex pass) and a
    scalar call rule(n) is values() on a 1-element array.
    partial_sum may call `vectorized` from several threads at once, on
    disjoint index chunks, so it must be pure: no shared state it writes,
    the same values for the same indices.  Every built-in rule is.
    `known_abscissas` is reference metadata consumed only by tests, never
    by the estimators themselves.
    """

    tag: str
    vectorized: Callable[[np.ndarray], np.ndarray]
    known_abscissas: Mapping[str, float] | None = None

    def __call__(self, n: int) -> complex:
        return complex(self.values([_validate_index(n)])[0])

    def values(self, ns) -> np.ndarray:
        try:
            ns = np.asarray(ns, dtype=np.int64)
        except OverflowError:
            raise DomainError("rule indices must fit in int64") from None
        if ns.size and ns.min() < 1:
            raise DomainError("rule indices must be >= 1")
        return np.asarray(self.vectorized(ns))


def ones_rule() -> CoefficientRule:
    """a_n = 1 for all n (the canonical boundary-line divergence witness)."""
    return CoefficientRule(
        tag="ones",
        vectorized=lambda ns: np.ones(ns.shape, dtype=np.float64),
        known_abscissas={"sigma_c": 1.0, "sigma_a": 1.0},
    )


def eta_rule() -> CoefficientRule:
    """Alternating signs a_n = (-1)^(n+1); converges strictly left of its
    absolute-convergence line, which separates the two abscissas."""
    return CoefficientRule(
        tag="eta",
        vectorized=lambda ns: np.where((ns & 1) == 1, 1.0, -1.0),
        known_abscissas={"sigma_c": 0.0, "sigma_u": 0.0, "sigma_a": 1.0},
    )


def _inv_power(nf: np.ndarray, k: int) -> np.ndarray:
    # kept for its bits, not its speed: np.power(nf, -2.0) is ~2x faster at
    # 2^16 points (266 vs 504 us, 2-core Xeon, numpy 2.4.6) but rounds 532,782
    # of n <= 2^20 differently, which would move the pinned zeta_shift outputs
    if k == 0:
        return np.ones_like(nf)
    r = 1.0 / nf
    out = r.copy()
    for _ in range(k - 1):
        out *= r
    return out


def zeta_shift_rule(k: int) -> CoefficientRule:
    """a_n = n^(-k) for an integer k >= 0; both abscissas sit at 1 - k."""
    k = _validate_index(k, "zeta_shift exponent", 0)
    return CoefficientRule(
        tag=f"zeta_shift({k})",
        vectorized=lambda ns: _inv_power(ns.astype(np.float64), k),
        known_abscissas={"sigma_c": 1.0 - k, "sigma_a": 1.0 - k},
    )


# (cofactor, divisor) pairs one trial-division pass may test at once
_TRIAL_BLOCK = 1 << 16


def _moebius_values(ns: np.ndarray) -> np.ndarray:
    """mu(n) by trial division, vectorized over the indices.

    Each pass tests a block of consecutive divisors d against the cofactors
    still >= d^2; within a block the smallest divisor hit is always prime,
    since smaller primes were already divided out.  Memory stays
    O(len(ns) + _TRIAL_BLOCK), with no sieve up to sqrt(max n)."""
    cof = ns.reshape(-1).copy()
    sign = np.ones(cof.shape, dtype=np.int64)
    d = 2
    live = np.flatnonzero(cof >= 4)
    while live.size:
        ds = np.arange(d, d + max(1, _TRIAL_BLOCK // live.size), dtype=np.int64)
        rows = live
        while rows.size:
            hits = cof[rows, None] % ds == 0
            found = hits.any(axis=1)
            rows = rows[found]
            p = ds[hits[found].argmax(axis=1)]
            q = cof[rows] // p
            square = q % p == 0
            sign[rows] = np.where(square, 0, -sign[rows])
            cof[rows] = np.where(square, 1, q)
        d += ds.size
        live = live[cof[live] >= d * d]
    # a cofactor left above 1 has no divisor up to its square root: a prime
    sign[cof > 1] *= -1
    return sign.astype(np.float64).reshape(ns.shape)


def moebius_rule() -> CoefficientRule:
    """Square-free sign pattern: convolution inverse of the ones rule."""
    return CoefficientRule(
        tag="moebius",
        vectorized=_moebius_values,
        known_abscissas={"sigma_a": 1.0},
    )


def table_rule(mapping: Mapping[int, complex], tag: str = "table") -> CoefficientRule:
    """Finite table promoted to a rule; indices outside the table give 0."""
    frozen = {_validate_index(n): complex(a) for n, a in mapping.items()}
    keys = np.array(sorted(frozen), dtype=np.int64)
    vals = np.array([frozen[n] for n in keys.tolist()], dtype=np.complex128)

    def vec(ns: np.ndarray) -> np.ndarray:
        if not keys.size:
            return np.zeros(ns.shape, dtype=np.complex128)
        pos = np.minimum(np.searchsorted(keys, ns), keys.size - 1)
        return np.where(keys[pos] == ns, vals[pos], 0j)

    return CoefficientRule(tag=tag, vectorized=vec)


def truncate(rule: CoefficientRule, N: int) -> DirichletPolynomial:
    """First N coefficients of a rule as a polynomial (zeros dropped)."""
    N = _validate_index(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    return _normal_arrays(ns, rule.values(ns).astype(np.complex128))
