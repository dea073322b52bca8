"""Sparse Dirichlet polynomials and coefficient rules.

A Dirichlet polynomial is a finite sum  sum_n a_n n^(-s)  stored sparsely,
as a coefficient map index -> complex, as sorted index and coefficient
arrays, or both.  The normal form keeps no explicit zeros and all indices
are integers >= 1, so equality of coefficient maps is equality of the
represented series.  Instances are immutable after construction (a missing
form is only cached on first use); every operation returns a fresh object,
which makes unrestricted concurrent reads safe.

Infinite series enter only through CoefficientRule: a deterministic, total
rule n -> a_n, computed on whole index arrays.
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite
from collections.abc import Mapping
from dataclasses import dataclass
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

# from this many terms on, the bulk calls run on arrays: the constructor
# (given a mapping of int keys to complex or float values), apply (with an
# array symbol) and the orbit of normalized_power_norm and
# ergodicity_diagnostic.  Below it their per-term loops are faster.  Measured
# crossovers on fresh inputs (2-core x86-64, numpy 2.4.6; BENCH_bulk_paths.json):
# the constructor at 24-32 terms, the orbit at 64-80, apply at 56-192.
_ARRAY_MIN_TERMS = 96

# most terms a call may materialize at once (truncate, the abscissa
# windows, bv_check, one partial_sum chunk), checked before anything is
# allocated.  They peak at 32-81 bytes a term (tracemalloc), bracket_sigma_u
# at 536 (2^20 terms) to 152 (2^22 on) for its probe screen, so at ~2.5 GB
# for 2^24; N = 2^40 or 2^62 failed inside numpy (MemoryError, ValueError).
# partial_sum streams its N terms in chunks, so N itself is not capped.
_MAX_TERMS = 1 << 24


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
    duplicate indices are accumulated.  A coefficient must be a number
    (a bool or a string is not) and its sum finite, else DomainError names
    its index.  Exact zero coefficients are dropped so two polynomials are
    equal iff they represent the same function.

    One carrier holds the terms in up to two forms, both in increasing
    index order: a read-only dict (coeffs, items) and read-only sorted
    int64 index and complex128 coefficient arrays (index_array,
    coefficient_array).  Each form is built from the other on first use
    and cached.  Below _ARRAY_MIN_TERMS terms the constructor and the
    small-call paths store the dict alone; from it on, a mapping of int
    keys to complex or float values is built as arrays, as the array
    kernels (truncate, the convolution kernel, apply with an array symbol)
    are, and stored as the arrays alone.  max_index, term_count,
    is_zero, has_real_coefficients and the evaluation kernels read them
    without building a dict.  Two threads may race to build the same form;
    both build the same value, so concurrent reads stay safe.
    """

    __slots__ = ("_map", "_idx", "_val")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, Mapping):
            if len(coeffs) >= _ARRAY_MIN_TERMS and _from_mapping(coeffs, self):
                return
            items = coeffs.items()
        else:
            items = coeffs
        acc: dict[int, complex] = {}
        for n, a in items:
            n = _validate_index(n)
            acc[n] = acc.get(n, 0j) + (a if type(a) is complex else _coefficient(n, a))
        keys = sorted(acc)
        _normal(keys, map(acc.__getitem__, keys), self)

    @property
    def coeffs(self) -> Mapping[int, complex]:
        if self._map is None:
            self._map = MappingProxyType(dict(zip(self._idx.tolist(), self._val.tolist())))
        return self._map

    def coefficient(self, n: int) -> complex:
        n = _validate_index(n)
        if self._map is not None:
            return self._map.get(n, 0j)
        i = int(np.searchsorted(self._idx, n))
        return complex(self._val[i]) if i < self._idx.size and self._idx[i] == n else 0j

    def items(self):
        return (self._map if self._map is not None else self.coeffs).items()

    def indices(self):
        return (self._map if self._map is not None else self.coeffs).keys()

    @property
    def max_index(self) -> int:
        # 0 for the zero polynomial; indices are stored in increasing order
        if self._map is not None:
            return next(reversed(self._map), 0)
        return int(self._idx[-1]) if self._idx.size else 0

    @property
    def is_zero(self) -> bool:
        return not (self._map if self._map is not None else self._idx.size)

    @property
    def term_count(self) -> int:
        return len(self._map) if self._map is not None else self._idx.size

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._idx is None:
            m = self._map
            idx = np.fromiter(m.keys(), dtype=np.int64, count=len(m))
            val = np.fromiter(m.values(), dtype=np.complex128, count=len(m))
            idx.flags.writeable = val.flags.writeable = False
            # _val first: a reader that finds _idx set reads both
            self._val = val
            self._idx = idx
        return self._idx, self._val

    def index_array(self) -> np.ndarray:
        """The sorted indices, read-only."""
        return self._arrays()[0]

    def coefficient_array(self) -> np.ndarray:
        """The coefficients in index order, read-only."""
        return self._arrays()[1]

    def has_real_coefficients(self) -> bool:
        if self._map is None:
            return not self._val.imag.any()
        return all(a.imag == 0 for a in self._map.values())

    def __eq__(self, other):
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        if self._idx is not None and other._idx is not None:
            return bool(np.array_equal(self._idx, other._idx) and np.array_equal(self._val, other._val))
        return self.coeffs == other.coeffs

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


def _coefficient(n: int, a) -> complex:
    """a as the coefficient at index n under _validate_complex's type rule
    (a bool, a string or None is not a number); finiteness is left to the
    normal form.  A complex or a float skips the gate and its f-string."""
    if type(a) is complex or type(a) is float:
        return complex(a)
    return _validate_complex(a, f"coefficient at n={n}")


def _from_mapping(coeffs: Mapping, f: DirichletPolynomial) -> bool:
    """Fill f from a mapping whose keys are all int in [1, 2^63 - 1] and
    whose values are all complex or float, on arrays: the loop's terms, bit
    for bit.  False, with f untouched, for any other mapping; the loop then
    raises whatever error the input deserves."""
    if {*map(type, coeffs)} != {int} or not {*map(type, coeffs.values())} <= {complex, float}:
        return False
    try:
        idx = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
    except OverflowError:
        return False
    if idx.min() < 1:
        return False
    vals = np.fromiter(coeffs.values(), dtype=np.complex128, count=len(coeffs))
    order = np.argsort(idx)
    _normal(idx[order], vals[order], f)
    return True


def _check_finite(keys: np.ndarray, values: np.ndarray) -> None:
    """DomainError naming the first index, in array order, whose value is
    not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"coefficient at n={keys[i]} must be finite, got {complex(values[i])!r}")


def _normal(keys, values, f: DirichletPolynomial | None = None) -> DirichletPolynomial:
    """The trusted constructor: normal form of coefficients whose keys are
    valid, distinct and increasing, so no index check, accumulation or sort
    is repeated.  Each value is rounded as 0j + a (so a -0.0 component
    becomes +0.0), exact zeros are dropped and a non-finite value raises
    DomainError naming its index.

    Two entry shapes: an int64 index array with its complex128 values,
    stored as read-only arrays (the arrays are taken over, not copied), or
    any other iterables, stored as a dict.  f is the instance to fill; a
    new one by default."""
    if f is None:
        f = object.__new__(DirichletPolynomial)
    if isinstance(keys, np.ndarray):
        values = values + 0j
        _check_finite(keys, values)
        keep = values != 0
        if not keep.all():
            keys, values = keys[keep], values[keep]
        keys.flags.writeable = values.flags.writeable = False
        f._map, f._val, f._idx = None, values, keys
        return f
    data = {}
    for n, a in zip(keys, values):
        a = 0j + a
        if a:
            if not isfinite(a):
                raise DomainError(f"coefficient at n={n} must be finite, got {a!r}")
            data[n] = a
    f._map, f._val, f._idx = MappingProxyType(data), None, None
    return f


def _terms(f: DirichletPolynomial):
    """f's (index, coefficient) pairs in index order, from whichever form
    it holds, without building the other."""
    return f._map.items() if f._map is not None else zip(f._idx.tolist(), f._val.tolist())


ZERO = DirichletPolynomial()


def monomial(n: int, coefficient=1.0) -> DirichletPolynomial:
    """The single term  coefficient * n^(-s)."""
    n = _validate_index(n)
    return _normal((n,), (_coefficient(n, coefficient),))


def add(f: DirichletPolynomial, g: DirichletPolynomial) -> DirichletPolynomial:
    out = dict(f.coeffs)
    for n, b in g.items():
        out[n] = out.get(n, 0j) + b
    keys = sorted(out)
    return _normal(keys, map(out.__getitem__, keys))


def scale(c, f: DirichletPolynomial) -> DirichletPolynomial:
    c = complex(c) if type(c) is complex or type(c) is float else _validate_complex(c, "scale factor")
    return _normal(f.indices(), [c * a for a in f.coeffs.values()])


def _fsum(xs) -> float:
    # fsum raises on an intermediate overflow or inf - inf; nan lets the
    # normal form name the offending index instead
    try:
        return fsum(xs)
    except (OverflowError, ValueError):
        return math.nan


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x (two distinct x at least) from centered
    numpy sums, not a BLAS or LAPACK solve; y = x gives exactly 1."""
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


# log n and n^(-epsilon) on arrays.  Unlike float64 np.log and np.exp, whose
# bits follow numpy's SIMD level, the real parts of the complex log and exp
# are the C library's (clog, cexp): math.log's bits on every index (clog
# differs on [0.5, 2), where log 1 = 0 anyway, subnormals and the top binade)
# and math.exp's off (709, 709.78], reached only by boundary_values at eps < 0.
def _log(x: np.ndarray) -> np.ndarray:
    z = np.array(x, dtype=np.complex128)
    return np.log(z, out=z).real.copy()


def _exp(x: np.ndarray) -> np.ndarray:
    z = np.array(x, dtype=np.complex128)
    return np.exp(z, out=z).real.copy()


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
        g_terms = list(_terms(g))
        for n1, a in _terms(f):
            for n2, b in g_terms:
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
    return _normal(idx[starts], out)


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
    scalar call rule(n) is values() on a 1-element array.  An output that
    is not a numeric (integer, float or complex) array of the indices' shape
    raises DomainError naming the rule's tag.
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
        out = np.asarray(self.vectorized(ns))
        if out.shape != ns.shape or out.dtype.kind not in "iufc":
            raise DomainError(
                f"rule {self.tag!r} must return numbers in the indices' shape {ns.shape}, "
                f"got {out.dtype} of shape {out.shape}"
            )
        return out


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
    """Finite table promoted to a rule; indices outside the table give 0.
    A value that is not finite raises DomainError naming its index, as the
    constructor does; explicit zeros are kept."""
    frozen = {}
    for n, a in mapping.items():
        n = _validate_index(n)
        frozen[n] = _coefficient(n, a)
    keys = np.array(sorted(frozen), dtype=np.int64)
    vals = np.array([frozen[n] for n in keys.tolist()], dtype=np.complex128)
    _check_finite(keys, vals)

    def vec(ns: np.ndarray) -> np.ndarray:
        if not keys.size:
            return np.zeros(ns.shape, dtype=np.complex128)
        pos = np.minimum(np.searchsorted(keys, ns), keys.size - 1)
        return np.where(keys[pos] == ns, vals[pos], 0j)

    return CoefficientRule(tag=tag, vectorized=vec)


def truncate(rule: CoefficientRule, N: int) -> DirichletPolynomial:
    """First N coefficients of a rule as a polynomial (zeros dropped)."""
    N = _validate_index(N, "truncation length N", most=_MAX_TERMS)
    ns = np.arange(1, N + 1, dtype=np.int64)
    return _normal(ns, rule.values(ns).astype(np.complex128))
