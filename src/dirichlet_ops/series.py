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
import operator
from collections.abc import Mapping
from functools import reduce
from math import fsum
from operator import itemgetter
from types import MappingProxyType
from typing import Callable

from .errors import DomainError

__all__ = [
    "DirichletPolynomial",
    "HalfPlanePoint",
    "CoefficientRule",
    "replace",
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


class _Numpy:
    """numpy, imported at the first attribute read.  Every module of the
    package takes `np` from here, and that first read rebinds `np` to numpy
    itself in each of them, so no later array call reads through this
    object.  A call that builds no array (differentiating a few terms,
    classifying a point) never imports numpy, and a cold `dseries` run of it
    skips numpy's import."""

    def __getattr__(self, name: str):
        import numpy

        prefix = __package__ + "."
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith(prefix) and getattr(module, "np", None) is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()


def _is_numpy(x, kind: str) -> bool:
    """Whether x is an instance of numpy's type named kind.  Only a numpy
    already imported is asked: no numpy scalar or array exists before numpy
    does, so the answer is False without importing it."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(x, getattr(numpy, kind))


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
# windows, bracket_sigma_u, bv_check), checked before anything is
# allocated.  They peak at 32-81 bytes a term (tracemalloc; bracket_sigma_u
# at 80.5 and 80.1 at 2^18 and 2^20 terms with two eta probes, 76.0 at both
# with four complex ones, its probe screen working in blocks and its probes
# stacked only below 2^17 terms), so at ~1.4 GB for 2^24; N = 2^40 or 2^62
# failed inside numpy (MemoryError,
# ValueError).  partial_sum streams its N terms in chunks of
# evaluation._CHUNK = 2^16 (48 bytes a term direct, 32 by Taylor blocks, 56
# and 48 for a complex rule), so N is not capped.
_MAX_TERMS = 1 << 24


def _validate_index(n, what: str = "series index", least: int = 1, most: int = _INDEX_MAX) -> int:
    """n as an int in [least, most]; DomainError naming `what` otherwise."""
    if type(n) is int and least <= n <= most:
        return n
    if isinstance(n, bool) or not (isinstance(n, int) or _is_numpy(n, "integer")):
        raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")
    if n < least:
        raise DomainError(f"{what} must be >= {least}, got {n}")
    if n > most:
        bound = "2^63 - 1" if most == _INDEX_MAX else most
        raise DomainError(f"{what} must be <= {bound}, got {n}")
    return int(n)


_FLOAT_MAX = sys.float_info.max


def _validate_real(x, what: str, least: float | None = None, strict: bool = False) -> float:
    """x as a finite float, > least (strict) or >= least when least is given;
    DomainError naming `what` otherwise.  A bool or a string is not a real."""
    if type(x) is float and math.isfinite(x) and (least is None or x > least or (x == least and not strict)):
        return x
    # concrete types, as in _validate_index: isinstance against numbers.Real is ~5x slower
    real = not isinstance(x, bool) and (
        isinstance(x, (float, int)) or _is_numpy(x, "floating") or _is_numpy(x, "integer")
    )
    v = float(x) if real and (not isinstance(x, int) or abs(x) <= _FLOAT_MAX) else math.nan
    if math.isfinite(v) and (least is None or v > least or (v == least and not strict)):
        return v
    bound = "" if least is None else f" {'>' if strict else '>='} {least:g}"
    kind = "finite" if real and not bound else "a finite real" + bound
    raise DomainError(f"{what} must be {kind}, got {x!r}")


def _validate_complex(z, what: str) -> complex:
    """z as a finite complex; DomainError naming `what` otherwise."""
    if type(z) is complex and isfinite(z):
        return z
    if (isinstance(z, (complex, float, int)) or _is_numpy(z, "number")) and not isinstance(z, bool):
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
    without building a dict.  A third array, log n of each index
    (log_index_array, series._log's bits), is read from the process's log
    table of log 1..L (_log_indices; a set reaching past L takes _log) on its
    first read and cached beside them; apply's result, which keeps the
    index array, inherits it, so every multiplier, evaluation and orbit call
    on one polynomial reads its logs once, and a new polynomial with indices
    inside the table logs nothing.  None of the three arrays takes part
    in == or hash.  Two threads may race to build the same form; both
    build the same value, so concurrent reads stay safe.
    """

    __slots__ = ("_map", "_idx", "_val", "_logn")

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

    def log_index_array(self) -> np.ndarray:
        """log n of each index in index order (series._log's bits, read from
        the process's log table, _log_indices), read-only."""
        if self._logn is None:
            logn = _log_indices(self.index_array())
            logn.flags.writeable = False
            self._logn = logn
        return self._logn

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

    def __hash__(self):
        # over the normal form, as == compares it: either form gives the
        # same (index, coefficient) pairs in index order, and hash(-0.0) ==
        # hash(0.0); a dict-form polynomial builds no array
        return hash(tuple(_terms(self)))

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


def _normal(keys, values, f: DirichletPolynomial | None = None, logn=None) -> DirichletPolynomial:
    """The trusted constructor: normal form of coefficients whose keys are
    valid, distinct and increasing, so no index check, accumulation or sort
    is repeated.  Each value is rounded as 0j + a (so a -0.0 component
    becomes +0.0), exact zeros are dropped and a non-finite value raises
    DomainError naming its index.

    Two entry shapes: an int64 index array with its complex128 values,
    stored as read-only arrays (the arrays are taken over, not copied), or
    any other iterables, stored as a dict.  logn, with an index array, is
    its cached log_index_array (read-only), kept for the terms that stay.
    f is the instance to fill; a new one by default."""
    if f is None:
        f = object.__new__(DirichletPolynomial)
    if _is_numpy(keys, "ndarray"):
        values = values + 0j
        _check_finite(keys, values)
        keep = values != 0
        if not keep.all():
            keys, values = keys[keep], values[keep]
            if logn is not None:
                logn = logn[keep]
                logn.flags.writeable = False
        keys.flags.writeable = values.flags.writeable = False
        f._map, f._val, f._idx, f._logn = None, values, keys, logn
        return f
    data = {}
    for n, a in zip(keys, values):
        a = 0j + a
        if a:
            if not isfinite(a):
                raise DomainError(f"coefficient at n={n} must be finite, got {a!r}")
            data[n] = a
    f._map, f._val, f._idx, f._logn = MappingProxyType(data), None, None, None
    return f


def _termwise(f: DirichletPolynomial, values: np.ndarray) -> DirichletPolynomial:
    """_normal of f's index array and values, one a term: the result keeps
    f's log_index_array, where f has built it, for the terms that stay."""
    return _normal(f.index_array(), values, logn=f._logn)


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


def _nonnegative_fsum(x: np.ndarray) -> float:
    """_fsum(x.tolist()) of a 1-d float64 array of nonnegative terms, bit for
    bit, on arrays: AccSum's two extractions (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008) with a rounding test.

    With n terms, u = 2^-53 and sigma a power of two >= (n + 2) max|x|,
    q_i = fl(fl(sigma + x_i) - sigma) is exact (Sterbenz) and a multiple of
    ulp(sigma) = 2 u sigma, and r_i = x_i - q_i, the rounding error of
    sigma + x_i, is exact with |r_i| <= u sigma.  Every partial sum of the
    q_i is a multiple of 2 u sigma below 2 sigma, so tau_1 = sum q_i is
    exact in any order, numpy's pairwise one included.  The same extraction
    of the r_i against sigma_2 >= (n + 2) max|r_i| gives an exact tau_2 and
    remainders r2_i with |r2_i| <= u sigma_2, so the exact sum is S =
    tau_1 + tau_2 + sum r2_i.  fl(tau_1 + tau_2) is accepted
      - when every r2_i is 0: S = tau_1 + tau_2, and fl rounds it
        correctly, which is fsum's result;
      - else when |d| + 2 n u sigma_2 < h, where d = tau_1 + tau_2 -
        fl(tau_1 + tau_2) is taken exactly by TwoSum and h is half the
        smaller gap beside fl(tau_1 + tau_2): |S - fl(tau_1 + tau_2)| <=
        |d| + n u sigma_2 < h puts S strictly inside its rounding interval.
        2 n u sigma_2 is exact (sigma_2 >= 2^-1022 whenever an r2_i is
        nonzero, as below that the extraction is exact) and above
        n u sigma_2, so a rounded left side below h proves the exact one
        is; a subnormal h, which rounds to 0, accepts nothing.
    Every other sum, and any with sigma >= _SUM2_MAX or a term that is not
    finite, goes to _fsum, which also settles overflow and nan."""
    n = x.size
    top = float(x.max()) if n else 0.0
    if top == 0.0:
        return 0.0
    if not (n + 2) * top < _SUM2_MAX / 2:
        return _fsum(x.tolist())
    sigma = math.ldexp(1.0, math.frexp((n + 2) * top)[1])
    q = (sigma + x) - sigma
    r = x - q
    tau1 = float(q.sum())
    top = float(np.abs(r).max())
    if top == 0.0:
        return tau1
    sigma = math.ldexp(1.0, math.frexp((n + 2) * top)[1])
    q = (sigma + r) - sigma
    tau2 = float(q.sum())
    total = tau1 + tau2
    if not (r != q).any():
        return total
    z = total - tau1
    d = (tau1 - (total - z)) + (tau2 - z)
    if abs(d) + n * (2.0**-52 * sigma) < (total - math.nextafter(total, 0.0)) * 0.5:
        return total
    return _fsum(x.tolist())


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x (two distinct x at least) from centered
    numpy sums, not a BLAS or LAPACK solve; y = x gives exactly 1."""
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


def _pairwise_sum(xs: list):
    """np.sum of a nonempty list of floats or of complex numbers, bit for
    bit, by numpy's pairwise order for a contiguous float64 or complex128
    array: w = 8 accumulators for floats, 4 for complex numbers (two doubles
    each).  Below w terms the sum runs in order; up to 16 w terms
    accumulator j adds terms j, j + w, ... of the whole w-blocks in order,
    the accumulators are added as a pairwise tree, and the leftover terms
    follow in order; above that the sum splits at n // 2 rounded down to a
    multiple of w.  numpy adds the result to its identity 0.0, which turns
    a -0.0 sum into 0.0.  reduce(operator.add) is a plain left fold, where
    sum() may compensate."""
    w = 4 if isinstance(xs[0], complex) else 8

    def part(lo: int, n: int):
        if n > 16 * w:
            half = n // 2 - n // 2 % w
            return part(lo, half) + part(lo + half, n - half)
        if n < w:
            return reduce(operator.add, xs[lo : lo + n])
        end = lo + n - n % w
        acc = [reduce(operator.add, xs[lo + j : end : w]) for j in range(w)]
        while len(acc) > 1:
            acc = [acc[j] + acc[j + 1] for j in range(0, len(acc), 2)]
        return reduce(operator.add, xs[end : lo + n], acc[0])

    return (0j if w == 4 else 0.0) + part(0, len(xs))


def _list_slope(x: list, y: list) -> float:
    """_slope of two lists of floats, bit for bit and without numpy: the
    means and sums in numpy's order (_pairwise_sum), each elementwise step
    one IEEE operation, as numpy's is."""
    n = len(x)
    mx, my = _pairwise_sum(x) / n, _pairwise_sum(y) / n
    dx = [v - mx for v in x]
    return _pairwise_sum([d * (v - my) for d, v in zip(dx, y)]) / _pairwise_sum([d * d for d in dx])


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


# log n for n = 1..L (_log's bits, read-only), one table per process, built
# at the first _log_indices call.  L is a power of two up to _LOG_TABLE_MAX
# (2 MiB).  A call for k indices up to m grows it to the least power of two
# >= min(m, _LOG_TABLE_MAX) only when that is at most _LOG_TABLE_SPREAD k
# entries, so a growth costs at most 16 times what _log of the call's own
# indices would; the worst build, all 2^18 entries at once, takes 9-10 ms
# (2-core x86-64, numpy 2.4.6; BENCH_array_sums.json).  A growth replaces
# the table and never writes into it, so a reader holding the old one stays
# safe; two threads growing at once build the same values.
_LOG_TABLE_MAX = 1 << 18
_LOG_TABLE_SPREAD = 16
_log_table = None


def _log_indices(idx: np.ndarray) -> np.ndarray:
    """_log(idx) for increasing int64 indices >= 1, bit for bit, read from
    the log table: a read-only view of it for a run lo..hi inside it, a new
    array for other indices inside it, and _log itself for a set that runs
    past it."""
    global _log_table
    k = idx.size
    if not k:
        return np.empty(0)
    table = _log_table
    size = 0 if table is None else table.size
    top = int(idx[-1])
    if size < top and size < _LOG_TABLE_MAX:
        grown = 1 << (min(top, _LOG_TABLE_MAX) - 1).bit_length()
        if grown <= _LOG_TABLE_SPREAD * k:
            new = np.empty(grown)
            if size:
                new[:size] = table
            new[size:] = _log(np.arange(size + 1, grown + 1, dtype=np.int64))
            new.flags.writeable = False
            _log_table = table = new
            size = grown
    if top > size:
        return _log(idx)
    lo = int(idx[0])
    return table[lo - 1 : top] if top - lo == k - 1 else table.take(idx - 1)


def _power(x: np.ndarray, s: complex) -> np.ndarray:
    """x^(-s) = exp(-s log x) for x >= 1, on one complex buffer: the bits of
    _exp(_log(x) * -s), a real array, for real s, and of
    np.exp(_log(x) * -s) otherwise, since the log's imaginary part is 0."""
    z = np.array(x, dtype=np.complex128)
    np.log(z, out=z)
    z *= -s
    np.exp(z, out=z)
    return z.real if s.imag == 0 else z


def _expm1(z: complex) -> complex:
    """exp(z) - 1 by libm scalars, its real part expm1(x) cos y -
    2 sin(y / 2)^2, so it keeps its digits near z = 0 in every direction, and
    a real z gives an imaginary part of 0.  OverflowError past exp's range."""
    x, y = z.real, z.imag
    h = math.sin(y / 2.0)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * h * h, math.exp(x) * math.sin(y))


def _product(ar, ai, br, bi) -> tuple:
    """(a * b).real, (a * b).imag as CPython's _Py_c_prod forms them, with
    no fused multiply-add, so on arrays no bit follows numpy's SIMD level."""
    return ar * br - ai * bi, ar * bi + ai * br


# below this many index pairs the per-pair loop beats the array kernel: the
# measured crossover is 110-144 pairs on fresh polynomials with random
# indices up to 512, where 49 pairs take 22 us by the loop and 42 by the
# kernel, 121 pairs 47 and 48, and 144 pairs 56 and 47 (2-core x86-64,
# numpy 2.4.6; BENCH_array_sums.json).  Gathering the small buckets instead
# of reduceat costs the kernel a few us on such products (110-121 pairs
# before), too little to move the constant.  On indices 1..a times 1..b,
# whose many buckets of 3+ products pay the fixed cost of _bucket_sums'
# pass, the loop stays faster up to 400-576 pairs
_KERNEL_MIN_PAIRS = 112


# a bucket whose sum of |products| reaches this goes to fsum: below it no
# partial of fsum's nor of _bucket_sums' pass can overflow
_SUM2_MAX = 2.0**1020


def _fsums(prods: np.ndarray, lo: np.ndarray, n: np.ndarray, rank: np.ndarray) -> list[float]:
    """_fsum of each bucket prods[lo[k]:lo[k] + n[k]], its products taken in
    increasing rank: which of fsum's partials overflow, and so whether it
    returns inf or nan, follows that order.  The products become one list."""
    end = np.cumsum(n)
    take = np.arange(end[-1]) + np.repeat(lo - end + n, n)
    vals = prods[take[np.lexsort((rank[take], np.repeat(end, n)))]].tolist()
    return [_fsum(vals[j - m : j]) for j, m in zip(end.tolist(), n.tolist())]


def _bucket_sums(prods: np.ndarray, lo: np.ndarray, hi: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """_fsums of the buckets prods[lo[k]:hi[k]] of each column of prods (the
    parts of a product share their buckets), bit for bit, from one
    vectorized compensated pass over all of them: Sum2 of Ogita, Rump and
    Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005)
    with an exactness flag.

    The buckets are laid out longest first, so those still live at position
    j are a prefix.  Each step takes s, e <- TwoSum(s, p_j) and
    c, e2 <- TwoSum(c, e), so s + c + sum(e2) is the bucket's exact sum,
    and flags the bucket when an e2 is nonzero.  fl(s + c) is accepted

    - when no e2 is: s + c is then the exact sum and fl(s + c) its correct
      rounding, which is fsum's result;
    - else when |d| + 2 gamma_n^2 sum|p| is below h, where d = s + c -
      fl(s + c) is taken exactly by TwoSum, gamma_n = n u / (1 - n u) for n
      products and u = 2^-53, and h is half the smaller gap beside
      fl(s + c).  Sum2's bound |sum(e2)| <= gamma_n^2 sum|p| then puts the
      exact sum strictly inside fl(s + c)'s rounding interval; the factor 2
      covers the rounding of the bound itself, and a subnormal h, which
      rounds to 0, accepts nothing.

    Every other bucket, and every one whose sum|p| reaches _SUM2_MAX or is
    not finite, goes to _fsums, rank[i] being product i's position in pair
    order."""
    n = hi - lo
    by_len = np.argsort(-n, kind="stable")
    lo, n = lo[by_len], n[by_len]
    # live[j - 1]: how many buckets hold more than j products
    live = np.searchsorted(-n, -np.arange(1, n[0]), side="left")
    s = prods.take(lo, axis=0)
    c = np.zeros_like(s)
    absum = np.abs(s)
    inexact = np.zeros(s.shape, dtype=bool)
    at = lo.copy()
    # product j of each live bucket, and the steps' scratch: no step
    # allocates, and a live prefix of rows is contiguous
    bufs = np.empty((5, *s.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in live.tolist():
            sk, ck, ak, fk, atk = s[:k], c[:k], absum[:k], inexact[:k], at[:k]
            p, t, z, e, w = bufs[:, :k]
            atk += 1
            prods.take(atk, axis=0, out=p)
            np.abs(p, out=w)
            np.add(ak, w, out=ak)
            # s, e <- TwoSum(s, p)
            np.add(sk, p, out=t)
            np.subtract(t, sk, out=z)
            np.subtract(t, z, out=w)
            np.subtract(sk, w, out=e)
            np.subtract(p, z, out=w)
            np.add(e, w, out=e)
            np.copyto(sk, t)
            # c, e2 <- TwoSum(c, e), flagging e2 != 0
            np.add(ck, e, out=t)
            np.subtract(t, ck, out=z)
            np.subtract(t, z, out=w)
            np.subtract(ck, w, out=w)
            np.subtract(e, z, out=z)
            np.add(w, z, out=w)
            np.logical_or(fk, w, out=fk)
            np.copyto(ck, t)
        r = s + c
        z = r - s
        d = (s - (r - z)) + (c - z)
        a = np.abs(r)
        gamma = (n * 2.0**-53 / (1 - n * 2.0**-53))[:, None]
        ok = ~inexact | (np.abs(d) + 2 * gamma * gamma * absum < (a - np.nextafter(a, 0)) * 0.5)
        bad = ~(ok & (absum < _SUM2_MAX))
    for part, part_bad in enumerate(bad.T):
        k = np.flatnonzero(part_bad)
        if k.size:
            r[k, part] = _fsums(prods[:, part], lo[k], n[k], rank)
    out = np.empty_like(r)
    out[by_len] = r
    return out


def _gathered_sums(prods: np.ndarray, starts: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each bucket's first row of prods, plus its second where the bucket
    holds exactly two: the bits of np.add.reduceat(prods, starts, axis=0)
    on the buckets of one or two rows, whose sum is one IEEE add a part.
    The order of the add shows only in which NaN two NaN parts give:
    numpy's array add returns its first operand's and reduceat the second
    row's, so this adds the second row to the first.  A bucket of three or
    more rows gets its first row."""
    sums = prods.take(starts, axis=0)
    two = (length == 2).nonzero()[0]
    if two.size:
        at = starts[two]
        sums[two] = prods.take(at + 1, axis=0) + prods.take(at, axis=0)
    return sums


def dirichlet_multiply(f: DirichletPolynomial, g: DirichletPolynomial) -> DirichletPolynomial:
    """Coefficient convolution: (f*g)_n = sum over divisor splits n1*n2 = n.

    Works on the stored index pairs, so cost is O(terms(f) * terms(g))
    regardless of index magnitudes.  Each pair product is formed as
    CPython forms a complex product, re = ar*br - ai*bi and
    im = ar*bi + ai*br, with no fused multiply-add; each part of an output
    coefficient is then fsum of its bucket's products in pair order (f's
    index, then g's), which is their exactly rounded sum whenever no partial
    overflows.  A bucket of one or two products needs one IEEE add at most,
    so the product is independent of operand order bit for bit.

    From _KERNEL_MIN_PAIRS pairs on this runs as an array kernel: outer
    products; a sort by index (np.sort of index and pair position packed in
    one int64 where the key fits, np.argsort's quicksort otherwise; the
    order within a bucket never shows); a bucket of one product is that
    product gathered, one of two its second product plus its first (one
    IEEE add a part); and, for the larger ones of both parts at once,
    _bucket_sums: one vectorized TwoSum pass whose fl(s + c) is accepted
    when an exactness flag or Sum2's gamma_n^2 bound proves it exactly
    rounded, with fsum, in pair order, for each bucket it cannot settle.
    Below _KERNEL_MIN_PAIRS a per-pair loop is faster and gives the same
    bits, an overflowing bucket of two products included: a bucket keeps
    its one product, adds two as one complex add (one IEEE add a part, as
    the kernel's) and takes fsum of each part of three or more; a one-term
    operand fills no bucket at all.
    """
    if f.max_index * g.max_index > _INDEX_MAX:
        raise DomainError(f"product index {f.max_index} * {g.max_index} exceeds 2^63 - 1")
    pairs = f.term_count * g.term_count
    if pairs < _KERNEL_MIN_PAIRS:
        if g.term_count == 1:
            f, g = g, f  # CPython's a * b and b * a agree to the bit
        g_terms = list(_terms(g))
        if f.term_count == 1:
            # one product a bucket, and the keys n1 * n2 already increase
            [(n1, a)] = _terms(f)
            return _normal([n1 * n2 for n2, _ in g_terms], [a * b for _, b in g_terms])
        # a bucket holds its one product, or the list of them in pair order
        buckets: dict = {}
        for n1, a in _terms(f):
            for n2, b in g_terms:
                p = a * b
                q = buckets.get(n1 * n2)
                if q is None:
                    buckets[n1 * n2] = p
                elif type(q) is list:
                    q.append(p)
                else:
                    buckets[n1 * n2] = [q, p]
        keys = sorted(buckets)
        return _normal(keys, [
            q if type(q) is complex
            else q[0] + q[1] if len(q) == 2
            else complex(_fsum([p.real for p in q]), _fsum([p.imag for p in q]))
            for q in map(buckets.__getitem__, keys)
        ])
    try:  # no cap: every product that fits in memory runs
        fc, gc = f.coefficient_array(), g.coefficient_array()
        idx = np.multiply.outer(f.index_array(), g.index_array()).ravel()
        shift = pairs.bit_length()
        if f.max_index * g.max_index < 1 << (63 - shift):
            # index and pair position packed in one int64 key: np.sort of it
            # breaks even with argsort and a gather near 400 pairs, and takes 1.3
            # ms against 2.3 at 90,000; at 121 pairs it costs ~2.5 us more
            # (2-core x86-64, numpy 2.4.6)
            key = np.sort((idx << shift) | np.arange(pairs))
            idx, order = key >> shift, key & ((1 << shift) - 1)
        else:
            order = np.argsort(idx, kind="quicksort")
            idx = idx.take(order)
        bounds = np.concatenate(([True], idx[1:] != idx[:-1], [True])).nonzero()[0]
        starts = bounds[:-1]
        length = bounds[1:] - starts
        big = (length >= 3).nonzero()[0]
        # each pair's product as its (real, imaginary) row, gathered once in
        # bucket order
        prods = np.empty((fc.size, gc.size, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.outer(fc.real, gc.real, out=prods[..., 0])
            prods[..., 0] -= np.multiply.outer(fc.imag, gc.imag)
            np.multiply.outer(fc.real, gc.imag, out=prods[..., 1])
            prods[..., 1] += np.multiply.outer(fc.imag, gc.real)
            prods = prods.reshape(pairs, 2).take(order, axis=0)
            sums = _gathered_sums(prods, starts, length)
        if big.size:
            sums[big] = _bucket_sums(prods, starts[big], bounds[big + 1], order)
    except MemoryError:
        raise DomainError(f"{f.term_count} x {g.term_count} terms: {pairs} pairs do not fit in memory") from None
    return _normal(idx[starts], sums.view(np.complex128).reshape(-1))


def coefficient_close(
    f: DirichletPolynomial, g: DirichletPolynomial, rtol: float = 1e-12, atol: float = 0.0
) -> bool:
    """Coefficient-wise |f_n - g_n| <= atol + rtol * max(|f_n|, |g_n|) over
    the union of stored indices (missing terms count as zero).  Where a
    modulus passes double range, a quarter of each side is compared: the
    scaling is exact, and a quarter of any finite coefficient's modulus, or
    of a difference of two, is a double."""
    rtol = _validate_real(rtol, "rtol", 0.0)
    atol = _validate_real(atol, "atol", 0.0)
    fc, gc = f.coeffs, g.coeffs
    if fc.keys() == gc.keys():
        pairs = zip(fc.values(), gc.values())  # both in increasing index order
    else:
        pairs = ((fc.get(n, 0j), gc.get(n, 0j)) for n in fc.keys() | gc.keys())
    for a, b in pairs:
        try:
            if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
                return False
        except OverflowError:
            a, b = a * 0.25, b * 0.25
            if abs(a - b) > atol * 0.25 + rtol * max(abs(a), abs(b)):
                return False
    return True


class _Record:
    """Base of the package's frozen value types and result records.

    A subclass names its fields by its public class annotations, in order,
    a field's class value being its default.  It gets one __init__,
    compiled at its first construction: def __init__(self, <the fields,
    with their defaults>) storing each, so Python binds each call and words
    each TypeError as for a dataclass's generated __init__.  == (between
    instances of one class), hash and repr take the fields in order, and
    assigning or deleting any attribute raises AttributeError: a record holds
    its fields alone, and a speed hint rides on the function it describes
    (_described, operators._with_array_symbol).  A subclass may leave fields
    out of == and hash (`_uncompared`) or write its own __init__ (a
    keyword-only field, or validation), storing the fields through
    vars(self).  A record class cannot be subclassed (TypeError).
    """

    _uncompared = ()

    def __init_subclass__(cls):
        if any(base is not _Record and issubclass(base, _Record) for base in cls.__bases__):
            raise TypeError(f"{cls.__qualname__} cannot subclass a record class")
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = itemgetter(*(name for name in cls._fields if name not in cls._uncompared))

    def __init__(self, *args, **kwargs):
        # first construction of type(self): compile its __init__, install
        # it and run it; later ones call it directly.  Compiling at class
        # creation instead would put every record's compile on import
        cls = type(self)
        fields = cls._fields
        params = "".join(f", {name}=_defaults[{name!r}]" if name in cls.__dict__ else f", {name}" for name in fields)
        # one store a field, into __dict, which no field can be named (a
        # class body mangles it): 0.87 us for 8 fields, 6 given by keyword,
        # where one dict.update took 1.03 (2-core x86-64, Python 3.11)
        stores = "".join(f"\n    __dict[{name!r}] = {name}" for name in fields)
        namespace = {"_defaults": cls.__dict__}
        exec(f"def __init__(self{params}):\n    __dict = self.__dict__{stores}\n", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        init(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(vars(self)) == self._key(vars(other))
        return NotImplemented

    def __hash__(self):
        return hash(self._key(vars(self)))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: _Record, /, **changes) -> _Record:
    """A new record of record's type, its fields changed as given: the
    frozen records' way to a changed copy, which behaves as any record of
    the same fields does; a name that is not a field raises TypeError."""
    fields = {name: getattr(record, name) for name in record._fields}
    fields.update(changes)
    return type(record)(**fields)


class HalfPlanePoint(_Record):
    """A point sigma + i t of the complex plane, named by half-plane role."""

    sigma: float
    t: float = 0.0

    def __init__(self, sigma: float, t: float = 0.0):
        _validate_real(sigma, "sigma")
        _validate_real(t, "t")
        vars(self).update(sigma=sigma, t=t)

    def as_complex(self) -> complex:
        return complex(self.sigma, self.t)


class CoefficientRule(_Record):
    """Deterministic total coefficient rule n -> a_n for n >= 1.

    `vectorized` maps an int64 index array to the coefficient array; it is
    the only way a rule is evaluated.  values() returns its float or
    complex dtype (float64 for real rules, so streamed sums skip a complex
    pass; an integer output comes back as float64, so no sum of it wraps)
    and a scalar call rule(n) is values() on a 1-element array.  An output
    that is not a numeric (integer, float or complex) array of the indices'
    shape raises DomainError naming the rule's tag.
    `vectorized` must be pure: no shared state it writes, the same values
    for the same indices.  Every built-in rule is.
    `known_abscissas` is reference metadata consumed only by tests, never
    by the estimators themselves.

    The `vectorized` functions of ones_rule, eta_rule and zeta_shift_rule
    carry a private description (_described): partial_sum sums their terms
    from the floor of s + k on as one Euler-Maclaurin sum, calling no
    `vectorized` there, in any rule that holds one, whatever its tag.
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
        # integer sums (np.cumsum, a chunk's sum at s = 0) would wrap silently
        return out.astype(np.float64) if out.dtype.kind in "iu" else out


def _described(values: Callable, c: tuple[float, ...], k: int) -> Callable:
    """values, a rule's `vectorized` function of a_n = c[n mod p] n^(-k)
    with p = len(c) dividing 64, carrying (c, k) as its _description."""
    values._description = (c, k)
    return values


def ones_rule() -> CoefficientRule:
    """a_n = 1 for all n (the canonical boundary-line divergence witness)."""
    return CoefficientRule(
        tag="ones",
        vectorized=_described(lambda ns: np.ones(ns.shape, dtype=np.float64), (1.0,), 0),
        known_abscissas={"sigma_c": 1.0, "sigma_a": 1.0},
    )


def eta_rule() -> CoefficientRule:
    """Alternating signs a_n = (-1)^(n+1); converges strictly left of its
    absolute-convergence line, which separates the two abscissas."""
    return CoefficientRule(
        tag="eta",
        vectorized=_described(lambda ns: np.where((ns & 1) == 1, 1.0, -1.0), (-1.0, 1.0), 0),
        known_abscissas={"sigma_c": 0.0, "sigma_u": 1.0, "sigma_a": 1.0},
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
        vectorized=_described(lambda ns: _inv_power(ns.astype(np.float64), k), (1.0,), k),
        known_abscissas={"sigma_c": 1.0 - k, "sigma_a": 1.0 - k},
    )


# (cofactor, divisor) pairs one trial-division pass may test at once, and the
# divisors the first pass tests; the blocks double from _TRIAL_FIRST divisors
# up to _TRIAL_BLOCK // (indices still live)
_TRIAL_BLOCK = 1 << 16
_TRIAL_FIRST = 64


def _moebius_trial(ns: np.ndarray) -> np.ndarray:
    """mu(n) by trial division, vectorized over the 1-d indices ns.

    The factor 2 comes off first.  Then each pass tests a block of
    consecutive odd divisors d against the cofactors still >= d^2, up to
    the square root of the largest of them; within a block the smallest
    divisor hit is always prime, since smaller primes were already divided
    out, and only a row whose cofactor is still >= p^2 after dividing by p
    tests the block again.  The blocks double from _TRIAL_FIRST divisors,
    so an index with a small factor settles in the first, and a pass takes
    all the divisors left when they are at most 8 blocks and _TRIAL_BLOCK
    pairs (a prime near 10^6 in one pass).  Memory stays
    O(len(ns) + _TRIAL_BLOCK)."""
    even = ns % 2 == 0
    sign = np.where(even, -1, 1)
    cof = np.where(even, ns // 2, ns)
    square = even & (cof % 2 == 0)
    sign[square], cof[square] = 0, 1
    d, block = 3, _TRIAL_FIRST
    live = np.flatnonzero(cof >= d * d)
    while live.size:
        cap, root = max(1, _TRIAL_BLOCK // live.size), math.isqrt(int(cof[live].max())) + 1
        top = root if root - d <= 2 * min(8 * block, cap) else min(d + 2 * min(block, cap), root)
        block *= 2
        ds = np.arange(d, top, 2, dtype=np.int64)
        rows = live
        while rows.size:
            hits = cof[rows, None] % ds == 0
            found = hits.any(axis=1)
            rows = rows[found]
            if not rows.size:
                break
            p = ds[hits[found].argmax(axis=1)]
            q = cof[rows] // p
            square = q % p == 0
            sign[rows] = np.where(square, 0, -sign[rows])
            cof[rows] = np.where(square, 1, q)
            # a cofactor below p^2 is 1 or a prime (none below p is left),
            # so its row is settled: no re-test of the block
            rows = rows[cof[rows] >= p * p]
        d += 2 * ds.size
        live = live[cof[live] >= d * d]
    # a cofactor left above 1 has no divisor up to its square root: a prime
    sign[cof > 1] *= -1
    return sign


def _primes_upto(m: int) -> np.ndarray:
    """The primes p <= m, by the sieve of Eratosthenes."""
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def _moebius_sieve(lo: int, hi: int) -> np.ndarray:
    """mu(n) for n = lo..hi by a segmented sieve over the primes p <= sqrt(hi).

    Each p flips the sign of its multiples in the run and multiplies into
    each the product of its small prime factors found so far; the multiples
    of p^2 get 0.  A p up to the run's length does this on strided slices,
    one p at a time; a larger p divides at most one index of the run, so
    those primes are applied together, on arrays.  A square-free n whose
    product falls short of n has one prime factor above sqrt(hi) left, so
    its sign flips once more."""
    size = hi - lo + 1
    sign = np.ones(size, dtype=np.int8)
    found = np.ones(size, dtype=np.int64)
    primes = _primes_upto(math.isqrt(hi))
    few = int(np.searchsorted(primes, size, side="right"))
    for p in primes[:few].tolist():
        at = -lo % p  # position of the first multiple of p
        np.negative(sign[at::p], out=sign[at::p])
        found[at::p] *= p
        sign[-lo % (p * p) :: p * p] = 0
    if few < primes.size:
        p = primes[few:]
        at = -lo % p
        p, at = p[at < size], at[at < size]
        np.multiply.at(found, at, p)
        np.negative(sign, out=sign, where=np.bincount(at, minlength=size) % 2 == 1)
        sq = -lo % (p * p)
        sign[sq[sq < size]] = 0
    np.negative(sign, out=sign, where=found < np.arange(lo, hi + 1, dtype=np.int64))
    return sign


# a run lo..hi goes through _moebius_sieve while isqrt(hi) is at most
# _SIEVE_MAX_ROOT (a prime table of 4 MB and ~295,000 primes) and, from
# isqrt(hi) = _SIEVE_SHORT_ROOT on, holds _SIEVE_MIN_RUN indices: the table
# costs ~1 ms at hi = 2^36 and ~20 ms at 2^44, and trial division on odd
# divisors in doubling blocks breaks even with it at 12-24 indices from 2^36
# to 2^44 (2-core x86-64, numpy 2.4.6; BENCH_stream_paths.json); nearer the
# origin the sieve always won
_SIEVE_MAX_ROOT = 1 << 22
_SIEVE_SHORT_ROOT = 1 << 18
_SIEVE_MIN_RUN = 16


def _moebius_values(ns: np.ndarray) -> np.ndarray:
    """mu(n) for each index.  Indices that flatten to one ascending run
    lo..hi of at least two, every internal caller's, go through
    _moebius_sieve when isqrt(hi) <= _SIEVE_MAX_ROOT and the run is long
    enough for its prime table (_SIEVE_MIN_RUN): the table stays bounded,
    and far out the sieve takes milliseconds where trial division took
    minutes (65,536 indices from 2^40: 20-45 ms against 71.6 s).  Any other
    index set (a scalar, a user's array, a short far run, a run past 2^44)
    keeps trial division, whose memory does not grow with sqrt(max n).
    Both are exact, so the path never moves a value."""
    flat = ns.reshape(-1)
    sign = None
    if flat.size >= 2:
        lo, hi = int(flat[0]), int(flat[-1])
        root = math.isqrt(hi)
        long_enough = flat.size >= _SIEVE_MIN_RUN or root < _SIEVE_SHORT_ROOT
        if hi - lo == flat.size - 1 and root <= _SIEVE_MAX_ROOT and long_enough and (np.diff(flat) == 1).all():
            sign = _moebius_sieve(lo, hi)
    if sign is None:
        sign = _moebius_trial(flat)
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
