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

from .errors import DomainError
from .series import _ARRAY_MIN_TERMS, CoefficientRule, DirichletPolynomial, HalfPlanePoint, _Record, _validate_real
from .series import _exp, _expm1, _log, _log_indices, _nonnegative_fsum, _pairwise_sum, _power, _product, _slope, _terms
from .series import _validate_complex, _validate_index, np

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
    """Exact finite sum  sum_n a_n exp(-s log n)  over the stored terms.

    Below _ARRAY_MIN_TERMS terms the sum runs on Python scalars
    (_scalar_sum), from _ARRAY_MIN_TERMS on on arrays (_direct_sum); both
    give the same bits, so the term count picks the faster path and no
    bit follows it."""
    s = _as_complex_point(s)
    if f.term_count < _ARRAY_MIN_TERMS:
        value = _scalar_sum(f, s)
        if value is not None:
            return value
    with np.errstate(over="ignore", invalid="ignore"):
        value = _direct_sum(f.index_array(), f.coefficient_array(), s, f.log_index_array() if s else None)
    return _finite(value, f"f(s) at s = {s}")


# cmath.exp scales its real part past log(DBL_MAX / 4) ~ 708.4 and the C
# library's cexp, which numpy's complex exp calls, past 709: up to this
# bound both are exp(x) cos(y) + i exp(x) sin(y) by the same libm calls
_SCALAR_EXP_MAX = 708.0


def _scalar_sum(f: DirichletPolynomial, s: complex) -> complex | None:
    """_direct_sum of f's terms at s, bit for bit, without numpy: each term
    a * cmath.exp(-s log n), log n by math.log (series._log's bits), by
    CPython's unfused complex product (_cmul's), added in numpy's order
    (_pairwise_sum).  numpy multiplies -s by log n + 0j, which can differ
    from -s * log n only in the sign of a zero part: exp's real argument
    then gives exp(0) = 1, and a zero term's sign cannot change a nonzero
    sum, nor a zero one, which numpy rounds to +0.0.  None, for the array
    path to decide, when a term's exponent leaves the range where cmath.exp
    and numpy's exp agree or cmath.exp raises, or when the sum is not finite."""
    if f.is_zero:
        return 0j
    terms = _terms(f)
    if s == 0:
        xs = [a for _, a in terms]
    elif -s.real * math.log(f.max_index) > _SCALAR_EXP_MAX:
        return None
    else:
        ms = -s
        try:
            xs = [a * cmath.exp(ms * math.log(n)) for n, a in terms]
        except ValueError:  # an exponent's imaginary part past double range
            return None
    value = _pairwise_sum(xs)
    return value if cmath.isfinite(value) else None


def _cmul(x, y) -> np.ndarray:
    """x * y, by real products and sums when both are complex.  numpy's
    complex multiply fuses those (FMA) on CPUs that have it, so its bits
    would follow numpy's SIMD level; a complex times a real rounds each part
    once either way, and is left to numpy.  These are CPython's complex
    products, bit for bit."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind != "c" or y.dtype.kind != "c":
        return x * y
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real, out.imag = _product(x.real, x.imag, y.real, y.imag)
    return out


def _direct_sum(ns: np.ndarray, vals: np.ndarray, s: complex, logn: np.ndarray | None = None) -> complex:
    """sum vals[i] ns[i]^(-s) for increasing indices ns, one exp a term,
    log n with series._log's bits (logn, where the caller holds it, else
    the log table's, _log_indices) and the products unfused (_cmul), so no
    bit follows numpy's SIMD level; at s = 0 the values' own sum."""
    if s == 0:
        return complex(vals.sum())
    return complex(_cmul(vals, np.exp(-s * (_log_indices(ns) if logn is None else logn))).sum())


_U = 2.0**-53  # unit roundoff of a double
_ETA = 2.0**-1074  # the least subnormal double, which bounds a product's underflow


# Taylor blocks: blocks of _BLOCK terms, from the floor _floor(s) on
_BLOCK = 64
_FLOOR = 4


def _floor(s: complex) -> int:
    """F = ceil(_FLOOR (|s| + 16) _BLOCK) <= 2^63, where partial_sum's terms
    leave direct sums: from F on, x |s + k| <= 63/256 for k <= 16, x =
    (_BLOCK - 1) / F.  hypot, unlike abs, gives inf past double range."""
    return math.ceil(min(_FLOOR * (math.hypot(s.real, s.imag) + 16) * _BLOCK, 2.0**63))


def _tail(s: complex, x: float, K: int, c_K: float) -> float:
    """sum_{k>=K} |C(-s, k)| x^k <= |C(-s, K)| x^K / (1 - q), c_K being
    |C(-s, K)| x^K.  Past k = K each term is the one before times
    |s + k| x / (k + 1) <= q = x max(1, (|s| + K) / (K + 1)): (|s| + k) /
    (k + 1) is monotone in k, so its sup over k >= K is its value at K or
    its limit 1."""
    q = x * max(1.0, (abs(s) + K) / (K + 1))
    return c_K / (1.0 - q) if q < 1.0 else math.inf


def _block_order(s: complex, lo: int) -> int:
    """K, the moments blocks of _BLOCK terms from lo >= _floor(s) take: the
    smallest K whose truncation bound _tail, at x = (_BLOCK - 1) / lo, is at
    most u.  There c_K = |C(-s, K)| x^K <= (63/256)^K / K! (_floor), so
    K <= 12.  Reads only s and lo."""
    x, c, K = (_BLOCK - 1) / lo, 1.0, 0
    while True:
        K += 1
        c *= abs(s + (K - 1)) / K * x
        # _tail is at least c, so c > u needs no call
        if c <= _U and _tail(s, x, K, c) <= _U:
            return K


def _block_sum(vals: np.ndarray, s: complex, lo: int, K: int, bound: bool = True) -> tuple[complex, float | None]:
    """S ~ sum_i vals[i] (lo + i)^(-s) by Taylor blocks of b = _BLOCK terms,
    and delta >= |S - exact| (None when bound is false, as partial_sum
    asks), for any K >= 1 and any lo whose ratio bound q (_tail) is below 1,
    as every lo >= _floor(s) makes it; past that delta is inf.

    Block i holds n = a + j, a = lo + b i, 0 <= j < b (the last one padded
    with zeros), and by the binomial series of (1 + j / a)^(-s)
        sum_j v_{a+j} (a + j)^(-s) = a^(-s) sum_k C(-s, k) r^k M_k,
        r = b / a,   M_k = sum_j v_{a+j} (j / b)^k,
    summed over k < K.  The values lie in a (b x blocks) array; only
    elementwise IEEE products and sums run, so no BLAS kernel or numpy SIMD
    level sets a bit (_cmul keeps the complex products unfused).  Each
    anchor takes one log and one exp (series._power), a Horner pass over k
    runs on the anchor arrays, and np.sum adds the block sums: a term costs
    K products and K sums, not an exp.  With real s and real values every
    step runs in real arithmetic, which rounds no more than counted below.

    The bound, to first order in u = 2^-53, with m_i = sum_j |v_{a+j}|,
    x = (b - 1) / lo, c_k = |C(-s, k)| x^k, which bounds
    |C(-s, k)| (j / a)^k in every block, and L the last anchor's log:
      - truncation: the terms k >= K add at most |a^(-s)| m_i tau,
        tau = _tail(s, x, K, c_K);
      - moments: a power rounds once a step (j / b is exact) and a sum of b
        products, in order, at most b - 1 times, so M_k is within (k + b) u
        sum_j |v| (j / b)^k, and its term within (k + b) u c_k m_i;
      - C(-s, k), by its recurrence, 5 u a step; r^k, 2 u a power; the
        Horner pass, a product by r and a sum a step, 3 u for C M_k: term k
        gains (9 k + 4) u c_k m_i, so (10 k + b + 4) u c_k m_i in all, and
        u S1 m_i summed over k < K;
      - each anchor: log a is within u (2 L + 1) (a rounded to a double,
        then the log), -s log a rounds by u |s| L and the exp by 4 u, so
        a^(-s) is within u (|s| (3 L + 1) + 4) |a^(-s)|, and its product
        with the block's polynomial, at most S0 m_i = sum_{k<K} c_k m_i,
        adds 3 u;
      - the final sums: np.sum adds pairwise (runs of at most 16, then a
        tree), within u (log2 blocks + 20) S0 mu;
      - underflow: a product whose result is subnormal is off by up to
        eta = 2^-1074 on top of its u (a sum is then exact).  A moment's
        value takes k products, so M_k gains k b eta a part and its term at
        most 2 sqrt(2) k b eta c_k (|C(-s, k)| r^k <= 2 c_k, as
        (b / (b - 1))^k <= 2 for k <= 40); the C M_k, Horner and anchor
        products add 8 eta a step: b S1 >= 10 b sum k c_k covers the first,
        8 K + 16 the others, each times |a_i^(-s)|.
    So with mu = sum_i |a_i^(-s)| m_i and nu = sum_i |a_i^(-s)|,
        |S - exact| <= mu (tau + u (S1 + S0 (|s| (3 L + 1) + 27 + log2 blocks)))
                       + eta (b S1 + 8 K + 16) nu,
    and delta is that with the computed |a_i^(-s)|, m_i, c_k and sums, whose
    rounding is of second order.  Runs under its caller's errstate."""
    b, n = _BLOCK, vals.size
    blocks, full = -(-n // b), n // b
    W = np.empty((b, blocks), dtype=np.complex128 if vals.dtype.kind == "c" else np.float64)
    W[:, :full] = vals[: full * b].reshape(full, b).T
    if full < blocks:
        W[: n - full * b, full] = vals[full * b :]
        W[n - full * b :, full] = 0
    # M[k] = sum_j v_{a+j} (j / b)^k: in-place powers, each block's row
    # summed in order, term by term
    V = W.T
    mass = np.add.reduce(np.abs(V), axis=1) if bound else None
    M = np.empty((K, blocks), dtype=W.dtype)
    np.add.reduce(V, axis=1, out=M[0])
    t = np.arange(b, dtype=np.float64) / b
    for k in range(1, K):
        V *= t
        np.add.reduce(V, axis=1, out=M[k])
    real = s.imag == 0 and M.dtype.kind == "f"
    if real:
        s = s.real
    anchors = lo + b * np.arange(blocks, dtype=np.int64)
    E = _power(anchors, s)
    r = b / anchors.astype(np.float64)
    C = [1.0 if real else 1 + 0j]
    for k in range(1, K + 1):
        C.append(C[-1] * (-s - (k - 1)) / k)
    CM = _cmul(np.array(C[:K])[:, None], M)
    P = CM[K - 1]
    for k in range(K - 2, -1, -1):
        P *= r
        P += CM[k]
    total = complex(np.add.reduce(_cmul(E, P)))
    if mass is None:
        return total, None

    c = np.abs(np.array(C)) * ((b - 1) / lo) ** np.arange(K + 1)
    S0 = np.add.reduce(c[:K])
    S1 = np.add.reduce((10 * np.arange(K) + b + 4) * c[:K])
    modE = np.abs(E)
    mu = np.add.reduce(modE * mass)
    rounding = S1 + S0 * (abs(s) * (3 * _log(anchors[-1]) + 1) + 27 + math.log2(blocks))
    underflow = _ETA * (b * S1 + 8 * K + 16) * np.add.reduce(modE)
    return total, float(mu * (_tail(s, (b - 1) / lo, K, float(c[K])) + _U * rounding) + underflow)


# B_2k / (2k)!, k = 1, 2, ...: the Euler-Maclaurin coefficients
_BERNOULLI = tuple(n / (d * math.factorial(2 * k))
                   for k, (n, d) in enumerate([(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730)], 1))


def _expm1_ratio(z: complex) -> complex:
    """(exp(z) - 1) / z, 1 at z = 0: the mean of exp(z t) over t in [0, 1]."""
    return _expm1(z) / z if z else 1.0


def _euler_maclaurin(c: tuple, s: complex, lo: int, hi: int, bound: bool = True) -> tuple[complex, float | None]:
    """S ~ sum_{lo<=n<=hi} c[n mod p] n^(-s), p = len(c) dividing 64, lo from
    _floor(s) on, and delta >= |S - exact| (None when bound is false, as
    partial_sum asks): a few libm scalar exps and logs (math and cmath,
    which raise OverflowError past exp's range) whatever hi - lo is, so no
    numpy SIMD level sets a bit.  At s = 0 it is the count sum c_r J_r, J_r
    the class's terms, exact in integers over the c_r's power-of-two
    denominators and rounded once: delta is u |S|, 0 up to 2^53.

    A residue class, n = A + p j for j < J from its first A >= lo, with
    B = A + p J and g(t) = t^(-s), sums by Euler-Maclaurin in steps of p to
        (B^(1-s) - A^(1-s)) / (p (1 - s)) + Q(A) - Q(B) + R,
        Q(t) = t^(-s) (1/2 - sum_{k<=m} B_2k / (2k)! (-s)_(2k-1) (p / t)^(2k-1)),
        |R| <= rho int_A^B t^(-sigma) dt / p,  rho = 4 |(s)_2m| (p / (2 pi lo))^(2m),
    falling (-s)_j, rising (s)_j, sigma = Re s, as |B_2m(t)| <= 4 (2m)! /
    (2 pi)^(2m) (Edwards, Riemann's Zeta Function, ch. 6; Johansson, Numer.
    Algorithms 69, 2015).  m is the least count with rho <= u = 2^-53: past
    the floor |s + j| p / (2 pi lo) < 1 / (8 pi) for j < 16, so m <= 6.
    From the anchors lo and G = hi + 1, A^(1-s) / (1 - s) = lo^(1-s)
    (1 / (1 - s) + a E((1 - s) a)), a = log(A / lo), E(z) = expm1(z) / z
    (_expm1_ratio), and likewise B^(1-s), so the anchor terms add to
    (sum c_r) lo^(1-s) L E((1 - s) L), L = log(G / lo): s = 1 (harmonic)
    needs no case of its own, a mean-zero c (eta) has no anchor term to
    lose to cancellation, and real s gives an imaginary part of exactly 0.

    The bound, to first order, with I = int_lo^(G+p) t^(-sigma) dt / p (the
    same form, real; span) and mu = sum |c_r| I, about the terms' mass, libm
    being within an ulp (2 u):
      - the remainder, rho mu;
      - t^(-s) is within u (|s| (3 log t + 1) + 4) of its modulus, as
        _block_sum's anchors are;
      - |E'(z)| <= E(Re z), E(z) being the mean of exp(z t) over [0, 1],
        and (1 - s) L is within 4 u |1 - s| L, which moves E that much times
        E(Re z); _expm1 and the division add 55 u E(Re z);
      - so the anchor term, at most |sum c_r| I, is within
        u (|s| (3 log lo + 1) + 4 |1 - s| L + 72) of that, and sum c_r
        within p u mu;
      - a class's offsets, T^(1-sigma) a E((1 - sigma) a) / p with a below
        p / T, at most |c_r| (T^(-sigma) + t^(-sigma)) each, and its Q
        terms, at most |c_r| t^(-sigma) (1/2 + D), D = sum_k
        |B_2k / (2k)! (-s)_(2k-1)| (p / lo)^(2k-1), are within
        u (|s| (3 log(G + p) + 1) + 15 m + 80) of those;
      - 4 p + 3 adds, each within u of the sum of these moduli.
    delta is their sum, from the computed moduli."""
    p, G, one = len(c), hi + 1, 1 - s
    firsts = [(cr, lo + (r - lo) % p) for r, cr in enumerate(c) if cr]
    classes = [(cr, A, A + p * ((hi - A) // p + 1)) for cr, A in firsts if A <= hi]
    if s == 0:  # the count sum c_r J_r, J_r = (B - A) / p
        parts = [(cr.as_integer_ratio(), (B - A) // p) for cr, A, B in classes]
        den = max((q for (_, q), _ in parts), default=1)
        S = sum(n * (den // q) * J for (n, q), J in parts)
        return complex(S / den), (0.0 if abs(S) <= 2**53 else _U * abs(S / den)) if bound else None
    rho, d, f, x = 4.0, [], -s, len(c) / (2 * math.pi * lo)
    while len(d) < len(_BERNOULLI) and (not d or rho > _U):
        k = len(d)
        rho *= abs(s + 2 * k) * x * abs(s + 2 * k + 1) * x
        d.append(_BERNOULLI[k] * f)  # B_2k / (2k)! (-s)_(2k-1), k from 1
        f *= (-s - 2 * k - 1) * (-s - 2 * k - 2)

    def end(t: int, T: int) -> complex:
        """T^(1-s) log(t / T) E((1 - s) log(t / T)) / p - Q(t), Q by Horner."""
        y, h, a = p / t, d[-1], math.log1p((t - T) / T)
        for dk in reversed(d[:-1]):
            h = h * (y * y) + dk
        q = cmath.exp(-s * math.log(t)) * (0.5 - y * h)
        return T * cmath.exp(-s * math.log(T)) * a * _expm1_ratio(one * a) / p - q

    C, total = 0.0, 0j
    for cr, A, B in classes:
        C += cr
        total += cr * (end(B, G) - end(A, lo))
    L = math.log1p((G - lo) / lo)
    total += lo * cmath.exp(-s * math.log(lo)) * C * L * _expm1_ratio(one * L) / p
    if not bound:
        return total, None

    sigma, lam = s.real, math.log1p((G + p - lo) / lo)
    span = lo * math.exp(-sigma * math.log(lo)) * lam * _expm1_ratio((1 - sigma) * lam).real / p
    mu, anchor = sum(abs(cr) for cr, _, _ in classes) * span, abs(C) * span
    D = sum(abs(dk) * (p / lo) ** (2 * k + 1) for k, dk in enumerate(d))
    sides = (1.5 + D) * sum(abs(cr) * math.exp(-sigma * math.log(t)) for cr, A, B in classes for t in (lo, A, G, B))
    rounding = (anchor * (abs(s) * (3 * math.log(lo) + 1) + 4 * abs(one) * L + 72) + p * mu
                + sides * (abs(s) * (3 * math.log(G + p) + 1) + 15 * len(d) + 80) + (4 * p + 3) * (anchor + sides))
    return total, rho * mu + _U * rounding


_CHUNK = 1 << 16  # terms of a rule's values that partial_sum reads at once


def _chunk_sums(rule: CoefficientRule, s: complex, N: int):
    """The sums that make up partial_sum's N terms, in stream order, from
    the floor F = _floor(s'), s' = s + k for a rule whose values are
    described as a_n = c[n mod p] n^(-k) (series._described), s for any
    other; but for any other rule at s = 0, which saves no exp, F = N + 1.

    The terms go in chunks of _CHUNK, each summing lo..min(hi, F - 1)
    directly (_direct_sum) and, for a rule of values only, F..hi by Taylor
    blocks (_block_sum).  A described rule's chunks end at F - 1, and its
    terms from F to N are one Euler-Maclaurin sum at s' (_euler_maclaurin),
    a count at s' = 0.  The last chunk's index and value arrays stay alive
    while the next is built: freeing a whole chunk at once lets malloc
    return the heap top to the OS, and refaulting it made the Basel sum ~4x
    slower."""
    c, k = getattr(rule.vectorized, "_description", None) or ((), 0)
    sk = s + k
    F = N + 1 if s == 0 and not c else _floor(sk)
    top = min(N, F - 1) if c else N
    for lo in range(1, top + 1, _CHUNK):
        hi = min(top, lo + _CHUNK - 1)
        start = max(lo, F)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        vals = rule.values(ns)
        if start > lo:
            yield _direct_sum(ns[: start - lo], vals[: start - lo], s)
        if start <= hi:
            yield _block_sum(vals[start - lo :], s, start, _block_order(s, start), bound=False)[0]
    if top < N:
        try:
            value = _euler_maclaurin(c, sk, F, N, bound=False)[0]
        except OverflowError:  # libm's exp past its range: partial_sum names s
            value = complex(math.inf)
        yield value


def partial_sum(rule: CoefficientRule, s, N: int) -> complex:
    """sum_{n<=N} rule(n) n^(-s), streamed so N ~ 10^8 never materializes a
    coefficient map.  Agrees with evaluate(truncate(rule, N), s) to rounding.

    One sequential stream of sums on the caller's thread (_chunk_sums),
    added in stream order, so the rule, s and N fix the bits.  Below the
    floor F = ceil(4 (|s| + 16) 64) a term takes one exp, and none at
    s = 0; from F on a rule's values go in Taylor blocks of 64 terms
    (_block_sum), but at s = 0 every term stays direct.  The built-in
    ones_rule, eta_rule and zeta_shift_rule(k) describe themselves as
    a_n = c[n mod p] n^(-k): from the floor of s' = s + k on their terms
    are one Euler-Maclaurin sum (_euler_maclaurin) at every s, a count at
    s' = 0, which reads no values.  Each derives a bound, about
    u (|s| (3 log N + 1) + 110) and u (|s'| (4 log N + 1) + 4 log N + 100)
    times the terms' sum |rule(n)| n^(-Re s).  No bit follows numpy's SIMD
    level or a BLAS kernel (a rule's own values aside).  At real s' the sum
    is real, as Basel's (zeta_shift(2) at s = 0) is.  A sum past double
    range raises DomainError naming s."""
    s = _as_complex_point(s)
    N = _validate_index(N, "partial sum length N")
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for value in _chunk_sums(rule, s, N):
            total += value
    return _finite(total, f"partial sum of {N} terms at s = {s}")


def _t_step(n_terms: int) -> int:
    """Points per t-chunk of _grid_values: 2^16 entries a block (1 MiB, in
    cache with its product's temporaries; BENCH_unfused_grid.json) or a row."""
    return max(1, (1 << 16) // max(1, n_terms))


def _grid_values(logn: np.ndarray, w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_n w_n exp(-i t log n) at each t of a 1-d grid: the one
    boundary-grid kernel, chunked in t (_t_step).

    A chunk is a T x N block holding one t's terms in each row; the exp
    runs in place, the weighting by CPython's unfused products (_cmul), and
    each row is summed by numpy's pairwise np.sum, whose order depends only
    on N.  So a value's bits depend neither on how ts is cut nor on the
    other points: a point computed alone, or among any subset of the grid,
    has the full scan's bits, at every N, and neither numpy's SIMD level
    nor a BLAS call decides them."""
    out = np.empty(ts.shape, dtype=np.complex128)
    t_step = _t_step(logn.size)
    phase = -1j * logn
    for i in range(0, ts.size, t_step):
        E = np.outer(ts[i : i + t_step], phase)
        np.exp(E, out=E)
        out[i : i + t_step] = _cmul(E, w).sum(axis=1)
    return out


def _powers(M: np.ndarray, ratio: np.ndarray) -> None:
    """Row k of M becomes row 0 times ratio^k, for k = 1, 2, ..., in place,
    by doubling: rows [f, 2f) are rows [0, f) times ratio^f, and ratio^f is
    squared between the steps, so K rows take about 2 log2 K products."""
    power, f, K = ratio, 1, M.shape[0]
    while f < K:
        np.multiply(M[: min(f, K - f)], power, out=M[f : 2 * f])
        f *= 2
        if f < K:
            power = power * power


def _grid_screen(logn: np.ndarray, W: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S[p, j] ~ sum_n W[p, n] exp(-i ts[j] log n) at each point of a uniform
    grid, for each row p of the P x N weights W, and delta[p] >= |S[p, j] -
    D[p, j]| at every j, D[p, j] being _grid_values' value of row p at ts[j].

    Cut the T points into C = ceil(T / B) blocks of B = isqrt(T): point
    j = bB + k is taken at t0 + j h, t0 = ts[0], h = (ts[-1] - t0) / (T - 1).
    Then
        S[p, j] = sum_n R[k, n] A_p[b, n],
        R[k] = r^k,             r = exp(-i h log n),
        A_p[b] = A_p[0] q^b,    q = r^B,
        A_p[0] = W[p] exp(-i t0 log n),
    one complex GEMM for all the rows of W, whose factors are built in
    place by doubling (_powers): rows [f, 2f) of R are rows [0, f) times
    r^f, and of A_p rows [0, f) times q^f, the power squared between steps.
    R, q (R's next row, R[B]) and the t0 phase are shared by the rows of W:
    one exp a term, a second only where t0 != 0 (at t0 = 0, A_p[0] is
    W[p]), and B + P C products plus log2 B + log2 C squares, in about
    2 (log2 B + log2 C) numpy calls, where the direct kernel takes T exps a
    row, then P N T multiply-adds in BLAS.  The terms go in blocks of
    m = max(1024, 2^18 // (B + 1 + P C)), or all N when fewer: the first
    block's GEMM writes S and the later ones' are added to it.  R and A
    hold one block (4 MB when B + 1 + P C <= 256), so the screen's memory
    does not grow with N, and each row op spans at least 1024 terms.  (Two
    probes of 2*10^4 terms on 121 points, 2-core x86-64, numpy 2.4.6,
    medians of 6 interleaved rounds: 3.49 ms at 2^18 entries, 3.63 at
    2^17, 3.87 at 2^16, 3.51 unblocked; BENCH_shared_logs.json.)

    The bound, for one row w = W[p]: both sums run over the same log n, so
    only the phases, the exps, the products and the summation differ.
    With W_p = sum |w_n|, L = max log n, u = 2^-53, tau = max |ts| and
    dev = max_j |t0 + j h - ts[j]| (the grid's own rounding against the
    factored points):
      - a phase t log n is rounded to within u |t| L.  R[k] = r^k carries
        r's phase error k times and q^b = r^(bB) b B times, so R[k] A_p[b]
        is off its point's phase by <= u L (|t0| + j |h|) <= 3 u tau L, as
        j |h| <= |t0 + j h| + |t0|; with the direct phase the two sides
        differ by <= 4 u tau L |w_n|;
      - moving the point from ts[j] to t0 + j h moves it by <= dev L |w_n|,
        and the computed dev falls short of the true one by <= 3 u tau;
      - each exp is within 2u of the unit circle point and each complex
        product within 4u (relative errors add, to first order).  So r^f,
        f a power of two, squared from r^(f/2), is within 2 (6 (f/2) - 4) u
        + 4u = (6 f - 4) u, by induction from r's 2u; a row k in [f, 2f) of
        R is R[k - f] times r^f, within 6 (k - f) u + (6 f - 4) u + 4u =
        6 k u by induction from R[0] = 1, so R[k] is within 6 k u and q =
        R[B] within 6 B u.  Likewise q^f is within f (6 B + 4) u - 4u, and
        A_p[b] = A_p[b - f] q^f within 6u + b (6 B + 4) u, as A_p[0] is
        within 6u (exact at t0 = 0): the bounds of the one-row recurrence,
        each row the one before times r or q.  The GEMM's product adds 4u,
        so R[k] A_p[b] is within u (10 + 6 j + 4 b) <=
        u (10 + 10 T) |w_n| of its point, the direct term within 6u |w_n|;
        a sum of N terms (pairwise np.sum, or GEMMs added up, in any order)
        is within 2 N u sqrt(2) W_p, for each side.
    Summing,
        |S[p, j] - D[p, j]| <= W_p (L (dev + 7 u tau) + u (6 N + 10 T + 16));
    delta[p] is W_p (L (dev + 12 u tau) + 16 u (N + T + 4)), which also
    covers the rounding of W_p, dev and the products of (1 + O(u)) factors.
    Runs under its caller's errstate."""
    P, n, T = W.shape[0], logn.size, ts.size
    B = math.isqrt(T)
    C = -(-T // B)
    t0 = float(ts[0])
    h = (float(ts[-1]) - t0) / (T - 1) if T > 1 else 0.0
    m = min(n, max(1024, (1 << 18) // (B + 1 + P * C)))
    R = np.empty((B + 1, m), dtype=np.complex128)
    R[0] = 1.0
    A = np.empty((P * C, m), dtype=np.complex128)
    # A_p[b] is row p C + b of A, so block b of every row of W is A3[:, b]
    A3 = A.reshape(P, C, m)
    S = np.empty((P * C, B), dtype=np.complex128)
    for i in range(0, n, m):
        block = logn[i : i + m]
        k = block.size
        _powers(R[:, :k], np.exp(-1j * (h * block)))
        if t0:
            np.multiply(W[:, i : i + k], np.exp(-1j * (t0 * block)), out=A3[:, 0, :k])
        else:
            A3[:, 0, :k] = W[:, i : i + k]
        _powers(A3[:, :, :k].swapaxes(0, 1), R[B, :k])
        if i:
            S += A[:, :k] @ R[:B, :k].T
        else:
            np.matmul(A[:, :k], R[:B, :k].T, out=S)
    dev = float(np.max(np.abs(np.arange(T) * h + t0 - ts)))
    tau = float(np.max(np.abs(ts)))
    bound = float(np.max(logn)) * (dev + 12 * _U * tau) + 16 * _U * (n + T + 4)
    delta = np.array([float(np.sum(np.abs(w))) for w in W]) * bound
    return S.reshape(P, C * B)[:, :T], delta


def _grid_sup(logn: np.ndarray, W: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row w of the P x N weights W, max np.hypot(D.real, D.imag)
    (CPython's complex abs) to the bit, D = _grid_values(logn, w, ts) on a
    uniform grid ts, computed by one _grid_screen of all the rows and a
    direct refine; and how many points the refine computed for each row.

    If |S_i| = max |S| and |D_j| = max |D| in a row, then |S_j| >=
    |D_j| - delta >= |D_i| - delta >= |S_i| - 2 delta, so every point with
    |S_j| >= max |S| - 2 delta is kept and the direct maximum is among them.
    The keep test only picks points, so it reads np.abs of the screen (its
    and np.hypot's rounding, a few u |D|, is inside the gap between delta
    and the derived bound, u (10 N + 6 T + 48) sum |w| at least).  The
    refine stays per row: _grid_values computes only the kept points, and
    np.hypot their moduli.  A non-finite screen maximum or delta keeps
    every point of its row.  The screen runs on every grid, under its
    caller's errstate."""
    P, T = W.shape[0], ts.size
    S, delta = _grid_screen(logn, W, ts)
    screen = np.empty((P, T))
    for p in range(P):
        np.abs(S[p], out=screen[p])
    top = np.max(screen, axis=1)
    kept = screen >= (top - 2 * delta)[:, None]
    kept[~(np.isfinite(top) & np.isfinite(delta))] = True
    sup = np.empty(P)
    for p in range(P):
        values = _grid_values(logn, W[p], ts[kept[p]])
        sup[p] = np.max(np.hypot(values.real, values.imag))
    return sup, np.count_nonzero(kept, axis=1)


def boundary_values(f: DirichletPolynomial, epsilon: float, ts: np.ndarray) -> np.ndarray:
    """f(epsilon + i t) on a grid of t values, chunked to bound memory
    (_grid_values): each value has the bits of its t computed alone.

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
    logn = f.log_index_array()
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
    The products are CPython's, unfused (_cmul), so no bit follows numpy's
    SIMD level.  Input that is not two equal-length 1-D numeric sequences,
    a non-finite entry, or a result past double range raises DomainError."""
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
        value = complex(X[-1]) * complex(y[-1]) - complex(np.sum(_cmul(X[:-1], np.diff(y))))
    return _finite(value, "summation by parts")


class TailBound(_Record):
    """Bound for the discarded tail sum_{n>M} x_n y_n at real s > epsilon.
    The probe reads s = epsilon only, so it is uniform on the half-plane
    only where the sup is at the real point, as for nonnegative a_n: eta's
    tail past 1024 is 0.0156 at 0.5001 but 1.41 at 0.5001 + 6000 i, its
    bound at epsilon = 0.5 being 0.0315.  `regime` records how the probe
    window was completed: 'zero' means every probed partial sum is 0
    (bound = 0.0), 'oscillatory' keeps the observed partial-sum supremum
    with a 1% slack, 'accumulating' adds a fitted power-law integral
    remainder, 'divergent' means the fitted decay is not integrable
    (bound = inf), and 'sparse' means the window's second half holds fewer
    than 8 nonzero terms, or indices so near 2^63 that their logs round to
    one double, too few to fit a decay, so no finite bound is certified
    (bound = inf)."""

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
    """Abel-style bound for |sum_{n>M} x_n y_n| at real s > epsilon, where
    x_n = rule(n) n^(-epsilon) and y_n is a real monotone weight (n^(-it)
    off the real axis is not one, so the bound is not uniform on the
    half-plane; TailBound).

    The partial-sum factor sup_k |sum_{n=M+1}^{M+k} x_n| is probed on the
    2^16 terms past M and completed by regime: when |S_k| oscillates and its
    running maximum has settled, the supremum is taken as observed (plus 1%
    slack); when |S_k| is still accumulating, the remaining mass is bounded
    by a fitted power-law integral comparison (padded by a factor 1.2), or
    reported as infinite when the fitted decay is not integrable.  The
    monotone factor contributes |y_end| plus the probed total variation,
    which telescopes for monotone y.  Diagnostic, not a certificate:
    completion trusts the fitted decay of |x_n| past the probe window.

    weight may be None for the trivial weight y_n = 1, else it must be
    monotone on the whole probe window.  M must be an integer with
    M + 2^16 <= 2^63 - 1, and epsilon must keep every probed x_n finite.
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
        dy = np.diff(ys)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ys))))
        if not (np.all(dy >= -tol) or np.all(dy <= tol)):
            raise DomainError(f"weight is not monotone on the probe window ({M + 1}..{M + _PROBE})")

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
    tail_bound_monotone(rule, weight, M, epsilon).bound <= tol: a
    truncation for real s > epsilon, not for the whole half-plane."""
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


class GridSpec(_Record):
    t_max: float
    step: float
    two_sided: bool


class SeminormEstimate(_Record):
    """Bracket for sup |f| on Re s > epsilon.

    lower: the larger of the maximum of |f(epsilon + i t)| over the sampled
    boundary grid and the largest term max_n |a_n| n^(-epsilon), each a
    genuine lower bound for the sup (the second by Bohr's coefficient
    formula, which floors a grid that misses the largest term), capped at
    upper; a grid value sums CPython's unfused complex products by rows,
    its modulus np.hypot (CPython's abs), so no BLAS kernel or numpy SIMD
    level sets a bit of lower.  A monomial's lower is its upper, bit for
    bit.  upper: sum |a_n| n^(-epsilon) (a genuine upper bound), fsum's
    correctly rounded sum of the terms, taken on arrays
    (series._nonnegative_fsum).  The truth lies in [lower, upper].  points:
    grid points scanned; refined: how many of them the kernel recomputed
    after the GEMM screen (all of them when it overflows), which follows
    the BLAS screen.
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
    builds its phases by doubling, at N exps (2 N on a two-sided grid)
    and N T multiply-adds; the kept points are those within 2 delta of its
    maximum, and lower is the largest of their moduli by np.hypot, bit for
    bit the direct scan's.
    delta bounds the screen's error, about u (12 max|t| log n_max +
    16 (N + T)) sum |a_n| n^(-epsilon) (derived in _grid_screen).  An
    overflow reruns the direct scan through boundary_values, which names
    epsilon and t; a modulus or a coefficient bound past double range
    raises DomainError naming epsilon.
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

    logn = f.log_index_array()
    coeffs = f.coefficient_array()
    ts = np.arange(t0, t_max + 0.5 * step, step)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = _exp(-epsilon * logn)
        sup, refined = _grid_sup(logn, (coeffs * decay)[None], ts)
        terms = np.hypot(coeffs.real, coeffs.imag) * decay
    lower, refined = float(sup[0]), int(refined[0])
    if not math.isfinite(lower):
        boundary_values(f, epsilon, ts)  # names epsilon and t where a value leaves double range
    upper = _nonnegative_fsum(terms)
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
