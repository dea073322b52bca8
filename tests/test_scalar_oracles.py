"""The earlier scalar implementations, kept as oracles for the kernels that
replaced them.

Each legacy function below is the per-term loop the library used before its
operators went through operators.apply, its grid probes through the shared
boundary-grid kernel, its rules through one vectorized values path, and its
internal results (apply, add, scale, convolution) through the trusted
normal-form constructor and the array convolution kernel.  The grid sup of
seminorm and of the probes, now a GEMM screen and a direct refine, is
checked against the direct boundary-grid kernel it replaced, and that
kernel against one np.sum per grid point.
normalized_power_norm chose its direct term by two cut-offs, on k log|g|
and on the log term; it now keeps that term whenever g^k and g^k a_n are
normal doubles, and must match the old sum bit for bit wherever the old
one took the direct term for every index and each was a normal double.
partial_sum computes its chunks on a thread pool when s != 0 and must give
its old sequential loop's bits for one worker and for two.  apply runs the
built-in multipliers, the resolvent and power_apply iterates on arrays
from series._ARRAY_MIN_TERMS terms on and must give the per-term loop's
bits and error messages; polynomials built from arrays must be
indistinguishable from those built from dicts.  From the same threshold
the constructor builds a mapping of int keys to complex or float values
on arrays, and normalized_power_norm and ergodicity_diagnostic form the
orbit terms on arrays; both must give their per-term loops' bits and
exceptions.
The new paths must reproduce them bit for bit, except the resolvent, whose
coefficients are now b * (1 / x) instead of b / x.  Both round differently
in CPython's complex arithmetic; a random search over 10^6 coefficients
found them at most 2.83 ulp of |b / x| apart, so the test allows 4.
"""

import dataclasses
import math
import sys
import threading
from collections.abc import Mapping
from math import fsum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import (
    FULL,
    ZERO_SUBSPACE,
    CoefficientRule,
    DirichletPolynomial,
    DomainError,
    Multiplier,
    add,
    apply,
    boundary_values,
    bracket_sigma_u,
    cesaro_mean,
    compose,
    derivative_multiplier,
    dirichlet_multiply,
    ergodicity_diagnostic,
    eta_rule,
    identity_multiplier,
    integration_multiplier,
    moebius_rule,
    normalized_power_norm,
    ones_rule,
    partial_sum,
    power_apply,
    resolvent_apply,
    scale,
    seminorm,
    table_rule,
    truncate,
    zeta_shift_rule,
)
from dirichlet_ops import dynamics, evaluation, operators, series
from dirichlet_ops.evaluation import _grid_sup, _grid_values
from dirichlet_ops.series import _KERNEL_MIN_PAIRS

from conftest import poly_strategy

_UNIT_SYMBOL_RADIUS = 1e-8


def legacy_moebius_value(n: int) -> float:
    if n == 1:
        return 1.0
    sign = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0.0
            sign = -sign
        p += 1 if p == 2 else 2
    if m > 1:
        sign = -sign
    return float(sign)


def legacy_dirichlet_multiply(f, g):
    buckets = {}
    for n1, a in f.items():
        for n2, b in g.items():
            p = a * b
            re_l, im_l = buckets.setdefault(n1 * n2, ([], []))
            re_l.append(p.real)
            im_l.append(p.imag)
    return DirichletPolynomial(
        {n: complex(fsum(re_l), fsum(im_l)) for n, (re_l, im_l) in buckets.items()}
    )


def legacy_apply(m, f):
    m.check_domain(f)
    return DirichletPolynomial({n: complex(m.symbol(n)) * a for n, a in f.items()})


def legacy_add(f, g):
    out = dict(f.coeffs)
    for n, b in g.items():
        out[n] = out.get(n, 0j) + b
    return DirichletPolynomial(out)


def legacy_power_apply(m, k, f):
    return DirichletPolynomial({n: (m(n) ** k) * a for n, a in f.items()})


def legacy_resolvent_apply(lam, f):
    """The resolvent as apply formed it term by term before its array symbol."""
    return DirichletPolynomial({n: complex(1.0 / (math.log(n) + lam)) * a for n, a in f.items()})


def legacy_cesaro_mean(m, k, f):
    out = {}
    for n, a in f.items():
        g = m(n)
        if abs(g - 1.0) <= _UNIT_SYMBOL_RADIUS:
            if g == 1.0:
                mean = a
            else:
                s = 0j
                p = 1.0 + 0j
                for _ in range(k):
                    p *= g
                    s += p
                mean = (s / k) * a
        else:
            mean = (g * (1.0 - g**k) / (1.0 - g) / k) * a
        out[n] = mean
    return DirichletPolynomial(out)


def legacy_resolvent_coefficients(lam, f):
    out = {}
    for n, b in f.items():
        if n == 1:
            out[1] = b / lam
        else:
            out[n] = b / (math.log(n) + lam)
    return DirichletPolynomial(out)


def legacy_normalized_power_norm(m, f, epsilon, k):
    m.check_domain(f)
    terms = []
    log_k = math.log(k)
    for n, a in f.items():
        g = m(n)
        mag = abs(g)
        if mag == 0.0:
            continue
        try:
            log_a = math.log(abs(a))
        except OverflowError:
            raise DomainError(f"|a_n| at n = {n} overflows double precision, got {a!r}") from None
        log_pow = k * math.log(mag)
        log_term = log_pow + log_a - epsilon * math.log(n) - log_k
        if log_term > 709.0:  # exp would overflow
            return math.inf
        if -700.0 < log_pow < 700.0:
            terms.append(abs((g**k) * a) * math.exp(-epsilon * math.log(n)) / k)
        else:
            terms.append(math.exp(log_term))
    return fsum(terms)


def legacy_took_normal_direct_terms(m, f, k):
    """Whether legacy_normalized_power_norm took its direct branch for every
    nonzero symbol, each with a normal direct value |g^k a_n|."""
    for n, a in f.items():
        g = m(n)
        if g != 0:
            if not -700.0 < k * math.log(abs(g)) < 700.0:
                return False
            if not sys.float_info.min <= abs((g**k) * a) <= sys.float_info.max:
                return False
    return True


def pointwise_probe_sup(values, epsilon, t_max, points):
    """The probe's sup from one sum (np.exp(-1j t log n) w).sum() per grid
    point t, each computed alone, with log n and n^(-epsilon) per term by
    math.log and math.exp."""
    values = np.asarray(values, dtype=np.complex128)
    logn = np.array([math.log(n) for n in range(1, values.size + 1)])
    w = values * np.array([math.exp(-epsilon * x) for x in logn.tolist()])
    sums = [(np.exp(-1j * t * logn) * w).sum() for t in np.linspace(0.0, t_max, points)]
    return float(np.max(np.abs(np.array(sums))))


def legacy_partial_sum(rule, s, N, chunk):
    total = 0j
    lo = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while lo <= N:
            hi = min(N, lo + chunk - 1)
            ns = np.arange(lo, hi + 1, dtype=np.int64)
            vals = rule.values(ns)
            if s != 0:
                vals = vals * np.exp(-s * np.log(ns.astype(np.float64)))
            total += complex(vals.sum())
            lo = hi + 1
    return total


def bits(f):
    return [(n, a.real.hex(), a.imag.hex()) for n, a in f.items()]


MULTIPLIERS = (
    derivative_multiplier(),
    integration_multiplier(),
    Multiplier(lambda n: 1.0, "unit"),
    Multiplier(lambda n: 1.0 + 1e-12 * n, "near-one"),
    Multiplier(lambda n: complex(0.5, 1.0 / n), "complex"),
    Multiplier(lambda n: -1.0 if n % 2 else 0.25, "alternating"),
)


class TestMoebius:
    def test_first_two_hundred_thousand(self):
        ns = np.arange(1, 2 * 10**5 + 1, dtype=np.int64)
        want = np.array([legacy_moebius_value(int(n)) for n in ns])
        got = moebius_rule().values(ns)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_indices_near_ten_to_the_twelve(self):
        # 10^12 + 39 is prime and 1000003^2 is a prime square: both make the
        # trial division run all the way to sqrt(n)
        primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31
        ns = [10**12 + k for k in range(-3, 6)] + [10**12 + 39, 1000003**2, primorial]
        got = moebius_rule().values(ns)
        assert [float(v) for v in got] == [legacy_moebius_value(n) for n in ns]
        assert [moebius_rule()(n).real for n in ns] == [legacy_moebius_value(n) for n in ns]


class TestDiagonalOperators:
    @pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.label)
    @given(f=poly_strategy(min_index=2, max_index=512, max_terms=8), k=st.integers(1, 40))
    def test_power_apply_bit_equal(self, m, f, k):
        assert bits(power_apply(m, k, f)) == bits(legacy_power_apply(m, k, f))

    @pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.label)
    @given(f=poly_strategy(min_index=2, max_index=512, max_terms=8), k=st.integers(1, 40))
    def test_cesaro_mean_bit_equal(self, m, f, k):
        # in the ring 0 < |g - 1| <= 1e-8 the library takes a closed form
        # where the oracle sums k iterates one by one; there the loop is the
        # less accurate side and the two agree to 2^-46 relative
        got, want = cesaro_mean(m, k, f), legacy_cesaro_mean(m, k, f)
        assert list(got.indices()) == list(want.indices())
        for n, a in want.items():
            b = got.coefficient(n)
            if 0 < abs(m(n) - 1.0) <= _UNIT_SYMBOL_RADIUS:
                assert abs(b - a) <= 2.0**-46 * abs(a)
            else:
                assert (b.real.hex(), b.imag.hex()) == (a.real.hex(), a.imag.hex())

    @pytest.mark.parametrize("lam", [1.0, 2.0 + 1.0j, 0.75 - 0.5j, -3.3 + 0.01j, -20.0 + 2.0j])
    @given(f=poly_strategy(max_index=4096, max_terms=10))
    def test_resolvent_within_four_ulp(self, lam, f):
        for space in (FULL, ZERO_SUBSPACE):
            g = f if space == FULL else DirichletPolynomial({n: a for n, a in f.items() if n > 1})
            got = resolvent_apply(lam, g, space)
            want = legacy_resolvent_coefficients(lam, g)
            assert list(got.indices()) == list(want.indices())
            for n, a in want.items():
                assert abs(got.coefficient(n) - a) <= 4 * math.ulp(abs(a))


# coefficient moduli from 1e-300 to 1e300, so the direct value |g^k a_n|
# meets both edges of the normal range
wide_coefficients = st.builds(
    lambda e, phase: complex(10.0**e * math.cos(phase), 10.0**e * math.sin(phase)),
    st.floats(-300.0, 300.0),
    st.floats(-math.pi, math.pi),
)


class TestNormalizedPowerNorm:
    @pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.label)
    @given(
        f=poly_strategy(min_index=2, max_index=10**5, max_terms=8, coefficients=wide_coefficients),
        k=st.integers(1, 400),
        eps=st.floats(0.0, 4.0),
    )
    def test_bit_equal_where_legacy_was_direct(self, m, f, k, eps):
        try:
            want = legacy_normalized_power_norm(m, f, eps, k)
        except OverflowError:
            return  # the legacy sum leaked; the library returns inf there
        if math.isfinite(want) and legacy_took_normal_direct_terms(m, f, k):
            assert normalized_power_norm(m, f, eps, k).hex() == want.hex()

    @pytest.mark.parametrize("k", [1, 2, 12, 40])
    def test_bit_equal_on_ten_thousand_terms(self, k):
        rng = np.random.default_rng(k)
        idx = rng.choice(np.arange(2, 10**5 + 1), size=10**4, replace=False)
        re, im = rng.uniform(-1.0, 1.0, size=(2, idx.size))
        f = DirichletPolynomial({int(n): complex(a, b) for n, a, b in zip(idx, re, im)})
        m = derivative_multiplier()
        assert legacy_took_normal_direct_terms(m, f, k)
        for eps in (0.0, 0.37, 1.0):
            got, want = normalized_power_norm(m, f, eps, k), legacy_normalized_power_norm(m, f, eps, k)
            assert got.hex() == want.hex()


class TestBoundaryGridKernel:
    RULES = (ones_rule(), eta_rule(), moebius_rule(), zeta_shift_rule(2), table_rule({1: 1j, 9: 2}))

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.tag)
    def test_probe_bit_equal(self, rule):
        values = rule.values(np.arange(1, 2001, dtype=np.int64))
        est = bracket_sigma_u(rule, 2000, [0.0, 0.5])
        for probe in est.probes:
            assert probe.sup_abs == pointwise_probe_sup(values, probe.epsilon, 30.0, 121)

    def test_probe_bit_equal_across_t_chunks(self):
        # 3000 points at 3000 terms exceed one 2^23-entry block: two chunks
        values = eta_rule().values(np.arange(1, 3001, dtype=np.int64))
        [probe] = bracket_sigma_u(eta_rule(), 3000, [0.25], t_max=40.0, points=3000).probes
        assert probe.sup_abs == pointwise_probe_sup(values, 0.25, 40.0, 3000)

    @pytest.mark.parametrize("N", [2, 3, 5, 50, 20_000])
    def test_subset_and_single_points_have_the_full_scans_bits(self, monkeypatch, N):
        # a row's pairwise sum depends only on N, so neither the t-chunk a
        # point falls in nor the other points computed with it move its bits;
        # 40 points in chunks of 16 cross two chunk boundaries
        monkeypatch.setattr(evaluation, "_t_step", lambda n_terms: 16)
        rng = np.random.default_rng(N)
        logn = np.log(np.sort(rng.choice(np.arange(1, 3 * N + 1), N, replace=False)).astype(np.float64))
        w = (rng.normal(size=N) + 1j * rng.normal(size=N)) * np.exp(-0.25 * logn)
        ts = np.linspace(-20.0, 45.0, 40)
        full = _grid_values(logn, w, ts)
        subset = np.sort(rng.choice(ts.size, 11, replace=False))
        assert _grid_values(logn, w, ts[subset]).tobytes() == full[subset].tobytes()
        for j in subset:
            assert _grid_values(logn, w, ts[j : j + 1]).tobytes() == full[j : j + 1].tobytes()
            assert complex((np.exp(-1j * ts[j] * logn) * w).sum()) == complex(full[j])


def assert_grid_sup_bit_equal(logn, w, ts):
    want = float(np.max(np.abs(_grid_values(logn, w, ts))))
    got, refined = _grid_sup(logn, w, ts)
    assert got.hex() == want.hex()
    assert 1 <= refined <= ts.size
    return refined


def legacy_seminorm_lower(f, epsilon, t_max, step):
    """The direct scan's max, floored by the largest term, capped at upper."""
    t0 = 0.0 if f.has_real_coefficients() else -t_max
    logn = np.log(f.index_array().astype(np.float64))
    terms = [abs(a) * math.exp(-epsilon * ln) for a, ln in zip(f.coefficient_array(), logn)]
    ts = np.arange(t0, t_max + 0.5 * step, step)
    return min(max(float(np.max(np.abs(boundary_values(f, epsilon, ts)))), max(terms)), fsum(terms))


@st.composite
def grid_cases(draw):
    """A 1-400 term polynomial on indices <= 3000, weighted by n^(-eps), and
    a one- or two-sided arange grid."""
    n_terms = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.sort(rng.choice(np.arange(1, 3001), n_terms, replace=False))
    coeffs = rng.normal(size=n_terms) * 4.0
    if draw(st.booleans()):
        coeffs = coeffs + 4j * rng.normal(size=n_terms)
    logn = np.log(idx.astype(np.float64))
    w = coeffs * np.exp(-draw(st.floats(0.0, 1.0)) * logn)
    t_max = draw(st.floats(0.5, 50.0))
    step = draw(st.sampled_from([0.02, 0.05, 0.125, 0.3]))
    t0 = -t_max if draw(st.booleans()) else 0.0
    return logn, w, np.arange(t0, t_max + 0.5 * step, step)


class TestGridSup:
    """_grid_sup (GEMM screen, then a direct refine of the kept points)
    against the direct scan it replaces, float.hex for float.hex."""

    @given(grid_cases())
    def test_random_polynomials(self, case):
        assert_grid_sup_bit_equal(*case)

    @pytest.mark.parametrize("N", [2000, 20000])
    @pytest.mark.parametrize("rule", TestBoundaryGridKernel.RULES, ids=lambda r: r.tag)
    def test_probe_rules(self, rule, N):
        values = rule.values(np.arange(1, N + 1, dtype=np.int64))
        logn = np.log(np.arange(1, N + 1, dtype=np.float64))
        ts = np.linspace(0.0, 30.0, 121)
        for eps in (0.0, 0.5):
            assert_grid_sup_bit_equal(logn, values * np.exp(-eps * logn), ts)

    def test_two_t_chunks(self):
        # 3000 points at 3000 terms exceed one 2^23-entry block
        logn = np.log(np.arange(1, 3001, dtype=np.float64))
        w = eta_rule().values(np.arange(1, 3001, dtype=np.int64)) * np.exp(-0.25 * logn)
        ts = np.linspace(0.0, 40.0, 3000)
        assert evaluation._t_step(logn.size) < ts.size
        assert_grid_sup_bit_equal(logn, w, ts)

    def test_seminorm_default_grid(self):
        # 50 real terms on indices <= 1000, default grid t = 0, 0.01, .., 1000
        rng = np.random.default_rng(50)
        idx = np.sort(rng.choice(np.arange(1, 1001), 50, replace=False))
        logn = np.log(idx.astype(np.float64))
        ts = np.arange(0.0, 1000.0 + 0.005, 0.01)
        assert ts.size == 100_001
        assert_grid_sup_bit_equal(logn, rng.normal(size=50) * np.exp(-0.25 * logn), ts)

    @pytest.mark.parametrize("T", [1, 2])
    def test_tiny_grids(self, T):
        # the screen runs on every grid, down to one point
        logn = np.log(np.array([1.0, 2.0, 3.0, 7.0]))
        w = np.array([1.0, -0.5 + 0.25j, 2.0, 1e-3j])
        assert_grid_sup_bit_equal(logn, w, np.linspace(-3.0, 5.0, T))

    @pytest.mark.parametrize("T", [1, 7, 1110, 20_001])
    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_constant_modulus_keeps_every_point(self, n, T):
        # |c n^(-s)| is the same at every t: every screened point is a
        # candidate.  That keeps the refine exact at N = 1, where the (T, 1)
        # block's products coalesce into one 1-d loop and a point computed
        # alone may round differently from the full scan
        logn = np.log(np.array([float(n)]))
        ts = np.linspace(-100.0, 100.0, T)
        assert assert_grid_sup_bit_equal(logn, np.array([(2.5 - 1j) * n**-0.3]), ts) == T

    @given(poly_strategy(max_index=3000, max_terms=12), st.floats(0.0, 1.0))
    def test_seminorm_lower(self, f, eps):
        est = seminorm(f, eps, t_max=30.0, step=0.01)
        if f.is_zero:
            assert est.lower == 0.0 and est.points == est.refined == 0
            return
        assert est.lower.hex() == legacy_seminorm_lower(f, eps, 30.0, 0.01).hex()
        assert 1 <= est.refined <= est.points

    @pytest.mark.parametrize("t_max, step", [(2.0, 0.25), (18.0, 0.01)], ids=["direct", "screened"])
    def test_seminorm_overflow_message(self, t_max, step):
        # both parts of w are finite, but re(w e^(-i t log 2)) =
        # 1.5e308 (cos + sin)(t log 2) passes the largest double near t log 2 = pi/4;
        # on both grids the screen overflows too and every point is kept
        f = DirichletPolynomial({2: complex(1.5e308, 1.5e308)})
        with pytest.raises(DomainError) as want:
            legacy_seminorm_lower(f, 0.0, t_max, step)
        with pytest.raises(DomainError) as got:
            seminorm(f, 0.0, t_max=t_max, step=step)
        assert str(got.value) == str(want.value)
        assert "overflows double precision" in str(got.value)


# components that make CPython's complex product hit -0.0 (0 * -1 - 1 * 0),
# exact cancellations and equal products, mixed with arbitrary doubles
_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)
_signed_coefficients = st.builds(complex, _component, _component)


def _terms(max_index, max_terms):
    return st.lists(st.tuples(st.integers(1, max_index), _signed_coefficients), max_size=max_terms)


def bucket_sizes(f, g):
    sizes = {}
    for n1 in f.indices():
        for n2 in g.indices():
            sizes[n1 * n2] = sizes.get(n1 * n2, 0) + 1
    return set(sizes.values())


class TestConvolutionKernel:
    """The array kernel (from _KERNEL_MIN_PAIRS pairs on) and the per-pair
    loop below it both against the old per-pair loop, to the bit."""

    @given(f=_terms(12, 14).map(DirichletPolynomial), g=_terms(12, 14).map(DirichletPolynomial))
    def test_bit_equal_dense_indices(self, f, g):
        # indices up to 12 put many pairs in one bucket
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))

    @given(f=_terms(10**6, 14).map(DirichletPolynomial), g=_terms(10**6, 14).map(DirichletPolynomial))
    def test_bit_equal_sparse_indices(self, f, g):
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))

    @pytest.mark.parametrize("n_f, n_g", [(1, 1), (5, 3), (6, 7), (7, 7), (8, 8), (40, 40)])
    def test_both_sides_of_pair_constant(self, n_f, n_g, rng):
        for _ in range(20):
            f = DirichletPolynomial({int(n): complex(*rng.normal(size=2))
                                     for n in rng.choice(np.arange(1, 41), n_f, replace=False)})
            g = DirichletPolynomial({int(n): complex(*rng.normal(size=2))
                                     for n in rng.choice(np.arange(1, 41), n_g, replace=False)})
            assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))
        assert 6 * 7 < _KERNEL_MIN_PAIRS <= 7 * 7

    def test_buckets_of_one_two_and_more(self):
        f = DirichletPolynomial({n: complex(1.0 / n, -(n % 3)) for n in range(1, 13)})
        g = DirichletPolynomial({n: complex(-0.0 if n % 2 else 0.3, 1.0 / n) for n in range(1, 9)})
        assert {1, 2, 3, 4} <= bucket_sizes(f, g)
        assert f.term_count * g.term_count >= _KERNEL_MIN_PAIRS
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))

    def test_negative_zero_products(self):
        # 1j * -1 has real part 0 * -1 - 1 * 0 = -0.0; stored as +0.0 either way
        f = DirichletPolynomial({n: 1j for n in range(2, 10)})
        g = DirichletPolynomial({n: -1.0 for n in range(3, 11)})
        got = dirichlet_multiply(f, g)
        assert bits(got) == bits(legacy_dirichlet_multiply(f, g))
        assert all(math.copysign(1.0, a.real) == 1.0 for _, a in got.items())

    def test_commutative_to_the_bit_at_300_by_300(self, rng):
        f = DirichletPolynomial({n: complex(*rng.normal(size=2)) for n in range(1, 301)})
        g = DirichletPolynomial({int(n): complex(*rng.normal(size=2))
                                 for n in rng.choice(np.arange(1, 2001), 300, replace=False)})
        fg = dirichlet_multiply(f, g)
        assert bits(fg) == bits(dirichlet_multiply(g, f))
        assert bits(fg) == bits(legacy_dirichlet_multiply(f, g))


class TestTrustedConstructor:
    @pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.label)
    @given(f=_terms(512, 10).map(lambda t: DirichletPolynomial([(n, a) for n, a in t if n > 1])))
    def test_apply_bit_equal(self, m, f):
        assert bits(apply(m, f)) == bits(legacy_apply(m, f))

    @given(f=_terms(64, 10).map(DirichletPolynomial), g=_terms(64, 10).map(DirichletPolynomial),
           c=_signed_coefficients)
    def test_add_and_scale_bit_equal(self, f, g, c):
        assert bits(add(f, g)) == bits(legacy_add(f, g))
        assert bits(f - g) == bits(legacy_add(f, DirichletPolynomial({n: (-1 + 0j) * a for n, a in g.items()})))
        assert bits(scale(c, f)) == bits(DirichletPolynomial({n: c * a for n, a in f.items()}))


_STREAM_RULES = st.one_of(
    st.sampled_from([eta_rule(), ones_rule(), moebius_rule(), *map(zeta_shift_rule, range(4))]),
    st.dictionaries(st.integers(1, 400), _signed_coefficients, max_size=12).map(table_rule),
)


@st.composite
def _streams(draw):
    """(s, N, chunk) with N spanning one to five chunks."""
    chunk = draw(st.integers(1, 64))
    N = draw(st.integers(1, 5 * chunk))
    s = complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(-60.0, 60.0)))
    return s, N, chunk


def complex_bits(z):
    return z.real.hex(), z.imag.hex()


class TestPooledPartialSum:
    """partial_sum's chunks run on a thread pool when s != 0; the bits must
    be the sequential loop's whatever the number of workers."""

    @given(rule=_STREAM_RULES, stream=_streams())
    def test_bits_equal_for_one_and_two_workers(self, rule, stream):
        s, N, chunk = stream
        want = complex_bits(legacy_partial_sum(rule, s, N, chunk))
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "_WORKERS", workers)
                assert complex_bits(partial_sum(rule, s, N, chunk=chunk)) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_error_in_chunk_order(self, monkeypatch, workers):
        # 5 chunks of 8; chunks 3 and 4 both raise, and chunk 3 must win
        def vec(ns):
            if ns[0] in (17, 25):
                raise DomainError(f"rule failed in the chunk from {ns[0]}")
            return np.ones(ns.shape)

        monkeypatch.setattr(evaluation, "_WORKERS", workers)
        with pytest.raises(DomainError, match="chunk from 17$"):
            partial_sum(CoefficientRule("failing", vec), 0.5 + 2j, 40, chunk=8)


BUILT_IN = (derivative_multiplier(), integration_multiplier(), identity_multiplier())

# small indices and indices up to 2^62, which round to their doubles
wide_indices = st.one_of(st.integers(2, 10**4), st.integers(2, 2**62))


def wide_polys(max_terms=40):
    pairs = st.tuples(wide_indices, wide_coefficients)
    return st.lists(pairs, min_size=1, max_size=max_terms).map(DirichletPolynomial)


def outcome(call):
    """bits of the result, or the text of the DomainError it raised."""
    try:
        return bits(call())
    except DomainError as e:
        return str(e)


def scalar_path(call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_ARRAY_MIN_TERMS", math.inf)
        return outcome(call)


# lambdas on both sides of the imaginary axis, at +0.0 and -0.0 imaginary
# part, and within 1e-9 of the spectrum points -log 7 and 0
RESOLVENT_LAMBDAS = [
    1.0, complex(2.0, -0.0), complex(-3.3, 0.0), complex(-3.3, -0.0), 0.75 - 0.5j, -20.0 + 2.0j,
    complex(-math.log(7) + 1e-9, 0.0), complex(-math.log(7), -1e-9), complex(1e-9, -0.0),
]


class TestArrayPath:
    """apply's array path (its _ARRAY_MIN_TERMS set to 1, so every
    polynomial takes it) against the per-term loop, float.hex for float.hex."""

    @pytest.fixture(autouse=True)
    def array_path_everywhere(self, monkeypatch):
        monkeypatch.setattr(operators, "_ARRAY_MIN_TERMS", 1)

    @pytest.mark.parametrize("m", BUILT_IN, ids=lambda m: m.label)
    @given(f=wide_polys())
    def test_apply_bit_equal(self, m, f):
        if m.requires_zero_constant:
            f = DirichletPolynomial({n: a for n, a in f.items() if n > 1})
        assert bits(apply(m, f)) == bits(legacy_apply(m, f))

    @pytest.mark.parametrize("m", BUILT_IN, ids=lambda m: m.label)
    @given(f=wide_polys(max_terms=12), k=st.integers(1, 101))
    def test_power_apply_bit_equal(self, m, f, k):
        got = outcome(lambda: power_apply(m, k, f))
        if isinstance(got, str):  # the power or a product overflowed
            assert got == scalar_path(lambda: power_apply(m, k, f))
        else:
            assert got == bits(legacy_power_apply(m, k, f))

    @pytest.mark.parametrize("k", [1, 2, 3, 40, 99, 100, 101])
    def test_power_apply_bit_equal_on_ten_thousand_terms(self, k, rng):
        idx = rng.choice(np.arange(2, 10**5 + 1), size=10**4, replace=False)
        f = DirichletPolynomial({int(n): complex(*rng.uniform(-1.0, 1.0, 2)) for n in idx})
        for m in BUILT_IN:
            assert bits(power_apply(m, k, f)) == bits(legacy_power_apply(m, k, f))

    def test_indices_where_np_log_rounds_differently(self):
        # the array symbols must take math.log's bits where np.log's differ:
        # on 111 indices <= 2*10^6, the first 9170 (x86-64, numpy 2.4.6)
        ns = np.arange(2, 2 * 10**6 + 1)
        logs = np.log(ns.astype(np.float64))
        differ = ns[logs != np.array([math.log(n) for n in ns.tolist()])].tolist()
        f = DirichletPolynomial({n: complex(1.0, -0.5) for n in [2, 9170, *differ]})
        for m in BUILT_IN:
            assert bits(apply(m, f)) == bits(legacy_apply(m, f))
            assert bits(power_apply(m, 7, f)) == bits(legacy_power_apply(m, 7, f))
        assert bits(resolvent_apply(0.5 + 1j, f, FULL)) == bits(legacy_resolvent_apply(0.5 + 1j, f))

    @pytest.mark.parametrize("lam", RESOLVENT_LAMBDAS)
    @given(f=wide_polys())
    def test_resolvent_bit_equal(self, lam, f):
        for space in (FULL, ZERO_SUBSPACE):
            g = f if space == FULL else DirichletPolynomial({n: a for n, a in f.items() if n > 1})
            # b_n / (log n + lambda) may overflow near the spectrum: both sides raise then
            assert outcome(lambda: resolvent_apply(lam, g, space)) == outcome(lambda: legacy_resolvent_apply(lam, g))

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: apply(identity_multiplier(), f),
            lambda f: apply(derivative_multiplier(), f),
            lambda f: power_apply(derivative_multiplier(), 3, f),
            lambda f: power_apply(integration_multiplier(), 101, f),
            lambda f: resolvent_apply(complex(-math.log(7), 1e-9), f, FULL),
        ],
        ids=["identity", "derivative", "power-3", "integration-power-101", "resolvent-near-7"],
    )
    @pytest.mark.parametrize(
        "terms",
        [
            {7: 1.5e308, 2**62: 1e308, 3: 1.0},
            {7: complex(1e308, -1e308), 11: 1e-300},
            {1000: 1e300, 10**6: complex(1e-320, 1e300)},
        ],
        ids=["real", "complex", "large-k"],
    )
    def test_overflow_raises_the_scalar_message(self, call, terms):
        f = DirichletPolynomial(terms)
        assert outcome(lambda: call(f)) == scalar_path(lambda: call(f))

    def test_user_symbols_take_the_scalar_path(self):
        f = truncate(eta_rule(), 300)
        D = derivative_multiplier()
        for m in (Multiplier(D.symbol, "user"), compose(D, identity_multiplier())):
            assert m.array_symbol is None
            assert bits(apply(m, f)) == bits(legacy_apply(D, f))

    def test_array_symbol_taken_from_the_crossover_on(self, monkeypatch):
        # the scalar symbol raises: only the array symbol can give a value
        def refuse(n):
            raise ZeroDivisionError("scalar symbol read")

        m = Multiplier(refuse, "arrays only", array_symbol=derivative_multiplier().array_symbol)
        monkeypatch.setattr(operators, "_ARRAY_MIN_TERMS", 96)
        f = truncate(eta_rule(), 96)
        assert bits(apply(m, f)) == bits(legacy_apply(derivative_multiplier(), f))
        with pytest.raises(ZeroDivisionError):
            apply(m, truncate(eta_rule(), 95))

    def test_array_symbol_left_out_of_equality(self):
        D = derivative_multiplier()
        assert dataclasses.replace(D, array_symbol=None) == D
        assert hash(dataclasses.replace(D, array_symbol=None)) == hash(D)


@pytest.mark.parametrize("k", [1, 5, 40])
def test_cesaro_and_compose_reset_the_array_symbol(k, rng):
    # dataclasses.replace copies every field: a mean or a composite that kept
    # the derivative's array symbol would multiply by -log n at this size
    D = derivative_multiplier()
    idx = rng.choice(np.arange(2, 10**4), size=operators._ARRAY_MIN_TERMS + 4, replace=False)
    f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in idx})
    assert bits(cesaro_mean(D, k, f)) == bits(legacy_cesaro_mean(D, k, f))
    DD = compose(D, D)
    assert bits(apply(DD, f)) == bits(legacy_apply(DD, f))


class TestCarrier:
    """A polynomial built by an array kernel and the same polynomial built
    from a dict must be indistinguishable through the public accessors."""

    @staticmethod
    def pairs(rng, n_terms=300):
        idx = np.sort(rng.choice(np.arange(1, 10**6), size=n_terms, replace=False))
        return idx, rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)

    @staticmethod
    def dict_built(idx, c):
        """A polynomial holding its terms as a dict alone: built from pairs,
        which keep the constructor's loop at any size."""
        f = DirichletPolynomial([(int(n), complex(a)) for n, a in zip(idx, c)])
        assert f._map is not None and f._idx is None
        return f

    def both_forms(self, rng):
        """(array-built, dict-built) copies of one random polynomial."""
        idx, c = self.pairs(rng)
        rule = table_rule({int(n): complex(a) for n, a in zip(idx, c)})
        return truncate(rule, int(idx[-1])), self.dict_built(idx, c)

    def test_array_built_equals_dict_built(self, rng):
        arr, dic = self.both_forms(rng)
        assert arr == dic and dic == arr
        assert repr(arr) == repr(dic)
        assert list(arr.items()) == list(dic.items())
        assert list(arr.indices()) == list(dic.indices())
        assert (arr.max_index, arr.term_count, arr.is_zero) == (dic.max_index, dic.term_count, dic.is_zero)
        assert arr.has_real_coefficients() == dic.has_real_coefficients() is False
        for n in (1, int(arr.index_array()[0]), int(arr.index_array()[-1]), 10**6 + 7):
            assert arr.coefficient(n) == dic.coefficient(n)

    def test_array_built_before_and_after_its_dict(self, rng):
        arr, dic = self.both_forms(rng)
        other, _ = self.both_forms(np.random.default_rng(7))
        assert arr != other  # both hold arrays only
        dict(arr.items())
        assert arr == dic and arr != other  # arr holds both forms now
        assert np.array_equal(arr.index_array(), dic.index_array())
        assert np.array_equal(arr.coefficient_array(), dic.coefficient_array())

    def test_real_and_zero_polynomials(self):
        eta = truncate(eta_rule(), 500)
        ns = range(1, 501)
        assert eta.has_real_coefficients() and eta == self.dict_built(ns, [1.0 if n % 2 else -1.0 for n in ns])
        zero = truncate(table_rule({}), 200)
        assert zero.is_zero and zero.max_index == 0 and zero.term_count == 0
        assert zero == DirichletPolynomial() and repr(zero) == "DirichletPolynomial(0)"

    @pytest.mark.parametrize("build", ["dict", "truncate", "apply", "convolution"])
    def test_returned_arrays_are_read_only(self, build, rng):
        idx, c = self.pairs(rng, 60)
        f = DirichletPolynomial({int(n): complex(a) for n, a in zip(idx, c)})
        f = {
            "dict": lambda: f,
            "truncate": lambda: truncate(eta_rule(), 100),
            "apply": lambda: apply(identity_multiplier(), truncate(eta_rule(), 200)),
            "convolution": lambda: dirichlet_multiply(f, f),
        }[build]()
        before = bits(f)
        for arr in (f.index_array(), f.coefficient_array()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        assert bits(f) == before

    def test_threads_racing_to_build_each_form(self, rng):
        # each form is cached on first use without a lock: threads that race
        # to build one must all see the same terms, whichever form they read
        idx, c = self.pairs(rng, 200)
        want = bits(DirichletPolynomial({int(n): complex(a) for n, a in zip(idx, c)}))
        rule = table_rule({int(n): complex(a) for n, a in zip(idx, c)})
        polys = [truncate(rule, int(idx[-1])) for _ in range(40)]
        polys += [self.dict_built(idx, c) for _ in range(40)]
        seen, errors = [], []

        def read(k):
            try:
                for f in polys:
                    if k % 2:
                        got = [(n, a.real.hex(), a.imag.hex()) for n, a in
                               zip(f.index_array().tolist(), f.coefficient_array().tolist())]
                    else:
                        got = bits(f)
                    seen.append(got == want and f.max_index == int(idx[-1]))
            except Exception as e:  # reported below: a thread's exception is otherwise lost
                errors.append(repr(e))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(seen) == 8 * len(polys) and all(seen)


def loop_construct(coeffs):
    """The constructor's per-term loop, which mappings of int keys to complex
    or float values leave from series._ARRAY_MIN_TERMS entries on."""
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    acc = {}
    for n, a in items:
        n = series._validate_index(n)
        acc[n] = acc.get(n, 0j) + (a if type(a) is complex else series._coefficient(n, a))
    keys = sorted(acc)
    return series._normal(keys, map(acc.__getitem__, keys))


def construct_outcome(build, coeffs):
    """Bits and array bytes of the polynomial, or the type and text of the
    exception raised."""
    try:
        f = build(coeffs)
    except Exception as e:
        return type(e).__name__, str(e)
    return bits(f), f.index_array().tobytes(), f.coefficient_array().tobytes()


# entries that leave the mapping path or test its edges: int64's last
# indices and the first past it, indices below 1, numpy and bool keys;
# signed zeros, non-finite, numpy and non-numeric values
_odd_keys = st.sampled_from([2**63 - 1, 2**63 - 2, 2**63, 2**64 + 3, 0, -5, np.int64(7), np.int64(2**62), True])
_odd_values = st.sampled_from([
    -0.0, 0.0, complex(-0.0, -0.0), complex(0.0, -0.0), math.nan, complex(1.0, math.nan), math.inf,
    -math.inf, np.float64(2.5), np.complex128(1j), 3, 10**400, "1.5", None, True,
])


@st.composite
def bulk_mappings(draw):
    """A dict of ~_ARRAY_MIN_TERMS int keys to float and complex values at
    moduli 1e-300..1e300, with up to three odd entries at random places."""
    size = draw(st.integers(series._ARRAY_MIN_TERMS - 3, series._ARRAY_MIN_TERMS + 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([200, 10**6, 2**62, 2**63 - 1]))
    keys = rng.integers(1, top, size, endpoint=True).tolist()
    moduli = 10.0 ** rng.uniform(-300.0, 300.0, size)
    re, im = moduli * rng.normal(size=(2, size))
    kinds = rng.integers(0, 3, size).tolist()
    values = [float(r) if kind == 0 else complex(r, i) if kind == 1 else complex(r, 0.0)
              for r, i, kind in zip(re.tolist(), im.tolist(), kinds)]
    items = list(zip(keys, values))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.one_of(_odd_keys, st.integers(1, 300)))
        value = draw(st.one_of(_odd_values, st.floats(-1e300, 1e300)))
        items.insert(draw(st.integers(0, len(items))), (key, value))
    return dict(items)


class TestMappingConstructor:
    """The constructor's array path for mappings against its per-term loop:
    the same bits, and the same exception type and text."""

    @given(bulk_mappings())
    def test_bit_equal_with_the_loop(self, coeffs):
        assert construct_outcome(DirichletPolynomial, coeffs) == construct_outcome(loop_construct, coeffs)

    @pytest.mark.parametrize(
        "odd",
        [
            {2**63 - 1: 1.0}, {2**63: 1.0}, {0: 1.0}, {-3: 1j}, {np.int64(5): 1.0}, {True: 2.0},
            {5: math.nan}, {5: complex(math.inf, 1.0)}, {5: -0.0}, {5: complex(-0.0, -0.0)},
            {5: np.float64(1.5)}, {5: 7}, {5: "7"},
        ],
        ids=["int64-max", "past-int64", "zero", "negative", "np-int64-key", "bool-key", "nan", "inf",
             "negative-zero", "complex-negative-zeros", "np-float", "int-value", "string-value"],
    )
    def test_odd_entry_among_many(self, odd):
        coeffs = {n: complex(1.0, -n) if n % 2 else float(n) for n in range(1000, 1000 + series._ARRAY_MIN_TERMS)}
        coeffs.update(odd)
        assert construct_outcome(DirichletPolynomial, coeffs) == construct_outcome(loop_construct, coeffs)

    def test_mapping_proxy_and_unsorted_keys(self, rng):
        idx = rng.choice(np.arange(1, 10**6), 500, replace=False).tolist()
        coeffs = {n: complex(*rng.normal(size=2)) for n in idx}
        f = DirichletPolynomial(coeffs)
        assert construct_outcome(DirichletPolynomial, coeffs) == construct_outcome(loop_construct, coeffs)
        assert construct_outcome(DirichletPolynomial, f.coeffs) == construct_outcome(loop_construct, coeffs)


def loop_orbit(m, f, epsilon):
    """dynamics._orbit's per-term loop."""
    m.check_domain(f)
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


def loop_orbit_norm(orbit, k):
    """dynamics._orbit_norm's per-term loop."""
    terms = []
    for g, a, mod_a, decay, eps_log in orbit:
        try:
            power = g**k
            term = abs(power * a)
            direct = sys.float_info.min <= abs(power) < math.inf and sys.float_info.min <= term < math.inf
        except OverflowError:
            direct = False
        if direct:
            terms.append(term * decay / k)
            continue
        log_term = k * math.log(abs(g)) + math.log(mod_a) - eps_log - math.log(k)
        if log_term > math.log(sys.float_info.max):
            return math.inf
        terms.append(math.exp(log_term))
    try:
        return fsum(terms)
    except OverflowError:
        return math.inf


def norm_outcomes(m, f, epsilon, ks):
    """(library, loop) results for each k: float.hex, or the DomainError text."""
    def run(norm):
        try:
            return [norm(k).hex() for k in ks]
        except DomainError as e:
            return str(e)

    return (run(lambda k: normalized_power_norm(m, f, epsilon, k)),
            run(lambda k: loop_orbit_norm(loop_orbit(m, f, epsilon), k)))


def took_log_space(m, f, k):
    """Whether some orbit term leaves the direct path at k."""
    for g, a, *_ in loop_orbit(m, f, 0.0):
        try:
            p = g**k
            if not (sys.float_info.min <= abs(p) < math.inf and sys.float_info.min <= abs(p * a) < math.inf):
                return True
        except OverflowError:
            return True
    return False


# user symbols, which have no array symbol, keep the loop: m(n) is read per term
USER_COMPLEX = Multiplier(lambda n: complex(1.5, -1.0 / n), "user complex")
USER_WITH_ZEROS = Multiplier(lambda n: 0.0 if n % 3 == 0 else 2.0 + 1e-3 * n, "user with zeros")
# the same symbol with an array symbol: the array orbit drops its zeros past n = 1
ARRAY_WITH_ZEROS = dataclasses.replace(
    USER_WITH_ZEROS, label="array with zeros",
    array_symbol=lambda idx: (np.where(idx % 3 == 0, 0.0, 2.0 + 1e-3 * idx), np.zeros(idx.size)),
)
ORBIT_MULTIPLIERS = (*BUILT_IN, USER_COMPLEX, USER_WITH_ZEROS, ARRAY_WITH_ZEROS)


class TestArrayOrbit:
    """The orbit norms on arrays (dynamics._ARRAY_MIN_TERMS set to 1, so
    every polynomial takes them) against the per-term loop, float.hex for
    float.hex, and the same error texts."""

    @pytest.fixture(autouse=True)
    def array_orbit_everywhere(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_ARRAY_MIN_TERMS", 1)

    @pytest.mark.parametrize("m", ORBIT_MULTIPLIERS, ids=lambda m: m.label)
    @given(f=wide_polys(), k=st.one_of(st.integers(1, 101), st.integers(101, 400)), eps=st.floats(0.0, 4.0))
    def test_norm_bit_equal(self, m, f, k, eps):
        got, want = norm_outcomes(m, f, eps, [k])
        assert got == want

    @pytest.mark.parametrize("m", ORBIT_MULTIPLIERS, ids=lambda m: m.label)
    @given(f=wide_polys(max_terms=12), eps=st.floats(0.0, 4.0))
    def test_diagnostic_samples_bit_equal(self, m, f, eps):
        samples = ergodicity_diagnostic(m, f, eps, 40).samples
        orbit = loop_orbit(m, f, eps)
        assert [(k, v.hex()) for k, v in samples] == [(k, loop_orbit_norm(orbit, k).hex()) for k in range(1, 41)]

    @pytest.mark.parametrize("k", [1, 40, 100, 101, 250])
    @pytest.mark.parametrize(
        "m, terms",
        [
            (identity_multiplier(), {2: 1e-310, 3: 1.0}),  # subnormal |a_n|: log space
            (derivative_multiplier(), {2: 1.0, 3: 1e-300, 10**6: 2.0}),  # (log 2)^k underflows past k ~ 1900
            (integration_multiplier(), {2: 1e300, 3: 1e-300}),  # (1 / log 2)^k a_2 overflows
            (derivative_multiplier(), {2**62: 1e300, 5: 1.0}),  # a term past double range: inf
            (identity_multiplier(), {n: 1.5e308 for n in range(2, 6)}),  # the sum passes double range: inf
        ],
        ids=["subnormal", "underflow", "overflow", "term-inf", "sum-inf"],
    )
    def test_log_space_and_overflow(self, m, terms, k):
        f = DirichletPolynomial(terms)
        got, want = norm_outcomes(m, f, 0.25, [k])
        assert got == want

    @pytest.mark.parametrize(
        "m, terms, eps, k",
        [
            # |a_n| n^(-eps) is subnormal: the direct value would round differently
            (identity_multiplier(), {3: 1e-310}, 0.25, 1),
            # np.log(n) differs from math.log(n) at these indices
            (derivative_multiplier(), {9170: 1.0, 19143: 1j}, 0.25, 3),
            # np.abs(a) differs from CPython's abs(a) here, and it shows in log space
            (integration_multiplier(), {2: complex(-1.2281749341105241e-295, 5.698248793143902e-296)}, 0.0, 2000),
        ],
        ids=["subnormal", "np-log", "np-abs"],
    )
    def test_rounding_sensitive_terms(self, m, terms, eps, k):
        got, want = norm_outcomes(m, DirichletPolynomial(terms), eps, [k])
        assert got == want

    def test_cases_reach_each_branch(self):
        # the cases above do reach the log-space branch and inf
        assert took_log_space(identity_multiplier(), DirichletPolynomial({2: 1e-310}), 1)
        assert took_log_space(integration_multiplier(), DirichletPolynomial({2: 1e300}), 100)
        assert normalized_power_norm(derivative_multiplier(), DirichletPolynomial({2**62: 1e300}), 0.25, 40) == math.inf
        assert normalized_power_norm(identity_multiplier(), DirichletPolynomial({n: 1.5e308 for n in range(2, 6)}), 0.25, 1) == math.inf

    @pytest.mark.parametrize(
        "bad", [math.inf, math.nan, complex(1.5e308, 1.5e308)], ids=["inf", "nan", "modulus-overflow"]
    )
    def test_non_finite_array_symbol_raises_the_loop_error(self, bad):
        # the array symbol gives the bad value at n = 77, as the scalar one does
        D = derivative_multiplier()
        bad = complex(bad)
        m = Multiplier(
            lambda n: bad if n == 77 else -math.log(n), "bad at 77",
            array_symbol=lambda idx: (np.where(idx == 77, bad.real, D.array_symbol(idx)[0]),
                                      np.where(idx == 77, bad.imag, 0.0)),
        )
        f = truncate(eta_rule(), 200)
        got, want = norm_outcomes(m, f, 0.5, [1, 40])
        assert got == want
        assert got.startswith("multiplier 'bad at 77'") and "n = 77" in got
        with pytest.raises(DomainError, match="n = 77"):
            ergodicity_diagnostic(m, f, 0.5)

    def test_coefficient_past_double_range(self):
        # |a_n| overflows at n = 9, which the symbol keeps (error) or drops (no error)
        f = DirichletPolynomial({n: complex(1.5e308, 1.5e308) if n == 9 else 1.0 for n in range(2, 200)})
        got, want = norm_outcomes(derivative_multiplier(), f, 0.5, [1, 7])
        assert got == want == "|a_n| at n = 9 overflows double precision, got (1.5e+308+1.5e+308j)"
        for m in (USER_WITH_ZEROS, ARRAY_WITH_ZEROS):
            got, want = norm_outcomes(m, f, 0.5, [1, 7])
            assert got == want and isinstance(got, list)

    def test_user_symbol_read_once_a_term(self):
        reads = []
        m = Multiplier(lambda n: reads.append(n) or complex(1.5, -1.0 / n), "counting")
        f = truncate(eta_rule(), 300)
        samples = ergodicity_diagnostic(m, f, 0.3, 12).samples
        assert reads == list(range(1, 301))
        orbit = loop_orbit(USER_COMPLEX, f, 0.3)
        assert [v.hex() for _, v in samples] == [loop_orbit_norm(orbit, k).hex() for k in range(1, 13)]


class TestPathSelection:
    """Below series._ARRAY_MIN_TERMS terms the constructor, apply and the
    orbit keep their per-term loops, which the 1-9 term calls need to stay
    fast; from it on all three run on arrays.  Checked by the form each
    builds, not by timing."""

    T = series._ARRAY_MIN_TERMS

    def test_one_threshold(self):
        assert operators._ARRAY_MIN_TERMS == dynamics._ARRAY_MIN_TERMS == self.T

    @staticmethod
    def mapping(size):
        return {n: complex(1.0, 1.0 / n) for n in range(2, 2 + size)}

    def test_constructor(self):
        small, bulk = DirichletPolynomial(self.mapping(self.T - 1)), DirichletPolynomial(self.mapping(self.T))
        assert small._map is not None and small._idx is None
        assert bulk._map is None and bulk._idx is not None
        # pairs and mappings of other types keep the loop at any size
        assert DirichletPolynomial(list(self.mapping(self.T).items()))._idx is None
        assert DirichletPolynomial({n: 1 for n in range(2, 2 + self.T)})._idx is None

    def test_orbit(self):
        D = derivative_multiplier()
        small, bulk = DirichletPolynomial(self.mapping(self.T - 1)), DirichletPolynomial(self.mapping(self.T))
        assert isinstance(dynamics._orbit(D, small, 0.5), list)
        assert isinstance(dynamics._orbit(D, bulk, 0.5), dynamics._ArrayOrbit)
        # a user symbol keeps the loop at any size
        assert isinstance(dynamics._orbit(Multiplier(D.symbol, "user"), bulk, 0.5), list)
