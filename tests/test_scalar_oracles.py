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
partial_sum runs on the calling thread and must give the old per-term
loop's bits below the Taylor-block floor; past it its Taylor blocks must
agree with that loop within their error bound.  That loop, and the one
evaluate is checked against, form a complex term as CPython does, with no
fused multiply-add, so no oracle bit follows numpy's SIMD level.
apply runs the built-in multipliers, the resolvent and power_apply
iterates on arrays from series._ARRAY_MIN_TERMS terms on and must give the
per-term loop's bits and error messages; polynomials built from arrays must
be indistinguishable from those built from dicts.  From the same threshold
the constructor builds a mapping of int keys to complex or float values
on arrays, and normalized_power_norm and ergodicity_diagnostic form the
orbit terms on arrays; both must give their per-term loops' bits and
exceptions.
The new paths must reproduce them bit for bit, except partial_sum's
Taylor blocks (above) and the resolvent, whose coefficients are now b * (1 / x)
instead of b / x.  Both round differently in CPython's complex arithmetic;
a random search over 10^6 coefficients found them at most 2.83 ulp of
|b / x| apart, so the test allows 4.
"""

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
    coefficient_close,
    compose,
    derivative_multiplier,
    dirichlet_multiply,
    ergodicity_diagnostic,
    eta_rule,
    evaluate,
    identity_multiplier,
    integration_multiplier,
    moebius_rule,
    normalized_power_norm,
    ones_rule,
    partial_sum,
    power_apply,
    replace,
    resolvent_apply,
    scale,
    seminorm,
    table_rule,
    truncate,
    zeta_shift_rule,
)
from dirichlet_ops import abscissa, dynamics, evaluation, operators, series
from dirichlet_ops.evaluation import _grid_screen, _grid_sup, _grid_values
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


def fsum_or_nan(xs):
    """fsum, or nan where it raises on an intermediate overflow or inf - inf."""
    try:
        return fsum(xs)
    except (OverflowError, ValueError):
        return math.nan


def kernel_sum(xs):
    """A bucket's sum as the array kernel defines it: a bucket of one or two
    products by one IEEE add at most (so an overflow gives inf), a larger
    one by fsum_or_nan."""
    return fsum_or_nan(xs) if len(xs) > 2 else sum(xs[1:], xs[0])


def legacy_dirichlet_multiply(f, g, total=fsum):
    buckets = {}
    for n1, a in f.items():
        for n2, b in g.items():
            p = a * b
            re_l, im_l = buckets.setdefault(n1 * n2, ([], []))
            re_l.append(p.real)
            im_l.append(p.imag)
    return DirichletPolynomial(
        {n: complex(total(re_l), total(im_l)) for n, (re_l, im_l) in buckets.items()}
    )


def legacy_coefficient_close(f, g, rtol=1e-12, atol=0.0):
    for n in f.indices() | g.indices():
        a, b = f.coefficient(n), g.coefficient(n)
        if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
            return False
    return True


def array_form(f):
    """f as a polynomial holding its terms as arrays alone."""
    g = series._normal(f.index_array().copy(), f.coefficient_array().copy())
    assert g._map is None
    return g


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


def unfused(x, y):
    """x * y of complex arrays by real products and sums, as CPython forms
    a complex product: no fused multiply-add."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def modulus(z):
    """|z| of complex values by np.hypot, CPython's complex abs bit for bit."""
    return np.hypot(z.real, z.imag)


def pointwise_probe_sup(values, epsilon, t_max, points):
    """The probe's sup from one sum unfused(np.exp(-1j t log n), w).sum()
    per grid point t, each computed alone, with log n and n^(-epsilon) per
    term by math.log and math.exp, the moduli by np.hypot."""
    values = np.asarray(values, dtype=np.complex128)
    logn = np.array([math.log(n) for n in range(1, values.size + 1)])
    w = values * np.array([math.exp(-epsilon * x) for x in logn.tolist()])
    sums = [unfused(np.exp(-1j * t * logn), w).sum() for t in np.linspace(0.0, t_max, points)]
    return float(np.max(modulus(np.array(sums))))


def legacy_partial_sum(rule, s, N, chunk):
    total = 0j
    lo = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while lo <= N:
            hi = min(N, lo + chunk - 1)
            ns = np.arange(lo, hi + 1, dtype=np.int64)
            vals = rule.values(ns)
            if s != 0:
                exps = np.exp(-s * np.log(ns.astype(np.float64)))
                if vals.dtype.kind == "c":
                    # one CPython complex product a term: unfused, at every numpy SIMD level
                    vals = np.array([v * e for v, e in zip(vals.tolist(), exps.tolist())], dtype=np.complex128)
                else:
                    vals = vals * exps
            total += complex(vals.sum())
            lo = hi + 1
    return total


def legacy_evaluate(f, s):
    """evaluate's terms, each one CPython complex product of a_n and numpy's
    exp(-s log n), so unfused at every numpy SIMD level, and np.sum of them."""
    with np.errstate(over="ignore", invalid="ignore"):
        exps = np.exp(-s * series._log(f.index_array()))
        terms = [a * e for a, e in zip(f.coefficient_array().tolist(), exps.tolist())]
        return complex(np.sum(np.array(terms, dtype=np.complex128)))


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

    @pytest.mark.parametrize(
        "ns",
        [
            [10**6 + 3],
            [10**6 + k for k in range(-4, 5)],
            [10**9 + 7],
            [10**9 + k for k in range(-4, 10)],
            [999983**2],
            [1009 * 1013, 31607**2, 31607 * 31627, 999983 * 1000003],
            [2**63 - 1],
            [3 * 2**40, 10**6 + 3, 4 * 31607**2, 31627**2 * 2],
        ],
        ids=["prime-near-1e6", "near-1e6", "prime-near-1e9", "near-1e9", "prime-square", "products-near-roots",
             "2^63-1", "cofactors-shrinking"],
    )
    def test_divisor_block_capped_at_the_live_root(self, ns):
        # trial division tests divisors up to isqrt of the largest live
        # cofactor plus 1, so a prime p^2 needs p itself in the block
        got = series._moebius_trial(np.array(ns, dtype=np.int64))
        assert [float(v) for v in got] == [legacy_moebius_value(n) for n in ns]
        assert [moebius_rule()(n).real for n in ns] == [legacy_moebius_value(n) for n in ns]


def moebius_run_cases():
    """A run lo..lo + len - 1 with lo in [1, 10^12] and len in [2, 5000], all
    below the sieve's cap: a third of the draws start at most 10^6, where
    most primes up to sqrt(hi) divide several indices of the run, and a third
    past 10^11, where most exceed the run's length and go in one array pass."""
    lo = st.one_of(st.integers(1, 10**6), st.integers(1, 10**12), st.integers(10**11, 10**12))
    return st.tuples(lo, st.integers(2, 5000))


class TestMoebiusSieve:
    """series._moebius_sieve against trial division and the scalar oracle,
    and the dispatch of _moebius_values between the two."""

    @given(moebius_run_cases(), st.integers(0, 2**32 - 1))
    def test_runs_match_trial_division(self, case, seed):
        lo, size = case
        hi = lo + size - 1
        got = series._moebius_sieve(lo, hi)
        assert got.shape == (size,)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        assert np.array_equal(moebius_rule().values(ns), got.astype(np.float64))
        if math.isqrt(hi) <= 8 * size:
            # near the origin trial division is cheap on the whole run
            assert np.array_equal(got, series._moebius_trial(ns))
        # far out trial division is slow on a whole run: a sample of it
        rng = np.random.default_rng(seed)
        sample = np.sort(rng.choice(size, min(size, 32), replace=False))
        assert np.array_equal(got[sample], series._moebius_trial(ns[sample]))
        assert [float(v) for v in got[sample[:4]]] == [legacy_moebius_value(int(n)) for n in ns[sample[:4]]]

    @pytest.fixture
    def paths(self, monkeypatch):
        """The path each _moebius_values call took: 'sieve' or 'trial'."""
        taken = []
        sieve, trial = series._moebius_sieve, series._moebius_trial
        monkeypatch.setattr(series, "_moebius_sieve", lambda lo, hi: taken.append("sieve") or sieve(lo, hi))
        monkeypatch.setattr(series, "_moebius_trial", lambda ns: taken.append("trial") or trial(ns))
        return taken

    @pytest.mark.parametrize(
        "ns, path",
        [
            ([7], "trial"),
            (np.arange(300, 1, -1), "trial"),
            ([1, 2, 3, 5, 6], "trial"),
            ([1, 2, 2, 3], "trial"),
            ([1, 3, 2, 4], "trial"),
            (np.arange(1, 101).reshape(10, 10), "sieve"),
            (np.arange(1, 101).reshape(10, 10).T, "trial"),
            (np.arange(801**2 - 99, 801**2 + 1), "sieve"),
            (np.arange(2**44 - 15, 2**44 + 1), "sieve"),
            (np.arange((2**22 + 1) ** 2 - 1, (2**22 + 1) ** 2 + 1), "trial"),
            # past isqrt(hi) = 2^18 a run needs 16 indices for the sieve
            (np.arange(2**44 - 14, 2**44 + 1), "trial"),
            (np.arange(2**36 - 8, 2**36 - 1), "sieve"),
            (np.arange(2**36 - 14, 2**36 + 1), "trial"),
            (np.arange(2**36 - 15, 2**36 + 1), "sieve"),
        ],
        ids=["length-1", "descending", "gap", "duplicate", "swapped", "2-d-run", "2-d-transposed",
             "short-far-run", "isqrt-at-cap", "isqrt-above-cap", "15-at-cap", "7-below-2^36", "15-at-2^36",
             "16-at-2^36"],
    )
    def test_dispatch_edges(self, paths, ns, path):
        ns = np.asarray(ns, dtype=np.int64)
        got = moebius_rule().values(ns)
        assert paths == [path]
        assert got.shape == ns.shape and got.dtype == np.float64
        assert [float(v) for v in got.reshape(-1)] == [legacy_moebius_value(int(n)) for n in ns.reshape(-1)]

    def test_run_of_thousands_from_2_40(self, paths):
        # trial division took minutes on such runs before they were sieved;
        # it checks a sample here
        ns = np.arange(2**40, 2**40 + 4096, dtype=np.int64)
        got = moebius_rule().values(ns)
        assert paths == ["sieve"]
        sample = np.sort(np.random.default_rng(40).choice(ns.size, 48, replace=False))
        assert np.array_equal(got[sample], series._moebius_trial(ns[sample]).astype(np.float64))
        assert {-1.0, 0.0, 1.0} == set(got.tolist())

    def test_run_ending_at_the_last_int64(self, paths, monkeypatch):
        # isqrt(2^63 - 1) is ~3e9: the dispatch must send the run to trial
        # division without overflowing; 2^63 - 2 = 2 * 3 * 715827883 *
        # 2147483647 would take trial division seconds, so it is stubbed
        monkeypatch.setattr(series, "_moebius_trial", lambda ns: paths.append("trial") or np.zeros(ns.shape, np.int64))
        ns = np.array([2**63 - 3, 2**63 - 2, 2**63 - 1], dtype=np.int64)
        assert moebius_rule().values(ns).tolist() == [0.0, 0.0, 0.0]
        assert paths == ["trial"]

    def test_the_last_int64(self):
        # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657, and 2^63 - 4 and
        # 2^63 - 8 are multiples of 4
        ns = [2**63 - 1, 2**63 - 4, 2**63 - 8]
        assert moebius_rule().values(ns).tolist() == [legacy_moebius_value(n) for n in ns] == [0.0] * 3
        assert moebius_rule()(2**63 - 1) == 0

    def test_sieved_partial_sum_against_the_per_term_oracle(self, monkeypatch):
        # 13 chunks of 4096, each sieved.  The terms from the floor
        # F = 7717 on take Taylor blocks, the chunk from 4097 splitting at F,
        # so the per-term oracle agrees within their delta and the rounding
        # of the per-term sums: each term within u (|s| (10 log N + 1) + 64)
        # of its modulus (the log, the phase, the exp, the product, a
        # pairwise sum and the chunk adds), once for the oracle and once for
        # the direct terms
        s = 0.5 + 14.134725j
        F = evaluation._floor(s)
        monkeypatch.setattr(evaluation, "_CHUNK", 4096)
        got = partial_sum(moebius_rule(), s, 50_000)
        delta, mass, blocked = 0.0, 0.0, 0
        for lo in range(1, 50_001, 4096):
            ns = np.arange(lo, min(50_000, lo + 4095) + 1)
            vals = moebius_rule().values(ns)
            mass += fsum((np.abs(vals) * ns ** -s.real).tolist())
            start = max(lo, F)
            if start <= ns[-1]:
                delta += evaluation._block_sum(vals[start - lo :], s, start, evaluation._block_order(s, start))[1]
                blocked += 1
        assert F == 7717 and blocked == 12
        rounding = 2 * 2.0**-53 * mass * (abs(s) * (10 * math.log(50_000) + 1) + 64)
        assert abs(got - legacy_partial_sum(moebius_rule(), s, 50_000, 4096)) <= delta + rounding


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
        # 3000 points at 3000 terms: the screen, then the refine's kept points
        values = eta_rule().values(np.arange(1, 3001, dtype=np.int64))
        [probe] = bracket_sigma_u(eta_rule(), 3000, [0.25], t_max=40.0, points=3000).probes
        assert probe.sup_abs == pointwise_probe_sup(values, 0.25, 40.0, 3000)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 50, 20_000])
    def test_subset_and_single_points_have_the_full_scans_bits(self, monkeypatch, N):
        # a row's products are unfused and its pairwise sum depends only on
        # N, so neither the t-chunk a point falls in nor the other points
        # computed with it move its bits; 40 points in chunks of 16 cross
        # two chunk boundaries
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
            assert complex(unfused(np.exp(-1j * ts[j] * logn), w).sum()) == complex(full[j])

    def test_one_term_grid_equals_single_point_calls(self):
        # at N = 1 numpy ran the (T, 1) block's fused products as one 1-d
        # loop, whose vector body and scalar tail rounded differently: 420
        # of these 1,110 values once differed from the points' lone calls
        f = DirichletPolynomial({7: 0.3 - 1.7j})
        ts = np.linspace(-300.0, 250.0, 1110)
        grid = boundary_values(f, 0.45, ts)
        assert grid.tobytes() == b"".join(boundary_values(f, 0.45, [t]).tobytes() for t in ts.tolist())


def assert_grid_sup_bit_equal(logn, w, ts):
    """_grid_sup of w, one row or a stack of rows, against each row's direct
    scan; returns the rows' refine counts."""
    W = np.atleast_2d(w)
    got, refined = _grid_sup(logn, W, ts)
    assert got.shape == refined.shape == (W.shape[0],)
    for row, sup, count in zip(W, got.tolist(), refined.tolist()):
        want = float(np.max(modulus(_grid_values(logn, row, ts))))
        assert sup.hex() == want.hex()
        assert 1 <= count <= ts.size
    return refined


def legacy_seminorm_lower(f, epsilon, t_max, step):
    """The direct scan's max, floored by the largest term, capped at upper."""
    t0 = 0.0 if f.has_real_coefficients() else -t_max
    logn = np.log(f.index_array().astype(np.float64))
    terms = [abs(a) * math.exp(-epsilon * ln) for a, ln in zip(f.coefficient_array(), logn)]
    ts = np.arange(t0, t_max + 0.5 * step, step)
    return min(max(float(np.max(modulus(boundary_values(f, epsilon, ts)))), max(terms)), fsum(terms))


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


def assert_screen_within_delta(logn, w, ts):
    """_grid_screen's bound at every point of every row of w, one row or a
    stack of rows."""
    W = np.atleast_2d(w)
    S, delta = _grid_screen(logn, W, ts)
    assert S.shape == (W.shape[0], ts.size) and delta.shape == (W.shape[0],)
    for row, S_row, bound in zip(W, S, delta.tolist()):
        D = _grid_values(logn, row, ts)
        assert math.isfinite(bound)
        assert np.all(np.abs(S_row - D) <= bound)


@st.composite
def stacked_cases(draw):
    """A 1-400 term polynomial on indices <= 3000, weighted by n^(-eps) at
    1-5 epsilons (repeats among them, or one row), on a grid of 1 or 2
    points or on one- or two-sided arange grids, seminorm's t0 = -t_max
    among them."""
    n_terms = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.sort(rng.choice(np.arange(1, 3001), n_terms, replace=False))
    coeffs = rng.normal(size=n_terms) * 4.0
    if draw(st.booleans()):
        coeffs = coeffs + 4j * rng.normal(size=n_terms)
    logn = series._log(idx)
    eps = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0)), min_size=1, max_size=5))
    W = np.array([coeffs * series._exp(-e * logn) for e in eps])
    t_max = draw(st.floats(0.5, 50.0))
    T = draw(st.sampled_from([1, 2, None]))
    if T is not None:
        return logn, W, np.linspace(-t_max if draw(st.booleans()) else 0.0, t_max, T)
    step = draw(st.sampled_from([0.02, 0.05, 0.125, 0.3]))
    t0 = -t_max if draw(st.booleans()) else 0.0
    return logn, W, np.arange(t0, t_max + 0.5 * step, step)


class TestGridScreen:
    """_grid_screen's stated bound |S_j - D_j| <= delta, at every point of
    every row of the grids TestGridSup checks, D being the direct kernel's
    values."""

    @given(grid_cases())
    def test_random_polynomials(self, case):
        assert_screen_within_delta(*case)

    @given(stacked_cases())
    def test_stacked_rows(self, case):
        assert_screen_within_delta(*case)

    def test_stacked_probe_rows(self):
        # bracket_sigma_u's stack: 20000 terms at four epsilons, in blocks
        values = eta_rule().values(np.arange(1, 20001, dtype=np.int64))
        logn = series._log(np.arange(1, 20001, dtype=np.int64))
        W = np.array([values * series._exp(-e * logn) for e in (0.0, 0.1, 0.5, 1.0)])
        assert_screen_within_delta(logn, W, np.linspace(0.0, 30.0, 121))

    @pytest.mark.parametrize("N", [2000, 20000])
    @pytest.mark.parametrize("rule", TestBoundaryGridKernel.RULES, ids=lambda r: r.tag)
    def test_probe_rules(self, rule, N):
        # 20000 terms take the screen two blocks, of 11397 terms and the rest
        values = rule.values(np.arange(1, N + 1, dtype=np.int64))
        logn = np.log(np.arange(1, N + 1, dtype=np.float64))
        ts = np.linspace(0.0, 30.0, 121)
        for eps in (0.0, 0.5):
            assert_screen_within_delta(logn, values * np.exp(-eps * logn), ts)

    def test_two_t_chunks(self):
        # 3000 points at 3000 terms: the screen takes blocks of 2361 terms,
        # the last short, and the direct values D cross t-chunks (_t_step)
        logn = np.log(np.arange(1, 3001, dtype=np.float64))
        w = eta_rule().values(np.arange(1, 3001, dtype=np.int64)) * np.exp(-0.25 * logn)
        ts = np.linspace(0.0, 40.0, 3000)
        assert evaluation._t_step(logn.size) < ts.size
        assert_screen_within_delta(logn, w, ts)

    def test_seminorm_default_grid(self):
        rng = np.random.default_rng(50)
        idx = np.sort(rng.choice(np.arange(1, 1001), 50, replace=False))
        logn = np.log(idx.astype(np.float64))
        ts = np.arange(0.0, 1000.0 + 0.005, 0.01)
        assert ts.size == 100_001
        assert_screen_within_delta(logn, rng.normal(size=50) * np.exp(-0.25 * logn), ts)

    @pytest.mark.parametrize("idx", [[1, 2], [3, 5, 7, 11], [2**40, 2**40 + 1, 2**62], [999_983]])
    def test_long_doubling_chains(self, idx):
        # 100,001 points and at most 4 terms: R and A take 317 rows each,
        # built by doubling from r and q in one block of the terms
        logn = series._log(np.array(idx, dtype=np.int64))
        w = np.array([(1.5 - 0.5j) * (k + 1) for k in range(len(idx))]) * np.exp(-0.3 * logn)
        for ts in (np.arange(0.0, 1000.0 + 0.005, 0.01), np.arange(-500.0, 500.0 + 0.005, 0.01)):
            assert ts.size >= 100_000
            assert_screen_within_delta(logn, w, ts)

    @pytest.mark.parametrize("T", [1, 2, 7, 1110])
    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_single_terms(self, n, T):
        logn = np.log(np.array([float(n)]))
        assert_screen_within_delta(logn, np.array([(2.5 - 1j) * n**-0.3]), np.linspace(-100.0, 100.0, T))


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
        # a 3000-point grid at 3000 terms through the screen and the refine
        # of its kept points (TestGridScreen runs the full grid's t-chunks)
        logn = np.log(np.arange(1, 3001, dtype=np.float64))
        w = eta_rule().values(np.arange(1, 3001, dtype=np.int64)) * np.exp(-0.25 * logn)
        assert_grid_sup_bit_equal(logn, w, np.linspace(0.0, 40.0, 3000))

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
        # candidate, and the refine recomputes the whole grid
        logn = np.log(np.array([float(n)]))
        ts = np.linspace(-100.0, 100.0, T)
        assert assert_grid_sup_bit_equal(logn, np.array([(2.5 - 1j) * n**-0.3]), ts) == T

    @given(stacked_cases())
    def test_stacked_rows_equal_lone_rows(self, case):
        # a row of a stacked screen keeps the points a lone screen of that
        # row keeps, and has its maximum, bit for bit
        logn, W, ts = case
        sups, refined = _grid_sup(logn, W, ts)
        for row, sup, count in zip(W, sups.tolist(), refined.tolist()):
            (lone_sup,), (lone_count,) = _grid_sup(logn, row[None], ts)
            assert sup.hex() == float(lone_sup).hex() and count == lone_count
        assert_grid_sup_bit_equal(logn, W, ts)

    @pytest.mark.parametrize("rule", TestBoundaryGridKernel.RULES, ids=lambda r: r.tag)
    def test_probes_stacked_and_alone(self, rule):
        # six probes take two stacks (abscissa._PROBE_STACK = 4), a repeated
        # epsilon among them; each probe is the one a call of it alone gives
        assert abscissa._STACK_ENTRIES // (3000 + 121) >= abscissa._PROBE_STACK
        eps = [0.0, 0.1, 0.5, 0.1, 1.0, 0.25]
        est = bracket_sigma_u(rule, 3000, eps)
        assert est.probes == tuple(bracket_sigma_u(rule, 3000, [e]).probes[0] for e in eps)

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


def _kernel_polys(part):
    """Polynomials of 11 to 14 terms on indices 1..14, so a pair of them
    takes the array kernel (121 pairs at least) with buckets of up to 6
    products; each coefficient's parts are drawn from `part`."""
    coefficient = st.builds(complex, part, part).filter(bool)
    terms = st.lists(st.tuples(st.integers(1, 14), coefficient), min_size=11, max_size=14, unique_by=lambda t: t[0])
    return terms.map(DirichletPolynomial)


@st.composite
def wide_kernel_pairs(draw):
    """Parts from 2^-997 to 2^997 (about 1e-300 to 1e300), each polynomial
    around its own scale, the scales set so that the pair products land
    anywhere from below the subnormals to past the largest double."""
    ef = draw(st.integers(-997, 997))
    eg = draw(st.integers(max(-997, -1100 - ef), min(997, 1060 - ef)))

    def part(e):
        return st.builds(lambda m, k: math.ldexp(m, min(997, max(-997, e + k))),
                         st.floats(-1.0, 1.0), st.integers(-30, 30))

    return draw(_kernel_polys(part(ef))), draw(_kernel_polys(part(eg)))


@st.composite
def cancelling_kernel_pairs(draw):
    """f's parts from {v, -v, 2v, -v/2, t, -t}, t far below v, and g's from
    {1, -1, 2, 0.5, 0}: most buckets hold products p and -p that cancel,
    leaving the tiny ones."""
    v = draw(st.floats(1e-300, 1e300))
    t = math.ldexp(v, -draw(st.integers(20, 1100)))
    f = draw(_kernel_polys(st.sampled_from([v, -v, 2 * v, -v / 2, t, -t])))
    return f, draw(_kernel_polys(st.sampled_from([1.0, -1.0, 2.0, 0.5, 0.0])))


# dyadic parts, whose products often sum to exact midpoints between doubles
# (1 + 2^-53 and the like)
_tie_parts = st.sampled_from(
    [1.0, -1.0, 0.5, 1.5, 2.0**-53, -(2.0**-53), 3 * 2.0**-53, 2.0**-52, 2.0**-54,
     1 + 2.0**-52, -(1 + 2.0**-52), 2.0**53, -(2.0**53), 0.0]
)

# parts of 2^500 to 2^531: some products overflow, some buckets of finite
# products overflow only in their sum
_overflow_parts = st.builds(lambda m, k: math.ldexp(m, k), st.floats(-1.0, 1.0), st.integers(500, 531))


def sum2(parts):
    """fl(s + c) of the compensated pass for one bucket, in Python floats."""
    s, c = parts[0], 0.0
    for p in parts[1:]:
        t = s + p
        z = t - s
        c += (s - (t - z)) + (p - z)
        s = t
    return s + c


def product_outcome(multiply, f, g):
    """multiply(f, g)'s bits, or its DomainError message."""
    try:
        return bits(multiply(f, g))
    except DomainError as e:
        return str(e)


def bucket_six(parts):
    """A kernel-sized pair whose bucket at index 6 holds `parts` (3 or 4 of
    them) in pair order, f_1 g_6, f_2 g_3, f_3 g_2 (and f_6 g_1); every other
    bucket holds one or two products, all finite.  g_1 = 2^-60 keeps the
    two-product buckets 2 and 3 finite for parts near the largest double."""
    f = dict(zip((1, 2, 3, 6), parts))
    f.update((n, 1.0) for n in (7, 11, 13, 29, 31, 37, 41, 43)[: 11 - len(parts)])
    g = {1: 2.0**-60, 2: 1.0, 3: 1.0, 6: 1.0, 17: 1.0, 19: 1.0, 23: 1.0, 47: 1.0, 53: 1.0, 59: 1.0, 61: 1.0}
    if len(parts) == 4:
        f[6] = parts[3] / g[1]
    return DirichletPolynomial(f), DirichletPolynomial(g)


@st.composite
def loop_pairs(draw):
    """Two polynomials whose product takes the per-pair loop, either one of
    one term as often as not, on indices 1..12, so buckets hold one to six
    products; parts from _component (-0.0 products among them), the dyadic
    ties or the overflow range; either may hold its terms as arrays."""
    part = draw(st.sampled_from([_component, _tie_parts, _overflow_parts]))
    coefficient = st.builds(complex, part, part).filter(bool)

    def poly(size):
        terms = st.lists(st.tuples(st.integers(1, 12), coefficient), min_size=size, max_size=size,
                         unique_by=lambda t: t[0])
        f = DirichletPolynomial(draw(terms))
        return array_form(f) if draw(st.booleans()) else f

    n_f = draw(st.one_of(st.just(1), st.integers(1, 12)))
    n_g = draw(st.one_of(st.just(1), st.integers(1, min(12, (_KERNEL_MIN_PAIRS - 1) // n_f))))
    return poly(n_f), poly(n_g)


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

    @pytest.mark.parametrize("n_f, n_g", [(1, 1), (5, 3), (10, 11), (11, 11), (12, 12), (40, 40)])
    def test_both_sides_of_pair_constant(self, n_f, n_g, rng):
        for _ in range(20):
            f = DirichletPolynomial({int(n): complex(*rng.normal(size=2))
                                     for n in rng.choice(np.arange(1, 41), n_f, replace=False)})
            g = DirichletPolynomial({int(n): complex(*rng.normal(size=2))
                                     for n in rng.choice(np.arange(1, 41), n_g, replace=False)})
            assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))
        assert 10 * 11 < _KERNEL_MIN_PAIRS <= 11 * 11

    def test_buckets_of_one_two_and_more(self):
        f = DirichletPolynomial({n: complex(1.0 / n, -(n % 3)) for n in range(1, 13)})
        g = DirichletPolynomial({n: complex(-0.0 if n % 2 else 0.3, 1.0 / n) for n in range(1, 11)})
        assert {1, 2, 3, 4} <= bucket_sizes(f, g)
        assert f.term_count * g.term_count >= _KERNEL_MIN_PAIRS
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))

    @pytest.mark.parametrize("top", [2**20, 2**50], ids=["packed-key-sort", "argsort"])
    def test_both_sorts(self, top, rng):
        # 32 x 32 pairs: the packed key fits in int64 at 2^20 and not at 2^50,
        # where the kernel argsorts; buckets such as top * 12 hold 3+ products
        f = DirichletPolynomial({top * k: complex(*rng.normal(size=2)) for k in range(1, 33)})
        g = DirichletPolynomial({k: complex(*rng.normal(size=2)) for k in range(1, 33)})
        assert ((f.max_index * g.max_index + 1) * 32 * 32 <= 2**63) == (top == 2**20)
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))
        assert bits(dirichlet_multiply(g, f)) == bits(legacy_dirichlet_multiply(f, g))

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

    # the draws below compare the outcome, bits or DomainError message, with
    # the old loop's summing each bucket by kernel_sum; pyproject.toml turns
    # any RuntimeWarning that escapes into an error
    @given(wide_kernel_pairs())
    def test_wide_magnitudes_and_subnormal_products(self, pair):
        f, g = pair
        want = product_outcome(lambda a, b: legacy_dirichlet_multiply(a, b, kernel_sum), f, g)
        assert product_outcome(dirichlet_multiply, f, g) == want

    @given(cancelling_kernel_pairs())
    def test_cancelling_buckets(self, pair):
        f, g = pair
        want = bits(legacy_dirichlet_multiply(f, g))
        assert product_outcome(dirichlet_multiply, f, g) == want

    @given(_kernel_polys(_tie_parts), _kernel_polys(_tie_parts))
    def test_midpoint_sums(self, f, g):
        want = bits(legacy_dirichlet_multiply(f, g))
        assert product_outcome(dirichlet_multiply, f, g) == want

    @given(_kernel_polys(_overflow_parts), _kernel_polys(_overflow_parts))
    def test_overflowing_products(self, f, g):
        want = product_outcome(lambda a, b: legacy_dirichlet_multiply(a, b, kernel_sum), f, g)
        assert product_outcome(dirichlet_multiply, f, g) == want

    @pytest.mark.parametrize("n", [2, 11], ids=["per-pair-loop", "array-kernel"])
    def test_overflowing_two_product_bucket(self, n):
        # the bucket at 2 holds 1e308 * 1 twice, and its sum overflows: inf
        # on both paths, where the loop's fsum raised and reported nan
        f = DirichletPolynomial({k: 1e308 for k in range(1, n + 1)})
        g = DirichletPolynomial({k: 1 for k in range(1, n + 1)})
        assert (n * n >= _KERNEL_MIN_PAIRS) == (n == 11)
        with pytest.raises(DomainError) as got:
            dirichlet_multiply(f, g)
        assert str(got.value) == "coefficient at n=2 must be finite, got (inf+0j)"

    # the loop against the old one with buckets summed as the kernel sums
    # them, so an overflowing two-product bucket gives inf in both
    @given(loop_pairs())
    def test_per_pair_loop(self, pair):
        f, g = pair
        assert f.term_count * g.term_count < _KERNEL_MIN_PAIRS
        for a, b in ((f, g), (g, f)):
            want = product_outcome(lambda x, y: legacy_dirichlet_multiply(x, y, kernel_sum), a, b)
            assert product_outcome(dirichlet_multiply, a, b) == want

    @pytest.mark.parametrize("one_side", ["f", "g"])
    def test_one_term_operand(self, one_side):
        # every bucket holds one product; 1j * -1 has real part -0.0, the
        # product at 3 * 7 overflows
        one = DirichletPolynomial({3: 1j})
        other = DirichletPolynomial({1: -1.0, 2: 0.5 - 2j, 5: 1e-320 + 3j, 9: 0.25j})
        f, g = (one, other) if one_side == "f" else (other, one)
        got = dirichlet_multiply(f, g)
        assert list(got.indices()) == [3, 6, 15, 27]
        assert bits(got) == bits(legacy_dirichlet_multiply(f, g))
        assert math.copysign(1.0, got.coefficient(3).real) == 1.0
        huge = DirichletPolynomial({7: 1e200 + 1e200j})
        for a, b in ((huge, DirichletPolynomial({1: 1.0, 3: 1e200})), (DirichletPolynomial({1: 1.0, 3: 1e200}), huge)):
            with pytest.raises(DomainError) as got:
                dirichlet_multiply(a, b)
            assert str(got.value) == "coefficient at n=21 must be finite, got (inf+infj)"

    @pytest.fixture
    def fsum_calls(self, monkeypatch):
        """The buckets _bucket_sums sends to _fsum, as lists."""
        calls = []
        fsum_of = series._fsum
        monkeypatch.setattr(series, "_fsum", lambda xs: calls.append(list(xs)) or fsum_of(xs))
        return calls

    @pytest.mark.parametrize(
        "parts, path",
        [
            # 2^-60 + 3 * 2^-115 is inexact, so the flag is set; fl(s + c) = 1
            # is 2^-60 from the sum, far inside its half gap 2^-54
            ([1.0, 2.0**-60, 3 * 2.0**-115], "bound"),
            # every TwoSum of c is exact, and s + c = 1 + 2^-53 sits on the
            # midpoint: the half-gap test cannot settle it, the flag does
            ([1.0, 2.0**-53, -(2.0**-60), 2.0**-60], "flag"),
            # s + c = 1 + 2^-53 rounds to 1, but the exact sum is past the
            # midpoint and rounds to 1 + 2^-52: only fsum gets it right
            ([1.0, 2.0**-53, 2.0**-120], "fsum"),
            # s + c = 1.5 + 2^-53 - 2^-106 is within its half gap, but the
            # four products c loses put the exact sum past the midpoint;
            # Sum2's bound term sends the bucket to fsum
            ([1.5, 2.0**-53, -(2.0**-106), *[3 * 2.0**-109] * 4], "fsum"),
            # the same after a tiny first product: the bound counts every |p|
            ([2.0**-200, 1.5, 2.0**-53, -(2.0**-106), *[3 * 2.0**-109] * 4], "fsum"),
        ],
    )
    def test_acceptance_paths(self, parts, path, fsum_calls):
        got = series._bucket_sums(np.array([parts]).T, np.array([0]), np.array([len(parts)]), np.arange(len(parts)))
        assert got[0, 0].hex() == fsum(parts).hex()
        assert fsum_calls == ([parts] if path == "fsum" else [])
        assert (sum2(parts) == fsum(parts)) == (path != "fsum")
        if len(parts) > 4:
            return
        f, g = bucket_six(parts)
        got = dirichlet_multiply(f, g)
        assert got.coefficient(6) == fsum(parts)
        assert bits(got) == bits(legacy_dirichlet_multiply(f, g))

    def test_fallback_takes_pair_order(self, fsum_calls):
        # fsum overflows on 1e308 + 1e308 before -1e308 comes; in pair order
        # (rank) the partials stay finite and the sum is 1e308
        prods = np.array([[1e308], [1e308], [-1e308]])
        got = series._bucket_sums(prods, np.array([0]), np.array([3]), np.array([0, 2, 1]))
        assert got.tolist() == [[1e308]] and fsum_calls == [[1e308, -1e308, 1e308]]
        f, g = bucket_six([1e308, -1e308, 1e308])
        assert dirichlet_multiply(f, g).coefficient(6) == 1e308
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))
        assert bits(dirichlet_multiply(g, f)) == bits(legacy_dirichlet_multiply(f, g))

    def test_partials_past_the_largest_double(self, fsum_calls):
        # sum|p| rounds to the largest double M, so the pass never overflows
        # and reads fl(s + c) = 2^970, the exact sum; but fsum's partial
        # M + 2^970 rounds to inf, and _fsum's nan is the result
        parts = [sys.float_info.max, 2.0**969, 2.0**969, -sys.float_info.max]
        got = series._bucket_sums(np.array([parts]).T, np.array([0]), np.array([4]), np.arange(4))
        assert math.isnan(got[0, 0]) and fsum_calls == [parts]

    def test_gaussian_300_by_300_settles_every_bucket(self, rng, monkeypatch):
        calls = []
        fsum_of = series._fsum
        monkeypatch.setattr(series, "_fsum", lambda xs: calls.append(1) or fsum_of(xs))
        f = DirichletPolynomial({n: complex(*rng.normal(size=2)) for n in range(1, 301)})
        g = DirichletPolynomial({n: complex(*rng.normal(size=2)) for n in range(1, 301)})
        assert bits(dirichlet_multiply(f, g)) == bits(legacy_dirichlet_multiply(f, g))
        assert calls == []

    def test_buckets_of_mixed_lengths_in_one_pass(self, fsum_calls):
        # lengths 3 to 6, longest not first, each bucket with its own path;
        # the second column, the first negated, shares the buckets
        parts = [[1.0, 2.0**-60, 3 * 2.0**-115], [1.0, 2.0**-53, 2.0**-120, 0.0, 0.0, 0.0],
                 [1.0, 2.0**-53, -(2.0**-60), 2.0**-60], [0.5, 0.25, 0.125, 0.0625, 2.0**-80]]
        row = np.concatenate(parts)
        hi = np.cumsum([len(p) for p in parts])
        got = series._bucket_sums(np.array([row, -row]).T, hi - [len(p) for p in parts], hi, np.arange(row.size))
        assert [x.hex() for x in got[:, 0].tolist()] == [fsum(p).hex() for p in parts]
        assert got[:, 1].tolist() == (-got[:, 0]).tolist()
        assert fsum_calls == [parts[1], [-x for x in parts[1]]]


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


@st.composite
def close_cases(draw):
    """(f, g, rtol, atol): g is f with each coefficient kept, dropped or
    nudged by a relative step near 1e-12, plus a few terms of its own; rtol
    and atol are 0, the defaults, or |f_n - g_n| at a drawn index (over the
    larger modulus for rtol) and the doubles beside it, the edges of the
    comparison.  Either polynomial may hold its terms as arrays."""
    f = DirichletPolynomial(draw(_terms(64, 10)))
    kept = {}
    for n, a in f.items():
        step = draw(st.sampled_from([None, 0.0, 1e-13, 1e-12, -1e-12, 3e-12]))
        if step is not None:
            kept[n] = a * (1 + step)
    g = DirichletPolynomial([*kept.items(), *draw(_terms(64, 3))])
    rtols, atols = [0.0, 1e-12], [0.0]
    union = sorted(f.indices() | g.indices())
    if union:
        n = draw(st.sampled_from(union))
        a, b = f.coefficient(n), g.coefficient(n)
        d = abs(a - b)
        atols += [d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)]
        if d:
            r = d / max(abs(a), abs(b))
            rtols += [r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)]
    f, g = (array_form(h) if draw(st.booleans()) else h for h in (f, g))
    return f, g, draw(st.sampled_from(rtols)), draw(st.sampled_from(atols))


class TestCoefficientClose:
    @given(close_cases())
    def test_against_the_per_index_loop(self, case):
        f, g, rtol, atol = case
        want = legacy_coefficient_close(f, g, rtol, atol)
        assert coefficient_close(f, g, rtol, atol) == want
        assert coefficient_close(g, f, rtol, atol) == want


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


class TestStreamedPartialSum:
    """partial_sum below the Taylor-block floor, bit for bit the per-term
    loop, on the calling thread."""

    @given(rule=_STREAM_RULES, stream=_streams())
    def test_bits_equal_the_per_term_loop(self, rule, stream):
        s, N, chunk = stream
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_CHUNK", chunk)
            got = partial_sum(rule, s, N)
        assert complex_bits(got) == complex_bits(legacy_partial_sum(rule, s, N, chunk))

    def test_first_error_in_chunk_order(self, monkeypatch):
        # 5 chunks of 8; chunks 3 and 4 both raise, and chunk 3 must win
        def vec(ns):
            if ns[0] in (17, 25):
                raise DomainError(f"rule failed in the chunk from {ns[0]}")
            return np.ones(ns.shape)

        monkeypatch.setattr(evaluation, "_CHUNK", 8)
        with pytest.raises(DomainError, match="chunk from 17$"):
            partial_sum(CoefficientRule("failing", vec), 0.5 + 2j, 40)


BUILT_IN = (derivative_multiplier(), integration_multiplier(), identity_multiplier())

# small indices and indices up to 2^62, which round to their doubles
wide_indices = st.one_of(st.integers(2, 10**4), st.integers(2, 2**62))


def wide_polys(max_terms=40):
    pairs = st.tuples(wide_indices, wide_coefficients)
    return st.lists(pairs, min_size=1, max_size=max_terms).map(DirichletPolynomial)


# coefficients with a zero real or imaginary part, and of any modulus
zero_part_coefficients = st.one_of(
    wide_coefficients, st.floats(-8.0, 8.0).map(complex), st.floats(-8.0, 8.0).map(lambda y: complex(0.0, y))
)


class TestEvaluate:
    """evaluate, on either path, bit for bit the unfused per-term products
    and numpy's sum of them, at s = 0 too (there its values' sum)."""

    @given(f=st.lists(st.tuples(wide_indices, zero_part_coefficients), max_size=40).map(DirichletPolynomial),
           points=st.lists(st.one_of(st.sampled_from([0j, 0.5 + 0j, -1 + 0j, 1e-3j, 0.5 + 14j]),
                                     st.builds(complex, st.floats(-40.0, 40.0), st.floats(-1e3, 1e3))),
                           min_size=5, max_size=5))
    def test_bits_equal_the_product_and_sum(self, f, points):
        for s in points:
            want = legacy_evaluate(f, s)
            if math.isfinite(want.real) and math.isfinite(want.imag):
                assert complex_bits(evaluate(f, s)) == complex_bits(want)
            else:
                with pytest.raises(DomainError, match="overflows"):
                    evaluate(f, s)


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
            assert m._array_symbol is None
            assert bits(apply(m, f)) == bits(legacy_apply(D, f))

    def test_array_symbol_taken_from_the_crossover_on(self, monkeypatch):
        # the scalar symbol raises: only the array symbol can give a value
        def refuse(n):
            raise ZeroDivisionError("scalar symbol read")

        m = operators._with_array_symbol(Multiplier(refuse, "arrays only"), derivative_multiplier()._array_symbol)
        monkeypatch.setattr(operators, "_ARRAY_MIN_TERMS", 96)
        f = truncate(eta_rule(), 96)
        assert bits(apply(m, f)) == bits(legacy_apply(derivative_multiplier(), f))
        with pytest.raises(ZeroDivisionError):
            apply(m, truncate(eta_rule(), 95))

    def test_array_symbol_left_out_of_equality(self):
        D = derivative_multiplier()
        assert replace(D)._array_symbol is None
        assert replace(D) == D
        assert hash(replace(D)) == hash(D)
        assert "_array_symbol" not in repr(D)


@pytest.mark.parametrize("k", [1, 5, 40])
def test_cesaro_and_compose_reset_the_array_symbol(k, rng):
    # a mean or a composite that kept the derivative's array symbol would
    # multiply by -log n at this size
    D = derivative_multiplier()
    idx = rng.choice(np.arange(2, 10**4), size=operators._ARRAY_MIN_TERMS + 4, replace=False)
    f = DirichletPolynomial({int(n): complex(*rng.normal(size=2)) for n in idx})
    assert bits(cesaro_mean(D, k, f)) == bits(legacy_cesaro_mean(D, k, f))
    DD = compose(D, D)
    assert bits(apply(DD, f)) == bits(legacy_apply(DD, f))


def test_replace_drops_the_array_symbol():
    # a replaced built-in carries no array symbol, so past the crossover its
    # products follow the new symbol (2), not the derivative's -log n
    m = replace(derivative_multiplier(), symbol=lambda n: 2.0, label="two")
    assert m._array_symbol is None
    f = truncate(ones_rule(), 200)
    assert f.term_count >= operators._ARRAY_MIN_TERMS
    assert [(n, a) for n, a in apply(m, f).items()] == [(n, 2 * a) for n, a in f.items()]
    assert bits(apply(m, f)) == bits(legacy_apply(m, f))
    for k in (2, 3, 101):
        assert bits(power_apply(m, k, f)) == bits(legacy_power_apply(m, k, f))
    orbit = loop_orbit(m, f, 0.5)
    for k in (1, 2, 40):
        assert normalized_power_norm(m, f, 0.5, k).hex() == loop_orbit_norm(orbit, k).hex()
    samples = ergodicity_diagnostic(m, f, 0.5).samples
    assert [(k, v.hex()) for k, v in samples] == [(k, loop_orbit_norm(orbit, k).hex()) for k in range(1, 41)]


@pytest.mark.parametrize(
    "call, arrays",
    [
        (lambda f: apply(derivative_multiplier(), f), True),
        (lambda f: apply(integration_multiplier(), f), True),
        (lambda f: apply(identity_multiplier(), f), True),
        (lambda f: resolvent_apply(0.5 + 1j, f, FULL), True),
        (lambda f: power_apply(derivative_multiplier(), 100, f), True),
        (lambda f: power_apply(derivative_multiplier(), 101, f), False),
        (lambda f: cesaro_mean(derivative_multiplier(), 3, f), False),
    ],
    ids=["derivative", "integration", "identity", "resolvent", "power-100", "power-101", "cesaro"],
)
def test_array_path_from_the_crossover_on(monkeypatch, call, arrays):
    # the package attaches an array symbol to the built-ins, the resolvent
    # and iterates for k <= 100; apply forms its products on arrays from
    # _ARRAY_MIN_TERMS terms on, and only there
    calls = []
    product = operators._product
    monkeypatch.setattr(operators, "_product", lambda *args: calls.append(args) or product(*args))
    for N, want in ((operators._ARRAY_MIN_TERMS - 1, False), (operators._ARRAY_MIN_TERMS, arrays)):
        calls.clear()
        call(DirichletPolynomial({n: 1.0 for n in range(2, N + 2)}))
        assert bool(calls) == want


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


class TestLogCarrier:
    """log_index_array: log n of each index, built once, read-only, kept by
    apply's results and never built by a call on the dict form."""

    def test_bits_equal_series_log(self, rng):
        idx, c = TestCarrier.pairs(rng)
        idx = np.concatenate(([1, 2], idx[idx > 2], [2**62, 2**63 - 1]))
        c = np.resize(c, idx.size)
        for f in (TestCarrier.dict_built(idx, c), DirichletPolynomial({int(n): complex(a) for n, a in zip(idx, c)})):
            assert f.log_index_array().tobytes() == series._log(f.index_array()).tobytes()
            assert f.log_index_array() is f.log_index_array()

    def test_read_only(self):
        logn = truncate(eta_rule(), 200).log_index_array()
        with pytest.raises(ValueError, match="read-only"):
            logn[0] = 7.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: apply(derivative_multiplier(), f),
            lambda f: apply(integration_multiplier(), apply(derivative_multiplier(), f)),
            lambda f: resolvent_apply(0.3 + 1j, f, FULL),
            lambda f: power_apply(derivative_multiplier(), 3, f),
            lambda f: apply(identity_multiplier(), f),
        ],
        ids=["derivative", "integration", "resolvent", "power", "identity"],
    )
    def test_results_inherit_it(self, call):
        # the derivative drops n = 1 (log 1 = 0): the logs kept are the
        # terms kept
        f = truncate(table_rule({n: 1.0 + n * 1j for n in range(1, 300) if n % 7}), 299)
        f.log_index_array()
        g = call(f)
        assert g._logn is not None and not g._logn.flags.writeable
        assert g._logn.tobytes() == series._log(g.index_array()).tobytes()

    def test_dropped_terms_are_gathered_out(self):
        f = truncate(table_rule({n: 1.0 for n in range(1, 200)}), 199)
        f.log_index_array()
        m = operators._with_array_symbol(
            Multiplier(lambda n: 0.0 if n % 3 == 0 else 2.0, "zero at 3 | n"),
            lambda g: (np.where(g.index_array() % 3 == 0, 0.0, 2.0), np.zeros(g.term_count)),
        )
        g = apply(m, f)
        assert g.index_array().tolist() == [n for n in range(1, 200) if n % 3]
        assert g._logn.tobytes() == series._log(g.index_array()).tobytes()

    def test_not_built_unasked(self):
        # a result of a polynomial that never built its logs does not build them
        f = truncate(eta_rule(), 200)
        assert apply(identity_multiplier(), f)._logn is None and f._logn is None

    def test_dict_form_calls_do_not_build_it(self):
        f = DirichletPolynomial({2: 1.5, 3: -0.5j, 10: 2.0})
        evaluate(f, 0.5 + 3j)
        apply(derivative_multiplier(), f)
        resolvent_apply(0.3 + 1j, f, FULL)
        normalized_power_norm(derivative_multiplier(), f, 0.25, 5)
        ergodicity_diagnostic(derivative_multiplier(), f, 0.25)
        hash(f)
        assert f._idx is None and f._logn is None

    def test_equality_and_hash_ignore_it(self, rng):
        idx, c = TestCarrier.pairs(rng)
        f, g = (DirichletPolynomial({int(n): complex(a) for n, a in zip(idx, c)}) for _ in range(2))
        f.log_index_array()
        assert f._logn is not None and g._logn is None
        assert f == g and hash(f) == hash(g)
        assert f == TestCarrier.dict_built(idx, c)


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
ARRAY_WITH_ZEROS = operators._with_array_symbol(
    replace(USER_WITH_ZEROS, label="array with zeros"),
    lambda f: (np.where(f.index_array() % 3 == 0, 0.0, 2.0 + 1e-3 * f.index_array()), np.zeros(f.term_count)),
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
        m = operators._with_array_symbol(
            Multiplier(lambda n: bad if n == 77 else -math.log(n), "bad at 77"),
            lambda g: (np.where(g.index_array() == 77, bad.real, D._array_symbol(g)[0]),
                       np.where(g.index_array() == 77, bad.imag, 0.0)),
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
