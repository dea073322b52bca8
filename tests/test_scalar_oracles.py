"""The earlier scalar implementations, kept as oracles for the kernels that
replaced them.

Each legacy function below is the per-term loop the library used before its
operators went through operators.apply, its grid probes through the shared
boundary-grid kernel, its rules through one vectorized values path, and its
internal results (apply, add, scale, convolution) through the trusted
normal-form constructor and the array convolution kernel.  The grid sup of
seminorm and of the probes, now a GEMM screen and a direct refine, is
checked against the direct boundary-grid kernel it replaced.
The new paths must reproduce them bit for bit, except the resolvent, whose
coefficients are now b * (1 / x) instead of b / x.  Both round differently
in CPython's complex arithmetic; a random search over 10^6 coefficients
found them at most 2.83 ulp of |b / x| apart, so the test allows 4.
"""

import math
from math import fsum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import (
    FULL,
    ZERO_SUBSPACE,
    DirichletPolynomial,
    DomainError,
    Multiplier,
    add,
    apply,
    boundary_values,
    bracket_sigma_u,
    cesaro_mean,
    derivative_multiplier,
    dirichlet_multiply,
    eta_rule,
    integration_multiplier,
    moebius_rule,
    ones_rule,
    power_apply,
    resolvent_apply,
    scale,
    seminorm,
    table_rule,
    zeta_shift_rule,
)
from dirichlet_ops import evaluation
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


def legacy_probe_sup(values, epsilon, t_max, points):
    values = np.asarray(values, dtype=np.complex128)
    ns = np.arange(1, values.size + 1, dtype=np.float64)
    logn = np.log(ns)
    w = values * np.exp(-epsilon * logn)
    ts = np.linspace(0.0, t_max, points)
    sup = 0.0
    t_step = max(1, (1 << 23) // values.size)
    for i in range(0, ts.size, t_step):
        tc = ts[i : i + t_step]
        sup = max(sup, float(np.max(np.abs(w @ np.exp(np.outer(logn, -1j * tc))))))
    return sup


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


class TestBoundaryGridKernel:
    RULES = (ones_rule(), eta_rule(), moebius_rule(), zeta_shift_rule(2), table_rule({1: 1j, 9: 2}))

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.tag)
    def test_probe_bit_equal(self, rule):
        values = rule.values(np.arange(1, 2001, dtype=np.int64))
        est = bracket_sigma_u(rule, 2000, [0.0, 0.5])
        for probe in est.probes:
            assert probe.sup_abs == legacy_probe_sup(values, probe.epsilon, 30.0, 121)

    def test_probe_bit_equal_across_t_chunks(self):
        # 3000 points at 3000 terms exceed one 2^23-entry block: two chunks
        values = eta_rule().values(np.arange(1, 3001, dtype=np.int64))
        [probe] = bracket_sigma_u(eta_rule(), 3000, [0.25], t_max=40.0, points=3000).probes
        assert probe.sup_abs == legacy_probe_sup(values, 0.25, 40.0, 3000)


def assert_grid_sup_bit_equal(logn, w, ts):
    want = float(np.max(np.abs(_grid_values(logn, w, ts))))
    got, refined = _grid_sup(logn, w, ts)
    assert got.hex() == want.hex()
    assert 1 <= refined <= ts.size
    return refined


def legacy_seminorm_lower(f, epsilon, t_max, step):
    t0 = 0.0 if f.has_real_coefficients() else -t_max
    logn = np.log(f.index_array().astype(np.float64))
    upper = fsum(abs(a) * math.exp(-epsilon * ln) for a, ln in zip(f.coefficient_array(), logn))
    ts = np.arange(t0, t_max + 0.5 * step, step)
    return min(float(np.max(np.abs(boundary_values(f, epsilon, ts)))), upper)


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

    @pytest.mark.parametrize("screen", [False, True], ids=["default", "forced-screen"])
    @pytest.mark.parametrize("T", [1, 2])
    def test_tiny_grids(self, monkeypatch, T, screen):
        if screen:
            monkeypatch.setattr(evaluation, "_SCREEN_MIN_SAVING", -math.inf)
        logn = np.log(np.array([1.0, 2.0, 3.0, 7.0]))
        w = np.array([1.0, -0.5 + 0.25j, 2.0, 1e-3j])
        assert_grid_sup_bit_equal(logn, w, np.linspace(-3.0, 5.0, T))

    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_constant_modulus_keeps_every_point(self, n):
        # |c n^(-s)| is the same at every t: every screened point is a candidate
        logn = np.log(np.array([float(n)]))
        ts = np.arange(-100.0, 100.0 + 0.005, 0.01)
        assert assert_grid_sup_bit_equal(logn, np.array([(2.5 - 1j) * n**-0.3]), ts) == ts.size

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
        # 1.5e308 (cos + sin)(t log 2) passes the largest double near t log 2 = pi/4
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
