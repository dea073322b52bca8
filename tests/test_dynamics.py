import cmath
import math
import random
import sys
import time

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import (
    DirichletPolynomial,
    DomainError,
    Multiplier,
    add,
    apply,
    cesaro_mean,
    coefficient_close,
    derivative_multiplier,
    ergodicity_diagnostic,
    identity_multiplier,
    integration_multiplier,
    monomial,
    normalized_power_norm,
    power_apply,
    scale,
    seminorm,
)

from conftest import diagnostic_and_norms, poly_strategy

LOG_LOG_3 = 0.09404782761669901


class TestPowerApply:
    @pytest.mark.parametrize("k", [1, 2, 7, 25])
    def test_derivative_iterates_on_monomial(self, k):
        got = power_apply(derivative_multiplier(), k, monomial(3))
        want = (-math.log(3)) ** k
        assert got.coefficient(3) == pytest.approx(want, rel=1e-13)
        assert got.term_count == 1

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_integration_iterates_on_monomial(self, k):
        got = power_apply(integration_multiplier(), k, monomial(2))
        want = (-1.0 / math.log(2)) ** k
        assert got.coefficient(2) == pytest.approx(want, rel=1e-14)

    def test_first_power_is_plain_apply(self):
        f = add(monomial(2), scale(2.0, monomial(9)))
        assert power_apply(derivative_multiplier(), 1, f) == apply(
            derivative_multiplier(), f
        )

    def test_overflowing_power_raises(self):
        with pytest.raises(DomainError, match=r"'derivative\^400' overflows double precision"):
            power_apply(derivative_multiplier(), 400, monomial(1000))

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_power_validated(self, bad):
        with pytest.raises(DomainError):
            power_apply(identity_multiplier(), bad, monomial(2))

    def test_constraint_checked(self):
        with pytest.raises(DomainError):
            power_apply(integration_multiplier(), 2, monomial(1))

    @given(
        poly_strategy(max_index=64, max_terms=4),
        st.integers(1, 15),
        st.integers(1, 15),
    )
    def test_power_additivity(self, f, j, k):
        # |symbol| of the derivative on n <= 64 is log 64 < 4.2, but the
        # additivity contract is stated for |symbol| <= 2; clamp with a
        # bounded custom symbol instead
        m = Multiplier(lambda n: 2.0 / (1.0 + 1.0 / n) * cmathless(n), "bounded")
        lhs = power_apply(m, j + k, f)
        rhs = power_apply(m, j, power_apply(m, k, f))
        assert coefficient_close(lhs, rhs, rtol=1e-10, atol=1e-12)


def cmathless(n: int) -> complex:
    # deterministic unit-modulus phase, exercising complex powers
    return complex(math.cos(0.1 * n), math.sin(0.1 * n))


class TestCesaroMean:
    @pytest.mark.parametrize("k", [1, 2, 10, 50])
    def test_identity_symbol_fixed_point(self, k):
        f = add(monomial(1, 2.0), monomial(6, -1.5))
        assert cesaro_mean(identity_multiplier(), k, f) == f

    def test_contracting_orbit_bound(self):
        g = math.log(2)
        for k in (1, 5, 25, 50):
            mean = cesaro_mean(derivative_multiplier(), k, monomial(2))
            bound = (1.0 / k) * g / (1.0 - g)
            assert abs(mean.coefficient(2)) <= bound * (1 + 1e-12)

    def test_five_term_direct_sum(self):
        got = cesaro_mean(derivative_multiplier(), 5, monomial(3))
        want = math.fsum((-math.log(3)) ** m for m in range(1, 6)) / 5.0
        assert got.coefficient(3) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 13, 50])
    def test_closed_form_matches_direct_summation(self, k):
        f = DirichletPolynomial({2: 1.0, 3: -2.0, 10: 0.5j})
        for m in (derivative_multiplier(), integration_multiplier()):
            got = cesaro_mean(m, k, f)
            acc = DirichletPolynomial({})
            for j in range(1, k + 1):
                acc = add(acc, power_apply(m, j, f))
            want = scale(1.0 / k, acc)
            assert coefficient_close(got, want, rtol=1e-10, atol=1e-12)

    def test_near_unit_symbol_cancellation_guard(self):
        m = Multiplier(lambda n: 1.0 + 1e-12, "near-one")
        got = cesaro_mean(m, 40, monomial(2))
        # all forty iterates are within 4e-11 of the original coefficient
        assert got.coefficient(2) == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_mean_raises(self):
        with pytest.raises(DomainError, match=r"'cesaro\(derivative, 400\)' overflows double precision"):
            cesaro_mean(derivative_multiplier(), 400, monomial(1000))

    def test_unit_symbol_exact(self):
        m = Multiplier(lambda n: 1.0, "unit")
        f = monomial(2, 3.25)
        assert cesaro_mean(m, 17, f) == f

    def test_ring_closed_form_against_mpmath(self):
        # the bound is relative to (1/k) sum |g|^j, the mean of the iterate
        # magnitudes: k log g carries a rounding of u |k log g|, and near a
        # zero of e^(k log g) - 1 the mean is far smaller than its terms
        u = 2.0**-53
        rnd = random.Random(20261018)
        checked = 0
        with mpmath.workprec(200):
            while checked < 2000:
                r, theta = 10 ** rnd.uniform(-16, -8), rnd.uniform(-math.pi, math.pi)
                g = complex(1.0 + r * math.cos(theta), r * math.sin(theta))
                k = int(10 ** rnd.uniform(0, 18))
                G = mpmath.mpc(g.real, g.imag)
                z = k * mpmath.log(G)
                if g == 1.0 or z.real > 700:
                    continue
                true = G * mpmath.expm1(z) / (k * (G - 1))
                mag = abs(G)
                scale = mag * mpmath.expm1(k * mpmath.log(mag)) / (k * (mag - 1)) if mag != 1 else 1
                got = cesaro_mean(Multiplier(lambda n: g, "ring"), k, monomial(2)).coefficient(2)
                err = abs(mpmath.mpc(got.real, got.imag) - true)
                assert err <= 64 * u * max(1.0, float(abs(z))) * scale, (g, k)
                checked += 1

    def test_ring_cost_independent_of_k(self):
        t0 = time.perf_counter()
        got = cesaro_mean(Multiplier(lambda n: 1 + 1e-10, "near-one"), 10**10, monomial(2))
        assert time.perf_counter() - t0 < 0.1
        assert got.coefficient(2) == pytest.approx(math.e - 1, rel=1e-6)  # k (g - 1) = 1

    def test_ring_at_largest_k(self):
        k = 2**63 - 1
        with pytest.raises(DomainError, match=r"'cesaro\(near-one, .*overflows double precision"):
            cesaro_mean(Multiplier(lambda n: 1 + 1e-10, "near-one"), k, monomial(2))
        got = cesaro_mean(Multiplier(lambda n: 1 - 1e-10, "near-one"), k, monomial(2))
        assert got.coefficient(2) == pytest.approx(1 / (k * 1e-10), rel=1e-6)


class TestNormalizedPowerNorm:
    @pytest.mark.parametrize("eps", [0.1, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 10, 25, 40])
    def test_derivative_witness_closed_form(self, eps, k):
        got = normalized_power_norm(derivative_multiplier(), monomial(3), eps, k)
        want = math.log(3) ** k / (k * 3**eps)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 10, 25, 40])
    def test_integration_witness_closed_form(self, eps, k):
        got = normalized_power_norm(integration_multiplier(), monomial(2), eps, k)
        want = 1.0 / (k * math.log(2) ** k * 2**eps)
        assert got == pytest.approx(want, rel=1e-9)

    def test_contracting_witness_decreases(self):
        vals = [
            normalized_power_norm(derivative_multiplier(), monomial(2), 0.1, k)
            for k in range(1, 41)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monomial_matches_seminorm_upper(self):
        for k in (1, 3, 17):
            f = monomial(3, 2.0 - 1.0j)
            got = normalized_power_norm(derivative_multiplier(), f, 0.5, k)
            scaled = scale(1.0 / k, power_apply(derivative_multiplier(), k, f))
            want = seminorm(scaled, 0.5, t_max=1.0, step=1.0).upper
            assert got == pytest.approx(want, rel=1e-12)

    def test_nan_symbol_raises(self):
        m = Multiplier(lambda n: math.nan, "nan-symbol")
        with pytest.raises(DomainError, match="'nan-symbol' is not finite at n = 3"):
            normalized_power_norm(m, monomial(3), 0.1, 2)

    def test_int_symbol_past_double_range_raises(self):
        m = Multiplier(lambda n: n**200, "int-power")
        with pytest.raises(DomainError, match="'int-power' overflows double precision at n = 100000"):
            normalized_power_norm(m, monomial(10**5), 0.5, 3)

    def test_symbol_modulus_past_double_range_raises(self):
        m = Multiplier(lambda n: complex(1.5e308, 1.5e308), "huge-complex")
        with pytest.raises(DomainError, match="'huge-complex' overflows double precision at n = 3"):
            normalized_power_norm(m, monomial(3), 0.0, 2)

    def test_coefficient_modulus_past_double_range_names_n(self):
        f = monomial(2, complex(1.5e308, 1.5e308))
        with pytest.raises(DomainError, match=r"\|a_n\| at n = 2 overflows double precision"):
            normalized_power_norm(derivative_multiplier(), f, 0.0, 3)

    def test_overflow_guard_returns_inf(self):
        m = Multiplier(lambda n: 1e6, "huge")
        assert normalized_power_norm(m, monomial(2), 0.0, 60) == math.inf

    def test_large_coefficient_near_double_range(self):
        # |symbol|^k is small, the value is finite: the exact direct term
        want = mpmath.log(10**5) ** 3 * mpmath.mpf(1.5e305) / 3
        got = normalized_power_norm(derivative_multiplier(), monomial(10**5, 1.5e305), 0.0, 3)
        assert abs(got - want) <= 1e-12 * want
        got = normalized_power_norm(derivative_multiplier(), monomial(10**5, complex(1e305, 1e305)), 0.0, 3)
        assert math.isfinite(got)

    def test_largest_term_is_kept(self):
        assert normalized_power_norm(identity_multiplier(), monomial(2, 1e308), 0.0, 1) == 1e308

    def test_sum_past_double_range_is_inf(self):
        # each term fits in a double, their sum does not
        f = DirichletPolynomial({n: 4e307 for n in range(2, 7)})
        assert normalized_power_norm(identity_multiplier(), f, 0.0, 1) == math.inf
        assert normalized_power_norm(identity_multiplier(), f, 0.0, 2) == 1e308


# against 50-digit mpmath on draws spanning the double range: |a_n| in
# [1e-300, 1e308], |symbol| in [1e-3, 1e3], k <= 400, epsilon <= 4.  The
# relative error is held to _REF_MULTIPLE * u * (1 + L), L the largest
# per-term |log term|, plus 2^-1074 per term for subnormal rounding.
# 23,000 draws (seeds 0-4) measured at most 164.8 u (1 + L), at k = 361:
# the symbol's k-th power carries about k u; the multiple is 4x that.
_REF_MULTIPLE = 660.0
_U = 2.0**-53


def _reference_draw(rng):
    ns = rng.sample(range(1, 10**6), rng.randint(1, 6))
    coef = {n: cmath.rect(10 ** rng.uniform(-300, 308), rng.uniform(-math.pi, math.pi)) for n in ns}
    sym = {n: cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)) for n in ns}
    return coef, sym, rng.randint(1, 400), rng.uniform(0.0, 4.0)


def _reference_norm(coef, sym, k, eps):
    """The sum at mpmath's working precision, and the largest per-term
    |log term|."""
    logs = [
        k * mpmath.log(abs(mpmath.mpc(sym[n].real, sym[n].imag)))
        + mpmath.log(abs(mpmath.mpc(a.real, a.imag)))
        - mpmath.mpf(eps) * mpmath.log(n)
        - mpmath.log(k)
        for n, a in coef.items()
    ]
    return mpmath.fsum(mpmath.exp(v) for v in logs), float(max(abs(v) for v in logs))


class TestNormalizedPowerNormReference:
    def test_against_mpmath_across_double_range(self):
        rng = random.Random(20261018)
        dbl_max = sys.float_info.max
        checked = {"inf": 0, "finite": 0}
        for _ in range(2000):
            coef, sym, k, eps = _reference_draw(rng)
            got = normalized_power_norm(Multiplier(sym.__getitem__, "table"), DirichletPolynomial(coef), eps, k)
            with mpmath.workdps(50):
                want, log_max = _reference_norm(coef, sym, k, eps)
                if abs(want - dbl_max) <= 1e-12 * dbl_max:
                    continue
                if want > dbl_max:
                    assert got == math.inf, (coef, sym, k, eps)
                    checked["inf"] += 1
                    continue
                assert got < math.inf, (coef, sym, k, eps)
                allowed = _REF_MULTIPLE * _U * (1 + log_max) * want + len(coef) * 2.0**-1074
                assert abs(mpmath.mpf(got) - want) <= allowed, (coef, sym, k, eps, got, want)
                checked["finite"] += 1
        assert min(checked.values()) > 500


class TestDiagnostic:
    def test_growing_derivative_witness(self):
        report = ergodicity_diagnostic(derivative_multiplier(), monomial(3), 0.1, 40)
        assert report.verdict == "diverges"
        assert report.fitted_rate == pytest.approx(LOG_LOG_3, abs=1e-3)

    def test_growing_integration_witness(self):
        report = ergodicity_diagnostic(integration_multiplier(), monomial(2), 0.1, 40)
        assert report.verdict == "diverges"
        assert report.fitted_rate == pytest.approx(math.log(1 / math.log(2)), abs=1e-3)

    def test_contracting_witness(self):
        report = ergodicity_diagnostic(derivative_multiplier(), monomial(2), 0.1, 40)
        assert report.verdict == "converges"

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_witness_verdicts_across_epsilons(self, eps):
        d = ergodicity_diagnostic(derivative_multiplier(), monomial(3), eps, 40)
        j = ergodicity_diagnostic(integration_multiplier(), monomial(2), eps, 40)
        assert d.verdict == "diverges"
        assert j.verdict == "diverges"

    def test_samples_cover_every_k(self):
        report = ergodicity_diagnostic(derivative_multiplier(), monomial(3), 0.1, 17)
        assert [k for k, _ in report.samples] == list(range(1, 18))

    def test_zero_orbit_converges(self):
        report = ergodicity_diagnostic(
            derivative_multiplier(), DirichletPolynomial({}), 0.1, 12
        )
        assert report.verdict == "converges"

    def test_identity_orbit_past_double_range_at_k_one(self):
        # the first sample overflows, the rest are 2e308 / k: nothing converges
        f = DirichletPolynomial({2: 1e308, 3: 1e308})
        report = ergodicity_diagnostic(identity_multiplier(), f, 0.0, 10)
        assert report.samples[0] == (1, math.inf)
        assert report.verdict == "inconclusive"
        assert abs(report.fitted_rate) < 1e-12

    def test_no_finite_tail_fits_rate_zero(self):
        report = ergodicity_diagnostic(Multiplier(lambda n: 1e300, "huge"), monomial(2, 1e300), 0.0, 10)
        assert all(v == math.inf for _, v in report.samples)
        assert report.verdict == "diverges"
        assert report.fitted_rate == 0.0

    def test_identity_orbit_inconclusive(self):
        report = ergodicity_diagnostic(identity_multiplier(), monomial(2), 0.1, 20)
        assert report.verdict == "inconclusive"

    def test_overflowing_orbit_diverges(self):
        m = Multiplier(lambda n: 1e9, "huge")
        report = ergodicity_diagnostic(m, monomial(2), 0.1, 45)
        assert report.verdict == "diverges"

    def test_rate_fit_skips_overflowing_products(self):
        # samples near 1e306: the value is finite but k * value is not
        report = ergodicity_diagnostic(derivative_multiplier(), monomial(10**18), 0.0, 200)
        assert any(math.isfinite(v) and not math.isfinite(k * v) for k, v in report.samples)
        assert report.verdict == "diverges"
        assert report.fitted_rate == pytest.approx(math.log(math.log(10**18)), rel=1e-9)

    def test_nan_symbol_raises(self):
        m = Multiplier(lambda n: math.nan, "nan-symbol")
        with pytest.raises(DomainError, match="'nan-symbol' is not finite at n = 3"):
            ergodicity_diagnostic(m, monomial(3), 0.1, 10)

    def test_int_symbol_past_double_range_raises(self):
        m = Multiplier(lambda n: n**200, "int-power")
        with pytest.raises(DomainError, match="'int-power' overflows double precision at n = 100000"):
            ergodicity_diagnostic(m, monomial(10**5), 0.5)

    @pytest.mark.parametrize("k_max", [9, 10.5])
    def test_k_max_validated(self, k_max):
        with pytest.raises(DomainError, match="k_max"):
            ergodicity_diagnostic(derivative_multiplier(), monomial(3), 0.1, k_max)


class TestOrbitReadOnce:
    def test_diagnostic_reads_each_symbol_value_once(self):
        reads = []
        m = Multiplier(lambda n: reads.append(n) or -math.log(n), "counting")
        f = DirichletPolynomial({n: 1.0 / n for n in range(2, 30)})
        ergodicity_diagnostic(m, f, 0.3, 40)
        assert sorted(reads) == sorted(n for n, _ in f.items())

    @given(
        poly_strategy(
            max_index=10**6,
            max_terms=8,
            coefficients=st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
        ),
        st.lists(
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        ),
        st.booleans(),
        st.floats(0.0, 4.0),
        st.integers(10, 60),
    )
    def test_samples_equal_norms_to_the_bit(self, f, symbols, zero_constant, eps, k_max):
        m = Multiplier(
            lambda n: symbols[n % len(symbols)], "table", requires_zero_constant=zero_constant
        )
        samples, norms = diagnostic_and_norms(m, f, eps, k_max)
        assert samples == norms

    @pytest.mark.parametrize("k", [1, 2, 40])
    def test_bad_symbol_raises_whatever_k(self, k):
        # the n = 2 term passes double range from k = 2 on; n = 3 is still read
        m = Multiplier(lambda n: 1e300 if n == 2 else math.nan, "nan-at-3")
        with pytest.raises(DomainError, match="'nan-at-3' is not finite at n = 3"):
            normalized_power_norm(m, DirichletPolynomial({2: 1.0, 3: 1.0}), 0.0, k)

    def test_epsilon_error_before_domain_error(self):
        # a_1 != 0 is outside J's domain, and epsilon = -1 is outside every domain
        j, f = integration_multiplier(), monomial(1)
        with pytest.raises(DomainError, match="epsilon"):
            normalized_power_norm(j, f, -1.0, 3)
        with pytest.raises(DomainError, match="epsilon"):
            ergodicity_diagnostic(j, f, -1.0, 40)
        with pytest.raises(DomainError, match="k_max"):
            ergodicity_diagnostic(j, f, -1.0, 9)
        with pytest.raises(DomainError, match="vanishing constant term"):
            ergodicity_diagnostic(j, f, 0.0, 40)
