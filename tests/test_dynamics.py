import math
import random
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

from conftest import poly_strategy

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

    def test_overflow_guard_returns_inf(self):
        m = Multiplier(lambda n: 1e6, "huge")
        assert normalized_power_norm(m, monomial(2), 0.0, 60) == math.inf


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
