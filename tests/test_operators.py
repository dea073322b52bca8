import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import (
    DirichletPolynomial,
    DomainError,
    Multiplier,
    add,
    apply,
    check_growth,
    coefficient_close,
    compose,
    derivative_multiplier,
    differentiate,
    identity_multiplier,
    integrate,
    integration_multiplier,
    monomial,
    scale,
)

from conftest import finite_coefficients, poly_strategy, random_poly


# no subnormal coefficients: a subnormal carries fewer than 52 significant
# bits, so no relative tolerance holds for it (test_subnormal_round_trip
# bounds that case)
def zero_constant_polys():
    coefficients = st.complex_numbers(
        max_magnitude=8.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
    )
    return poly_strategy(min_index=2, max_index=512, max_terms=8, coefficients=coefficients)


class TestGrowthCheck:
    def test_logarithmic_symbol_admissible(self):
        m = Multiplier(lambda n: math.log(n), "log-growth", requires_zero_constant=True)
        assert check_growth(m, 10**5).verdict == "admissible"

    def test_constant_symbol_admissible_with_zero_ratios(self):
        report = check_growth(identity_multiplier(), 10**5)
        assert report.verdict == "admissible"
        assert all(r == 0.0 for r in report.ratios)

    def test_power_symbol_inadmissible(self):
        m = Multiplier(lambda n: float(n) ** 0.1, "tenth-power")
        assert check_growth(m, 10**5).verdict == "inadmissible"

    def test_zero_symbol_rejected(self):
        m = Multiplier(lambda n: 0.0, "vanishing")
        with pytest.raises(DomainError):
            check_growth(m, 10**4)

    def test_derivative_and_integration_admissible(self):
        assert check_growth(derivative_multiplier(), 10**5).verdict == "admissible"
        assert check_growth(integration_multiplier(), 10**5).verdict == "admissible"

    def test_flat_tail_inadmissible(self):
        # the wobble keeps the fit loose (residual ~0.16); the tail ratios
        # stay above 0.25
        m = Multiplier(lambda n: n**0.2 * (2 + math.sin(3 * math.log(n))), "wobbling-power")
        report = check_growth(m, 10**5)
        assert report.fit_residual >= 0.01
        assert report.verdict == "inadmissible"

    def test_oscillating_symbol_inconclusive(self):
        m = Multiplier(lambda n: 2 + math.sin(n), "oscillating")
        assert check_growth(m, 10**5).verdict == "inconclusive"

    def test_nan_symbol_rejected(self):
        m = Multiplier(lambda n: math.nan, "nan-symbol")
        with pytest.raises(DomainError, match="'nan-symbol' is not finite at n = 2"):
            check_growth(m, 10**4)

    def test_int_symbol_past_double_range_raises(self):
        # 64^200 = 2^1200: complex() of the int overflows
        m = Multiplier(lambda n: n**200, "int-power")
        with pytest.raises(DomainError, match="'int-power' overflows double precision at n = 64"):
            check_growth(m)

    @pytest.mark.parametrize("n_max", [999, 1e5])
    def test_sample_ceiling_validated(self, n_max):
        with pytest.raises(DomainError, match="n_max"):
            check_growth(identity_multiplier(), n_max)


class TestApply:
    @given(poly_strategy())
    def test_identity_multiplier(self, f):
        assert apply(identity_multiplier(), f) == f

    def test_derivative_formula(self):
        f = add(monomial(2), monomial(3))
        got = apply(derivative_multiplier(), f)
        assert dict(got.items()) == {2: -math.log(2), 3: -math.log(3)}

    def test_zero_polynomial_fixed(self):
        assert apply(derivative_multiplier(), DirichletPolynomial({})).is_zero

    def test_constraint_violation_names_constant_term(self):
        f = add(monomial(1, 2.5), monomial(2))
        with pytest.raises(DomainError, match="a_1"):
            apply(integration_multiplier(), f)

    @given(
        poly_strategy(max_index=64),
        poly_strategy(max_index=64),
        finite_coefficients,
        finite_coefficients,
    )
    def test_linearity(self, f, g, alpha, beta):
        m = derivative_multiplier()
        lhs = apply(m, add(scale(alpha, f), scale(beta, g)))
        rhs = add(scale(alpha, apply(m, f)), scale(beta, apply(m, g)))
        assert coefficient_close(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestDifferentiate:
    def test_eigen_relation_full_range(self):
        for n in range(2, 10_001):
            got = differentiate(monomial(n))
            want = -math.log(n)
            assert got.coefficient(n) == want  # same symbol arithmetic, exact
            assert got.term_count == 1

    def test_constant_annihilated(self):
        assert differentiate(monomial(1)).is_zero

    def test_three_term_example(self):
        f = DirichletPolynomial({1: 1.0, 2: 1.0, 3: 1.0})
        got = differentiate(f)
        assert dict(got.items()) == {2: -math.log(2), 3: -math.log(3)}

    @given(poly_strategy(max_index=128))
    def test_image_has_zero_constant_term(self, f):
        assert differentiate(f).coefficient(1) == 0


class TestIntegrate:
    def test_monomial(self):
        got = integrate(monomial(2))
        assert got.coefficient(2) == pytest.approx(-1.0 / math.log(2), rel=1e-15)

    def test_round_trip_single(self):
        f = monomial(5)
        assert coefficient_close(integrate(differentiate(f)), f, rtol=1e-12)

    def test_zero(self):
        assert integrate(DirichletPolynomial({})).is_zero

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            integrate(monomial(1))

    @given(zero_constant_polys())
    def test_round_trips_both_ways(self, f):
        assert coefficient_close(integrate(differentiate(f)), f, rtol=1e-12)
        assert coefficient_close(differentiate(integrate(f)), f, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 19])
    @pytest.mark.parametrize("a", [5e-324, -1.5e-323, 1e-320])
    def test_subnormal_round_trip(self, n, a):
        # each of the two multiplications rounds by at most half a subnormal
        # step (5e-324), and the second scales the first error by at most
        # log 19 < 3: the error is below two steps and, being a whole number
        # of steps, at most one (differentiate(integrate(5e-324 at n = 5))
        # gives 1e-323)
        f = monomial(n, a)
        for g in (integrate(differentiate(f)), differentiate(integrate(f))):
            assert abs(g.coefficient(n) - a) <= 5e-324

    def test_round_trip_random_corpus(self, rng):
        for _ in range(200):
            f = random_poly(rng, max_index=512, n_terms=10, zero_constant=True)
            assert coefficient_close(integrate(differentiate(f)), f, rtol=1e-12)
            assert coefficient_close(differentiate(integrate(f)), f, rtol=1e-12)


class TestCompose:
    def test_derivative_then_integration_is_unit_symbol(self):
        m = compose(integration_multiplier(), derivative_multiplier())
        for n in (2, 3, 10, 1000, 10_000):
            assert m(n) == pytest.approx(1.0, rel=1e-15)

    def test_identity_neutral(self):
        m = compose(derivative_multiplier(), identity_multiplier())
        for n in (1, 2, 17):
            assert m(n) == derivative_multiplier()(n)
        assert m.min_index == 1

    def test_symbol_product_matches_iterated_apply(self):
        dd = compose(derivative_multiplier(), derivative_multiplier())
        f = add(monomial(2), monomial(9))
        via_symbol = apply(dd, f)
        via_iterate = apply(derivative_multiplier(), apply(derivative_multiplier(), f))
        assert coefficient_close(via_symbol, via_iterate, rtol=1e-12)
        assert dd(100) == pytest.approx(math.log(100) ** 2, rel=1e-15)

    def test_domain_metadata_merged(self):
        m = compose(derivative_multiplier(), integration_multiplier())
        assert m.min_index == 2
        assert m.requires_zero_constant

    def test_min_index_enforced(self):
        with pytest.raises(DomainError):
            integration_multiplier()(1)
