import math

import numpy as np
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
    check_growth,
    coefficient_close,
    compose,
    derivative_multiplier,
    differentiate,
    identity_multiplier,
    integrate,
    integration_multiplier,
    monomial,
    normalized_power_norm,
    power_apply,
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

    def test_modulus_past_double_range_raises(self):
        # both parts finite, |g| = 1.5e308 sqrt 2 is not
        m = Multiplier(lambda n: complex(1.5e308, 1.5e308), "huge-complex")
        with pytest.raises(DomainError, match="'huge-complex' overflows double precision at n = 2"):
            check_growth(m)

    # the resolvent symbols 1 / (log n + lambda); ids name the expected verdict
    GROWTH_CASES = [
        (derivative_multiplier(), "admissible"),
        (integration_multiplier(), "admissible"),
        (identity_multiplier(), "admissible"),
        (Multiplier(lambda n: 1.0 / (math.log(n) + 1e-3j), "resolvent 1e-3i"), "admissible"),
        (Multiplier(lambda n: 1.0 / (math.log(n) + 0.5), "resolvent 0.5"), "inconclusive"),
        (Multiplier(lambda n: 1.0 / (math.log(n) + 2 + 1j), "resolvent 2+i"), "inconclusive"),
        (Multiplier(lambda n: 1.0 / (math.log(n) - 0.3 + 0.2j), "resolvent -0.3+0.2i"), "inconclusive"),
    ]

    @pytest.mark.parametrize("n_max", [10**3, 10**5, 10**7])
    @pytest.mark.parametrize("m, verdict", GROWTH_CASES, ids=lambda c: getattr(c, "label", c))
    def test_closed_form_fit_agrees_with_lstsq(self, m, verdict, n_max):
        # the two-parameter fit r ~ limit + slope u, against LAPACK least
        # squares, to 1e-12 of the ratios' scale; the verdicts are those the
        # lstsq fit gave
        report = check_growth(m, n_max)
        logn = np.log(np.array(report.sample_points, dtype=np.float64))
        u = np.log(logn) / logn
        r = np.array(report.ratios)
        design = np.column_stack([np.ones_like(u), u])
        coef, *_ = np.linalg.lstsq(design, r, rcond=None)
        resid = float(np.sqrt(np.mean((design @ coef - r) ** 2)))
        scale = 1e-12 * max(1.0, float(np.max(np.abs(r))))
        assert abs(report.limit_estimate - coef[0]) <= scale
        assert abs(report.fit_residual - resid) <= scale
        assert report.verdict == verdict

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

    @pytest.mark.parametrize(
        "symbol, message",
        [
            (lambda n: math.nan if n == 64 else 1.0, r"'bad-symbol' is not finite at n = 64, got \(nan\+0j\)"),
            (lambda n: n**200 if n == 64 else 1.0, "'bad-symbol' overflows double precision at n = 64"),
            (lambda n: None if n == 64 else 1.0, "'bad-symbol' is not a number at n = 64, got None"),
            (lambda n: "x" if n == 64 else 1.0, "'bad-symbol' is not a number at n = 64, got 'x'"),
        ],
        ids=["nan", "int-overflow", "none", "string"],
    )
    def test_bad_symbol_named_with_its_index(self, symbol, message):
        f = add(monomial(2), monomial(64))
        with pytest.raises(DomainError, match=message):
            apply(Multiplier(symbol, "bad-symbol"), f)

    # a numeric string is refused too: complex() would parse it, but no
    # coefficient gate takes a string
    @pytest.mark.parametrize("value", [None, "x", [1.0], "2", " 1.5 ", "1+2j", np.str_("2")])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m, f: m(2),
            apply,
            lambda m, f: check_growth(m),
            lambda m, f: normalized_power_norm(m, f, 0.5, 3),
            lambda m, f: cesaro_mean(m, 3, f),
            lambda m, f: power_apply(m, 3, f),
            lambda m, f: apply(compose(derivative_multiplier(), m), f),
        ],
        ids=["call", "apply", "check_growth", "normalized_power_norm", "cesaro_mean", "power_apply", "compose"],
    )
    def test_value_that_is_not_a_number_is_named(self, call, value):
        # complex() rejects it (TypeError, ValueError): DomainError names the multiplier and n
        m = Multiplier(lambda n: value, "odd")
        with pytest.raises(DomainError, match=r"^multiplier 'odd' is not a number at n = 2, got "):
            call(m, add(monomial(2), monomial(3)))

    def test_numeric_string_is_named_in_full(self):
        m = Multiplier(lambda n: "2", "s")
        for call in (lambda: m(2), lambda: apply(m, monomial(2)), lambda: apply(m, add(monomial(2), monomial(3)))):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "multiplier 's' is not a number at n = 2, got '2'"
        # a string at a later term is named there, after the earlier terms passed
        late = Multiplier(lambda n: 2.0 if n < 5 else str(n), "late")
        with pytest.raises(DomainError, match=r"^multiplier 'late' is not a number at n = 7, got '7'$"):
            apply(late, add(monomial(2), monomial(7)))

    def test_symbol_errors_propagate_unchanged(self):
        def broken(n):
            raise TypeError("broken symbol")

        for call in (lambda m: m(2), lambda m: apply(m, monomial(2)), lambda m: power_apply(m, 2, monomial(2))):
            with pytest.raises(TypeError, match="^broken symbol$"):
                call(Multiplier(broken, "broken"))

    def test_modulus_past_double_range_needs_only_finite_products(self):
        # apply reads the symbol directly: a finite value whose modulus alone
        # passes double range is accepted; m(n) and check_growth need |g_n|
        m = Multiplier(lambda n: complex(1.5e308, 1.5e308), "h")
        assert apply(m, monomial(2, 0.5)) == monomial(2, complex(7.5e307, 7.5e307))
        with pytest.raises(DomainError, match="'h' overflows double precision at n = 2"):
            m(2)
        with pytest.raises(DomainError, match="'h' overflows double precision at n = 2"):
            check_growth(m)

    def test_error_names_the_term_that_apply_rejects(self):
        # the error path checks each term by apply's own rule, so a value it
        # accepts (a modulus past double range, a finite product) is passed
        # over, and the term that fails is named
        m = Multiplier(lambda n: complex(1.5e308, 1.5e308) if n == 2 else None, "h")
        with pytest.raises(DomainError, match=r"^multiplier 'h' is not a number at n = 3, got None$"):
            apply(m, monomial(2, 0.5) + monomial(3))
        # the first failing term in index order: here a product, then a value
        big = Multiplier(lambda n: 1e300 if n == 2 else None, "big")
        with pytest.raises(DomainError, match=r"^coefficient at n=2 must be finite, got \(inf\+0j\)$"):
            apply(big, monomial(2, 1e10) + monomial(3))

    def test_overflowing_product_names_the_coefficient(self):
        # finite factors, infinite product: the symbol is fine, the coefficient is not
        m = Multiplier(lambda n: 1e300, "big")
        with pytest.raises(DomainError, match=r"coefficient at n=64 must be finite, got \(inf\+0j\)"):
            apply(m, monomial(64, 1e10))

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
