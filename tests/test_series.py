import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import (
    ZERO,
    CoefficientRule,
    DirichletPolynomial,
    DomainError,
    HalfPlanePoint,
    add,
    coefficient_close,
    dirichlet_multiply,
    eta_rule,
    evaluate,
    moebius_rule,
    monomial,
    ones_rule,
    scale,
    table_rule,
    truncate,
    zeta_shift_rule,
)

from dirichlet_ops.series import _KERNEL_MIN_PAIRS

from conftest import finite_coefficients, int_poly_strategy, poly_strategy

# mu(1)..mu(20), from the standard table
MOEBIUS_FIRST_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


class TestConstruction:
    def test_monomial_one_is_constant(self):
        f = monomial(1)
        assert f.coefficient(1) == 1.0
        assert f.max_index == 1
        assert evaluate(f, 3.7 + 2j) == 1.0

    def test_monomial_two(self):
        f = monomial(2)
        assert f.max_index == 2
        assert f.coefficient(2) == 1.0
        assert f.coefficient(3) == 0.0

    def test_monomial_multiplicativity(self):
        assert dirichlet_multiply(monomial(2), monomial(3)) == monomial(6)

    @pytest.mark.parametrize("bad", [0, -1, -17])
    def test_monomial_rejects_nonpositive_index(self, bad):
        with pytest.raises(DomainError):
            monomial(bad)

    def test_duplicate_indices_accumulate(self):
        f = DirichletPolynomial([(2, 1.0), (2, 0.5), (3, 1.0)])
        assert f.coefficient(2) == 1.5

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(DomainError):
            DirichletPolynomial({2: complex(math.inf, 0)})

    def test_index_past_int64_rejected(self):
        with pytest.raises(DomainError, match=r"2\^63 - 1"):
            DirichletPolynomial({2**70: 1})
        with pytest.raises(DomainError):
            monomial(2**63)
        assert monomial(2**63 - 1).max_index == 2**63 - 1

    def test_overflowing_sum_of_duplicates_rejected(self):
        with pytest.raises(DomainError):
            DirichletPolynomial([(2, 1e308), (2, 1e308)])

    def test_zero_polynomial_normal_form(self):
        f = DirichletPolynomial({3: 0.0})
        assert f.is_zero
        assert f.max_index == 0
        assert f.term_count == 0


class TestLinearAlgebra:
    def test_add_cancels_to_zero(self):
        f = monomial(2)
        g = scale(-1.0, monomial(2))
        assert add(f, g).is_zero

    @given(poly_strategy())
    def test_scale_by_zero(self, f):
        assert scale(0.0, f).is_zero

    def test_add_merges_coefficients(self):
        f = add(add(monomial(1), monomial(2)), monomial(3))
        assert dict(f.items()) == {1: 1.0, 2: 1.0, 3: 1.0}

    @given(poly_strategy(), poly_strategy())
    def test_add_commutes_exactly(self, f, g):
        assert add(f, g) == add(g, f)

    @given(poly_strategy())
    def test_operator_sugar_matches_functions(self, f):
        assert f + f == scale(2.0, f)  # a + a and 2a round identically
        assert (f - f).is_zero
        assert -(-f) == f
        assert (-f) + f == ZERO

    def test_scalar_and_convolution_sugar(self):
        f, g = add(monomial(2), monomial(3, -1j)), monomial(5, 0.5)
        assert f * 2.0 == scale(2.0, f)
        assert 3 * f == scale(3, f)
        assert f * g == dirichlet_multiply(f, g)

    @pytest.mark.parametrize(
        "op",
        [
            lambda f: f + 1,
            lambda f: f - 1,
            lambda f: f * "x",
            lambda f: "x" * f,
            lambda f: True * f,
        ],
        ids=["add", "sub", "mul", "rmul", "rmul_bool"],
    )
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(monomial(2))

    def test_equality_with_a_non_polynomial_is_false(self):
        assert monomial(1) != 1.0
        assert not (monomial(1) == 1.0)

    def test_repr(self):
        assert repr(ZERO) == "DirichletPolynomial(0)"
        assert repr(add(monomial(2), monomial(3, -1j))) == "DirichletPolynomial({2: (1+0j), 3: -1j})"


class TestConvolution:
    def test_two_times_three(self):
        assert dirichlet_multiply(monomial(2), monomial(3)) == monomial(6)

    def test_square_of_one_plus_two(self):
        f = add(monomial(1), monomial(2))
        sq = dirichlet_multiply(f, f)
        assert dict(sq.items()) == {1: 1.0, 2: 2.0, 4: 1.0}

    def test_ones_times_moebius_is_delta(self):
        N = 100
        f = truncate(ones_rule(), N)
        g = truncate(moebius_rule(), N)
        prod = dirichlet_multiply(f, g)
        # oracle: brute-force divisor sums of the Moebius table
        mu = {n: g.coefficient(n) for n in range(1, N + 1)}
        for n in range(1, N + 1):
            acc = sum(mu[d] for d in range(1, n + 1) if n % d == 0)
            assert prod.coefficient(n) == acc  # integer-structured, exact
            assert acc == (1 if n == 1 else 0)

    @given(poly_strategy(), poly_strategy())
    def test_commutative_exactly(self, f, g):
        assert dirichlet_multiply(f, g) == dirichlet_multiply(g, f)

    @given(int_poly_strategy(), int_poly_strategy(), int_poly_strategy())
    def test_associative_on_integer_coefficients(self, f, g, h):
        left = dirichlet_multiply(dirichlet_multiply(f, g), h)
        right = dirichlet_multiply(f, dirichlet_multiply(g, h))
        assert left == right

    @given(poly_strategy())
    def test_unit_element(self, f):
        assert dirichlet_multiply(f, monomial(1)) == f

    @given(poly_strategy(max_index=32), poly_strategy(max_index=32))
    def test_max_index_bound(self, f, g):
        prod = dirichlet_multiply(f, g)
        if not (f.is_zero or g.is_zero):
            assert prod.max_index <= f.max_index * g.max_index

    def test_product_index_past_int64_rejected(self):
        # int64 products would wrap silently, so the bound is checked first
        with pytest.raises(DomainError, match=r"exceeds 2\^63 - 1"):
            dirichlet_multiply(monomial(2**40), monomial(2**40))
        big = add(monomial(2**40), monomial(3))
        with pytest.raises(DomainError):
            dirichlet_multiply(big, add(monomial(5), monomial(2**24)))
        assert dirichlet_multiply(monomial(2**31), monomial(2**32 - 1)) == monomial(2**31 * (2**32 - 1))

    def test_overflowing_product_raises(self):
        # one pair overflows in the per-pair loop, 64 pairs in the array kernel
        for n_terms in (1, 8):
            f = DirichletPolynomial({n: 1e200 for n in range(1, n_terms + 1)})
            with pytest.raises(DomainError):
                dirichlet_multiply(f, f)

    def test_overflowing_bucket_sum_raises(self):
        # each product is finite and only the bucket sum overflows: bucket 2
        # of the per-pair loop holds 2 products, bucket 4 of the array
        # kernel holds 3
        loop = (DirichletPolynomial({1: 1e308, 2: 1e308}), DirichletPolynomial({1: 1, 2: 1}))
        kernel = (
            DirichletPolynomial({n: 6e307 for n in range(1, 8)}),
            DirichletPolynomial({n: 1 for n in range(1, 8)}),
        )
        assert loop[0].term_count * loop[1].term_count < _KERNEL_MIN_PAIRS
        assert kernel[0].term_count * kernel[1].term_count >= _KERNEL_MIN_PAIRS
        for (f, g), n in ((loop, 2), (kernel, 4)):
            with pytest.raises(DomainError, match=f"coefficient at n={n} must be finite"):
                dirichlet_multiply(f, g)

    def test_pointwise_product_identity(self, rng):
        for _ in range(100):
            f = DirichletPolynomial(
                {int(n): complex(a, b) for n, a, b in zip(
                    rng.integers(1, 64, 5), rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5))}
            )
            g = DirichletPolynomial(
                {int(n): complex(a, b) for n, a, b in zip(
                    rng.integers(1, 64, 5), rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5))}
            )
            s = complex(rng.uniform(0.1, 3.0), rng.uniform(-10, 10))
            lhs = evaluate(dirichlet_multiply(f, g), s)
            rhs = evaluate(f, s) * evaluate(g, s)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    @given(poly_strategy(), poly_strategy())
    def test_normal_form_no_stored_zeros(self, f, g):
        for poly in (add(f, g), dirichlet_multiply(f, g), scale(2.5, f)):
            assert all(a != 0 for _, a in poly.items())


class TestRules:
    def test_truncate_ones(self):
        assert dict(truncate(ones_rule(), 3).items()) == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_truncate_eta(self):
        assert dict(truncate(eta_rule(), 4).items()) == {1: 1.0, 2: -1.0, 3: 1.0, 4: -1.0}

    def test_truncate_zeta_shift(self):
        f = truncate(zeta_shift_rule(2), 2)
        assert dict(f.items()) == {1: 1.0, 2: 0.25}

    def test_truncate_drops_zero_entries(self):
        f = truncate(table_rule({1: 1.0, 3: 0.0, 5: 2.0}), 10)
        assert dict(f.items()) == {1: 1.0, 5: 2.0}

    def test_table_rule_matches_dict_lookup(self, rng):
        table = {int(n): complex(a, b) for n, a, b in zip(
            rng.integers(1, 10**6, 300), rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300))}
        table[2**62] = -0.5j
        present = np.array(sorted(table), dtype=np.int64)
        absent = np.array([1, 10**6 + 1, 2**62 - 1, 2**63 - 1] + [n + 1 for n in present[:50] if n + 1 not in table],
                          dtype=np.int64)
        ns = np.concatenate([absent, present, present[::-1]])
        got = table_rule(table).values(ns)
        assert got.dtype == np.complex128
        assert got.tolist() == [table.get(int(n), 0j) for n in ns]
        assert table_rule(table)(2**62) == -0.5j
        assert table_rule({}).values([1, 5]).tolist() == [0j, 0j]

    def test_moebius_table(self):
        rule = moebius_rule()
        got = [rule(n).real for n in range(1, 21)]
        assert got == MOEBIUS_FIRST_20

    def test_rules_deterministic_and_vectorized(self):
        for rule in (ones_rule(), eta_rule(), moebius_rule(), zeta_shift_rule(3)):
            ns = np.arange(1, 200, dtype=np.int64)
            vec = rule.values(ns)
            point = np.array([rule(int(n)) for n in ns])
            assert np.array_equal(vec, point)
            assert rule(17) == rule(17)

    def test_index_beyond_int64_rejected(self):
        with pytest.raises(DomainError):
            moebius_rule()(2**64)

    @pytest.mark.parametrize("bad", [0, 2**63])
    def test_values_reject_out_of_range_index(self, bad):
        with pytest.raises(DomainError, match="rule indices must"):
            ones_rule().values([1, bad])

    def test_zeta_shift_zero_is_ones(self):
        rule = zeta_shift_rule(0)
        assert rule.values([1, 2, 3, 10**12]).tolist() == [1.0, 1.0, 1.0, 1.0]
        assert rule.known_abscissas == ones_rule().known_abscissas

    def test_known_abscissas_metadata_for_tests_only(self):
        assert ones_rule().known_abscissas is not None
        assert zeta_shift_rule(2).known_abscissas is not None


class TestHalfPlanePoint:
    def test_as_complex(self):
        assert HalfPlanePoint(0.5, -2.0).as_complex() == 0.5 - 2j

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(DomainError):
            HalfPlanePoint(bad, 0.0)
        with pytest.raises(DomainError):
            HalfPlanePoint(0.0, bad)


class TestCoefficientClose:
    @given(poly_strategy())
    def test_reflexive(self, f):
        assert coefficient_close(f, f)

    def test_detects_mismatch(self):
        assert not coefficient_close(monomial(2), monomial(3))
        assert not coefficient_close(monomial(2), scale(1 + 1e-9, monomial(2)))

    def test_relative_tolerance(self):
        f = monomial(2, 1.0)
        g = monomial(2, 1.0 + 1e-14)
        assert coefficient_close(f, g, rtol=1e-12)
        assert not coefficient_close(f, g, rtol=1e-16)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rtol", math.nan),
            ("atol", math.nan),
            ("atol", math.inf),
            ("rtol", -1.0),
            ("atol", -1e-300),
            ("rtol", "x"),
            ("atol", True),
        ],
    )
    def test_tolerances_validated(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be a finite real >= 0"):
            coefficient_close(monomial(2), monomial(3, 5.0), **{name: value})

    def test_zero_and_absolute_tolerances(self):
        f = monomial(2, 1.0)
        assert coefficient_close(f, f, rtol=0.0, atol=0.0)
        assert coefficient_close(f, monomial(2, 1.5), rtol=0, atol=0.5)
        assert not coefficient_close(f, monomial(2, 1.5), rtol=0, atol=0.25)
