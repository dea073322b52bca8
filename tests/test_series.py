import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
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
    partial_sum,
    replace,
    scale,
    table_rule,
    tail_bound_monotone,
    truncate,
    zeta_shift_rule,
)

from dirichlet_ops import series
from dirichlet_ops.series import (_KERNEL_MIN_PAIRS, _LOG_TABLE_MAX, _exp, _fsum, _gathered_sums, _inv_power,
                                  _list_slope, _log, _log_indices, _nonnegative_fsum, _normal, _pairwise_sum, _power,
                                  _slope)

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

    @given(poly_strategy(max_index=10**6, max_terms=120))
    def test_hash_agrees_with_equality_across_forms(self, f):
        # the dict form and the array form hash alike, as they compare equal
        as_dict = DirichletPolynomial(list(f.items()))
        as_arrays = _normal(f.index_array().copy(), f.coefficient_array().copy())
        assert as_dict == as_arrays and hash(as_dict) == hash(as_arrays) == hash(f)
        assert len({as_dict, as_arrays, f}) == 1

    def test_hash_of_signed_zeros(self):
        # a -0.0 part is +0.0 in normal form, and hash(-0.0) == hash(0.0)
        for neg, pos in ((complex(-0.0, 1.5), 1.5j), (complex(2.0, -0.0), 2.0)):
            assert monomial(3, neg) == monomial(3, pos)
            assert hash(monomial(3, neg)) == hash(monomial(3, pos))
        assert hash(ZERO) == hash(DirichletPolynomial({})) == hash(scale(0.0, monomial(2)))
        assert hash(monomial(2)) != hash(monomial(3))

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
        # one pair overflows in the per-pair loop, 121 pairs in the array kernel
        for n_terms in (1, 11):
            f = DirichletPolynomial({n: 1e200 for n in range(1, n_terms + 1)})
            with pytest.raises(DomainError):
                dirichlet_multiply(f, f)

    def test_overflowing_bucket_sum_raises(self):
        # each product is finite and only the bucket sum overflows: bucket 2
        # of the per-pair loop holds 2 products, bucket 4 of the array
        # kernel holds 3
        loop = (DirichletPolynomial({1: 1e308, 2: 1e308}), DirichletPolynomial({1: 1, 2: 1}))
        kernel = (
            DirichletPolynomial({n: 6e307 for n in range(1, 12)}),
            DirichletPolynomial({n: 1 for n in range(1, 12)}),
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

    def test_product_past_memory_raises_domain_error(self, monkeypatch):
        # the square of a 45,080-term polynomial asks numpy for 15.1 GiB; its
        # MemoryError leaked.  Here the kernel's allocation is refused rather
        # than made, since on a large enough machine that square runs
        f, g = truncate(ones_rule(), 300), truncate(eta_rule(), 200)
        want = dirichlet_multiply(f, g)

        class Starved:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                raise MemoryError("Unable to allocate")

        monkeypatch.setattr(series, "np", Starved())
        with pytest.raises(DomainError, match=r"^300 x 200 terms: 60000 pairs do not fit in memory$"):
            dirichlet_multiply(f, g)
        monkeypatch.undo()
        assert dirichlet_multiply(f, g) == want


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

    @pytest.mark.parametrize("rule", [ones_rule(), eta_rule(), moebius_rule(), *map(zeta_shift_rule, range(4))],
                             ids=lambda rule: rule.tag)
    def test_known_abscissas_keep_bohrs_inequalities(self, rule):
        # sigma_c <= sigma_u <= sigma_a and, by Bohr's theorem with the
        # Bohnenblust-Hille constant, sigma_a - 1/2 <= sigma_u.  eta's
        # sigma_u is 1: eta is unbounded on every half-plane Re s > sigma
        # with sigma < 1, since zeta is unbounded on such lines past 1/2
        known = rule.known_abscissas
        assert known["sigma_c"] <= known["sigma_a"] if "sigma_c" in known else "sigma_a" in known
        if "sigma_u" in known:
            assert known["sigma_a"] - 0.5 <= known["sigma_u"] <= known["sigma_a"]
            assert known.get("sigma_c", -math.inf) <= known["sigma_u"]
        assert eta_rule().known_abscissas["sigma_u"] == 1.0

    @given(rule=st.sampled_from([ones_rule(), eta_rule(), *map(zeta_shift_rule, range(4))]),
           half=st.integers(0, 2**39 - 1), parity=st.integers(0, 1), length=st.integers(1, 300))
    def test_description_matches_values(self, rule, half, parity, length):
        # a_n = c[n mod p] n^(-k), p | 64: exact for k = 0, and within 1 ulp
        # of c[n mod p] _inv_power(n, k) for zeta_shift(1..3)
        c, k = rule.vectorized._description
        assert 64 % len(c) == 0
        lo = 2 * half + 1 + parity
        ns = np.arange(lo, lo + length, dtype=np.int64)
        want = np.array(c)[ns % len(c)] * _inv_power(ns.astype(np.float64), k)
        got = rule.values(ns)
        if k == 0:
            assert got.tolist() == want.tolist()
        else:
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_only_built_ins_carry_a_description(self):
        # the description is private and rides on the built-ins' functions:
        # no constructor argument sets it, a tag does not carry it, and a
        # rule holds it exactly when it holds a built-in's function
        def description(rule):
            return getattr(rule.vectorized, "_description", None)

        assert [description(rule) for rule in (ones_rule(), eta_rule(), zeta_shift_rule(3))] == [
            ((1.0,), 0), ((-1.0, 1.0), 0), ((1.0,), 3)]
        assert description(moebius_rule()) is None and description(table_rule({1: 1.0})) is None
        eta = eta_rule()
        assert description(CoefficientRule("eta", lambda ns: eta.vectorized(ns))) is None
        assert description(replace(eta, vectorized=lambda ns: np.ones(ns.shape))) is None
        assert description(CoefficientRule("x", eta.vectorized)) == ((-1.0, 1.0), 0)
        with pytest.raises(TypeError):
            CoefficientRule("eta", eta.vectorized, None, ((-1.0, 1.0), 0))
        assert "_description" not in repr(eta) and "_description" not in vars(eta)
        assert eta == replace(eta) and description(replace(eta)) == description(eta)


class TestIntegerRules:
    """An integer-valued rule comes back from values() as float64: its sums
    once wrapped silently in int64."""

    def test_large_int64_values_do_not_wrap(self):
        big = CoefficientRule("big", lambda ns: np.full(ns.shape, 2**62, dtype=np.int64))
        assert big.values([1, 2]).dtype == np.float64
        # 4 * 2^62 = 2^64 wrapped to 0j at s = 0; s = 1e-300 i never wrapped
        assert partial_sum(big, 0, 4) == partial_sum(big, 1e-300j, 4).real == 2.0**64
        # the probe's cumsum wrapped too: bound 4.66e18, 'oscillatory'
        tb = tail_bound_monotone(big, None, 1024, 0.0)
        assert (tb.bound, tb.regime) == (math.inf, "divergent")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32])
    def test_small_integer_dtypes_are_floats(self, dtype):
        top = np.iinfo(dtype).max
        rule = CoefficientRule("int", lambda ns: np.where(ns % 2 == 1, top, np.iinfo(dtype).min).astype(dtype))
        vals = rule.values(np.arange(1, 6))
        assert vals.dtype == np.float64
        assert vals.tolist() == [float(top), float(np.iinfo(dtype).min)] * 2 + [float(top)]
        want = 500 * (float(top) + float(np.iinfo(dtype).min))
        assert partial_sum(rule, 0, 1000) == partial_sum(rule, 1e-300j, 1000).real == want


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

    def test_modulus_past_double_range(self):
        # |f_2| passes the largest double though both parts are finite; a
        # quarter of each side decides
        f = DirichletPolynomial({2: 1.5e308 + 1.5e308j})
        assert coefficient_close(f, f)
        assert coefficient_close(f, DirichletPolynomial({2: 1.5e308 + 1.4999999999999e308j}))
        assert not coefficient_close(f, DirichletPolynomial({2: 1.5e308 + 1.4e308j}))
        assert not coefficient_close(f, -f)
        assert not coefficient_close(f, f + monomial(3), atol=0.5)
        assert coefficient_close(f, f + monomial(3), atol=1.0)
        # one ulp apart at 2: atol at that ulp holds, three quarters of it not
        ulp = math.ulp(1.5e308)
        g = DirichletPolynomial({2: complex(1.5e308, 1.5e308 + ulp)})
        assert coefficient_close(f, g, rtol=0.0, atol=ulp)
        assert not coefficient_close(f, g, rtol=0.0, atol=0.75 * ulp)


class TestSlope:
    """The closed-form least-squares slope of the window fits."""

    @pytest.mark.parametrize("size", [2, 3, 8, 41, 500, 5000, 50_000])
    def test_agrees_with_polyfit(self, size):
        # windows shaped like the fits': log M over [N/2, N], random slope,
        # offset and noise
        rng = np.random.default_rng(size)
        for _ in range(5):
            N = int(rng.integers(2 * size, 4 * size + 2))
            x = np.log(np.sort(rng.choice(np.arange(N // 2, N + 1), size, replace=False)).astype(np.float64))
            y = rng.uniform(-3, 3) * x + rng.uniform(-5, 5) + rng.normal(scale=rng.uniform(0, 0.5), size=size)
            want = np.polyfit(x, y, 1)[0]
            assert abs(_slope(x, y) - want) <= 1e-12 * abs(want)

    def test_exact_on_exact_lines(self):
        x = np.log(np.arange(1000, 2001, dtype=np.float64))
        assert _slope(x, x) == 1.0
        assert _slope(x, -x) == -1.0
        assert _slope(x, 2.0 * x) == 2.0
        assert _slope(np.arange(21.0, 41.0), np.full(20, 3.5)) == 0.0

    def test_list_slope_is_the_array_slope(self):
        # the rate fit's list form: numpy's bits, from Python floats
        rng = np.random.default_rng(7)
        for size in list(range(2, 301)) + [1000, 4099]:
            x = np.sort(rng.uniform(-10, 10, size)) * 10.0 ** rng.uniform(-3, 3)
            y = rng.uniform(-3, 3) * x + rng.normal(scale=rng.uniform(0, 2), size=size)
            assert _list_slope(x.tolist(), y.tolist()).hex() == _slope(x, y).hex(), size
        ks = [float(k) for k in range(21, 41)]
        assert _list_slope(ks, ks) == 1.0 and _list_slope(ks, [3.5] * 20) == 0.0


class TestPairwiseSum:
    """series._pairwise_sum, numpy's summation order on Python scalars."""

    @pytest.mark.parametrize("kind", ["float64", "complex128"])
    def test_bits_equal_np_sum_at_every_size(self, kind):
        # terms of mixed signs and magnitudes, so any other order rounds
        # differently; every size from 1 to 300 covers the short sums, the
        # accumulator blocks and two levels of splitting
        rng = np.random.default_rng(3 if kind == "float64" else 4)
        for size in range(1, 301):
            for _ in range(3):
                parts = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-8, 8, (2, size))
                xs = parts[0] if kind == "float64" else parts[0] + 1j * parts[1]
                got, want = _pairwise_sum(xs.tolist()), np.sum(xs)
                assert type(got) is (float if kind == "float64" else complex)
                assert complex(got).real.hex() == complex(want).real.hex(), (kind, size)
                assert complex(got).imag.hex() == complex(want).imag.hex(), (kind, size)

    def test_signed_zeros_and_overflow(self):
        # numpy adds the pairwise result to 0.0: a sum of -0.0 is 0.0
        for xs in ([-0.0], [-0.0] * 9, [complex(-0.0, -0.0)] * 5, [1e308, 1e308], [1e308] * 9 + [-1e308] * 9,
                   [math.inf, -math.inf], [complex(1e308, -1e308)] * 70):
            with np.errstate(over="ignore", invalid="ignore"):
                want = complex(np.sum(np.array(xs)))
            got = complex(_pairwise_sum(xs))
            assert repr(got) == repr(want) and math.copysign(1, got.real) == math.copysign(1, want.real), xs
            assert math.copysign(1, got.imag) == math.copysign(1, want.imag), xs



def assert_bits(got: np.ndarray, scalar, xs) -> None:
    want = np.array([scalar(x) for x in xs], dtype=np.float64)
    assert got.dtype == np.float64
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestLibmRoute:
    """series._log and _exp, the one route for log n and n^(-epsilon) on
    arrays, give math.log's and math.exp's bits (the C library's), whatever
    SIMD loops numpy dispatches to."""

    def test_log_on_index_sweeps(self):
        rng = np.random.default_rng(9170)
        ns = np.concatenate([
            np.arange(1, 200_001),  # np.log differs on some (9170 is the first)
            rng.integers(1, 2**62, 200_000, endpoint=True),
            [2**53 - 1, 2**53, 2**53 + 1, 2**62 - 1, 2**62, 2**63 - 1],
        ]).astype(np.int64)
        assert_bits(_log(ns), math.log, ns.tolist())

    def test_log_on_normal_floats_away_from_one(self):
        # every binade of [2^-1022, 0.5) and [2, 2^1023); clog takes other
        # routes on [0.5, 2), on subnormals and in the top binade, where no
        # index's log is taken but n = 1, whose log is 0 either way
        rng = np.random.default_rng(1)
        binades = np.concatenate([np.arange(-1022, -1), np.arange(1, 1023)])
        xs = np.ldexp(rng.uniform(1.0, 2.0, (100, binades.size)), binades).ravel()
        xs = np.concatenate([xs, [2.2250738585072014e-308, np.nextafter(0.5, 0.0), 2.0, np.nextafter(2.0**1023, 0.0)]])
        assert_bits(_log(xs), math.log, xs.tolist())

    def test_exp_on_its_range(self):
        rng = np.random.default_rng(2)
        xs = np.concatenate([
            np.linspace(-745.0, 709.0, 100_001),
            rng.uniform(-50.0, 0.0, 100_000),
            -rng.exponential(1.0, 50_000),
            [-745.0, -0.0, 0.0, 709.0],
        ])
        assert_bits(_exp(xs), math.exp, xs.tolist())

    @given(st.lists(st.integers(1, 2**62), min_size=1, max_size=20))
    def test_log_property_on_indices(self, ns):
        assert_bits(_log(np.array(ns, dtype=np.int64)), math.log, ns)

    @given(st.lists(st.one_of(st.floats(2.2250738585072014e-308, 0.5, exclude_max=True),
                              st.floats(2.0, 2.0**1023, exclude_max=True)), min_size=1, max_size=20))
    def test_log_property_on_floats(self, xs):
        assert_bits(_log(np.array(xs)), math.log, xs)

    @given(st.lists(st.floats(min_value=-745.0, max_value=709.0), min_size=1, max_size=20))
    def test_exp_property(self, xs):
        assert_bits(_exp(np.array(xs)), math.exp, xs)

    @given(st.lists(st.integers(1, 2**62), min_size=1, max_size=40),
           st.floats(-3.0, 3.0), st.one_of(st.just(0.0), st.floats(-1e4, 1e4)))
    def test_power_is_the_log_then_the_exp(self, ns, re, im):
        # one complex buffer, the bits of the two-step route
        x = np.array(ns, dtype=np.int64).reshape(-1, 1)
        s = complex(re, im)
        with np.errstate(over="ignore"):
            want = _exp(_log(x) * -re) if im == 0 else np.exp(_log(x) * -s)
            got = _power(x, re if im == 0 else s)
            also = _power(x, s)  # a complex s on the real axis
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and np.array_equal(also, want)

    def test_inputs_are_not_written(self):
        x = np.array([1.0, 2.0])
        _log(x), _exp(x), _power(x, 0.5 + 1j)
        assert x.tolist() == [1.0, 2.0]


def bits(x: np.ndarray) -> list:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64).tolist()


class TestLogTable:
    """series._log_indices: log n read from the process's table of log 1..L,
    bit for bit series._log, with a set reaching past L taking _log."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        # an empty table for this test; the process's own comes back after
        monkeypatch.setattr(series, "_log_table", None)

    def test_every_index_up_to_the_cap(self, fresh):
        ns = np.arange(1, _LOG_TABLE_MAX + 1, dtype=np.int64)
        got = _log_indices(ns)
        assert series._log_table.size == _LOG_TABLE_MAX
        assert bits(got) == bits(_log(ns))
        assert bits(series._log_table) == bits(_log(ns))

    def test_read_only(self, fresh):
        view = _log_indices(np.arange(1, 1001, dtype=np.int64))
        table = series._log_table
        assert not table.flags.writeable and not view.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
        with pytest.raises(ValueError):
            view[0] = 1.0

    @pytest.mark.parametrize("size", [1, 3, 5, 200, _LOG_TABLE_MAX - 3])
    def test_straddling_the_cap(self, fresh, size):
        # runs and scattered sets across L = 2^18, past it and far past it;
        # a set that reaches past the table takes _log whole
        rng = np.random.default_rng(size)
        top = _LOG_TABLE_MAX
        runs = [np.arange(top - size // 2, top - size // 2 + size, dtype=np.int64)]
        scattered = np.unique(np.concatenate([
            rng.integers(1, top + 1, size), rng.integers(top - 50, top + 50, size), [top, top + 1, 2**40, 2**63 - 1],
        ])).astype(np.int64)
        _log_indices(np.arange(1, top + 1, dtype=np.int64))
        for ns in (*runs, scattered, np.array([top + 1], dtype=np.int64)):
            assert bits(_log_indices(ns)) == bits(_log(ns))

    def test_growth(self, fresh):
        # each call below grows the table, the old one left as it was
        first = _log_indices(np.arange(1, 9, dtype=np.int64))
        assert series._log_table.size == 8
        old = series._log_table
        for k, want in ((100, 128), (1000, 1024), (20_000, 32768)):
            ns = np.arange(1, k + 1, dtype=np.int64)
            assert bits(_log_indices(ns)) == bits(_log(ns))
            assert series._log_table.size == want
        assert old.size == 8 and bits(old) == bits(first) == bits(_log(np.arange(1, 9, dtype=np.int64)))
        # scattered indices inside the grown table, by take
        ns = np.array([1, 7, 9, 4096, 32768], dtype=np.int64)
        assert bits(_log_indices(ns)) == bits(_log(ns))

    def test_sparse_calls_do_not_grow_it(self, fresh):
        # 16 k entries at most for k indices
        ns = np.array([3, 70_000], dtype=np.int64)
        assert bits(_log_indices(ns)) == bits(_log(ns))
        assert series._log_table is None
        ns = np.arange(60_000, 70_000, 1000, dtype=np.int64)
        assert bits(_log_indices(ns)) == bits(_log(ns))
        assert series._log_table is None
        ns = np.arange(1, 4097, dtype=np.int64) * 16
        assert bits(_log_indices(ns)) == bits(_log(ns))
        assert series._log_table.size == 65536

    def test_log_index_array_before_and_after_a_growth(self, fresh):
        f = truncate(eta_rule(), 300)
        # g is too sparse to grow the table: its indices past 512 take _log
        g = DirichletPolynomial({n: 1.0 + n for n in range(2, 30_000, 97)})
        before = [f.log_index_array(), g.log_index_array()]
        assert series._log_table.size == 512
        _log_indices(np.arange(1, 70_000, dtype=np.int64))
        assert series._log_table.size == 131072
        after = [truncate(eta_rule(), 300).log_index_array(),
                 DirichletPolynomial({n: 1.0 + n for n in range(2, 30_000, 97)}).log_index_array()]
        for x, y, h in zip(before, after, (f, g)):
            assert bits(x) == bits(y) == bits(_log(h.index_array()))
            assert not x.flags.writeable and not y.flags.writeable

    def test_empty(self, fresh):
        assert _log_indices(np.array([], dtype=np.int64)).shape == (0,)


# nonnegative doubles across the whole range, subnormals included
_nonnegative = st.floats(0.0, 1e300)
_ranged = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-150, 150))


@st.composite
def nonnegative_terms(draw):
    """Lists of nonnegative doubles: any, 10^(+-150) ranges, subnormals,
    repeats of one term, ties against a power of two, or zeros."""
    kind = draw(st.sampled_from(["any", "ranged", "subnormal", "equal", "ties", "zeros", "one"]))
    size = draw(st.integers(1, 300))
    if kind == "any":
        return draw(st.lists(_nonnegative, min_size=1, max_size=size))
    if kind == "ranged":
        return draw(st.lists(_ranged, min_size=1, max_size=size))
    if kind == "subnormal":
        return draw(st.lists(st.floats(0.0, 2.2250738585072014e-308 * 4), min_size=1, max_size=size))
    if kind == "equal":
        return [draw(_ranged)] * size
    if kind == "ties":
        # 2^e, then half-ulps and quarter-ulps of it, so sums sit on or
        # beside a rounding tie
        e = draw(st.integers(-200, 200))
        half = math.ldexp(1.0, e - 53)
        extra = draw(st.lists(st.sampled_from([half, half / 2, 3 * half, half * 2**-60, 0.0]), max_size=size))
        return [math.ldexp(1.0, e), *extra]
    if kind == "zeros":
        return [0.0] * size
    return [draw(_nonnegative)]


class TestNonnegativeFsum:
    """series._nonnegative_fsum against math.fsum (series._fsum, nan where
    fsum overflows), float.hex for float.hex."""

    @staticmethod
    def check(xs):
        want = _fsum(list(xs))
        got = _nonnegative_fsum(np.array(xs, dtype=np.float64))
        assert type(got) is float
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), xs

    @given(nonnegative_terms())
    def test_against_fsum(self, xs):
        self.check(xs)

    @pytest.mark.parametrize("xs", [
        [1.0, 2**-53], [1.0, 2**-53, 2**-200], [1.0, 2**-53, 2**-53], [3.0, 2**-52, 2**-53],
        [2.0**-1074] * 7, [5e-324, 1e-310, 2.2250738585072014e-308], [0.0], [0.0, 0.0], [7.25],
        [1e150, 1e-150, 1e-150], [1.0] * 10_001, [0.1] * 10_000,
    ])
    def test_cases(self, xs):
        self.check(xs)

    def test_empty(self):
        assert _nonnegative_fsum(np.array([])) == 0.0

    def test_orbit_sized_arrays(self):
        rng = np.random.default_rng(3)
        for size in (96, 1000, 10_000, 100_000):
            self.check((rng.exponential(1.0, size) * 10.0 ** rng.uniform(-20, 20, size)).tolist())

    @pytest.mark.parametrize("xs", [
        [1e308, 1e308], [1.7e308] * 3, [1e308 / 3] * 4, [2.0**1017] * 8, [math.inf, 1.0], [1.0, math.nan],
        [2.0**1017, 1.0],
    ])
    def test_near_overflow_falls_back(self, xs, monkeypatch):
        calls = []

        def recorded(ys):
            calls.append(ys)
            return _fsum(ys)

        monkeypatch.setattr(series, "_fsum", recorded)
        got = _nonnegative_fsum(np.array(xs))
        want = _fsum(xs)
        assert [[y.hex() for y in ys] for ys in calls] == [[x.hex() for x in xs]]
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


# product parts, special values among them
_part = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]))


class TestGatheredSums:
    """series._gathered_sums: the convolution kernel's sums of its buckets
    of one and two products, bit for bit np.add.reduceat's."""

    # a bucket of two NaN parts of different sign: reduceat gives the second's
    @example(rows=[(0.0, -math.nan), (0.0, math.nan)], sizes=[2])
    @given(rows=st.lists(st.tuples(_part, _part), min_size=1, max_size=60),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=60))
    def test_against_reduceat(self, rows, sizes):
        # rows cut into buckets of the drawn sizes in turn, the last cut short
        lengths = []
        left = len(rows)
        for n in itertools.cycle(sizes):
            if not left:
                break
            lengths.append(min(n, left))
            left -= lengths[-1]
        prods = np.array(rows, dtype=np.float64)
        length = np.array(lengths)
        starts = np.concatenate(([0], np.cumsum(length)[:-1]))
        with np.errstate(all="ignore"):
            got = _gathered_sums(prods, starts, length)
            want = np.add.reduceat(prods, starts, axis=0)
        small = length <= 2
        assert got.shape == want.shape
        assert bits(got[small]) == bits(want[small])
        assert bits(got[~small]) == bits(prods[starts[~small]])

    def test_signed_zeros_and_nan(self):
        prods = np.array([[-0.0, -0.0], [-0.0, 0.0], [math.inf, 1.0], [-math.inf, math.nan], [-0.0, 2.0]])
        starts, length = np.array([0, 2, 4]), np.array([2, 2, 1])
        with np.errstate(all="ignore"):
            got = _gathered_sums(prods, starts, length)
            want = np.add.reduceat(prods, starts, axis=0)
        assert bits(got) == bits(want)
        assert math.copysign(1.0, got[0, 0]) == -1.0 and math.copysign(1.0, got[0, 1]) == 1.0
