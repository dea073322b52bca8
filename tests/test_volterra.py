import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import (
    DirichletPolynomial,
    add,
    coefficient_close,
    monomial,
    scale,
    volterra_apply,
    volterra_identity_check,
)
from dirichlet_ops.series import _normal

from conftest import poly_strategy, random_poly

LOG2_OVER_LOG6 = 0.3868528072345416


def brute_volterra(g: DirichletPolynomial, f: DirichletPolynomial) -> dict:
    """Independent chain: hand derivative, divisor convolution, hand
    antiderivative, all on plain dicts."""
    dg = {n: -math.log(n) * a for n, a in g.items() if n >= 2}
    prod: dict[int, complex] = {}
    for n1, a in dg.items():
        for n2, b in f.items():
            prod[n1 * n2] = prod.get(n1 * n2, 0j) + a * b
    return {n: -c / math.log(n) for n, c in prod.items() if n >= 2 and c != 0}


class TestVolterraApply:
    def test_constant_input_recovers_g(self):
        got = volterra_apply(monomial(2), monomial(1))
        assert coefficient_close(got, monomial(2), rtol=1e-12)

    def test_constant_g_annihilates(self):
        assert volterra_apply(monomial(1, 3.5), monomial(7)).is_zero

    def test_monomial_pair(self):
        got = volterra_apply(monomial(2), monomial(3))
        assert got.term_count == 1
        assert got.coefficient(6) == pytest.approx(LOG2_OVER_LOG6, rel=1e-14)

    def test_against_brute_force_chain(self, rng):
        for _ in range(50):
            g = random_poly(rng, max_index=64, n_terms=6)
            f = random_poly(rng, max_index=64, n_terms=6)
            got = volterra_apply(g, f)
            want = brute_volterra(g, f)
            for n in set(want) | {n for n, _ in got.items()}:
                assert got.coefficient(n) == pytest.approx(
                    want.get(n, 0j), rel=1e-11, abs=1e-11
                )

    @given(poly_strategy(max_index=64), poly_strategy(max_index=64))
    def test_first_coefficient_always_zero(self, g, f):
        assert volterra_apply(g, f).coefficient(1) == 0

    @given(
        poly_strategy(max_index=32, max_terms=4),
        poly_strategy(max_index=32, max_terms=4),
        poly_strategy(max_index=32, max_terms=4),
    )
    def test_bilinear_in_f(self, g, f1, f2):
        lhs = volterra_apply(g, add(f1, f2))
        rhs = add(volterra_apply(g, f1), volterra_apply(g, f2))
        assert coefficient_close(lhs, rhs, rtol=1e-12, atol=1e-12)

    @given(
        poly_strategy(max_index=32, max_terms=4),
        poly_strategy(max_index=32, max_terms=4),
        poly_strategy(max_index=32, max_terms=4),
    )
    def test_bilinear_in_g(self, g1, g2, f):
        lhs = volterra_apply(add(g1, g2), f)
        rhs = add(volterra_apply(g1, f), volterra_apply(g2, f))
        assert coefficient_close(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestIdentity:
    def test_two_term_example(self):
        report = volterra_identity_check(add(monomial(2), monomial(3)))
        assert report.match
        assert coefficient_close(report.lhs, report.rhs, rtol=1e-12)

    def test_constant_gives_zero_on_both_sides(self):
        report = volterra_identity_check(monomial(1))
        assert report.lhs.is_zero and report.rhs.is_zero and report.match

    def test_rhs_strips_constant_term(self):
        g = add(monomial(1, 4.0), monomial(5, 2.0))
        report = volterra_identity_check(g)
        assert report.rhs.coefficient(1) == 0
        assert report.rhs.coefficient(5) == 2.0

    def test_random_corpus(self, rng):
        for _ in range(100):
            g = random_poly(rng, max_index=256, n_terms=8)
            assert volterra_identity_check(g).match

    @given(poly_strategy(max_index=128))
    def test_property_holds(self, g):
        assert volterra_identity_check(g).match

    @given(poly_strategy(max_index=128, max_terms=12), st.booleans())
    def test_rhs_bits_are_g_minus_its_constant(self, g, arrays):
        # dict-form or array-form g
        if arrays:
            g = _normal(g.index_array().copy(), g.coefficient_array().copy())
        want = g - scale(g.coefficient(1), monomial(1))
        got = volterra_identity_check(g).rhs
        assert [(n, a.real.hex(), a.imag.hex()) for n, a in got.items()] == [
            (n, a.real.hex(), a.imag.hex()) for n, a in want.items()
        ]

    def test_modulus_past_double_range(self):
        # the coefficient at 2 has a modulus past the largest double
        report = volterra_identity_check(DirichletPolynomial({1: 1.0, 2: 1.5e308 + 1.5e308j}))
        assert report.match and list(report.rhs.indices()) == [2]
