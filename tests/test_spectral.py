import cmath
import math

import numpy as np
import pytest

from dirichlet_ops import (
    FULL,
    NEAR_SPECTRUM_RADIUS,
    ZERO_SUBSPACE,
    DirichletPolynomial,
    DomainError,
    SpectralError,
    add,
    bv_check,
    classify_point,
    coefficient_close,
    monomial,
    reciprocal_spectrum_check,
    resolvent_apply,
    scale,
    spectral_gap,
)

from conftest import random_poly

ABS_LOG3_MINUS_1 = 0.09861228866810978  # |log 3 - 1|


def brute_gap(lam: complex, n_max: int = 10**5) -> float:
    logs = np.log(np.arange(2, n_max + 1, dtype=np.float64))
    inner = float(np.sqrt(np.min((logs + lam.real) ** 2 + lam.imag**2)))
    return min(abs(lam), inner)


class TestSpectralGap:
    def test_at_one(self):
        assert spectral_gap(1.0) == 1.0

    def test_on_spectrum(self):
        assert spectral_gap(-math.log(2)) == 0.0

    def test_near_e_window(self):
        assert spectral_gap(-1.0) == pytest.approx(ABS_LOG3_MINUS_1, rel=1e-15)

    def test_window_matches_brute_force(self, rng):
        for _ in range(25):
            lam = complex(rng.uniform(-10, 3), rng.uniform(-5, 5))
            assert spectral_gap(lam) == pytest.approx(brute_gap(lam), abs=1e-12)

    def test_deep_left_half_plane_distance_is_imaginary_part(self):
        lam = complex(-60.0, 0.25)
        # the minimizing index ~ e^60 is unreachable; the infimum is |Im|
        assert spectral_gap(lam) == pytest.approx(0.25, abs=1e-12)


class TestClassification:
    def test_eigenvalue_both_spaces(self):
        for space in (ZERO_SUBSPACE, FULL):
            cls = classify_point(-math.log(5), space)
            assert cls.kind == "eigenvalue"
            assert cls.n == 5
            assert cls.eigenvector == monomial(5)

    def test_zero_on_zero_subspace_is_resolvent_point(self):
        cls = classify_point(0.0, ZERO_SUBSPACE)
        assert cls.kind == "resolvent_point"
        assert cls.gap == pytest.approx(math.log(2), rel=1e-15)

    def test_zero_on_full_space_is_constant_eigenvalue(self):
        cls = classify_point(0.0, FULL)
        assert cls.kind == "eigenvalue_constant"
        assert cls.eigenvector == monomial(1)

    def test_eigenvalue_ladder(self):
        for n in range(2, 1001):
            cls = classify_point(-math.log(n), ZERO_SUBSPACE)
            assert cls.kind == "eigenvalue"
            assert cls.n == n

    def test_near_spectrum_flag(self):
        cls = classify_point(-math.log(2) + 1e-9, ZERO_SUBSPACE)
        assert cls.kind == "resolvent_point"
        assert cls.near_spectrum
        assert cls.gap < NEAR_SPECTRUM_RADIUS

        far = classify_point(1.0, ZERO_SUBSPACE)
        assert not far.near_spectrum

    def test_space_validated(self):
        with pytest.raises(DomainError):
            classify_point(1.0, "everything")

    @pytest.mark.parametrize("lam", [-50.0, -800.0, -800.0 + 1e-13j])
    def test_dense_spectrum_far_left(self, lam):
        # exp(-Re lambda) is past int64: no eigenvector index is claimed
        for space in (ZERO_SUBSPACE, FULL):
            cls = classify_point(lam, space)
            assert cls.kind == "dense_spectrum"
            assert cls.n is None and cls.eigenvector is None
        with pytest.raises(SpectralError) as exc:
            resolvent_apply(lam, monomial(2), ZERO_SUBSPACE)
        assert exc.value.classification.kind == "dense_spectrum"
        assert reciprocal_spectrum_check(lam).consistent

    def test_far_left_off_axis_is_resolvent_point(self):
        cls = classify_point(-800.0 + 0.25j, FULL)
        assert cls.kind == "resolvent_point"
        assert cls.gap == 0.25


class TestResolvent:
    def test_monomial_formula(self):
        got = resolvent_apply(1.0, monomial(2), ZERO_SUBSPACE)
        assert got.coefficient(2) == pytest.approx(1.0 / (1.0 + math.log(2)), rel=1e-15)

    def test_constant_on_full_space(self):
        got = resolvent_apply(1.0, monomial(1), FULL)
        assert got.coefficient(1) == 1.0

    def test_round_trip(self, rng):
        lam = 2.0 + 1.0j
        for _ in range(20):
            f = random_poly(rng, max_index=256, n_terms=8, zero_constant=True)
            r = resolvent_apply(lam, f, ZERO_SUBSPACE)
            back = DirichletPolynomial(
                {n: (lam + math.log(n)) * a for n, a in r.items()}
            )
            assert coefficient_close(back, f, rtol=1e-12, atol=1e-300)

    def test_gap_bounds_output_coefficients(self, rng):
        lam = 0.75 - 0.5j
        mu = spectral_gap(lam)
        f = random_poly(rng, max_index=256, n_terms=12, zero_constant=True)
        out = resolvent_apply(lam, f, ZERO_SUBSPACE)
        for n, a in out.items():
            assert abs(a) <= abs(f.coefficient(n)) / mu * (1 + 1e-12)

    def test_spectrum_point_rejected_with_classification(self):
        with pytest.raises(SpectralError) as exc:
            resolvent_apply(-math.log(2), monomial(2), ZERO_SUBSPACE)
        assert exc.value.classification.kind == "eigenvalue"

    def test_zero_rejected_on_full_space(self):
        with pytest.raises(SpectralError):
            resolvent_apply(0.0, monomial(1), FULL)

    def test_constant_term_rejected_on_zero_subspace(self):
        with pytest.raises(DomainError):
            resolvent_apply(1.0, monomial(1), ZERO_SUBSPACE)


class TestBoundedVariation:
    def test_unit_lambda_bounded(self):
        report = bv_check(1.0, 0.5, 10**4)
        assert report.verdict == "bounded"
        assert report.gap == 1.0
        assert report.majorant_ratio < 1.0

    def test_fitted_constant_stabilizes(self):
        half = bv_check(1.0, 0.5, 5000)
        full = bv_check(1.0, 0.5, 10**4)
        assert abs(full.fitted_constant - half.fitted_constant) <= 0.01 * full.fitted_constant

    def test_termwise_majorant_holds(self):
        report = bv_check(1.0, 0.5, 10**4)
        lam, delta, mu, C = 1.0, 0.5, report.gap, report.fitted_constant
        gam = np.array(
            [1.0 / ((math.log(n) + lam) * n**delta) for n in range(2, 10**4 + 2)]
        )
        diffs = np.abs(np.diff(gam))
        ns = np.arange(2, 10**4 + 1, dtype=np.float64)
        assert np.all(diffs <= C / (mu**2) * ns ** -(1 + delta / 2) * (1 + 1e-9))

    def test_variation_cauchy(self):
        half = bv_check(1.0, 0.5, 5000)
        full = bv_check(1.0, 0.5, 10**4)
        mu, C = full.gap, full.fitted_constant
        # integral comparison for the discarded block
        tail = C / mu**2 * (2 / 0.5) * 5000 ** -(0.25)
        assert 0 <= full.variation - half.variation <= tail

    def test_equal_inputs_give_equal_reports(self):
        # partial_sums is left out of == and hash: (lam, delta, N) fix it
        a, b = bv_check(1.0, 0.5, 2000), bv_check(1.0, 0.5, 2000)
        assert a == b and hash(a) == hash(b)
        assert a != bv_check(1.0, 0.5, 4000)
        with pytest.raises(ValueError, match="read-only"):
            a.partial_sums[0] = 0.0

    @pytest.mark.parametrize("im", [1e-12, 1e-100, 1.5e-154])
    def test_majorant_ratio_not_absorbed_near_spectrum(self, im):
        # the n = 2 term dominates V near -log 2, and V[-1] - V[N/2 - 2]
        # rounds to 0; the window's own diffs sum to ~2e-15 .. 3e-157 of the majorant
        lam, delta, N = complex(-math.log(2), im), 0.5, 1000
        report = bv_check(lam, delta, N)
        ns = np.arange(2, N + 2, dtype=np.float64)
        diffs = np.abs(np.diff(1.0 / ((np.log(ns) + lam) * ns**delta)))
        tail = (report.fitted_constant / report.gap**2) * (2.0 / delta) * (N // 2) ** (-0.5 * delta)
        assert report.majorant_ratio > 0.0
        assert report.majorant_ratio == pytest.approx(math.fsum(diffs[N // 2 - 1 :]) / tail, rel=1e-12)

    @pytest.mark.parametrize("bad_delta", [0.0, 1.0, -0.3, 1.7])
    def test_delta_range_enforced(self, bad_delta):
        with pytest.raises(DomainError):
            bv_check(1.0, bad_delta, 10**4)

    def test_spectrum_lambda_rejected(self):
        with pytest.raises(SpectralError):
            bv_check(-math.log(2), 0.5, 10**4)

    @pytest.mark.parametrize("N", [999, 1000.5])
    def test_window_length_validated(self, N):
        with pytest.raises(DomainError, match="N must be"):
            bv_check(1.0, 0.5, N)


class TestNonFiniteParameter:
    @pytest.mark.parametrize(
        "lam", [math.nan, math.inf, -math.inf, complex(-1.0, math.nan), complex(0.5, math.inf)]
    )
    @pytest.mark.parametrize(
        "call",
        [
            spectral_gap,
            lambda lam: classify_point(lam, FULL),
            lambda lam: classify_point(lam, ZERO_SUBSPACE),
            lambda lam: resolvent_apply(lam, monomial(2), FULL),
            lambda lam: bv_check(lam, 0.5),
            reciprocal_spectrum_check,
        ],
        ids=["spectral_gap", "classify_full", "classify_zero", "resolvent", "bv_check", "reciprocal"],
    )
    def test_raises_domain_error(self, call, lam):
        with pytest.raises(DomainError, match="spectral parameter must be finite"):
            call(lam)


class TestReciprocal:
    def test_spectrum_point_consistent(self):
        report = reciprocal_spectrum_check(-math.log(2))
        assert not report.in_rho_d
        assert not report.in_rho_j_reciprocal
        assert report.consistent

    def test_resolvent_point_consistent(self):
        report = reciprocal_spectrum_check(1.0)
        assert report.in_rho_d and report.in_rho_j_reciprocal and report.consistent

    def test_imaginary_point_consistent(self):
        report = reciprocal_spectrum_check(2j)
        assert report.in_rho_d and report.in_rho_j_reciprocal and report.consistent

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            reciprocal_spectrum_check(0.0)

    def test_sweep_consistency(self, rng):
        points = [-math.log(n) for n in range(2, 51)]
        while len(points) < 100:
            points.append(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)))
        for mu in points:
            if mu == 0:
                continue
            assert reciprocal_spectrum_check(mu).consistent
