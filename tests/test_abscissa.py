import math

import numpy as np
import pytest

from dirichlet_ops import (
    CoefficientRule,
    DomainError,
    bracket_sigma_u,
    eta_rule,
    ones_rule,
    sigma_a_estimate,
    sigma_c_estimate,
    table_rule,
    zeta_shift_rule,
)

N = 10**5


def linear_rule() -> CoefficientRule:
    return CoefficientRule(
        tag="linear",
        vectorized=lambda ns: ns.astype(np.float64),
    )


class TestSigmaC:
    def test_ones_is_one(self):
        assert sigma_c_estimate(ones_rule(), 2000).value == pytest.approx(1.0, abs=1e-9)
        assert sigma_c_estimate(ones_rule(), N).value == pytest.approx(1.0, abs=1e-9)

    def test_eta_is_zero(self):
        assert sigma_c_estimate(eta_rule(), N).value == pytest.approx(0.0, abs=0.05)

    def test_linear_growth(self):
        assert sigma_c_estimate(linear_rule(), N).value == pytest.approx(2.0, abs=0.01)

    def test_identically_zero_rule_gives_minus_inf(self):
        assert sigma_c_estimate(table_rule({}), 500).value == -math.inf

    def test_window_length_validated(self):
        with pytest.raises(DomainError):
            sigma_c_estimate(ones_rule(), 99)


class TestSigmaA:
    def test_eta_is_one(self):
        assert sigma_a_estimate(eta_rule(), N).value == pytest.approx(1.0, abs=0.02)

    def test_ones_is_one(self):
        assert sigma_a_estimate(ones_rule(), N).value == pytest.approx(1.0, abs=0.02)

    def test_zeta_shift_engages_shift_protocol(self):
        est = sigma_a_estimate(zeta_shift_rule(2), N)
        assert est.value == pytest.approx(-1.0, abs=0.05)
        assert est.shift >= 1

    def test_uncertainty_floor(self):
        est = sigma_c_estimate(ones_rule(), N)
        assert est.uncertainty >= 0.01


class TestBracket:
    def test_eta_bracket_and_probes(self):
        est = bracket_sigma_u(eta_rule(), N, [0.1, 0.5])
        lo, hi = est.sigma_u_bracket
        assert lo == pytest.approx(0.0, abs=0.05)
        assert hi == pytest.approx(1.0, abs=0.02)
        assert lo <= hi
        # eta has bounded partial sums, so the line sups stay modest
        for probe in est.probes:
            assert probe.sup_abs < 10.0
        assert {p.epsilon for p in est.probes} == {0.1, 0.5}

    def test_ones_bracket_pinches(self):
        est = bracket_sigma_u(ones_rule(), N, [0.5])
        lo, hi = est.sigma_u_bracket
        assert lo == pytest.approx(1.0, abs=0.02)
        assert hi == pytest.approx(1.0, abs=0.02)

    def test_zeta_shift_bracket(self):
        est = bracket_sigma_u(zeta_shift_rule(2), N, [0.5])
        lo, hi = est.sigma_u_bracket
        assert lo <= -0.95
        assert hi == pytest.approx(-1.0, abs=0.05)

    def test_probe_evidence_counts(self):
        # the GEMM screen leaves a few of the 121 points to the direct refine
        for probe in bracket_sigma_u(eta_rule(), 2000, [0.1, 0.5]).probes:
            assert probe.points == 121
            assert 1 <= probe.refined < 121

    def test_note_flags_bracket_only_reporting(self):
        est = bracket_sigma_u(eta_rule(), 1000, [0.5])
        assert "bracket" in est.note

    def test_probe_list_validated(self):
        with pytest.raises(DomainError):
            bracket_sigma_u(eta_rule(), 1000, [])
        with pytest.raises(DomainError):
            bracket_sigma_u(eta_rule(), 1000, [-0.5])

    @pytest.mark.parametrize(
        "grid",
        [
            {"points": 0},
            {"points": -3},
            {"t_max": 0.0},
            {"t_max": -1.0},
            {"t_max": math.inf},
            {"t_max": math.nan},
        ],
    )
    def test_probe_grid_validated(self, grid):
        with pytest.raises(DomainError):
            bracket_sigma_u(eta_rule(), 1000, [0.5], **grid)


class TestCorpusStability:
    CORPUS = (
        (ones_rule, 1.0, 1.0),
        (eta_rule, 0.0, 1.0),
        (lambda: zeta_shift_rule(2), -1.0, -1.0),
    )

    @pytest.mark.parametrize("make_rule,want_c,want_a", CORPUS)
    def test_known_answers(self, make_rule, want_c, want_a):
        rule = make_rule()
        assert sigma_c_estimate(rule, N).value == pytest.approx(want_c, abs=0.05)
        assert sigma_a_estimate(rule, N).value == pytest.approx(want_a, abs=0.05)

    @pytest.mark.parametrize("make_rule,want_c,want_a", CORPUS)
    def test_ordering(self, make_rule, want_c, want_a):
        rule = make_rule()
        c = sigma_c_estimate(rule, N)
        a = sigma_a_estimate(rule, N)
        assert c.value <= a.value + c.uncertainty + a.uncertainty

    @pytest.mark.parametrize("make_rule,want_c,want_a", CORPUS)
    def test_doubling_N_stays_within_uncertainty(self, make_rule, want_c, want_a):
        rule = make_rule()
        for estimator in (sigma_c_estimate, sigma_a_estimate):
            e1 = estimator(rule, N // 2)
            e2 = estimator(rule, N)
            assert abs(e1.value - e2.value) <= e1.uncertainty + e2.uncertainty
