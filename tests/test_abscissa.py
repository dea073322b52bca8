import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import abscissa
from dirichlet_ops import (
    CoefficientRule,
    DomainError,
    bracket_sigma_u,
    eta_rule,
    moebius_rule,
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

    @pytest.mark.parametrize("n", [2000, N])
    def test_ones_is_exactly_one(self, n):
        # log|A_M| = log M: the window is an exact line of slope 1
        assert sigma_c_estimate(ones_rule(), n).value == 1.0

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

    def test_probe_screen_memory(self):
        # the screen works in blocks of terms, so the call peaks at what the
        # windows take (80.5 bytes a term); a screen holding whole B x N and
        # N x B phase blocks peaked at 552 bytes a term here, the bound
        n = 1 << 18
        bracket_sigma_u(eta_rule(), n, [0.1, 0.5])
        tracemalloc.start()
        try:
            bracket_sigma_u(eta_rule(), n, [0.1, 0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 552 * n

    def test_probe_stack_memory(self, monkeypatch):
        # four complex probes share one screen at P (N + points) = 2^18, the
        # largest stack: it adds at most its weights and grid values (2^18
        # entries, 41 bytes each with S, |S| and the kept mask) and three
        # more probes' A blocks (C <= 257 rows of 1024 terms here, as
        # T < 2^16) to one probe's peak; measured 27.8 vs 10.3 MiB
        rule = CoefficientRule("phases", lambda n: np.exp(1j * n) / np.sqrt(n))
        eps = [0.1, 0.3, 0.5, 0.7]

        def peak():
            bracket_sigma_u(rule, 4096, eps, points=61_440)
            tracemalloc.start()
            try:
                bracket_sigma_u(rule, 4096, eps, points=61_440)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stacked = peak()
        monkeypatch.setattr(abscissa, "_PROBE_STACK", 1)
        assert stacked <= peak() + 41 * abscissa._STACK_ENTRIES + 3 * 257 * 1024 * 16

    def test_large_probes_screen_alone(self, monkeypatch):
        # past P (N + points) = 2^18 the stack shrinks, and from N = 2^17 on
        # each probe screens alone, holding what one probe did
        rows = []
        screen = abscissa._grid_sup

        def spy(logn, W, ts):
            rows.append(len(W))
            return screen(logn, W, ts)

        monkeypatch.setattr(abscissa, "_grid_sup", spy)
        bracket_sigma_u(eta_rule(), (1 << 17) - 121, [0.1, 0.5, 1.0])
        bracket_sigma_u(eta_rule(), 1 << 17, [0.1, 0.5])
        assert rows == [2, 1, 1, 1]

    def test_note_flags_bracket_only_reporting(self):
        est = bracket_sigma_u(eta_rule(), 1000, [0.5])
        assert "bracket" in est.note

    def test_probe_list_validated(self):
        with pytest.raises(DomainError):
            bracket_sigma_u(eta_rule(), 1000, [])
        with pytest.raises(DomainError):
            bracket_sigma_u(eta_rule(), 1000, [-0.5])

    @pytest.mark.parametrize(
        "estimate",
        [
            sigma_c_estimate,
            sigma_a_estimate,
            lambda rule, n: bracket_sigma_u(rule, n, [0.0]),
        ],
        ids=["sigma_c", "sigma_a", "bracket"],
    )
    def test_overflowing_partial_sums_name_N(self, estimate):
        # 1e308 + 1e308 passes double range: without the check the window
        # fit saw inf and reported sigma = -inf, "converges everywhere"
        with pytest.raises(DomainError, match=r"n\^0 a_n up to window length N = 100 overflow"):
            estimate(table_rule({1: 1e308, 2: 1e308}), 100)

    def test_non_finite_probe_sup_names_epsilon(self, monkeypatch):
        # on the probe line |f| <= sum |a_n|, which sigma_a has already found
        # finite, so only rounding at the edge of double range gets here: the
        # stacked screen is replaced by one whose every row overflows
        monkeypatch.setattr(abscissa, "_grid_sup",
                            lambda logn, W, ts: (np.full(len(W), math.inf), np.full(len(W), ts.size)))
        with pytest.raises(DomainError, match=r"probe sup at epsilon = 0\.5 overflows"):
            bracket_sigma_u(eta_rule(), 1000, [0.5])

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

    def test_probe_grid_shares_the_seminorm_cap(self):
        with pytest.raises(DomainError, match=r"probe grid points = 4611686018427387904 is above the cap of 16777216"):
            bracket_sigma_u(eta_rule(), 100, [0.5], points=2**62)


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


class TestSlopesEvidence:
    @pytest.mark.parametrize(
        "estimate, rule",
        [
            (sigma_c_estimate, ones_rule()),
            (sigma_c_estimate, eta_rule()),
            (sigma_a_estimate, eta_rule()),
            (sigma_a_estimate, zeta_shift_rule(2)),
            (sigma_c_estimate, linear_rule()),
        ],
        ids=["sigma_c-ones", "sigma_c-eta", "sigma_a-eta", "sigma_a-zeta_shift(2)", "sigma_c-linear"],
    )
    def test_value_is_last_slope_minus_shift(self, estimate, rule):
        est = estimate(rule, 2000)
        assert len(est.slopes) == est.shift + 1
        assert est.value == est.slopes[-1] - est.shift
        assert not any(s >= abscissa._DIVERGENCE_SLOPE for s in est.slopes[:-1])

    def test_no_divergence_keeps_every_shift(self):
        # |A_M| vanishes in every window: no slope at any shift
        est = sigma_c_estimate(table_rule({}), 500)
        assert est.value == -math.inf and est.shift == abscissa._MAX_SHIFT
        assert len(est.slopes) == abscissa._MAX_SHIFT + 1
        assert all(math.isnan(s) for s in est.slopes)


def estimate_outcome(values, N):
    """repr of _estimate (exact floats, nan slopes too), or its error text."""
    try:
        return repr(abscissa._estimate(values, N))
    except DomainError as e:
        return str(e)


class TestRealWindowSums:
    """_estimate shifts and sums real values in float64; the complex path,
    given the same values as complex128, gives the same bits and errors."""

    @pytest.mark.parametrize("N", [100, 2001, 20_000])
    @pytest.mark.parametrize(
        "rule",
        [ones_rule(), eta_rule(), moebius_rule(), zeta_shift_rule(2), linear_rule(), table_rule({})],
        ids=lambda r: r.tag,
    )
    def test_rules(self, rule, N):
        values = rule.values(np.arange(1, N + 1, dtype=np.int64))
        for real in (values, np.abs(values)):
            assert estimate_outcome(real, N) == estimate_outcome(real.astype(np.complex128), N)

    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(100, 3000),
           top=st.sampled_from([1.0, 1e100, 1e280, 1e300]), zeros=st.floats(0.0, 0.99))
    def test_random_values(self, seed, N, top, zeros):
        # magnitudes up to 1e300, where a shifted sum overflows, and windows
        # that vanish in part or everywhere
        rng = np.random.default_rng(seed)
        values = rng.normal(size=N) * top * 10.0 ** rng.uniform(-20.0, 0.0, N)
        values[rng.uniform(size=N) < zeros] = 0.0
        assert estimate_outcome(values, N) == estimate_outcome(values.astype(np.complex128), N)
