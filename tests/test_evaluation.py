import math
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_ops import evaluation
from dirichlet_ops import (
    ZERO,
    CoefficientRule,
    DirichletPolynomial,
    DomainError,
    HalfPlanePoint,
    add,
    boundary_values,
    eta_rule,
    evaluate,
    monomial,
    ones_rule,
    partial_sum,
    scale,
    seminorm,
    summation_by_parts,
    table_rule,
    tail_bound_monotone,
    truncate,
    truncation_for_tolerance,
    zeta_shift_rule,
)

from conftest import poly_strategy, real_positive_coefficients

# independent oracles (30-digit arbitrary-precision evaluation, frozen)
ETA_HALF = 0.604898643421630370  # sum (-1)^(n+1) n^(-1/2)
ZETA2_TAIL_PAST_100 = 0.0099501666633335714  # zeta(2) - sum_{n<=100} n^(-2)
ETA_HALF_TAIL_PAST_1E4 = 0.0049998750000003906


class TestEvaluate:
    def test_monomial_at_one(self):
        assert evaluate(monomial(2), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_sum_at_zero(self):
        f = add(monomial(1), monomial(2))
        assert evaluate(f, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_phase_alignment_on_critical_line(self):
        # at s = i pi / log 2 the 2^(-s) term has phase exp(-i pi) = -1
        f = add(monomial(1), scale(-1.0, monomial(2)))
        s = complex(0.0, math.pi / math.log(2.0))
        assert evaluate(f, s) == pytest.approx(2.0, rel=1e-12)

    def test_zero_polynomial(self):
        assert evaluate(DirichletPolynomial({}), 2.0) == 0.0

    def test_half_plane_point_is_its_complex_point(self):
        f = DirichletPolynomial({1: 0.5, 2: -1j, 9: 2.0})
        p = HalfPlanePoint(0.75, -3.0)
        assert evaluate(f, p) == evaluate(f, complex(0.75, -3.0))
        assert partial_sum(eta_rule(), p, 500) == partial_sum(eta_rule(), complex(0.75, -3.0), 500)

    def test_rejects_nonfinite_point(self):
        with pytest.raises(DomainError):
            evaluate(monomial(2), complex(math.nan, 0))

    def test_overflow_raises_naming_the_point(self):
        # 2^2000 overflows a double: the sum would be inf + nan j
        with pytest.raises(DomainError, match=r"s = \(-2000\+0j\)"):
            evaluate(add(monomial(2), monomial(3)), -2000)


class TestPartialSum:
    def test_matches_truncated_evaluation(self):
        rule = zeta_shift_rule(2)
        s = 0.7 + 1.3j
        direct = evaluate(truncate(rule, 5000), s)
        streamed = partial_sum(rule, s, 5000)
        assert streamed == pytest.approx(direct, rel=1e-12)

    def test_overflow_raises_naming_the_point(self):
        with pytest.raises(DomainError, match=r"s = \(-2000\+0j\)"):
            partial_sum(ones_rule(), -2000, 10)

    def test_zero_point_shortcut(self):
        rule = eta_rule()
        assert partial_sum(rule, 0.0, 101) == pytest.approx(1.0, abs=1e-15)

    def test_chunking_invariance(self):
        rule = zeta_shift_rule(1)
        a = partial_sum(rule, 0.5, 10_000, chunk=1 << 22)
        b = partial_sum(rule, 0.5, 10_000, chunk=128)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("N", [0, 10.5, True, 2**63])
    def test_rejects_bad_length(self, N):
        with pytest.raises(DomainError, match="partial sum length N"):
            partial_sum(eta_rule(), 0.0, N)

    @pytest.mark.parametrize("chunk", [0, -3, 1.5, True, 2**24 + 1, 2**40, 2**61, 2**63 - 1])
    def test_rejects_bad_chunk(self, chunk):
        # 0 and -3 never advanced the stream; 1.5 summed overlapping chunks.
        # Over a long stream 2^40 and 2^61 leaked numpy's MemoryError and
        # ValueError, and 2^63 - 1 an empty np.arange: a silent 0j
        N = 2**63 - 4 if chunk >= 2**40 else 10
        with pytest.raises(DomainError, match="chunk length"):
            partial_sum(zeta_shift_rule(2), 0, N, chunk=chunk)

    def test_longest_chunk(self):
        want = partial_sum(zeta_shift_rule(2), 0.5j, 10, chunk=3)
        assert partial_sum(zeta_shift_rule(2), 0.5j, 10, chunk=2**24) == pytest.approx(want, rel=1e-15)

    def test_chunk_of_one(self):
        want = math.fsum(1.0 / n**2 for n in range(1, 11))
        assert partial_sum(zeta_shift_rule(2), 0, 10, chunk=1) == pytest.approx(want, rel=1e-15)


def wait_or_kill(pid, seconds):
    """Exit code of child pid, or None after killing it at the deadline."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


class TestPartialSumPool:
    def test_worker_overflow_is_a_domain_error(self, monkeypatch):
        # three chunks, so the overflow happens on pool threads, where the
        # caller's np.errstate does not reach; a RuntimeWarning there is an
        # error under this suite's filter.  At s = -2000 + i the terms
        # overflow; at s = -60 + i the second chunk's terms are finite
        # (131072^60 < DBL_MAX) but their sum is not
        monkeypatch.setattr(evaluation, "_WORKERS", 2)
        for s in (complex(-2000, 1), complex(-60, 1)):
            with pytest.raises(DomainError, match=re.escape(f"s = {s}")):
                partial_sum(ones_rule(), s, 3 * 2**16)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        names = set()

        def vec(ns):
            names.add(threading.current_thread().name)
            return np.ones(ns.shape)

        monkeypatch.setattr(evaluation, "_WORKERS", 2)
        before = threading.active_count()
        partial_sum(CoefficientRule("ones", vec), 0.5 + 3j, 2048, chunk=256)
        assert names and all(name.startswith("partial_sum") for name in names)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        # the parent's pooled call ends with its threads joined, so the child
        # starts its own and must get the parent's bits
        monkeypatch.setattr(evaluation, "_WORKERS", 2)
        want = partial_sum(eta_rule(), 0.5 + 3j, 2048, chunk=256)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if partial_sum(eta_rule(), 0.5 + 3j, 2048, chunk=256) == want else 2
            finally:
                os._exit(code)
        assert wait_or_kill(pid, 30) == 0

    def test_window_holds_a_bounded_number_of_terms(self, monkeypatch):
        # 2 x 64 whole 2^22-term chunks in flight would take ~8 GB on a
        # 64-CPU host; the window is capped by terms, not by workers alone
        monkeypatch.setattr(evaluation, "_WORKERS", 64)
        for k in range(25):
            window = evaluation._window(2**40, 2**k)
            assert window == 1 or (window <= 128 and window * 2**k <= evaluation._TERMS_IN_FLIGHT)
        assert evaluation._window(2**40, 2**16) == 64
        assert evaluation._window(2**40, 2**20) == 4
        assert evaluation._window(2**40, 2**21) == 2
        assert evaluation._window(2**40, 2**21 + 1) == 1
        assert evaluation._window(3 * 2**16, 2**16) == 6
        monkeypatch.setattr(evaluation, "_WORKERS", 2)
        assert evaluation._window(2**40, 2**16) == 4

    def test_large_chunks_skip_the_pool(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_WORKERS", 64)
        windows = []
        monkeypatch.setattr(evaluation, "_pooled_sum", lambda rule, s, bounds, window: windows.append(window) or 0j)
        monkeypatch.setattr(evaluation, "_chunk_terms", lambda rule, s, lo, hi: np.ones(1))
        assert partial_sum(ones_rule(), 1j, 2**23, chunk=2**20) == 0j
        assert windows == [4]
        # two 2^22-term chunks, one at a time on the calling thread
        assert partial_sum(ones_rule(), 1j, 2**23, chunk=2**22) == 2
        assert windows == [4]

    def test_concurrent_callers(self, monkeypatch):
        # more callers and workers than cores, with frequent thread switches;
        # each caller runs its own pool of 4
        points = [complex(0.5, t) for t in (3.0, 14.1, 21.0, 25.0, 30.4, 32.9)]
        monkeypatch.setattr(evaluation, "_WORKERS", 1)
        want = {s: partial_sum(eta_rule(), s, 4096, chunk=128) for s in points}
        monkeypatch.setattr(evaluation, "_WORKERS", 4)
        got, errors = {}, []

        def call(s):
            try:
                for _ in range(5):
                    got.setdefault(s, set()).add(partial_sum(eta_rule(), s, 4096, chunk=128))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(s,)) for s in points]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert errors == []
        assert got == {s: {v} for s, v in want.items()}


class TestSummationByParts:
    def test_three_term_example(self):
        got = summation_by_parts([1, 1, 1], [1.0, 0.5, 1.0 / 3.0])
        assert got == pytest.approx(11.0 / 6.0, rel=1e-15)

    def test_constant_weight_collapses_to_partial_sum(self):
        x = np.array([0.3, -1.2, 2.5, 0.7])
        got = summation_by_parts(x, np.full(4, 2.5))
        assert got == pytest.approx(2.5 * x.sum(), rel=1e-14)

    def test_eta_against_direct_sum(self):
        N = 1000
        x = truncate(eta_rule(), N)
        xs = np.array([x.coefficient(n) for n in range(1, N + 1)])
        ys = np.arange(1, N + 1, dtype=np.float64) ** -0.5
        direct = complex(np.sum(xs * ys))
        rearranged = summation_by_parts(xs, ys)
        assert rearranged == pytest.approx(direct, rel=1e-12)

    def test_length_one_keeps_negative_zero(self):
        # (1 + 0j)(-0.0 + 0j) has real part 1 * -0.0 - 0 * 0 = -0.0
        got = summation_by_parts([1.0], [complex(-0.0, 0.0)])
        assert repr(got) == repr(complex(np.complex128(1.0) * np.complex128(complex(-0.0, 0.0))))
        assert math.copysign(1.0, got.real) == -1.0

    @pytest.mark.parametrize(
        "x, y, where",
        [
            ([math.nan], [1.0], r"x\[0\] must be finite"),
            ([1.0, -math.inf, 1.0], [1.0, 1.0, 1.0], r"x\[1\] must be finite"),
            ([1.0, 2.0], [1.0, complex(0.0, math.inf)], r"y\[1\] must be finite"),
        ],
    )
    def test_non_finite_entry_named(self, x, y, where):
        with pytest.raises(DomainError, match=where):
            summation_by_parts(x, y)

    @pytest.mark.parametrize("x", [["a"], [10**400], [object()]])
    def test_non_numeric_entry_rejected(self, x):
        with pytest.raises(DomainError, match="sequences of complex numbers"):
            summation_by_parts(x, [1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(DomainError, match=r"one-dimensional, got shapes \(2, 2\) and \(2, 2\)"):
            summation_by_parts(np.ones((2, 2)), np.ones((2, 2)))

    def test_overflow_raises(self):
        # the running sum 2e308 overflows: no inf + nan j, no numpy warning
        with pytest.raises(DomainError, match="summation by parts overflows double precision"):
            summation_by_parts([1e308, 1e308], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            summation_by_parts([1, 2], [1])

    def test_random_corpus_matches_direct(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 10_001))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            direct = complex(np.sum(x * y))
            got = summation_by_parts(x, y)
            # 1e-12 relative to the summation mass: the rearrangement moves
            # the same terms through partial sums, so its roundoff scales
            # with sum |X_n| |dy_n|, not with the (possibly cancelled) value
            mass = float(np.sum(np.abs(x * y)))
            if n > 1:
                mass += float(np.sum(np.abs(np.cumsum(x)[:-1] * np.diff(y))))
            assert abs(got - direct) <= 1e-12 * (1.0 + mass)


class TestTailBounds:
    def test_eta_alternating_tail(self):
        M = 10_000
        tb = tail_bound_monotone(eta_rule(), None, M, 0.5)
        assert tb.bound >= ETA_HALF_TAIL_PAST_1E4  # sound
        assert tb.bound <= 1.05 * (M + 1) ** -0.5  # alternating remainder scale

    def test_zero_weight(self):
        tb = tail_bound_monotone(eta_rule(), lambda n: 0.0, 100, 0.5)
        assert tb.bound == 0.0

    def test_zeta_shift_tail(self):
        tb = tail_bound_monotone(zeta_shift_rule(2), None, 100, 0.0)
        assert tb.bound >= ZETA2_TAIL_PAST_100  # sound
        assert tb.bound < 0.0105

    def test_indices_whose_logs_coincide_fit_no_decay(self):
        # near 2^63 the sampled log n of the probe's second half all round to
        # one double, so no decay slope exists and no finite bound is given
        tb = tail_bound_monotone(zeta_shift_rule(2), None, 2**63 - 2**16 - 1, 0.0)
        assert (tb.regime, tb.bound) == ("sparse", math.inf)

    def test_bound_nonincreasing_in_M(self):
        bounds = [
            tail_bound_monotone(zeta_shift_rule(2), None, M, 0.0).bound
            for M in (100, 200, 400, 800)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(b >= 0 for b in bounds)

    def test_monotone_weight_violation_detected(self):
        with pytest.raises(DomainError):
            tail_bound_monotone(eta_rule(), lambda n: (-1.0) ** n, 100, 0.5)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_named(self, w):
        with pytest.raises(DomainError, match=rf"weight must be finite, got {w!r} at n = 101"):
            tail_bound_monotone(eta_rule(), lambda n: w, 100, 0.5)

    def test_vanishing_tail_is_zero(self):
        tb = tail_bound_monotone(table_rule({1: 1.0}), None, 100, 0.5)
        assert tb.bound == 0.0
        assert tb.regime == "zero"

    def test_flat_probe_window_is_settled(self):
        # one nonzero term in the window leaves |S_k| constant past it:
        # settled, not the non-integrable "divergent"
        tb = tail_bound_monotone(table_rule({2000: 1.0}), None, 1024, 0.0)
        assert (tb.regime, tb.bound) == ("oscillatory", 1.01)
        M, tb = truncation_for_tolerance(table_rule({2000: 1.0}), 0.0, 1e-3)
        assert (M, tb.regime) == (2048, "zero")

    @pytest.mark.parametrize("table", [{41024: 1.0, 51024: 1.0}, {1034: 1.0, 51024: 1.0}])
    def test_sparse_window_is_labelled_sparse(self, table):
        # one nonzero term in the window's second half: too few to fit a
        # decay, so no finite bound, but not a non-integrable tail either
        tb = tail_bound_monotone(table_rule(table), None, 1024, 0.0)
        assert (tb.regime, tb.bound) == ("sparse", math.inf)
        M, tb = truncation_for_tolerance(table_rule(table), 0.0, 1e-3)
        assert (M, tb.regime, tb.bound) == (65536, "zero", 0.0)

    def test_nonintegrable_tail_is_infinite(self):
        tb = tail_bound_monotone(ones_rule(), None, 100, 0.0)
        assert math.isinf(tb.bound)
        assert tb.regime == "divergent"

    def test_truncation_for_tolerance(self):
        M, tb = truncation_for_tolerance(zeta_shift_rule(2), 0.0, 1e-4)
        assert tb.bound <= 1e-4
        assert tb.M == M
        # the selected truncation really does leave a tail below tolerance
        true_tail = 1.0 / M  # integral bracket: 1/(M+1) <= tail <= 1/M
        assert true_tail <= 1.5e-4

    @pytest.mark.parametrize("M", [100.5, 2**63 - 10])
    def test_rejects_bad_tail_start(self, M):
        with pytest.raises(DomainError, match="tail (start|probe end) M"):
            tail_bound_monotone(eta_rule(), None, M, 0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1000.0])
    def test_rejects_non_finite_weighted_window(self, eps):
        with pytest.raises(DomainError, match="epsilon must be finite"):
            tail_bound_monotone(eta_rule(), None, 100, eps)

    def test_truncation_names_nan_epsilon_at_first_rung(self):
        with pytest.raises(DomainError, match=r"epsilon must be finite .* n = 1025\.\.66560, got nan"):
            truncation_for_tolerance(zeta_shift_rule(2), math.nan, 1e-4)

    def test_truncation_gives_up_after_last_rung(self):
        # ones has no integrable tail at epsilon = 0: all 40 rungs are divergent
        with pytest.raises(DomainError, match=r"below M = 1125899906842624 \(last regime: divergent\)"):
            truncation_for_tolerance(ones_rule(), 0.0, 1e-3)

    def test_truncation_rejects_nonpositive_tolerance(self):
        with pytest.raises(DomainError):
            truncation_for_tolerance(zeta_shift_rule(2), 0.0, 0.0)


class TestSeminorm:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_monomial_bracket_pinches(self, eps):
        est = seminorm(monomial(2), eps)
        assert est.lower == pytest.approx(2.0**-eps, rel=1e-12)
        assert est.upper == pytest.approx(2.0**-eps, rel=1e-12)
        assert est.lower <= est.upper

    def test_positive_coefficients_attained_at_origin(self):
        f = DirichletPolynomial({1: 1.0, 2: 1.0, 4: 1.0})
        for eps in (0.0, 0.3, 1.0):
            est = seminorm(f, eps)
            want = 1 + 2.0**-eps + 4.0**-eps
            assert est.lower == pytest.approx(want, rel=1e-12)
            assert est.upper == pytest.approx(want, rel=1e-12)

    def test_two_term_peak_near_pi_over_log2(self):
        f = add(monomial(1), scale(-1.0, monomial(2)))
        est = seminorm(f, 0.0, t_max=6.0, step=0.01)
        assert est.lower == pytest.approx(2.0, abs=1e-3)
        assert est.upper == pytest.approx(2.0, rel=1e-15)

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            seminorm(monomial(2), -0.1)

    @given(poly_strategy(max_index=16, max_terms=4), st.floats(0.0, 2.0))
    def test_bracket_valid(self, f, eps):
        est = seminorm(f, eps, t_max=4.0, step=0.125)
        assert 0.0 <= est.lower <= est.upper
        # Bohr's coefficient formula: |a_n| n^(-eps) <= sup |f|
        logn = np.log(f.index_array().astype(np.float64))
        terms = [abs(a) * math.exp(-eps * ln) for a, ln in zip(f.coefficient_array(), logn)]
        assert all(est.lower >= min(term, est.upper) for term in terms)

    def test_largest_term_floors_a_grid_that_misses_it(self):
        # t in {0, 0.25, 0.5} keeps 2^(-it) - 3^(-it) near 0, but |a_2| = 1 is certified
        est = seminorm(DirichletPolynomial({2: 1, 3: -1}), 0.0, t_max=0.5, step=0.25)
        assert est.lower == 1.0 and type(est.lower) is float
        assert est.upper == 2.0

    def test_monomial_lower_is_upper_bit_for_bit(self):
        # this grid's max is one ulp below |a| n^(-eps) as upper computes it
        f = monomial(1733, complex(4.01566768931483, 0.6459964490153256))
        est = seminorm(f, 1.0283214907599745, t_max=3.0, step=0.5)
        assert est.lower.hex() == est.upper.hex()

    @given(poly_strategy(max_index=16, max_terms=4))
    def test_refining_grid_raises_lower(self, f):
        coarse = seminorm(f, 0.25, t_max=4.0, step=0.25)
        fine = seminorm(f, 0.25, t_max=4.0, step=0.125)
        assert fine.lower >= coarse.lower

    @given(
        poly_strategy(max_index=16, max_terms=4),
        poly_strategy(max_index=16, max_terms=4),
    )
    def test_triangle_inequality(self, f, g):
        lhs = seminorm(add(f, g), 0.5, t_max=4.0, step=0.25)
        a = seminorm(f, 0.5, t_max=4.0, step=0.25)
        b = seminorm(g, 0.5, t_max=4.0, step=0.25)
        assert lhs.lower <= a.upper + b.upper + 1e-12 * (1 + a.upper + b.upper)

    @given(
        st.lists(
            st.tuples(st.integers(1, 32), real_positive_coefficients),
            min_size=1,
            max_size=5,
        )
    )
    def test_upper_monotone_in_epsilon(self, pairs):
        f = DirichletPolynomial(pairs)
        u1 = seminorm(f, 0.25, t_max=1.0, step=0.5).upper
        u2 = seminorm(f, 1.25, t_max=1.0, step=0.5).upper
        assert u1 >= u2

    @pytest.mark.parametrize("t_max, step", [(1e300, 1e-2), (1e12, 1e-3)])
    def test_oversized_grid_raises_naming_it(self, t_max, step):
        with pytest.raises(DomainError, match=rf"t_max = {re.escape(str(t_max))}.*step = {step}.*points"):
            seminorm(monomial(2), 0.0, t_max=t_max, step=step)

    def test_grid_evidence_counts(self):
        # 200 terms on the default grid: the screen keeps a handful of the
        # 100001 points for the direct refine
        est = seminorm(truncate(eta_rule(), 200), 0.0)
        assert est.points == 100001
        assert 1 <= est.refined < 100
        # a small grid is screened too, and its lower bound is still the
        # direct scan's to the bit
        f = add(monomial(1), scale(-1.0, monomial(2)))
        small = seminorm(f, 0.0, t_max=6.0, step=0.01)
        direct = float(np.max(np.abs(boundary_values(f, 0.0, np.arange(0.0, 6.0 + 0.5 * 0.01, 0.01)))))
        assert small.points == 601
        assert 1 <= small.refined <= small.points
        assert small.lower.hex() == min(direct, small.upper).hex()
        assert seminorm(DirichletPolynomial({}), 0.5).refined == 0

    @pytest.mark.parametrize(
        "f, t_max",
        [
            # both parts finite, the modulus past double range: |f| = inf everywhere
            (DirichletPolynomial({1: complex(1.5e308, 1.5e308)}), None),
            # every grid value finite, sum |a_n| n^(-epsilon) = 2e308
            (DirichletPolynomial({1: 1e308, 2: -1e308}), 0.5),
        ],
    )
    def test_bracket_past_double_range_names_epsilon(self, f, t_max):
        with pytest.raises(DomainError, match=r"overflows double precision at epsilon = 0\.0"):
            seminorm(f, 0.0, t_max=t_max, step=0.5)

    def test_grid_overflow_keeps_naming_t(self):
        # f(0) = 2e308 overflows on the grid itself, before the coefficient bound
        with pytest.raises(DomainError, match=r"at epsilon = 0\.0, t = 0\.0 overflows"):
            seminorm(DirichletPolynomial({1: 1e308, 3: 1e308}), 0.0)

    def test_two_sided_grid_for_complex_coefficients(self):
        f = DirichletPolynomial({2: 1j})
        est = seminorm(f, 0.0, t_max=2.0)
        assert est.grid.two_sided
        assert not seminorm(monomial(2), 0.0, t_max=2.0).grid.two_sided


class TestRefineBlock:
    """The refine computes only the points it keeps."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc/self/status")
    def test_seminorm_refine_peak_rss_rise(self):
        # a 50-term real polynomial on its default 100,001-point grid refines
        # a handful of points; a refine through a zero 50 x 100,001 block
        # (80 MB) lifted the process peak by ~84 MB
        probe = (
            "import numpy as np\n"
            "from dirichlet_ops import DirichletPolynomial, seminorm\n"
            "def hwm():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmHWM:'):\n"
            "            return int(line.split()[1])\n"
            "rng = np.random.default_rng(1)\n"
            "idx = rng.choice(np.arange(1, 1001), 50, replace=False)\n"
            "f = DirichletPolynomial({int(n): float(a) for n, a in zip(idx, rng.normal(size=50))})\n"
            "before = hwm()\n"
            "est = seminorm(f, 0.25)\n"
            "print(hwm() - before, est.points, est.refined)\n"
        )
        src = os.path.dirname(os.path.dirname(evaluation.__file__))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        rise_kb, points, refined = map(int, out.stdout.split())
        assert points == 100_001 and refined >= 1
        assert rise_kb < 24 * 1024


class TestBoundaryValues:
    def test_matches_pointwise_evaluation(self):
        f = DirichletPolynomial({1: 1.0, 2: -0.5 + 0.25j, 7: 2.0})
        ts = np.linspace(0.0, 5.0, 64)
        grid = boundary_values(f, 0.3, ts)
        for i in (0, 17, 63):
            want = evaluate(f, complex(0.3, ts[i]))
            assert grid[i] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "epsilon, t, message",
        [
            (0.0, math.nan, "t = nan"),
            (0.0, math.inf, "t = inf"),
            (math.nan, 0.0, "epsilon must be finite, got nan"),
        ],
    )
    def test_non_finite_argument_named(self, epsilon, t, message):
        with pytest.raises(DomainError, match=message) as info:
            boundary_values(monomial(2), epsilon, np.array([0.5, t]))
        assert "overflows" not in str(info.value)

    def test_zero_polynomial(self):
        got = boundary_values(ZERO, 0.5, np.linspace(0.0, 1.0, 5))
        assert got.dtype == np.complex128 and got.shape == (5,)
        assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()
        assert not got.any()

    def test_overflow_raises_naming_epsilon(self):
        # 2^2000 overflows a double: every grid value would be nan + nan j
        with pytest.raises(DomainError, match=r"epsilon = -2000\.0"):
            boundary_values(add(monomial(2), monomial(3)), -2000.0, np.linspace(0.0, 1.0, 4))
