import inspect
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirichlet_ops import evaluation, series
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
    moebius_rule,
    monomial,
    ones_rule,
    partial_sum,
    replace,
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

    @given(f=st.dictionaries(st.one_of(st.integers(1, 10**4), st.integers(1, 2**62)),
                             st.one_of(st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
                                       st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
                                       st.floats(-8.0, 8.0).map(complex)),
                             min_size=1, max_size=series._ARRAY_MIN_TERMS - 1).map(DirichletPolynomial),
           s=st.one_of(st.just(0j), st.sampled_from([-1030 + 0j, -1023 + 0j, -1e3 + 5j, 0.5 + 14j]),
                       st.builds(complex, st.floats(-40.0, 40.0), st.floats(-1e4, 1e4)),
                       st.builds(complex, st.floats(-1200.0, -1.0), st.floats(-50.0, 50.0))))
    def test_scalar_path_bits_equal_the_array_path(self, f, s):
        # below _ARRAY_MIN_TERMS evaluate sums on Python scalars; forced onto
        # arrays, it gives the same bits, or raises the same error
        def outcome():
            try:
                v = evaluate(f, s)
            except DomainError as e:
                return str(e)
            return v.real.hex(), v.imag.hex()

        scalar = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_ARRAY_MIN_TERMS", 0)
            assert outcome() == scalar

    def test_scalar_path_leaves_the_far_left_to_the_array_path(self):
        # 1023 log 2 ~ 709.1 is past the bound up to which cmath.exp and
        # numpy's complex exp agree, but 2^1023 is finite: the array path
        # sums it
        f = add(monomial(1, 0.5j), monomial(2, 1e-300))
        assert evaluation._scalar_sum(f, -1023 + 0j) is None
        with np.errstate(over="ignore", invalid="ignore"):
            want = evaluation._direct_sum(f.index_array(), f.coefficient_array(), -1023 + 0j)
        assert evaluate(f, -1023) == want and math.isfinite(abs(want))
        near = evaluation._direct_sum(f.index_array(), f.coefficient_array(), -1.0 + 3j)
        assert evaluation._scalar_sum(f, -1.0 + 3j) == near


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

    @pytest.mark.parametrize("rule", [eta_rule(), moebius_rule()], ids=["described", "values"])
    def test_modulus_of_s_past_double_range(self, rule):
        # |s| overflows a double though both parts are finite, and abs(s)
        # raised OverflowError; n^(-s) underflows to 0 from n = 2 on, and
        # far left the sum overflows as anywhere else
        assert partial_sum(rule, complex(1.7e308, 1.7e308), 10) == 1
        with pytest.raises(DomainError, match="overflows double precision"):
            partial_sum(rule, complex(-1.7e308, 1.7e308), 10)

    def test_zero_point_shortcut(self):
        rule = eta_rule()
        assert partial_sum(rule, 0.0, 101) == pytest.approx(1.0, abs=1e-15)

    def test_chunking_invariance(self, monkeypatch):
        rule = zeta_shift_rule(1)
        monkeypatch.setattr(evaluation, "_CHUNK", 1 << 22)
        a = partial_sum(rule, 0.5, 10_000)
        monkeypatch.setattr(evaluation, "_CHUNK", 128)
        b = partial_sum(rule, 0.5, 10_000)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("N", [0, 10.5, True, 2**63])
    def test_rejects_bad_length(self, N):
        with pytest.raises(DomainError, match="partial sum length N"):
            partial_sum(eta_rule(), 0.0, N)

    def test_longest_chunk(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_CHUNK", 3)
        want = partial_sum(zeta_shift_rule(2), 0.5j, 10)
        monkeypatch.setattr(evaluation, "_CHUNK", 2**24)
        assert partial_sum(zeta_shift_rule(2), 0.5j, 10) == pytest.approx(want, rel=1e-15)

    def test_chunk_of_one(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_CHUNK", 1)
        want = math.fsum(1.0 / n**2 for n in range(1, 11))
        assert partial_sum(zeta_shift_rule(2), 0, 10) == pytest.approx(want, rel=1e-15)

    def test_the_rule_s_and_n_fix_the_bits(self):
        # no argument but the rule, s and N shapes the stream
        assert list(inspect.signature(partial_sum).parameters) == ["rule", "s", "N"]


class TestPartialSumThreads:
    """partial_sum runs on its caller's thread: it starts none, and callers
    on several threads at once each get a lone caller's bits."""

    def test_overflow_is_a_domain_error(self):
        # three chunks: at s = -2000 + i the terms overflow; at s = -60 + i
        # the second chunk's terms are finite (131072^60 < DBL_MAX) but their
        # sum is not, and a RuntimeWarning would be an error under this
        # suite's filter
        for s in (complex(-2000, 1), complex(-60, 1)):
            with pytest.raises(DomainError, match=re.escape(f"s = {s}")):
                partial_sum(ones_rule(), s, 3 * 2**16)

    def test_rule_runs_on_the_calling_thread(self, monkeypatch):
        names = set()

        def vec(ns):
            names.add(threading.current_thread().name)
            return np.ones(ns.shape)

        before = threading.active_count()
        monkeypatch.setattr(evaluation, "_CHUNK", 256)
        partial_sum(CoefficientRule("ones", vec), 0.5 + 3j, 20_000)
        assert names == {threading.current_thread().name}
        assert threading.active_count() == before

    def test_concurrent_callers(self, monkeypatch):
        # more callers than cores, with frequent thread switches, over direct
        # terms and Euler-Maclaurin sums
        points = [complex(0.5, t) for t in (3.0, 14.1, 21.0, 25.0, 30.4, 32.9)]
        monkeypatch.setattr(evaluation, "_CHUNK", 1024)
        want = {s: partial_sum(eta_rule(), s, 5 * 4096 + 100) for s in points}
        got, errors = {}, []

        def call(s):
            try:
                for _ in range(5):
                    got.setdefault(s, set()).add(partial_sum(eta_rule(), s, 5 * 4096 + 100))
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


@st.composite
def block_cases(draw):
    """(rule, s, lo, length, K) for evaluation._block_sum: lo from the floor
    of s up to 2^40 (2^32 for Moebius, whose far runs go to trial division),
    lengths that end in a partial block, and K drawn or the dispatch's own.
    The drawn K runs to 20, past the dispatch's 12: delta holds for any
    K >= 1."""
    s = complex(draw(st.floats(-2.0, 3.0)), draw(st.one_of(st.floats(-60.0, 60.0), st.sampled_from([-1e4, 1e4]))))
    assume(s != 0)
    floor = evaluation._floor(s)
    name = draw(st.sampled_from(["eta", "ones", "moebius", "zeta_shift", "complex table"]))
    top = 2**32 if name == "moebius" else 2**40
    lo = draw(st.one_of(st.integers(floor, 4 * floor), st.integers(floor, top)))
    length = draw(st.integers(1, 5 * evaluation._BLOCK))
    if name == "zeta_shift":
        rule = zeta_shift_rule(draw(st.integers(0, 3)))
    elif name == "complex table":
        # support before, inside and past the chunk
        keys = st.integers(max(1, lo - 64), lo + length + 64)
        values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
        rule = table_rule(draw(st.dictionaries(keys, values, min_size=1, max_size=40)))
    else:
        rule = {"eta": eta_rule, "ones": ones_rule, "moebius": moebius_rule}[name]()
    K = draw(st.one_of(st.none(), st.integers(1, 20)))
    return rule, s, lo, length, K


_SIMD_BITS = (
    "import numpy as np\n"
    "from dirichlet_ops import eta_rule, partial_sum, table_rule\n"
    "from dirichlet_ops.evaluation import _block_sum\n"
    "v = partial_sum(eta_rule(), 0.5 + 14j, 2**20)\n"
    "rule = table_rule({n: complex(1 / n, (-1) ** n) for n in range(2**20, 2**20 + 5000, 3)})\n"
    "b, delta = _block_sum(rule.values(np.arange(2**20, 2**20 + 5000)), 0.5 + 14j, 2**20, 6)\n"
    "print(' '.join(x.hex() for x in (v.real, v.imag, b.real, b.imag, delta)))\n"
)


# the rules that carry a description a_n = c[n mod p] n^(-k)
DESCRIBED = {"ones": ones_rule(), "eta": eta_rule(), **{f"zeta_shift({k})": zeta_shift_rule(k) for k in range(4)}}


def power_sum(s, a, J):
    """sum_{0<=j<J} (a + j)^(-s), s != 1, by Euler-Maclaurin with 12
    Bernoulli terms: for a >= 2^10 and |s| <= 64 the first omitted term is
    below 10^-40 of the terms' size."""
    b = a + J
    total = (mpmath.power(b, 1 - s) - mpmath.power(a, 1 - s)) / (1 - s) + (mpmath.power(a, -s) - mpmath.power(b, -s)) / 2
    # (-s)(-s - 1)...(-s - 2k + 2), the factor of the (2k - 1)-th derivative
    falling = -s
    for k in range(1, 13):
        e = -s - 2 * k + 1
        total += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * falling * (mpmath.power(b, e) - mpmath.power(a, e))
        falling *= e * (e - 1)
    return total


def described_chunk(c, s, lo, hi):
    """sum_{lo<=m<=hi} c[m mod p] m^(-s) at 50 digits, for lo >= 2^10 p:
    the J indices m = r mod p from m0 on give p^-s power_sum(s, m0 / p, J).
    (mpmath's Hurwitz zeta sieves up to an integer argument, which far out
    takes gigabytes.)"""
    p, total = len(c), mpmath.mpf(0)
    with mpmath.workdps(50):
        for r in range(p):
            m0 = lo + (r - lo) % p
            if m0 <= hi:
                total += c[r] * mpmath.power(p, -s) * power_sum(s, mpmath.mpf(m0) / p, (hi - m0) // p + 1)
        return total


def described_exact(c, s, N):
    """sum_{n<=N} c[n mod p] n^(-s) to 40 digits: the terms below 2^12 by
    Hurwitz zeta, for p = 2 the odd n 2^-s (zeta(s, 1/2) -
    zeta(s, ceil(N/2) + 1/2)) and the even ones 2^-s (zeta(s) -
    zeta(s, floor(N/2) + 1)), and the rest by described_chunk.  mpmath's
    zeta(s, a) loses about log10(1 / |s|) digits near s = 0 (at 40 digits
    zeta(-1e-30, 2048.5) is off by 5.6e-15), so the head works with that
    many more."""
    M = min(N, 4095)
    with mpmath.workdps(40 + max(0, math.ceil(-math.log10(abs(complex(s)))))):
        if len(c) == 1:
            head = c[0] * (mpmath.zeta(s) - mpmath.zeta(s, M + 1))
        else:
            half = mpmath.mpf(1) / 2
            odd = mpmath.power(2, -s) * (mpmath.zeta(s, half) - mpmath.zeta(s, (M + 1) // 2 + half))
            even = mpmath.power(2, -s) * (mpmath.zeta(s) - mpmath.zeta(s, M // 2 + 1))
            head = c[1] * odd + c[0] * even
        return head + described_chunk(c, s, M + 1, N) if N > M else head


@st.composite
def euler_maclaurin_cases(draw):
    """(c, s, lo, hi) for evaluation._euler_maclaurin: a built-in
    description or one of period 4 with a zero class, lo from the floor F
    up to 2^40, and hi - lo from 0 (one term, and classes left empty) up to
    2^40, so the range runs from a few terms, summed here term by term, to
    sums that end far past their start; at s = 0, a count, up to 2^62, past
    the 2^53 where it rounds."""
    c = draw(st.sampled_from([(1.0,), (-1.0, 1.0), (0.5, -0.25, 1.5, 0.0)]))
    s = draw(st.one_of(st.just(0j), st.builds(complex, st.floats(-3.0, 3.0),
                                              st.one_of(st.just(0.0), st.floats(-60.0, 60.0)))))
    # described_chunk divides by 1 - s; s = 1 has its own test
    assume(s != 1)
    F = evaluation._floor(s)
    lo = draw(st.one_of(st.integers(F, 4 * F), st.integers(F, 2**40)))
    far = 2**62 - 2**41 if s == 0 else 2**40
    hi = lo + draw(st.one_of(st.integers(0, 64), st.integers(0, 10**6), st.integers(0, far)))
    return c, s, lo, hi


def hurwitz_tail(c, s, N):
    """sum_{n>N} c[n mod p] n^(-s) at 50 digits, for N >= 2^12 p: each class
    r gives p^-s zeta(s, x_r), x_r = (its first n > N) / p, by the
    Euler-Maclaurin series to infinity with 20 Bernoulli terms.  At s = 1,
    where a class's tail diverges, it is sum_r c_r (-digamma(x_r)) / p, the
    tail up to a constant that cancels when sum c = 0 (eta) and in the
    difference of two tails."""
    p = len(c)
    with mpmath.workdps(50):
        xs = [mpmath.mpf(N + 1 + (r - N - 1) % p) / p for r in range(p)]
        if s == 1:
            return sum(c[r] * -mpmath.digamma(xs[r]) for r in range(p)) / p
        total = 0
        for r in range(p):
            x = xs[r]
            tail = mpmath.power(x, 1 - s) / (s - 1) + mpmath.power(x, -s) / 2
            rising = s
            for k in range(1, 21):
                tail += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * rising * mpmath.power(x, -s - 2 * k + 1)
                rising *= (s + 2 * k - 1) * (s + 2 * k)
            total += c[r] * mpmath.power(p, -s) * tail
        return total


class TestTaylorBlocks:
    """partial_sum's terms from the floor F on go through
    evaluation._block_sum, one exp per block of 64 terms, or for a described
    rule through _euler_maclaurin, one sum over the residue classes at
    s' = s + k from F to N, a count at s' = 0; a chunk that straddles F
    splits there, and the terms below F, and a rule of values at s = 0,
    stay direct."""

    @given(block_cases())
    def test_block_sum_is_within_delta_of_the_exact_sum(self, case):
        rule, s, lo, length, K = case
        K = K or evaluation._block_order(s, lo)
        assert K > 0
        ns = np.arange(lo, lo + length, dtype=np.int64)
        vals = rule.values(ns)
        got, delta = evaluation._block_sum(vals, s, lo, K)
        assert math.isfinite(delta)
        with mpmath.workdps(40):
            ms = mpmath.mpc(s.real, s.imag)
            exact = mpmath.fsum(
                mpmath.mpc(complex(v).real, complex(v).imag) * mpmath.power(n, -ms)
                for n, v in zip(ns.tolist(), vals.tolist())
                if v != 0
            )
            assert abs(mpmath.mpc(got.real, got.imag) - exact) <= delta

    @given(euler_maclaurin_cases())
    def test_euler_maclaurin_is_within_delta_of_the_exact_sum(self, case):
        c, s, lo, hi = case
        got, delta = evaluation._euler_maclaurin(c, s, lo, hi)
        assert math.isfinite(delta)
        ms = mpmath.mpc(s.real, s.imag)
        if s == 0:  # c_r times the count of class r's terms in [lo, hi]
            p = len(c)
            with mpmath.workdps(50):
                exact = mpmath.fsum(c[r] * mpmath.mpf((hi - r) // p - (lo - 1 - r) // p) for r in range(p))
            assert delta == 0 or hi - lo >= 2**50
        elif hi - lo < 64:
            with mpmath.workdps(50):
                exact = mpmath.fsum(c[n % len(c)] * mpmath.power(n, -ms) for n in range(lo, hi + 1))
        else:
            exact = described_chunk(c, ms, lo, hi)
        assert abs(mpmath.mpc(got.real, got.imag) - exact) <= delta
        if s.imag == 0:
            assert got.imag == 0.0

    @pytest.mark.parametrize("c, s, N", [
        ((-1.0, 1.0), 0.5059108123501284 + 28.612983497126187j, 2**22),  # the benchmark's seed-1 point
        ((-1.0, 1.0), 0.5 + 14j, 2**22),
        ((-1.0, 1.0), 1 + 0j, 2**22),
        ((1.0,), 2 + 0j, 2**27),  # Basel
        ((1.0,), 1 + 0j, 2**22),  # harmonic
        ((1.0,), 1 + 1e-9j, 2**22),
        ((1.0,), -3 + 2j, 10**6),
    ])
    def test_euler_maclaurin_against_mpmath_zeta_and_altzeta(self, c, s, N):
        # the kernel's sum from F to N is the series' value, mpmath's zeta or
        # altzeta (their limits, log 2 and the harmonic numbers, at s = 1),
        # less the terms below F and the tail past N (hurwitz_tail), within
        # its delta
        F = evaluation._floor(s)
        got, delta = evaluation._euler_maclaurin(c, s, F, N)
        ms = mpmath.mpc(s.real, s.imag)
        with mpmath.workdps(50):
            if s == 1 and len(c) == 1:
                exact = mpmath.harmonic(N) - mpmath.harmonic(F - 1)
            else:
                value = mpmath.log(2) if s == 1 else mpmath.zeta(ms) if len(c) == 1 else mpmath.altzeta(ms)
                head = mpmath.fsum(c[n % len(c)] * mpmath.power(n, -ms) for n in range(1, F))
                exact = value - head - hurwitz_tail(c, ms, N)
        assert abs(mpmath.mpc(got.real, got.imag) - exact) <= delta
        # delta is about u (|s| (4 log N + 1) + 4 log N + 100) of the terms'
        # mass, sum_{F<=n<=N} n^(-sigma), which is hurwitz_tail's difference
        sigma = mpmath.mpf(s.real)
        mass = float(hurwitz_tail((1.0,), sigma, F - 1) - hurwitz_tail((1.0,), sigma, N))
        assert delta <= 2.0**-53 * (abs(s) * (4 * math.log(N) + 1) + 4 * math.log(N) + 100) * mass
        if s.imag == 0:
            assert got.imag == 0.0

    @pytest.fixture
    def paths(self, monkeypatch):
        """(path, lo) for each sum the stream took, in stream order:
        'blocks' (values in Taylor blocks), 'em' (a described rule's
        Euler-Maclaurin sum) or 'direct'."""
        taken = []
        block, em, direct = evaluation._block_sum, evaluation._euler_maclaurin, evaluation._direct_sum

        def blocks(vals, s, lo, K, bound=True):
            taken.append(("blocks", lo))
            return block(vals, s, lo, K, bound)

        def classes(c, s, lo, hi, bound=True):
            taken.append(("em", lo))
            return em(c, s, lo, hi, bound)

        def terms(ns, vals, s):
            taken.append(("direct", int(ns[0])))
            return direct(ns, vals, s)

        monkeypatch.setattr(evaluation, "_block_sum", blocks)
        monkeypatch.setattr(evaluation, "_euler_maclaurin", classes)
        monkeypatch.setattr(evaluation, "_direct_sum", terms)
        yield taken
        taken.sort(key=lambda path: path[1])

    def test_first_chunk_and_a_value_rule_at_s_zero_stay_direct(self, paths):
        # below the floor F = ceil(4 (|s| + 16) 64) = 4097 the first chunk is
        # direct, and from F on the terms are one Euler-Maclaurin sum
        partial_sum(eta_rule(), 1e-3j, 2**16)
        assert paths == [("direct", 1), ("em", 4097)]
        # zeta_shift(2) at s = 0 is ones at s' = 2: its terms below F = 4608
        # are its values' sum, and from F on one Euler-Maclaurin sum in real
        # arithmetic, within its delta of the values' sums (each value
        # within 2u of n^-2, a pairwise sum within u (log2 n + 22) of its
        # mass on either side, and a rounded add of the sums, on either side,
        # for each sum added)
        rule, n, F = zeta_shift_rule(2), 2**16, 4608
        paths.clear()
        got = partial_sum(rule, 0, 3 * n)
        assert paths == [("direct", 1), ("em", F)]
        sums = len(paths)
        want, bound = 0j, 0.0
        for lo in range(1, 3 * n, n):
            vals = rule.values(np.arange(lo, lo + n))
            want += complex(vals.sum())
            bound += 2.0**-53 * (math.log2(n) + 24) * math.fsum(vals.tolist())
        bound += evaluation._euler_maclaurin((1.0,), 2.0 + 0j, F, 3 * n)[1]
        bound += (sums + 3) * 2.0**-53 * abs(want)
        assert got.imag == 0.0
        assert abs(got - want) <= bound
        # ones at s = 0 has s' = 0: its values' sum below F = 4096, and from
        # F on the kernel's count; a rule of values at s = 0 saves no exp,
        # so every chunk is its values' sum
        paths.clear()
        assert partial_sum(ones_rule(), 0, 3 * n) == 3 * n
        assert paths == [("direct", 1), ("em", 4096)]
        paths.clear()
        assert partial_sum(CoefficientRule("ones", lambda ns: np.ones(ns.shape)), 0, 3 * n) == 3 * n
        assert paths == [("direct", 1), ("direct", n + 1), ("direct", 2 * n + 1)]

    @pytest.mark.parametrize("rule, path", [(eta_rule(), "em"), (moebius_rule(), "blocks")])
    def test_blocks_start_at_the_floor(self, paths, rule, path, monkeypatch):
        # |48i| + 16 = 64, so the floor is 4 * 64 * 64; the chunk from
        # floor - 1 straddles it (a described rule's last direct chunk is the
        # term floor - 1 alone), and the one from the floor takes blocks whole
        s, floor = 48j, 16384
        assert evaluation._floor(s) == floor
        monkeypatch.setattr(evaluation, "_CHUNK", floor - 2)
        partial_sum(rule, s, 2 * (floor - 2))
        monkeypatch.setattr(evaluation, "_CHUNK", floor - 1)
        partial_sum(rule, s, 2 * (floor - 1))
        paths.sort(key=lambda path: path[1])
        assert paths == [("direct", 1), ("direct", 1), ("direct", floor - 1), (path, floor), (path, floor)]

    def test_far_point_stays_direct_up_to_its_floor(self, paths, monkeypatch):
        # 4 (|s| + 16) 64 = 2564096.0032 at s = 0.5 + 10^4 i, so F = 2564097
        s = 0.5 + 1e4j
        assert evaluation._floor(s) == 2564097
        monkeypatch.setattr(evaluation, "_CHUNK", 2564095)
        partial_sum(eta_rule(), s, 2564095 + 64)
        monkeypatch.setattr(evaluation, "_CHUNK", 2564096)
        partial_sum(eta_rule(), s, 2564096 + 64)
        paths.sort(key=lambda path: path[1])
        assert paths == [("direct", 1), ("direct", 1), ("direct", 2564096), ("em", 2564097), ("em", 2564097)]

    @pytest.mark.parametrize("rule, path", [
        (ones_rule(), "em"), (CoefficientRule("ones", lambda ns: np.ones(ns.shape)), "blocks")])
    @pytest.mark.parametrize("s", [complex(-60, 1), complex(-2000, 1)])
    def test_overflowing_blocks_are_a_domain_error(self, paths, s, rule, path):
        # the stream ends in a sum past both floors (19459 and 516097): at
        # -60 + i the sum overflows (libm's exp raises OverflowError in the
        # Euler-Maclaurin sum), at -2000 + i every term does
        with pytest.raises(DomainError, match=re.escape(f"s = {s}")):
            partial_sum(rule, s, 2**19 + 2**16)
        assert paths[-1][0] == path

    @pytest.mark.parametrize("chunk", [4096, 4097])
    @pytest.mark.parametrize("rule, path", [(eta_rule(), "em"), (moebius_rule(), "blocks")])
    def test_chunk_fixes_the_bits(self, paths, rule, path, chunk, monkeypatch):
        # every sum of the stream is fixed by the rule, s, N and the chunk:
        # the sums added in stream order give partial_sum's bits, again on a
        # second call; a described rule's Euler-Maclaurin sum, made alone,
        # gives its bits in the stream, whatever the chunk
        monkeypatch.setattr(evaluation, "_CHUNK", chunk)
        s, N = 0.5 + 14j, 20 * chunk + 100
        got = partial_sum(rule, s, N)
        assert partial_sum(rule, s, N) == got
        with np.errstate(over="ignore", invalid="ignore"):
            parts = list(evaluation._chunk_sums(rule, s, N))
        want = 0j
        for value in parts:
            want += value
        assert got == want
        # the floor is 7683, so the second chunk is direct up to 7682
        assert ("direct", chunk + 1) in paths and (path, 7683) in paths
        if path == "em":
            assert parts[-1] == evaluation._euler_maclaurin((-1.0, 1.0), s, 7683, N, bound=False)[0]

    def test_only_built_in_descriptions_take_euler_maclaurin(self, paths):
        # a user's rule tagged "eta", and a replaced built-in, carry no
        # description: their terms past the floor F take the values' blocks
        s = 0.5 + 14j
        F = evaluation._floor(s)
        want = partial_sum(eta_rule(), s, 3 * 2**16)
        assert paths == [("direct", 1), ("em", F)]
        paths.clear()
        for rule in (CoefficientRule("eta", eta_rule().vectorized),
                     replace(eta_rule(), vectorized=eta_rule().vectorized)):
            assert rule._description is None
            assert partial_sum(rule, s, 3 * 2**16) == pytest.approx(want, rel=1e-13)
        paths.sort(key=lambda path: path[1])
        assert paths == [("direct", 1)] * 2 + [("blocks", F)] * 2 + [("blocks", 2**16 + 1)] * 2 + [
            ("blocks", 2**17 + 1)] * 2

    @settings(max_examples=25)
    @given(name=st.sampled_from(sorted(DESCRIBED)), re=st.floats(-0.5, 2.5),
           im=st.one_of(st.just(0.0), st.floats(-40.0, 40.0)),
           chunk=st.sampled_from([4095, 4097, 5003, 8191, 12289, 2**16]), extra=st.integers(1, 3 * 4097))
    @example(name="eta", re=-5.988214998875185e-38, im=0.0, chunk=4095, extra=1)
    def test_described_partial_sum_against_mpmath(self, name, re, im, chunk, extra):
        """partial_sum of a described rule against its 40-digit sum, within
        the Euler-Maclaurin sum's delta (plus u |s + k| log N of its mass,
        the rounding of s' = s + k) and the direct terms' rounding,
        u (|s| (10 log N + 1) + 64) of their mass, and u of the total mass
        for each sum the stream adds.  The direct chunks tile 1..F-1 and the
        one Euler-Maclaurin sum F..N; at real s the sum is real."""
        rule = DESCRIBED[name]
        c, k = rule._description
        s = complex(re, im)
        sk = s + k
        # mpmath's Hurwitz zeta divides by zero for |s| below ~1e-50
        assume(abs(sk) > 1e-40 and sk != 1)
        F = evaluation._floor(sk)
        N = (F // chunk + 2) * chunk + extra
        direct, calls = [], []
        em, direct_sum = evaluation._euler_maclaurin, evaluation._direct_sum
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_euler_maclaurin", lambda *args, **kw: calls.append(args) or em(*args, **kw))
            mp.setattr(evaluation, "_direct_sum", lambda ns, *rest: direct.append((int(ns[0]), int(ns[-1])))
                       or direct_sum(ns, *rest))
            mp.setattr(evaluation, "_CHUNK", chunk)
            got = partial_sum(rule, s, N)
        u, bound, total_mass = 2.0**-53, 0.0, 0.0

        def mass(lo, hi):
            return math.fsum((np.arange(lo, hi + 1, dtype=np.float64) ** -sk.real).tolist())

        assert [lo for lo, _ in direct] == list(range(1, F, chunk))
        assert direct[-1][1] == F - 1
        assert [args[2:] for args in calls] == [(F, N)]
        for lo, hi in direct:
            part = mass(lo, hi)
            bound += u * (abs(s) * (10 * math.log(N) + 1) + 64) * part
            total_mass += part
        for args in calls:
            part = mass(F, N)
            total_mass += part
            bound += em(*args)[1] + u * abs(sk) * math.log(N) * part
        bound += u * total_mass * (len(direct) + len(calls) + 1)
        exact = described_exact(c, mpmath.mpc(sk.real, sk.imag), N)
        assert abs(mpmath.mpc(got.real, got.imag) - exact) <= bound
        if im == 0.0:
            assert got.imag == 0.0

    @given(name=st.sampled_from(sorted(DESCRIBED)), N=st.one_of(st.integers(1, 3 * 4096), st.integers(1, 2**62)),
           chunk=st.sampled_from([1000, 4095, 4096, 2**16]))
    def test_described_partial_sum_at_s_prime_zero_is_a_count(self, name, N, chunk):
        """At s' = s + k = 0 a described rule's terms are c[n mod p], so its
        sum is a count: N for ones and zeta_shift(k), N mod 2 for eta.  The
        terms below F = 4096 are direct, each within u (k (10 log F + 1) +
        64) of 1 (exactly 1 or -1 at k = 0), and from F on the kernel's count
        is exact in integers and rounded once, within its delta; each add of
        the stream rounds once more.  So ones and eta are exact wherever the
        count is a double's integer, and zeta_shift(k) at -k is N to rounding
        even for N = 2^62."""
        rule = DESCRIBED[name]
        c, k = rule._description
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_CHUNK", chunk)
            got = partial_sum(rule, -k, N)
        want = N % 2 if len(c) == 2 else N
        assert got.imag == 0.0
        F, u = evaluation._floor(0j), 2.0**-53
        assert F == 4096
        if k == 0 and want <= 2**53:
            assert got == want
        direct = min(N, F - 1)
        bound = u * (k * (10 * math.log(F) + 1) + 64) * direct
        if N >= F:
            bound += evaluation._euler_maclaurin(c, 0j, F, N)[1]
        bound += u * (N + bound) * (-(-direct // chunk) + 2)
        assert abs(got.real - want) <= bound

    @settings(max_examples=40)
    @given(name=st.sampled_from(sorted(DESCRIBED)), s=st.one_of(
        st.sampled_from([0j, -1 + 0j, -2 + 0j, -3 + 0j, complex(-1, -0.0), 1e-3j, 0.5 + 14j]),
        st.builds(complex, st.floats(-4.0, 4.0), st.floats(-60.0, 60.0))),
        extra=st.integers(0, 3 * 4096), chunk=st.sampled_from([1000, 4096, 2**16]))
    def test_described_rules_read_no_value_past_the_floor(self, name, s, extra, chunk):
        # a spy on `vectorized`: past F = _floor(s + k) a described rule's
        # terms are the kernel's, at every s, s' = 0 among them, so the
        # values read tile 1..min(N, F - 1) and none is at F or past it
        rule = DESCRIBED[name]
        c, k = rule._description
        F = evaluation._floor(s + k)
        N = F + extra - 2048
        read = []
        spy = series._described(
            CoefficientRule(rule.tag, lambda ns: read.append((int(ns[0]), int(ns[-1]))) or rule.vectorized(ns)), c, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_CHUNK", chunk)
            got = partial_sum(spy, s, N)
            assert got == partial_sum(rule, s, N)
        assert [lo for lo, _ in read] == list(range(1, min(N, F - 1) + 1, chunk))
        assert read[-1][1] == min(N, F - 1)

    @given(r=st.floats(-9.0, 12.0), angle=st.floats(-math.pi, math.pi),
           times=st.one_of(st.sampled_from([1, 2, 10]), st.floats(1.0, 2.0**20)), step=st.integers(0, 1))
    def test_block_order_is_at_most_12_from_the_floor(self, r, angle, times, step):
        # from F = _floor(s) on each factor x |s + k| / (k + 1) of the
        # truncation bound is at most (63/256) / (k + 1), so twelve moments
        # reach u, for |s| from 10^-9 to 10^12 at every angle
        s = complex(10.0**r * math.cos(angle), 10.0**r * math.sin(angle))
        F = evaluation._floor(s)
        assert 1 <= evaluation._block_order(s, int(F * times) + step) <= 12

    @pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
    def test_bits_do_not_follow_numpy_simd(self, disabled):
        """A direct-and-Euler-Maclaurin partial sum and one block chunk of a
        complex rule keep their bits with numpy's AVX-512 loops off, and with its
        AVX2 loops off too (a subprocess; numpy ignores the names of
        features this CPU lacks, and there the test passes trivially)."""
        src = os.path.dirname(os.path.dirname(evaluation.__file__))
        run = {}
        for name, env in (("default", {}), ("disabled", {"NPY_DISABLE_CPU_FEATURES": disabled})):
            out = subprocess.run([sys.executable, "-c", _SIMD_BITS], capture_output=True, text=True, check=True,
                                 timeout=120, env={**os.environ, **env, "PYTHONPATH": src})
            run[name] = out.stdout
        assert run["default"] == run["disabled"]


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
        values = boundary_values(f, 0.0, np.arange(0.0, 6.0 + 0.5 * 0.01, 0.01))
        direct = float(np.max(np.hypot(values.real, values.imag)))
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
    def test_complex_scan_peak_memory(self):
        # 1,024 complex terms on 8,192 points: blocks of 2^16 entries and
        # their unfused products' temporaries, where one 2^23-entry block
        # of the whole grid once held 128 MiB
        rng = np.random.default_rng(0)
        f = DirichletPolynomial(dict(zip(range(1, 1025), (rng.normal(size=1024) + 1j * rng.normal(size=1024)).tolist())))
        f.coefficient_array(), f.log_index_array()
        ts = np.linspace(-50.0, 50.0, 8192)
        tracemalloc.start()
        try:
            boundary_values(f, 0.3, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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
