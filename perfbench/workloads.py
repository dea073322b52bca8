"""The benchmark's workloads: seeded inputs, job lists, checks, digests, counts.

A job's `run` is the timed part and calls only public dirichlet_ops
functions, each inside a span named after the layer it enters.  `check`,
`digest` and `counts` run outside the timed region.  `check` compares the
result with `refs`, which shares no code with the library, and returns a
list of problems (empty when the result is right).  `counts` returns work
counts derived from inputs and results; they must repeat exactly.

The `library` workload runs three job groups in one pass: `stream`
(rule-driven certification), `bulk` (large sparse polynomials) and `small`
(tiny polynomials through every layer, plus two acceptance gates).  The
`cli` workload runs dseries as subprocesses.  Each exists in two sizes:
"full" (the measured sizes) and "tiny" (the smoke test, and the census that
gives a traced run a figure for every layer its own passes do not reach).
The seed picks coefficients, index sets, evaluation points and lambdas;
sizes never depend on it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs


# wall-clock budgets of the four timed acceptance gates, in seconds
GATE_BUDGETS = {"basel": 1.0, "abscissa": 5.0, "inverse_pair": 1.0, "spectrum_ladder": 1.0}

SIZES = {
    "stream": {
        "full": {"basel_tol": 1e-8, "offaxis_n": 1 << 22, "corpus_n": 10**5,
                 "moebius_n": 20_000, "bracket_n": 20_000},
        "tiny": {"basel_tol": 1e-5, "offaxis_n": 1 << 14, "corpus_n": 20_000,
                 "moebius_n": 20_000, "bracket_n": 2000},
    },
    "bulk": {
        "full": {"terms": 20_000, "max_index": 200_000, "dense": 300, "sparse": 200,
                 "volterra": 150, "seminorm_terms": 50, "seminorm_max": 1000,
                 "power_terms": 10**4, "power_max": 10**5, "k": 40},
        "tiny": {"terms": 2000, "max_index": 20_000, "dense": 30, "sparse": 30,
                 "volterra": 20, "seminorm_terms": 20, "seminorm_max": 40,
                 "power_terms": 200, "power_max": 2000, "k": 40},
    },
    "small": {"full": {"chains": 40}, "tiny": {"chains": 5}},
    "cli": {"full": {"formats": ("json", "csv")}, "tiny": {"formats": ("json",)}},
}


@dataclass
class Job:
    name: str
    run: Callable          # (state, spans) -> result; the timed part
    check: Callable        # (result) -> list of problems
    digest: Callable       # (result) -> hex digest of the output
    counts: Callable = field(default=lambda result: {})
    gate: str | None = None  # the acceptance gate this job runs verbatim
    stat: bool = True        # enters the end-to-end statistics (gates do not)


@dataclass
class Plan:
    workload: str
    size: str
    jobs: list[Job]          # one pass, in order
    inputs: dict             # seeded parameters, for the results file


def _problem(ok: bool, text: str) -> list[str]:
    return [] if ok else [text]


def _poly_problem(lib_poly, want_idx, want, rtol, want_scale=None) -> list[str]:
    got_idx, got = refs.poly_arrays(lib_poly)
    text = refs.close_to(got_idx, got, want_idx, want, rtol, want_scale)
    return [] if text is None else [text]


def _exact_problem(lib_poly, want_idx, want) -> list[str]:
    got_idx, got = refs.poly_arrays(lib_poly)
    ok = np.array_equal(got_idx, want_idx) and np.array_equal(got, want)
    return _problem(ok, "coefficients differ from the input")


def _log(idx: np.ndarray) -> np.ndarray:
    return np.log(idx.astype(np.float64))


def _random_terms(rng, lo, hi, n_terms, complex_coeffs=True) -> dict:
    idx = rng.choice(np.arange(lo, hi + 1), size=n_terms, replace=False)
    if complex_coeffs:
        coeffs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    else:
        coeffs = rng.standard_normal(n_terms).astype(np.complex128)
    return {int(n): complex(c) for n, c in zip(idx, coeffs)}


def _dense_terms(rng, n_terms) -> dict:
    coeffs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    return {n: complex(c) for n, c in zip(range(1, n_terms + 1), coeffs)}


def _resolvent_lambda(rng) -> tuple[complex, float]:
    """A lambda at distance > 0.05 from the spectrum, as the gate draws them."""
    while True:
        lam = complex(rng.uniform(-5.0, 2.0), rng.uniform(-4.0, 4.0))
        gap = refs.spectral_gap(lam)
        if gap > 0.05:
            return lam, gap


def _shifts(*estimates) -> int:
    # an estimate reporting shift k fitted the window k + 1 times
    return sum(e.shift + 1 for e in estimates)


# ---------------------------------------------------------------- gates


def basel_job(lib, tol: float) -> Job:
    def run(state, sp):
        rule = lib.zeta_shift_rule(2)
        with sp.span("evaluation.tail_ladder"):
            M, tb = lib.truncation_for_tolerance(rule, 0.0, tol)
        with sp.span("evaluation.partial_sum"):
            value = lib.partial_sum(rule, 0, M)
        return M, tb, value

    def check(r):
        M, tb, value = r
        return (_problem(tb.bound <= tol, f"tail bound {tb.bound} > {tol}")
                + _problem(tb.M == M, f"ladder returned M={M} with a bound for M={tb.M}")
                + _problem(value.imag == 0.0, f"imaginary part {value.imag}")
                + _problem(abs(value.real - math.pi**2 / 6.0) <= tol,
                           f"zeta(2) off by {abs(value.real - math.pi**2 / 6.0)}"))

    def counts(r):
        M = r[0]
        return {"evaluation.partial_sum_terms": M,
                "evaluation.tail_ladder_rungs": int(round(math.log2(M / 1024))) + 1}

    return Job("basel", run, check, lambda r: refs.digest_values(r[0], r[1].bound, r[2]),
               counts, gate="basel" if tol == 1e-8 else None, stat=False)


def abscissa_job(lib, N: int) -> Job:
    # the gate's five calls, in its order, with its tolerances
    plan = [("sigma_c", "ones", 1.0, 0.02), ("sigma_a", "ones", 1.0, 0.02),
            ("sigma_c", "eta", 0.0, 0.05), ("sigma_a", "eta", 1.0, 0.02),
            ("sigma_a", "zeta_shift2", -1.0, 0.05)]

    def run(state, sp):
        out = []
        for kind, rule, _, _ in plan:
            fn = lib.sigma_c_estimate if kind == "sigma_c" else lib.sigma_a_estimate
            r = lib.zeta_shift_rule(2) if rule == "zeta_shift2" else getattr(lib, f"{rule}_rule")()
            with sp.span("abscissa.window_fit"):
                out.append(fn(r, N))
        return out

    def check(ests):
        problems = []
        for (kind, rule, want, tol), e in zip(plan, ests):
            problems += _problem(abs(e.value - want) <= tol, f"{kind}({rule}) = {e.value}, want {want}±{tol}")
        return problems + _problem(ests[-1].shift >= 1, "zeta_shift(2) needed no shift")

    return Job("abscissa_corpus", run, check,
               lambda ests: refs.digest_values(*[v for e in ests for v in (e.value, e.uncertainty, e.shift)]),
               lambda ests: {"abscissa.window_fit_shifts": _shifts(*ests)},
               gate="abscissa" if N == 10**5 else None, stat=False)


def inverse_pair_job(lib) -> Job:
    def run(state, sp):
        rng = np.random.default_rng(101)
        out = []
        for _ in range(200):
            # the gate's _random_poly(rng, 512, n, zero_constant=True), same draws
            terms = _random_terms(rng, 2, 512, int(rng.integers(1, 9)))
            with sp.span("series.construct"):
                f = lib.DirichletPolynomial(terms)
            with sp.span("operators.apply"):
                d = lib.differentiate(f)
            with sp.span("operators.apply"):
                back1 = lib.integrate(d)
            with sp.span("operators.apply"):
                i = lib.integrate(f)
            with sp.span("operators.apply"):
                back2 = lib.differentiate(i)
            ok = (lib.coefficient_close(back1, f, rtol=1e-12)
                  and lib.coefficient_close(back2, f, rtol=1e-12))
            out.append((terms, back1, back2, ok))
        return out

    def check(out):
        problems = []
        for terms, back1, back2, ok in out:
            idx, c = refs.terms_arrays(terms)
            problems += _problem(ok, "coefficient_close rejected a round trip")
            problems += _poly_problem(back1, idx, c, 1e-12) + _poly_problem(back2, idx, c, 1e-12)
        return problems

    def counts(out):
        terms = sum(len(t) for t, _, _, _ in out)
        return {"series.construct_terms": terms, "operators.apply_terms": 4 * terms}

    return Job("inverse_pair", run, check,
               lambda out: refs.digest_values(*[p for _, b1, b2, _ in out for p in (b1, b2)]),
               counts, gate="inverse_pair", stat=False)


def spectrum_ladder_job(lib) -> Job:
    def run(state, sp):
        out = []
        for n in range(2, 1001):
            lam = -math.log(n)
            with sp.span("spectral.classify"):
                cls = lib.classify_point(lam, lib.ZERO_SUBSPACE)
            shifted = lib.Multiplier(symbol=lambda m, lam=lam: lam + math.log(m), label="lambda-shift")
            with sp.span("series.construct"):
                mono = lib.monomial(n)
            with sp.span("operators.apply"):
                annihilated = lib.apply(shifted, mono).is_zero
            out.append((cls.kind, cls.n, annihilated))
        return out

    def check(out):
        bad = [n for n, (kind, cn, zero) in zip(range(2, 1001), out)
               if kind != "eigenvalue" or cn != n or not zero]
        return _problem(not bad, f"ladder wrong at n = {bad[:5]}")

    return Job("spectrum_ladder", run, check, lambda out: refs.digest_values(*[v for t in out for v in t]),
               lambda out: {"spectral.classify_calls": len(out), "series.construct_terms": len(out),
                            "operators.apply_terms": len(out)},
               gate="spectrum_ladder", stat=False)


def gate_jobs(lib) -> dict[str, Job]:
    return {"basel": basel_job(lib, 1e-8), "abscissa": abscissa_job(lib, 10**5),
            "inverse_pair": inverse_pair_job(lib), "spectrum_ladder": spectrum_ladder_job(lib)}




# ---------------------------------------------------------------- stream


def build_stream(lib, rng, size: str) -> Plan:
    z = SIZES["stream"][size]
    s = complex(rng.uniform(0.25, 0.75), rng.uniform(2.0, 30.0))
    n_off, n_moeb, n_br = z["offaxis_n"], z["moebius_n"], z["bracket_n"]
    probe_eps = (0.1, 0.5)
    cache: dict = {}

    def offaxis_run(state, sp):
        with sp.span("evaluation.partial_sum"):
            return lib.partial_sum(lib.eta_rule(), s, n_off)

    def offaxis_check(v):
        if "offaxis" not in cache:
            cache["offaxis"] = refs.streamed_sum(refs.eta_values, s, n_off)
        ref, mass = cache["offaxis"]
        return _problem(abs(v - ref) <= 1e-13 * mass, f"off-axis sum {v} vs reference {ref}")

    def moebius_run(state, sp):
        with sp.span("abscissa.window_fit"):
            return lib.sigma_a_estimate(lib.moebius_rule(), n_moeb)

    def bracket_run(state, sp):
        with sp.span("abscissa.bracket"):
            return lib.bracket_sigma_u(lib.eta_rule(), n_br, list(probe_eps))

    def bracket_check(b):
        ns = np.arange(1, n_br + 1, dtype=np.int64)
        problems = (_problem(abs(b.sigma_c.value) <= 0.05, f"eta sigma_c = {b.sigma_c.value}")
                    + _problem(abs(b.sigma_a.value - 1.0) <= 0.02, f"eta sigma_a = {b.sigma_a.value}")
                    + _problem(tuple(p.epsilon for p in b.probes) == probe_eps, "probe epsilons"))
        for p in b.probes:
            at_zero = abs(refs.evaluate(ns, refs.eta_values(ns).astype(np.complex128), p.epsilon))
            problems += _problem(math.isfinite(p.sup_abs) and p.sup_abs >= at_zero * (1 - 1e-12),
                                 f"probe sup {p.sup_abs} below |S_N(eps={p.epsilon})| = {at_zero}")
        return problems

    jobs = [
        basel_job(lib, z["basel_tol"]),
        Job("offaxis_sum", offaxis_run, offaxis_check, lambda v: refs.digest_values(v),
            lambda v: {"evaluation.partial_sum_terms": n_off}),
        abscissa_job(lib, z["corpus_n"]),
        Job("moebius_sigma_a", moebius_run,
            lambda e: _problem(abs(e.value - 1.0) <= 0.05, f"moebius sigma_a = {e.value}"),
            lambda e: refs.digest_values(e.value, e.uncertainty, e.shift),
            lambda e: {"abscissa.window_fit_shifts": _shifts(e)}),
        Job("bracket_sigma_u", bracket_run, bracket_check,
            lambda b: refs.digest_values(b.sigma_c.value, b.sigma_a.value, *[p.sup_abs for p in b.probes]),
            lambda b: {"abscissa.probe_grid_points": sum(p.points for p in b.probes)}),
    ]
    return Plan("stream", size, jobs, {"offaxis_s": [s.real, s.imag], **z})


# ---------------------------------------------------------------- bulk


def build_bulk(lib, rng, size: str) -> Plan:
    z = SIZES["bulk"][size]
    N, k = z["terms"], z["k"]
    rand_terms = _random_terms(rng, 2, z["max_index"], N)
    rand_idx, rand_c = refs.terms_arrays(rand_terms)
    lam, gap = _resolvent_lambda(rng)
    s_eval = complex(rng.uniform(0.5, 2.0), rng.uniform(-20.0, 20.0))
    conv = {
        "dense": (_dense_terms(rng, z["dense"]), _dense_terms(rng, z["dense"])),
        "sparse": (_random_terms(rng, 1, z["max_index"], z["sparse"]),
                   _random_terms(rng, 1, z["max_index"], z["sparse"])),
    }
    s_conv = complex(rng.uniform(1.5, 3.0), rng.uniform(-10.0, 10.0))
    vg, vf = _dense_terms(rng, z["volterra"]), _dense_terms(rng, z["volterra"])
    semi_terms = _random_terms(rng, 1, z["seminorm_max"], z["seminorm_terms"], complex_coeffs=False)
    semi_eps = float(rng.uniform(0.0, 1.0))
    pow_terms = _random_terms(rng, 2, z["power_max"], z["power_terms"])
    pow_eps = float(rng.uniform(0.0, 1.0))
    cache: dict = {}

    def construct_eta(state, sp):
        with sp.span("series.construct"):
            return lib.truncate(lib.eta_rule(), N)

    def construct_random(state, sp):
        with sp.span("series.construct"):
            return lib.DirichletPolynomial(rand_terms)

    def differentiate(state, sp):
        with sp.span("operators.apply"):
            return lib.differentiate(state["construct_random"])

    def integrate(state, sp):
        with sp.span("operators.apply"):
            return lib.integrate(state["differentiate"])

    def resolvent(state, sp):
        with sp.span("spectral.resolvent"):
            return lib.resolvent_apply(lam, state["construct_random"], lib.FULL)

    def evaluate(state, sp):
        with sp.span("evaluation.evaluate"):
            return lib.evaluate(state["construct_random"], s_eval)

    def evaluate_check(v):
        ref = refs.evaluate(rand_idx, rand_c, s_eval)
        mass = refs.abs_mass(rand_idx, rand_c, s_eval.real)
        return _problem(abs(v - ref) <= 1e-12 * mass, f"evaluate {v} vs reference {ref}")

    def convolve_job(shape) -> Job:
        f_terms, g_terms = conv[shape]
        fi, fc = refs.terms_arrays(f_terms)
        gi, gc = refs.terms_arrays(g_terms)

        def run(state, sp):
            with sp.span("series.construct"):
                f, g = lib.DirichletPolynomial(f_terms), lib.DirichletPolynomial(g_terms)
            with sp.span(f"series.convolve_{shape}"):
                return f, g, lib.dirichlet_multiply(f, g)

        def check(r):
            f, g, fg = r
            idx, c, scale = refs.convolve(fi, fc, gi, gc)
            problems = _poly_problem(fg, idx, c, 1e-12, scale)
            problems += _problem(refs.digest_poly(lib.dirichlet_multiply(g, f)) == refs.digest_poly(fg),
                                 "convolution is not commutative to the bit")
            fg_idx, fg_c = refs.poly_arrays(fg)
            got = refs.evaluate(fg_idx, fg_c, s_conv)
            want = refs.evaluate(fi, fc, s_conv) * refs.evaluate(gi, gc, s_conv)
            return problems + _problem(abs(got - want) <= 1e-10 * (1.0 + abs(want)),
                                       f"f*g at s = {got}, f(s) g(s) = {want}")

        def counts(r):
            if shape not in cache:
                cache[shape] = refs.bucket_count(fi, gi)
            return {"series.construct_terms": fi.size + gi.size,
                    f"series.convolve_{shape}_pairs": fi.size * gi.size,
                    f"series.convolve_{shape}_buckets": cache[shape]}

        return Job(f"convolve_{shape}", run, check, lambda r: refs.digest_poly(r[2]), counts)

    def volterra(state, sp):
        with sp.span("series.construct"):
            g, f = lib.DirichletPolynomial(vg), lib.DirichletPolynomial(vf)
        with sp.span("volterra.apply"):
            return lib.volterra_apply(g, f)

    def volterra_check(v):
        gi, gc = refs.terms_arrays(vg)
        fi, fc = refs.terms_arrays(vf)
        idx, c, scale = refs.convolve(gi, -_log(gi) * gc, fi, fc)
        keep = idx >= 2
        logs = _log(idx[keep])
        got_idx, _ = refs.poly_arrays(v)
        return (_problem(got_idx.size == 0 or got_idx[0] >= 2, "V_g(f) has a constant term")
                + _poly_problem(v, idx[keep], -c[keep] / logs, 1e-12, scale[keep] / logs))

    def seminorm(state, sp):
        with sp.span("series.construct"):
            p = lib.DirichletPolynomial(semi_terms)
        with sp.span("evaluation.seminorm"):
            return lib.seminorm(p, semi_eps)

    def seminorm_check(est):
        idx, c = refs.terms_arrays(semi_terms)
        upper = refs.abs_mass(idx, c, semi_eps)
        at_zero = abs(refs.evaluate(idx, c, semi_eps))
        return (_problem(est.lower <= est.upper, f"seminorm lower {est.lower} > upper {est.upper}")
                + _problem(abs(est.upper - upper) <= 1e-12 * upper, f"upper {est.upper} vs {upper}")
                + _problem(est.lower >= at_zero * (1 - 1e-12), f"lower {est.lower} < |f(eps)| = {at_zero}"))

    def grid_points(est) -> int:
        g = est.grid
        return int(np.arange(-g.t_max if g.two_sided else 0.0, g.t_max + 0.5 * g.step, g.step).size)

    def power(state, sp):
        with sp.span("series.construct"):
            p = lib.DirichletPolynomial(pow_terms)
        with sp.span("dynamics.power"):
            return p, lib.power_apply(lib.derivative_multiplier(), k, p)

    def norm(state, sp):
        with sp.span("dynamics.norm"):
            return lib.normalized_power_norm(lib.derivative_multiplier(), state["power"][0], pow_eps, k)

    pi, pc = refs.terms_arrays(pow_terms)

    def norm_check(v):
        want = math.fsum((_log(pi) ** k * np.abs(pc) * np.exp(-pow_eps * _log(pi))).tolist()) / k
        return _problem(abs(v - want) <= 1e-10 * want, f"normalized power norm {v} vs {want}")

    eta_idx = np.arange(1, N + 1, dtype=np.int64)
    poly_digest = refs.digest_poly
    jobs = [
        Job("construct_eta", construct_eta,
            lambda f: _exact_problem(f, eta_idx, refs.eta_values(eta_idx).astype(np.complex128)),
            poly_digest, lambda f: {"series.construct_terms": N}),
        Job("construct_random", construct_random, lambda f: _exact_problem(f, rand_idx, rand_c),
            poly_digest, lambda f: {"series.construct_terms": N}),
        Job("differentiate", differentiate,
            lambda f: _poly_problem(f, rand_idx, -_log(rand_idx) * rand_c, 1e-13),
            poly_digest, lambda f: {"operators.apply_terms": N}),
        Job("integrate", integrate, lambda f: _poly_problem(f, rand_idx, rand_c, 1e-12),
            poly_digest, lambda f: {"operators.apply_terms": N}),
        Job("resolvent", resolvent,
            lambda f: _poly_problem(f, rand_idx, rand_c / (_log(rand_idx) + lam), 1e-12),
            poly_digest, lambda f: {"spectral.resolvent_terms": N}),
        Job("evaluate", evaluate, evaluate_check, lambda v: refs.digest_values(v)),
        convolve_job("dense"),
        convolve_job("sparse"),
        Job("volterra", volterra, volterra_check, poly_digest,
            lambda v: {"series.construct_terms": len(vg) + len(vf)}),
        Job("seminorm", seminorm, seminorm_check, lambda e: refs.digest_values(e.lower, e.upper),
            lambda e: {"series.construct_terms": len(semi_terms),
                       "evaluation.seminorm_grid_points": grid_points(e)}),
        Job("power", power, lambda r: _poly_problem(r[1], pi, _log(pi) ** k * pc, 1e-12),
            lambda r: poly_digest(r[1]), lambda r: {"series.construct_terms": len(pow_terms)}),
        Job("normalized_norm", norm, norm_check, lambda v: refs.digest_values(v),
            lambda v: {"dynamics.norm_terms_k": len(pow_terms) * k}),
    ]
    inputs = {**z, "lambda": [lam.real, lam.imag], "lambda_gap": gap, "s_eval": [s_eval.real, s_eval.imag],
              "s_conv": [s_conv.real, s_conv.imag], "seminorm_eps": semi_eps, "power_eps": pow_eps}
    return Plan("bulk", size, jobs, inputs)


# ---------------------------------------------------------------- small


def chain_job(lib, rng, i: int) -> Job:
    """One tiny polynomial through every layer the gates exercise."""
    # sizes follow the chain's position, not the seed: 1-9 terms, k in 1..40
    f_terms = _random_terms(rng, 2, 512, 1 + i % 9)
    h_terms = _random_terms(rng, 1, 512, 1 + (4 * i) % 9)
    k = 1 + (7 * i) % 40
    lam, gap = _resolvent_lambda(rng)
    mu = complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
    s = complex(rng.uniform(0.1, 3.0), rng.uniform(-10.0, 10.0))
    eps = float(rng.uniform(0.0, 1.0))
    fi, fc = refs.terms_arrays(f_terms)
    hi, hc = refs.terms_arrays(h_terms)

    def run(state, sp):
        with sp.span("series.construct"):
            f = lib.DirichletPolynomial(f_terms)
        with sp.span("series.construct"):
            h = lib.DirichletPolynomial(h_terms)
        with sp.span("operators.apply"):
            df = lib.differentiate(f)
        with sp.span("operators.apply"):
            back = lib.integrate(df)
        with sp.span("spectral.classify"):
            cls = lib.classify_point(lam, lib.FULL)
        with sp.span("spectral.resolvent"):
            res = lib.resolvent_apply(lam, f, lib.FULL)
        with sp.span("spectral.reciprocal"):
            rec = lib.reciprocal_spectrum_check(mu)
        with sp.span("volterra.identity_check"):
            ident = lib.volterra_identity_check(f)
        with sp.span("series.convolve_sparse"):
            fh = lib.dirichlet_multiply(f, h)
        with sp.span("dynamics.norm"):
            nrm = lib.normalized_power_norm(lib.derivative_multiplier(), f, eps, k)
        return back, cls, res, rec, ident, fh, nrm

    def check(r):
        back, cls, res, rec, ident, fh, nrm = r
        problems = _poly_problem(back, fi, fc, 1e-12)
        problems += _problem(cls.kind == "resolvent_point" and abs(cls.gap - gap) <= 1e-12 * gap,
                             f"classify({lam}) = {cls.kind}, gap {cls.gap} vs {gap}")
        problems += _poly_problem(res, fi, fc / (_log(fi) + lam), 1e-12)
        in_rho = refs.spectral_gap(mu) > 1e-12
        problems += _problem(rec.consistent and rec.in_rho_d == in_rho, f"reciprocal check at {mu}")
        problems += _problem(ident.match, "volterra identity reported a mismatch")
        problems += _poly_problem(ident.lhs, fi, fc, 1e-12)
        got_i, got_c = refs.poly_arrays(fh)
        got = refs.evaluate(got_i, got_c, s)
        want = refs.evaluate(fi, fc, s) * refs.evaluate(hi, hc, s)
        problems += _problem(abs(got - want) <= 1e-10 * (1.0 + abs(want)), f"f*h at {s}: {got} vs {want}")
        want_n = math.fsum((np.abs(_log(fi)) ** k * np.abs(fc) * np.exp(-eps * _log(fi))).tolist()) / k
        return problems + _problem(abs(nrm - want_n) <= 1e-10 * want_n, f"norm {nrm} vs {want_n}")

    buckets = refs.bucket_count(fi, hi)
    counts = {"series.construct_terms": fi.size + hi.size, "operators.apply_terms": 2 * fi.size,
              "spectral.classify_calls": 1, "spectral.resolvent_terms": fi.size,
              "series.convolve_sparse_pairs": fi.size * hi.size,
              "series.convolve_sparse_buckets": buckets, "dynamics.norm_terms_k": fi.size * k}
    return Job(f"chain{i:02d}", run, check,
               lambda r: refs.digest_values(r[0], r[1].kind, r[1].gap, r[2], r[3].consistent,
                                            r[3].gap_d, r[3].gap_j, r[4].lhs, r[5], r[6]),
               lambda r: counts)


def build_small(lib, rng, size: str) -> Plan:
    n = SIZES["small"][size]["chains"]
    jobs = [chain_job(lib, rng, i) for i in range(n)]
    jobs += [inverse_pair_job(lib), spectrum_ladder_job(lib)]
    return Plan("small", size, jobs, {"chains": n})


# ---------------------------------------------------------------- cli


CLI_SUBCOMMANDS = ("eval", "diff", "integrate", "mul", "seminorm", "abscissa", "resolvent",
                   "classify", "bv-check", "reciprocal", "volterra", "dynamics")


def _descriptor(terms: dict) -> str:
    return json.dumps({"kind": "poly", "terms": [{"n": n, "re": a.real, "im": a.imag}
                                                 for n, a in terms.items()]})


def _cpx(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _num(v):
    return v if isinstance(v, (bool, str)) else float(v)


def _csv_cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _poly_rows(f) -> list:
    return [(float(n), a.real, a.imag) for n, a in f.items()]


def parse_cli_output(sub: str, fmt: str, out: str):
    """The output in one canonical form: polynomials as (n, re, im) rows,
    records as {field: value}, dynamics as (k, value) rows."""
    if fmt == "csv":
        lines = [line.split(",") for line in out.strip().split("\n")]
        header, rows = lines[0], [[_csv_cell(c) for c in r] for r in lines[1:]]
        if header == ["n", "re", "im"] or header == ["k", "value"]:
            return [tuple(r) for r in rows]
        if header == ["field", "value"]:
            return {r[0]: r[1] for r in rows}
        return dict(zip(header, rows[0]))
    payload = json.loads(out)
    if isinstance(payload, list):
        return [(float(t["n"]), float(t["re"]), float(t.get("im", 0))) for t in payload]
    if sub == "dynamics":
        return [(float(k), float(v)) for k, v in payload["samples"]]
    if sub == "abscissa":
        flat = {}
        for key in ("sigma_c", "sigma_a"):
            flat[key] = float(payload[key]["value"])
            flat[f"{key}_uncertainty"] = float(payload[key]["uncertainty"])
            flat[f"{key}_shift"] = float(payload[key]["shift"])
        flat["sigma_u_low"], flat["sigma_u_high"] = map(float, payload["sigma_u_bracket"])
        for p in payload["probes"]:
            flat[f"probe_sup_eps_{p['epsilon']}"] = float(p["sup_abs"])
        return flat
    return {key: _num(v) for key, v in payload.items()}


def build_cli(lib, rng, size: str, env: dict) -> Plan:
    formats = SIZES["cli"][size]["formats"]
    p_terms = _random_terms(rng, 2, 64, 4)
    q_terms = _random_terms(rng, 1, 64, 3)
    s = complex(rng.uniform(0.5, 2.0), rng.uniform(-10.0, 10.0))
    lam, _ = _resolvent_lambda(rng)
    mu = complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
    eps = float(rng.uniform(0.0, 1.0))
    P, Q = _descriptor(p_terms), _descriptor(q_terms)
    argv = {
        "eval": ["--series", P, f"--s={_cpx(s)}"],
        "diff": ["--series", P],
        "integrate": ["--series", P],
        "mul": ["--f", P, "--g", Q],
        "seminorm": ["--series", P, "--epsilon", repr(eps)],
        "abscissa": ["--series", '{"kind":"rule","name":"eta"}', "--n", "2000", "--probe-eps", "0.1,0.5"],
        "resolvent": ["--series", Q, f"--lambda={_cpx(lam)}", "--space", "full"],
        "classify": [f"--lambda={_cpx(lam)}", "--space", "full"],
        "bv-check": [f"--lambda={_cpx(lam)}", "--delta", "0.5", "--n", "2000"],
        "reciprocal": [f"--mu={_cpx(mu)}"],
        "volterra": ["--g", P, "--f", Q],
        "dynamics": ["--op", "d", "--series", P, "--epsilon", repr(eps)],
    }

    def expected(sub: str):
        """The same call made in process, in parse_cli_output's form."""
        p, q = lib.DirichletPolynomial(p_terms), lib.DirichletPolynomial(q_terms)
        if sub == "eval":
            v = lib.evaluate(p, s)
            return {"re": v.real, "im": v.imag}
        if sub in ("diff", "integrate"):
            return _poly_rows((lib.differentiate if sub == "diff" else lib.integrate)(p))
        if sub == "mul":
            return _poly_rows(lib.dirichlet_multiply(p, q))
        if sub == "seminorm":
            e = lib.seminorm(p, eps)
            return {"epsilon": e.epsilon, "lower": e.lower, "upper": e.upper, "t_max": e.grid.t_max,
                    "step": e.grid.step, "two_sided": e.grid.two_sided}
        if sub == "abscissa":
            b = lib.bracket_sigma_u(lib.eta_rule(), 2000, [0.1, 0.5])
            flat = {}
            for key, e in (("sigma_c", b.sigma_c), ("sigma_a", b.sigma_a)):
                flat.update({key: e.value, f"{key}_uncertainty": e.uncertainty, f"{key}_shift": float(e.shift)})
            flat["sigma_u_low"], flat["sigma_u_high"] = b.sigma_u_bracket
            flat.update({f"probe_sup_eps_{pr.epsilon}": pr.sup_abs for pr in b.probes})
            return flat
        if sub == "resolvent":
            return _poly_rows(lib.resolvent_apply(lam, q, lib.FULL))
        if sub == "classify":
            c = lib.classify_point(lam, lib.FULL)
            return {"verdict": c.kind, **({"n": float(c.n)} if c.n is not None else {})}
        if sub == "bv-check":
            r = lib.bv_check(lam, 0.5, 2000)
            return {"verdict": r.verdict, "N": float(r.N), "delta": r.delta, "gap": r.gap,
                    "variation": r.variation, "fitted_constant": r.fitted_constant,
                    "majorant_ratio": r.majorant_ratio}
        if sub == "reciprocal":
            r = lib.reciprocal_spectrum_check(mu)
            return {"in_rho_d": r.in_rho_d, "in_rho_j_reciprocal": r.in_rho_j_reciprocal,
                    "consistent": r.consistent, "gap_d": r.gap_d, "gap_j": r.gap_j}
        if sub == "volterra":
            return _poly_rows(lib.volterra_apply(p, q))
        r = lib.ergodicity_diagnostic(lib.derivative_multiplier(), p, eps, 40)
        return [(float(kk), float(v)) for kk, v in r.samples]

    cache: dict = {}

    def spawn(args, span_name):
        def run(state, sp):
            with sp.span(span_name):
                return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                                      text=True, timeout=120, check=False)
        return run

    def cli_check(sub, fmt):
        def check(proc):
            if proc.returncode != 0:
                return [f"dseries {sub} exited {proc.returncode}: {proc.stderr.strip()[:200]}"]
            if sub not in cache:
                cache[sub] = expected(sub)
            got = parse_cli_output(sub, fmt, proc.stdout)
            return _problem(got == cache[sub], f"dseries {sub} --format {fmt} differs from the in-process call")
        return check

    def probe_check(proc):
        return _problem(proc.returncode == 0, f"probe exited {proc.returncode}: {proc.stderr.strip()[:200]}")

    def stdout_digest(proc):
        return refs.digest_values(proc.stdout)

    jobs = []
    for fmt in formats:
        for sub in CLI_SUBCOMMANDS:
            args = ["-m", "dirichlet_ops", "--format", fmt, sub, *argv[sub]]
            jobs.append(Job(f"{sub}.{fmt}", spawn(args, f"cli.{sub}"), cli_check(sub, fmt), stdout_digest))
    jobs.append(Job("interpreter", spawn(["-c", "pass"], "cli.interpreter"), probe_check,
                    stdout_digest, stat=False))
    jobs.append(Job("import", spawn(["-c", "import dirichlet_ops"], "cli.import"), probe_check,
                    stdout_digest, stat=False))

    # warm bytecode and the page cache, as a user's second invocation would see them
    warm = subprocess.run([sys.executable, "-m", "dirichlet_ops", "--help"], env=env,
                          capture_output=True, timeout=120, check=False)
    if warm.returncode != 0:
        raise RuntimeError(f"dseries --help failed: {warm.stderr!r}")
    inputs = {"formats": list(formats), "s": [s.real, s.imag], "lambda": [lam.real, lam.imag],
              "mu": [mu.real, mu.imag], "epsilon": eps, "P": P, "Q": Q}
    return Plan("cli", size, jobs, inputs)


def build_library(lib, rng, size: str, env: dict) -> Plan:
    parts = [build(lib, rng, size) for build in (build_stream, build_bulk, build_small)]
    return Plan("library", size, [j for p in parts for j in p.jobs], {p.workload: p.inputs for p in parts})


PLANNERS = {"library": build_library, "cli": build_cli}
WORKLOADS = tuple(PLANNERS)
