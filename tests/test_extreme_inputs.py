"""Public calls on polynomials at the edges of double range.

Each call must return a value or raise DomainError or SpectralError: an
OverflowError, a numpy warning or any other exception is a leak.  The
polynomials put each edge in one place: a sum of terms past double range,
a modulus past it, many large terms, subnormal coefficients, an index of
2^62 and a mix of huge, cancelling and tiny coefficients.  Rules, spectral
parameters and grids at the edge of what a call can decide get a DomainError
naming the cause.
"""

import math

import numpy as np
import pytest

from dirichlet_ops import (
    FULL,
    ZERO_SUBSPACE,
    CoefficientRule,
    DirichletPolynomial,
    DomainError,
    SpectralError,
    apply,
    boundary_values,
    bracket_sigma_u,
    bv_check,
    cesaro_mean,
    derivative_multiplier,
    differentiate,
    dirichlet_multiply,
    ergodicity_diagnostic,
    evaluate,
    identity_multiplier,
    integrate,
    monomial,
    normalized_power_norm,
    partial_sum,
    power_apply,
    reciprocal_spectrum_check,
    resolvent_apply,
    seminorm,
    sigma_c_estimate,
    table_rule,
    tail_bound_monotone,
    truncate,
    volterra_apply,
)

from conftest import diagnostic_and_norms

EXTREME_POLYNOMIALS = {
    "two-1e308": {2: 1e308, 3: 1e308},
    "modulus-past-range-at-1": {1: complex(1.5e308, 1.5e308)},
    "38-terms-of-1e307": {n: 1e307 for n in range(2, 40)},
    "subnormal": {2: 5e-324, 3: -1e-310, 5: complex(0.0, 2e-320)},
    "index-2^62": {2**62: 1.0, 2: 0.5},
    "mixed": {2: 1e300, 3: -1e300, 4: 1e-300j, 6: 1e300},
}

D = derivative_multiplier()
I = identity_multiplier()

CALLS = {
    "evaluate-0": lambda f: evaluate(f, 0.0),
    "evaluate-2+i": lambda f: evaluate(f, complex(2.0, 1.0)),
    "seminorm-0": lambda f: seminorm(f, 0.0, t_max=10.0, step=0.1),
    "seminorm-1": lambda f: seminorm(f, 1.0, t_max=10.0, step=0.1),
    "differentiate": differentiate,
    "integrate": integrate,
    "apply-identity": lambda f: apply(I, f),
    "convolve-self": lambda f: dirichlet_multiply(f, f),
    "convolve-monomial": lambda f: dirichlet_multiply(f, monomial(2)),
    "resolvent-full": lambda f: resolvent_apply(1.0, f, FULL),
    "resolvent-zero": lambda f: resolvent_apply(complex(-1.0, 1.0), f, ZERO_SUBSPACE),
    "volterra": lambda f: volterra_apply(f, f),
    "power-3": lambda f: power_apply(D, 3, f),
    "cesaro-5": lambda f: cesaro_mean(D, 5, f),
    "norm-derivative": lambda f: normalized_power_norm(D, f, 0.0, 3),
    "norm-identity": lambda f: normalized_power_norm(I, f, 0.0, 1),
    "norm-large-k": lambda f: normalized_power_norm(D, f, 0.5, 400),
    "diagnostic-derivative": lambda f: ergodicity_diagnostic(D, f, 0.0, 10),
    "diagnostic-identity": lambda f: ergodicity_diagnostic(I, f, 0.0, 10),
    "bracket": lambda f: bracket_sigma_u(table_rule(dict(f.items())), 100, [0.0, 1.0]),
}


@pytest.mark.parametrize("name", list(EXTREME_POLYNOMIALS))
@pytest.mark.parametrize("call", list(CALLS))
def test_value_or_domain_error(call, name):
    f = DirichletPolynomial(EXTREME_POLYNOMIALS[name])
    try:
        CALLS[call](f)
    except (DomainError, SpectralError):
        pass


@pytest.mark.parametrize("name", list(EXTREME_POLYNOMIALS))
@pytest.mark.parametrize("m", [D, I], ids=["derivative", "identity"])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_diagnostic_samples_equal_norms_to_the_bit(epsilon, m, name):
    samples, norms = diagnostic_and_norms(m, DirichletPolynomial(EXTREME_POLYNOMIALS[name]), epsilon, 40)
    assert samples == norms


# rule outputs of the wrong shape or kind: each used to flow on silently or
# leak numpy's error from wherever it first broke
BAD_RULES = {
    "short": lambda ns: np.ones(3),
    "2-d": lambda ns: np.ones((ns.size, 2)),
    "text": lambda ns: np.full(ns.shape, "a"),
    "bool": lambda ns: ns > 2,
}

RULE_CALLS = {
    "truncate": lambda rule: truncate(rule, 10),
    "rule(n)": lambda rule: rule(5),
    "partial_sum": lambda rule: partial_sum(rule, 0.5, 100),
    "sigma_c_estimate": lambda rule: sigma_c_estimate(rule, 100),
    "tail_bound_monotone": lambda rule: tail_bound_monotone(rule, None, 10, 0.5),
    "bracket_sigma_u": lambda rule: bracket_sigma_u(rule, 100, [0.5]),
}


def _rule_case(tag, call):
    rule = CoefficientRule(tag, BAD_RULES[tag])
    return pytest.param(lambda: RULE_CALLS[call](rule), rf"rule '{tag}' must return numbers", id=f"{call}-{tag}")


REPRODUCERS = [
    *(_rule_case(tag, call) for tag in BAD_RULES for call in RULE_CALLS),
    # the gap squared underflows to 0 (ZeroDivisionError), or overflows to
    # inf (fitted_constant = inf and, at 1e300, numpy warnings)
    pytest.param(lambda: bv_check(complex(-math.log(2), 1e-200), 0.5, 1000),
                 r"gap 1e-200, whose square is not a normal double", id="bv_check-gap-1e-200"),
    pytest.param(lambda: bv_check(1e155, 0.5, 1000),
                 r"gap 1e\+155, whose square is not a normal double", id="bv_check-gap-1e155"),
    pytest.param(lambda: bv_check(1e300, 0.5, 1000),
                 r"gap 1e\+300, whose square is not a normal double", id="bv_check-gap-1e300"),
    # 1/mu within SPECTRUM_TOLERANCE of 0, where J's spectrum accumulates:
    # these returned consistent=False
    *(pytest.param(lambda mu=mu: reciprocal_spectrum_check(mu), r"^mu = .* is too large: 1/mu lies within",
                   id=f"reciprocal-{mu}") for mu in (1e12, 1e13j, -1e13, 1e100)),
    # numpy's broadcast and float-conversion ValueErrors leaked
    *(pytest.param(lambda ts=ts: boundary_values(monomial(2), 0.0, ts),
                   r"^ts must be a 1-d sequence of real numbers", id=f"boundary_values-{name}")
      for name, ts in [("2-d", np.zeros((2, 3))), ("text", ["a"]), ("ragged", [[0.0], [0.0, 1.0]]),
                       ("scalar", 1.0)]),
]


@pytest.mark.parametrize("terms", [95, 96])
@pytest.mark.parametrize("t", [1e308, -1e308])
def test_evaluate_past_the_imaginary_range(terms, t):
    # s log n's imaginary part overflows: the scalar path (below 96 terms)
    # leaked cmath.exp's ValueError where the array path names the overflow
    f = DirichletPolynomial({**{n: 1.0 for n in range(2, terms + 1)}, 100000: 0.5})
    assert f.term_count == terms
    with pytest.raises(DomainError, match=r"^f\(s\) at s = -?1e\+308j overflows double precision"):
        evaluate(f, complex(0.0, t))


@pytest.mark.parametrize("call, match", REPRODUCERS)
def test_undecidable_input_raises_domain_error(call, match):
    with pytest.raises(DomainError, match=match):
        call()
