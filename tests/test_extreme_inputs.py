"""Public calls on polynomials at the edges of double range.

Each call must return a value or raise DomainError or SpectralError: an
OverflowError, a numpy warning or any other exception is a leak.  The
polynomials put each edge in one place: a sum of terms past double range,
a modulus past it, many large terms, subnormal coefficients, an index of
2^62 and a mix of huge, cancelling and tiny coefficients.
"""

import pytest

from dirichlet_ops import (
    FULL,
    ZERO_SUBSPACE,
    DirichletPolynomial,
    DomainError,
    SpectralError,
    apply,
    bracket_sigma_u,
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
    power_apply,
    resolvent_apply,
    seminorm,
    table_rule,
    volterra_apply,
)

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
