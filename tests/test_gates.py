"""The two argument gates, series._validate_real and series._validate_complex,
and every public real or complex parameter that goes through them."""

import math
import re

import numpy as np
import pytest

from dirichlet_ops import (
    FULL,
    DirichletPolynomial,
    DomainError,
    HalfPlanePoint,
    boundary_values,
    bracket_sigma_u,
    bv_check,
    classify_point,
    derivative_multiplier,
    eta_rule,
    evaluate,
    monomial,
    normalized_power_norm,
    partial_sum,
    reciprocal_spectrum_check,
    resolvent_apply,
    scale,
    seminorm,
    sigma_a_estimate,
    sigma_c_estimate,
    spectral_gap,
    table_rule,
    tail_bound_monotone,
    truncate,
    truncation_for_tolerance,
    zeta_shift_rule,
)
from dirichlet_ops.series import _ARRAY_MIN_TERMS, _MAX_TERMS, _validate_complex, _validate_real


class TestValidateReal:
    @pytest.mark.parametrize("x", [0, 2, 0.25, -3.5, np.float32(1.5), np.int64(7), np.float64(-0.0)])
    def test_returns_float(self, x):
        got = _validate_real(x, "x")
        assert type(got) is float and got == float(x)

    def test_bounds(self):
        assert _validate_real(0.0, "x", 0.0) == 0.0
        assert _validate_real(1e-300, "x", 0.0, strict=True) == 1e-300
        with pytest.raises(DomainError, match=r"^x must be a finite real > 0, got 0\.0$"):
            _validate_real(0.0, "x", 0.0, strict=True)
        with pytest.raises(DomainError, match=r"^x must be a finite real >= 0, got -1\.0$"):
            _validate_real(-1.0, "x", 0.0)

    @pytest.mark.parametrize(
        "x, least, message",
        [
            (math.nan, None, "x must be finite, got nan"),
            (-math.inf, None, "x must be finite, got -inf"),
            (math.nan, 0.0, "x must be a finite real >= 0, got nan"),
            (math.inf, 0.0, "x must be a finite real >= 0, got inf"),
            (True, None, "x must be a finite real, got True"),
            ("0.5", None, "x must be a finite real, got '0.5'"),
            (None, 0.0, "x must be a finite real >= 0, got None"),
            (0.5j, None, "x must be a finite real, got 0.5j"),
            (10**400, None, f"x must be finite, got {10**400}"),
        ],
    )
    def test_messages(self, x, least, message):
        with pytest.raises(DomainError) as info:
            _validate_real(x, "x", least)
        assert str(info.value) == message


class TestValidateComplex:
    @pytest.mark.parametrize("z", [0, -2, 0.5, 1 - 2j, np.float32(0.5), np.complex64(1j), np.int8(3)])
    def test_returns_complex(self, z):
        got = _validate_complex(z, "z")
        assert type(got) is complex and got == complex(z)

    @pytest.mark.parametrize(
        "z, message",
        [
            (math.nan, "z must be finite, got (nan+0j)"),
            (complex(-1.0, math.inf), "z must be finite, got (-1+infj)"),
            (10**400, "z must be finite, got (inf+0j)"),
            (True, "z must be a finite complex number, got True"),
            ("1+2j", "z must be a finite complex number, got '1+2j'"),
            (None, "z must be a finite complex number, got None"),
        ],
    )
    def test_messages(self, z, message):
        with pytest.raises(DomainError) as info:
            _validate_complex(z, "z")
        assert str(info.value) == message


# every gated public real parameter: (call with the value, the name its
# message carries, an out-of-range value or None when there is no bound)
REAL_PARAMETERS = {
    "seminorm.epsilon": (lambda v: seminorm(monomial(2), v), "epsilon", -1.0),
    "seminorm.step": (lambda v: seminorm(monomial(2), 0.0, t_max=1.0, step=v), "grid step", 0.0),
    "seminorm.t_max": (lambda v: seminorm(monomial(2), 0.0, t_max=v), "grid extent t_max", -1.0),
    "boundary_values.epsilon": (lambda v: boundary_values(monomial(2), v, [0.0]), "epsilon", None),
    "normalized_power_norm.epsilon": (
        lambda v: normalized_power_norm(derivative_multiplier(), monomial(3), v, 2), "epsilon", -1.0
    ),
    "bracket_sigma_u.probe_eps": (lambda v: bracket_sigma_u(eta_rule(), 100, [0.5, v]), "probe epsilon", -1.0),
    "bracket_sigma_u.t_max": (
        lambda v: bracket_sigma_u(eta_rule(), 100, [0.5], t_max=v), "probe grid extent t_max", 0.0
    ),
    "truncation_for_tolerance.tol": (
        lambda v: truncation_for_tolerance(zeta_shift_rule(2), 0.0, v), "tolerance", 0.0
    ),
    "bv_check.delta": (lambda v: bv_check(1.0, v), "delta", 1.0),
    "HalfPlanePoint.sigma": (lambda v: HalfPlanePoint(v, 0.0), "sigma", None),
    "HalfPlanePoint.t": (lambda v: HalfPlanePoint(0.0, v), "t", None),
    # the one function that words a non-finite epsilon itself, naming its window
    "tail_bound_monotone.epsilon": (lambda v: tail_bound_monotone(eta_rule(), None, 100, v), "epsilon", None),
}

COMPLEX_PARAMETERS = {
    "evaluate.s": (lambda v: evaluate(monomial(2), v), "evaluation point"),
    "partial_sum.s": (lambda v: partial_sum(eta_rule(), v, 10), "evaluation point"),
    "spectral_gap.lmbda": (spectral_gap, "spectral parameter"),
    "classify_point.lmbda": (lambda v: classify_point(v, FULL), "spectral parameter"),
    "resolvent_apply.lmbda": (lambda v: resolvent_apply(v, monomial(2), FULL), "spectral parameter"),
    "bv_check.lmbda": (lambda v: bv_check(v, 0.5), "spectral parameter"),
    "reciprocal_spectrum_check.mu": (reciprocal_spectrum_check, "spectral parameter"),
}

NON_NUMBERS = ["x", None, True, "0.5"]


def _real_cases():
    for param, (call, name, out_of_range) in REAL_PARAMETERS.items():
        values = [*NON_NUMBERS, 0.5j, math.nan, math.inf]
        if out_of_range is not None:
            values.append(out_of_range)
        for v in values:
            if v is None and param == "seminorm.t_max":
                continue  # None asks for seminorm's default extent
            yield pytest.param(call, name, v, id=f"{param}={v!r}")


def _complex_cases():
    for param, (call, name) in COMPLEX_PARAMETERS.items():
        for v in [*NON_NUMBERS, "1+2j", complex(math.nan, 1.0)]:
            yield pytest.param(call, name, v, id=f"{param}={v!r}")


@pytest.mark.parametrize("call, name, value", [*_real_cases(), *_complex_cases()])
def test_public_parameter_gated(call, name, value):
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must "):
        call(value)


# numeric messages the gates kept that no other test or golden record pins
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evaluate(monomial(2), math.inf), "evaluation point must be finite, got (inf+0j)"),
        (lambda: bv_check(1.0, 1.5), "delta must lie in (0, 1), got 1.5"),
        (
            lambda: bracket_sigma_u(eta_rule(), 100, [0.5], t_max=-1.0),
            "probe grid extent t_max must be a finite real > 0, got -1.0",
        ),
    ],
)
def test_numeric_messages_kept(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# every way a coefficient enters: (call with the value, the name its message carries)
COEFFICIENT_ENTRIES = {
    "DirichletPolynomial": (lambda v: DirichletPolynomial({3: 1.0, 2: v}), "coefficient at n=2"),
    "DirichletPolynomial.pairs": (lambda v: DirichletPolynomial([(2, 1.0), (2, v)]), "coefficient at n=2"),
    "monomial": (lambda v: monomial(2, v), "coefficient at n=2"),
    "scale": (lambda v: scale(v, monomial(2)), "scale factor"),
    "table_rule": (lambda v: table_rule({5: 1.0, 2: v}), "coefficient at n=2"),
    # from _ARRAY_MIN_TERMS entries on, a mapping of floats is built on arrays
    "DirichletPolynomial.bulk": (
        lambda v: DirichletPolynomial({**dict.fromkeys(range(3, 3 + _ARRAY_MIN_TERMS), 1.0), 2: v}),
        "coefficient at n=2",
    ),
}


@pytest.mark.parametrize("entry", list(COEFFICIENT_ENTRIES))
@pytest.mark.parametrize(
    "value, message",
    [
        ("1.5", "must be a finite complex number, got '1.5'"),
        (True, "must be a finite complex number, got True"),
        (None, "must be a finite complex number, got None"),
        (10**400, "must be finite, got (inf+0j)"),
    ],
)
def test_coefficient_gated(entry, value, message):
    call, name = COEFFICIENT_ENTRIES[entry]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{name} {message}"


@pytest.mark.parametrize("entry", [name for name in COEFFICIENT_ENTRIES if name != "scale"])
@pytest.mark.parametrize(
    "value, shown", [(math.nan, "(nan+0j)"), (math.inf, "(inf+0j)"), (-math.inf, "(-inf+0j)")]
)
def test_non_finite_coefficient_named(entry, value, shown):
    # a non-finite float skips the type gate; it must still raise, at
    # construction, naming its index (a table rule used to return it)
    call, name = COEFFICIENT_ENTRIES[entry]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite, got {shown}"


def test_table_rule_keeps_zeros_and_their_signs():
    rule = table_rule({2: -0.0, 3: 0.0, 4: complex(-0.0, -0.0), 5: complex(1.5, -0.0), 7: 0})
    got = rule.values(np.arange(1, 9))
    assert [(z.real.hex(), z.imag.hex()) for z in got.tolist()] == [
        (a.real.hex(), a.imag.hex())
        for a in (0j, complex(-0.0), 0j, complex(-0.0, -0.0), complex(1.5, -0.0), 0j, 0j, 0j)
    ]


@pytest.mark.parametrize("value", [3, np.float32(0.5), np.int64(-2), np.complex64(1j), 1 - 2j, 0.25])
def test_numeric_coefficients_accepted(value):
    assert DirichletPolynomial({2: value}) == monomial(2, value) == scale(value, monomial(2))
    assert table_rule({2: value})(2) == complex(value)


# every call that materializes N terms: (call with N, the name its message carries)
MATERIALIZED = {
    "truncate": (lambda N: truncate(eta_rule(), N), "truncation length N"),
    "sigma_c_estimate": (lambda N: sigma_c_estimate(eta_rule(), N), "window length N"),
    "sigma_a_estimate": (lambda N: sigma_a_estimate(eta_rule(), N), "window length N"),
    "bracket_sigma_u": (lambda N: bracket_sigma_u(eta_rule(), N, [0.5]), "window length N"),
    "bv_check": (lambda N: bv_check(1.0, 0.5, N), "N"),
    "partial_sum.chunk": (lambda N: partial_sum(eta_rule(), 0.5, 10, chunk=N), "chunk length"),
}


@pytest.mark.parametrize("call", list(MATERIALIZED))
@pytest.mark.parametrize("N", [_MAX_TERMS + 1, 2**40, 2**62])
def test_materialized_terms_capped_before_allocation(call, N):
    # the cap is checked first, so none of these sizes allocates anything
    run, name = MATERIALIZED[call]
    with pytest.raises(DomainError) as info:
        run(N)
    assert str(info.value) == f"{name} must be <= {_MAX_TERMS}, got {N}"
