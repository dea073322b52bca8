"""The two argument gates, series._validate_real and series._validate_complex,
and every public real or complex parameter that goes through them."""

import cmath
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

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
from dirichlet_ops.series import _ARRAY_MIN_TERMS, _MAX_TERMS, _validate_complex, _validate_index, _validate_real


# The gates as they were when the package imported numpy eagerly: concrete
# type tuples that named numpy's abstract scalar types.  The gates now ask
# numpy only once it is imported; they must accept and reject exactly as
# these do, with the same messages.
_ORACLE_INDEX_MAX = 2**63 - 1
_ORACLE_REALS = (float, int, np.floating, np.integer)
_ORACLE_COMPLEXES = (complex, *_ORACLE_REALS, np.complexfloating)


def _oracle_index(n, what="series index", least=1, most=_ORACLE_INDEX_MAX):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")
    if n < least:
        raise DomainError(f"{what} must be >= {least}, got {n}")
    if n > most:
        bound = "2^63 - 1" if most == _ORACLE_INDEX_MAX else most
        raise DomainError(f"{what} must be <= {bound}, got {n}")
    return int(n)


def _oracle_real(x, what, least=None, strict=False):
    real = isinstance(x, _ORACLE_REALS) and not isinstance(x, bool)
    v = float(x) if real and (not isinstance(x, int) or abs(x) <= sys.float_info.max) else math.nan
    if math.isfinite(v) and (least is None or v > least or (v == least and not strict)):
        return v
    bound = "" if least is None else f" {'>' if strict else '>='} {least:g}"
    kind = "finite" if real and not bound else "a finite real" + bound
    raise DomainError(f"{what} must be {kind}, got {x!r}")


def _oracle_complex(z, what):
    if isinstance(z, _ORACLE_COMPLEXES) and not isinstance(z, bool):
        c = complex(z) if not isinstance(z, int) or abs(z) <= sys.float_info.max else complex(math.inf)
        if cmath.isfinite(c):
            return c
        raise DomainError(f"{what} must be finite, got {c}")
    raise DomainError(f"{what} must be a finite complex number, got {z!r}")


def _outcome(gate, *args):
    """What a gate does with its arguments: the value and its type, or the
    error's type and message."""
    try:
        v = gate(*args)
    except Exception as e:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(e), str(e)
    return type(v), repr(v)


_GATE_VALUES = [
    0, 1, -3, 7, 2**63 - 1, 2**63, 10**400, 0.0, -0.0, 0.5, -2.5, 1e308, math.nan, math.inf, -math.inf,
    1 + 2j, -0.5j, complex(math.nan, 0), complex(1, math.inf), True, False, None, "3", b"3", [2], (2,),
    np.int64(2), np.int64(0), np.int64(-4), np.int8(-3), np.uint8(200), np.uint64(2**64 - 1),
    np.float16(3), np.float32(1.5), np.float32(math.nan), np.float64(2.0), np.float64(-math.inf),
    np.complex64(1j), np.complex64(2 + 1j), np.complex128(complex(math.inf, 0)), np.longdouble(0.25),
    np.bool_(True), np.bool_(False), np.str_("2"), np.array(2), np.array([2.0]),
    Fraction(1, 3), Fraction(4, 1), Decimal("0.5"), Decimal("2"), Decimal("nan"),
]
_GATE_CALLS = [
    (_validate_index, _oracle_index, ()),
    (_validate_index, _oracle_index, ("k", 0)),
    (_validate_index, _oracle_index, ("N", 1, 100)),
    (_validate_real, _oracle_real, ("x",)),
    (_validate_real, _oracle_real, ("x", 0.0)),
    (_validate_real, _oracle_real, ("x", 0.0, True)),
    (_validate_complex, _oracle_complex, ("z",)),
]


@pytest.mark.parametrize("gate, oracle, args", _GATE_CALLS)
@pytest.mark.parametrize("value", _GATE_VALUES, ids=repr)
def test_gates_keep_the_type_tuples_verdicts(gate, oracle, args, value):
    assert _outcome(gate, value, *args) == _outcome(oracle, value, *args)


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
        # none is a list of epsilons: a bare number or a 0-d array does not
        # iterate, and a string or bytes iterates by item (b"0" gives 48)
        *[(lambda v=v: bracket_sigma_u(eta_rule(), 200, v), "probe_eps must be a nonempty list of epsilons")
          for v in (0.5, np.float64(0.5), np.array(0.5), "0.5", b"0")],
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
}


@pytest.mark.parametrize("call", list(MATERIALIZED))
@pytest.mark.parametrize("N", [_MAX_TERMS + 1, 2**40, 2**62])
def test_materialized_terms_capped_before_allocation(call, N):
    # the cap is checked first, so none of these sizes allocates anything
    run, name = MATERIALIZED[call]
    with pytest.raises(DomainError) as info:
        run(N)
    assert str(info.value) == f"{name} must be <= {_MAX_TERMS}, got {N}"
