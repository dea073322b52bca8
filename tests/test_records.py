"""The package's frozen records against the dataclasses they replaced.

REFERENCE keeps each of the 15 record types as it was defined with
@dataclass(frozen=True) before the records moved onto series._Record, which
imports no dataclasses.  Every check builds the package's record and its
reference from the same arguments and compares what a user sees: repr, ==,
hash, frozen assignment and deletion, binding by position, keyword, default
and keyword-only, each binding's TypeError, HalfPlanePoint's validation and
replace (against dataclasses.replace).
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import pytest

import dirichlet_ops
from dirichlet_ops import DirichletPolynomial, DomainError, derivative_multiplier, eta_rule, monomial, replace
from dirichlet_ops.abscissa import SIGMA_U_NOTE
from dirichlet_ops.series import _Record, _validate_real


@dataclass(frozen=True)
class Estimate:
    value: float
    uncertainty: float
    shift: int
    slopes: tuple[float, ...] = ()


@dataclass(frozen=True)
class BoundednessProbe:
    epsilon: float
    sup_abs: float
    t_max: float
    points: int
    refined: int


@dataclass(frozen=True)
class AbscissaEstimate:
    sigma_c: Estimate
    sigma_a: Estimate
    N: int
    probes: tuple[BoundednessProbe, ...]
    note: str = SIGMA_U_NOTE


@dataclass(frozen=True)
class DynamicsReport:
    samples: tuple[tuple[int, float], ...]
    verdict: str
    fitted_rate: float


@dataclass(frozen=True)
class TailBound:
    M: int
    epsilon: float
    bound: float
    regime: str
    probe_end: int


@dataclass(frozen=True)
class GridSpec:
    t_max: float
    step: float
    two_sided: bool


@dataclass(frozen=True)
class SeminormEstimate:
    epsilon: float
    lower: float
    upper: float
    grid: GridSpec
    points: int
    refined: int


@dataclass(frozen=True)
class Multiplier:
    symbol: Callable[[int], complex]
    label: str
    requires_zero_constant: bool = field(default=False, kw_only=True)


@dataclass(frozen=True)
class GrowthReport:
    verdict: str
    sample_points: tuple[int, ...]
    ratios: tuple[float, ...]
    limit_estimate: float
    fit_residual: float


@dataclass(frozen=True)
class HalfPlanePoint:
    sigma: float
    t: float = 0.0

    def __post_init__(self):
        _validate_real(self.sigma, "sigma")
        _validate_real(self.t, "t")


@dataclass(frozen=True)
class CoefficientRule:
    tag: str
    vectorized: Callable
    known_abscissas: Mapping[str, float] | None = None


@dataclass(frozen=True)
class SpectrumClassification:
    lam: complex
    space: str
    kind: str
    n: int | None = None
    eigenvector: DirichletPolynomial | None = None
    gap: float | None = None
    near_spectrum: bool = False
    reason: str = ""


@dataclass(frozen=True)
class VariationReport:
    lam: complex
    delta: float
    N: int
    gap: float
    variation: float
    partial_sums: np.ndarray = field(compare=False)
    fitted_constant: float
    majorant_ratio: float
    verdict: str
    certified_variation: float


@dataclass(frozen=True)
class ReciprocalReport:
    mu: complex
    in_rho_d: bool
    in_rho_j_reciprocal: bool
    consistent: bool
    gap_d: float
    gap_j: float


@dataclass(frozen=True)
class IdentityReport:
    lhs: DirichletPolynomial
    rhs: DirichletPolynomial
    match: bool


REFERENCE = {cls.__name__: cls for cls in (
    Estimate, BoundednessProbe, AbscissaEstimate, DynamicsReport, TailBound, GridSpec, SeminormEstimate,
    Multiplier, GrowthReport, HalfPlanePoint, CoefficientRule, SpectrumClassification, VariationReport,
    ReciprocalReport, IdentityReport,
)}
NAMES = sorted(REFERENCE)

_F = DirichletPolynomial({2: 1.5, 3: -0.5j})
_ESTIMATE = dirichlet_ops.Estimate(value=0.25, uncertainty=0.01, shift=2, slopes=(2.25, 1.25, 0.25))
_PROBE = dirichlet_ops.BoundednessProbe(epsilon=0.5, sup_abs=3.5, t_max=100.0, points=201, refined=3)
# every init field of each type, in field order; nested records are the package's on both sides
SAMPLES = {
    "Estimate": dict(value=0.25, uncertainty=0.01, shift=2, slopes=(2.25, 1.25, 0.25)),
    "BoundednessProbe": dict(epsilon=0.5, sup_abs=3.5, t_max=100.0, points=201, refined=3),
    "AbscissaEstimate": dict(sigma_c=_ESTIMATE, sigma_a=_ESTIMATE, N=1000, probes=(_PROBE, _PROBE), note="a note"),
    "DynamicsReport": dict(samples=((1, 0.5), (2, 0.25)), verdict="converges", fitted_rate=-0.69),
    "TailBound": dict(M=1024, epsilon=0.5, bound=0.03, regime="oscillatory", probe_end=5120),
    "GridSpec": dict(t_max=50.0, step=0.5, two_sided=True),
    "SeminormEstimate": dict(epsilon=0.3, lower=1.0, upper=2.0, grid=dirichlet_ops.GridSpec(50.0, 0.5, True),
                             points=201, refined=2),
    "Multiplier": dict(symbol=math.sqrt, label="root", requires_zero_constant=True),
    "GrowthReport": dict(verdict="admissible", sample_points=(2, 4, 8), ratios=(0.1, 0.05, 0.02),
                         limit_estimate=0.0, fit_residual=1e-3),
    "HalfPlanePoint": dict(sigma=0.5, t=-14.0),
    "CoefficientRule": dict(tag="roots", vectorized=np.sqrt, known_abscissas=None),
    "SpectrumClassification": dict(lam=complex(-math.log(2), 0.0), space="full", kind="eigenvalue", n=2,
                                   eigenvector=monomial(2), gap=None, near_spectrum=True, reason="-log 2"),
    "VariationReport": dict(lam=1 + 1j, delta=0.5, N=1000, gap=1.0, variation=2.0, partial_sums=np.arange(3.0),
                            fitted_constant=1.5, majorant_ratio=0.9, verdict="bounded", certified_variation=2.5),
    "ReciprocalReport": dict(mu=0.4 - 1.2j, in_rho_d=True, in_rho_j_reciprocal=True, consistent=True,
                             gap_d=1.6, gap_j=0.79),
    "IdentityReport": dict(lhs=_F, rhs=_F, match=True),
}


def _fields(name):
    return dataclasses.fields(REFERENCE[name])


def _pair(name, *args, **kwargs):
    """The package's record and the reference, or the exception each raised."""
    out = []
    for cls in (getattr(dirichlet_ops, name), REFERENCE[name]):
        try:
            out.append(cls(*args, **kwargs))
        except (TypeError, DomainError) as err:
            out.append(err)
    return out


def _same_error(ours, ref, kind):
    assert isinstance(ours, kind) and type(ours) is type(ref), (ours, ref)
    assert str(ours) == str(ref)


def _hash(record):
    """hash(record), or the message of the TypeError of a field without one
    (a DirichletPolynomial or a dict): both sides must give the same."""
    try:
        return hash(record)
    except TypeError as err:
        return str(err)


def _other(value):
    # a value unequal to the sample's that every field, HalfPlanePoint's too, accepts
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, (int, float, complex)) else "other"


def test_references_cover_the_package_records():
    # the package's records are exactly these 15, none a dataclass any more
    records = {name for name in dirichlet_ops.__all__ if isinstance(getattr(dirichlet_ops, name), type)
               and issubclass(getattr(dirichlet_ops, name), _Record)}
    assert records == set(REFERENCE)
    for name in NAMES:
        assert not dataclasses.is_dataclass(getattr(dirichlet_ops, name))
        assert list(SAMPLES[name]) == [f.name for f in _fields(name) if f.init]


@pytest.mark.parametrize("name", NAMES)
def test_repr_by_keyword_position_and_default(name):
    kwargs = SAMPLES[name]
    ours, ref = _pair(name, **kwargs)
    assert repr(ours) == repr(ref)
    positional = [kwargs[f.name] for f in _fields(name) if f.init and not f.kw_only]
    keyword_only = {f.name: kwargs[f.name] for f in _fields(name) if f.init and f.kw_only}
    ours, ref = _pair(name, *positional, **keyword_only)
    assert repr(ours) == repr(ref)
    required = {f.name: kwargs[f.name] for f in _fields(name)
                if f.init and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    ours, ref = _pair(name, **required)
    assert repr(ours) == repr(ref)
    for f in _fields(name):
        mine, theirs = getattr(ours, f.name), getattr(ref, f.name)
        assert mine is theirs if f.name in required else type(mine) is type(theirs) and mine == theirs


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    kwargs = SAMPLES[name]
    ours, ref = _pair(name, **kwargs)
    again, _ = _pair(name, **kwargs)
    assert ours == again and not ours != again
    assert _hash(ours) == _hash(again) == _hash(ref)
    assert ours != ref and ref != ours and ours != kwargs
    assert ours.__eq__(ref) is NotImplemented
    # nor does a record of another of the package's types compare
    other = NAMES[(NAMES.index(name) + 1) % len(NAMES)]
    stranger = getattr(dirichlet_ops, other)(**SAMPLES[other])
    assert ours != stranger and ours.__eq__(stranger) is NotImplemented
    for f in _fields(name):
        if not f.init:
            continue
        changed = dict(kwargs, **{f.name: _other(kwargs[f.name])})
        ours_changed, ref_changed = _pair(name, **changed)
        assert (ours == ours_changed) == (ref == ref_changed) == (not f.compare), f.name
        assert (_hash(ours) == _hash(ours_changed)) == (_hash(ref) == _hash(ref_changed)), f.name


def test_unhashable_mapping_stays_unhashable():
    # a rule's known_abscissas is a dict: the rule compares, but has no hash
    kwargs = dict(SAMPLES["CoefficientRule"], known_abscissas={"sigma_c": 1.0})
    ours, ref = _pair("CoefficientRule", **kwargs)
    assert ours == _pair("CoefficientRule", **kwargs)[0]
    for record in (ours, ref):
        with pytest.raises(TypeError, match="^unhashable type: 'dict'$"):
            hash(record)


def test_records_holding_a_polynomial_hash():
    # a DirichletPolynomial hashes over its normal form, so a spectrum
    # verdict with an eigenvector and every IdentityReport hash, and equal
    # records hash alike
    verdict = dirichlet_ops.classify_point(-math.log(2), "full")
    assert verdict.eigenvector is not None
    assert hash(verdict) == hash(dirichlet_ops.classify_point(-math.log(2), "full"))
    g = monomial(2, 0.5) + monomial(3, -1j)
    report = dirichlet_ops.volterra_identity_check(g)
    assert hash(report) == hash(dirichlet_ops.volterra_identity_check(DirichletPolynomial(list(g.items()))))
    assert len({report, dirichlet_ops.volterra_identity_check(g)}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_frozen_assignment_and_deletion(name):
    ours, ref = _pair(name, **SAMPLES[name])
    for attribute in [f.name for f in _fields(name)] + ["new_attribute"]:
        for act in (lambda r: setattr(r, attribute, 1.0), lambda r: delattr(r, attribute)):
            errors = []
            for record in (ours, ref):
                with pytest.raises(AttributeError) as info:
                    act(record)
                errors.append(str(info.value))
            assert errors[0] == errors[1], attribute
    assert repr(ours) == repr(ref)


def _bad_calls(name):
    """(args, kwargs) of calls that do not bind, one fault each."""
    kwargs = SAMPLES[name]
    fields = [f for f in _fields(name) if f.init]
    positional = [kwargs[f.name] for f in fields if not f.kw_only]
    keyword_only = {f.name: kwargs[f.name] for f in fields if f.kw_only}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    calls = [((), {}), ((), dict(kwargs, bogus=1)), ((*positional, 0.5), keyword_only),
             ((positional[0],), dict(kwargs))]
    calls += [((), {k: v for k, v in kwargs.items() if k != left_out}) for left_out in required]
    if len(required) > 2:  # all but the first missing, named as a list
        calls.append(((positional[0],), {}))
    calls += [((), dict(kwargs, **{f.name: None})) for f in _fields(name) if not f.init]
    if keyword_only:  # a keyword-only field given by position
        calls.append(((*positional, *keyword_only.values()), {}))
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_each_binding_error_is_the_dataclass_s(name):
    calls = _bad_calls(name)
    assert len(calls) >= 5
    for args, kwargs in calls:
        ours, ref = _pair(name, *args, **kwargs)
        _same_error(ours, ref, TypeError)


@pytest.mark.parametrize("bad", [("sigma", math.nan), ("sigma", "0.5"), ("sigma", True), ("t", math.inf),
                                 ("t", None), ("t", 10**400), ("sigma", 1j)])
def test_half_plane_point_validation(bad):
    kwargs = dict(SAMPLES["HalfPlanePoint"], **dict([bad]))
    ours, ref = _pair("HalfPlanePoint", **kwargs)
    _same_error(ours, ref, DomainError)
    ours, ref = _pair("HalfPlanePoint", *kwargs.values())
    _same_error(ours, ref, DomainError)


@pytest.mark.parametrize("name", NAMES)
def test_replace_matches_dataclasses_replace(name):
    kwargs = SAMPLES[name]
    ours, ref = _pair(name, **kwargs)
    assert replace(ours) == ours and replace(ours) is not ours
    assert repr(replace(ours)) == repr(dataclasses.replace(ref))
    for f in _fields(name):
        if f.init:
            change = {f.name: _other(kwargs[f.name])}
            assert repr(replace(ours, **change)) == repr(dataclasses.replace(ref, **change))
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        replace(ours, bogus=1)


def test_replace_keeps_the_hints_on_the_function():
    # a hint rides on the function it describes, never on the record: a copy
    # through replace, changed or not, holds the same function, so the same
    # hint, and the record holds its fields alone
    D, eta = derivative_multiplier(), eta_rule()
    array_symbol, description = D.symbol._array_symbol, eta.vectorized._description
    assert array_symbol is not None and description is not None
    for copy_ in (replace(D), replace(D, label="d")):
        assert copy_.symbol._array_symbol is array_symbol
    for copy_ in (replace(eta), replace(eta, tag="eta2")):
        assert copy_.vectorized._description == description
    assert replace(D) == D and hash(replace(D)) == hash(D)
    assert replace(eta) == eta  # no hash: its known_abscissas is a dict
    for record, hint in ((D, "_array_symbol"), (eta, "_description")):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{hint}'"):
            replace(record, **{hint: None})
        assert hint not in repr(record) and hint not in vars(record)


def test_copy_keeps_the_hints_as_before():
    # copy.copy and deepcopy copy the instance dict, as they did for the
    # dataclasses, and neither copies a function: the hints ride along on it
    D, eta = derivative_multiplier(), eta_rule()
    for dup in (copy.copy, copy.deepcopy):
        assert dup(D) == D and dup(D).symbol._array_symbol is not None
        assert dup(eta) == eta and dup(eta).vectorized._description == eta.vectorized._description


def test_records_hold_their_fields_alone():
    # no record the public API returns carries state beside its fields, so
    # equal records behave alike: one of each type, each built-in rule and
    # multiplier (HalfPlanePoint, which no call returns, as a user builds it),
    # and a replace() copy of each
    f, D = DirichletPolynomial({n: 1.0 / n for n in range(2, 120)}), derivative_multiplier()
    abscissa, estimate = dirichlet_ops.bracket_sigma_u(eta_rule(), 200, (0.5,)), dirichlet_ops.seminorm(f, 0.5)
    records = [D, dirichlet_ops.integration_multiplier(), dirichlet_ops.identity_multiplier(),
               dirichlet_ops.compose(D, D), dirichlet_ops.ones_rule(), eta_rule(), dirichlet_ops.zeta_shift_rule(2),
               dirichlet_ops.moebius_rule(), dirichlet_ops.table_rule({1: 1.0}), abscissa, abscissa.sigma_c,
               abscissa.probes[0], dirichlet_ops.ergodicity_diagnostic(D, f, 0.5, 10),
               dirichlet_ops.tail_bound_monotone(eta_rule(), None, 1024, 0.5), estimate, estimate.grid,
               dirichlet_ops.check_growth(D), dirichlet_ops.HalfPlanePoint(0.5, 1.0),
               dirichlet_ops.classify_point(-math.log(2), "full"), dirichlet_ops.bv_check(1 + 1j, 0.5, 1000),
               dirichlet_ops.reciprocal_spectrum_check(0.4 - 1.2j), dirichlet_ops.volterra_identity_check(f)]
    assert {type(record).__name__ for record in records} == set(NAMES)
    for record in [*records, *map(replace, records)]:
        assert set(vars(record)) == set(type(record)._fields), record


def test_every_annotation_is_a_field():
    # a private annotation is a field like any other, and none shares a
    # name with the compiled __init__'s locals
    class Private(_Record):
        _dict: int
        _defaults: int = 2

    record = Private(1)
    assert Private._fields == ("_dict", "_defaults")
    assert vars(record) == {"_dict": 1, "_defaults": 2}
    assert record == Private(1, 2) and record != Private(1, 3)
    assert repr(record).endswith("Private(_dict=1, _defaults=2)")
    assert replace(record, _dict=4) == Private(4)
