"""Multiplicative Volterra operator built from the operator calculus.

V_g(f) integrates the product of g' with f.  Since differentiation kills
the constant term and convolving a series whose first coefficient vanishes
with anything keeps it vanishing, the integrand is always inside the
integration operator's domain: the composite is total on polynomials.
Applied to the constant series 1 it recovers g minus its constant term,
which is the checkable identity this module reports on.
"""

from __future__ import annotations

from .operators import differentiate, integrate
from .series import DirichletPolynomial, _Record, coefficient_close, dirichlet_multiply, monomial, _normal

__all__ = ["volterra_apply", "IdentityReport", "volterra_identity_check"]

_MATCH_RTOL = 1e-12


def volterra_apply(g: DirichletPolynomial, f: DirichletPolynomial) -> DirichletPolynomial:
    """V_g(f): integrate the coefficient convolution of g' with f.

    The first coefficient of the result is exactly 0 for every g, f."""
    return integrate(dirichlet_multiply(differentiate(g), f))


class IdentityReport(_Record):
    """V_g(1) against g minus its constant term, coefficient-wise to 1e-12."""

    lhs: DirichletPolynomial
    rhs: DirichletPolynomial
    match: bool


def volterra_identity_check(g: DirichletPolynomial) -> IdentityReport:
    lhs = volterra_apply(g, monomial(1))
    # g minus its constant term: dropping the n = 1 term is exact, since
    # a_1 - a_1 is an exact zero
    coeffs = g.coeffs
    keys = [n for n in coeffs if n != 1]
    rhs = _normal(keys, map(coeffs.__getitem__, keys))
    return IdentityReport(lhs=lhs, rhs=rhs, match=coefficient_close(lhs, rhs, rtol=_MATCH_RTOL))
