import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from dirichlet_ops import (
    DirichletPolynomial,
    DomainError,
    ergodicity_diagnostic,
    normalized_power_norm,
)

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


finite_coefficients = st.complex_numbers(
    max_magnitude=8.0, allow_nan=False, allow_infinity=False
)

real_positive_coefficients = st.floats(
    min_value=1e-3, max_value=8.0, allow_nan=False, allow_infinity=False
)


def poly_strategy(
    max_index: int = 64,
    max_terms: int = 6,
    min_index: int = 1,
    coefficients=finite_coefficients,
):
    pairs = st.tuples(st.integers(min_index, max_index), coefficients)
    return st.lists(pairs, min_size=0, max_size=max_terms).map(DirichletPolynomial)


# small-integer coefficients: convolution sums stay exact in doubles,
# which is what makes the associativity check an equality test
def int_poly_strategy(max_index: int = 32, max_terms: int = 5):
    pairs = st.tuples(
        st.integers(1, max_index),
        st.integers(-3, 3).map(lambda v: complex(v)),
    )
    return st.lists(pairs, min_size=0, max_size=max_terms).map(DirichletPolynomial)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260818)


def random_poly(
    rng: np.random.Generator,
    max_index: int = 256,
    n_terms: int = 8,
    zero_constant: bool = False,
    complex_coefficients: bool = True,
) -> DirichletPolynomial:
    lo = 2 if zero_constant else 1
    idx = rng.integers(lo, max_index + 1, size=n_terms)
    re = rng.uniform(-4.0, 4.0, size=n_terms)
    im = rng.uniform(-4.0, 4.0, size=n_terms) if complex_coefficients else np.zeros(n_terms)
    return DirichletPolynomial({int(n): complex(a, b) for n, a, b in zip(idx, re, im)})


def diagnostic_and_norms(m, f, epsilon: float, k_max: int) -> tuple[list[str], list[str]]:
    """ergodicity_diagnostic's samples and normalized_power_norm at
    k = 1..k_max, each as float.hex or as the DomainError message."""

    def outcome(call):
        try:
            return call()
        except DomainError as e:
            return str(e)

    report = outcome(lambda: ergodicity_diagnostic(m, f, epsilon, k_max))
    samples = [report] * k_max if isinstance(report, str) else [v.hex() for _, v in report.samples]
    norms = [outcome(lambda: normalized_power_norm(m, f, epsilon, k).hex()) for k in range(1, k_max + 1)]
    return samples, norms
