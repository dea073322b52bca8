"""Computable operator theory on Dirichlet series.

Finite Dirichlet polynomials with exact coefficient arithmetic, rigorous
tail and seminorm bounds, convergence-abscissa estimation, and the diagonal
calculus of the differentiation and integration operators: resolvents,
spectrum classification, Volterra-type composition, and iterate-growth
diagnostics.

The package republishes each submodule's public names; a submodule's
``__all__`` is the one list of what it exports.
"""

from . import abscissa, dynamics, errors, evaluation, operators, series, spectral, volterra
from .abscissa import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .operators import *  # noqa: F403
from .series import *  # noqa: F403
from .spectral import *  # noqa: F403
from .volterra import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (
    abscissa.__all__
    + dynamics.__all__
    + errors.__all__
    + evaluation.__all__
    + operators.__all__
    + series.__all__
    + spectral.__all__
    + volterra.__all__
)
