"""Functional linear regression for sparse longitudinal data.

Estimate smooth mean and covariance structure from irregular, noisy,
per-subject measurements; extract principal component functions; regress a
response curve on a predictor curve through their principal scores; and
predict individual response trajectories with pointwise confidence bands,
even when each subject contributes only a handful of observations.
"""

from . import data, errors, flr, fpca, serialize, simulation, smoothing
from .data import *  # noqa: F403
from .errors import *  # noqa: F403
from .flr import *  # noqa: F403
from .fpca import *  # noqa: F403
from .serialize import *  # noqa: F403
from .simulation import *  # noqa: F403
from .smoothing import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
_MODULES = (data, errors, flr, fpca, serialize, simulation, smoothing)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
