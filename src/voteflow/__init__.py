"""voteflow: closed-form election outcome probabilities under noisy information flow.

Candidates sit at fixed points on a political spectrum; evidence about the
eventual "right" choice reaches the electorate as a signal-plus-noise
process whose single control parameter is the information flow rate. The
package computes, in closed form, the probability of every possible
election-day ranking of the candidates (and hence each candidate's chance
of winning), plus the strategy analytics built on top: dead zones for
centre-ground candidates, bounds on the information rate, peak attainable
support, parameter sweeps, source aggregation, seeded Monte Carlo
verification, and rate calibration from poll time series.

Each module's ``__all__`` is its public list; the package re-exports them.
"""

from . import aggregation, calibration, errors, model, outcomes, simulation, strategy
from .aggregation import *  # noqa: F401,F403
from .calibration import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .outcomes import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .strategy import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "errors",
    *model.__all__,
    *outcomes.__all__,
    *aggregation.__all__,
    *strategy.__all__,
    *simulation.__all__,
    *calibration.__all__,
]
