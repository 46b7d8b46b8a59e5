"""Exception and warning types for voteflow.

Two broad families matter to callers (and to the CLI's exit codes):
``ValidationError`` covers rejected inputs, ``NumericalError`` covers
well-posed requests that no parameter value can satisfy.
"""


class VoteflowError(Exception):
    """Base class for all voteflow errors."""


class ValidationError(VoteflowError, ValueError):
    """An input failed validation."""


class NumericalError(VoteflowError, ArithmeticError):
    """A numerical procedure could not produce a result (no root, no bracket)."""


# --- model construction -----------------------------------------------------

class NonIncreasingPositions(ValidationError):
    """Candidate positions must be strictly increasing."""


class PriorsNotNormalized(ValidationError):
    """Prior support rates must be nonnegative and sum to 1 within 1e-9."""


class NonPositiveHorizon(ValidationError):
    """Time to the election must be strictly positive."""


class NonPositiveRate(ValidationError):
    """Information flow rates must be finite and strictly positive, and so
    must the terminal variance they accumulate over the horizon."""


# --- evaluation domains -----------------------------------------------------

class OutOfRangeTime(ValidationError):
    """Evaluation time outside [0, horizon] (or [0, horizon) for conditioning)."""


class OutOfRangeInterval(ValidationError):
    """Time interval outside the schedule's domain or reversed."""


class InvalidInterval(ValidationError):
    """Signal interval with lower endpoint above the upper endpoint."""


class InvalidPermutation(ValidationError):
    """Not a strict ordering of all candidates."""


class DegeneratePrior(ValidationError):
    """Two-candidate support rate must lie strictly inside (0, 1)."""


# --- aggregation ------------------------------------------------------------

class PerfectCorrelation(ValidationError):
    """Source noises with |correlation| >= 1 cannot be aggregated."""


class NotPositiveDefinite(ValidationError):
    """Correlation matrix is not (strictly) positive definite."""


# --- strategy ---------------------------------------------------------------

class RequiresThreeCandidates(ValidationError):
    """Operation is defined for exactly three candidates."""


class ZeroPrior(ValidationError):
    """Operation requires every prior support rate to be strictly positive."""


class NotInteriorCandidate(ValidationError):
    """Operation is defined for interior candidates only (not the spectrum ends)."""


class NoBracket(NumericalError):
    """No sign change exists: the root being sought does not exist."""


# --- simulation / calibration ----------------------------------------------

class TooFewObservations(ValidationError):
    """A poll series needs at least three observations."""


class Unattainable(NumericalError):
    """Target win probability is outside the range achieved over the scan."""


# --- CLI --------------------------------------------------------------------

class ConfigError(ValidationError):
    """Scenario configuration file is malformed; message carries field context."""


class MissingSweepBlock(ConfigError):
    """Sweep requested but the config has no matching sweep block."""


class CsvDataError(VoteflowError):
    """Input CSV could not be parsed; message carries the row number."""


# --- warnings ---------------------------------------------------------------

class DegenerateSeriesWarning(UserWarning):
    """Poll series carries no movement (or a degenerate posterior); estimate is 0."""
