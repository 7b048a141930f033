"""Exception types raised by the simulation and protocol stages."""


class QkdError(Exception):
    """Base class for protocol and simulation failures."""


class NoJumpFound(QkdError):
    """No tag-rate jump found: the signal is too weak against the background."""


class LockLost(QkdError):
    """A drift interval's phase histogram has no dominant peak."""


class AmbiguousAlignment(QkdError):
    """Top two correlation scores are too close to trust the offset."""


class InsufficientData(QkdError):
    """Too few events or key bits for a statistical step: the run was too short."""


class QberAboveThreshold(QkdError):
    """Estimated error rate above the abort threshold; eavesdropping assumed."""


class RateInfeasible(QkdError):
    """Requested code rate gives no valid check count."""


class LengthMismatch(QkdError):
    """Key length does not match the factor graph's variable count."""


class DecodeFailure(QkdError):
    """Belief propagation did not reach the target syndrome."""


class HashMismatch(QkdError):
    """Corrected keys passed the syndrome but fail the hash exchange."""


class LengthInvalid(QkdError):
    """Requested output length outside [0, input length]."""


class PadDepleted(QkdError):
    """One-time pad has too few bytes left for the request."""


class StorageFailure(QkdError):
    """Persistent store could not be written."""
