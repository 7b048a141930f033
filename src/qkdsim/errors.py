"""Failures that a run's own data can cause.

Every class here names a ``failure_kind`` that ``run_once`` writes into a
row, so a sweep keeps the outcome and the pad only takes finished keys.
The base class itself is never raised. An argument that no run produces
(a wrong length, a rate outside (0, 1), a bad setting) raises ValueError
instead, so a bug in the pipeline cannot end as a quiet row.
"""


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


class DecodeFailure(QkdError):
    """Belief propagation did not reach the target syndrome."""


class HashMismatch(QkdError):
    """Corrected keys passed the syndrome but fail the hash exchange."""


class PadDepleted(QkdError):
    """One-time pad has too few bytes left for the request."""


class StorageFailure(QkdError):
    """Persistent store could not be written."""
