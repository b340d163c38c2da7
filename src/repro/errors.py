"""Exception hierarchy for the SecNDP reproduction."""

from __future__ import annotations

__all__ = [
    "SecNDPError",
    "VerificationError",
    "ShardVerificationError",
    "VersionReuseError",
    "VersionBudgetError",
    "ConfigurationError",
    "RecoveryExhaustedError",
    "OverloadedError",
    "ServerClosedError",
    "PeerTimeoutError",
]


class SecNDPError(Exception):
    """Base class for all errors raised by this package."""


class VerificationError(SecNDPError):
    """An NDP result failed tag verification.

    Raised when the reconstructed checksum of a weighted-summation result
    does not match the retrieved (decrypted) tag - caused by a corrupted or
    forged NDP result, tampered ciphertext/tags in memory, a replayed stale
    value, or an arithmetic overflow in the ring (paper Sec. IV-F, footnote 1).
    In the hardware design this corresponds to the verification-failure
    interrupt of Sec. V-E3.
    """


class ShardVerificationError(VerificationError):
    """A single shard's tag share failed its per-shard checksum.

    The linear checksum restricted to one shard's row partition is itself
    an exact identity, so checking every :class:`PartialSumShare` before
    ring-combining localises a failure to the shard that produced it —
    the publicly-identifiable-abort property the cluster tier's blame
    assignment builds on.  ``shard`` names the offending shard (a node
    name) and ``queries`` lists the batch-local query indices whose
    shares failed.
    """

    def __init__(self, message: str, shard=None, queries=()):
        super().__init__(message)
        self.shard = shard
        self.queries = tuple(queries)


class VersionReuseError(SecNDPError):
    """A version number would be reused for the same address.

    Counter-mode security collapses if one (address, version) pair encrypts
    two different plaintexts (Sec. III-B); the software version manager
    refuses to do so.
    """


class VersionBudgetError(SecNDPError):
    """The enclave exceeded its configured version-number budget.

    The evaluation assumes enclave software manages at most 64 version
    numbers (Sec. VI-A); exceeding the budget means re-encryption under a
    fresh key is required.
    """


class ConfigurationError(SecNDPError, ValueError):
    """Invalid or inconsistent simulation/scheme configuration.

    Also a :class:`ValueError`: misconfiguration and shape errors were
    historically raised bare, so callers that catch ``ValueError`` keep
    working while new callers can catch the :class:`SecNDPError`
    hierarchy.
    """


class OverloadedError(SecNDPError):
    """The serving front-end shed this request (admission control).

    Raised client-side when a query receives a typed ``overloaded``
    response: the scheduler's pending queue is at capacity or the
    SLO-burn admission gate is rejecting new work (DESIGN.md Sec. 15).
    The request was never admitted, so retrying after backoff is safe.
    """


class ServerClosedError(SecNDPError):
    """The serving front-end is draining or closed.

    Raised client-side for a typed ``shutting_down`` response (the
    server accepted the connection but is completing in-flight batches
    and rejecting new work) or when the connection drops before a
    response arrives.
    """


class PeerTimeoutError(SecNDPError):
    """A peer (server or cluster node) missed its liveness deadline.

    Raised client-side when a request or heartbeat gets no response frame
    within the configured timeout (``SECNDP_HEARTBEAT_TIMEOUT`` or an
    explicit argument).  The peer may be slow, dead or
    partitioned; the cluster tier treats it as a blameable liveness fault
    and fails over to a replica or the trusted recompute path.
    """


class RecoveryExhaustedError(SecNDPError):
    """Every rung of the recovery ladder failed for a query.

    A verification failure persisted through retries and the trusted
    non-NDP recompute could not repair the corrupted rows (no retained
    plaintext).  Recovering requires restoring the region from a trusted
    source and re-encrypting it (paper Sec. V-A / V-E3).
    """
