"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate finer failure classes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "PermutationError",
    "MatchingError",
    "RoutingError",
    "ScheduleError",
    "CircuitError",
    "QasmError",
    "TranspileError",
    "SimulationError",
    "ServiceClosedError",
    "ClusterShardError",
    "StaleEpochError",
    "AuthenticationError",
    "RateLimitedError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Invalid graph construction or an operation unsupported by a graph."""


class PermutationError(ReproError):
    """Malformed permutation data (not a bijection, wrong domain, ...)."""


class MatchingError(ReproError):
    """A matching-layer failure, e.g. no perfect matching where one is required."""


class RoutingError(ReproError):
    """A router could not produce a valid schedule for its input."""


class ScheduleError(ReproError):
    """A swap schedule violates an invariant (overlapping swaps, non-edges, ...)."""


class CircuitError(ReproError):
    """Invalid quantum-circuit construction or manipulation."""


class QasmError(CircuitError):
    """OpenQASM text that the subset parser cannot understand."""


class TranspileError(ReproError):
    """The transpiler could not produce a hardware-conformant circuit."""


class SimulationError(ReproError):
    """Simulator failure (dimension mismatch, non-unitary gate, ...)."""


class ServiceClosedError(ReproError):
    """Work was submitted to a service-layer object after ``close()``.

    Raised instead of surfacing a raw ``BrokenProcessPool`` (or silently
    restarting the pool) so misuse of the lifecycle is loud and
    unambiguous. ``close()`` itself stays idempotent — only *submission*
    after close raises.
    """


class ClusterShardError(ReproError):
    """A remote cache shard failed or answered incoherently.

    Raised by :class:`~repro.service.cluster.RemoteShardClient` on
    transport failures and refused/malformed responses. The
    :class:`~repro.service.cluster.ClusterScheduleCache` catches it,
    trips the node's circuit breaker and degrades to local compute —
    it never reaches the routing hot path.
    """


class AuthenticationError(ReproError):
    """A request could not be attributed to any configured tenant.

    Raised by :meth:`~repro.service.tenancy.TenantRegistry.authenticate`
    when tenancy is enforced and the request carries no API key (and no
    anonymous tenant is configured) or an unknown one. The request
    pipeline maps it to the stable ``unauthorized`` error code (HTTP
    401); it never takes a connection down.
    """


class RateLimitedError(ReproError):
    """A request was refused by admission control; retry later.

    Raised by the request pipeline's admit stage when a tenant's token
    bucket is empty, its queue quota is full, or the global queue depth
    bound would be crossed (load shedding). Maps to the stable
    ``rate_limited`` error code (HTTP 429 with a ``Retry-After``
    header). :attr:`retry_after` is the suggested wait in seconds;
    :attr:`reason` distinguishes a token-bucket refusal
    (``"throttled"``) from a queue-bound one (``"shed"``) for the
    per-tenant outcome counters.
    """

    def __init__(
        self,
        message: str,
        retry_after: float = 1.0,
        reason: str = "throttled",
    ) -> None:
        super().__init__(message)
        #: Suggested client back-off in seconds before retrying.
        self.retry_after = float(retry_after)
        #: Which admission check refused: ``"throttled"`` or ``"shed"``.
        self.reason = str(reason)


class StaleEpochError(ReproError):
    """A topology update lost the compare-and-set race on the epoch.

    Raised by :class:`~repro.service.cluster.ClusterTopology` when an
    update carries an ``expected_epoch`` that no longer matches the
    current epoch, or tries to install an epoch that is not strictly
    newer than the current one. Concurrent administrators therefore
    cannot split-brain a ring: exactly one of two racing updates wins,
    the other sees this error and must re-read the topology first.
    """
