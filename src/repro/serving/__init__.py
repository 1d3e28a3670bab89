"""Multi-query continuous serving (docs/SERVING.md).

A :class:`~repro.serving.server.StandingQueryEngine` multiplexes many
standing queries over shared source streams with hot register/unregister,
common-subexpression sharing at the split edge (a query that cannot
share is fed as a group of one, through the same loop), per-tenant cost
quotas, per-query fault isolation (circuit breakers + a dead-letter log,
see :mod:`repro.serving.faults`), and journalled registrations for
durable resume; :class:`~repro.serving.server.QueryServer` wraps it in
an asyncio ingest loop with a hardened HTTP control/metrics plane and
graceful drain.  ``repro.deploy.deploy(ExecTarget(serve=True))`` builds
the engine, and :func:`~repro.serving.server.resume_serving` resumes a
crashed serve into a fresh one built the same way.
"""

from repro.serving.faults import (
    BreakerConfig,
    CircuitBreaker,
    DeadLetter,
    DeadLetterLog,
)
from repro.serving.server import (
    DRAIN_EXIT_CODE,
    HttpLimits,
    QueryServer,
    ServedQuery,
    ServingUnavailableError,
    StandingQueryEngine,
    TenantQuota,
    UnknownQueryError,
    drive,
    resume_serving,
)
from repro.serving.sharing import ShareSignature, share_signature

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "DRAIN_EXIT_CODE",
    "DeadLetter",
    "DeadLetterLog",
    "HttpLimits",
    "QueryServer",
    "ServedQuery",
    "ServingUnavailableError",
    "ShareSignature",
    "StandingQueryEngine",
    "TenantQuota",
    "UnknownQueryError",
    "drive",
    "resume_serving",
    "share_signature",
]
