"""``repro.gateway`` — multi-tenant admission over the service stack.

The traffic-shaping contract between the HTTP server and the spool
workers, which none of the existing layers own:

* :mod:`~repro.gateway.tenants` — API-key → tenant resolution
  (constant-time compare, file-backed config, SIGHUP hot reload);
* :mod:`~repro.gateway.quota` — per-tenant token bucket, in-flight and
  spool-byte budgets (→ 429 + Retry-After);
* :mod:`~repro.gateway.idempotency` — per-tenant idempotency keys on
  ``POST /jobs`` (replay returns the original job, exactly once under
  concurrent duplicates);
* :mod:`~repro.gateway.admission` — the :class:`Gateway` tying those
  together and stamping each job's spool key with a weighted
  fair-share tag, so a heavy tenant cannot starve a light one.

The package is stdlib-only (plus :mod:`repro.obs`) and takes its
stores by injection, so ``repro.service`` can import it at module
scope without a cycle.
"""

from .admission import Admission, Gateway
from .idempotency import IdempotencyConflict, IdempotencyStore
from .quota import QuotaExceeded, TokenBucket
from .tenants import (
    AuthError,
    ForbiddenError,
    PUBLIC_TENANT,
    TenantDirectory,
    TenantSpec,
)

__all__ = [
    "Admission",
    "AuthError",
    "ForbiddenError",
    "Gateway",
    "IdempotencyConflict",
    "IdempotencyStore",
    "PUBLIC_TENANT",
    "QuotaExceeded",
    "TenantDirectory",
    "TenantSpec",
    "TokenBucket",
]
