"""Tenant identity: API-key resolution over a file-backed directory.

The directory is a JSON file mapping tenant names to API keys, weights
and quotas (see :data:`EXAMPLE_CONFIG` / README "Multi-tenancy &
operations").  Two properties matter operationally:

* **Constant-time key comparison.**  ``resolve`` compares the presented
  key against *every* configured tenant with :func:`hmac.compare_digest`
  and never returns early on mismatch, so response timing leaks neither
  key bytes nor which tenant a probe grazed.
* **SIGHUP hot-reload.**  ``install_sighup`` re-reads the file on
  SIGHUP without dropping a request: the parsed tenant table is swapped
  atomically under a lock, and a file that fails to parse keeps the
  previous table (rejecting all traffic because of a typo'd rollout
  would be worse than serving one config behind).

With no file configured the directory is **open**: every request —
keyed or not — resolves to the built-in unlimited ``public`` tenant,
preserving the service's original trust-everyone behavior for local
and test use.
"""

from __future__ import annotations

import hmac
import json
import re
import signal
import threading
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "AuthError",
    "ForbiddenError",
    "TenantSpec",
    "TenantDirectory",
    "PUBLIC_TENANT",
]

#: Tenant names become path components (idempotency store) and metric
#: label values, so the charset is restricted up front.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

EXAMPLE_CONFIG = """\
{
  "tenants": {
    "acme": {"api_key": "acme-secret", "weight": 4, "max_in_flight": 8,
             "rate": 20, "burst": 40, "spool_bytes": 8388608},
    "guest": {"api_key": "guest-secret"}
  }
}
"""


class AuthError(RuntimeError):
    """No/unrecognized API key (HTTP 401)."""


class ForbiddenError(RuntimeError):
    """A valid key whose tenant is disabled (HTTP 403)."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity, weight and quota budget.

    Quota semantics (0 = unlimited everywhere):

    ``weight``
        fair-share weight: a job advances the tenant's spool tag by
        ``TICK / weight`` (:mod:`repro.gateway.admission`);
    ``max_in_flight``
        jobs admitted but not yet terminal (spool + running);
    ``rate`` / ``burst``
        requests-per-second token bucket over *all* ``POST /jobs``
        traffic, cache hits and replays included;
    ``spool_bytes``
        total serialized payload bytes of the tenant's in-flight jobs.
    """

    name: str
    api_key: str = ""
    weight: float = 1.0
    max_in_flight: int = 0
    rate: float = 0.0
    burst: float = 0.0
    spool_bytes: int = 0
    enabled: bool = True


#: What every request resolves to when the directory runs open.
PUBLIC_TENANT = TenantSpec(name="public")

_SPEC_FIELDS = {
    "api_key", "weight", "max_in_flight", "rate", "burst", "spool_bytes",
    "enabled",
}


def _parse_config(payload: dict) -> dict[str, TenantSpec]:
    if not isinstance(payload, dict) or not isinstance(payload.get("tenants"), dict):
        raise ValueError('tenant config must be {"tenants": {name: {...}}}')
    tenants: dict[str, TenantSpec] = {}
    for name, raw in payload["tenants"].items():
        if not _NAME_RE.match(name):
            raise ValueError(f"bad tenant name {name!r} (letters/digits/._- only)")
        if not isinstance(raw, dict):
            raise ValueError(f"tenant {name!r}: expected an object")
        unknown = set(raw) - _SPEC_FIELDS
        if unknown:
            raise ValueError(f"tenant {name!r}: unknown fields {sorted(unknown)}")
        spec = replace(TenantSpec(name=name), **raw)
        if not spec.api_key or not isinstance(spec.api_key, str):
            raise ValueError(f"tenant {name!r}: api_key must be a non-empty string")
        if spec.weight <= 0:
            raise ValueError(f"tenant {name!r}: weight must be positive")
        if min(spec.max_in_flight, spec.rate, spec.burst, spec.spool_bytes) < 0:
            raise ValueError(f"tenant {name!r}: quotas must be >= 0")
        tenants[name] = spec
    if not tenants:
        raise ValueError("tenant config names no tenants")
    keys = [t.api_key for t in tenants.values()]
    if len(set(keys)) != len(keys):
        raise ValueError("two tenants share an api_key")
    return tenants


class TenantDirectory:
    """Thread-safe API-key → :class:`TenantSpec` resolution."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantSpec] = {}
        self.reloads = 0
        self.reload_errors = 0
        if self.path is not None:
            # Initial load fails fast: a service must not start open
            # because its tenant file is broken.
            self._tenants = _parse_config(
                json.loads(self.path.read_text(encoding="utf-8"))
            )

    @property
    def open(self) -> bool:
        """True when no tenant file is configured (trust-everyone mode)."""
        return self.path is None

    def resolve(self, api_key: str | None) -> TenantSpec:
        """The tenant owning ``api_key``.

        Raises :class:`AuthError` for a missing/unknown key and
        :class:`ForbiddenError` for a disabled tenant.  The comparison
        loop always visits every tenant — no early exit on match.
        """
        if self.open:
            return PUBLIC_TENANT
        if not api_key:
            raise AuthError("missing API key")
        with self._lock:
            tenants = list(self._tenants.values())
        matched: TenantSpec | None = None
        for tenant in tenants:
            if hmac.compare_digest(
                tenant.api_key.encode("utf-8"), api_key.encode("utf-8")
            ):
                matched = tenant
        if matched is None:
            raise AuthError("unrecognized API key")
        if not matched.enabled:
            raise ForbiddenError(f"tenant {matched.name!r} is disabled")
        return matched

    def get(self, name: str) -> TenantSpec | None:
        with self._lock:
            return self._tenants.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def reload(self) -> bool:
        """Re-read the tenant file; on any error keep the current table."""
        if self.path is None:
            return False
        try:
            tenants = _parse_config(
                json.loads(self.path.read_text(encoding="utf-8"))
            )
        except (OSError, TypeError, ValueError) as exc:
            self.reload_errors += 1
            print(f"tenant reload failed (keeping previous config): {exc}", flush=True)
            return False
        with self._lock:
            self._tenants = tenants
        self.reloads += 1
        return True

    def install_sighup(self) -> bool:
        """Reload on SIGHUP; False where unsupported (non-POSIX / not main thread)."""
        if not hasattr(signal, "SIGHUP"):
            return False  # pragma: no cover - POSIX-only branch
        if threading.current_thread() is not threading.main_thread():
            return False
        signal.signal(signal.SIGHUP, lambda *_: self.reload())
        return True

    def snapshot(self) -> dict[str, dict]:
        """Quota/weight table for ``/stats`` — never includes API keys."""
        with self._lock:
            return {
                name: {
                    "weight": t.weight,
                    "max_in_flight": t.max_in_flight,
                    "rate": t.rate,
                    "burst": t.burst,
                    "spool_bytes": t.spool_bytes,
                    "enabled": t.enabled,
                }
                for name, t in sorted(self._tenants.items())
            }
