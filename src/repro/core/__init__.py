"""The paper's contribution: log-based recovery for middleware servers.

This package implements every mechanism of Wang, Salzberg & Lomet
(SIGMOD 2007): locally optimistic logging over service domains,
per-session dependency vectors, value logging for shared variables,
session / shared-variable / fuzzy MSP checkpointing, position streams,
distributed log flushes, orphan detection and recovery (with EOS records
and multi-crash handling), and parallel MSP crash recovery.

The top-level objects a user composes are:

- :class:`~repro.core.domain.ServiceDomainConfig` — which MSPs trust each
  other enough for optimistic logging.
- :class:`~repro.core.msp.MiddlewareServer` — a recoverable middleware
  server process hosting service methods.
- :class:`~repro.core.client.EndClient` — an end-client runtime with the
  resend-until-reply protocol.
- :class:`~repro.core.config.RecoveryConfig` — the per-MSP recovery
  settings (:data:`~repro.core.config.COSTS` holds the CPU costs).
"""

from repro.core.config import COSTS, CostModel, LoggingMode, RecoveryConfig
from repro.core.dv import DependencyVector, RecoveryTable, StateId
from repro.core.errors import (
    OrphanDetected,
    RecoveryError,
    ServiceBusy,
    SessionProtocolError,
)

__all__ = [
    "COSTS",
    "CostModel",
    "DependencyVector",
    "EndClient",
    "LoggingMode",
    "MiddlewareServer",
    "OrphanDetected",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryTable",
    "ServiceBusy",
    "ServiceDomainConfig",
    "SessionProtocolError",
    "StateId",
    "WarmStandby",
]


def __getattr__(name):
    """Lazy imports for the heavyweight modules (avoids import cycles)."""
    if name == "MiddlewareServer":
        from repro.core.msp import MiddlewareServer

        return MiddlewareServer
    if name == "EndClient":
        from repro.core.client import EndClient

        return EndClient
    if name == "ServiceDomainConfig":
        from repro.core.domain import ServiceDomainConfig

        return ServiceDomainConfig
    if name == "WarmStandby":
        from repro.core.standby import WarmStandby

        return WarmStandby
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
