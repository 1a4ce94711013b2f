"""Analytic cost model from the paper's §5.2 response-time analysis.

The paper predicts the response-time difference between pessimistic and
locally optimistic logging as::

    Δresponse = 2·TF2 + TF3 − max(TF3, TM + TF3) − TDV
              = 2·TF2 − TM − TDV

where ``TFn`` is the time to flush n sectors, ``TM`` the message round
trip between the MSPs and ``TDV`` the dependency-tracking overhead.
This module evaluates those formulas against the same
:class:`~repro.storage.disk.DiskModel` the simulator uses, so the
simulation and the paper's closed-form analysis can be cross-checked
(see ``tests/workloads/test_calibration.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import COSTS
from repro.net.network import DEFAULT_BANDWIDTH_BYTES_PER_MS
from repro.storage import DiskModel
from repro.workloads.paper import CLIENT_LINK_LATENCY_MS, MSP_LINK_LATENCY_MS


@dataclass(frozen=True)
class AnalyticModel:
    """Closed-form §5.2 estimates for the Fig. 13 workload."""

    disk: DiskModel = field(default_factory=DiskModel)

    # -- §5.2 primitives ----------------------------------------------------

    def tf(self, sectors: int) -> float:
        """Expected flush time of ``sectors`` sectors (amortized seeks)."""
        return self.disk.expected_write_time_ms(sectors)

    def message_round_ms(self, payload_bytes: int = 300) -> float:
        """MSP-to-MSP round trip incl. protocol-stack CPU (paper: 3.596)."""
        transfer = payload_bytes / DEFAULT_BANDWIDTH_BYTES_PER_MS
        network = 2 * (MSP_LINK_LATENCY_MS + transfer)
        stacks = 4 * COSTS.message_stack_ms
        dispatch = COSTS.request_dispatch_ms
        return network + stacks + dispatch

    def client_round_ms(self, payload_bytes: int = 300) -> float:
        """Client-to-MSP round trip (paper: 3.9 ms)."""
        transfer = payload_bytes / DEFAULT_BANDWIDTH_BYTES_PER_MS
        network = 2 * (CLIENT_LINK_LATENCY_MS + transfer)
        return network + 2 * COSTS.client_stack_ms

    def tdv_ms(self, dv_operations: int = 6) -> float:
        """Dependency-tracking overhead per request."""
        return dv_operations * COSTS.dv_track_ms

    # -- §5.2 composite predictions --------------------------------------------

    def pessimistic_flush_span_ms(self) -> float:
        """Three sequential flushes: 2 + 3 + 2 sectors (paper §5.2)."""
        return self.tf(2) + self.tf(3) + self.tf(2)

    def looptimistic_flush_span_ms(self) -> float:
        """One distributed flush: max of the local 3-sector flush and the
        remote round + remote 3-sector flush, in parallel."""
        local = self.tf(3)
        remote = self.message_round_ms() + self.tf(3)
        return max(local, remote)

    def delta_response_ms(self) -> float:
        """The paper's Δresponse = 2·TF2 − TM − TDV (for m=1).

        The paper evaluates this at 12.404 ms with its crude TF2 = 8 ms
        estimate and measures 10.481 ms.
        """
        return 2 * self.tf(2) - self.message_round_ms() - self.tdv_ms()

    def delta_response_vs_m(self, m: int) -> float:
        """§5.2: with m calls, the difference grows ~ 2·m·TF − TM − TDV."""
        return 2 * m * self.tf(2) - self.message_round_ms() - self.tdv_ms()

    def recovery_read_ms_per_mb(self) -> float:
        """Sequential 64 KB recovery reads; paper: ~370 ms per MB."""
        per_chunk = self.disk.read_time_ms(128, sequential=True)
        return per_chunk * (1024 * 1024 / (64 * 1024))
