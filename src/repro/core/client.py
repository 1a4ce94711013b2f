"""End-client runtime (paper §2.1, §3.1, §5.4).

End clients live outside every service domain.  The client half of the
exactly-once protocol: per session a *next available request sequence
number*, resend of the same request until its reply arrives, filtering
of duplicate replies, and the 100 ms sleep-and-resend when the server
answers "busy" because it is checkpointing or recovering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import COSTS
from repro.core.messages import Reply, Request
from repro.net import Network
from repro.sim import Resource, SimTimeoutError, Simulator


@dataclass
class CallResult:
    """Outcome of one exactly-once client call."""

    payload: bytes
    response_time_ms: float
    attempts: int = 1
    busy_retries: int = 0
    #: True when the server permanently rejected the request (unknown
    #: method); retrying would not help.
    error: bool = False


@dataclass
class ClientStats:
    calls: int = 0
    resends: int = 0
    busy_retries: int = 0
    duplicate_replies: int = 0
    total_response_ms: float = 0.0
    response_times: list = field(default_factory=list)

    @property
    def mean_response_ms(self) -> float:
        return self.total_response_ms / self.calls if self.calls else 0.0

    @property
    def max_response_ms(self) -> float:
        return max(self.response_times) if self.response_times else 0.0


class EndClient:
    """A client machine hosting one or more client sessions."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        resend_timeout_ms: float = 100.0,
        busy_sleep_ms: float = 100.0,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.node = network.node(name)
        self.resend_timeout_ms = resend_timeout_ms
        self.busy_sleep_ms = busy_sleep_ms
        self.cpu = Resource(sim, capacity=1, name=f"cpu.{name}")
        self.stats = ClientStats()
        self._session_ids = itertools.count()

    def open_session(self, msp_name: str, session_id: Optional[str] = None) -> "ClientSession":
        """Start a session with ``msp_name`` (started lazily by the
        first request, as in the paper)."""
        if session_id is None:
            session_id = f"{self.name}#{next(self._session_ids)}"
        return ClientSession(self, msp_name, session_id)


class ClientSession:
    """The client side of one session: sequence numbers and resends."""

    def __init__(self, client: EndClient, msp_name: str, session_id: str):
        self.client = client
        self.msp_name = msp_name
        self.id = session_id
        self.next_seq = 0
        self._reply_port = f"reply:{session_id}"
        self._inbox = client.node.bind(self._reply_port)

    def call(self, method: str, argument: bytes):
        """Invoke ``method`` exactly once (generator; returns CallResult)."""
        result = yield from self._exchange(method, argument, end_session=False)
        return result

    def end(self):
        """End the session at the server (generator; returns CallResult)."""
        result = yield from self._exchange("", b"", end_session=True)
        self.client.node.unbind(self._reply_port)
        return result

    def _exchange(self, method: str, argument: bytes, end_session: bool):
        client = self.client
        sim = client.sim
        seq = self.next_seq
        request = Request(
            session_id=self.id,
            seq=seq,
            method=method,
            argument=bytes(argument),
            reply_to=client.name,
            reply_port=self._reply_port,
            end_session=end_session,
        )
        started_at = sim.now
        attempts = 0
        busy_retries = 0
        while True:
            attempts += 1
            yield from client.cpu.hold(COSTS.client_stack_ms)
            client.node.send(
                self.msp_name, "request", request, request.wire_size()
            )
            reply = yield from self._await_reply(seq)
            if reply is None:
                client.stats.resends += 1
                continue
            if reply.busy:
                # Paper §5.4: "it sleeps for 100 ms and resends".
                busy_retries += 1
                client.stats.busy_retries += 1
                yield client.busy_sleep_ms
                continue
            break  # definitive reply (success or permanent error)
        self.next_seq = seq + 1
        elapsed = sim.now - started_at
        client.stats.calls += 1
        client.stats.total_response_ms += elapsed
        client.stats.response_times.append(elapsed)
        return CallResult(
            payload=reply.payload,
            response_time_ms=elapsed,
            attempts=attempts,
            busy_retries=busy_retries,
            error=reply.error,
        )

    def _await_reply(self, seq: int):
        """Wait up to the resend timeout for the reply to ``seq``.

        Stale duplicate replies are drained without resending (resending
        on every stale reply can outpace the drain and livelock under
        network duplication).  Returns the reply or None on timeout.
        """
        client = self.client
        deadline = client.sim.now + client.resend_timeout_ms
        while True:
            remaining = deadline - client.sim.now
            if remaining <= 0:
                return None
            try:
                envelope = yield from self._inbox.get_with_timeout(remaining)
            except SimTimeoutError:
                return None
            reply: Reply = envelope.payload
            if reply.seq != seq:
                client.stats.duplicate_replies += 1
                continue
            return reply
