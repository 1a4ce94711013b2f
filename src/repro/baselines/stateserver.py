"""The StateServer baseline: remote in-memory session state (§5.2).

"In configuration StateServer, session states are stored in-memory at a
state server on a different computer. ... StateServer has a much
shorter response time, but session states are not persistent and will
not be recovered if the state server crashes."

Around every request the MSP fetches the full session state from the
state server and stores it back afterwards — two RPCs moving the whole
(8 KB in the paper's workload) state across the network.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.baselines.psession import decode_variables, encode_variables
from repro.core.config import COSTS, LoggingMode, RecoveryConfig
from repro.core.msp import MiddlewareServer
from repro.core.session import Session
from repro.net import Network
from repro.sim import ProcessGroup, Resource, SimTimeoutError, Simulator

_req_ids = itertools.count(1)

#: Fixed protocol overhead per state-server message.
_HEADER = 120


@dataclass
class StateGet:
    session_id: str
    reply_to: str
    reply_port: str
    req_id: int

    def wire_size(self) -> int:
        return _HEADER


@dataclass
class StateGetReply:
    req_id: int
    blob: Optional[bytes]

    def wire_size(self) -> int:
        return _HEADER + (len(self.blob) if self.blob else 0)


@dataclass
class StatePut:
    session_id: str
    blob: bytes
    reply_to: str
    reply_port: str
    req_id: int

    def wire_size(self) -> int:
        return _HEADER + len(self.blob)


@dataclass
class StatePutAck:
    req_id: int

    def wire_size(self) -> int:
        return _HEADER


class StateServerNode:
    """The state server: an in-memory session store on its own node."""

    def __init__(self, sim: Simulator, network: Network, name: str = "stateserver",
                 handle_cpu_ms: float = 0.08):
        self.sim = sim
        self.network = network
        self.name = name
        self.node = network.node(name)
        self.handle_cpu_ms = handle_cpu_ms
        self.cpu = Resource(sim, capacity=2, name=f"cpu.{name}")
        self._states: dict[str, bytes] = {}
        self.group: Optional[ProcessGroup] = None

    def start(self) -> None:
        self.group = ProcessGroup(self.name)
        self.sim.spawn(self._serve(), name=f"{self.name}.serve", group=self.group)

    def crash(self) -> None:
        """All session states are lost — not persistent, as the paper
        notes; this is the baseline's weakness."""
        if self.group is not None:
            self.group.kill_all()
        self.node.unbind_all()
        self._states = {}

    def _serve(self):
        inbox = self.node.bind("state")
        while True:
            envelope = yield from inbox.get()
            message = envelope.payload
            yield from self.cpu.hold(self.handle_cpu_ms)
            if isinstance(message, StateGet):
                reply = StateGetReply(
                    req_id=message.req_id, blob=self._states.get(message.session_id)
                )
                self.node.send(message.reply_to, message.reply_port, reply, reply.wire_size())
            elif isinstance(message, StatePut):
                self._states[message.session_id] = message.blob
                ack = StatePutAck(req_id=message.req_id)
                self.node.send(message.reply_to, message.reply_port, ack, ack.wire_size())


class StateServerServer(MiddlewareServer):
    """An MSP whose sessions live on a remote state server."""

    def __init__(self, *args, state_server: str = "stateserver", **kwargs):
        config: Optional[RecoveryConfig] = kwargs.get("config")
        if config is None:
            config = RecoveryConfig()
            kwargs["config"] = config
        config.mode = LoggingMode.NOLOG
        super().__init__(*args, **kwargs)
        self.state_server = state_server
        self._loaded: set[str] = set()

    def crash(self) -> None:
        super().crash()
        self._loaded = set()

    def _state_rpc(self, build_message):
        """One reliable RPC to the state server (generator)."""
        req_id = next(_req_ids)
        port = f"state-ack:{self.name}:{req_id}"
        inbox = self.node.bind(port)
        message = build_message(req_id, port)
        try:
            while True:
                yield from self.cpu(COSTS.state_stack_ms)
                self.send(self.state_server, "state", message)
                try:
                    envelope = yield from inbox.get_with_timeout(100.0)
                except SimTimeoutError:
                    continue  # state server briefly unavailable: retry
                yield from self.cpu(COSTS.state_stack_ms)
                return envelope.payload
        finally:
            self.node.unbind(port)

    def _before_method(self, session: Session):
        """Fetch the full session state from the state server."""
        yield from self.cpu(COSTS.state_serialize_ms)
        reply = yield from self._state_rpc(
            lambda req_id, port: StateGet(
                session_id=session.id, reply_to=self.name, reply_port=port, req_id=req_id
            )
        )
        if reply.blob is not None and session.id not in self._loaded:
            session.variables = decode_variables(reply.blob)
        self._loaded.add(session.id)

    def _after_method(self, session: Session):
        """Store the full session state back."""
        yield from self.cpu(COSTS.state_serialize_ms)
        blob = encode_variables(session.variables)
        yield from self._state_rpc(
            lambda req_id, port: StatePut(
                session_id=session.id,
                blob=blob,
                reply_to=self.name,
                reply_port=port,
                req_id=req_id,
            )
        )
