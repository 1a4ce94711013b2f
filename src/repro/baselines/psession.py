"""The Psession baseline: DB-persisted session state (paper §5.2).

"Configuration Psession provides persistent sessions via the web server
storing session states inside a local DBMS.  When a request is
processed, the session state is fetched from the database, and after
processing, the session state is written back. ... Psession takes a
session checkpoint after every request and requires two database
transactions (read and write) at both MSPs for each request.  This is
very costly."

Session state *is* recovered after a crash (it lives in the DB), but
there is no exactly-once guarantee and no shared-state recovery — the
limitations the paper's log-based approach removes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import COSTS, LoggingMode, RecoveryConfig
from repro.core.msp import MiddlewareServer
from repro.core.records import VARIABLES
from repro.core.session import Session
from repro.db import KVStore

#: A session's variables as Psession and StateServer persist them: the
#: session checkpoint's ``variables`` field.
encode_variables = VARIABLES.write


def decode_variables(blob: bytes) -> dict[str, bytes]:
    return VARIABLES.read(blob, 0)[0]


class PsessionServer(MiddlewareServer):
    """An MSP whose sessions are persisted in a local WAL'd KV store."""

    def __init__(self, *args, **kwargs):
        config: Optional[RecoveryConfig] = kwargs.get("config")
        if config is None:
            config = RecoveryConfig()
            kwargs["config"] = config
        config.mode = LoggingMode.NOLOG  # no log-based recovery
        super().__init__(*args, **kwargs)
        # The DBMS shares the server's disk and CPU (it is "a local
        # DBMS" on the web server machine).
        self.db = KVStore(
            self.sim,
            self.disk,
            name=f"db.{self.name}",
            txn_cpu_ms=COSTS.db_txn_cpu_ms,
            cpu=self._cpu,
            disk_reads=True,
        )
        #: Sessions whose state was already loaded since the last crash.
        self._loaded: set[str] = set()

    def crash(self) -> None:
        super().crash()
        self.db.crash()
        self._loaded = set()

    def start(self):
        started = self.running
        if not started and self.db.wal.durable_end > 0:
            yield from self.db.recover()
        yield from super().start()

    def _before_method(self, session: Session):
        """Fetch session state from the database (one read txn)."""
        txn = self.db.begin()
        blob = yield from txn.read(session.id)
        yield from txn.commit()
        if blob is not None and session.id not in self._loaded:
            session.variables = decode_variables(blob)
        self._loaded.add(session.id)

    def _after_method(self, session: Session):
        """Write session state back (one write txn with a log force)."""
        txn = self.db.begin()
        yield from txn.write(session.id, encode_variables(session.variables))
        yield from txn.commit()
