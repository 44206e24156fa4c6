"""Clients for the serving daemon: synchronous and asyncio flavours.

:class:`ServeClient` (sync, used by the ``repro submit`` / ``repro jobs``
/ ``repro cancel`` CLI family) and :class:`AsyncServeClient` speak the
same newline-delimited JSON protocol over a unix socket or TCP.  Each
operation opens a fresh connection -- the daemon is local, connections
are cheap, and it keeps both clients trivially thread-safe.

Results come back as :class:`JobResult`: the terminal status, the run's
canonical persisted dict (``raw_run`` -- byte-identical to
``run_result_to_dict`` of the same config run in-process, the daemon's
determinism contract) and a reconstructed
:class:`~repro.metrics.timing.RunResult` via :meth:`JobResult.result`.
Typed protocol errors re-raise client-side as their
:mod:`repro.serve.protocol` exception classes.
"""

from __future__ import annotations

import asyncio
import os
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .jobs import JobSpec
from .protocol import (
    MAX_MESSAGE_BYTES,
    ServeError,
    decode_message,
    encode_message,
    raise_for_error,
)
from .server import default_socket_path
from .wire import spec_to_payload

__all__ = ["JobResult", "ServeClient", "AsyncServeClient"]


@dataclass
class JobResult:
    """Terminal outcome of one daemon job."""

    job_id: str
    status: str  # "done" | "failed" | "cancelled"
    cached: bool = False
    #: the persisted RunResult dict exactly as streamed (run jobs)
    raw_run: Optional[Dict[str, Any]] = None
    #: per-child entries of a sweep job, in submission order
    runs: Optional[List[Dict[str, Any]]] = None
    error: Optional[Dict[str, str]] = None
    #: every non-terminal event observed while waiting (started/partial)
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "done"

    def result(self):
        """The run as a :class:`RunResult` (events summarised away, like
        any persisted result).  Raises on failed/cancelled jobs."""
        if self.raw_run is None:
            raise ServeError(
                f"job {self.job_id} has no run result (status {self.status!r})"
            )
        from ..harness.persist import run_result_from_dict

        return run_result_from_dict(self.raw_run)

    def raise_for_status(self) -> "JobResult":
        """Raise the job's typed error unless it finished ``done``."""
        if self.status == "done":
            return self
        if self.error is not None:
            raise_for_error(self.error)
        raise ServeError(f"job {self.job_id} ended {self.status}")


def _collect(job_id: str, events: Iterator[Dict[str, Any]]) -> JobResult:
    """Fold a job's event stream into its :class:`JobResult`."""
    seen: List[Dict[str, Any]] = []
    for event in events:
        kind = event.get("event")
        if kind == "error":
            raise_for_error(event.get("error", {}))
        if kind == "done":
            return JobResult(
                job_id=event.get("job_id", job_id),
                status=event.get("status", "failed"),
                cached=bool(event.get("cached")),
                raw_run=event.get("run"),
                runs=event.get("runs"),
                error=event.get("error"),
                events=seen,
            )
        seen.append(event)
    raise ServeError(f"connection closed while waiting for job {job_id}")


def _default_client_name() -> str:
    return f"pid-{os.getpid()}"


class ServeClient:
    """Blocking client; every call is one connection round trip."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 timeout: Optional[float] = None,
                 client_name: Optional[str] = None) -> None:
        self.socket_path = socket_path
        self.host = host
        self.port = port
        if host is None and socket_path is None:
            self.socket_path = default_socket_path()
        self.timeout = timeout
        self.client_name = client_name or _default_client_name()

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.host is not None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            except OSError:
                sock.close()
                raise
        return sock

    def _events(self, request: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Send one request; yield reply events until the peer closes or
        the caller stops consuming."""
        with self._connect() as sock:
            with sock.makefile("rwb") as stream:
                stream.write(encode_message(request))
                stream.flush()
                while True:
                    line = stream.readline(MAX_MESSAGE_BYTES)
                    if not line:
                        return
                    yield decode_message(line)

    def _one(self, request: Dict[str, Any],
             expected: str) -> Dict[str, Any]:
        for event in self._events(request):
            if event.get("event") == "error":
                raise_for_error(event.get("error", {}))
            if event.get("event") == expected:
                return event
            raise ServeError(f"unexpected reply {event.get('event')!r}")
        raise ServeError("connection closed without a reply")

    # -- operations --------------------------------------------------------

    def submit(self, config, scheme: str = "distributed", *,
               priority: int = 0, use_cache: bool = True,
               trace_spans: bool = False, wait: bool = True):
        """Submit one run job.

        ``wait=True`` blocks through the job's event stream and returns
        its :class:`JobResult`; ``wait=False`` returns the assigned job id
        immediately (attach later with :meth:`wait`).  Typed rejections
        (``queue_full``, ``shutting_down``, ``malformed``) raise.
        """
        spec = JobSpec(kind="run", config=config, scheme=scheme,
                       priority=priority, use_cache=use_cache,
                       trace_spans=trace_spans)
        return self.submit_spec(spec, wait=wait)

    def submit_sweep(self, config, procs, schemes=("parallel", "distributed"),
                     *, priority: int = 0, use_cache: bool = True,
                     wait: bool = True):
        """Submit a sweep job fanning out over ``procs`` x ``schemes``."""
        spec = JobSpec(kind="sweep", config=config, scheme=schemes[0],
                       priority=priority, use_cache=use_cache,
                       procs=tuple(procs), schemes=tuple(schemes))
        return self.submit_spec(spec, wait=wait)

    def submit_spec(self, spec: JobSpec, *, wait: bool = True):
        request = {"op": "submit", "job": spec_to_payload(spec),
                   "client": self.client_name, "wait": wait}
        events = self._events(request)
        first = next(events, None)
        if first is None:
            raise ServeError("connection closed without a reply")
        if first.get("event") == "rejected":
            raise_for_error(first.get("error", {}))
        if first.get("event") != "accepted":
            raise ServeError(f"unexpected reply {first.get('event')!r}")
        job_id = first["job_id"]
        if not wait:
            return job_id
        return _collect(job_id, events)

    def wait(self, job_id: str) -> JobResult:
        """Attach to a job (running or finished) and return its result."""
        return _collect(job_id, self._events({"op": "wait", "job_id": job_id}))

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's status after the request
        (``"cancelling"`` while a running worker is being stopped)."""
        event = self._one({"op": "cancel", "job_id": job_id}, "cancelled")
        return event["status"]

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the server knows, as listing dicts."""
        return self._one({"op": "jobs"}, "jobs")["jobs"]

    def state(self) -> Dict[str, Any]:
        """Queue/worker occupancy, job counts, Prometheus metrics text."""
        return self._one({"op": "state"}, "state")

    def metrics_text(self) -> str:
        """The server's live metrics in Prometheus exposition text."""
        return self.state()["metrics_text"]

    def spans(self) -> Dict[str, Any]:
        """Chrome trace-event payload of every traced job (one track per
        job -- stacked Perfetto timelines)."""
        return self._one({"op": "spans"}, "spans")["trace"]

    def shutdown(self, force: bool = False) -> None:
        """Ask the daemon to drain (or force-cancel) and exit."""
        self._one({"op": "shutdown", "force": force}, "shutting-down")


class AsyncServeClient:
    """Asyncio client with the same surface as :class:`ServeClient`."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 client_name: Optional[str] = None) -> None:
        self.socket_path = socket_path
        self.host = host
        self.port = port
        if host is None and socket_path is None:
            self.socket_path = default_socket_path()
        self.client_name = client_name or _default_client_name()

    async def _open(self):
        if self.host is not None:
            return await asyncio.open_connection(self.host, self.port,
                                                 limit=MAX_MESSAGE_BYTES)
        return await asyncio.open_unix_connection(self.socket_path,
                                                  limit=MAX_MESSAGE_BYTES)

    async def _events(self, request: Dict[str, Any]):
        reader, writer = await self._open()
        try:
            writer.write(encode_message(request))
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    return
                yield decode_message(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _one(self, request: Dict[str, Any], expected: str) -> Dict[str, Any]:
        async for event in self._events(request):
            if event.get("event") == "error":
                raise_for_error(event.get("error", {}))
            if event.get("event") == expected:
                return event
            raise ServeError(f"unexpected reply {event.get('event')!r}")
        raise ServeError("connection closed without a reply")

    async def submit(self, config, scheme: str = "distributed", *,
                     priority: int = 0, use_cache: bool = True,
                     trace_spans: bool = False, wait: bool = True):
        spec = JobSpec(kind="run", config=config, scheme=scheme,
                       priority=priority, use_cache=use_cache,
                       trace_spans=trace_spans)
        return await self.submit_spec(spec, wait=wait)

    async def submit_spec(self, spec: JobSpec, *, wait: bool = True):
        request = {"op": "submit", "job": spec_to_payload(spec),
                   "client": self.client_name, "wait": wait}
        events = self._events(request)
        first = None
        async for event in events:
            first = event
            break
        if first is None:
            raise ServeError("connection closed without a reply")
        if first.get("event") == "rejected":
            raise_for_error(first.get("error", {}))
        if first.get("event") != "accepted":
            raise ServeError(f"unexpected reply {first.get('event')!r}")
        job_id = first["job_id"]
        if not wait:
            return job_id
        seen: List[Dict[str, Any]] = []
        async for event in events:
            kind = event.get("event")
            if kind == "error":
                raise_for_error(event.get("error", {}))
            if kind == "done":
                return JobResult(
                    job_id=event.get("job_id", job_id),
                    status=event.get("status", "failed"),
                    cached=bool(event.get("cached")),
                    raw_run=event.get("run"),
                    runs=event.get("runs"),
                    error=event.get("error"),
                    events=seen,
                )
            seen.append(event)
        raise ServeError(f"connection closed while waiting for job {job_id}")

    async def wait(self, job_id: str) -> JobResult:
        seen: List[Dict[str, Any]] = []
        async for event in self._events({"op": "wait", "job_id": job_id}):
            kind = event.get("event")
            if kind == "error":
                raise_for_error(event.get("error", {}))
            if kind == "done":
                return JobResult(
                    job_id=event.get("job_id", job_id),
                    status=event.get("status", "failed"),
                    cached=bool(event.get("cached")),
                    raw_run=event.get("run"),
                    runs=event.get("runs"),
                    error=event.get("error"),
                    events=seen,
                )
            seen.append(event)
        raise ServeError(f"connection closed while waiting for job {job_id}")

    async def cancel(self, job_id: str) -> str:
        event = await self._one({"op": "cancel", "job_id": job_id}, "cancelled")
        return event["status"]

    async def jobs(self) -> List[Dict[str, Any]]:
        return (await self._one({"op": "jobs"}, "jobs"))["jobs"]

    async def state(self) -> Dict[str, Any]:
        return await self._one({"op": "state"}, "state")

    async def spans(self) -> Dict[str, Any]:
        return (await self._one({"op": "spans"}, "spans"))["trace"]

    async def shutdown(self, force: bool = False) -> None:
        await self._one({"op": "shutdown", "force": force}, "shutting-down")
