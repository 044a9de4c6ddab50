"""Client side of the serving daemon: sockets in, identifiers out.

Three layers, thinnest first:

* :class:`DaemonClient` — one persistent connection to a running
  :mod:`repro.store.daemon`, speaking the length-prefixed JSON protocol
  of :mod:`repro.store.wire`.  Survives daemon hot reloads by
  transparently reconnecting once per request.
* :class:`RemoteIdentifier` — adapts a :class:`DaemonClient` to the
  :class:`~repro.core.pipeline.IdentifierBase` surface, so anything that
  consumes an identifier (the focused crawler, ``evaluate``, the CLI)
  can point at a daemon instead of loading weights into its own
  process.
* :func:`resolve_serving_handle` — deprecated shim over
  :func:`repro.api.open_model`, which is how ``repro://<socket-path>``
  handle strings resolve everywhere now (the CLI, the crawler, the
  examples all go through the facade).

Error taxonomy: :class:`DaemonUnavailableError` means nothing answered
(daemon not started, crashed, or wrong socket path) — callers may retry
or fall back to loading the artifact themselves.
:class:`DaemonRequestError` means a live daemon *refused* the request
and carries the protocol error ``code``.  Refusals in
:data:`~repro.store.wire.RETRYABLE_CODES` (``overloaded``,
``shutting-down``) are retried *inside* the client by its
:class:`RetryPolicy` before this error ever surfaces — so by the time a
caller sees it, the retry budget is spent and looping further is
pointless.
"""

from __future__ import annotations

import os
import random
import socket
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.resolver import daemon_socket_path, is_daemon_handle
from repro.core.pipeline import IdentifierBase
from repro.core.scored import ScoredBatch, ServedUrl
from repro.languages import Language
from repro.obs.trace import start_trace
from repro.store.wire import (
    MAX_CORRELATION_ID,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ConnectionClosed,
    WireError,
    encode_frame,
    read_frame_async,
    recv_frame_ex,
    send_message,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    import asyncio

#: Operations safe to replay: pure reads whose repetition cannot change
#: daemon state.  ``reload`` and ``stop`` are excluded — replaying a
#: mutation after an ambiguous failure could act twice.
IDEMPOTENT_OPS = frozenset(
    {"ping", "status", "classify", "score", "decisions", "traces"}
)

#: Scheme prefix of daemon handle strings (``repro://<socket-path>``);
#: canonical form lives in :data:`repro.api.DAEMON_SCHEME`.
HANDLE_SCHEME = "repro://"


class DaemonError(Exception):
    """Base class for every daemon-client failure."""


class DaemonUnavailableError(DaemonError):
    """No daemon answered on the socket (not started, crashed, or a
    stale path).  Start one with ``repro serve start`` or fall back to
    :func:`repro.store.load_identifier`."""


class DaemonRequestError(DaemonError):
    """A live daemon refused the request.

    ``code`` is one of :data:`repro.store.wire.ERROR_CODES`; retrying
    the identical request will fail identically, so callers should fix
    the request (or the deployment) instead of looping.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`DaemonClient` retries transient failures.

    Retries happen only for *idempotent* operations
    (:data:`IDEMPOTENT_OPS`), and only on transient failures: transport
    errors (the connection died — a crashed or hot-reload-retired
    worker) and refusals whose code is in
    :data:`~repro.store.wire.RETRYABLE_CODES`.  Terminal refusals
    (``bad-request``, ``deadline-exceeded``, …) surface immediately —
    replaying them could only fail identically.

    ``retries`` bounds the retry budget (total attempts = retries + 1).
    Delays grow exponentially from ``backoff`` up to ``backoff_max``,
    each scaled by a uniform jitter in [0.5, 1.0] so a fleet of clients
    bounced by one daemon restart does not retry in lockstep.

    ``deadline`` (seconds) is the end-to-end budget for one logical
    request across all its attempts.  It is also propagated to the
    daemon in the frame header, so the server can refuse or abandon
    work this client will no longer wait for.
    """

    retries: int = 4
    backoff: float = 0.05
    backoff_max: float = 2.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff <= 0 or self.backoff_max < self.backoff:
            raise ValueError("need 0 < backoff <= backoff_max")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive seconds")

    def delay(self, attempt: int) -> float:
        """Jittered sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
        return base * (0.5 + random.random() / 2)


def parse_handle(handle: str) -> str:
    """Socket path of a ``repro://`` handle string.

    Delegates to the one parser in :mod:`repro.api.resolver`
    (:func:`~repro.api.daemon_socket_path`).  Raises
    :class:`~repro.api.InvalidHandleError` (a ``ValueError``) for
    strings that do not carry the scheme or carry an empty path — use
    :func:`is_handle` to probe first.
    """
    return daemon_socket_path(handle)


def is_handle(value) -> bool:
    """True for ``repro://`` daemon handle strings (delegates to
    :func:`repro.api.is_daemon_handle`)."""
    return is_daemon_handle(value)


class DaemonClient:
    """One connection to a serving daemon, reconnecting across reloads.

    The connection is opened lazily on the first request and kept for
    the client's lifetime (a daemon worker serves any number of
    requests per connection).  Transient failures — a connection closed
    by a hot-reload handover or a crashed worker, a typed
    ``overloaded`` or ``shutting-down`` refusal — are retried on a
    fresh connection under the client's :class:`RetryPolicy` (jittered
    exponential backoff, idempotent operations only) before surfacing
    :class:`DaemonUnavailableError` / :class:`DaemonRequestError`.
    A daemon that was never there fails fast: connection *refusal* is
    not retried.

    Use as a context manager or call :meth:`close` when done::

        with DaemonClient("repro.sock") as client:
            rows = client.classify(["http://www.blumen.de/garten"])
    """

    def __init__(
        self,
        socket_path: "str | os.PathLike | tuple[str, int]",
        timeout: float = 30.0,
        protocol_version: int = PROTOCOL_VERSION,
        retry: RetryPolicy | None = None,
        tracing: bool = False,
    ) -> None:
        """``socket_path`` is a Unix socket path, or a ``(host, port)``
        tuple to dial a daemon's TCP front door instead.
        ``protocol_version`` exists so tests can provoke the daemon's
        version gate; production callers never pass it.  With
        ``tracing`` on, every request frame carries a fresh trace id
        (:data:`repro.store.wire.TRACE_FLAG`); the daemon echoes it on
        the response, records a per-stage span, and :attr:`last_trace`
        holds both sides' ids for correlation."""
        if isinstance(socket_path, tuple):
            host, port = socket_path
            self.socket_path: str | None = None
            self.tcp_address: tuple[str, int] | None = (str(host), int(port))
            self.endpoint = f"{host}:{port}"
        else:
            self.socket_path = os.fspath(socket_path)
            self.tcp_address = None
            self.endpoint = self.socket_path
        self.timeout = timeout
        self.protocol_version = protocol_version
        self.retry = RetryPolicy() if retry is None else retry
        self.tracing = bool(tracing)
        #: Ids of the most recent traced round-trip: ``trace_id``, the
        #: client's ``span_id``, and the daemon's echoed
        #: ``server_span_id`` (``None`` until the first traced request,
        #: or when the daemon predates tracing and echoes nothing).
        self.last_trace: dict | None = None
        self._sock: socket.socket | None = None

    @property
    def handle(self) -> str:
        """The facade handle string this client's endpoint resolves from."""
        if self.tcp_address is not None:
            return f"repro+tcp://{self.endpoint}"
        return f"repro://{self.socket_path}"

    # -- connection management ----------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.tcp_address is not None:
            try:
                sock = socket.create_connection(
                    self.tcp_address, timeout=self.timeout
                )
            except OSError as error:
                raise DaemonUnavailableError(
                    f"no serving daemon on {self.endpoint!r} ({error}); "
                    "start one with 'repro serve start --tcp'"
                ) from None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.timeout)
            return sock
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as error:
            sock.close()
            raise DaemonUnavailableError(
                f"no serving daemon on {self.endpoint!r} ({error}); "
                "start one with 'repro serve start'"
            ) from None
        return sock

    def close(self) -> None:
        """Drop the connection (the next request reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing ---------------------------------------------------------

    def _roundtrip(self, message: dict,
                   deadline_ms: int | None = None) -> dict:
        if self._sock is None:
            self._sock = self._connect()
        trace = start_trace() if self.tracing else None
        send_message(
            self._sock,
            message,
            deadline_ms=deadline_ms,
            trace_id=trace.trace_id if trace is not None else None,
            span_id=trace.span_id if trace is not None else None,
        )
        frame = recv_frame_ex(self._sock)
        if trace is not None:
            self.last_trace = {
                "trace_id": trace.trace_id,
                "span_id": trace.span_id,
                "server_span_id": frame.span_id,
            }
        return frame.message

    def request(self, op: str, **fields) -> dict:
        """Issue one ``op`` request and return the success response.

        Transient failures are retried under :attr:`retry` when ``op``
        is idempotent: transport errors (the worker that held our
        connection crashed or retired in a hot reload — a fresh
        connection reaches its replacement) and typed refusals in
        :data:`~repro.store.wire.RETRYABLE_CODES`.  Retried requests
        carry an ``attempt`` field so the daemon's robustness counters
        see them.

        Raises :class:`DaemonRequestError` on a terminal refusal (or a
        retryable one that outlived the retry budget) and
        :class:`DaemonUnavailableError` when no daemon answers.
        """
        policy = self.retry
        idempotent = op in IDEMPOTENT_OPS
        expires = (
            time.monotonic() + policy.deadline
            if policy.deadline is not None else None
        )

        def may_retry(attempt: int) -> bool:
            if not idempotent or attempt > policy.retries:
                return False
            return expires is None or time.monotonic() < expires

        attempt = 0
        while True:
            attempt += 1
            message = {"v": self.protocol_version, "op": op, **fields}
            if attempt > 1:
                message["attempt"] = attempt
            deadline_ms = None
            if expires is not None:
                deadline_ms = max(
                    0, int((expires - time.monotonic()) * 1000)
                )
            try:
                response = self._roundtrip(message, deadline_ms=deadline_ms)
            except (WireError, ConnectionClosed, OSError) as error:
                self.close()
                if may_retry(attempt):
                    time.sleep(policy.delay(attempt))
                    continue
                raise DaemonUnavailableError(
                    f"serving daemon on {self.endpoint!r} stopped "
                    f"answering ({error})"
                ) from None
            if response.get("ok"):
                return response
            error_block = response.get("error", {})
            code = error_block.get("code", "internal")
            if code in RETRYABLE_CODES and may_retry(attempt):
                # A draining worker closes after this answer; an
                # overloaded daemon wants us elsewhere.  Either way the
                # retry belongs on a fresh connection.
                self.close()
                time.sleep(policy.delay(attempt))
                continue
            raise DaemonRequestError(
                code=code,
                message=error_block.get(
                    "message", "daemon returned an error"
                ),
            )

    # -- the served operations ----------------------------------------------------

    def ping(self) -> bool:
        """True when a daemon answers on the socket."""
        return bool(self.request("ping").get("ok"))

    def status(self) -> dict:
        """The answering worker's status block: pid, generation, model
        name/checksum/rollout metadata, cache occupancy."""
        return self.request("status")

    def classify(self, urls) -> list[ServedUrl]:
        """Batch triage: one :class:`~repro.store.serve.ServedUrl` per
        input URL, in input order (same rows ``repro classify`` prints)."""
        response = self.request("classify", urls=list(urls))
        return [
            ServedUrl(url=row["url"], best=row["best"],
                      positives=tuple(row["positives"]))
            for row in response["results"]
        ]

    def score(self, urls) -> dict[str, list[float]]:
        """Per-language decision scores, keyed by language code.

        JSON transports floats via ``repr`` round-tripping, so scores
        arrive bit-identical to what the daemon's matmul produced.
        """
        response = self.request("score", urls=list(urls))
        return {code: list(values) for code, values in response["scores"].items()}

    def decisions(self, urls) -> dict[str, list[bool]]:
        """Per-language binary decisions, keyed by language code."""
        response = self.request("decisions", urls=list(urls))
        return {code: list(values) for code, values in response["decisions"].items()}

    def traces(self, limit: int | None = None) -> list[dict]:
        """The daemon's most recent request spans, oldest first.

        Spans come from the fork-shared ring buffer every worker writes
        traced requests into (capacity ``REPRO_TRACE_CAPACITY``), so
        the answer covers the whole daemon, not just the worker that
        happens to hold this connection.  ``limit`` caps the answer to
        the newest N spans."""
        fields: dict = {}
        if limit is not None:
            fields["limit"] = int(limit)
        return list(self.request("traces", **fields)["traces"])

    def reload(self) -> dict:
        """Ask the daemon to re-examine its artifact path (same effect
        as ``SIGHUP``).  Returns immediately; the swap is asynchronous
        and gated by rollout metadata — poll :meth:`status` for the new
        checksum."""
        return self.request("reload")

    def stop(self) -> dict:
        """Ask the daemon to shut down gracefully (same as ``SIGTERM``)."""
        return self.request("stop")


class RemoteIdentifier(IdentifierBase):
    """An :class:`~repro.core.pipeline.IdentifierBase` served by a daemon.

    Holds no weights: every batch call becomes one request over the
    client's persistent connection, answered straight off the daemon's
    shared weight matrix.  Scores round-trip bit-identically through
    JSON, so a ``RemoteIdentifier`` honours the same equivalence-oracle
    contract as the in-process compiled backend.

    This is what ``repro://`` handles resolve to — a crawler fleet can
    point dozens of processes at one daemon and none of them pays a
    model load.
    """

    def __init__(self, client: DaemonClient) -> None:
        self.client = client
        self._name: str | None = None
        self._capabilities = None

    @classmethod
    def connect(cls, socket_path: "str | os.PathLike | tuple[str, int]",
                timeout: float = 30.0,
                retry: RetryPolicy | None = None,
                tracing: bool = False) -> "RemoteIdentifier":
        """A remote identifier over a fresh :class:`DaemonClient`
        (``socket_path`` may be a ``(host, port)`` TCP endpoint;
        ``tracing`` turns on per-request trace ids)."""
        return cls(DaemonClient(socket_path, timeout=timeout, retry=retry,
                                tracing=tracing))

    @property
    def name(self) -> str:
        """Report label of the model the daemon serves (fetched once)."""
        if self._name is None:
            self._name = self.client.status().get("model", {}).get(
                "name", "remote"
            )
        return self._name

    def capabilities(self):
        """The :class:`repro.api.Predictor` capability block.

        Backend is ``"remote"`` — no weights in this process — and the
        provenance comes from the daemon's status block.  The block is
        fetched once and cached, so the ``predict``/``predict_iter``
        surface does not pay a status round-trip per batch; a stream
        that spans a hot reload keeps reporting the provenance it
        started with.  :meth:`close` drops the cache — call it (or ask
        the daemon's status directly) for fresh provenance.
        """
        if self._capabilities is None:
            from repro.api.types import Capabilities, ModelInfo
            from repro.languages import LANGUAGES

            model = self.client.status().get("model", {})
            rollout = model.get("rollout") or {}
            self._capabilities = Capabilities(
                model=ModelInfo(
                    name=model.get("name", "remote"),
                    backend="remote",
                    languages=tuple(LANGUAGES),
                    created_at=rollout.get("created_at"),
                    train_corpus=rollout.get("train_corpus"),
                    source=self.client.handle,
                ),
                compiled=False,
                remote=True,
            )
        return self._capabilities

    def close(self) -> None:
        """Drop the daemon connection (a later call reconnects) and
        the cached name/capability block (a later call refetches, so a
        hot-reloaded daemon's new provenance becomes visible)."""
        self._name = None
        self._capabilities = None
        self.client.close()

    def decisions(self, urls):
        remote = self.client.decisions(urls)
        return {
            Language.coerce(code): values for code, values in remote.items()
        }

    def scores_many(self, urls):
        remote = self.client.score(urls)
        return {
            Language.coerce(code): values for code, values in remote.items()
        }


class AsyncDaemonClient:
    """Asyncio-native daemon client multiplexing one connection.

    Where :class:`DaemonClient` serializes request/response pairs, this
    client lets any number of coroutines issue requests concurrently
    over **one** socket: every request frame carries a correlation id,
    a single background reader task pairs incoming response frames back
    to their awaiting callers, and writes are serialized so pipelined
    frames never interleave.  The daemon answers strictly in order, so
    one connection behaves like a FIFO pipeline — high fan-in
    concurrency without a connection per caller.

    Retry semantics are :class:`RetryPolicy`'s, identical to the sync
    client: idempotent ops only, transport errors and typed
    ``overloaded``/``shutting-down`` refusals retried on a fresh
    connection with jittered exponential backoff, the remaining
    deadline budget propagated in each attempt's frame header.

    Responses from servers that do not echo correlation ids are paired
    FIFO — correct because the protocol answers strictly in order.

    Use as an async context manager or call :meth:`aclose`::

        async with AsyncDaemonClient("repro.sock") as client:
            rows = await client.aclassify(["http://www.blumen.de/garten"])
    """

    def __init__(
        self,
        socket_path: "str | os.PathLike | tuple[str, int]",
        timeout: float = 30.0,
        protocol_version: int = PROTOCOL_VERSION,
        retry: RetryPolicy | None = None,
        tracing: bool = False,
    ) -> None:
        if isinstance(socket_path, tuple):
            host, port = socket_path
            self.socket_path: str | None = None
            self.tcp_address: tuple[str, int] | None = (str(host), int(port))
            self.endpoint = f"{host}:{port}"
        else:
            self.socket_path = os.fspath(socket_path)
            self.tcp_address = None
            self.endpoint = self.socket_path
        self.timeout = timeout
        self.protocol_version = protocol_version
        self.retry = RetryPolicy() if retry is None else retry
        self.tracing = bool(tracing)
        #: Ids of the most recently *answered* traced request (the sync
        #: client's :attr:`DaemonClient.last_trace`, under concurrency:
        #: pipelined responses land in completion order).
        self.last_trace: dict | None = None
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None
        self._reader_task: "asyncio.Task | None" = None
        self._pending: "dict[int, asyncio.Future]" = {}
        self._sent_traces: dict = {}
        self._connect_lock: "asyncio.Lock | None" = None
        self._write_lock: "asyncio.Lock | None" = None
        self._next_cid = 0
        #: Connections dialed over this client's lifetime — observability
        #: for tests and capacity planning (1 under pure multiplexing;
        #: +1 per retry-forced reconnect).
        self.connections_opened = 0

    @property
    def handle(self) -> str:
        """The facade handle string this client's endpoint resolves from."""
        if self.tcp_address is not None:
            return f"repro+tcp://{self.endpoint}"
        return f"repro://{self.socket_path}"

    # -- connection management ----------------------------------------------------

    def _locks(self) -> "tuple[asyncio.Lock, asyncio.Lock]":
        # Created lazily so the client can be constructed outside a
        # running event loop.
        import asyncio

        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
            self._write_lock = asyncio.Lock()
        assert self._write_lock is not None
        return self._connect_lock, self._write_lock

    async def _ensure_connected(self) -> None:
        import asyncio

        connect_lock, _ = self._locks()
        async with connect_lock:
            if self._writer is not None:
                return
            try:
                if self.tcp_address is not None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(*self.tcp_address),
                        self.timeout,
                    )
                    sock = writer.get_extra_info("socket")
                    if sock is not None:
                        sock.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                        )
                else:
                    assert self.socket_path is not None
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_unix_connection(self.socket_path),
                        self.timeout,
                    )
            except (OSError, asyncio.TimeoutError) as error:
                raise DaemonUnavailableError(
                    f"no serving daemon on {self.endpoint!r} ({error}); "
                    "start one with 'repro serve start'"
                ) from None
            self._reader, self._writer = reader, writer
            self.connections_opened += 1
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )

    async def _read_loop(self, reader: "asyncio.StreamReader") -> None:
        """Pair every incoming response frame with its awaiting caller.

        Runs until the connection dies, then fails every still-pending
        future with the transport error so each caller's retry loop can
        decide for itself.  A response whose correlation id matches no
        pending future (its caller was cancelled) is dropped on the
        floor — the stream stays aligned because pairing is positional
        only for id-less responses.
        """
        try:
            while True:
                frame = await read_frame_async(reader)
                future = None
                cid = None
                if frame.correlation_id is not None:
                    cid = frame.correlation_id
                    future = self._pending.pop(cid, None)
                elif self._pending:
                    # Id-less server (or a scripted test double): the
                    # strict in-order contract makes FIFO pairing exact.
                    cid = next(iter(self._pending))
                    future = self._pending.pop(cid)
                sent = self._sent_traces.pop(cid, None) if cid is not None else None
                if sent is not None:
                    self.last_trace = {
                        "trace_id": sent.trace_id,
                        "span_id": sent.span_id,
                        "server_span_id": frame.span_id,
                    }
                if future is not None and not future.done():
                    future.set_result(frame.message)
        except (WireError, OSError) as error:
            self._connection_lost(error)

    def _connection_lost(self, error: Exception) -> None:
        """Tear down state after the transport died under the reader."""
        writer, self._writer, self._reader = self._writer, None, None
        self._reader_task = None
        if writer is not None:
            writer.close()
        self._fail_pending(error)

    def _fail_pending(self, error: Exception) -> None:
        self._sent_traces.clear()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    error if isinstance(error, WireError)
                    else ConnectionClosed(str(error), clean=False)
                )

    async def _drop_connection(self) -> None:
        """Voluntarily close (retry path / :meth:`aclose`).

        Any *other* requests still in flight on the connection fail with
        a dirty :class:`ConnectionClosed` and retry under their own
        budgets — the same thing a daemon-side close would do to them.
        """
        import asyncio
        import contextlib

        task, self._reader_task = self._reader_task, None
        writer, self._writer, self._reader = self._writer, None, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if writer is not None:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._fail_pending(ConnectionClosed("connection dropped", clean=False))

    async def aclose(self) -> None:
        """Close the connection (a later request reconnects)."""
        await self._drop_connection()

    async def __aenter__(self) -> "AsyncDaemonClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- request plumbing ---------------------------------------------------------

    def _claim_cid(self) -> int:
        self._next_cid = (self._next_cid + 1) & MAX_CORRELATION_ID
        while self._next_cid in self._pending:
            self._next_cid = (self._next_cid + 1) & MAX_CORRELATION_ID
        return self._next_cid

    async def _roundtrip(self, message: dict,
                         deadline_ms: int | None) -> dict:
        import asyncio

        await self._ensure_connected()
        _, write_lock = self._locks()
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        async with write_lock:
            if self._writer is None:
                raise ConnectionClosed("connection lost before send",
                                       clean=False)
            cid = self._claim_cid()
            self._pending[cid] = future
            trace = start_trace() if self.tracing else None
            if trace is not None:
                self._sent_traces[cid] = trace
            try:
                self._writer.write(
                    encode_frame(
                        message,
                        deadline_ms,
                        cid,
                        trace_id=trace.trace_id if trace is not None else None,
                        span_id=trace.span_id if trace is not None else None,
                    )
                )
                await self._writer.drain()
            except (OSError, ConnectionError) as error:
                self._pending.pop(cid, None)
                self._sent_traces.pop(cid, None)
                raise ConnectionClosed(
                    f"send failed: {error}", clean=False
                ) from None
        try:
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            self._pending.pop(cid, None)
            self._sent_traces.pop(cid, None)
            raise TimeoutError(
                f"no response within {self.timeout:.1f}s"
            ) from None
        except asyncio.CancelledError:
            # Caller cancelled mid-request: forget the id so the late
            # response (already being computed) is dropped, not paired
            # with some future request.
            self._pending.pop(cid, None)
            self._sent_traces.pop(cid, None)
            raise

    async def request(self, op: str, **fields) -> dict:
        """Async twin of :meth:`DaemonClient.request` — same retry
        matrix, same error taxonomy, ``asyncio.sleep`` backoff."""
        import asyncio

        policy = self.retry
        idempotent = op in IDEMPOTENT_OPS
        expires = (
            time.monotonic() + policy.deadline
            if policy.deadline is not None else None
        )

        def may_retry(attempt: int) -> bool:
            if not idempotent or attempt > policy.retries:
                return False
            return expires is None or time.monotonic() < expires

        attempt = 0
        while True:
            attempt += 1
            message = {"v": self.protocol_version, "op": op, **fields}
            if attempt > 1:
                message["attempt"] = attempt
            deadline_ms = None
            if expires is not None:
                deadline_ms = max(
                    0, int((expires - time.monotonic()) * 1000)
                )
            try:
                response = await self._roundtrip(
                    message, deadline_ms=deadline_ms
                )
            except (WireError, ConnectionClosed, OSError,
                    TimeoutError) as error:
                await self._drop_connection()
                if may_retry(attempt):
                    await asyncio.sleep(policy.delay(attempt))
                    continue
                raise DaemonUnavailableError(
                    f"serving daemon on {self.endpoint!r} stopped "
                    f"answering ({error})"
                ) from None
            if response.get("ok"):
                return response
            error_block = response.get("error", {})
            code = error_block.get("code", "internal")
            if code in RETRYABLE_CODES and may_retry(attempt):
                await self._drop_connection()
                await asyncio.sleep(policy.delay(attempt))
                continue
            raise DaemonRequestError(
                code=code,
                message=error_block.get(
                    "message", "daemon returned an error"
                ),
            )

    # -- the served operations ----------------------------------------------------

    async def aping(self) -> bool:
        """True when a daemon answers on the endpoint."""
        return bool((await self.request("ping")).get("ok"))

    async def astatus(self) -> dict:
        """The answering worker's status block."""
        return await self.request("status")

    async def aclassify(self, urls) -> list[ServedUrl]:
        """Batch triage, one :class:`ServedUrl` per input URL in order."""
        response = await self.request("classify", urls=list(urls))
        return [
            ServedUrl(url=row["url"], best=row["best"],
                      positives=tuple(row["positives"]))
            for row in response["results"]
        ]

    async def ascore(self, urls) -> dict[str, list[float]]:
        """Per-language decision scores, keyed by language code."""
        response = await self.request("score", urls=list(urls))
        return {
            code: list(values)
            for code, values in response["scores"].items()
        }

    async def adecisions(self, urls) -> dict[str, list[bool]]:
        """Per-language binary decisions, keyed by language code."""
        response = await self.request("decisions", urls=list(urls))
        return {
            code: list(values)
            for code, values in response["decisions"].items()
        }

    async def atraces(self, limit: int | None = None) -> list[dict]:
        """The daemon's most recent request spans, oldest first
        (async twin of :meth:`DaemonClient.traces`)."""
        fields: dict = {}
        if limit is not None:
            fields["limit"] = int(limit)
        return list((await self.request("traces", **fields))["traces"])

    async def areload(self) -> dict:
        """Ask the daemon to re-examine its artifact path (SIGHUP)."""
        return await self.request("reload")

    async def astop(self) -> dict:
        """Ask the daemon to shut down gracefully (SIGTERM)."""
        return await self.request("stop")


class AsyncRemoteIdentifier:
    """The :class:`repro.api.AsyncPredictor` surface over a daemon.

    The async twin of :class:`RemoteIdentifier`: holds no weights, one
    request per batch call, scores round-tripping bit-identically
    through JSON.  ``apredict`` derives decisions and best labels from
    one score pass with exactly the rules
    :meth:`repro.core.pipeline.IdentifierBase.predict` uses, so sync
    and async predictions over the same daemon are byte-identical.
    """

    def __init__(self, client: AsyncDaemonClient) -> None:
        self.client = client
        self._capabilities = None

    @classmethod
    def connect(cls, socket_path: "str | os.PathLike | tuple[str, int]",
                timeout: float = 30.0,
                retry: RetryPolicy | None = None,
                tracing: bool = False) -> "AsyncRemoteIdentifier":
        """An async remote identifier over a fresh
        :class:`AsyncDaemonClient` (``socket_path`` may be a
        ``(host, port)`` TCP endpoint; ``tracing`` turns on
        per-request trace ids)."""
        return cls(AsyncDaemonClient(socket_path, timeout=timeout,
                                     retry=retry, tracing=tracing))

    @property
    def name(self) -> str:
        """Report label; remote daemons answer it via capabilities."""
        if self._capabilities is not None:
            return self._capabilities.model.name
        return "remote"

    async def acapabilities(self):
        """Capability block (fetched once, cached like the sync twin)."""
        if self._capabilities is None:
            from repro.api.types import Capabilities, ModelInfo
            from repro.languages import LANGUAGES

            model = (await self.client.astatus()).get("model", {})
            rollout = model.get("rollout") or {}
            self._capabilities = Capabilities(
                model=ModelInfo(
                    name=model.get("name", "remote"),
                    backend="remote",
                    languages=tuple(LANGUAGES),
                    created_at=rollout.get("created_at"),
                    train_corpus=rollout.get("train_corpus"),
                    source=self.client.handle,
                ),
                compiled=False,
                remote=True,
            )
        return self._capabilities

    async def adecisions(self, urls) -> dict:
        remote = await self.client.adecisions(urls)
        return {
            Language.coerce(code): values for code, values in remote.items()
        }

    async def ascores_many(self, urls) -> dict:
        remote = await self.client.ascore(urls)
        return {
            Language.coerce(code): values for code, values in remote.items()
        }

    async def apredict(self, urls):
        """One score pass into a :class:`repro.api.BatchResult` — the
        same derivation as the sync ``predict`` (decisions are
        ``score > 0``; best is the max-scoring language when positive)."""
        urls = list(urls)
        batch = ScoredBatch.from_scores(urls, await self.ascores_many(urls))
        capabilities = await self.acapabilities()
        return batch.result(capabilities.model)

    async def aclose(self) -> None:
        """Drop the connection and the cached capability block."""
        self._capabilities = None
        await self.client.aclose()

    async def __aenter__(self) -> "AsyncRemoteIdentifier":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


def resolve_serving_handle(handle: str, timeout: float = 30.0) -> RemoteIdentifier:
    """Deprecated: use :func:`repro.api.open_model` instead.

    Resolves a ``repro://<socket-path>`` string to a remote identifier.
    Unlike the facade, resolution here is lazy — no connection is
    attempted until the first request, and a dead socket surfaces as
    :class:`DaemonUnavailableError` on first use.
    """
    warnings.warn(
        "resolve_serving_handle() is deprecated; use "
        "repro.api.open_model(handle) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return RemoteIdentifier.connect(parse_handle(handle), timeout=timeout)
