"""Client side of the serving daemon: sockets in, identifiers out.

One core, two shells (the sans-I/O pattern,
https://sans-io.readthedocs.io/):

* The core does no I/O.  :class:`~repro.store.wire.FrameDecoder` parses
  every frame either client reads.  :class:`_Call` holds one logical
  request's :class:`RetryPolicy`, deadline and attempt count, encodes
  each attempt's frame, and turns each outcome into a decision: return
  the response, back off and retry on a fresh connection, or raise.
  Endpoint parsing, the ``handle`` string, result decoding and the
  remote capability block are written once, for both shells.
* :class:`DaemonClient` is the blocking socket shell (one request at a
  time per connection, ``time.sleep`` backoff).
  :class:`AsyncDaemonClient` is the asyncio shell: concurrent callers
  share one connection, paired by correlation id (``asyncio.sleep``
  backoff).
* :class:`RemoteIdentifier` and :class:`AsyncRemoteIdentifier` adapt the
  shells to the identifier surfaces; ``repro://`` handle strings resolve
  to them through :func:`repro.api.open_model` and
  :func:`repro.api.aopen_model`.

Error taxonomy: :class:`DaemonUnavailableError` means nothing answered
(daemon not started, crashed, or wrong socket path) — callers may retry
or fall back to loading the artifact themselves.
:class:`DaemonRequestError` means the request was refused — by a live
daemon, or before any dial when it cannot be framed
(``frame-too-large``) — and carries the protocol error ``code``.
Refusals in :data:`~repro.store.wire.RETRYABLE_CODES` (``overloaded``,
``shutting-down``) are retried *inside* the client by its
:class:`RetryPolicy` before this error ever surfaces — so by the time a
caller sees it, the retry budget is spent and looping further is
pointless.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import socket
import time
from dataclasses import dataclass

from repro.api.resolver import daemon_socket_path, is_daemon_handle
from repro.api.types import Capabilities, ModelInfo
from repro.core.pipeline import IdentifierBase
from repro.core.scored import ScoredBatch, ServedUrl
from repro.languages import LANGUAGES, Language
from repro.obs.trace import start_trace
from repro.store.wire import (
    MAX_CORRELATION_ID,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ConnectionClosed,
    Frame,
    FrameTooLargeError,
    WireError,
    encode_frame,
    read_frame_async,
    recv_frame_ex,
    send_all,
)

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
    """The request was refused: by a live daemon, or by the client
    before dialing when it cannot be framed (``frame-too-large``).

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


class _ClientBase:
    """What both shells share: the endpoint, the policy, the trace slot."""

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
        #: Ids of the most recently answered traced request: ``trace_id``,
        #: the client's ``span_id``, and the daemon's echoed
        #: ``server_span_id`` (``None`` until the first traced request,
        #: or when the daemon predates tracing and echoes nothing).
        self.last_trace: dict | None = None

    @property
    def handle(self) -> str:
        """The facade handle string this client's endpoint resolves from."""
        if self.tcp_address is not None:
            return f"repro+tcp://{self.endpoint}"
        return f"repro://{self.socket_path}"

    def _unavailable(self, error: Exception) -> DaemonUnavailableError:
        """The error for an endpoint that refused the dial."""
        start = "repro serve start" + (" --tcp" if self.tcp_address else "")
        return DaemonUnavailableError(
            f"no serving daemon on {self.endpoint!r} ({error}); "
            f"start one with '{start}'"
        )


class _Call:
    """One logical request's retry state machine, with no I/O of its own.

    A shell loops: it sends :meth:`next_frame`'s bytes, then hands the
    reply to :meth:`answered` or the transport failure to :meth:`failed`.
    ``answered`` returns the success response; otherwise, and when
    ``failed`` returns, a retry is due: the shell drops its connection,
    sleeps :meth:`backoff` seconds and loops.  Terminal outcomes raise
    :class:`DaemonRequestError` or :class:`DaemonUnavailableError`.
    """

    def __init__(self, client: _ClientBase, op: str, fields: dict) -> None:
        self.client = client
        self.op = op
        self.fields = fields
        self.policy = client.retry
        self.expires = (
            time.monotonic() + self.policy.deadline
            if self.policy.deadline is not None else None
        )
        self.attempt = 0
        self.trace = None

    def next_frame(self, correlation_id: int | None = None) -> bytes:
        """Wire bytes of the next attempt.

        Encoded before the shell dials, so a request that cannot be
        framed fails terminally (``frame-too-large``) with no connection
        and no sleep.  Retried attempts carry an ``attempt`` field so the
        daemon's robustness counters see them; each carries the deadline
        budget that remains.
        """
        self.attempt += 1
        message = {"v": self.client.protocol_version, "op": self.op,
                   **self.fields}
        if self.attempt > 1:
            message["attempt"] = self.attempt
        deadline_ms = None
        if self.expires is not None:
            deadline_ms = max(0, int((self.expires - time.monotonic()) * 1000))
        self.trace = start_trace() if self.client.tracing else None
        try:
            return encode_frame(
                message,
                deadline_ms,
                correlation_id,
                trace_id=self.trace.trace_id if self.trace else None,
                span_id=self.trace.span_id if self.trace else None,
            )
        except FrameTooLargeError as error:
            raise DaemonRequestError("frame-too-large", str(error)) from None

    def answered(self, frame: Frame) -> dict | None:
        """The success response, or ``None`` when a retry is due."""
        if self.trace is not None:
            self.client.last_trace = {
                "trace_id": self.trace.trace_id,
                "span_id": self.trace.span_id,
                "server_span_id": frame.span_id,
            }
        response = frame.message
        if response.get("ok"):
            return response
        error_block = response.get("error", {})
        code = error_block.get("code", "internal")
        if code in RETRYABLE_CODES and self._may_retry():
            # A draining worker closes after this answer; an overloaded
            # daemon wants us elsewhere.  Either way the retry belongs on
            # a fresh connection.
            return None
        raise DaemonRequestError(
            code=code,
            message=error_block.get("message", "daemon returned an error"),
        )

    def failed(self, error: Exception) -> None:
        """The connection died mid-attempt: returns when a retry is due,
        raises :class:`DaemonUnavailableError` otherwise."""
        if not self._may_retry():
            raise DaemonUnavailableError(
                f"serving daemon on {self.client.endpoint!r} stopped "
                f"answering ({error})"
            ) from None

    def _may_retry(self) -> bool:
        if self.op not in IDEMPOTENT_OPS or self.attempt > self.policy.retries:
            return False
        return self.expires is None or time.monotonic() < self.expires

    def backoff(self) -> float:
        """Seconds to sleep before the next attempt."""
        return self.policy.delay(self.attempt)


def _served_urls(response: dict) -> list[ServedUrl]:
    """The rows of a ``classify`` answer, in input order."""
    return [
        ServedUrl(url=row["url"], best=row["best"],
                  positives=tuple(row["positives"]))
        for row in response["results"]
    ]


def _by_code(response: dict, key: str) -> dict[str, list]:
    """A ``score``/``decisions`` answer's per-language columns."""
    return {code: list(values) for code, values in response[key].items()}


def _limit_fields(limit: int | None) -> dict:
    return {} if limit is None else {"limit": int(limit)}


class DaemonClient(_ClientBase):
    """One connection to a serving daemon, reconnecting across reloads.

    The blocking shell over the request core.  The connection is opened
    lazily on the first request and kept for the client's lifetime (a
    daemon worker serves any number of requests per connection).
    Transient failures — a connection closed by a hot-reload handover
    or a crashed worker, a typed ``overloaded`` or ``shutting-down``
    refusal — are retried on a fresh connection under the client's
    :class:`RetryPolicy` (jittered exponential backoff, idempotent
    operations only) before surfacing :class:`DaemonUnavailableError` /
    :class:`DaemonRequestError`.  A daemon that was never there fails
    fast: connection *refusal* is not retried.

    Use as a context manager or call :meth:`close` when done::

        with DaemonClient("repro.sock") as client:
            rows = client.classify(["http://www.blumen.de/garten"])
    """

    _sock: socket.socket | None = None

    # -- connection management ----------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = None
        try:
            if self.tcp_address is not None:
                sock = socket.create_connection(
                    self.tcp_address, timeout=self.timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
        except OSError as error:
            if sock is not None:
                sock.close()
            raise self._unavailable(error) from None
        return sock

    def close(self) -> None:
        """Drop the connection (the next request reconnects)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing ---------------------------------------------------------

    def _roundtrip(self, payload: bytes) -> Frame:
        if self._sock is None:
            self._sock = self._connect()
        send_all(self._sock, payload)
        return recv_frame_ex(self._sock)

    def request(self, op: str, **fields) -> dict:
        """Issue one ``op`` request and return the success response.

        Transient failures are retried under :attr:`retry` when ``op``
        is idempotent: transport errors (the worker that held our
        connection crashed or retired in a hot reload — a fresh
        connection reaches its replacement) and typed refusals in
        :data:`~repro.store.wire.RETRYABLE_CODES`.

        Raises :class:`DaemonRequestError` on a terminal refusal (or a
        retryable one that outlived the retry budget) and
        :class:`DaemonUnavailableError` when no daemon answers.
        """
        call = _Call(self, op, fields)
        while True:
            payload = call.next_frame()
            try:
                frame = self._roundtrip(payload)
            except (WireError, OSError) as error:
                self.close()
                call.failed(error)
            else:
                response = call.answered(frame)
                if response is not None:
                    return response
                self.close()
            time.sleep(call.backoff())

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
        return _served_urls(self.request("classify", urls=list(urls)))

    def score(self, urls) -> dict[str, list[float]]:
        """Per-language decision scores, keyed by language code.

        JSON transports floats via ``repr`` round-tripping, so scores
        arrive bit-identical to what the daemon's matmul produced.
        """
        return _by_code(self.request("score", urls=list(urls)), "scores")

    def decisions(self, urls) -> dict[str, list[bool]]:
        """Per-language binary decisions, keyed by language code."""
        return _by_code(self.request("decisions", urls=list(urls)),
                        "decisions")

    def traces(self, limit: int | None = None) -> list[dict]:
        """The daemon's most recent request spans, oldest first.

        Spans come from the fork-shared ring buffer every worker writes
        traced requests into (capacity ``REPRO_TRACE_CAPACITY``), so
        the answer covers the whole daemon, not just the worker that
        happens to hold this connection.  ``limit`` caps the answer to
        the newest N spans."""
        return list(self.request("traces", **_limit_fields(limit))["traces"])

    def reload(self) -> dict:
        """Ask the daemon to re-examine its artifact path (same effect
        as ``SIGHUP``).  Returns immediately; the swap is asynchronous
        and gated by rollout metadata — poll :meth:`status` for the new
        checksum."""
        return self.request("reload")

    def stop(self) -> dict:
        """Ask the daemon to shut down gracefully (same as ``SIGTERM``)."""
        return self.request("stop")


def _remote_capabilities(status: dict, source: str):
    """The :class:`repro.api.Predictor` capability block of a daemon's
    model: backend ``"remote"`` (no weights in this process), provenance
    from the daemon's status block."""
    model = status.get("model", {})
    rollout = model.get("rollout") or {}
    return Capabilities(
        model=ModelInfo(
            name=model.get("name", "remote"),
            backend="remote",
            languages=tuple(LANGUAGES),
            created_at=rollout.get("created_at"),
            train_corpus=rollout.get("train_corpus"),
            source=source,
        ),
        compiled=False,
        remote=True,
    )


def _by_language(remote: dict) -> dict:
    """Re-key a per-code daemon answer by :class:`Language`."""
    return {Language.coerce(code): values for code, values in remote.items()}


class _RemoteBase:
    """What both remote identifiers share: a client of their shell and
    the cached capability block."""

    #: The shell :meth:`connect` dials with.
    client_class: type

    def __init__(self, client) -> None:
        self.client = client
        self._capabilities = None

    @classmethod
    def connect(cls, socket_path: "str | os.PathLike | tuple[str, int]",
                timeout: float = 30.0,
                retry: RetryPolicy | None = None,
                tracing: bool = False):
        """A remote identifier over a fresh client (``socket_path`` may
        be a ``(host, port)`` TCP endpoint; ``tracing`` turns on
        per-request trace ids)."""
        return cls(cls.client_class(socket_path, timeout=timeout,
                                    retry=retry, tracing=tracing))


class RemoteIdentifier(_RemoteBase, IdentifierBase):
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

    client_class = DaemonClient

    @property
    def name(self) -> str:
        """Report label of the model the daemon serves (fetched once)."""
        return self.capabilities().model.name

    def capabilities(self):
        """The :class:`repro.api.Predictor` capability block.

        Fetched once from the daemon's status block and cached, so the
        ``predict``/``predict_iter`` surface does not pay a status
        round-trip per batch; a stream that spans a hot reload keeps
        reporting the provenance it started with.  :meth:`close` drops
        the cache — call it (or ask the daemon's status directly) for
        fresh provenance.
        """
        if self._capabilities is None:
            self._capabilities = _remote_capabilities(
                self.client.status(), self.client.handle
            )
        return self._capabilities

    def close(self) -> None:
        """Drop the daemon connection (a later call reconnects) and
        the cached capability block (a later call refetches, so a
        hot-reloaded daemon's new provenance becomes visible)."""
        self._capabilities = None
        self.client.close()

    def decisions(self, urls):
        return _by_language(self.client.decisions(urls))

    def scores_many(self, urls):
        return _by_language(self.client.score(urls))


class _AsyncClosing:
    """``async with`` support for a class with an ``aclose`` coroutine."""

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


class AsyncDaemonClient(_AsyncClosing, _ClientBase):
    """Asyncio-native daemon client multiplexing one connection.

    The asyncio shell over the request core.  Where
    :class:`DaemonClient` serializes request/response pairs, this client
    lets any number of coroutines issue requests concurrently over
    **one** socket: every request frame carries a correlation id, a
    single background reader task pairs incoming response frames back
    to their awaiting callers, and writes are serialized so pipelined
    frames never interleave.  The daemon answers strictly in order, so
    one connection behaves like a FIFO pipeline — high fan-in
    concurrency without a connection per caller.

    Retry semantics are the sync client's — the same :class:`_Call`
    decides every outcome — with ``asyncio.sleep`` backoff.

    Responses from servers that do not echo correlation ids are paired
    FIFO — correct because the protocol answers strictly in order.

    Use as an async context manager or call :meth:`aclose`::

        async with AsyncDaemonClient("repro.sock") as client:
            rows = await client.aclassify(["http://www.blumen.de/garten"])
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._connect_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        self._next_cid = 0
        #: Connections dialed over this client's lifetime — observability
        #: for tests and capacity planning (1 under pure multiplexing;
        #: +1 per retry-forced reconnect).
        self.connections_opened = 0

    # -- connection management ----------------------------------------------------

    async def _ensure_connected(self) -> None:
        async with self._connect_lock:
            if self._writer is not None:
                return
            # asyncio turns Nagle off on TCP transports by itself.
            dial = (asyncio.open_connection(*self.tcp_address)
                    if self.tcp_address is not None
                    else asyncio.open_unix_connection(self.socket_path))
            try:
                reader, self._writer = await asyncio.wait_for(
                    dial, self.timeout
                )
            except (OSError, asyncio.TimeoutError) as error:
                raise self._unavailable(error) from None
            self.connections_opened += 1
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
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
                cid = frame.correlation_id
                if cid is None and self._pending:
                    # Id-less server (or a scripted test double): the
                    # strict in-order contract makes FIFO pairing exact.
                    cid = next(iter(self._pending))
                future = self._pending.pop(cid, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (WireError, OSError) as error:
            self._disconnect(error)

    def _disconnect(self, error: Exception) -> None:
        """Forget the connection, close it, and fail every request still
        waiting on it with ``error``."""
        writer, self._writer, self._reader_task = self._writer, None, None
        if writer is not None:
            writer.close()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _drop_connection(self) -> None:
        """Voluntarily close (retry path / :meth:`aclose`).

        Any *other* requests still in flight on the connection fail with
        a dirty :class:`ConnectionClosed` and retry under their own
        budgets — the same thing a daemon-side close would do to them.
        """
        task, writer = self._reader_task, self._writer
        self._disconnect(ConnectionClosed("connection dropped", clean=False))
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if writer is not None:
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def aclose(self) -> None:
        """Close the connection (a later request reconnects)."""
        await self._drop_connection()


    # -- request plumbing ---------------------------------------------------------

    def _claim_cid(self) -> int:
        self._next_cid = (self._next_cid + 1) & MAX_CORRELATION_ID
        while self._next_cid in self._pending:
            self._next_cid = (self._next_cid + 1) & MAX_CORRELATION_ID
        return self._next_cid

    async def _roundtrip(self, cid: int, payload: bytes) -> Frame:
        await self._ensure_connected()
        future = asyncio.get_running_loop().create_future()
        try:
            async with self._write_lock:
                if self._writer is None:
                    raise ConnectionClosed("connection lost before send",
                                           clean=False)
                self._pending[cid] = future
                self._writer.write(payload)
                await self._writer.drain()
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"no response within {self.timeout:.1f}s"
            ) from None
        finally:
            # A caller whose send failed, who timed out or who was
            # cancelled forgets its id, so a late response is dropped,
            # not paired with some future request.
            self._pending.pop(cid, None)

    async def request(self, op: str, **fields) -> dict:
        """Async twin of :meth:`DaemonClient.request` — same core, same
        retry matrix, same error taxonomy, ``asyncio.sleep`` backoff."""
        call = _Call(self, op, fields)
        while True:
            cid = self._claim_cid()
            payload = call.next_frame(cid)
            try:
                frame = await self._roundtrip(cid, payload)
            except (WireError, OSError) as error:
                await self._drop_connection()
                call.failed(error)
            else:
                response = call.answered(frame)
                if response is not None:
                    return response
                await self._drop_connection()
            await asyncio.sleep(call.backoff())

    # -- the served operations ----------------------------------------------------

    async def aping(self) -> bool:
        """True when a daemon answers on the endpoint."""
        return bool((await self.request("ping")).get("ok"))

    async def astatus(self) -> dict:
        """The answering worker's status block."""
        return await self.request("status")

    async def aclassify(self, urls) -> list[ServedUrl]:
        """Batch triage, one :class:`ServedUrl` per input URL in order."""
        return _served_urls(await self.request("classify", urls=list(urls)))

    async def ascore(self, urls) -> dict[str, list[float]]:
        """Per-language decision scores, keyed by language code."""
        return _by_code(await self.request("score", urls=list(urls)),
                        "scores")

    async def adecisions(self, urls) -> dict[str, list[bool]]:
        """Per-language binary decisions, keyed by language code."""
        return _by_code(await self.request("decisions", urls=list(urls)),
                        "decisions")

    async def atraces(self, limit: int | None = None) -> list[dict]:
        """The daemon's most recent request spans, oldest first
        (async twin of :meth:`DaemonClient.traces`)."""
        response = await self.request("traces", **_limit_fields(limit))
        return list(response["traces"])

    async def areload(self) -> dict:
        """Ask the daemon to re-examine its artifact path (SIGHUP)."""
        return await self.request("reload")

    async def astop(self) -> dict:
        """Ask the daemon to shut down gracefully (SIGTERM)."""
        return await self.request("stop")


class AsyncRemoteIdentifier(_AsyncClosing, _RemoteBase):
    """The :class:`repro.api.AsyncPredictor` surface over a daemon.

    The async twin of :class:`RemoteIdentifier`: holds no weights, one
    request per batch call, scores round-tripping bit-identically
    through JSON.  ``apredict`` derives decisions and best labels from
    one score pass with exactly the rules
    :meth:`repro.core.pipeline.IdentifierBase.predict` uses, so sync
    and async predictions over the same daemon are byte-identical.
    """

    client_class = AsyncDaemonClient

    @property
    def name(self) -> str:
        """Report label; remote daemons answer it via capabilities."""
        if self._capabilities is not None:
            return self._capabilities.model.name
        return "remote"

    async def acapabilities(self):
        """Capability block (fetched once, cached like the sync twin)."""
        if self._capabilities is None:
            self._capabilities = _remote_capabilities(
                await self.client.astatus(), self.client.handle
            )
        return self._capabilities

    async def adecisions(self, urls) -> dict:
        return _by_language(await self.client.adecisions(urls))

    async def ascores_many(self, urls) -> dict:
        return _by_language(await self.client.ascore(urls))

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
