"""The long-lived serving daemon: pre-forked workers over one mmap.

``repro.store.serve.score_urls`` answers a one-shot batch by spinning a
``multiprocessing.Pool`` up and down around it — fine for a script,
wrong for a crawler fleet that wants an answer per frontier expansion.
:class:`ServingDaemon` is the long-lived alternative:

* the parent process loads one model artifact (header parsed, weight
  matrix **memory-mapped**) and then pre-forks N workers — every worker
  inherits the same mapping, so the OS backs all of them with one
  physical copy of the ``(V, k)`` weight matrix;
* workers accept connections on a shared Unix socket and answer batch
  ``classify`` / ``score`` / ``decisions`` requests with the
  length-prefixed JSON protocol of :mod:`repro.store.wire`; each worker
  keeps its :class:`~repro.store.artifact.ServingIdentifier` alive
  across requests, so the interned-row memo warms up once and stays
  warm;
* ``--http`` additionally serves the same operations over plain HTTP
  (stdlib :mod:`http.server` only) for curl-friendly probing and
  load-balancer health checks;
* ``SIGHUP`` (or the ``reload`` operation) hot-reloads the artifact
  path **gated by rollout metadata**: the replacement must be a valid
  identifier artifact carrying a ``model.rollout`` stamp at least as
  new as the serving one (see :meth:`ServingDaemon._reload_gate`), and
  the swap is a worker-generation handover — new workers fork over the
  new mapping, old workers finish their connections and exit, the
  socket never stops accepting;
* ``SIGTERM`` / ``SIGINT`` (or the ``stop`` operation) shut down
  gracefully: workers drain in-flight connections, the socket and pid
  files are removed.

Process-management helpers (:func:`start_daemon`, :func:`stop_daemon`,
:func:`signal_daemon`) implement the ``repro serve start|stop|reload``
CLI: a double-fork detach with a pidfile next to the socket, readiness
probed through the client's ``ping``.

``docs/serving.md`` is the operator's guide: lifecycle, the wire
protocol spec, hot-reload semantics, and capacity planning.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import select
import signal
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.scored import ScoredBatch
from repro.obs.events import EventLogger, json_log_enabled
from repro.obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.prom import render_prometheus
from repro.obs.trace import SpanLog, capture_stages, new_span_id, stage
from repro.store.artifact import MODEL_KIND, ServingIdentifier, load_identifier
from repro.store.format import ArtifactError, ArtifactFile
from repro.store.metrics import (
    DEFAULT_DRIFT_WINDOW_ROWS,
    DriftCounters,
    RequestMetrics,
    RobustnessCounters,
)
from repro.store.wire import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameTooLargeError,
    WireError,
    encode_frame,
    error_response,
    ok_response,
    recv_frame_ex,
    send_all,
)
from repro.testing import faults

#: Default worker count for ``serve start``.
DEFAULT_WORKERS = 2

#: Seconds between the supervision loop's housekeeping passes.
SUPERVISE_INTERVAL = 0.2

#: Seconds a worker allows one frame's bytes to trickle in or out once
#: transfer has started.  Idle waiting *between* frames is separate
#: (select at :data:`SUPERVISE_INTERVAL`), so this only cuts off peers
#: that stall mid-frame.
FRAME_IO_TIMEOUT = 30.0

#: Seconds a graceful shutdown waits for workers before SIGKILL.
DRAIN_TIMEOUT = 10.0

#: Seconds a draining worker keeps a persistent connection open to
#: answer one late frame with a typed ``shutting-down`` error instead
#: of resetting it mid-conversation.
DRAIN_NOTIFY_SECONDS = 1.0

#: Upper bound on one batch request's URL count.  The frame cap already
#: bounds bytes; this bounds *work* — a maximal batch must not be able
#: to occupy a worker long enough to read as an outage.
MAX_BATCH_URLS = 65536

#: Crash containment defaults (env-overridable so chaos tests can run
#: the loop at test speed): this many current-generation worker deaths
#: inside the window flips the daemon to ``degraded`` and swaps hot
#: respawns for exponential backoff.
CRASH_LOOP_THRESHOLD = 3
CRASH_LOOP_WINDOW = 30.0
RESPAWN_BACKOFF_INITIAL = 0.5
RESPAWN_BACKOFF_MAX = 30.0

#: Spans retained in the fork-shared trace ring buffer (env-overridable
#: via ``REPRO_TRACE_CAPACITY``).
TRACE_CAPACITY = 256


def _batch_fingerprint(urls: list[str]) -> str:
    """Short digest binding a pagination cursor to one exact batch."""
    joined = "\n".join(urls).encode("utf-8", "surrogatepass")
    return hashlib.sha256(joined).hexdigest()[:12]


def encode_page_cursor(urls: list[str], last_index: int) -> str:
    """Opaque keyset cursor: the last row already returned, fingerprinted.

    The REST surface pages by *position in the request batch* (the
    stable sort key of a classify/score/decisions response), so the
    cursor names the last returned row and the fingerprint refuses a
    cursor replayed against a different batch — the keyset analogue of
    Paper-Scanner's ``{date}|{id}`` cursors.
    """
    return f"{last_index}|{_batch_fingerprint(urls)}"


def decode_page_cursor(urls: list[str], cursor: str) -> int:
    """Validate ``cursor`` against ``urls``; return the next start index.

    Raises ``ValueError`` with an operator-readable reason on a cursor
    that is malformed, out of range, or minted for a different batch.
    """
    index_text, _, fingerprint = str(cursor).partition("|")
    try:
        last_index = int(index_text)
    except ValueError:
        raise ValueError(f"malformed page cursor {cursor!r}") from None
    if fingerprint != _batch_fingerprint(urls):
        raise ValueError(
            "page cursor was minted for a different url batch; "
            "send the same 'urls' list on every page"
        )
    if not 0 <= last_index < len(urls):
        raise ValueError(f"page cursor index {last_index} out of range")
    return last_index + 1


def parse_tcp_spec(spec: "str | tuple[str, int]") -> tuple[str, int]:
    """Parse a ``host:port`` TCP listener spec into ``(host, port)``.

    An omitted host (``:8642``) binds loopback — exposing the daemon
    beyond the machine is an explicit choice (``0.0.0.0:8642``), never
    a default.  Port ``0`` asks the kernel for a free port; the daemon
    resolves and reports the real one in its status block.
    """
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    text = str(spec)
    if ":" not in text:
        raise ValueError(
            f"TCP spec {text!r} must look like host:port (try 127.0.0.1:0)"
        )
    host, _, port_text = text.rpartition(":")
    return host or "127.0.0.1", int(port_text)


class DaemonStartupError(RuntimeError):
    """:func:`start_daemon` could not produce a serving daemon — the
    socket is taken, the detached process died at boot, or readiness
    timed out.  Subclasses ``RuntimeError`` for callers that still
    catch broadly."""


class DaemonNotRunningError(RuntimeError):
    """No live daemon is recorded for the socket (missing or stale
    pidfile)."""


class DaemonStopTimeout(RuntimeError):
    """The daemon acknowledged ``SIGTERM`` but outlived the stop
    deadline; it may still be draining — inspect its log and pidfile."""


def _utc_now() -> str:
    """ISO-8601 UTC timestamp with microseconds (sortable as a string)."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass
class _ModelState:
    """Everything one worker generation serves from."""

    identifier: ServingIdentifier
    checksum: str
    rollout: dict
    generation: int
    loaded_at: float


class ServingDaemon:
    """One daemon instance: config in, blocking :meth:`run` out.

    Construct then :meth:`run` in a dedicated process (foreground), or
    let :func:`start_daemon` do the fork-and-detach dance.  All
    filesystem artifacts the daemon creates (socket, pidfile) live next
    to ``socket_path`` and are removed on graceful shutdown.
    """

    def __init__(
        self,
        model_path: str | os.PathLike,
        socket_path: str | os.PathLike,
        workers: int = DEFAULT_WORKERS,
        http_port: int | None = None,
        pid_path: str | os.PathLike | None = None,
        tcp: "str | tuple[str, int] | None" = None,
        query_db: str | os.PathLike | None = None,
        log_json: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.model_path = Path(model_path)
        self.socket_path = Path(socket_path)
        self.workers = workers
        self.http_port = http_port
        #: Optional result index (a results.sqlite or a bulk run
        #: directory) exposed read-only via GET /v1/query/* on the
        #: HTTP front-end.  Opened per request: SQLite in WAL mode
        #: makes readers free, and a short-lived read transaction can
        #: never block a concurrently re-indexing bulk run.
        self.query_db = Path(query_db) if query_db is not None else None
        self.pid_path = Path(pid_path) if pid_path else pidfile_for(socket_path)
        #: Optional TCP front door: parsed at construction (so a bad
        #: spec fails fast in the caller's process), bound in run(),
        #: resolved into ``tcp_address`` before workers fork.
        self.tcp_spec = parse_tcp_spec(tcp) if tcp is not None else None
        self.tcp_address: tuple[str, int] | None = None
        self._state: _ModelState | None = None
        self._listener: socket.socket | None = None
        self._tcp_listener: socket.socket | None = None
        self._children: dict[int, int] = {}  # pid -> generation
        self._stop_requested = False
        self._hup_requested = False
        self._worker_stop = False  # set in children only
        self._supervisor_pid: int | None = None  # set in children at fork
        self._started_at = 0.0
        self._metrics = RequestMetrics()
        self._http_server: ThreadingHTTPServer | None = None
        # Fleet-shared fault-tolerance state.  _degraded (the crash-loop
        # flag any answering process must report) and the robustness
        # counters are created before run() forks, so every worker
        # updates the same shared slots.  Admission state is per worker
        # instead of one shared counter: each _spawn_worker allocates a
        # shared busy flag the child sets while holding a connection
        # (one connection per worker, so a held connection IS
        # occupancy).  The parent sums flags of live workers only —
        # a SIGKILLed worker's stale flag dies with its table entry,
        # where a global counter would leak an increment forever.
        self._degraded = multiprocessing.Value("i", 0)
        self._robustness = RobustnessCounters()
        self._child_busy: dict[int, object] = {}  # pid -> shared flag
        self._my_busy = None  # this worker's flag (children only)
        # Observability (docs/observability.md).  The span ring buffer
        # is fork-shared like the robustness counters: workers append
        # the spans of traced requests, the parent reads them back out
        # for `status --traces` / GET /v1/traces.  Drift counters need
        # the model's language set, so they are created in run() (and
        # replaced on reload — a new model starts a new baseline).
        self._spans = SpanLog(capacity=int(os.environ.get(
            "REPRO_TRACE_CAPACITY", TRACE_CAPACITY)))
        self._drift: DriftCounters | None = None
        self._drift_window = int(os.environ.get(
            "REPRO_DRIFT_WINDOW", DEFAULT_DRIFT_WINDOW_ROWS))
        #: Structured JSON event logging (--log-json or REPRO_LOG=json):
        #: every _log line becomes a {"event": "log"} record and
        #: lifecycle transitions emit typed events with trace ids.
        self.log_json = bool(log_json) or json_log_enabled()
        self._events = (
            EventLogger(sys.stderr, component="serve")
            if self.log_json else None
        )
        # Crash containment (parent only).  Env overrides exist so the
        # chaos tests can drive the loop at test speed instead of
        # waiting out production windows.
        self._crash_threshold = int(os.environ.get(
            "REPRO_SERVE_CRASH_THRESHOLD", CRASH_LOOP_THRESHOLD))
        self._crash_window = float(os.environ.get(
            "REPRO_SERVE_CRASH_WINDOW", CRASH_LOOP_WINDOW))
        self._backoff_initial = float(os.environ.get(
            "REPRO_SERVE_BACKOFF_INITIAL", RESPAWN_BACKOFF_INITIAL))
        self._backoff_max = float(os.environ.get(
            "REPRO_SERVE_BACKOFF_MAX", RESPAWN_BACKOFF_MAX))
        self._crash_times: deque[float] = deque()
        self._respawn_backoff = 0.0
        self._respawn_at = 0.0  # monotonic instant the backoff expires
        self._pending_respawns = 0
        # Serializes os.fork() against the HTTP threads: a fork while a
        # thread holds an I/O or logging lock would hand the child a
        # lock nobody in it will ever release.  Also serializes HTTP
        # batch dispatch, whose shared CompiledIdentifier row cache is
        # not thread-safe (socket workers are single-threaded processes
        # and need neither).
        self._fork_lock = threading.Lock()

    # -- logging ------------------------------------------------------------------

    def _log(self, message: str) -> None:
        """One timestamped line to stderr (the log file when detached).

        Under ``--log-json`` / ``REPRO_LOG=json`` the same line becomes
        a structured ``{"event": "log", "message": ...}`` record, so a
        fleet's logs stay machine-parseable without losing the prose.
        """
        if self._events is not None:
            self._events.emit("log", message=message,
                              role="worker" if self._is_worker else "parent")
            return
        print(f"[{_utc_now()}] repro-serve[{os.getpid()}] {message}",
              file=sys.stderr, flush=True)

    def _event(self, event: str, **fields) -> None:
        """Emit one typed lifecycle event (JSON mode only)."""
        if self._events is not None:
            self._events.emit(
                event,
                role="worker" if self._is_worker else "parent",
                **fields,
            )

    # -- model loading and the reload gate ----------------------------------------

    def _load_state(self, generation: int) -> _ModelState:
        """Map the artifact at ``model_path`` into a serving state."""
        identifier = load_identifier(self.model_path)
        with ArtifactFile(self.model_path) as artifact:
            checksum = artifact.checksum
        return _ModelState(
            identifier=identifier,
            checksum=checksum,
            rollout=dict(identifier.model.get("rollout", {})),
            generation=generation,
            loaded_at=time.time(),
        )

    def _make_drift(self, state: _ModelState) -> DriftCounters | None:
        """Fresh fork-shared drift counters for ``state``'s languages.

        Created (pre-fork) per model generation: a reloaded model
        starts a new baseline, and a replacement serving a different
        language set gets arrays of the right shape.
        """
        languages = [
            language.value
            for language in state.identifier.compiled.scorers
        ]
        if not languages:
            return None
        return DriftCounters(languages, window_rows=self._drift_window)

    def _observe_drift(self, batch: ScoredBatch) -> None:
        """Fold one scored batch's matrix columns into drift telemetry."""
        drift = self._drift
        if drift is not None:
            drift.observe(batch.columns())

    def _reload_gate(self, current: _ModelState) -> str | None:
        """Why the artifact at ``model_path`` must NOT replace ``current``.

        Returns ``None`` when the reload may proceed, else a
        human-readable refusal.  The gate exists so a fat-fingered
        ``cp`` cannot take down serving: the replacement must

        * parse as an artifact of the identifier ``model.kind``,
        * carry ``model.rollout`` metadata (created-at stamp, and the
          train-corpus fingerprint when the trainer recorded one), and
        * not be a rollback: its ``rollout.created_at`` must be >= the
          serving artifact's (ISO-8601 UTC strings compare correctly).

        An identical payload checksum is reported as a no-op refusal so
        operators see that their new file never actually changed.
        """
        try:
            with ArtifactFile(self.model_path) as artifact:
                model = artifact.model
                checksum = artifact.checksum
        except ArtifactError as error:
            return f"replacement does not parse: {error}"
        if model.get("kind") != MODEL_KIND:
            return (
                "replacement is not a language-identifier artifact "
                f"(kind={model.get('kind')!r})"
            )
        rollout = model.get("rollout") or {}
        if not rollout.get("created_at"):
            return (
                "replacement carries no rollout metadata "
                "(model.rollout.created_at); re-save it with a current "
                "repro train / ModelStore.save"
            )
        if checksum == current.checksum:
            return f"replacement is byte-identical to the serving artifact ({checksum[:12]}…)"
        serving_created = current.rollout.get("created_at")
        if serving_created and rollout["created_at"] < serving_created:
            return (
                f"replacement is older than the serving artifact "
                f"({rollout['created_at']} < {serving_created}); refusing "
                "the rollback — delete the daemon and start fresh to force it"
            )
        return None

    # -- request dispatch (shared by socket workers and the HTTP thread) -----------

    def _timed_dispatch(self, message: dict,
                        deadline: float | None = None,
                        transport: str = "unix") -> dict:
        """:meth:`_dispatch` plus per-worker request accounting.

        Every answered request lands in this process's
        :class:`~repro.store.metrics.RequestMetrics` (op counts, error
        count, latency histogram) — each worker owns its own instance
        (reset at fork), so ``serve status`` reports the traffic of the
        worker that answered it.  The metrics object itself is not
        thread-safe; both callers are already serialized — socket
        workers are single-threaded processes, and the parent's HTTP
        handlers dispatch under ``_fork_lock``.

        ``deadline`` is the request's expiry on *this process's*
        monotonic clock (converted from the frame header's budget at
        receive time).  It is checked before dispatch — refusing work
        nobody will wait for — and again after, so work that outlived
        the caller's budget reports ``deadline-exceeded`` rather than
        pretending the caller got the answer in time.
        """
        op = message.get("op")
        started = time.perf_counter()
        attempt = message.get("attempt")
        if isinstance(attempt, int) and attempt > 1:
            self._robustness.bump("retries_observed")
        if isinstance(op, str):
            faults.maybe_sleep("slow-handler", op=op)
        if deadline is not None and time.monotonic() >= deadline:
            self._robustness.bump("deadline_expiries")
            response = error_response(
                "deadline-exceeded",
                "request deadline expired before dispatch",
            )
        else:
            response = self._dispatch(message)
            if (
                deadline is not None
                and response.get("ok")
                and time.monotonic() >= deadline
            ):
                self._robustness.bump("deadline_expiries")
                response = error_response(
                    "deadline-exceeded",
                    "request completed after its deadline expired",
                )
        self._metrics.observe(
            op if isinstance(op, str) else "invalid",
            time.perf_counter() - started,
            ok=bool(response.get("ok")),
            transport=transport,
        )
        return response

    def _dispatch(self, message: dict) -> dict:
        """Answer one request against the current model state."""
        if not isinstance(message.get("op"), str):
            return error_response("bad-request", "request carries no 'op'")
        if message.get("v") != PROTOCOL_VERSION:
            return error_response(
                "protocol-version",
                f"daemon speaks protocol {PROTOCOL_VERSION}, "
                f"request carries v={message.get('v')!r}",
            )
        # Only the parent's stop flag gates dispatch: a *worker* that
        # began draining mid-request still answers that request for
        # real (the drain contract — in-flight work completes
        # byte-identically; only frames arriving after the stop get
        # the typed refusal, in _serve_connection's post-recv check).
        if self._stop_requested:
            return error_response("shutting-down", "daemon is shutting down")
        op = message["op"]
        if op == "ping":
            return ok_response(pid=os.getpid())
        if op == "status":
            return ok_response(**self._status_block())
        if op == "traces":
            limit = message.get("limit")
            if limit is not None and (
                not isinstance(limit, int) or limit < 1
            ):
                return error_response(
                    "bad-request", f"'limit' must be >= 1, got {limit!r}"
                )
            return ok_response(
                traces=self._spans.snapshot(limit=limit),
                recorded=self._spans.recorded,
                capacity=self._spans.capacity,
            )
        if op in ("reload", "stop"):
            # Workers forward the ask to the supervising parent, which
            # owns the generation handover / shutdown.  The supervisor
            # pid was captured at fork time: getppid() would name the
            # *reaper* (pid 1) if the parent died and we were orphaned,
            # and signalling that would be catastrophic.
            target = self._parent_pid()
            signum = signal.SIGHUP if op == "reload" else signal.SIGTERM
            if self._is_worker and os.getppid() != target:
                return error_response(
                    "internal",
                    "supervisor process is gone; this worker is orphaned "
                    "and will exit",
                )
            try:
                os.kill(target, signum)
            except (ProcessLookupError, PermissionError) as error:
                return error_response(
                    "internal", f"cannot signal supervisor {target}: {error}"
                )
            return ok_response(signalled=signal.Signals(signum).name,
                               pid=target)
        if op in ("classify", "score", "decisions"):
            urls = message.get("urls")
            if not isinstance(urls, list) or any(
                not isinstance(url, str) for url in urls
            ):
                return error_response(
                    "bad-request", f"op {op!r} requires 'urls': list[str]"
                )
            if len(urls) > MAX_BATCH_URLS:
                # Terminal, not retryable: the identical batch would be
                # rejected identically.  The caller must split it.
                return error_response(
                    "bad-request",
                    f"batch of {len(urls)} URLs exceeds the per-request "
                    f"limit of {MAX_BATCH_URLS}; split the batch",
                )
            return self._dispatch_batch(op, urls)
        return error_response("unknown-op", f"unsupported op {op!r}")

    def _dispatch_batch(self, op: str, urls: list[str]) -> dict:
        assert self._state is not None
        identifier = self._state.identifier
        try:
            # One scoring pass answers every batch op *and* feeds the
            # drift counters — decisions are score > 0 on the same
            # matrix (byte-identical to identifier.decisions, which
            # thresholds the identical scores_matrix), so observing
            # drift never costs a second matmul.  The matrix stays one
            # array until the response body is built from its columns.
            batch = identifier.scored(urls)
            with stage("drift"):
                self._observe_drift(batch)
            with stage("materialise"):
                if op == "classify":
                    body = {"results": [
                        {"url": url, "best": best, "positives": list(positives)}
                        for url, best, positives in zip(
                            urls, batch.best_codes, batch.positives
                        )
                    ]}
                elif op == "score":
                    body = {"scores": dict(
                        zip(batch.codes, batch.scores_dict().values())
                    )}
                else:
                    body = {"decisions": dict(
                        zip(batch.codes, batch.decisions_dict().values())
                    )}
            return ok_response(**body)
        except Exception as error:  # noqa: BLE001 - keep the worker alive
            self._log(f"internal error answering {op!r}: {error!r}")
            return error_response("internal", f"{type(error).__name__}: {error}")

    _is_worker = False

    def _parent_pid(self) -> int:
        """The supervising pid — captured at fork in workers, self in
        the parent."""
        if self._is_worker:
            assert self._supervisor_pid is not None
            return self._supervisor_pid
        return os.getpid()

    def _status_block(self) -> dict:
        """The status payload: who is answering, from which model."""
        assert self._state is not None
        state = self._state
        identifier = state.identifier
        compiled = identifier.compiled
        from repro.urls.tokenizer import tokenize_cached

        # The reference backend's token memo.  The fused backend
        # tokenises whole batches without a memo; its repeats show in
        # the interned-row memo's hits instead.
        cache_info = tokenize_cached.cache_info()
        return {
            "pid": os.getpid(),
            "role": "worker" if self._is_worker else "parent",
            # "degraded" = crash-loop containment active (respawns are
            # backing off); requests are still answered by whatever
            # capacity remains, parent included.
            "state": "degraded" if self._degraded.value else "ok",
            "generation": state.generation,
            "workers": self.workers,
            "inflight": self._inflight(),
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "http_port": self.http_port,
            "query_db": (
                str(self.query_db) if self.query_db is not None else None
            ),
            "tcp": (
                {"host": self.tcp_address[0], "port": self.tcp_address[1]}
                if self.tcp_address is not None else None
            ),
            "model": {
                "name": identifier.name,
                "algorithm": identifier.algorithm,
                "feature_set": identifier.feature_set,
                "path": str(self.model_path),
                "checksum": state.checksum,
                "n_features": identifier.model.get("n_features"),
                "rollout": state.rollout,
            },
            "requests": self._metrics.snapshot(),
            "robustness": self._robustness.snapshot(),
            "drift": (
                self._drift.snapshot() if self._drift is not None else None
            ),
            "traces": {
                "retained": len(self._spans),
                "recorded": self._spans.recorded,
                "capacity": self._spans.capacity,
            },
            "caches": {
                "interned_rows": compiled.cache_info,
                "tokenizer": {
                    "hits": cache_info.hits,
                    "misses": cache_info.misses,
                    "entries": cache_info.currsize,
                },
            },
        }

    # -- worker processes ----------------------------------------------------------

    def _spawn_worker(self, generation: int) -> int:
        """Fork one worker of ``generation`` over the current mapping.

        The fork is serialized against the HTTP threads via
        ``_fork_lock`` so the child never inherits a mid-critical-
        section lock; the child releases its inherited copy on exiting
        the ``with`` block.
        """
        busy_flag = multiprocessing.Value("i", 0)  # shared across the fork
        with self._fork_lock:
            pid = os.fork()
            if pid:
                self._children[pid] = generation
                self._child_busy[pid] = busy_flag
                return pid
        # Child: serve the listener until told to drain.
        self._is_worker = True
        self._supervisor_pid = os.getppid()
        self._children = {}
        self._child_busy = {}
        self._my_busy = busy_flag
        self._metrics = RequestMetrics()  # own the worker's request stats
        if self._http_server is not None:
            self._http_server.socket.close()  # inherited fd; never served here
            self._http_server = None
        signal.signal(signal.SIGTERM, self._worker_sigterm)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
        code = 0
        try:
            self._worker_loop()
        except Exception as error:  # noqa: BLE001
            self._log(f"worker crashed: {error!r}")
            code = 1
        os._exit(code)

    def _worker_sigterm(self, signum, frame) -> None:
        self._worker_stop = True

    def _listeners(self) -> list[socket.socket]:
        """Every bound front door (Unix always, TCP when configured)."""
        return [
            listener
            for listener in (self._listener, self._tcp_listener)
            if listener is not None
        ]

    def _transport_of(self, listener: socket.socket) -> str:
        return "tcp" if listener is self._tcp_listener else "unix"

    def _worker_loop(self) -> None:
        listeners = self._listeners()
        assert listeners
        # Non-blocking accept + select: one worker waits on *both* front
        # doors at once, and a sibling winning the race for a pending
        # connection surfaces as BlockingIOError, never a stall.
        # settimeout is per socket *object*, so this worker's setting
        # never disturbs the parent or its siblings.
        for listener in listeners:
            listener.settimeout(0)
        while not self._worker_stop:
            if os.getppid() != self._supervisor_pid:
                self._log("supervisor is gone; worker exiting")
                break  # orphaned: nobody will ever reload or stop us
            try:
                readable, _, _ = select.select(
                    listeners, [], [], SUPERVISE_INTERVAL
                )
            except InterruptedError:
                continue
            except OSError:
                break  # a listener closed under us during shutdown
            if not readable:
                continue
            try:
                connection, _ = readable[0].accept()
            except (BlockingIOError, socket.timeout, InterruptedError):
                continue  # a sibling won the race
            except OSError:
                break  # listener closed under us during shutdown
            transport = self._transport_of(readable[0])
            if transport == "tcp":
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            # A held connection is this worker's whole capacity (one
            # connection per worker); the parent sums these flags as
            # its admission signal and starts answering `overloaded`
            # when every live worker is occupied.
            self._my_busy.value = 1
            try:
                with connection:
                    self._serve_connection(connection, transport)
            finally:
                self._my_busy.value = 0

    def _serve_connection(self, connection: socket.socket,
                          transport: str = "unix") -> None:
        """Answer frames on one connection until the peer closes — or
        until this worker is told to drain.

        Keep-alive with pipelining: any number of request frames may
        already be queued in the stream; the worker reads, dispatches,
        and answers them strictly in order, echoing each request's
        correlation id (when it carried one) on the matching response —
        which is what lets an async client pair fan-in responses with
        fan-out requests on one connection.

        Drain semantics (graceful stop and the hot-reload handover): a
        retiring worker finishes the request it is answering, then
        keeps the connection open for :data:`DRAIN_NOTIFY_SECONDS` so
        one late frame gets a typed ``shutting-down`` answer instead of
        a reset.  ``shutting-down`` is retryable: the client replays on
        a fresh connection and lands on the replacement generation (or,
        on a full stop, surfaces the typed error when the retry budget
        runs out).

        The drain flag is polled only while *idle between frames*
        (``select`` below), never by timing out a frame mid-transfer —
        a short read would desync the length-prefixed stream.  Once a
        frame starts, it gets :data:`FRAME_IO_TIMEOUT` to complete;
        a peer stalling longer than that loses the connection.
        """
        connection.settimeout(FRAME_IO_TIMEOUT)
        drain_until: float | None = None
        while True:
            if self._worker_stop:
                if drain_until is None:
                    drain_until = time.monotonic() + DRAIN_NOTIFY_SECONDS
                elif time.monotonic() >= drain_until:
                    return  # notify window over; close at the boundary
            readable, _, _ = select.select(
                [connection], [], [], SUPERVISE_INTERVAL
            )
            if not readable:
                continue  # idle at a frame boundary; re-check drain flag
            try:
                frame = recv_frame_ex(connection)
            except TimeoutError:
                return  # peer stalled mid-frame; drop the connection
            except ConnectionClosed:
                return
            except FrameTooLargeError as error:
                self._send_best_effort(
                    connection, error_response("frame-too-large", str(error))
                )
                return
            except (WireError, OSError) as error:
                self._send_best_effort(
                    connection, error_response("bad-request", str(error))
                )
                return
            received = time.perf_counter()
            message = frame.message
            cid = frame.correlation_id
            op = message.get("op")
            trace_echo = (
                (frame.trace_id, new_span_id())
                if frame.trace_id is not None else None
            )
            if self._worker_stop:
                # The drain-notify answer: typed, retryable, no reset.
                self._send_best_effort(
                    connection,
                    error_response(
                        "shutting-down",
                        "worker is draining; retry on a new connection",
                    ),
                    op=op,
                    correlation_id=cid,
                    trace=trace_echo,
                )
                return
            faults.maybe_kill("worker-kill", op=op)
            deadline = (
                time.monotonic() + frame.deadline_ms / 1000.0
                if frame.deadline_ms is not None else None
            )
            if trace_echo is None:
                if not self._send_best_effort(
                    connection,
                    self._timed_dispatch(
                        message, deadline=deadline, transport=transport
                    ),
                    op=op,
                    correlation_id=cid,
                ):
                    return
                continue
            # Traced request: capture per-stage timings (the pipeline
            # marks extract/matmul inside dispatch), echo the trace id
            # with this server's span id, and record the finished span
            # in the fork-shared ring buffer.
            with capture_stages() as stages:
                stages["accept"] = time.perf_counter() - received
                with stage("dispatch"):
                    response = self._timed_dispatch(
                        message, deadline=deadline, transport=transport
                    )
                with stage("respond"):
                    sent = self._send_best_effort(
                        connection, response, op=op, correlation_id=cid,
                        trace=trace_echo,
                    )
            self._record_span(
                frame, trace_echo[1], transport, response, stages,
                time.perf_counter() - received,
            )
            if not sent:
                return

    def _record_span(self, frame, span_id: int, transport: str,
                     response: dict, stages: dict,
                     seconds: float) -> None:
        """Finish one traced request: ring-buffer span + JSON event."""
        op = frame.message.get("op")
        record = {
            "ts": round(time.time(), 6),
            "trace": frame.trace_id,
            "span": span_id,
            "parent": frame.span_id,
            "op": op if isinstance(op, str) else "invalid",
            "transport": transport,
            "pid": os.getpid(),
            "ok": bool(response.get("ok")),
            "ms": round(seconds * 1000.0, 3),
            "stages_ms": {
                name: round(value * 1000.0, 3)
                for name, value in stages.items()
            },
        }
        self._spans.append(record)
        self._event(
            "request", trace=frame.trace_id, span=span_id,
            op=record["op"], transport=transport, ok=record["ok"],
            ms=record["ms"],
        )

    def _send_torn_frame(self, connection: socket.socket,
                         message: dict) -> None:
        """Injected fault: send half a frame, then hard-close.

        Exercises the client's torn-frame path — a truncated body must
        surface as a dirty :class:`ConnectionClosed`, never as a parsed
        partial message or a hang.
        """
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        frame = len(body).to_bytes(4, "big") + body
        try:
            connection.sendall(frame[: max(5, len(frame) // 2)])
        except OSError:
            pass

    def _send_best_effort(self, connection: socket.socket, message: dict,
                          op: str | None = None,
                          correlation_id: int | None = None,
                          trace: tuple[str, int] | None = None) -> bool:
        if faults.should_fire("torn-frame", op=op) is not None:
            self._send_torn_frame(connection, message)
            return False
        trace_id, span_id = trace if trace is not None else (None, None)
        try:
            with stage("encode"):
                frame = encode_frame(message, correlation_id=correlation_id,
                                     trace_id=trace_id, span_id=span_id)
            with stage("send"):
                send_all(connection, frame)
            return True
        except FrameTooLargeError as error:
            # The *response* outgrew the frame cap (a batch near the
            # request limit can — results carry more bytes per URL than
            # the bare URLs did).  Tell the caller to split the batch
            # instead of crashing the worker.
            return self._send_best_effort(
                connection,
                error_response(
                    "frame-too-large",
                    f"response exceeds the frame cap; send smaller "
                    f"batches ({error})",
                ),
                correlation_id=correlation_id,
                trace=trace,
            )
        except OSError:
            return False  # peer went away mid-answer; drop the connection

    # -- HTTP front-end ------------------------------------------------------------

    def _bind_http(self) -> None:
        """Bind the HTTP listener and resolve ``http_port`` (no threads
        yet — workers fork after this, so their status blocks report
        the real port; the serving thread starts post-fork via
        :meth:`_start_http_thread`)."""
        daemon = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                daemon._log(f"http {self.address_string()} {format % args}")

            def _reply(self, status: int, payload: dict | str,
                       content_type: str | None = None) -> None:
                body = (
                    payload.encode("utf-8")
                    if isinstance(payload, str)
                    else (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
                )
                self.send_response(status)
                self.send_header(
                    "Content-Type",
                    content_type or (
                        "text/plain" if isinstance(payload, str)
                        else "application/json"
                    ),
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 - http.server API
                with daemon._fork_lock:
                    if self.path == "/healthz":
                        self._reply(200, "ok\n")
                    elif self.path == "/v1/status":
                        self._reply(200, ok_response(**daemon._status_block()))
                    elif self.path == "/metrics":
                        # The Prometheus scrape target: the same status
                        # block, rendered by the shared zero-dependency
                        # encoder (`serve status --prom` renders the
                        # identical text client-side).
                        self._reply(
                            200,
                            render_prometheus(daemon._status_block()),
                            content_type=PROM_CONTENT_TYPE,
                        )
                    elif self.path.rstrip("?") == "/v1/traces" or \
                            self.path.startswith("/v1/traces?"):
                        self._do_traces()
                    elif self.path.startswith("/v1/query/"):
                        self._do_query()
                    else:
                        self._reply(
                            404, error_response("unknown-op", self.path)
                        )

            def _do_traces(self) -> None:
                """Recent spans from the fork-shared ring buffer."""
                from urllib.parse import parse_qs, urlparse

                params = {
                    key: values[-1]
                    for key, values in
                    parse_qs(urlparse(self.path).query).items()
                }
                limit: int | None = None
                if "limit" in params:
                    try:
                        limit = int(params["limit"])
                        if limit < 1:
                            raise ValueError
                    except ValueError:
                        self._reply(400, error_response(
                            "bad-request",
                            f"limit must be >= 1, got {params['limit']!r}",
                        ))
                        return
                self._reply(200, ok_response(
                    traces=daemon._spans.snapshot(limit=limit),
                    recorded=daemon._spans.recorded,
                    capacity=daemon._spans.capacity,
                ))

            def _do_query(self) -> None:
                """Read-only result-index routes (``--query-db``).

                GET /v1/query/{status,counts,hist,lookup,search,rows}
                with URL query parameters; pagination reuses the
                index's own ``{score}|{rowid}|{fingerprint}`` keyset
                cursors, so a cursor refusal here is byte-for-byte the
                refusal the ``repro query`` CLI gives.
                """
                from urllib.parse import parse_qs, urlparse

                if daemon.query_db is None:
                    self._reply(404, error_response(
                        "unknown-op",
                        f"{self.path}: this daemon serves no result "
                        "index (start with --query-db)",
                    ))
                    return
                from repro.query import QueryError, open_index

                parsed = urlparse(self.path)
                op = parsed.path.rsplit("/", 1)[-1]
                params = {
                    key: values[-1]
                    for key, values in parse_qs(parsed.query).items()
                }
                language = params.get("language")
                limit = params.get("limit")
                cursor = params.get("cursor")
                try:
                    with open_index(daemon.query_db) as index:
                        if op == "status":
                            payload = index.status()
                        elif op == "counts":
                            payload = {"counts": index.counts(language)}
                        elif op == "hist":
                            payload = index.histogram(
                                language,
                                bins=int(params.get("bins", 20)),
                            )
                        elif op == "lookup":
                            if "url" not in params:
                                self._reply(400, error_response(
                                    "bad-request",
                                    "lookup requires ?url=",
                                ))
                                return
                            payload = {"rows": index.lookup(
                                params["url"],
                                prefix=params.get("prefix") in ("1", "true"),
                                limit=limit,
                            )}
                        elif op == "search":
                            if "q" not in params:
                                self._reply(400, error_response(
                                    "bad-request",
                                    "search requires ?q=",
                                ))
                                return
                            payload = index.search(
                                params["q"], limit=limit, cursor=cursor,
                            ).snapshot()
                        elif op == "rows":
                            payload = index.page(
                                language, limit=limit, cursor=cursor,
                            ).snapshot()
                        else:
                            self._reply(404, error_response(
                                "unknown-op", parsed.path
                            ))
                            return
                except (QueryError, ValueError) as error:
                    self._reply(
                        400, error_response("bad-request", str(error))
                    )
                    return
                self._reply(200, ok_response(**payload))

            def do_POST(self):  # noqa: N802 - http.server API
                with daemon._fork_lock:
                    self._do_post_locked()

            def _do_post_locked(self) -> None:
                op = self.path.rsplit("/", 1)[-1]
                if self.path != f"/v1/{op}" or op not in (
                    "classify", "score", "decisions",
                ):
                    self._reply(404, error_response("unknown-op", self.path))
                    return
                length = int(self.headers.get("Content-Length") or 0)
                from repro.store.wire import MAX_FRAME_BYTES

                if length > MAX_FRAME_BYTES:
                    self._reply(413, error_response(
                        "frame-too-large",
                        f"body announces {length} bytes; "
                        f"limit {MAX_FRAME_BYTES}",
                    ))
                    return
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                    if not isinstance(body, dict):
                        raise ValueError("body must be a JSON object")
                except (ValueError, json.JSONDecodeError) as error:
                    self._reply(400, error_response("bad-request", str(error)))
                    return
                # Keyset pagination: "limit" caps the rows answered per
                # page, "cursor" (from the previous page's next_cursor)
                # names the last row already returned.  Only the page's
                # slice of urls is dispatched, so a huge batch costs one
                # page of work per request instead of one giant frame.
                limit = body.pop("limit", None)
                cursor = body.pop("cursor", None)
                page: tuple[list, int] | None = None
                if limit is not None or cursor is not None:
                    urls = body.get("urls")
                    if not isinstance(urls, list):
                        self._reply(400, error_response(
                            "bad-request",
                            "pagination requires 'urls': list",
                        ))
                        return
                    if limit is None:
                        limit = len(urls)
                    if not isinstance(limit, int) or limit < 1:
                        self._reply(400, error_response(
                            "bad-request", f"'limit' must be >= 1, got "
                            f"{limit!r}",
                        ))
                        return
                    try:
                        start = (
                            decode_page_cursor(urls, cursor)
                            if cursor is not None else 0
                        )
                    except ValueError as error:
                        self._reply(400, error_response(
                            "bad-request", str(error)
                        ))
                        return
                    page = (urls, start)
                    body = {**body, "urls": urls[start:start + limit]}
                # The path, not the body, decides the op — a body "op"
                # must never widen a batch endpoint into stop/reload.
                response = daemon._timed_dispatch(
                    {**body, "v": PROTOCOL_VERSION, "op": op},
                    transport="http",
                )
                if page is not None and response.get("ok"):
                    urls, start = page
                    served = len(body["urls"])
                    end = start + served
                    response["total"] = len(urls)
                    response["offset"] = start
                    response["next_cursor"] = (
                        encode_page_cursor(urls, end - 1)
                        if served and end < len(urls) else None
                    )
                self._reply(200 if response.get("ok") else 400, response)

        server = ThreadingHTTPServer(("127.0.0.1", self.http_port), Handler)
        server.daemon_threads = True
        self.http_port = server.server_address[1]  # resolve port 0
        self._http_server = server

    def _start_http_thread(self) -> None:
        """Serve the bound HTTP listener from a parent daemon thread.

        Batch endpoints answer from the parent's mapping (swapped
        atomically on reload), and ``/healthz`` gives load balancers a
        poll target that does not consume a socket worker.
        """
        assert self._http_server is not None
        thread = threading.Thread(
            target=self._http_server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        thread.start()
        self._log(f"http front-end on 127.0.0.1:{self.http_port}")

    # -- the supervising parent ----------------------------------------------------

    def _bind(self) -> socket.socket:
        """Bind the Unix listener, evicting a stale socket file."""
        path = str(self.socket_path)
        if self.socket_path.exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except OSError:
                self._log(f"removing stale socket {path}")
                self.socket_path.unlink()
            else:
                raise RuntimeError(
                    f"another daemon is already serving on {path}"
                )
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(128)
        return listener

    def _bind_tcp(self) -> socket.socket:
        """Bind the TCP listener and resolve ``tcp_address``.

        Bound before workers fork so every worker inherits the listener
        and every status block reports the kernel-resolved port (spec
        port ``0`` means "pick one for me").
        """
        assert self.tcp_spec is not None
        listener = socket.create_server(
            self.tcp_spec, backlog=128, reuse_port=False
        )
        host, port = listener.getsockname()[:2]
        self.tcp_address = (host, port)
        return listener

    def run(self) -> int:
        """Serve until told to stop; returns the process exit code.

        Blocking — the caller dedicates this process to the daemon (the
        CLI's ``--foreground``); :func:`start_daemon` wraps it in a
        detached grandchild.
        """
        self._started_at = time.time()
        self._state = self._load_state(generation=1)
        self._drift = self._make_drift(self._state)  # pre-fork: shared
        self._listener = self._bind()
        if self.tcp_spec is not None:
            self._tcp_listener = self._bind_tcp()
        self.pid_path.write_text(f"{os.getpid()}\n")
        signal.signal(signal.SIGTERM, self._parent_signal)
        signal.signal(signal.SIGINT, self._parent_signal)
        signal.signal(signal.SIGHUP, self._parent_signal)
        if self.http_port is not None:
            self._bind_http()  # resolves the port workers will report
        self._log(
            f"serving {self._state.identifier.name} "
            f"(checksum {self._state.checksum[:12]}…) from {self.model_path} "
            f"on {self.socket_path} with {self.workers} workers"
        )
        self._event(
            "daemon-start",
            model=self._state.identifier.name,
            checksum=self._state.checksum,
            generation=self._state.generation,
            workers=self.workers,
            socket=str(self.socket_path),
        )
        if self.tcp_address is not None:
            self._log(
                f"tcp front door on "
                f"{self.tcp_address[0]}:{self.tcp_address[1]}"
            )
        for _ in range(self.workers):
            self._spawn_worker(self._state.generation)
        if self._http_server is not None:
            # Thread starts only after the initial forks; later forks
            # (reload, respawn) are serialized against the HTTP threads
            # via _fork_lock.
            self._start_http_thread()
        # The parent is the admission valve: when every worker is busy
        # (or dead), it accepts the connections nobody else will and
        # answers with typed `overloaded` instead of letting callers
        # hang in the listen backlog.  Its accept must never block —
        # a worker may win the race for a pending connection at any
        # moment — hence timeout 0 on the parent's socket objects.
        for listener in self._listeners():
            listener.settimeout(0)
        try:
            while not self._stop_requested:
                if self._hup_requested:
                    self._hup_requested = False
                    self._reload()
                self._reap(respawn=True)
                self._respawn_after_backoff()
                if self._saturated():
                    self._shed_load()
                    time.sleep(0.05)  # stay responsive while saturated
                else:
                    time.sleep(SUPERVISE_INTERVAL)
        finally:
            self._shutdown()
        return 0

    def _parent_signal(self, signum, frame) -> None:
        if signum == signal.SIGHUP:
            self._hup_requested = True
        else:
            self._stop_requested = True

    def _reap(self, respawn: bool) -> None:
        """Collect exited workers; replace unexpected current-gen deaths.

        Crash containment: every unexpected current-generation death
        lands in a sliding window.  Below :attr:`_crash_threshold`
        deaths per :attr:`_crash_window` seconds, the replacement forks
        immediately (a one-off crash costs one request).  At the
        threshold the daemon is crash-looping — most likely every
        respawn dies the same way — so replacements queue behind an
        exponential backoff (:meth:`_respawn_after_backoff`) and the
        shared ``degraded`` flag flips, surfacing the state in
        ``serve status`` while the parent keeps answering ping/status.
        """
        assert self._state is not None
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            generation = self._children.pop(pid, None)
            self._child_busy.pop(pid, None)  # stale busy flag dies here
            if (
                respawn
                and not self._stop_requested
                and generation == self._state.generation
            ):
                now = time.monotonic()
                self._crash_times.append(now)
                while (
                    self._crash_times
                    and now - self._crash_times[0] > self._crash_window
                ):
                    self._crash_times.popleft()
                self._robustness.mark_crash()
                if len(self._crash_times) >= self._crash_threshold:
                    self._pending_respawns += 1
                    self._respawn_backoff = min(
                        max(self._respawn_backoff * 2, self._backoff_initial),
                        self._backoff_max,
                    )
                    self._respawn_at = now + self._respawn_backoff
                    self._degraded.value = 1
                    self._log(
                        f"worker {pid} died; crash loop detected "
                        f"({len(self._crash_times)} deaths in "
                        f"{self._crash_window:.0f}s) — degraded, next "
                        f"respawn in {self._respawn_backoff:.1f}s"
                    )
                    self._event(
                        "crash-loop", worker=pid,
                        deaths=len(self._crash_times),
                        window_seconds=self._crash_window,
                        backoff_seconds=self._respawn_backoff,
                    )
                else:
                    self._log(f"worker {pid} died; respawning")
                    self._event("worker-death", worker=pid,
                                generation=generation)
                    self._robustness.bump("worker_respawns")
                    self._spawn_worker(self._state.generation)

    def _respawn_after_backoff(self) -> None:
        """Fork the respawns the crash-loop backoff was holding back."""
        assert self._state is not None
        if not self._pending_respawns or time.monotonic() < self._respawn_at:
            return
        count, self._pending_respawns = self._pending_respawns, 0
        self._degraded.value = 0
        self._log(f"backoff expired; respawning {count} worker(s)")
        for _ in range(count):
            self._robustness.bump("worker_respawns")
            self._spawn_worker(self._state.generation)

    # -- parent-side admission (back-pressure) -------------------------------------

    def _inflight(self) -> int | None:
        """Connections currently held by live workers (parent view;
        workers return None — only the parent holds the flag table)."""
        if self._is_worker:
            return None
        return sum(flag.value for flag in self._child_busy.values())

    def _saturated(self) -> bool:
        """True when no current-generation worker can accept a new
        connection — every live one is holding a connection, or none
        are alive (crash-loop backoff).  Approximate by design: the
        busy flags and the child table move under us, and a wrong
        ``True`` only converts a would-have-queued caller into a
        retryable ``overloaded``."""
        assert self._state is not None
        alive = busy = 0
        for pid, generation in self._children.items():
            if generation != self._state.generation:
                continue
            alive += 1
            flag = self._child_busy.get(pid)
            if flag is not None and flag.value:
                busy += 1
        return alive == 0 or busy >= alive

    def _shed_load(self) -> None:
        """Answer pending connections while saturated: typed
        ``overloaded`` for work, real answers for ping/status.

        Never silent queuing — a caller that would previously have sat
        in the listen backlog behind busy workers now gets a retryable
        refusal within one supervise tick.  Ping and status are
        answered for real (from the parent) so health checks and
        operators can still see a saturated or degraded daemon; one
        frame per connection, then close, so the parent never becomes
        a long-lived serving path.
        """
        budget = 64
        for listener in self._listeners():
            transport = self._transport_of(listener)
            while budget > 0:
                try:
                    connection, _ = listener.accept()
                except (BlockingIOError, socket.timeout, OSError):
                    break  # this listener's backlog is drained
                budget -= 1
                with connection:
                    try:
                        connection.settimeout(1.0)
                        frame = recv_frame_ex(connection)
                    except (WireError, OSError, TimeoutError):
                        continue
                    message = frame.message
                    op = message.get("op")
                    if op in ("classify", "score", "decisions"):
                        self._robustness.bump("overload_rejections")
                        response = error_response(
                            "overloaded",
                            f"all {self.workers} workers are busy; "
                            "retry with backoff",
                        )
                    else:
                        deadline = (
                            time.monotonic() + frame.deadline_ms / 1000.0
                            if frame.deadline_ms is not None else None
                        )
                        with self._fork_lock:
                            response = self._timed_dispatch(
                                message, deadline=deadline,
                                transport=transport,
                            )
                    self._send_best_effort(
                        connection, response, op=op,
                        correlation_id=frame.correlation_id,
                        trace=(
                            (frame.trace_id, new_span_id())
                            if frame.trace_id is not None else None
                        ),
                    )

    def _reload(self) -> None:
        """The SIGHUP path: gate, remap, hand the socket to new workers."""
        assert self._state is not None
        refusal = self._reload_gate(self._state)
        if refusal:
            self._log(f"reload refused: {refusal}")
            self._event("reload-refused", reason=refusal,
                        generation=self._state.generation)
            return
        try:
            state = self._load_state(self._state.generation + 1)
        except ArtifactError as error:
            self._log(f"reload refused: replacement failed to load: {error}")
            self._event("reload-refused", reason=str(error),
                        generation=self._state.generation)
            return
        old_children = [
            pid
            for pid, generation in self._children.items()
            if generation == self._state.generation
        ]
        self._state = state  # new forks and the HTTP thread see it now
        # A new model invalidates the old telemetry baselines: fresh
        # drift counters (created before the new generation forks, so
        # its workers share them) and an emptied span ring.  Old-gen
        # workers still draining hold the previous arrays — their last
        # few batches age out with them.
        self._drift = self._make_drift(state)
        self._spans.clear()
        for _ in range(self.workers):
            self._spawn_worker(state.generation)
        for pid in old_children:
            self._terminate(pid, signal.SIGTERM)
        self._log(
            f"reloaded generation {state.generation}: "
            f"{state.identifier.name} (checksum {state.checksum[:12]}…, "
            f"rollout {state.rollout.get('created_at')})"
        )
        self._event(
            "reload", generation=state.generation,
            model=state.identifier.name, checksum=state.checksum,
            rollout=state.rollout.get("created_at"),
        )

    def _terminate(self, pid: int, signum: int) -> None:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass

    def _shutdown(self) -> None:
        """Drain workers, then remove every file the daemon created."""
        self._log("shutting down")
        if self._http_server is not None:
            self._http_server.shutdown()
        for pid in list(self._children):
            self._terminate(pid, signal.SIGTERM)
        deadline = time.time() + DRAIN_TIMEOUT
        while self._children and time.time() < deadline:
            self._reap(respawn=False)
            time.sleep(0.05)
        for pid in list(self._children):
            self._log(f"worker {pid} did not drain; killing")
            self._terminate(pid, signal.SIGKILL)
        self._reap(respawn=False)
        for listener in self._listeners():
            listener.close()
        for path in (self.socket_path, self.pid_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._log("stopped")
        self._event("daemon-stop", uptime_seconds=round(
            time.time() - self._started_at, 3))


# -- process management (the CLI's serve start/stop/status/reload) ----------------


def pidfile_for(socket_path: str | os.PathLike) -> Path:
    """Conventional pidfile location: next to the socket, ``.pid`` added."""
    socket_path = Path(socket_path)
    return socket_path.with_name(socket_path.name + ".pid")


def read_pid(socket_path: str | os.PathLike) -> int | None:
    """Supervisor pid recorded for the daemon on ``socket_path``, if any."""
    try:
        return int(pidfile_for(socket_path).read_text().strip())
    except (OSError, ValueError):
        return None


def start_daemon(
    model_path: str | os.PathLike,
    socket_path: str | os.PathLike,
    workers: int = DEFAULT_WORKERS,
    http_port: int | None = None,
    log_path: str | os.PathLike | None = None,
    ready_timeout: float = 60.0,
    tcp: "str | tuple[str, int] | None" = None,
    query_db: str | os.PathLike | None = None,
    log_json: bool = False,
) -> int:
    """Start a detached daemon and wait until it answers ``ping``.

    Double-forks (so the daemon is reparented to init and never
    zombies), points stdout/stderr at ``log_path`` (default: the socket
    path + ``.log``), and blocks until the daemon is ready or
    ``ready_timeout`` elapses.  Returns the daemon's supervisor pid.

    Raises :class:`DaemonStartupError` — with the tail of the log file,
    which is where load failures such as a corrupt or version-mismatched
    artifact land — when the socket is taken, the daemon dies, or it
    misses the deadline.
    """
    from repro.store.client import DaemonClient, DaemonError

    if tcp is not None:
        parse_tcp_spec(tcp)  # fail in the caller, not the detached child
    socket_path = Path(socket_path)
    log_path = Path(log_path) if log_path else socket_path.with_name(
        socket_path.name + ".log"
    )
    # A daemon already answering on this socket would also answer our
    # readiness ping, masking the new daemon's bind failure — refuse
    # up front so "start" can never falsely report the old daemon as
    # serving the new model.
    try:
        with DaemonClient(socket_path, timeout=2.0) as probe:
            probe.ping()
    except DaemonError:
        pass  # nothing live on the socket; proceed
    else:
        raise DaemonStartupError(
            f"another daemon is already serving on {socket_path}; "
            "stop it first (repro serve stop) or pick another socket"
        )
    # Only log lines written after this point belong to this start.
    log_offset = log_path.stat().st_size if log_path.exists() else 0
    first = os.fork()
    if first == 0:
        os.setsid()
        second = os.fork()
        if second:
            os._exit(0)  # middle process: exit so the daemon reparents
        try:
            log = open(log_path, "ab", buffering=0)
            devnull = open(os.devnull, "rb")
            os.dup2(devnull.fileno(), 0)
            os.dup2(log.fileno(), 1)
            os.dup2(log.fileno(), 2)
            # Rebind the high-level streams over the redirected fds:
            # the inherited sys.stderr may wrap a captured/duplicated
            # fd (pytest, supervisors) instead of fd 2.
            sys.stdout = open(1, "w", buffering=1, closefd=False)
            sys.stderr = open(2, "w", buffering=1, closefd=False)
            code = ServingDaemon(
                model_path, socket_path, workers=workers,
                http_port=http_port, tcp=tcp, query_db=query_db,
                log_json=log_json,
            ).run()
        except BaseException as error:  # noqa: BLE001 - report then die
            print(f"daemon failed: {error!r}", file=sys.stderr, flush=True)
            code = 1
        os._exit(code)
    os.waitpid(first, 0)  # reap the middle process immediately

    def log_tail() -> str:
        """This start's log lines only (the file is append-mode and may
        carry a previous failed start's last words)."""
        try:
            with open(log_path) as handle:
                handle.seek(log_offset)
                return handle.read()[-2000:]
        except OSError:
            return ""

    deadline = time.time() + ready_timeout
    while time.time() < deadline:
        try:
            with DaemonClient(socket_path, timeout=5.0) as client:
                if client.ping():
                    pid = read_pid(socket_path)
                    assert pid is not None, "daemon is up but left no pidfile"
                    return pid
        except DaemonError:
            # Died at boot (corrupt / version-mismatched artifact, bad
            # socket path)?  The grandchild's last words are in the log.
            if "daemon failed:" in log_tail():
                raise DaemonStartupError(
                    f"daemon on {socket_path} died during startup; "
                    f"log tail:\n{log_tail()}"
                ) from None
            time.sleep(0.1)
    raise DaemonStartupError(
        f"daemon on {socket_path} did not become ready within "
        f"{ready_timeout:.0f}s; log tail:\n{log_tail()}"
    )


def signal_daemon(socket_path: str | os.PathLike, signum: int) -> int:
    """Send ``signum`` to the daemon's supervisor; returns its pid.

    Raises :class:`DaemonNotRunningError` when no pidfile exists or the
    recorded process is gone (stale pidfile).
    """
    pid = read_pid(socket_path)
    if pid is None:
        raise DaemonNotRunningError(
            f"no daemon pidfile for socket {socket_path} "
            f"(expected {pidfile_for(socket_path)})"
        )
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        raise DaemonNotRunningError(
            f"daemon pid {pid} recorded for {socket_path} is not running "
            "(stale pidfile?)"
        ) from None
    return pid


def stop_daemon(
    socket_path: str | os.PathLike, timeout: float = 30.0
) -> int:
    """Gracefully stop the daemon on ``socket_path``; returns its pid.

    Sends ``SIGTERM`` and waits until the pidfile disappears (the last
    thing a clean shutdown removes).  Raises
    :class:`DaemonNotRunningError` when nothing is running and
    :class:`DaemonStopTimeout` when the daemon ignores the deadline.
    """
    pid = signal_daemon(socket_path, signal.SIGTERM)
    deadline = time.time() + timeout
    pidfile = pidfile_for(socket_path)
    while time.time() < deadline:
        if not pidfile.exists():
            return pid
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid  # died without cleanup; stale files, but stopped
        time.sleep(0.05)
    raise DaemonStopTimeout(
        f"daemon pid {pid} did not stop within {timeout:.0f}s"
    )
