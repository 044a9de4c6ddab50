"""The ``serve-batch`` workload: closed-loop 1000-URL requests to a
2-worker daemon.

The daemon is started with ``repro serve start``, in a process of its
own, and driven only through the public synchronous
:class:`DaemonClient` over the Unix socket.  In a traced run the
clients stamp trace ids, the daemon records per-stage spans in its ring
buffer, and the spans read back through ``traces()`` become children of
the benchmark's own request spans.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import threading
import time

from harness import (
    DAEMON_WORKERS,
    LOAD_PARALLELISM,
    PROGRAM,
    ROOT,
    descendants,
    endless_unique,
    peak_rss_kb,
    program_env,
    quantile,
    settle,
    unique_urls,
    wait_gone,
)

#: Daemon starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: URLs per ``serve-batch`` request; every ``BATCH_SCORE_EVERY``-th
#: request is ``score``, the others ``classify``.
BATCH_URLS = 1000
BATCH_SCORE_EVERY = 4

#: Responses kept for the output check: every n-th request.
SAMPLE_EVERY = 8

#: Spans the daemon's ring buffer keeps in a traced run.
TRACE_RING = 20000
#: Requests per client before the measurement: 70k URLs per worker
#: fill its 65,536-row memo.
FILL_REQUESTS = 70
#: Requests per client per second of ``--seconds``.
BATCH_REQUESTS_PER_S = 9
#: A client thread that has not finished by then is an error.
CLIENT_TIMEOUT_S = 600.0

SETUP_URL = "http://www.blumenhaus-mueller.de/garten/rosen"


class Daemon:
    """One daemon started with ``repro serve start``.

    The command returns once the daemon answers ``ping``; the daemon
    itself is detached, so the supervisor and its workers hold the
    program's memory only, none of the benchmark's.
    """

    def __init__(self, model, workdir) -> None:
        self.model = model
        self.socket = workdir / "d.sock"
        self.pid: int | None = None
        self.endpoint = str(self.socket)
        self.ready_s = 0.0

    def start(self) -> None:
        started = time.perf_counter()
        done = subprocess.run(
            [*PROGRAM, "serve", "start", "--model", str(self.model),
             "--socket", str(self.socket), "--workers", str(DAEMON_WORKERS)],
            env=program_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=120,
        )
        self.ready_s = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"repro serve start failed: {done.stderr}")
        # "daemon <pid> serving <model> on <socket>"
        self.pid = int(done.stdout.split()[1])

    def members(self) -> list[int]:
        if self.pid is None:
            return []
        return [self.pid, *descendants(self.pid)]

    def rss_kb(self) -> int:
        """Peak resident memory summed over supervisor and workers."""
        return sum(peak_rss_kb(pid) for pid in self.members())

    def stop(self) -> None:
        from repro.store import stop_daemon

        if self.pid is None:
            return
        pids = self.members()
        try:
            stop_daemon(self.socket, timeout=30.0)
        except (RuntimeError, OSError):
            pass
        if not wait_gone(pids, 15.0):
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            wait_gone(pids, 5.0)
        self.pid = None


def start_measured(run) -> Daemon:
    """Start the daemon ``SETUP_SAMPLES`` times, timing artifact load
    plus start up to the first answered ``classify``; keep the last."""
    from repro.store import DaemonClient, DaemonError

    samples, ready = [], []
    daemon = None
    for attempt in range(SETUP_SAMPLES):
        daemon = Daemon(run.model, run.workdir)
        run.daemons.append(daemon)
        started = time.perf_counter()
        daemon.start()
        rows = None
        try:
            with DaemonClient(daemon.endpoint) as client:
                rows = client.classify([SETUP_URL])
        except DaemonError as error:
            run.tally.check("setup", False, f"first request failed: {error}")
        samples.append(time.perf_counter() - started)
        ready.append(daemon.ready_s)
        if rows is not None:  # checked outside the timed start
            run.expect_classify("setup", [SETUP_URL], rows)
        if attempt < SETUP_SAMPLES - 1:
            daemon.stop()
    run.setup_samples.extend(samples)
    run.layer_values.setdefault("daemon.ready_s", []).extend(ready)
    return daemon


# -- daemon spans -------------------------------------------------------------------


def attach_server_span(run, parent: int, span: dict) -> None:
    """Make the daemon span ``span`` a child of the client span
    ``parent`` it answered.

    The daemon's stage timings become child spans laid out in stage
    order: accept, dispatch (extract and matmul inside it), respond.
    """
    tracer = run.tracer
    end = span["ts"]
    start = end - span["ms"] / 1000.0
    rid = tracer.spans[parent]["rid"]
    request = tracer.add("daemon.request", start, end, parent, rid)
    stages = span.get("stages_ms", {})
    cursor = start
    for name in ("accept", "dispatch", "respond"):
        seconds = stages.get(name, 0.0) / 1000.0
        sid = tracer.add(f"daemon.{name}", cursor, cursor + seconds,
                         request, rid)
        if name == "dispatch":
            inner = cursor
            for stage in ("extract", "matmul"):
                length = stages.get(stage, 0.0) / 1000.0
                tracer.add(f"pipeline.{stage}", inner, inner + length,
                           sid, rid)
                inner += length
        cursor += seconds


# -- serve-batch --------------------------------------------------------------------


def _closed_loop(run, clients, sources, requests: int, phase: str,
                 traced: bool = False) -> list:
    """Each client sends ``requests`` 1000-URL requests from its own
    source, the next as soon as the last is answered.  Records are
    ``(client, index, op, sent, done, ok, urls, result, trace, gap)``.

    A fixed amount of work, not a fixed time: the row memo's eviction
    cost runs in cycles of inserts, so equal work per worker makes
    every run cover the same cycles.  With ``traced``, every other
    group of ``BATCH_SCORE_EVERY`` requests (the whole operation mix)
    carries a trace id, so traced and untraced requests meet the same
    phases of that cycle.
    """
    from repro.store import DaemonError

    records: list = []

    def drive(slot: int) -> None:
        client = clients[slot]
        previous = None
        for index in range(requests):
            if traced:
                client.tracing = (index // BATCH_SCORE_EVERY) % 2 == 1
            urls = list(itertools.islice(sources[slot], BATCH_URLS))
            op = ("score" if index % BATCH_SCORE_EVERY == BATCH_SCORE_EVERY - 1
                  else "classify")
            sent = time.perf_counter()
            result, ok = None, True
            try:
                if op == "score":
                    result = client.score(urls)
                else:
                    result = client.classify(urls)
            except DaemonError as error:
                ok = False
                run.tally.problems.append(f"{phase}: {error}")
            done = time.perf_counter()
            keep = index % SAMPLE_EVERY == 0
            records.append((
                slot, index, op, sent, done, ok,
                urls if keep else None, result if keep else None,
                client.last_trace if client.tracing else None,
                None if previous is None else sent - previous,
            ))
            previous = done

    threads = [threading.Thread(target=drive, args=(slot,), daemon=True)
               for slot in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CLIENT_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"{phase}: a client thread did not finish")
    run.tally.count(phase, len(records),
                    sum(1 for record in records if not record[5]))
    for record in records:
        if record[6] is not None and record[7] is not None:
            if record[2] == "score":
                run.expect_scores(phase, record[6], record[7])
            else:
                run.expect_classify(phase, record[6], record[7])
    return records


def _batch_stats(records) -> dict:
    """Throughput and latency of one closed loop."""
    answered = [r for r in records if r[5]]
    start = min(r[3] for r in records)
    end = max(r[4] for r in records)
    latencies = [(r[4] - r[3]) * 1000.0 if r[5] else float("inf")
                 for r in records]
    gaps = [r[9] * 1000.0 for r in records if r[9] is not None]
    return {
        "urls_per_s": len(answered) * BATCH_URLS / (end - start),
        "requests_per_s": len(answered) / (end - start),
        "p50": quantile(latencies, 0.5),
        "p95": quantile(latencies, 0.95),
        "p99": quantile(latencies, 0.99),
        "requests": len(records),
        "gap_p99": quantile(gaps, 0.99) if gaps else 0.0,
    }


def batch_sources(seed: int, clients: int) -> list:
    """One endless stream of never-repeating URLs per client."""
    base = unique_urls(seed, 100000, offset=3)
    return [endless_unique(base[slot::clients]) for slot in range(clients)]


def batch_requests(seconds: float) -> int:
    """Requests per client for a measurement of about ``seconds`` on
    the host the bounds were set on."""
    return max(2 * BATCH_SCORE_EVERY, round(seconds * BATCH_REQUESTS_PER_S))


def serve_batch(run) -> None:
    from repro.store import DaemonClient

    if run.trace:
        os.environ["REPRO_TRACE_CAPACITY"] = str(TRACE_RING)
    daemon = start_measured(run)
    sources = batch_sources(run.seed, LOAD_PARALLELISM)
    settle()
    clients = [DaemonClient(daemon.endpoint) for _ in range(LOAD_PARALLELISM)]
    try:
        for client in clients:  # pin one connection per worker
            client.ping()
        # Fill both workers' row memos first: the run then measures a
        # long-lived daemon, where every URL misses and evicts.
        _closed_loop(run, clients, sources, FILL_REQUESTS, "batch-fill")
        requests = batch_requests(run.seconds)
        if run.trace:
            stats = _traced_batch(run, clients, sources, requests)
        else:
            stats = _batch_stats(
                _closed_loop(run, clients, sources, requests, "batch"))
            run.end_to_end["latency_p50_ms"] = stats["p50"]
            run.end_to_end["latency_p95_ms"] = stats["p95"]
            run.end_to_end["ops_per_s"] = stats["requests_per_s"]
            run.end_to_end["urls_per_s"] = stats["urls_per_s"]
            run.end_to_end["rss_mb"] = daemon.rss_kb() / 1024.0
        run.report("batch.urls_per_s", stats["urls_per_s"], "1/s")
        run.report("batch.request_p50_ms", stats["p50"], "ms")
        run.report("batch.request_p95_ms", stats["p95"], "ms")
        run.report("batch.request_p99_ms", stats["p99"], "ms")
        run.report("batch.requests", stats["requests"], "count")
        if run.trace:
            run.request_p50_ms = stats["p50"]
        run.layer_values["generator.late_p99_ms"] = [stats["gap_p99"]]
        run.daemon_counters(clients[0].status())
    finally:
        for client in clients:
            client.close()


def _traced_batch(run, clients, sources, requests: int) -> dict:
    """Traced and untraced groups of requests interleave; the tracing
    overhead is their mean latency ratio.  Returns the figures of the
    whole loop."""
    records = _closed_loop(run, clients, sources, requests, "batch-traced",
                           traced=True)
    for client in clients:
        client.tracing = False

    def mean_ms(subset) -> float:
        return sum(r[4] - r[3] for r in subset) * 1000.0 / len(subset)

    with_trace = [r for r in records if r[8] is not None]
    without = [r for r in records if r[8] is None]
    run.layer_values["trace.overhead_frac"] = [
        mean_ms(with_trace) / mean_ms(without) - 1.0]
    attach_batch_spans(run, clients[0], with_trace)
    return _batch_stats(records)


def attach_batch_spans(run, client, records) -> None:
    """Client request spans, each with the daemon span that answered
    it (paired by trace id)."""
    offset = time.time() - time.perf_counter()
    by_trace = {t["trace"]: t for t in client.traces()}
    for slot, index, op, sent, done, ok, _, _, trace, _ in records:
        parent = run.tracer.add(f"client.{op}", sent + offset, done + offset,
                                None, rid=index * LOAD_PARALLELISM + slot,
                                urls=BATCH_URLS)
        span = by_trace.get(trace["trace_id"]) if trace else None
        if span is not None:
            attach_server_span(run, parent, span)


def daemon_probe(run, urls: list[str], requests: int) -> None:
    """Closed-loop traced 1000-URL requests from one client, so a
    workload without a daemon of its own still reports the serving
    layers (measured on that workload's URLs)."""
    from repro.store import DaemonClient

    os.environ["REPRO_TRACE_CAPACITY"] = str(TRACE_RING)
    daemon = start_measured(run)
    source = itertools.cycle(urls)
    with DaemonClient(daemon.endpoint, tracing=True) as client:
        records = _closed_loop(run, [client], [source], requests,
                               "probe-serve")
        attach_batch_spans(run, client, records)
        run.daemon_counters(client.status())
    daemon.stop()
