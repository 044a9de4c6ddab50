"""Micro-benchmarks of the hot paths: tokenisation, feature extraction,
prediction.

Not a paper table — engineering numbers a crawler operator cares about:
how many URLs per second can the classifier triage?  The prediction
benches time both inference backends on the same trained model —
``sparse`` is the seed's dict-walking reference path, ``compiled`` the
vectorized CSR×matmul backend — and assert their ``decisions()`` output
is byte-identical before timing anything.

The model-load benches time the two serialisation paths of the same
trained model — the deprecated whole-object pickle versus the
memory-mapped artifact of :mod:`repro.store` (which only parses the
header and vocabulary; the weight matrix is mapped, not read).

The serving benches time the two multi-process front-ends over the same
artifact: the one-shot ``score_urls`` pool (spins workers up and down
per call) versus one round-trip to a long-lived serving daemon whose
pre-forked workers keep the mapped model and caches warm
(:mod:`repro.store.daemon`); equivalence of their answers is asserted
before timing.

The bulk bench times the offline engine (:mod:`repro.bulk`) over a
sharded gzipped corpus at 1 and 4 workers; the recorded scaling ratio
is a *hardware* property (a single-core container cannot show a
multi-worker speedup), so the machine's usable core count is recorded
next to it.

The query benches time the analytical side (:mod:`repro.query`): what
``--sink sqlite`` costs over the plain TSV bulk run (jsonl shards plus
shard-by-shard ingestion into the result database), and the per-request
latency of a point lookup + first page against a built index.

A machine-readable summary (per-bench best seconds, URLs/sec, the
compiled-vs-sparse speedup, the artifact-vs-pickle load speedup, the
daemon-vs-pool serving speedup, and the bulk-engine throughput/scaling
numbers) is written to ``BENCH_core_throughput.json`` next to this
file so the perf trajectory can be tracked across PRs —
``docs/serving.md``'s and ``docs/bulk.md``'s capacity-planning
sections are keyed off these numbers.
"""

import json
import pathlib
import pickle

import pytest

from repro.urls.tokenizer import clear_token_cache, tokenize
from repro.urls.trigrams import url_trigrams

JSON_PATH = pathlib.Path(__file__).with_name("BENCH_core_throughput.json")

_results: dict[str, dict] = {}


@pytest.fixture(scope="module")
def urls(request):
    # Reuse the session context's test URLs.
    context = request.getfixturevalue("context")
    return context.data.odp_test.urls[:1000]


@pytest.fixture()
def record():
    """Record one bench's stats for the JSON summary."""

    def emit(benchmark, name: str, n_urls: int = 0) -> None:
        stats = getattr(benchmark, "stats", None)
        best = float(stats.stats.min) if stats is not None else None
        _results[name] = {
            "best_seconds": best,
            "urls_per_second": (n_urls / best) if best and n_urls else None,
        }

    return emit


@pytest.fixture(scope="session", autouse=True)
def _write_json_summary():
    yield
    timed = {
        name: stats
        for name, stats in _results.items()
        if stats.get("best_seconds") is not None
    }
    if not timed:
        return  # --benchmark-disable run: never clobber real numbers
    summary: dict = {}
    if JSON_PATH.exists():  # merge, so partial runs keep older entries
        try:
            summary = json.loads(JSON_PATH.read_text())
        except json.JSONDecodeError:
            summary = {}
    summary.update(timed)
    sparse = summary.get("nb_words_prediction_sparse", {}).get("best_seconds")
    compiled = summary.get("nb_words_prediction_compiled", {}).get("best_seconds")
    if sparse and compiled:
        summary["compiled_speedup_nb_words"] = sparse / compiled
    pickle_load = summary.get("model_load_pickle", {}).get("best_seconds")
    artifact_load = summary.get("model_load_artifact", {}).get("best_seconds")
    if pickle_load and artifact_load:
        summary["artifact_load_speedup_vs_pickle"] = pickle_load / artifact_load
    pool = summary.get("serve_pool_roundtrip", {}).get("best_seconds")
    daemon = summary.get("serve_daemon_roundtrip", {}).get("best_seconds")
    if pool and daemon:
        summary["daemon_vs_pool_speedup"] = pool / daemon
    JSON_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def test_tokenizer_throughput(benchmark, urls, record):
    result = benchmark(lambda: [tokenize(url) for url in urls])
    assert len(result) == len(urls)
    record(benchmark, "tokenize", len(urls))


def test_trigram_throughput(benchmark, urls, record):
    result = benchmark(lambda: [url_trigrams(url) for url in urls])
    assert len(result) == len(urls)
    record(benchmark, "trigrams", len(urls))


def test_word_extraction_throughput(benchmark, context, urls, record):
    extractor = context.pool.get("NB", "words").extractor
    result = benchmark(lambda: extractor.extract_many(urls))
    assert len(result) == len(urls)
    record(benchmark, "word_extraction", len(urls))


def test_nb_prediction_throughput_sparse(benchmark, context, urls, record):
    """The seed dict path: five string-keyed dict walks per URL."""
    identifier = context.pool.get("NB", "words")
    clear_token_cache()
    decisions = benchmark(lambda: identifier._sparse_decisions(urls))
    assert len(decisions) == 5
    record(benchmark, "nb_words_prediction_sparse", len(urls))


def test_nb_prediction_throughput_compiled(benchmark, context, urls, record):
    """The compiled backend: one CSR×dense matmul for the whole batch.

    Byte-identical output to the sparse path is asserted up front — the
    speedup only counts if the answers are exactly the paper's.
    """
    identifier = context.pool.get("NB", "words")
    assert identifier.compiled is not None, "NB/words should auto-compile"
    assert identifier.decisions(urls) == identifier._sparse_decisions(urls)
    decisions = benchmark(lambda: identifier.decisions(urls))
    assert len(decisions) == 5
    record(benchmark, "nb_words_prediction_compiled", len(urls))


def test_nb_prediction_throughput_compiled_cold(benchmark, context, urls, record):
    """The compiled backend with its per-URL row memo cleared every
    round: times the full extract → intern → matmul pipeline, so a
    regression there can't hide behind the memo."""
    identifier = context.pool.get("NB", "words")
    assert identifier.compiled is not None

    def run():
        identifier.compiled._row_cache.clear()
        return identifier.decisions(urls)

    decisions = benchmark(run)
    assert len(decisions) == 5
    record(benchmark, "nb_words_prediction_compiled_cold", len(urls))


def test_nb_prediction_throughput_compiled_cold_single(
    benchmark, context, urls, record
):
    """The per-call fixed cost of the compiled pipeline: 200 calls of one
    never-seen URL each (the per-URL crawler path, ``predict_languages``),
    row memo cleared every round."""
    identifier = context.pool.get("NB", "words")
    assert identifier.compiled is not None
    singles = [[url] for url in urls[:200]]

    def run():
        identifier.compiled._row_cache.clear()
        return [identifier.decisions(single) for single in singles]

    decisions = benchmark(run)
    assert len(decisions) == len(singles)
    record(benchmark, "nb_words_prediction_compiled_cold_single", len(singles))


def test_re_prediction_throughput_compiled(benchmark, context, urls, record):
    identifier = context.pool.get("RE", "words")
    assert identifier.compiled is not None
    assert identifier.decisions(urls) == identifier._sparse_decisions(urls)
    decisions = benchmark(lambda: identifier.decisions(urls))
    assert len(decisions) == 5
    record(benchmark, "re_words_prediction_compiled", len(urls))


def test_cctld_prediction_throughput(benchmark, record, urls):
    from repro.core.pipeline import LanguageIdentifier

    identifier = LanguageIdentifier(algorithm="ccTLD")
    decisions = benchmark(lambda: identifier.decisions(urls))
    assert len(decisions) == 5
    record(benchmark, "cctld_prediction", len(urls))


@pytest.fixture(scope="module")
def model_files(tmp_path_factory, context):
    """The same trained NB/words model saved both ways."""
    from repro.store import save_identifier

    identifier = context.pool.get("NB", "words")
    base = tmp_path_factory.mktemp("models")
    pickle_path = base / "model.pkl"
    artifact_path = base / "model.urlmodel"
    with open(pickle_path, "wb") as handle:
        pickle.dump(identifier, handle)
    save_identifier(identifier, artifact_path)
    return pickle_path, artifact_path


def test_model_load_pickle(benchmark, model_files, record):
    """The deprecated path: unpickle the whole identifier (five
    classifiers' weight dicts, extractor state, compiled backend)."""
    pickle_path, _ = model_files

    def load():
        with open(pickle_path, "rb") as handle:
            return pickle.load(handle)

    identifier = benchmark(load)
    assert identifier.compiled is not None
    record(benchmark, "model_load_pickle")


@pytest.fixture(scope="module")
def daemon_client(model_files, tmp_path_factory):
    """A live serving daemon over the benchmark artifact."""
    from repro.store.client import DaemonClient
    from repro.store.daemon import start_daemon, stop_daemon

    _, artifact_path = model_files
    socket_path = tmp_path_factory.mktemp("daemon") / "bench.sock"
    start_daemon(artifact_path, socket_path, workers=2)
    with DaemonClient(socket_path) as client:
        yield client
    stop_daemon(socket_path)


def test_serve_pool_roundtrip(benchmark, model_files, urls, record):
    """The one-shot path: every call pays pool spin-up, N artifact
    mmaps, and cold per-worker caches."""
    from repro.store import score_urls

    _, artifact_path = model_files
    results = benchmark(
        lambda: score_urls(artifact_path, urls, workers=2, batch_size=256)
    )
    assert len(results) == len(urls)
    record(benchmark, "serve_pool_roundtrip", len(urls))


def test_serve_daemon_roundtrip(benchmark, model_files, daemon_client, urls, record):
    """The long-lived path: one socket round-trip to pre-forked workers
    whose mapped model, tokenizer memo, and interned-row cache stay
    warm across requests.  Answers are asserted identical to the pool's
    before timing."""
    from repro.store import score_urls

    _, artifact_path = model_files
    assert daemon_client.classify(urls) == score_urls(
        artifact_path, urls, workers=1
    )
    results = benchmark(lambda: daemon_client.classify(urls))
    assert len(results) == len(urls)
    record(benchmark, "serve_daemon_roundtrip", len(urls))


@pytest.fixture(scope="module")
def tcp_endpoint(model_files, tmp_path_factory):
    """A dual-listener daemon sized for fan-in benches: 4 workers,
    Unix socket + ephemeral TCP port.  Yields ``(host, port)``."""
    from repro.store.client import DaemonClient
    from repro.store.daemon import start_daemon, stop_daemon

    _, artifact_path = model_files
    socket_path = tmp_path_factory.mktemp("tcpd") / "bench-tcp.sock"
    start_daemon(artifact_path, socket_path, workers=4, tcp="127.0.0.1:0")
    with DaemonClient(socket_path) as client:
        tcp = client.status()["tcp"]
    yield (tcp["host"], tcp["port"])
    stop_daemon(socket_path)


def test_serve_keepalive_vs_reconnect(model_files, tcp_endpoint, urls, benchmark):
    """What connection reuse buys: the same stream of small classify
    requests through one persistent TCP connection versus a fresh dial
    per request.  Small batches on purpose — connection setup is a
    fixed cost, so this is the regime where keep-alive matters most.
    Interleaved best-of-N; the ratio lands in the JSON summary as
    ``serve_keepalive_vs_reconnect.speedup``.
    """
    import timeit

    from repro.store.client import DaemonClient

    if not benchmark.enabled:
        pytest.skip("timing disabled (--benchmark-disable)")

    batch = urls[:50]
    requests_per_round = 10

    def reconnect_round():
        for _ in range(requests_per_round):
            with DaemonClient(tcp_endpoint) as client:
                client.classify(batch)

    with DaemonClient(tcp_endpoint) as persistent:
        assert persistent.classify(batch)

        def keepalive_round():
            for _ in range(requests_per_round):
                persistent.classify(batch)

        rounds = 10
        keepalive_times, reconnect_times = [], []
        for _ in range(rounds):
            keepalive_times.append(timeit.timeit(keepalive_round, number=1))
            reconnect_times.append(timeit.timeit(reconnect_round, number=1))
    keepalive, reconnect = min(keepalive_times), min(reconnect_times)
    n_urls = len(batch) * requests_per_round
    _results["serve_keepalive_vs_reconnect"] = {
        "best_seconds": keepalive,
        "urls_per_second": n_urls / keepalive,
        "reconnect_seconds": reconnect,
        "speedup": reconnect / keepalive,
    }
    assert reconnect > keepalive, (
        f"keep-alive should beat reconnect-per-request "
        f"(keep-alive {keepalive * 1e3:.2f} ms, "
        f"reconnect {reconnect * 1e3:.2f} ms per {requests_per_round} requests)"
    )


def test_serve_tcp_concurrent_rps(model_files, tcp_endpoint, urls, benchmark):
    """Sustained fan-in throughput: N concurrent TCP clients streaming
    batches against one daemon, versus the same total work pushed
    serially through a single connection.  Concurrency is a *hardware*
    property (one usable core cannot overlap anything), so the
    machine's core count is recorded next to the numbers
    (``serve_tcp_concurrent_rps`` in the JSON summary).
    """
    import os
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.store.client import DaemonClient

    if not benchmark.enabled:
        pytest.skip("timing disabled (--benchmark-disable)")

    clients = 4
    rounds_per_client = 8
    batch = urls[:250]

    def client_stream():
        with DaemonClient(tcp_endpoint) as client:
            for _ in range(rounds_per_client):
                client.classify(batch)

    def concurrent_run() -> float:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            for future in [pool.submit(client_stream) for _ in range(clients)]:
                future.result()
        return time.perf_counter() - started

    def serial_run() -> float:
        started = time.perf_counter()
        with DaemonClient(tcp_endpoint) as client:
            for _ in range(clients * rounds_per_client):
                client.classify(batch)
        return time.perf_counter() - started

    client_stream()  # warm the workers' caches before timing anything
    best_concurrent = min(concurrent_run() for _ in range(3))
    best_serial = min(serial_run() for _ in range(3))
    total_urls = len(batch) * rounds_per_client * clients
    _results["serve_tcp_concurrent_rps"] = {
        "best_seconds": best_concurrent,
        "urls_per_second": total_urls / best_concurrent,
        "single_connection_urls_per_second": total_urls / best_serial,
        "concurrent_clients": clients,
        "urls": total_urls,
        "available_cpus": len(os.sched_getaffinity(0)),
    }


def test_serve_robustness_overhead(model_files, daemon_client, urls):
    """The fault-tolerance plumbing must be invisible at request time:
    a round-trip under a full :class:`RetryPolicy` — deadline header
    encoded, decoded and checked twice server-side, admission gate
    consulted, ``attempt`` bookkeeping armed — may cost <5% over the
    plain client on the same daemon.  Interleaved best-of-N on one
    socket, same batch, so scheduler noise hits both sides equally;
    the ratio lands in the JSON summary as
    ``serve_robustness_overhead``.
    """
    import timeit

    from repro.store.client import DaemonClient, RetryPolicy

    policy = RetryPolicy(retries=4, backoff=0.05, deadline=600.0)
    with DaemonClient(daemon_client.socket_path, retry=policy) as guarded:
        assert guarded.classify(urls) == daemon_client.classify(urls)
        rounds = 30
        plain_times, guarded_times = [], []
        for _ in range(rounds):
            plain_times.append(
                timeit.timeit(lambda: daemon_client.classify(urls), number=1)
            )
            guarded_times.append(
                timeit.timeit(lambda: guarded.classify(urls), number=1)
            )
    plain, with_policy = min(plain_times), min(guarded_times)
    overhead = with_policy / plain - 1.0
    _results["serve_robustness_overhead"] = {
        "best_seconds": with_policy,
        "urls_per_second": len(urls) / with_policy,
        "overhead_vs_plain": overhead,
    }
    assert overhead < 0.05 or with_policy - plain < 200e-6, (
        f"deadline/retry plumbing costs {overhead:.1%} per daemon "
        f"round-trip (plain {plain * 1e3:.3f} ms, "
        f"with policy {with_policy * 1e3:.3f} ms)"
    )


def test_obs_overhead(model_files, daemon_client, urls):
    """Tracing and metrics must be near-free at request time: a traced
    round-trip — trace header encoded and echoed, per-stage timers
    armed, the finished span serialised into the fork-shared ring,
    drift banks updated — may cost <5% over the plain client on the
    same daemon.  Interleaved best-of-N, same batch, so scheduler noise
    hits both sides equally; the ratio lands in the JSON summary as
    ``obs_overhead``.
    """
    import timeit

    from repro.store.client import DaemonClient

    with DaemonClient(daemon_client.socket_path, tracing=True) as traced:
        assert traced.classify(urls) == daemon_client.classify(urls)
        assert traced.last_trace is not None
        rounds = 30
        plain_times, traced_times = [], []
        for _ in range(rounds):
            plain_times.append(
                timeit.timeit(lambda: daemon_client.classify(urls), number=1)
            )
            traced_times.append(
                timeit.timeit(lambda: traced.classify(urls), number=1)
            )
    plain, with_tracing = min(plain_times), min(traced_times)
    overhead = with_tracing / plain - 1.0
    _results["obs_overhead"] = {
        "best_seconds": with_tracing,
        "urls_per_second": len(urls) / with_tracing,
        "overhead_vs_plain": overhead,
    }
    assert overhead < 0.05 or with_tracing - plain < 200e-6, (
        f"tracing+metrics cost {overhead:.1%} per daemon round-trip "
        f"(plain {plain * 1e3:.3f} ms, "
        f"traced {with_tracing * 1e3:.3f} ms)"
    )


def test_api_dispatch_overhead(model_files, urls):
    """The ``repro.api`` facade must be free: opening a model through
    ``open_model()`` and predicting through the ``Predictor`` surface
    may cost <5% over calling the ``CompiledIdentifier`` kernel
    directly.  Measured as best-of-N so scheduler noise cannot hide (or
    fake) a dispatch regression; the ratio lands in the JSON summary as
    ``api_dispatch_overhead``.
    """
    import timeit

    from repro.api import open_model

    _, artifact_path = model_files
    predictor = open_model(artifact_path)
    kernel = predictor.compiled
    assert predictor.decisions(urls) == kernel.decisions(urls)

    # Interleave the two measurements so clock drift / noisy neighbors
    # hit both sides equally, and accept a negligible absolute delta as
    # an alternative to the relative bound — the per-call times are
    # sub-millisecond, where a shared runner's jitter alone can exceed
    # 5% of the min.
    rounds = 30
    direct_times, facade_times = [], []
    for _ in range(rounds):
        direct_times.append(timeit.timeit(lambda: kernel.decisions(urls), number=1))
        facade_times.append(
            timeit.timeit(lambda: predictor.decisions(urls), number=1)
        )
    direct, facade = min(direct_times), min(facade_times)
    overhead = facade / direct - 1.0
    _results["api_dispatch_overhead"] = {
        "best_seconds": facade,
        "urls_per_second": len(urls) / facade,
        "overhead_vs_direct": overhead,
    }
    assert overhead < 0.05 or facade - direct < 50e-6, (
        f"facade dispatch costs {overhead:.1%} over the compiled kernel "
        f"(direct {direct * 1e3:.3f} ms, facade {facade * 1e3:.3f} ms)"
    )


def test_bulk_scoring_scaling(benchmark, model_files, tmp_path_factory, context):
    """The offline engine: sharded bulk scoring at 1 vs 4 workers.

    Eight gzipped text shards are scored through ``repro.bulk.run``
    twice — single-process baseline, then a 4-worker pool — after a
    byte-parity assertion against the in-process ``predict_iter``
    path.  Both throughputs land in the JSON summary
    (``bulk_scoring_throughput`` for the 4-worker run,
    ``bulk_workers_scaling`` for the ratio), together with the
    measuring machine's usable core count: multi-worker scaling is a
    *hardware* property, and a single-core container cannot show one.
    """
    import gzip
    import os
    import time

    import repro.bulk as bulk

    if not benchmark.enabled:
        # The --benchmark-disable smoke run must neither pay for three
        # full bulk runs nor overwrite the tracked JSON entries with
        # unrepresentative timings (same contract as the fixture-based
        # benches, whose stats are simply absent when disabled).
        pytest.skip("timing disabled (--benchmark-disable)")

    _, artifact_path = model_files
    urls_pool = context.data.odp_test.urls
    shards = 8
    # Enough volume that per-run fixed costs (pool fork, model map)
    # are noise next to scoring time.
    per_shard = max(2000, len(urls_pool) // shards)
    shard_dir = tmp_path_factory.mktemp("bulk-bench")
    total = 0
    for index in range(shards):
        chunk = [
            urls_pool[(index + shards * i) % len(urls_pool)]
            for i in range(per_shard)
        ]
        total += len(chunk)
        with gzip.open(shard_dir / f"s{index}.txt.gz", "wt") as out:
            out.write("\n".join(chunk) + "\n")

    def run_with(workers: int, tag: str) -> float:
        # Cold tokenizer memo either way: the 1-worker baseline runs
        # in-process and must not inherit warmth the 4 freshly forked
        # workers never had.
        clear_token_cache()
        out_dir = tmp_path_factory.mktemp(f"bulk-bench-out-{tag}")
        started = time.perf_counter()
        report = bulk.run(
            artifact_path, shard_dir, out_dir, workers=workers
        )
        elapsed = time.perf_counter() - started
        assert report.rows_scored == total
        return elapsed

    # Parity before timing: the bulk path must answer exactly like the
    # in-process facade.
    from repro.api import open_model

    probe_dir = tmp_path_factory.mktemp("bulk-bench-probe")
    probe = bulk.run(artifact_path, shard_dir, probe_dir, workers=2)
    with open(os.path.join(probe_dir, probe.outputs[0])) as stream:
        first_rows = stream.read().splitlines()
    with gzip.open(shard_dir / "s0.txt.gz", "rt") as stream:
        first_urls = stream.read().split()
    predictor = open_model(artifact_path)
    expected = [p.tsv() for p in predictor.predict_iter(first_urls)]
    assert first_rows == expected

    single = run_with(1, "w1")
    multi = run_with(4, "w4")
    cpus = len(os.sched_getaffinity(0))
    _results["bulk_scoring_throughput"] = {
        "best_seconds": multi,
        "urls_per_second": total / multi,
        "workers": 4,
        "urls": total,
        "available_cpus": cpus,
    }
    _results["bulk_workers_scaling"] = {
        "best_seconds": single,
        "urls_per_second_1_worker": total / single,
        "speedup_4_workers_vs_1": single / multi,
        "available_cpus": cpus,
    }


def test_query_index_overhead(model_files, tmp_path_factory, context, benchmark):
    """What ``--sink sqlite`` costs over the plain TSV bulk run.

    The sqlite sink pays twice relative to TSV: its shards are jsonl
    (full score vectors + provenance, roughly 2x the TSV run by
    itself), and the parent re-parses every committed shard into the
    result database (rows + FTS5) as commits land.  At this bench
    scale — where vectorized scoring runs at ~70k URLs/s and the
    fixed costs dominate — the indexed run lands around 2–4x the TSV
    wall clock; the recorded ``overhead_vs_tsv`` tracks that ratio so
    a regression in the ingest path (e.g. an accidental per-shard
    table scan) shows up as a jump, and ``check_bench.py`` gates the
    absolute ``best_seconds`` against the committed baseline.
    Interleaved best-of-N, byte-parity of the index's aggregates
    against the run's own summary asserted before recording.
    """
    import gzip
    import time

    import repro.bulk as bulk
    from repro.query import open_index

    if not benchmark.enabled:
        pytest.skip("timing disabled (--benchmark-disable)")

    _, artifact_path = model_files
    urls_pool = context.data.odp_test.urls
    shards = 8
    per_shard = max(2000, len(urls_pool) // shards)
    shard_dir = tmp_path_factory.mktemp("query-bench")
    total = 0
    for index in range(shards):
        chunk = [
            urls_pool[(index + shards * i) % len(urls_pool)]
            for i in range(per_shard)
        ]
        total += len(chunk)
        with gzip.open(shard_dir / f"s{index}.txt.gz", "wt") as out:
            out.write("\n".join(chunk) + "\n")

    def run_with(sink: str, tag: str):
        clear_token_cache()
        out_dir = tmp_path_factory.mktemp(f"query-bench-out-{tag}")
        started = time.perf_counter()
        report = bulk.run(
            artifact_path, shard_dir, out_dir, workers=2, sink=sink
        )
        elapsed = time.perf_counter() - started
        assert report.rows_total == total
        return out_dir, report, elapsed

    rounds = 3
    tsv_times, sqlite_times = [], []
    indexed = None
    for round_index in range(rounds):
        # Interleave so scheduler noise hits both sinks equally.
        _, _, elapsed = run_with("tsv", f"tsv{round_index}")
        tsv_times.append(elapsed)
        out_dir, report, elapsed = run_with("sqlite", f"sq{round_index}")
        sqlite_times.append(elapsed)
        indexed = (out_dir, report)

    out_dir, report = indexed
    with open_index(out_dir) as result_index:
        assert result_index.status()["rows"] == total
        assert result_index.counts() == report.summary["best"]

    tsv_best, sqlite_best = min(tsv_times), min(sqlite_times)
    overhead = sqlite_best / tsv_best - 1.0
    _results["query_index_overhead"] = {
        "best_seconds": sqlite_best,
        "urls_per_second": total / sqlite_best,
        "tsv_seconds": tsv_best,
        "overhead_vs_tsv": overhead,
        "urls": total,
    }
    assert overhead < 8.0, (
        f"indexed bulk run costs {overhead:.0%} over the TSV run "
        f"(tsv {tsv_best:.3f} s, sqlite {sqlite_best:.3f} s) — the "
        "ingest path has regressed far beyond its measured 2-4x band"
    )


@pytest.fixture(scope="module")
def query_index_dir(model_files, tmp_path_factory, context):
    """One committed ``--sink sqlite`` run to serve the lookup bench."""
    import gzip

    import repro.bulk as bulk

    _, artifact_path = model_files
    urls_pool = context.data.odp_test.urls
    shards = 4
    per_shard = max(2000, len(urls_pool) // shards)
    shard_dir = tmp_path_factory.mktemp("query-lookup-shards")
    probe_url = None
    for index in range(shards):
        chunk = [
            urls_pool[(index + shards * i) % len(urls_pool)]
            for i in range(per_shard)
        ]
        if probe_url is None:
            probe_url = chunk[len(chunk) // 2]
        with gzip.open(shard_dir / f"s{index}.txt.gz", "wt") as out:
            out.write("\n".join(chunk) + "\n")
    out_dir = tmp_path_factory.mktemp("query-lookup-run")
    bulk.run(artifact_path, shard_dir, out_dir, workers=2, sink="sqlite")
    return out_dir, probe_url


def test_query_lookup_latency(benchmark, query_index_dir, record):
    """One analytical round against a built index: a point URL lookup
    through ``idx_results_url`` plus a 50-row first page through the
    score index.  Both are keyset/index range scans, so this latency
    is what a dashboard pays per request — independent of index size
    (the EXPLAIN QUERY PLAN suite holds the no-table-scan property;
    this bench tracks the constant factor)."""
    from repro.query import open_index

    out_dir, probe_url = query_index_dir
    with open_index(out_dir) as result_index:

        def probe():
            hits = result_index.lookup(probe_url)
            page = result_index.page(limit=50)
            return hits, page

        hits, page = benchmark(probe)
        assert hits and hits[0]["url"] == probe_url
        assert len(page.rows) == 50
        assert page.next_cursor is not None
    record(benchmark, "query_lookup_latency")


def test_model_load_artifact(benchmark, model_files, urls, record):
    """The artifact path: parse header + vocabulary, mmap the weights.

    Equivalence is asserted before timing — the loaded model must answer
    exactly like the pickled original.
    """
    from repro.store import load_identifier

    pickle_path, artifact_path = model_files
    with open(pickle_path, "rb") as handle:
        reference = pickle.load(handle)
    loaded = load_identifier(artifact_path)
    assert loaded.decisions(urls[:200]) == reference.decisions(urls[:200])

    loaded = benchmark(lambda: load_identifier(artifact_path))
    assert loaded.compiled is not None
    record(benchmark, "model_load_artifact")
