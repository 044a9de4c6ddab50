"""Per-layer numbers of a traced run.

Two sources feed them.  Spans: the benchmark's own spans around calls
into the program, plus the daemon's per-stage spans read back through
``traces()``.  Direct calls: each layer's public function is called
in-process on the workload's own request batches, replayed in order
through a freshly loaded model, so memo hits are the ones the workload
produces.
"""

from __future__ import annotations

import time

from harness import median

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("artifact.load_ms", "ms", "lower"),
    ("daemon.ready_s", "s", "lower"),
    ("daemon.accept_ms", "ms", "lower"),
    ("daemon.dispatch_ms", "ms", "lower"),
    ("daemon.respond_ms", "ms", "lower"),
    ("daemon.unattributed_ms", "ms", "lower"),
    ("client.overhead_ms", "ms", "lower"),
    ("client.retries", "count", "lower"),
    ("wire.response_bytes_per_url", "B", "lower"),
    ("wire.encode_ms_per_1k", "ms", "lower"),
    ("pipeline.extract_ms_per_1k", "ms", "lower"),
    ("pipeline.matmul_ms_per_1k", "ms", "lower"),
    ("pipeline.row_cache_hit_frac", "frac", "higher"),
    ("urls.token_cache_hit_frac", "frac", "higher"),
    ("serve.materialise_ms_per_1k", "ms", "lower"),
    ("metrics.drift_observe_ms_per_1k", "ms", "lower"),
    ("api.predict_ms_per_1k", "ms", "lower"),
    ("bulk.tsv_urls_per_s", "1/s", "higher"),
    ("bulk.sqlite_urls_per_s", "1/s", "higher"),
    ("bulk.read_s", "s", "lower"),
    ("bulk.format_tsv_s", "s", "lower"),
    ("bulk.format_jsonl_s", "s", "lower"),
    ("bulk.commit_hash_s", "s", "lower"),
    ("bulk.shard_s_p50", "s", "lower"),
    ("bulk.shard_s_max", "s", "lower"),
    ("bulk.worker_busy_frac", "frac", "higher"),
    ("ingest.rows_per_s", "1/s", "higher"),
    ("results.lookup_ms", "ms", "lower"),
    ("results.page_ms", "ms", "lower"),
    ("results.search_ms", "ms", "lower"),
    ("results.counts_ms", "ms", "lower"),
    ("results.hist_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("generator.late_p99_ms", "ms", "lower"),
)

#: Span name behind each metric read from span durations (ms).
_SPAN_DURATIONS = {
    "daemon.accept_ms": "daemon.accept",
    "daemon.dispatch_ms": "daemon.dispatch",
    "daemon.respond_ms": "daemon.respond",
    "results.lookup_ms": "results.lookup",
    "results.page_ms": "results.page",
    "results.search_ms": "results.search",
    "results.counts_ms": "results.counts",
    "results.hist_ms": "results.histogram",
}


def direct_calls(run, batches: list[list[str]], ops: list[str]) -> None:
    """Call each in-process layer on ``batches`` (with the wire
    operation ``ops[i]`` of batch ``i``) and record per-1k costs."""
    from repro.api import open_model
    from repro.obs.trace import capture_stages
    from repro.store import load_identifier, score_batch
    from repro.store.metrics import DriftCounters
    from repro.store.wire import encode_frame, ok_response
    from repro.urls.tokenizer import clear_token_cache, tokenize_bytes_cached

    tracer = run.tracer
    values = run.layer_values
    loads = []
    for _ in range(5):
        started = time.perf_counter()
        with tracer.span("store.load_identifier"):
            identifier = load_identifier(run.model)
        loads.append((time.perf_counter() - started) * 1000.0)
    values["artifact.load_ms"] = [median(loads)]

    clear_token_cache()
    compiled = identifier.compiled
    urls_total = sum(len(batch) for batch in batches)
    per_1k = 1000.0 / urls_total
    extract = matmul = materialise = drift = encode = 0.0
    new_rows = wire_bytes = 0
    drift_counters = None
    for batch, op in zip(batches, ops):
        before = compiled.cache_info["rows"]
        with capture_stages() as stages:
            scores = identifier.scores_many(batch)
        new_rows += compiled.cache_info["rows"] - before
        extract += stages.get("extract", 0.0)
        matmul += stages.get("matmul", 0.0)
        if drift_counters is None:
            drift_counters = DriftCounters(list(scores))
        started = time.perf_counter()
        with tracer.span("metrics.drift_observe"):
            drift_counters.observe(scores)
        drift += time.perf_counter() - started
        started = time.perf_counter()
        with tracer.span("serve.score_batch"):
            rows = score_batch(identifier, batch, scores=scores)
        materialise += time.perf_counter() - started
        if op == "score":
            response = ok_response(scores={
                language.value: values_ for language, values_ in scores.items()
            })
        else:
            response = ok_response(results=[
                {"url": row.url, "best": row.best,
                 "positives": list(row.positives)} for row in rows
            ])
        started = time.perf_counter()
        with tracer.span("wire.encode_frame"):
            frame = encode_frame(response)
        encode += time.perf_counter() - started
        wire_bytes += len(frame)
    info = tokenize_bytes_cached.cache_info()
    lookups = info.hits + info.misses
    values["pipeline.extract_ms_per_1k"] = [extract * 1000.0 * per_1k]
    values["pipeline.matmul_ms_per_1k"] = [matmul * 1000.0 * per_1k]
    values["pipeline.row_cache_hit_frac"] = [1.0 - new_rows / urls_total]
    values["urls.token_cache_hit_frac"] = [
        info.hits / lookups if lookups else 0.0]
    values["metrics.drift_observe_ms_per_1k"] = [drift * 1000.0 * per_1k]
    values["serve.materialise_ms_per_1k"] = [materialise * 1000.0 * per_1k]
    values["wire.encode_ms_per_1k"] = [encode * 1000.0 * per_1k]
    values["wire.response_bytes_per_url"] = [wire_bytes / urls_total]

    clear_token_cache()
    with open_model(str(run.model)) as model:
        started = time.perf_counter()
        for batch in batches:
            with tracer.span("api.predict"):
                model.predict(batch)
        values["api.predict_ms_per_1k"] = [
            (time.perf_counter() - started) * 1000.0 * per_1k]


def collect(run) -> dict[str, float]:
    """Every per-layer metric of this traced run."""
    tracer = run.tracer
    self_times = tracer.self_times()
    values: dict[str, float] = {}
    for metric, span in _SPAN_DURATIONS.items():
        durations = tracer.durations(span)
        if durations:
            values[metric] = median(durations) * 1000.0
    if self_times.get("daemon.dispatch"):
        values["daemon.unattributed_ms"] = (
            median(self_times["daemon.dispatch"]) * 1000.0)
    clients = [t for name, times in self_times.items()
               if name.startswith("client.") for t in times]
    if clients:
        values["client.overhead_ms"] = median(clients) * 1000.0
    for metric, samples in run.layer_values.items():
        values.setdefault(metric, median(samples))
    return values


def accounting(run) -> list[str]:
    """Per-layer median self times of the traced requests, summed,
    against the median time of those same requests (``classify`` and
    ``score`` alike); the loop's ``batch.request_p50_ms``, over traced
    and untraced requests, is printed beside them."""
    if run.request_p50_ms is None:
        return []
    self_times = run.tracer.self_times()
    requests = [s["end"] - s["start"] for s in run.tracer.spans
                if s["name"].startswith("client.")]
    if not requests:
        return []
    layers = [("client", [t for name, times in self_times.items()
                          if name.startswith("client.") for t in times])]
    layers += [(name, self_times.get(name, ())) for name in (
        "daemon.request", "daemon.accept", "daemon.dispatch",
        "pipeline.extract", "pipeline.matmul", "daemon.respond")]
    lines = [f"self-time accounting of {len(requests)} traced requests "
             "(median ms per request):"]
    total = 0.0
    for name, times in layers:
        if times:
            share = median(times) * 1000.0
            total += share
            lines.append(f"  {name:<22} {share:9.3f}")
    p50 = median(requests) * 1000.0
    lines.append(f"  {'sum of layers':<22} {total:9.3f}")
    lines.append(f"  {'traced request p50':<22} {p50:9.3f}  "
                 f"(gap {p50 - total:+.3f} ms, {(p50 - total) / p50:+.1%})")
    lines.append(f"  {'batch.request_p50_ms':<22} {run.request_p50_ms:9.3f}  "
                 "(all requests of the loop)")
    return lines
