"""The daemon's batch ops answer from one columnar ``ScoredBatch``.

* Response frames for ``classify`` / ``score`` / ``decisions`` are
  byte-identical to frames encoded from the per-URL walk the daemon
  used before the score matrix stayed columnar.
* A traced request's ``dispatch`` stage is covered by its children
  (``extract``, ``matmul``, ``drift``, ``materialise``), and its
  ``respond`` stage by ``encode`` and ``send``.
* Fused traffic shows in the interned-row memo's hit/miss counters, in
  the status block and on ``/metrics``, and leaves the tokenizer-cache
  counters flat.
"""

from __future__ import annotations

import json
import socket
import statistics
import tempfile
import urllib.request
from pathlib import Path

import pytest

from repro.core.pipeline import LanguageIdentifier
from repro.store import load_identifier, save_identifier
from repro.store.client import DaemonClient
from repro.store.daemon import start_daemon, stop_daemon
from repro.store.wire import (
    PROTOCOL_VERSION,
    encode_frame,
    ok_response,
    send_message,
)
from repro.testing.urlgen import adversarial_urls

from ..core.test_scored_batch import reference_walk
from ..obs.test_prom import parse_exposition


@pytest.fixture(scope="module")
def model_path(small_train, tmp_path_factory):
    train = small_train.subsample(0.4, seed=6)
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(train)
    path = tmp_path_factory.mktemp("columnar") / "columnar.urlmodel"
    save_identifier(identifier, path)
    return path


@pytest.fixture(scope="module")
def daemon(model_path):
    """A one-worker daemon for the module (a short socket path under /tmp)."""
    base = Path(tempfile.mkdtemp(prefix="repro-col-", dir="/tmp"))
    socket_path = base / "col.sock"
    start_daemon(model_path, socket_path, workers=1)
    try:
        yield socket_path
    finally:
        stop_daemon(socket_path)
        for leftover in base.glob("*"):
            leftover.unlink(missing_ok=True)
        base.rmdir()


def per_url_response(oracle, op: str, urls: list[str]) -> dict:
    """The batch response as the per-URL walk built it."""
    scores = oracle.scores_many(urls)
    if op == "classify":
        best, positives = reference_walk(urls, scores)
        return ok_response(results=[
            {"url": url, "best": None if b is None else b.value,
             "positives": list(p)}
            for url, b, p in zip(urls, best, positives)
        ])
    if op == "score":
        return ok_response(scores={
            language.value: values for language, values in scores.items()
        })
    return ok_response(decisions={
        language.value: [value > 0.0 for value in values]
        for language, values in scores.items()
    })


def raw_response_frame(socket_path, message: dict) -> bytes:
    """Send ``message`` (no header fields) and return the response
    frame's bytes exactly as the daemon wrote them."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(str(socket_path))
        send_message(sock, message)
        stream = sock.makefile("rb")
        header = stream.read(4)
        body = stream.read(int.from_bytes(header, "big"))
    return header + body


@pytest.mark.parametrize("op", ["classify", "score", "decisions"])
def test_response_frames_match_the_per_url_path(daemon, model_path, op):
    oracle = load_identifier(model_path)
    urls = adversarial_urls(1000, seed=21)
    frame = raw_response_frame(
        daemon, {"v": PROTOCOL_VERSION, "op": op, "urls": urls}
    )
    assert frame == encode_frame(per_url_response(oracle, op, urls))


@pytest.mark.parametrize("op", ["classify", "score"])
def test_dispatch_children_cover_the_dispatch_stage(daemon, op):
    coverages = []
    with DaemonClient(daemon, tracing=True) as client:
        for seed in range(3):
            # Never-seen URLs, so every row pays extraction.
            urls = adversarial_urls(1000, seed=(100 if op == "classify" else 200) + seed)
            getattr(client, op)(urls)
            trace_id = client.last_trace["trace_id"]
            (span,) = [s for s in client.traces() if s["trace"] == trace_id]
            stages = span["stages_ms"]
            children = sum(
                stages[name]
                for name in ("extract", "matmul", "drift", "materialise")
            )
            coverages.append(children / stages["dispatch"])
            assert 0.0 < stages["encode"] <= stages["respond"]
    assert statistics.median(coverages) >= 0.9, coverages


@pytest.mark.parametrize("op", ["classify", "score"])
def test_respond_children_cover_the_respond_stage(daemon, op):
    coverages = []
    with DaemonClient(daemon, tracing=True) as client:
        for seed in range(3):
            urls = adversarial_urls(1000, seed=(300 if op == "classify" else 400) + seed)
            getattr(client, op)(urls)
            trace_id = client.last_trace["trace_id"]
            (span,) = [s for s in client.traces() if s["trace"] == trace_id]
            stages = span["stages_ms"]
            coverages.append((stages["encode"] + stages["send"]) / stages["respond"])
    assert statistics.median(coverages) >= 0.9, coverages


def test_fused_traffic_counts_in_the_row_memo(model_path, sockpath):
    """The fused backend tokenises whole batches without a token memo:
    a repeated batch is a row-memo hit.  Over the socket (the worker's
    status) and on ``/metrics`` (the parent's HTTP path) the row memo's
    counters move by one miss, then one hit, per URL, and the tokenizer
    counters stay flat.  Counts are compared as deltas: a forked daemon
    inherits the counters of the process that started it."""
    socket_path = sockpath("tok.sock")
    urls = [f"http://www.tokenmemo{i}.example.fr/seite/{i}" for i in range(40)]
    start_daemon(model_path, socket_path, workers=1, http_port=0)
    try:
        with DaemonClient(socket_path) as client:
            before = client.status()["caches"]
            client.classify(urls)
            client.classify(urls)
            status = client.status()
        after = status["caches"]
        assert after["interned_rows"]["extraction"] == "fused"
        for series in ("hits", "misses"):
            moved = after["interned_rows"][series] - before["interned_rows"][series]
            assert moved == len(urls), series
            assert after["tokenizer"][series] == before["tokenizer"][series]

        base = f"http://127.0.0.1:{status['http_port']}"

        def scrape() -> dict:
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
                _, samples = parse_exposition(response.read().decode("utf-8"))
            return {name: value for name, _, value in samples}

        first = scrape()
        for _ in range(2):
            request = urllib.request.Request(
                f"{base}/v1/classify",
                data=json.dumps({"urls": urls}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
        second = scrape()
        for series in ("hits", "misses"):
            name = f"repro_interned_rows_{series}_total"
            assert second[name] - first[name] == len(urls), series
            name = f"repro_tokenizer_cache_{series}_total"
            assert second[name] == first[name], series
    finally:
        stop_daemon(socket_path)
