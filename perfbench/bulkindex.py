"""The ``bulk-index`` workload: one sharded corpus through
``repro bulk`` with the TSV sink and with the SQLite sink, then a
closed-loop read phase over the index just built.

The TSV pass scores without ingest, so a change to ingest moves the
SQLite pass alone; the read phase puts reads beside the writes on the
same ``query`` layer.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import signal
import subprocess
import time
from pathlib import Path

from harness import (
    LOAD_PARALLELISM,
    PROGRAM,
    ROOT,
    PeakWatch,
    generate_urls,
    median,
    program_env,
    quantile,
    rng_for,
    settle,
)

BULK_URLS = 100000
BULK_SHARDS = 10
#: Rounds of TSV pass, SQLite pass and reads per run; the first
#: committed shard of each TSV pass is a ``setup_s`` sample.
PASSES = 3
#: Share of ``--seconds`` asked of the reads.
READ_SHARE = 0.4
#: Seeded read mix (operation, weight): a result browser that pages
#: through rankings.  Reads cost, from cheap to dear: lookup, search,
#: page, counts, histogram.  Pages take the 20th to 85th percentile,
#: so the p50 falls in the middle of the pages, and histograms the
#: top 10%, so the p95 falls in the middle of the histograms, not on
#: the edge between two kinds of operation.
READ_MIX = (("lookup", 10), ("search", 10), ("page", 65),
            ("counts", 5), ("histogram", 10))
#: Read operations per second of read time asked for; the read phase
#: is a fixed number of operations, so every run reads the same mix.
READS_PER_S = 500
#: 1000-URL requests of the daemon probe in a traced run.
PROBE_REQUESTS = 40
PAGE_LIMIT = 100
SEARCH_LIMIT = 20
#: Seconds between peak-memory samples of a running bulk pass.
PEAK_POLL_S = 0.02


def write_shards(urls: list[str], directory: Path, shards: int) -> list[list[str]]:
    """Gzipped text shards, one URL per line, in name order."""
    directory.mkdir(parents=True, exist_ok=True)
    per = -(-len(urls) // shards)
    chunks = [urls[start:start + per] for start in range(0, len(urls), per)]
    for ordinal, chunk in enumerate(chunks):
        with gzip.open(directory / f"shard-{ordinal:03d}.txt.gz", "wt",
                       encoding="utf-8") as stream:
            stream.write("\n".join(chunk) + "\n")
    return chunks


def bulk_pass(run, shards: Path, output: Path, sink: str) -> dict:
    """One ``repro bulk`` run, a process tree of its own; returns wall
    time, time to the first committed shard, URLs/s and the summed peak
    memory of the engine parent and its workers."""
    command = [*PROGRAM, "bulk", "--model", str(run.model),
               "--input", str(shards), "--output", str(output),
               "--workers", str(LOAD_PARALLELISM), "--sink", sink, "--quiet"]
    watch = PeakWatch()
    errors = output.parent / f"{output.name}.stderr"
    launched = time.time()
    started = time.perf_counter()
    with run.tracer.span(f"bulk.run.{sink}"), open(errors, "w") as stderr:
        process = subprocess.Popen(command, env=program_env(), cwd=ROOT,
                                   stdout=subprocess.DEVNULL, stderr=stderr,
                                   start_new_session=True)
        try:
            while process.poll() is None:
                watch.sample(process.pid)
                time.sleep(PEAK_POLL_S)
        finally:
            if process.poll() is None:  # interrupted: end the whole tree
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
    wall = time.perf_counter() - started
    if process.returncode != 0:
        raise RuntimeError(f"repro bulk --sink {sink} failed:\n"
                           f"{errors.read_text()[-2000:]}")
    commits = []
    with open(output / "events.jsonl") as stream:
        for line in stream:
            event = json.loads(line)
            if event.get("event") == "shard-commit":
                commits.append(event)
    shard_count = len(list(shards.iterdir()))
    run.tally.count(f"bulk-{sink}", shard_count, shard_count - len(commits))
    rows = sum(event["rows"] for event in commits)
    return {"wall": wall,
            "first": (min(e["ts"] for e in commits) - launched
                      if commits else wall),
            "urls_per_s": rows / wall,
            "shard_seconds": [e["seconds"] for e in commits],
            "rss_mb": watch.total_mb}


def _tsv_bytes(directory: Path) -> bytes:
    return b"".join(path.read_bytes()
                    for path in sorted(directory.glob("part-*.tsv")))


def expected_tsv(run, chunks: list[list[str]]) -> bytes:
    """What in-process ``classify`` prints for the same corpus, from a
    model instance of its own."""
    from repro.api import open_model

    lines = []
    with open_model(str(run.model)) as model:
        for chunk in chunks:
            for start in range(0, len(chunk), 1000):
                for prediction in model.predict(chunk[start:start + 1000]):
                    lines.append(prediction.tsv() + "\n")
    return "".join(lines).encode("utf-8")


def bulk_index(run, urls: list[str], shard_count: int, passes: int,
               read_seconds: float, primary: bool) -> None:
    """Score ``urls`` through the TSV and the SQLite sink and read each
    index just built, ``passes`` times, checking every answer.

    TSV pass, SQLite pass and a share of the reads alternate, so a slow
    spell of the host lands on every figure alike.  ``primary`` marks
    the ``bulk-index`` workload itself; otherwise this is the small bulk
    probe of a traced serving run, which only feeds per-layer metrics.
    """
    import shutil

    from repro.query import open_index

    base = run.workdir / ("bulk" if primary else "bulk-probe")
    shards = base / "shards"
    chunks = write_shards(urls, shards, shard_count)
    expected = expected_tsv(run, chunks)
    labels: dict[str, str | None] = {}
    counts: dict[str, int] = {}
    for line in expected.decode("utf-8").splitlines():
        best, _, url = line.split("\t", 2)
        labels[url] = None if best == "-" else best
        key = labels[url] or "und"
        counts[key] = counts.get(key, 0) + 1
    reader = Reader(run, labels, counts)
    reads = max(2, round(read_seconds * READS_PER_S / passes))
    settle()

    tsv_runs, sql_runs = [], []
    for k in range(passes):
        # Outputs are checked, then dropped; the first TSV pass stays
        # for the layer calls, the index until the next SQLite pass.
        tsv_runs.append(bulk_pass(run, shards, base / f"tsv{k}", "tsv"))
        run.tally.check("bulk-check", _tsv_bytes(base / f"tsv{k}") == expected,
                        f"TSV pass {k} differs from in-process classify")
        if k:
            shutil.rmtree(base / f"tsv{k}")
            shutil.rmtree(base / "sqlite")
        sql_runs.append(bulk_pass(run, shards, base / "sqlite", "sqlite"))
        with open_index(base / "sqlite") as index:
            found = index.counts()
        run.tally.check("bulk-check", found == counts,
                        f"index counts {found} != TSV counts {counts}")
        if run.trace:
            reader.read(base / "sqlite", reads // 2, traced=False)
            reader.read(base / "sqlite", reads // 2, traced=True)
        else:
            reader.read(base / "sqlite", reads, traced=False)
    tsv_rate = median([r["urls_per_s"] for r in tsv_runs])
    sql_rate = median([r["urls_per_s"] for r in sql_runs])
    run.layer_values["bulk.tsv_urls_per_s"] = [tsv_rate]
    run.layer_values["bulk.sqlite_urls_per_s"] = [sql_rate]
    result = reader.result()
    if run.trace:
        bulk_layers(run, base, shards, tsv_runs[0], base / "sqlite")
    if primary:
        run.setup_samples.extend(r["first"] for r in tsv_runs)
        run.report("bulk.tsv_urls_per_s", tsv_rate, "1/s")
        run.report("bulk.sqlite_urls_per_s", sql_rate, "1/s")
        for name in ("reads_per_s", "read_p50_ms", "read_p95_ms",
                     "read_p99_ms", "reads"):
            run.report(f"query.{name}", result[name],
                       "1/s" if name == "reads_per_s"
                       else "count" if name == "reads" else "ms")
        run.end_to_end["urls_per_s"] = sql_rate
        run.end_to_end["latency_p50_ms"] = result["read_p50_ms"]
        run.end_to_end["latency_p95_ms"] = result["read_p95_ms"]
        run.end_to_end["ops_per_s"] = result["reads_per_s"]
        run.end_to_end["rss_mb"] = max(
            r["rss_mb"] for r in (*tsv_runs, *sql_runs))


def bulk_layers(run, base: Path, shards: Path, tsv: dict,
                index_dir: Path) -> None:
    """Direct calls into the bulk and ingest layers on this corpus."""
    from repro.bulk import discover_shards, make_sink, read_urls, sha256_file
    from repro.query import create_result_db, ingest_shard

    tracer = run.tracer
    values = run.layer_values
    started = time.perf_counter()
    urls = []
    for shard in discover_shards(str(shards)):
        with tracer.span("bulk.read_urls"):
            urls.extend(read_urls(shard))
    values["bulk.read_s"] = [time.perf_counter() - started]

    predictions = []
    for start in range(0, len(urls), 512):
        predictions.extend(run.oracle.predict(urls[start:start + 512]))
    for name in ("tsv", "jsonl"):
        sink = make_sink(name, provenance="perfbench@model")
        started = time.perf_counter()
        with tracer.span(f"bulk.format_{name}"):
            for prediction in predictions:
                sink.format(prediction)
        values[f"bulk.format_{name}_s"] = [time.perf_counter() - started]

    started = time.perf_counter()
    for path in sorted((base / "tsv0").glob("part-*.tsv")):
        with tracer.span("bulk.sha256_file"):
            sha256_file(path)
    values["bulk.commit_hash_s"] = [time.perf_counter() - started]

    shard_seconds = tsv["shard_seconds"]
    values["bulk.shard_s_p50"] = [median(shard_seconds)]
    values["bulk.shard_s_max"] = [max(shard_seconds)]
    values["bulk.worker_busy_frac"] = [
        sum(shard_seconds) / (LOAD_PARALLELISM * tsv["wall"])]

    manifest = json.loads((index_dir / "manifest.json").read_text())
    connection = create_result_db(base / "ingest.sqlite")
    rows = 0
    started = time.perf_counter()
    try:
        for ordinal, shard_id in enumerate(manifest["order"]):
            entry = manifest["shards"][shard_id]
            with tracer.span("query.ingest_shard"):
                rows += ingest_shard(
                    connection, ordinal=ordinal, shard_id=shard_id,
                    output_path=index_dir / entry["output"],
                    sha256=entry["sha256"],
                )
    finally:
        connection.close()
    values["ingest.rows_per_s"] = [rows / (time.perf_counter() - started)]


class Reader:
    """Closed-loop seeded reads of result indexes; every answer is
    checked against the TSV output the index was built from."""

    def __init__(self, run, labels: dict, counts: dict) -> None:
        self.run = run
        self.rng = rng_for(run.seed, "reads")
        self.labels = labels
        self.counts = counts
        self.urls = list(labels)
        # Whole alphanumeric runs, as the index's FTS tokenizer splits
        # them.
        self.words = sorted({
            word for url in self.urls[:2000]
            for word in re.findall(r"[a-z0-9]+", url.lower())
            if len(word) >= 4 and word.isalpha()
        })
        self.languages = sorted(code for code in counts if code != "und")
        self.ops = [op for op, weight in READ_MIX for _ in range(weight)]
        self.latencies: list[float] = []
        self.gaps: list[float] = []
        self.wall = {False: 0.0, True: 0.0}
        self.done = {False: 0, True: 0}

    def _one(self, index, op: str, walk: dict) -> bool:
        rng, counts = self.rng, self.counts
        if op == "lookup":
            url = rng.choice(self.urls)
            rows = index.lookup(url)
            return bool(rows) and all(
                row["best"] == self.labels[url] for row in rows)
        if op == "page":
            language = self.languages[walk["language"] % len(self.languages)]
            page = index.page(language, limit=PAGE_LIMIT,
                              cursor=walk["cursor"])
            walk["seen"] += len(page.rows)
            walk["cursor"] = page.next_cursor
            if page.next_cursor is None:
                complete = walk["seen"] == counts[language]
                walk.update(language=walk["language"] + 1, seen=0)
                return complete
            return all(row["best"] == language for row in page.rows)
        if op == "search":
            words = rng.choice(self.words)
            return bool(index.search(words, limit=SEARCH_LIMIT).rows)
        if op == "counts":
            return index.counts() == counts
        language = rng.choice(self.languages)
        return index.histogram(language)["rows"] == counts[language]

    def read(self, db: Path, count: int, traced: bool) -> None:
        """``count`` reads of ``db``; traced reads record one span each
        and stay out of the latency figures."""
        from repro.query import QueryError, open_index

        run, tracer = self.run, self.run.tracer
        name = "reads-traced" if traced else "reads"
        walk = {"language": 0, "cursor": None, "seen": 0}
        failed = 0
        with open_index(db) as index:
            started = previous = time.perf_counter()
            for _ in range(count):
                op = self.rng.choice(self.ops)
                begin = time.perf_counter()
                try:
                    if traced:
                        with tracer.span(f"results.{op}"):
                            ok = self._one(index, op, walk)
                    else:
                        ok = self._one(index, op, walk)
                except QueryError as error:
                    ok = False
                    run.tally.problems.append(f"{name}: {op}: {error}")
                end = time.perf_counter()
                if not traced:
                    self.latencies.append(
                        (end - begin) * 1000.0 if ok else float("inf"))
                    self.gaps.append((begin - previous) * 1000.0)
                previous = time.perf_counter()
                if not ok:
                    failed += 1
                    run.tally.problems.append(f"{name}: wrong {op} answer")
            self.wall[traced] += previous - started
            self.done[traced] += count
        run.tally.count(name, count, failed)

    def result(self) -> dict:
        latencies = self.latencies
        if self.done[True]:
            plain = self.done[False] / self.wall[False]
            self.run.layer_values.setdefault("trace.overhead_frac", [
                plain / (self.done[True] / self.wall[True]) - 1.0])
        self.run.layer_values.setdefault(
            "generator.late_p99_ms", [quantile(self.gaps, 0.99)])
        return {"read_p50_ms": quantile(latencies, 0.5),
                "read_p95_ms": quantile(latencies, 0.95),
                "read_p99_ms": quantile(latencies, 0.99),
                "reads_per_s": self.done[False] / self.wall[False],
                "reads": len(latencies)}


def bulk_workload(run) -> None:
    urls = generate_urls(run.seed, BULK_URLS)
    bulk_index(run, urls, BULK_SHARDS, PASSES, run.seconds * READ_SHARE,
               primary=True)
    if run.trace:
        from serving import daemon_probe

        daemon_probe(run, urls[:20000], PROBE_REQUESTS)
        run.probe_batches = [urls[k:k + 512] for k in range(0, 30000, 512)]
