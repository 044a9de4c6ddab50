"""Shard-by-shard ingestion: committed bulk outputs → the result index.

The bulk engine's durability contract is the input here, not something
to re-invent: a shard output only exists under its final name after
the engine fsynced, renamed and checkpointed it with a sha256.  Ingest
therefore works in whole committed shards — each
:func:`ingest_shard` call is **one SQLite transaction** that deletes
any previous rows of that shard, inserts the new ones (table + FTS),
records the shard's sha256, and recomputes the index fingerprint.  A
SIGKILL at any instant leaves the database at a shard boundary: either
the shard is fully in (and recorded), or fully out — exactly the
atomic-per-shard story the manifest tells for the text outputs.

:func:`index_run` is the reconciler both the engine and ``repro query
index`` call: walk the manifest's ``done`` shards, ingest whatever the
database is missing (or holds under a stale checksum, e.g. after a
resume re-scored a demoted shard), and drop whatever the manifest no
longer vouches for.  It is idempotent — running it twice is a no-op —
which is what makes the killed-and-resumed database **identical** to
an uninterrupted run's: row ids are deterministic
(shard ordinal × 2³² + row ordinal), row payloads are the committed
bytes, and reconciliation converges on the manifest.

Rows reach :func:`ingest_shard` one of two ways.  During a sqlite-sink
run, the worker that scored a shard has already written the rows it
formatted into a private staging file (:class:`RowStager`), and the
engine passes that file as ``staged=``: the shard then goes in with
one ``INSERT … SELECT`` per table, parsing nothing.  Everywhere else —
resume, the end-of-run reconcile, ``repro query index`` — no staging
file exists and the committed text is parsed, as the text shards are
the checksummed source of truth either way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import sqlite3
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.bulk.checkpoint import MANIFEST_NAME, RunManifest
from repro.languages import LANGUAGES
from repro.query.errors import IndexCorruptError, QueryError
from repro.query.schema import (
    RESULT_DB_NAME,
    ROW_ID_STRIDE,
    create_result_db,
    resolve_db_path,
)
from repro.testing import faults

__all__ = [
    "IngestReport",
    "RowStager",
    "index_fingerprint",
    "index_run",
    "ingest_shard",
    "insert_rows",
]

#: Language codes in stable (sorted) order, for CSV score columns.
_CODES = tuple(sorted(language.value for language in LANGUAGES))


@dataclass
class IngestReport:
    """What one :func:`index_run` reconciliation pass did."""

    db_path: str
    shards_ingested: int
    shards_skipped: int
    shards_dropped: int
    rows: int
    fingerprint: str

    def describe(self) -> str:
        return (
            f"index {self.db_path}: {self.shards_ingested} shard(s) "
            f"ingested, {self.shards_skipped} already current, "
            f"{self.shards_dropped} dropped — {self.rows} rows, "
            f"fingerprint {self.fingerprint}"
        )


def index_fingerprint(connection: sqlite3.Connection) -> str:
    """The 12-hex-digit identity of this index build's row set.

    Salt (random per database creation) + every ingested shard's
    sha256, order-independent — so the fingerprint is identical for
    identical content however ingestion was interleaved, and different
    for a rebuilt database even when its rows happen to match (the
    salt differs).  Page cursors embed it; see
    :mod:`repro.query.cursor`.
    """
    row = connection.execute(
        "SELECT value FROM meta WHERE key='salt'"
    ).fetchone()
    if row is None:
        raise IndexCorruptError("result index carries no salt")
    digest = hashlib.sha256(row[0].encode("ascii"))
    for shard_id, sha256 in connection.execute(
        "SELECT shard_id, sha256 FROM shards ORDER BY shard_id"
    ):
        digest.update(f"\n{shard_id}:{sha256}".encode("utf-8"))
    return digest.hexdigest()[:12]


def _refresh_fingerprint(connection: sqlite3.Connection) -> str:
    fingerprint = index_fingerprint(connection)
    connection.execute(
        "INSERT INTO meta(key, value) VALUES ('fingerprint', ?) "
        "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
        (fingerprint,),
    )
    return fingerprint


def _parse_jsonl(stream: io.TextIOBase, source: str):
    """Yield ``(url, best, score, positives, scores_json)`` per row."""
    for number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            url = row["url"]
        except (json.JSONDecodeError, TypeError, KeyError) as error:
            raise QueryError(
                f"{source}:{number} is not an ingestable JSONL row "
                f"({error}); was this run written with --sink sqlite or "
                "jsonl?"
            ) from None
        best = row.get("best")
        scores = row.get("scores") or {}
        score = scores.get(best) if best is not None else None
        yield (
            url,
            best,
            score,
            ",".join(row.get("positives") or []),
            json.dumps(scores, separators=(",", ":")),
        )


def _parse_csv(stream: io.TextIOBase, source: str):
    reader = csv.DictReader(stream)
    for number, row in enumerate(reader, start=2):
        url = row.get("url")
        if url is None:
            raise QueryError(
                f"{source}:{number} has no 'url' column; was this run "
                "written with --sink csv?"
            )
        best = row.get("best") or None
        scores = {}
        for code in _CODES:
            cell = row.get(f"score_{code}")
            if cell not in (None, ""):
                scores[code] = float(cell)
        score = scores.get(best) if best is not None else None
        yield (
            url,
            best,
            score,
            row.get("positives", ""),
            json.dumps(scores, separators=(",", ":")),
        )


def _shard_rows(output_path: Path):
    """Parse one committed shard output into result rows.

    The sink decides the format; the file name carries it.  TSV shards
    are refused — they deliberately carry no scores, and a scoreless
    index could not answer distribution or keyset queries ("re-run
    with --sink sqlite" is the actionable path).
    """
    suffix = output_path.suffix
    if suffix == ".jsonl":
        parse = _parse_jsonl
    elif suffix == ".csv":
        parse = _parse_csv
    else:
        raise QueryError(
            f"cannot index {output_path.name}: only jsonl and csv shard "
            "outputs carry the per-language scores the index needs — "
            "run the bulk job with --sink sqlite (or jsonl/csv)"
        )
    with open(output_path, "r", encoding="utf-8") as stream:
        yield from parse(stream, output_path.name)


def insert_rows(
    connection: sqlite3.Connection,
    ordinal: int,
    shard_id: str,
    rows,
) -> int:
    """Insert one shard's rows (table + FTS) at deterministic ids.

    ``rows`` yields ``(url, best, score, positives, scores_json)``;
    ids are ``ordinal * ROW_ID_STRIDE + row_ordinal``.  Caller owns the
    transaction.  Returns the row count.
    """
    count = 0
    fts_rows: list[tuple[int, str]] = []

    def numbered():
        nonlocal count
        for offset, row in enumerate(rows):
            count += 1
            rowid = ordinal * ROW_ID_STRIDE + offset
            fts_rows.append((rowid, row[0]))
            yield (rowid, *row, shard_id)

    connection.executemany(
        "INSERT INTO results"
        "(id, url, best, score, positives, scores, shard_id) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)",
        numbered(),
    )
    # Feed the FTS index from the same parsed stream — a
    # SELECT ... WHERE shard_id = ? here would re-scan the whole table
    # per shard (shard_id is deliberately unindexed), turning an N-row
    # ingest into O(shards x table).
    connection.executemany(
        "INSERT INTO results_fts(rowid, url) VALUES (?, ?)", fts_rows
    )
    return count


#: Page cache of a staging file, in KiB.  Each chunk commits on its
#: own, so a worker's staging memory stays this size however large
#: the shard.
STAGE_CACHE_KIB = 256


class RowStager:
    """A worker's staging file of one shard's result rows.

    One plain table, ``rows(id, url, best, score, positives,
    scores)``, with ``id`` the row's ordinal within the shard and no
    index: the file is written once, read once by
    :func:`ingest_shard` (``staged=``), and then deleted.  It runs with
    journal and sync off — a torn staging file is never read, because
    the engine only ingests files named by a completion record, and
    sweeps every other ``*.part.*`` file at startup.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.unlink(missing_ok=True)
        self._connection = sqlite3.connect(self.path, isolation_level=None)
        self._connection.execute("PRAGMA journal_mode=OFF")
        self._connection.execute("PRAGMA synchronous=OFF")
        self._connection.execute(f"PRAGMA cache_size=-{STAGE_CACHE_KIB}")
        self._connection.execute(
            "CREATE TABLE rows (id INTEGER PRIMARY KEY, url TEXT NOT NULL, "
            "best TEXT, score REAL, positives TEXT NOT NULL, "
            "scores TEXT NOT NULL)"
        )
        self.rows = 0

    def add(
        self,
        urls: Sequence[str],
        best: Sequence[str | None],
        score: Sequence[float | None],
        positives: Sequence[str],
        scores: Sequence[str],
    ) -> None:
        """Append one chunk's rows, given as columns, in one transaction."""
        first = self.rows
        self._connection.execute("BEGIN")
        self._connection.executemany(
            "INSERT INTO rows VALUES (?, ?, ?, ?, ?, ?)",
            zip(itertools.count(first), urls, best, score, positives, scores),
        )
        self._connection.execute("COMMIT")
        self.rows += len(urls)

    def close(self) -> None:
        self._connection.close()

    def discard(self) -> None:
        """Close and delete the file (the shard did not commit)."""
        self.close()
        self.path.unlink(missing_ok=True)


def _insert_staged(
    connection: sqlite3.Connection, ordinal: int, shard_id: str
) -> int:
    """Copy the attached ``staged`` file's rows in (table + FTS) at
    deterministic ids.  Caller owns the transaction."""
    base = ordinal * ROW_ID_STRIDE
    rows = connection.execute(
        "INSERT INTO results"
        "(id, url, best, score, positives, scores, shard_id) "
        "SELECT ? + id, url, best, score, positives, scores, ? "
        "FROM staged.rows ORDER BY id",
        (base, shard_id),
    ).rowcount
    connection.execute(
        "INSERT INTO results_fts(rowid, url) "
        "SELECT ? + id, url FROM staged.rows ORDER BY id",
        (base,),
    )
    return rows


def _drop_shard(connection: sqlite3.Connection, shard_id: str) -> None:
    """Remove one shard's rows from the table and the FTS index.

    Rows and their ``shards`` entry land in one transaction, so a shard
    with no recorded ordinal has no rows to drop; a recorded one owns
    exactly the id range ``[ordinal x stride, (ordinal+1) x stride)`` —
    a primary-key range delete, never a table scan.
    """
    recorded = connection.execute(
        "SELECT ordinal FROM shards WHERE shard_id = ?", (shard_id,)
    ).fetchone()
    if recorded is not None:
        lo = recorded[0] * ROW_ID_STRIDE
        hi = lo + ROW_ID_STRIDE
        connection.execute(
            "INSERT INTO results_fts(results_fts, rowid, url) "
            "SELECT 'delete', id, url FROM results "
            "WHERE id >= ? AND id < ?",
            (lo, hi),
        )
        connection.execute(
            "DELETE FROM results WHERE id >= ? AND id < ?", (lo, hi)
        )
    connection.execute(
        "DELETE FROM shards WHERE shard_id = ?", (shard_id,)
    )


def ingest_shard(
    connection: sqlite3.Connection,
    *,
    ordinal: int,
    shard_id: str,
    output_path: str | os.PathLike,
    sha256: str,
    staged: str | os.PathLike | None = None,
) -> int:
    """Ingest one committed shard output — one atomic transaction.

    Idempotent: a shard already recorded under the same sha256 is a
    no-op; a stale recording (the shard was re-scored) is replaced
    wholesale.  ``staged`` names the :class:`RowStager` file the worker
    wrote beside the output: when it exists the rows are copied from it
    with ``INSERT … SELECT``, otherwise the output text is parsed.  The
    staging file is deleted whatever happens — ingested, skipped or
    rolled back.  Returns the rows ingested (0 when skipped).
    """
    staged = Path(staged) if staged is not None else None
    try:
        current = connection.execute(
            "SELECT sha256 FROM shards WHERE shard_id = ?", (shard_id,)
        ).fetchone()
        if current is not None and current[0] == sha256:
            return 0
        output_path = Path(output_path)
        if staged is not None and staged.exists():
            connection.execute("ATTACH DATABASE ? AS staged", (str(staged),))
        else:
            staged = None
        try:
            with connection:
                _drop_shard(connection, shard_id)
                if staged is None:
                    rows = insert_rows(
                        connection, ordinal, shard_id,
                        _shard_rows(output_path),
                    )
                else:
                    rows = _insert_staged(connection, ordinal, shard_id)
                connection.execute(
                    "INSERT INTO shards"
                    "(shard_id, ordinal, output, sha256, rows) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (shard_id, ordinal, output_path.name, sha256, rows),
                )
                _refresh_fingerprint(connection)
                faults.maybe_raise("ingest-error", shard=shard_id)
        finally:
            if staged is not None:
                connection.execute("DETACH DATABASE staged")
    finally:
        if staged is not None:
            staged.unlink(missing_ok=True)
    return rows


def index_run(
    output_dir: str | os.PathLike,
    db_path: str | os.PathLike | None = None,
    *,
    rebuild: bool = False,
    progress=None,
) -> IngestReport:
    """Reconcile a run's result index with its manifest.

    Reads ``manifest.json`` in ``output_dir``, creates the database if
    needed (``rebuild=True`` starts it over, new salt and all), ingests
    every ``done`` shard the index is missing or holds stale, and drops
    shards the manifest no longer vouches for.  Converges in one pass;
    safe to call any number of times, including while earlier shards
    of a live run are already ingested.
    """
    output_dir = Path(output_dir)
    manifest_path = output_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise QueryError(
            f"{manifest_path} does not exist — nothing to index (is this "
            "the bulk run's output directory?)"
        )
    manifest = RunManifest.load(manifest_path)
    path = (
        resolve_db_path(db_path) if db_path else output_dir / RESULT_DB_NAME
    )
    if rebuild and path.exists():
        path.unlink()
        for sidecar in (f"{path}-wal", f"{path}-shm"):
            try:
                os.unlink(sidecar)
            except OSError:
                pass
    connection = create_result_db(path)
    try:
        with connection:
            connection.execute(
                "INSERT INTO meta(key, value) VALUES ('model', ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (json.dumps(manifest.model, sort_keys=True),),
            )
        ingested = skipped = dropped = 0
        done = {}
        for ordinal, shard_id in enumerate(manifest.order):
            entry = manifest.shards[shard_id]
            if entry.get("status") == "done":
                done[shard_id] = (ordinal, entry)
        for shard_id in [
            row[0]
            for row in connection.execute("SELECT shard_id FROM shards")
        ]:
            if shard_id not in done:
                with connection:
                    _drop_shard(connection, shard_id)
                    _refresh_fingerprint(connection)
                dropped += 1
        for shard_id, (ordinal, entry) in done.items():
            rows = ingest_shard(
                connection,
                ordinal=ordinal,
                shard_id=shard_id,
                output_path=output_dir / entry["output"],
                sha256=entry["sha256"],
            )
            if rows:
                ingested += 1
                if progress:
                    progress(
                        f"indexed {shard_id}: {rows} rows from "
                        f"{entry['output']}"
                    )
            else:
                skipped += 1
        total = connection.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]
        with connection:
            fingerprint = _refresh_fingerprint(connection)
        return IngestReport(
            db_path=str(path),
            shards_ingested=ingested,
            shards_skipped=skipped,
            shards_dropped=dropped,
            rows=total,
            fingerprint=fingerprint,
        )
    finally:
        connection.close()
