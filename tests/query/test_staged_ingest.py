"""Staged ingest: workers hand the engine their formatted rows as a
staging file, and the engine copies them into the result index with
SQL alone.

The committed text stays the source of truth, so a staged ingest must
build exactly the database a text re-parse builds; staging files must
never outlive the shard commit they belong to, whatever fails.
"""

from __future__ import annotations

import json
import shutil
import sqlite3

import pytest

import repro.bulk as bulk
import repro.query.ingest as ingest
from repro.bulk import ShardCommitError
from repro.query import create_result_db, index_run, ingest_shard
from repro.query.ingest import RowStager, _drop_shard, _refresh_fingerprint
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV

#: FTS queries compared between databases.
WORDS = ("com", "de", "www", "html", "index", "fr")


def snapshot(db_path) -> dict:
    """Rows (scores as exact bit patterns), FTS matches and shard
    records of one result index."""
    connection = sqlite3.connect(db_path)
    try:
        connection.execute(
            "INSERT INTO results_fts(results_fts) VALUES ('integrity-check')"
        )
        results = [
            (*row[:3], None if row[3] is None else row[3].hex(), *row[4:])
            for row in connection.execute(
                "SELECT id, url, best, score, positives, scores, shard_id "
                "FROM results ORDER BY id"
            )
        ]
        matches = {
            word: [
                rowid for (rowid,) in connection.execute(
                    "SELECT rowid FROM results_fts WHERE results_fts "
                    "MATCH ? ORDER BY rowid", (word,),
                )
            ]
            for word in WORDS
        }
        shards = connection.execute(
            "SELECT shard_id, ordinal, output, sha256, rows FROM shards "
            "ORDER BY shard_id"
        ).fetchall()
    finally:
        connection.close()
    return {"results": results, "fts": matches, "shards": shards}


def leftovers(run_dir) -> list[str]:
    return sorted(path.name for path in run_dir.glob("*.part.*"))


@pytest.fixture()
def no_text_parse(monkeypatch):
    """Fail the test if anything parses committed shard text."""

    def refuse(output_path):
        raise AssertionError(f"{output_path} was re-parsed")

    monkeypatch.setattr(ingest, "_shard_rows", refuse)


@pytest.fixture()
def disarmed(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv(FAULTS_STATE_ENV, raising=False)


class TestStagedEqualsText:
    def test_staged_run_equals_rebuild_from_committed_text(
        self, query_model, query_corpus, tmp_path, no_text_parse, disarmed,
        monkeypatch,
    ):
        """One pool run ingested only through staging files, against
        ``index_run(rebuild=True)`` over its committed text: identical
        rows (scores bit for bit), FTS matches and shard records."""
        model_path, _ = query_model
        shard_dir, urls = query_corpus
        run_dir = tmp_path / "staged"
        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=2, chunk_size=16)
        assert report.rows_scored == len(urls)
        assert leftovers(run_dir) == []
        staged = snapshot(run_dir / "results.sqlite")
        assert len(staged["results"]) == len(urls)

        monkeypatch.undo()
        rebuilt_dir = tmp_path / "rebuilt"
        shutil.copytree(run_dir, rebuilt_dir)
        index_run(rebuilt_dir, rebuild=True)
        assert snapshot(rebuilt_dir / "results.sqlite") == staged

    def test_staged_rows_match_a_text_ingest_of_the_same_output(
        self, sqlite_run, tmp_path
    ):
        """``ingest_shard`` with and without ``staged=`` on one
        committed output build identical rows; the staging file is gone
        afterwards, and a missing one falls back to the text."""
        run_dir, _ = sqlite_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        shard_id = manifest["order"][0]
        entry = manifest["shards"][shard_id]
        output = run_dir / entry["output"]
        lines = output.read_text().splitlines()
        stage = RowStager(tmp_path / "rows.part.1")
        for start in range(0, len(lines), 7):
            chunk = [json.loads(line) for line in lines[start:start + 7]]
            stage.add(
                [row["url"] for row in chunk],
                [row["best"] for row in chunk],
                [row["scores"].get(row["best"]) for row in chunk],
                [",".join(row["positives"]) for row in chunk],
                [json.dumps(row["scores"], separators=(",", ":"))
                 for row in chunk],
            )
        stage.close()

        databases = {}
        for name, staged in (("text", None), ("staged", stage.path),
                             ("missing", tmp_path / "absent.part.1")):
            connection = create_result_db(tmp_path / f"{name}.sqlite")
            rows = ingest_shard(
                connection, ordinal=0, shard_id=shard_id,
                output_path=output, sha256=entry["sha256"], staged=staged,
            )
            connection.close()
            assert rows == len(lines)
            databases[name] = snapshot(tmp_path / f"{name}.sqlite")
        assert not stage.path.exists()
        assert databases["staged"] == databases["text"] == databases["missing"]

    def test_skipped_shard_still_deletes_its_staging_file(
        self, sqlite_run, tmp_path
    ):
        run_dir, _ = sqlite_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        shard_id = manifest["order"][0]
        entry = manifest["shards"][shard_id]
        copy = tmp_path / "results.sqlite"
        shutil.copy(run_dir / "results.sqlite", copy)
        stage = RowStager(tmp_path / "rows.part.2")
        stage.close()
        connection = sqlite3.connect(copy)
        try:
            assert ingest_shard(
                connection, ordinal=0, shard_id=shard_id,
                output_path=run_dir / entry["output"],
                sha256=entry["sha256"], staged=stage.path,
            ) == 0
        finally:
            connection.close()
        assert not stage.path.exists()


class TestIngestFaults:
    def test_failed_ingest_rolls_back_then_resume_reconciles(
        self, query_model, query_corpus, sqlite_run, tmp_path, monkeypatch
    ):
        """An error inside a shard's ingest transaction: the shard's
        rows roll back, its staging file is deleted, and a resume
        converges on the uninterrupted run's database."""
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        reference_dir, _ = sqlite_run
        run_dir = tmp_path / "faulted"
        monkeypatch.setenv(FAULTS_ENV, "ingest-error:times=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))
        with pytest.raises(OSError, match="ingest-error"):
            bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                     workers=1)
        assert leftovers(run_dir) == []
        manifest = json.loads((run_dir / "manifest.json").read_text())
        done = [
            shard_id for shard_id, entry in manifest["shards"].items()
            if entry.get("status") == "done"
        ]
        assert len(done) == 1  # committed, but not in the index
        rolled_back = snapshot(run_dir / "results.sqlite")
        assert rolled_back["results"] == [] and rolled_back["shards"] == []

        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=1, resume=True)
        assert report.shards_skipped == 1
        assert leftovers(run_dir) == []
        reference = snapshot(reference_dir / "results.sqlite")
        assert snapshot(run_dir / "results.sqlite") == reference

    def test_kill_between_commit_and_ingest_is_swept_and_reconciled(
        self, query_model, query_corpus, sqlite_run, tmp_path, disarmed
    ):
        """The state a SIGKILL leaves between a shard's manifest save
        and its staged ingest — shard done, index without it, staging
        file orphaned — resumes to the uninterrupted database, and the
        orphan (here holding wrong rows) is swept, never ingested."""
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        reference_dir, _ = sqlite_run
        run_dir = tmp_path / "killed"
        shutil.copytree(reference_dir, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        victim = manifest["order"][-1]
        connection = sqlite3.connect(run_dir / "results.sqlite")
        with connection:
            _drop_shard(connection, victim)
            _refresh_fingerprint(connection)
        connection.close()
        orphan = RowStager(
            run_dir / f"{manifest['shards'][victim]['output']}.rows.part.99999"
        )
        orphan.add(["http://wrong.example/"], [None], [None], [""], ["{}"])
        orphan.close()

        report = bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                          workers=1, resume=True)
        assert report.shards_scored == 0
        assert leftovers(run_dir) == []
        assert snapshot(run_dir / "results.sqlite") == snapshot(
            reference_dir / "results.sqlite"
        )

    def test_worker_commit_failure_deletes_its_staging_file(
        self, query_model, query_corpus, tmp_path, monkeypatch
    ):
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        run_dir = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "commit-error:times=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))
        with pytest.raises(ShardCommitError):
            bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                     workers=1)
        assert leftovers(run_dir) == []


    def test_staging_write_failure_is_a_typed_commit_error(
        self, query_model, query_corpus, tmp_path, disarmed, monkeypatch
    ):
        """A full disk while staging rows fails the shard like one while
        writing its output: typed, remedy named, nothing left behind."""
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        run_dir = tmp_path / "run"

        def full(*columns):
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(RowStager, "add", full)
        with pytest.raises(ShardCommitError, match="re-run with --resume"):
            bulk.run(model_path, shard_dir, run_dir, sink="sqlite",
                     workers=1)
        assert leftovers(run_dir) == []


class TestIngestEvents:
    def test_sqlite_shard_commits_carry_ingest_seconds(self, sqlite_run):
        run_dir, report = sqlite_run
        commits = [
            event for event in map(
                json.loads, (run_dir / "events.jsonl").read_text().splitlines()
            )
            if event["event"] == "shard-commit"
        ]
        assert len(commits) == report.shards_scored
        for event in commits:
            assert isinstance(event["ingest_seconds"], float)
            assert event["ingest_seconds"] >= 0.0

    def test_unindexed_runs_carry_no_ingest_field(
        self, query_model, query_corpus, tmp_path, disarmed
    ):
        model_path, _ = query_model
        shard_dir, _ = query_corpus
        run_dir = tmp_path / "jsonl"
        bulk.run(model_path, shard_dir, run_dir, sink="jsonl", workers=1)
        for line in (run_dir / "events.jsonl").read_text().splitlines():
            assert "ingest_seconds" not in json.loads(line)
