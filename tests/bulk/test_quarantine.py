"""Row quarantine, injected commit faults, and `bulk verify`.

A fleet-sized input always contains garbage rows; these tests pin the
contract that garbage is *diverted* (to a checksummed
``*.quarantine.jsonl`` sidecar named in the manifest), never silently
dropped and — by default — never fatal.  Crash faults come from
:mod:`repro.testing.faults`, so the ENOSPC and poison-row scenarios are
deterministic.
"""

from __future__ import annotations

import io
import json
import sqlite3

import pytest

import repro.bulk as bulk
from repro.bulk import BulkError, ShardCommitError, VerifyError, verify_run
from repro.bulk.engine import QUARANTINE_SUFFIX
from repro.cli import main
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV


@pytest.fixture(autouse=True)
def disarmed(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv(FAULTS_STATE_ENV, raising=False)


@pytest.fixture()
def dirty_corpus(small_bundle, tmp_path):
    """One jsonl shard with three malformed rows among good ones, plus
    one perfectly clean shard.  Returns ``(shard_dir, good_urls)``."""
    urls = list(small_bundle.odp_test.urls[:30])
    shard_dir = tmp_path / "dirty-shards"
    shard_dir.mkdir()
    rows = [json.dumps({"url": url}) for url in urls[:15]]
    rows.insert(3, '{"url": "http://broken.example/"')  # invalid JSON
    rows.insert(7, json.dumps({"page": "http://no-field.example/"}))
    rows.insert(11, json.dumps({"url": ""}))  # empty URL
    (shard_dir / "part-00.jsonl").write_text("\n".join(rows) + "\n")
    (shard_dir / "part-01.jsonl").write_text(
        "\n".join(json.dumps({"url": url}) for url in urls[15:]) + "\n"
    )
    return shard_dir, urls


def output_rows(report):
    rows = []
    for name in report.outputs:
        with open(f"{report.output_dir}/{name}") as stream:
            rows.extend(stream.read().splitlines())
    return rows


def sidecar_entries(run_dir, entry):
    path = run_dir / entry["quarantine_file"]
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestRowQuarantine:
    def test_malformed_rows_diverted_good_rows_scored(
        self, bulk_model, dirty_corpus, tmp_path
    ):
        model_path, identifier = bulk_model
        shard_dir, urls = dirty_corpus
        run_dir = tmp_path / "run"
        report = bulk.run(model_path, shard_dir, run_dir, workers=2)

        # Every well-formed row scored, byte-identical to classify.
        assert report.rows_scored == len(urls)
        assert report.rows_quarantined == 3
        assert "3 quarantined" in report.describe()
        expected = [p.tsv() for p in identifier.predict_iter(urls)]
        assert output_rows(report) == expected

        manifest = json.loads((run_dir / "manifest.json").read_text())
        dirty = manifest["shards"]["part-00.jsonl"]
        clean = manifest["shards"]["part-01.jsonl"]
        assert dirty["quarantined"] == 3
        assert dirty["quarantine_file"].endswith(QUARANTINE_SUFFIX)
        assert len(dirty["quarantine_sha256"]) == 64
        assert manifest["summary"]["quarantined"] == 3

        # Quarantine entries carry the row number, the offending raw
        # line, and a human-readable reason.
        entries = sidecar_entries(run_dir, dirty)
        assert [e["row"] for e in entries] == [4, 8, 12]
        assert "invalid JSON" in entries[0]["reason"]
        assert "no \"url\" field" in entries[1]["reason"] or \
            "url" in entries[1]["reason"]
        assert entries[1]["raw"] == json.dumps(
            {"page": "http://no-field.example/"}
        )

        # The clean shard gets no sidecar and no manifest noise.
        assert "quarantine_file" not in clean
        assert not list(run_dir.glob(f"*part-01*{QUARANTINE_SUFFIX}"))

    def test_no_quarantine_restores_strict_failure(
        self, bulk_model, dirty_corpus, tmp_path
    ):
        model_path, _ = bulk_model
        shard_dir, _ = dirty_corpus
        with pytest.raises(BulkError, match="invalid JSON"):
            bulk.run(model_path, shard_dir, tmp_path / "run",
                     workers=1, quarantine=False)

    @pytest.mark.parametrize("sink", ["tsv", "jsonl", "sqlite"])
    def test_poisoned_url_quarantined_after_per_row_retry(
        self, bulk_model, corpus, reference_rows, tmp_path, monkeypatch,
        sink,
    ):
        """A row that makes predict itself blow up: the chunk fails,
        the per-row retry isolates the poison row, everything else in
        the chunk still scores — in every sink, and for the sqlite sink
        the index holds exactly the rows that were not quarantined."""
        model_path, identifier = bulk_model
        shard_dir, urls = corpus
        poison_dir = tmp_path / "poison-shards"
        poison_dir.mkdir()
        poisoned = list(urls[:20])
        poisoned.insert(9, "http://POISON.example/boom")
        (poison_dir / "part-00.txt").write_text("\n".join(poisoned) + "\n")

        monkeypatch.setenv(
            FAULTS_ENV, "predict-error:match=POISON,times=inf"
        )
        run_dir = tmp_path / "run"
        report = bulk.run(model_path, poison_dir, run_dir, workers=1,
                          chunk_size=16, sink=sink)
        assert report.rows_scored == 20
        assert report.rows_quarantined == 1
        if sink == "tsv":
            assert output_rows(report) == reference_rows[:20]
        else:
            lines = output_rows(report)
            stamp = json.loads(lines[0])["model"]
            row_sink = bulk.make_sink(sink, provenance=stamp)
            assert lines == [
                row_sink.format(prediction)
                for prediction in identifier.predict(urls[:20])
            ]

        manifest = json.loads((run_dir / "manifest.json").read_text())
        entry = manifest["shards"]["part-00.txt"]
        (quarantined,) = sidecar_entries(run_dir, entry)
        assert quarantined["url"] == "http://POISON.example/boom"
        assert "per-row retry" in quarantined["reason"]
        assert "injected fault" in quarantined["reason"]

        if sink == "sqlite":
            connection = sqlite3.connect(run_dir / "results.sqlite")
            try:
                indexed = [
                    url for (url,) in connection.execute(
                        "SELECT url FROM results ORDER BY id"
                    )
                ]
            finally:
                connection.close()
            assert indexed == list(urls[:20])
            assert not list(run_dir.glob("*.part.*"))


class TestCommitFaults:
    def test_enospc_on_commit_is_typed_then_resume_reaches_parity(
        self, bulk_model, corpus, reference_rows, tmp_path, monkeypatch
    ):
        """The chaos-smoke scenario: disk full at shard commit →
        typed ShardCommitError naming the remedy; after the 'disk'
        recovers, --resume re-scores only what is missing and the
        final output is byte-identical to a fault-free run."""
        model_path, _ = bulk_model
        shard_dir, _ = corpus
        run_dir = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "commit-error:times=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))

        with pytest.raises(ShardCommitError, match="re-run with --resume"):
            bulk.run(model_path, shard_dir, run_dir, workers=1)
        # The failed shard left no half-written output behind.
        assert not list(run_dir.glob("*.part.*"))

        report = bulk.run(model_path, shard_dir, run_dir, workers=1,
                          resume=True)
        assert output_rows(report) == reference_rows
        verified = verify_run(run_dir)  # everything re-hashes clean
        assert verified.shards_verified == 3


class TestVerifyRun:
    @pytest.fixture()
    def finished_run(self, bulk_model, dirty_corpus, tmp_path):
        model_path, _ = bulk_model
        shard_dir, _ = dirty_corpus
        run_dir = tmp_path / "verify-run"
        report = bulk.run(model_path, shard_dir, run_dir, workers=1)
        return run_dir, report

    def test_clean_run_verifies(self, finished_run):
        run_dir, report = finished_run
        verified = verify_run(run_dir)
        assert verified.shards_verified == 2
        assert verified.rows == report.rows_scored
        assert verified.quarantined == report.rows_quarantined
        assert verified.bytes_hashed > 0
        assert "verified 2 shard(s)" in verified.describe()

    def test_tampered_output_detected(self, finished_run):
        run_dir, report = finished_run
        victim = run_dir / report.outputs[0]
        victim.write_text(victim.read_text()[:-40])
        with pytest.raises(VerifyError, match="does not match checkpointed"):
            verify_run(run_dir)

    def test_tampered_sidecar_detected(self, finished_run):
        run_dir, _ = finished_run
        (sidecar,) = run_dir.glob(f"*{QUARANTINE_SUFFIX}")
        sidecar.write_text("{}\n")
        with pytest.raises(VerifyError, match="does not match checkpointed"):
            verify_run(run_dir)

    def test_deleted_output_detected(self, finished_run):
        run_dir, report = finished_run
        (run_dir / report.outputs[1]).unlink()
        with pytest.raises(VerifyError, match="unreadable"):
            verify_run(run_dir)

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(VerifyError, match="nothing to verify"):
            verify_run(tmp_path / "nowhere")

    def test_unfinished_run_refused(
        self, bulk_model, corpus, tmp_path, monkeypatch
    ):
        model_path, _ = bulk_model
        shard_dir, _ = corpus
        run_dir = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "commit-error:times=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path / "fault-state"))
        with pytest.raises(ShardCommitError):
            bulk.run(model_path, shard_dir, run_dir, workers=1)
        with pytest.raises(VerifyError, match="not finished"):
            verify_run(run_dir)


class TestCli:
    def test_bulk_verify_subcommand(self, bulk_model, corpus, tmp_path):
        model_path, _ = bulk_model
        shard_dir, _ = corpus
        run_dir = tmp_path / "run"
        main(["bulk", "--model", str(model_path), "--input", str(shard_dir),
              "--output", str(run_dir)], out=io.StringIO())
        out = io.StringIO()
        code = main(["bulk", "verify", "--output", str(run_dir)], out=out)
        assert code == 0
        assert "verified" in out.getvalue()

    def test_bulk_verify_json(self, bulk_model, corpus, tmp_path):
        model_path, _ = bulk_model
        shard_dir, _ = corpus
        run_dir = tmp_path / "run"
        report = bulk.run(model_path, shard_dir, run_dir, workers=1)
        out = io.StringIO()
        assert main(
            ["bulk", "verify", "--output", str(run_dir), "--json"], out=out
        ) == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 1  # one machine-readable line, nothing else
        payload = json.loads(lines[0])
        assert payload["shards_verified"] == report.shards_total
        assert payload["rows"] == report.rows_total
        assert payload["output_dir"] == str(run_dir)

    def test_bulk_run_still_requires_model_and_input(self, tmp_path):
        with pytest.raises(SystemExit, match="--model and --input"):
            main(["bulk", "--output", str(tmp_path / "run")],
                 out=io.StringIO())

    def test_no_quarantine_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bulk", "--model", "m", "--input", "i", "--output", "o",
             "--no-quarantine"]
        )
        assert args.no_quarantine is True
        assert args.action == "run"
