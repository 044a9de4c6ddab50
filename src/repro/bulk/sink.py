"""Output sinks of the bulk engine: predictions out, one row per URL.

A sink is a **row formatter**: the engine owns the files (one output
shard per input shard, written atomically and hashed for the
checkpoint manifest); the sink decides what a row looks like.  The
engine hands a sink one :class:`~repro.core.scored.ScoredBatch` per
chunk and writes what :meth:`RowSink.format_batch` returns;
:meth:`RowSink.format` is the same row for one
:class:`~repro.api.Prediction`.  Four formats ship:

* ``tsv`` — exactly the rows ``repro classify`` prints
  (``best <TAB> binary-yes <TAB> url``), so the concatenated shard
  outputs of a bulk run are **byte-identical** to a single-process
  ``classify`` over the concatenated input.  Carries no scores.
* ``jsonl`` — one JSON object per URL with the per-language decision
  scores and the model provenance stamp (``name@checksum`` — enough to
  trace every row back to the exact artifact that scored it).
* ``csv`` — header + one row per URL with per-language score columns
  and the same provenance stamp.
* ``sqlite`` — the ``jsonl`` rows byte-for-byte, **plus** a derived
  SQLite result index (``results.sqlite``) the engine maintains beside
  the shards (see :mod:`repro.query`).  The text shards stay the
  checkpointed source of truth; the database is always rebuildable
  from them.

:class:`SummaryAccumulator` is the rollup sink every run feeds: per-
language decision counts, row totals, throughput — mergeable across
shards and workers, landing in the run manifest and the CLI's closing
summary line.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from repro.api.types import Prediction
from repro.bulk.errors import BulkError
from repro.core.scored import ScoredBatch
from repro.languages import LANGUAGES

__all__ = [
    "SINKS",
    "RowSink",
    "CsvSink",
    "JsonlSink",
    "SqliteSink",
    "SummaryAccumulator",
    "TsvSink",
    "make_sink",
]

#: Language codes in stable (sorted) column order.
_CODES = tuple(sorted(language.value for language in LANGUAGES))


@dataclass(frozen=True)
class RowSink:
    """Base row formatter.

    ``provenance`` is the model stamp rows may carry
    (``<name>@<checksum-prefix>``); the engine builds it from the
    checkpoint fingerprint so sink rows and manifest agree about which
    model scored the run.
    """

    provenance: str | None = None

    #: File suffix of output shards in this format (per subclass).
    suffix: ClassVar[str] = ".txt"

    #: Whether the engine should maintain a SQLite result index
    #: (:mod:`repro.query`) beside the shards of a run in this format.
    indexes_results: ClassVar[bool] = False

    def header(self) -> str | None:
        """Optional first line of every output shard."""
        return None

    def format(self, prediction: Prediction) -> str:
        """One output row (no trailing newline)."""
        raise NotImplementedError

    def format_batch(self, scored: ScoredBatch) -> str:
        """Every row of one scored chunk, each ending in a newline.

        This default formats row by row through :meth:`format`;
        :class:`TsvSink` and :class:`JsonlSink` read the batch's columns
        instead, with the same bytes.
        """
        by_code = {language.value: language for language in scored.languages}
        return "".join(
            self.format(Prediction(
                url=url,
                best=best,
                positives=tuple(by_code[code] for code in positives),
                scores=dict(zip(scored.languages, row)),
            )) + "\n"
            for url, best, positives, row in zip(
                scored.urls, scored.best, scored.positives,
                scored.matrix.tolist(),
            )
        )


class TsvSink(RowSink):
    """``classify``-compatible TSV: ``best <TAB> positives <TAB> url``.

    Deliberately provenance- and score-free: its contract is byte
    parity with the interactive path (provenance lives in the run
    manifest next to the output shards).
    """

    suffix = ".tsv"

    def format(self, prediction: Prediction) -> str:
        return prediction.tsv()

    def format_batch(self, scored: ScoredBatch) -> str:
        return "".join(row.tsv() + "\n" for row in scored.served())


#: The string escaper ``json.dumps`` uses under its default
#: ``ensure_ascii=True``.
_json_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    """``value`` as ``json.dumps`` writes it: ``float.__repr__``, or
    ``NaN`` / ``Infinity`` / ``-Infinity``."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


@functools.lru_cache(maxsize=256)
def _json_codes(codes: tuple[str, ...]) -> str:
    return "[" + ",".join(map(_json_string, codes)) + "]"


class _ScoreLayout(NamedTuple):
    """How scores in one language order become a JSON ``scores`` object."""

    #: Score columns in language-code order.
    order: list[int]
    #: JSON-escaped codes, in that order.
    keys: list[str]
    #: ``{"<code>":%r,...}``: one ``%``-format per row of finite scores
    #: (``%r`` of a float is the ``float.__repr__`` ``json.dumps`` uses).
    template: str


@functools.lru_cache(maxsize=32)
def _score_layout(codes: tuple[str, ...]) -> _ScoreLayout:
    order = sorted(range(len(codes)), key=codes.__getitem__)
    keys = [_json_string(codes[column]) for column in order]
    template = "{" + ",".join(f"{key}:%r" for key in keys) + "}"
    return _ScoreLayout(order, keys, template)


def _scores_json(
    layout: _ScoreLayout, rows: list[tuple[float, ...]], finite: bool
) -> list[str]:
    """One ``scores`` object per row of ``rows`` (already in
    ``layout.order``), exactly as ``json.dumps`` writes it.  Rows that
    are not all ``finite`` go value by value, so non-finite scores read
    ``NaN``/``Infinity`` rather than ``repr``'s ``nan``/``inf``."""
    if finite:
        return [layout.template % row for row in rows]
    return [
        "{" + ",".join(
            f"{key}:{_json_float(value)}"
            for key, value in zip(layout.keys, row)
        ) + "}"
        for row in rows
    ]


#: Language → its code, without the enum's ``value`` descriptor.
_CODE_OF = {language: language.value for language in LANGUAGES}


class JsonlSink(RowSink):
    """One JSON object per URL: decisions, scores, provenance.

    Scores are emitted with JSON ``repr`` round-tripping, so a reader
    recovers bit-identical floats to what the scoring matmul produced.
    Rows are the bytes ``json.dumps(row, separators=(",", ":"))`` would
    write, assembled from the batch's columns: strings escaped by
    ``json``'s own ASCII escaper, floats by ``float.__repr__``, scores
    in language-code order.
    """

    suffix = ".jsonl"

    def format(self, prediction: Prediction) -> str:
        layout = _score_layout(tuple(map(_CODE_OF.get, prediction.scores)))
        values = list(prediction.scores.values())
        row = tuple(float(values[column]) for column in layout.order)
        best = prediction.best
        (line,) = self._lines(
            [prediction.url],
            [None if best is None else _CODE_OF[best]],
            [tuple(map(_CODE_OF.get, prediction.positives))],
            _scores_json(layout, [row], all(map(math.isfinite, row))),
        )
        return line

    def format_batch(self, scored: ScoredBatch) -> str:
        lines, _ = self._encode(scored)
        return "".join(line + "\n" for line in lines)

    def _encode(self, scored: ScoredBatch) -> tuple[list[str], list[str]]:
        """The batch's JSONL rows and, per row, the ``scores`` object
        inside it."""
        layout = _score_layout(scored.codes)
        block = scored.matrix[:, layout.order]
        scores = _scores_json(
            layout,
            list(map(tuple, block.tolist())),
            bool(np.isfinite(block).all()),
        )
        return self._lines(
            scored.urls, scored.best_codes, scored.positives, scores
        ), scores

    def _lines(
        self,
        urls: Sequence[str],
        best: Sequence[str | None],
        positives: Sequence[tuple[str, ...]],
        scores: Sequence[str],
    ) -> list[str]:
        tail = (
            f',"model":{_json_string(self.provenance)}}}'
            if self.provenance else "}"
        )
        return [
            f'{{"url":{_json_string(url)},'
            f'"best":{"null" if label is None else _json_string(label)},'
            f'"positives":{_json_codes(codes)},"scores":{row}{tail}'
            for url, label, codes, row in zip(urls, best, positives, scores)
        ]


class CsvSink(RowSink):
    """Header + one CSV row per URL with per-language score columns."""

    suffix = ".csv"

    def header(self) -> str | None:
        columns = ["url", "best", "positives"]
        columns += [f"score_{code}" for code in _CODES]
        columns.append("model")
        return self._row(columns)

    def format(self, prediction: Prediction) -> str:
        scores = {
            language.value: score
            for language, score in prediction.scores.items()
        }
        cells = [
            prediction.url,
            prediction.best.value if prediction.best else "",
            ",".join(language.value for language in prediction.positives),
        ]
        cells += [repr(scores[code]) for code in _CODES]
        cells.append(self.provenance or "")
        return self._row(cells)

    @staticmethod
    def _row(cells: list[str]) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="").writerow(cells)
        return buffer.getvalue()


class SqliteSink(JsonlSink):
    """JSONL rows plus an engine-maintained SQLite result index.

    The **file contract is exactly** :class:`JsonlSink` — same suffix,
    same bytes, same shard sha256s — so the manifest resume/verify
    story is untouched and an interrupted sqlite run can even be
    resumed as ``jsonl`` (or vice versa, modulo the manifest's sink
    check).  What changes is engine-side: each worker also stages the
    rows it formats (:meth:`format_indexed`) in a private per-shard
    file, after every shard commit the engine copies those rows into
    ``results.sqlite`` in the run directory with SQL alone, and at the
    end of the run it reconciles the database against the manifest
    (:func:`repro.query.ingest.index_run`).  Workers never touch the
    result database itself; only the engine parent writes it.
    """

    # Engine-side flag: maintain the result index for this run.
    indexes_results: ClassVar[bool] = True

    def format_indexed(
        self, scored: ScoredBatch
    ) -> tuple[str, tuple[list, ...]]:
        """:meth:`format_batch`'s text plus the same rows as result-index
        columns ``(url, best, score, positives, scores)`` — ``scores``
        is the exact ``scores`` text of each JSONL row — ready for
        :meth:`repro.query.ingest.RowStager.add`."""
        lines, scores = self._encode(scored)
        columns = (
            scored.urls,
            scored.best_codes,
            scored.best_scores,
            [",".join(codes) for codes in scored.positives],
            scores,
        )
        return "".join(line + "\n" for line in lines), columns


#: Registered sink formats, by CLI name.
SINKS: dict[str, type[RowSink]] = {
    "tsv": TsvSink,
    "jsonl": JsonlSink,
    "csv": CsvSink,
    "sqlite": SqliteSink,
}


def make_sink(name: str, provenance: str | None = None) -> RowSink:
    """The registered sink for ``name`` (raise a typed error otherwise)."""
    try:
        sink_type = SINKS[name]
    except KeyError:
        raise BulkError(
            f"unknown sink format {name!r}; supported: "
            f"{', '.join(sorted(SINKS))}"
        ) from None
    return sink_type(provenance=provenance)


@dataclass
class SummaryAccumulator:
    """Mergeable per-run rollup: row counts and per-language decisions.

    ``best`` counts the single best label per URL (``und`` when every
    binary classifier said no); ``positives`` counts every yes answer,
    so its total can exceed ``rows`` (a URL can look Spanish *and*
    Italian to the paper's five binary classifiers).
    """

    rows: int = 0
    best: dict[str, int] = field(default_factory=dict)
    positives: dict[str, int] = field(default_factory=dict)

    def observe(self, prediction: Prediction) -> None:
        self.rows += 1
        label = prediction.best.value if prediction.best else "und"
        self.best[label] = self.best.get(label, 0) + 1
        for language in prediction.positives:
            code = language.value
            self.positives[code] = self.positives.get(code, 0) + 1

    def observe_batch(self, scored: ScoredBatch) -> None:
        """Count one scored chunk from its ``best_codes`` and
        ``positives`` columns."""
        self.rows += len(scored.urls)
        for label, count in Counter(scored.best_codes).items():
            label = label or "und"
            self.best[label] = self.best.get(label, 0) + count
        for code, count in Counter(
            itertools.chain.from_iterable(scored.positives)
        ).items():
            self.positives[code] = self.positives.get(code, 0) + count

    def merge(self, other: "SummaryAccumulator") -> None:
        self.rows += other.rows
        for label, count in other.best.items():
            self.best[label] = self.best.get(label, 0) + count
        for code, count in other.positives.items():
            self.positives[code] = self.positives.get(code, 0) + count

    def snapshot(self) -> dict:
        return {
            "rows": self.rows,
            "best": dict(sorted(self.best.items())),
            "positives": dict(sorted(self.positives.items())),
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "SummaryAccumulator":
        return cls(
            rows=int(snapshot.get("rows", 0)),
            best=dict(snapshot.get("best", {})),
            positives=dict(snapshot.get("positives", {})),
        )
