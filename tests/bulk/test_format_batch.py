"""Byte parity of the columnar sink formatters with an independent
row-by-row reference.

``format_batch`` assembles JSONL rows from a batch's score columns
instead of calling ``json.dumps`` per row; these properties hold it to
exactly the bytes ``json.dumps`` (and ``csv.writer``, and the TSV row)
would produce from the same batch's :class:`~repro.api.Prediction`
rows — over URLs with non-ASCII text, quotes, backslashes and control
characters, ``und`` rows, a missing provenance stamp, and non-finite
scores.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.types import ModelInfo
from repro.bulk import make_sink
from repro.core.scored import ScoredBatch
from repro.languages import LANGUAGES

MODEL = ModelInfo(name="test", backend="compiled", languages=tuple(LANGUAGES))

urls = st.text(
    st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é"]),
    ),
    min_size=1,
    max_size=40,
)
scores = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, -1e300, float("nan"),
                     float("inf"), float("-inf")]),
)
provenances = st.one_of(st.none(), st.just(""), st.text(max_size=20))


@st.composite
def batches(draw, finite: bool = False):
    """A scored batch with languages in a drawn scorer order."""
    languages = draw(st.permutations(LANGUAGES))
    k = draw(st.integers(min_value=0, max_value=len(languages)))
    languages = languages[:k]
    batch_urls = draw(st.lists(urls, min_size=0, max_size=12))
    values = st.floats(-1e6, 1e6) if finite else scores
    matrix = np.array(
        [[draw(values) for _ in languages] for _ in batch_urls],
        dtype=np.float64,
    ).reshape(len(batch_urls), len(languages))
    return ScoredBatch(batch_urls, languages, matrix)


def reference_jsonl(prediction, provenance) -> str:
    """The row ``json.dumps`` writes for one prediction."""
    row = {
        "url": prediction.url,
        "best": prediction.best.value if prediction.best else None,
        "positives": [language.value for language in prediction.positives],
        "scores": {
            language.value: score
            for language, score in sorted(
                prediction.scores.items(), key=lambda kv: kv[0].value
            )
        },
    }
    if provenance:
        row["model"] = provenance
    return json.dumps(row, separators=(",", ":"))


def reference_csv(prediction, provenance) -> str:
    scores = {language.value: s for language, s in prediction.scores.items()}
    cells = [
        prediction.url,
        prediction.best.value if prediction.best else "",
        ",".join(language.value for language in prediction.positives),
    ]
    cells += [repr(scores[code]) for code in sorted(scores)]
    cells.append(provenance or "")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(cells)
    return buffer.getvalue()


def reference(name, scored, provenance) -> str:
    rows = []
    for prediction in scored.result(MODEL):
        if name == "tsv":
            rows.append(prediction.tsv())
        elif name == "csv":
            rows.append(reference_csv(prediction, provenance))
        else:
            rows.append(reference_jsonl(prediction, provenance))
    return "".join(row + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(scored=batches(), provenance=provenances)
def test_jsonl_batch_is_json_dumps_byte_for_byte(scored, provenance):
    for name in ("jsonl", "sqlite"):
        sink = make_sink(name, provenance=provenance)
        assert sink.format_batch(scored) == reference(
            "jsonl", scored, provenance
        )


@settings(max_examples=100, deadline=None)
@given(scored=batches(), provenance=provenances)
def test_single_row_format_is_json_dumps(scored, provenance):
    sink = make_sink("jsonl", provenance=provenance)
    for prediction in scored.result(MODEL):
        assert sink.format(prediction) == reference_jsonl(
            prediction, provenance
        )


@settings(max_examples=100, deadline=None)
@given(scored=batches(), provenance=provenances)
def test_tsv_batch_matches_prediction_rows(scored, provenance):
    sink = make_sink("tsv", provenance=provenance)
    assert sink.format_batch(scored) == reference("tsv", scored, provenance)


@settings(max_examples=100, deadline=None)
@given(scored=batches(), provenance=provenances)
def test_csv_batch_matches_csv_writer(scored, provenance):
    if len(scored.languages) != len(LANGUAGES):
        return  # the csv header names every language's column
    sink = make_sink("csv", provenance=provenance)
    assert sink.format_batch(scored) == reference("csv", scored, provenance)


@settings(max_examples=100, deadline=None)
@given(scored=batches(), provenance=provenances)
def test_indexed_columns_are_views_of_the_jsonl_rows(scored, provenance):
    """The staged ingest row carries the exact ``scores`` substring of
    its JSONL line and the best score bit for bit."""
    sink = make_sink("sqlite", provenance=provenance)
    text, (column_urls, best, score, positives, scores_json) = (
        sink.format_indexed(scored)
    )
    assert text == sink.format_batch(scored)
    lines = text.splitlines()
    assert list(column_urls) == list(scored.urls)
    for row, line in enumerate(lines):
        parsed = json.loads(line)
        assert f'"scores":{scores_json[row]}' in line
        assert best[row] == parsed["best"]
        assert positives[row] == ",".join(parsed["positives"])
        if best[row] is None:
            assert score[row] is None
        else:
            expected = parsed["scores"][best[row]]
            assert np.float64(score[row]).tobytes() == \
                np.float64(expected).tobytes()


def test_non_finite_scores_read_as_json_writes_them():
    scored = ScoredBatch(
        ["http://x.de/"], LANGUAGES[:3],
        np.array([[float("nan"), float("inf"), float("-inf")]]),
    )
    line = make_sink("jsonl").format_batch(scored)
    assert "NaN" in line and "Infinity" in line and "-Infinity" in line
    assert "nan" not in line and "inf," not in line
    assert line == reference("jsonl", scored, None)


def test_und_row_without_provenance():
    scored = ScoredBatch(
        ['http://ünï.com/"q"\\x\x01'], LANGUAGES,
        np.full((1, len(LANGUAGES)), -1.5),
    )
    line = make_sink("jsonl", provenance=None).format_batch(scored)
    row = json.loads(line)
    assert row["best"] is None and row["positives"] == []
    assert "model" not in row
    assert line == reference("jsonl", scored, None)
