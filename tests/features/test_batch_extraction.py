"""Properties of the one-pass batch extractor (``FeatureIndexer.rows_fused``).

``rows_fused`` tokenises and interns a whole batch at once: one byte
buffer joined by a ``0xff`` separator, one dict lookup or table gather
per item, one sort to merge repeats within a row.  Whatever the batch,
its output must be the CSR batch the reference two-step
(``transform(extract_many(...))``) builds, array for array: same
``indptr``/``indices``/``data`` values and dtypes, same residuals in the
same order.  The properties below vary what a batch-level pass could get
wrong: where batches are split, separator-like bytes inside URLs,
all-ASCII batches with and without one non-ASCII URL, duplicate URLs and
empty batches.

CI runs this module with ``--hypothesis-profile=ci`` (500 examples).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.features.indexer import CsrBatch, FeatureIndexer, build_fused_plan
from repro.features.ngrams import TrigramFeatureExtractor
from repro.features.words import WordFeatureExtractor
from repro.testing.urlgen import EDGE_CASE_URLS, adversarial_urls, random_url

#: Vocabulary source: half the adversarial corpus, so batches mix
#: interned features with out-of-vocabulary residuals.
FIT_URLS = adversarial_urls(400, seed=11)[::2]

#: Characters that look like separators to a byte-level pass: NUL, the
#: separator byte's code point and the one whose lowercase it is,
#: whitespace, and text that lowers to ASCII letters (the Kelvin sign).
SEPARATOR_LIKE = ["\x00", "\xff", "Ÿ", " ", "\t", "\n", "K", "\ud800"]

#: Any unicode text (the contract is "any string", not "URL").
ANY_TEXT = st.text(max_size=60)

#: Strings built around separator-like characters.
SEPARATOR_TEXT = st.lists(
    st.one_of(
        st.sampled_from(SEPARATOR_LIKE),
        st.sampled_from(["ab", "www", "de", "Kelvin", "zeitung", "x", "HTTP"]),
    ),
    max_size=12,
).map("".join)

#: Draws from the adversarial URL generator.
GENERATED = st.integers(0, 2**32 - 1).map(lambda seed: random_url(random.Random(seed)))

ASCII_URLS = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=127), max_size=60
)

ANY_URL = st.one_of(ANY_TEXT, SEPARATOR_TEXT, GENERATED, st.sampled_from(EDGE_CASE_URLS))

BATCHES = st.lists(ANY_URL, max_size=12)


def _setup(extractor):
    indexer = FeatureIndexer().fit(extractor.extract_many(FIT_URLS))
    plan = build_fused_plan(extractor, indexer)
    assert plan is not None
    return extractor, indexer, plan


SETUPS = {
    "words": _setup(WordFeatureExtractor()),
    "trigrams": _setup(TrigramFeatureExtractor()),
}

KINDS = pytest.mark.parametrize("kind", sorted(SETUPS))


def assert_identical(expected: CsrBatch, actual: CsrBatch) -> None:
    for name in ("indptr", "indices", "data"):
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.n_features == expected.n_features
    assert actual.residuals == expected.residuals


def assert_matches_reference(kind: str, urls: list[str]) -> CsrBatch:
    extractor, indexer, plan = SETUPS[kind]
    fused = indexer.rows_fused(urls, plan)
    assert_identical(indexer.transform(extractor.extract_many(urls)), fused)
    return fused


def concatenate(first: CsrBatch, second: CsrBatch) -> CsrBatch:
    """The batch of ``first``'s rows followed by ``second``'s."""
    offset = first.n_rows
    return CsrBatch(
        indptr=np.concatenate([first.indptr, second.indptr[1:] + first.indptr[-1]]),
        indices=np.concatenate([first.indices, second.indices]),
        data=np.concatenate([first.data, second.data]),
        n_features=first.n_features,
        residuals=first.residuals
        + [(row + offset, name, value) for row, name, value in second.residuals],
    )


@KINDS
@given(urls=BATCHES)
def test_any_batch_matches_the_reference(kind, urls):
    assert_matches_reference(kind, urls)


@KINDS
@given(first=BATCHES, second=BATCHES)
def test_batch_split_invariance(kind, first, second):
    _, indexer, plan = SETUPS[kind]
    whole = assert_matches_reference(kind, first + second)
    parts = concatenate(indexer.rows_fused(first, plan), indexer.rows_fused(second, plan))
    assert_identical(whole, parts)


@KINDS
@given(urls=st.lists(SEPARATOR_TEXT, min_size=1, max_size=12))
def test_separator_like_characters_inside_urls(kind, urls):
    assert_matches_reference(kind, urls)


@KINDS
@given(
    urls=st.lists(ASCII_URLS, max_size=12),
    stranger=st.text(min_size=1, max_size=20).filter(lambda text: not text.isascii()),
    at=st.integers(0, 12),
)
def test_ascii_batches_with_and_without_one_non_ascii_url(kind, urls, stranger, at):
    assert_matches_reference(kind, urls)
    assert_matches_reference(kind, urls[:at] + [stranger] + urls[at:])


@KINDS
@given(
    urls=st.lists(ANY_URL, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=15),
)
def test_duplicate_urls(kind, urls, picks):
    assert_matches_reference(kind, [urls[pick % len(urls)] for pick in picks])


@KINDS
@pytest.mark.parametrize("urls", [[], [""], ["", ""], ["", "www.de", ""]])
def test_empty_batches_and_empty_urls(kind, urls):
    batch = assert_matches_reference(kind, urls)
    assert batch.n_rows == len(urls)
