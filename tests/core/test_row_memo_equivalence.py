"""The interned-row memo answers exactly what fresh extraction would.

``CompiledIdentifier.batch`` stores each extracted row as two ``bytes``
slices plus its residuals, and rebuilds later batches from them with
one ``join`` per array.  A batch that mixes memo hits, misses and
in-batch duplicates must come out CSR-identical to extracting the whole
batch from scratch, and the arrays it returns are the caller's: writable,
and sharing no memory with the memo or with earlier answers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import LanguageIdentifier
from repro.features.indexer import CsrBatch
from repro.testing.urlgen import adversarial_urls

POOL = adversarial_urls(40, seed=5)

#: (feature set, extraction backend) pairs the memo serves.
BACKENDS = [
    ("words", "fused"),
    ("words", "reference"),
    ("trigrams", "fused"),
    ("trigrams", "reference"),
]


@pytest.fixture(scope="module", params=BACKENDS, ids=lambda p: "-".join(p))
def compiled(request, small_train):
    feature_set, extraction = request.param
    identifier = LanguageIdentifier(feature_set, "NB", seed=0).fit(
        small_train.subsample(0.3, seed=4)
    )
    compiled = identifier.compiled
    compiled.extraction = extraction
    return compiled


def fresh(compiled, urls: list[str]) -> CsrBatch:
    """The batch extracted from scratch, bypassing the memo."""
    if compiled.extraction == "fused":
        return compiled.indexer.rows_fused(urls, compiled._fused_plan)
    return compiled.indexer.transform(compiled.extractor.extract_many(urls))


def assert_identical(expected: CsrBatch, actual: CsrBatch) -> None:
    for name in ("indptr", "indices", "data"):
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.residuals == expected.residuals


def assert_private(batch: CsrBatch, memo: dict) -> None:
    """Writable arrays that alias no memo row."""
    for array in (batch.indices, batch.data):
        assert array.flags.writeable
        for ids, values, _ in memo.values():
            assert not np.shares_memory(array, np.frombuffer(ids, dtype=np.int64))
            assert not np.shares_memory(array, np.frombuffer(values, dtype=np.float64))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    warm=st.lists(st.integers(0, len(POOL) - 1), max_size=20),
    picks=st.lists(st.integers(0, len(POOL) - 1), max_size=30),
)
def test_mixed_batch_equals_fresh_extraction(compiled, warm, picks):
    compiled._row_cache.clear()
    compiled.batch([POOL[i] for i in warm])
    urls = [POOL[i] for i in picks]
    batch = compiled.batch(urls)
    assert_identical(fresh(compiled, urls), batch)
    assert_private(batch, compiled._row_cache)


def test_hits_misses_and_duplicates_in_one_batch(compiled):
    compiled._row_cache.clear()
    warm, cold = POOL[:10], POOL[10:20]
    compiled.batch(warm)
    before = compiled.cache_info
    urls = [cold[0], warm[3], cold[0], warm[3], cold[1], warm[0], cold[1]]
    batch = compiled.batch(urls)
    after = compiled.cache_info
    assert_identical(fresh(compiled, urls), batch)
    # Hits are URLs served from the memo; misses are distinct URLs
    # extracted (the in-batch repeat of a miss is a hit).
    assert after["misses"] - before["misses"] == 2
    assert after["hits"] - before["hits"] == len(urls) - 2


@pytest.mark.parametrize("shape", ["all-new", "mixed"])
def test_mutating_an_answer_leaves_the_memo_intact(compiled, shape):
    compiled._row_cache.clear()
    urls = POOL[20:30]
    if shape == "mixed":
        compiled.batch(urls[::2])
    expected = fresh(compiled, urls)
    answer = compiled.batch(urls)
    assert_private(answer, compiled._row_cache)
    answer.indices[:] = -7
    answer.data[:] = np.nan
    again = compiled.batch(urls)
    assert_identical(expected, again)
    assert not np.shares_memory(again.indices, answer.indices)
    assert not np.shares_memory(again.data, answer.data)
