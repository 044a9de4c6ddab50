"""The compiled batch backend of :class:`LanguageIdentifier`.

Backend selection, transparent fallback, batch-vs-sparse equivalence on
real URL corpora for every linear algorithm × feature set combination,
and pickling of compiled models.
"""

from __future__ import annotations

import pickle
import statistics
import time

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import CompiledIdentifier, LanguageIdentifier
from repro.languages import LANGUAGES

#: Every (algorithm, feature set) pair with a compiled lowering; the
#: Markov chain is trigram-only by construction.
COMPILABLE = [
    ("NB", "words"),
    ("NB", "trigrams"),
    ("NB", "custom"),
    ("RE", "words"),
    ("RE", "trigrams"),
    ("RE", "custom"),
    ("RO", "words"),
    ("RO", "trigrams"),
    ("RO", "custom"),
    ("MM", "trigrams"),
    ("ME", "words"),
    ("ME", "trigrams"),
    ("ME", "custom"),
]


def _fitted(algorithm, feature_set, small_train, backend="auto"):
    identifier = LanguageIdentifier(
        feature_set=feature_set, algorithm=algorithm, seed=0, backend=backend
    )
    return identifier.fit(small_train.subsample(0.6, seed=3))


@pytest.mark.parametrize("algorithm,feature_set", COMPILABLE)
class TestCompiledBackend:
    def test_auto_backend_compiles(self, algorithm, feature_set, small_train):
        identifier = _fitted(algorithm, feature_set, small_train)
        assert isinstance(identifier.compiled, CompiledIdentifier)

    def test_decisions_match_sparse_path(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = _fitted(algorithm, feature_set, small_train)
        urls = small_bundle.odp_test.urls[:120]
        assert identifier.decisions(urls) == identifier._sparse_decisions(urls)

    def test_scores_match_sparse_path(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = _fitted(algorithm, feature_set, small_train)
        urls = small_bundle.odp_test.urls[:60]
        batch_scores = identifier.scores_many(urls)
        for row, url in enumerate(urls):
            reference = identifier.scores(url)
            for language in LANGUAGES:
                assert batch_scores[language][row] == pytest.approx(
                    reference[language], abs=1e-9
                )

    def test_sparse_backend_opts_out(self, algorithm, feature_set, small_train):
        identifier = _fitted(
            algorithm, feature_set, small_train, backend="sparse"
        )
        assert identifier.compiled is None

    def test_compiled_survives_pickle(
        self, algorithm, feature_set, small_train, small_bundle
    ):
        identifier = _fitted(algorithm, feature_set, small_train)
        clone = pickle.loads(pickle.dumps(identifier))
        assert clone.compiled is not None
        urls = small_bundle.odp_test.urls[:40]
        assert clone.decisions(urls) == identifier.decisions(urls)


class TestLegacyPickles:
    def test_pre_backend_pickles_still_predict(self, small_train, small_bundle):
        """Models pickled before the compiled backend existed unpickle
        without ``backend``/``_compiled`` in their ``__dict__`` — the
        class-level defaults must keep them predicting."""
        identifier = _fitted("NB", "words", small_train)
        legacy = LanguageIdentifier.__new__(LanguageIdentifier)
        state = identifier.__dict__.copy()
        state.pop("_compiled")
        state.pop("backend")
        legacy.__dict__.update(state)
        urls = small_bundle.odp_test.urls[:20]
        assert legacy.compiled is None  # falls back to the sparse path
        assert legacy.decisions(urls) == identifier.decisions(urls)


class TestBackendSelection:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            LanguageIdentifier(backend="turbo")

    @pytest.mark.parametrize("algorithm", ["DT", "kNN"])
    def test_nonlinear_algorithms_fall_back(self, algorithm, small_train):
        identifier = _fitted(algorithm, "custom", small_train)
        assert identifier.compiled is None  # transparent sparse fallback
        urls = ["http://www.recherche.fr/produits1.html"]
        assert set(identifier.decisions(urls)) == set(LANGUAGES)

    def test_iis_maxent_falls_back(self, small_train):
        """Only the default (L-BFGS / gradient) MaxEnt trainers lower;
        the IIS variant scores over L1-normalised inputs and stays on
        the sparse reference path."""
        identifier = LanguageIdentifier(
            feature_set="words",
            algorithm="ME",
            seed=0,
            algorithm_kwargs={"method": "iis", "iterations": 3},
        ).fit(small_train.subsample(0.3, seed=5))
        assert identifier.compiled is None
        urls = ["http://www.recherche.fr/produits1.html"]
        assert set(identifier.decisions(urls)) == set(LANGUAGES)

    def test_compiled_backend_requires_linear_algorithm(self, small_train):
        identifier = LanguageIdentifier(
            feature_set="custom", algorithm="DT", backend="compiled"
        )
        with pytest.raises(ValueError, match="compiled"):
            identifier.fit(small_train.subsample(0.3, seed=5))

    def test_baselines_stay_sparse(self):
        identifier = LanguageIdentifier(algorithm="ccTLD+")
        assert identifier.compiled is None
        decisions = identifier.decisions(["http://www.zeitung.de/wetter"])
        assert decisions[next(iter(decisions))] is not None


class TestBatchEntryPoints:
    def test_classify_many_matches_classify(self, small_train, small_bundle):
        identifier = _fitted("NB", "words", small_train)
        urls = small_bundle.odp_test.urls[:50]
        assert identifier.classify_many(urls) == [
            identifier.classify(url) for url in urls
        ]

    def test_scores_many_sparse_path_matches(self, small_train, small_bundle):
        identifier = _fitted("NB", "words", small_train, backend="sparse")
        urls = small_bundle.odp_test.urls[:25]
        batch_scores = identifier.scores_many(urls)
        for row, url in enumerate(urls):
            reference = identifier.scores(url)
            for language in LANGUAGES:
                assert batch_scores[language][row] == reference[language]

    def test_row_cache_reuse_is_consistent(self, small_train, small_bundle):
        identifier = _fitted("NB", "words", small_train)
        urls = small_bundle.odp_test.urls[:30]
        first = identifier.decisions(urls)
        second = identifier.decisions(urls)  # served from the row memo
        assert first == second

    def test_evaluate_uses_batch_path(self, small_train, small_bundle):
        compiled = _fitted("RE", "words", small_train)
        sparse = _fitted("RE", "words", small_train, backend="sparse")
        test = small_bundle.odp_test
        compiled_metrics = compiled.evaluate(test)
        sparse_metrics = sparse.evaluate(test)
        for language in LANGUAGES:
            assert (
                compiled_metrics[language].f_measure
                == sparse_metrics[language].f_measure
            )

    def test_confusion_matches_sparse(self, small_train, small_bundle):
        compiled = _fitted("NB", "trigrams", small_train)
        sparse = _fitted("NB", "trigrams", small_train, backend="sparse")
        test = small_bundle.odp_test
        assert compiled.confusion(test).cells == sparse.confusion(test).cells


def _fresh_urls(start: int, stop: int) -> list[str]:
    """Distinct, never-repeating URLs (one per integer in the range)."""
    return [f"http://www.seite{i}.example.de/artikel/{i}" for i in range(start, stop)]


class TestRowMemo:
    """The interned-row memo is a FIFO of at most ``ROW_CACHE_SIZE``
    URLs, trimmed once per batch."""

    CAPACITY = 50

    @pytest.fixture
    def compiled(self, small_train, monkeypatch):
        monkeypatch.setattr(pipeline, "ROW_CACHE_SIZE", self.CAPACITY)
        return _fitted("NB", "words", small_train).compiled

    def test_memo_keeps_the_newest_urls_in_insertion_order(self, compiled):
        inserted: list[str] = []
        for start in range(0, 160, 40):
            batch = _fresh_urls(start, start + 40)
            # Hits do not refresh a row's position: FIFO, not LRU.
            replay = [url for url in inserted[-10:] if url in compiled._row_cache]
            compiled.scores_matrix(replay + batch + batch[:5])
            inserted.extend(batch)
            assert list(compiled._row_cache) == inserted[-self.CAPACITY:]
        assert compiled.cache_info["rows"] == self.CAPACITY

    def test_batch_larger_than_capacity_answers_every_row(self, compiled):
        cold = pickle.loads(pickle.dumps(compiled))
        urls = _fresh_urls(0, 3 * self.CAPACITY + 7)
        matrix = compiled.scores_matrix(urls)
        assert matrix.shape == (len(urls), len(compiled.scorers))
        assert np.array_equal(matrix, cold.scores_matrix(urls))
        assert list(compiled._row_cache) == urls[-self.CAPACITY:]

    def test_rescored_evicted_urls_match_a_cold_identifier(self, compiled):
        first = _fresh_urls(0, 30)
        compiled.scores_matrix(first)
        compiled.scores_matrix(_fresh_urls(30, 130))  # evicts all of first
        assert not any(url in compiled._row_cache for url in first)
        cold = pickle.loads(pickle.dumps(compiled))
        assert not cold._row_cache
        assert np.array_equal(
            compiled.scores_matrix(first), cold.scores_matrix(first)
        )

    def test_full_memo_costs_fresh_batches_no_more_than_an_empty_one(
        self, small_train
    ):
        """Same-process ratio guard: a 1000-URL batch of never-seen URLs
        into a full memo (which must evict 1000 rows) costs at most 3x
        the same batch into an empty memo.  Evicting one row at a time
        from the front of the dict rescanned the slots earlier evictions
        had emptied; once the memo had turned over for a while that put
        this ratio at about 4x (and growing until the dict resized)."""
        full = _fitted("NB", "words", small_train).compiled
        empty = pickle.loads(pickle.dumps(full))
        capacity = pipeline.ROW_CACHE_SIZE
        full.batch(_fresh_urls(0, capacity))
        assert full.cache_info["rows"] == capacity
        next_url = capacity
        for _ in range(50):  # turn the full memo over: steady serving
            full.batch(_fresh_urls(next_url, next_url + 1000))
            next_url += 1000
        full_times, empty_times = [], []
        for _ in range(15):
            for memo, times in ((full, full_times), (empty, empty_times)):
                urls = _fresh_urls(next_url, next_url + 1000)
                next_url += 1000
                if memo is empty:
                    memo._row_cache.clear()
                started = time.perf_counter()
                memo.batch(urls)
                times.append(time.perf_counter() - started)
        assert full.cache_info["rows"] == capacity
        ratio = statistics.median(full_times) / statistics.median(empty_times)
        assert ratio <= 3.0, f"full/empty memo batch time ratio {ratio:.2f}"
