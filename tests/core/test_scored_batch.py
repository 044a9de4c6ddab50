"""``ScoredBatch`` against the per-URL walk it replaced.

Every batch view — best label, positive set, ``score_batch`` rows, the
typed ``BatchResult`` — is checked against a reference that walks the
``scores_many`` dict one URL at a time with ``max()`` and ``sorted()``,
exactly as the serving layer did before the matrix stayed columnar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.types import ModelInfo
from repro.core.pipeline import CompiledIdentifier, LanguageIdentifier
from repro.core.scored import ScoredBatch, ServedUrl
from repro.languages import LANGUAGES, Language
from repro.store.serve import score_batch
from repro.testing.urlgen import adversarial_urls


def reference_walk(urls, scores):
    """Per-URL best label and code-sorted positives of a scores dict."""
    best, positives = [], []
    for row in range(len(urls)):
        language, score = max(
            ((language, scores[language][row]) for language in scores),
            key=lambda item: item[1],
        )
        best.append(language if score > 0.0 else None)
        positives.append(tuple(sorted(
            language.value for language in scores if scores[language][row] > 0.0
        )))
    return best, positives


def assert_matches_reference(batch: ScoredBatch, urls, scores) -> None:
    best, positives = reference_walk(urls, scores)
    assert batch.best == best
    assert batch.best_codes == [None if b is None else b.value for b in best]
    assert batch.positives == positives
    assert batch.scores_dict() == {
        language: list(values) for language, values in scores.items()
    }
    assert batch.decisions_dict() == {
        language: [value > 0.0 for value in values]
        for language, values in scores.items()
    }
    assert batch.served() == [
        ServedUrl(url, None if b is None else b.value, p)
        for url, b, p in zip(urls, best, positives)
    ]


@pytest.fixture(scope="module")
def identifiers(small_train):
    train = small_train.subsample(0.5, seed=4)
    return {
        "NB/words": LanguageIdentifier("words", "NB", seed=0).fit(train),
        "RE/trigrams": LanguageIdentifier("trigrams", "RE", seed=0).fit(train),
        "NB/words/sparse": LanguageIdentifier(
            "words", "NB", seed=0, backend="sparse"
        ).fit(train),
        "ccTLD+": LanguageIdentifier(algorithm="ccTLD+"),
    }


URLS = adversarial_urls(400, seed=12)


@pytest.mark.parametrize(
    "name", ["NB/words", "RE/trigrams", "NB/words/sparse", "ccTLD+"]
)
class TestAgainstPerUrlWalk:
    def test_batch_views(self, identifiers, name):
        identifier = identifiers[name]
        scores = identifier.scores_many(URLS)
        assert_matches_reference(identifier.scored(URLS), URLS, scores)
        assert_matches_reference(
            ScoredBatch.from_scores(URLS, scores), URLS, scores
        )

    def test_score_batch_rows(self, identifiers, name):
        identifier = identifiers[name]
        scores = identifier.scores_many(URLS)
        best, positives = reference_walk(URLS, scores)
        expected = [
            ServedUrl(url, None if b is None else b.value, p)
            for url, b, p in zip(URLS, best, positives)
        ]
        assert score_batch(identifier, URLS) == expected
        assert score_batch(identifier, URLS, scores=scores) == expected

    def test_classify_many_and_predict(self, identifiers, name):
        identifier = identifiers[name]
        scores = identifier.scores_many(URLS)
        best, positives = reference_walk(URLS, scores)
        assert identifier.classify_many(URLS) == best
        assert identifier.classify_many(URLS, scores=scores) == best
        result = identifier.predict(URLS)
        assert result.urls == tuple(URLS)
        assert result.scores == scores
        assert result.decisions == identifier.decisions(URLS)
        assert result.best == tuple(best)
        for row, prediction in enumerate(result):
            codes = tuple(language.value for language in prediction.positives)
            assert codes == positives[row]


class TestConstructedRows:
    MATRIX = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],        # all zero -> None
        [-0.0, -1.0, -0.0, -2.0, -3.0],   # nothing > 0 -> None
        [1.0, 3.0, 3.0, -1.0, 3.0],       # equal maxima -> first (de)
        [2.5, -1.0, 2.5, 0.0, 1.0],       # tie at the front -> en
        [-1.0, -1.0, -1.0, -1.0, 0.25],   # last column wins
        [1e-300, 0.0, 0.0, 0.0, 0.0],     # the smallest positive counts
        [np.inf, 5.0, 1.0, 1.0, 1.0],
    ])

    def test_ties_and_zero_rows_follow_max(self):
        urls = [f"u{row}" for row in range(len(self.MATRIX))]
        batch = ScoredBatch(urls, LANGUAGES, self.MATRIX)
        scores = {
            language: self.MATRIX[:, column].tolist()
            for column, language in enumerate(LANGUAGES)
        }
        assert_matches_reference(batch, urls, scores)
        assert batch.best[:4] == [
            None, None, Language.GERMAN, Language.ENGLISH,
        ]
        assert batch.positives[0] == batch.positives[1] == ()

    def test_ties_go_to_the_first_language_in_scoring_order(self):
        order = (Language.ITALIAN, Language.FRENCH, Language.GERMAN)
        scores = {language: [2.0, 0.0] for language in order}
        batch = ScoredBatch.from_scores(["a", "b"], scores)
        assert batch.best == [Language.ITALIAN, None]
        assert batch.positives == [("de", "fr", "it"), ()]
        assert reference_walk(["a", "b"], scores)[0] == batch.best

    def test_empty_batch(self, identifiers):
        batch = ScoredBatch([], LANGUAGES, np.empty((0, len(LANGUAGES))))
        assert batch.best == batch.best_codes == batch.positives == []
        assert batch.served() == []
        assert batch.scores_dict() == {language: [] for language in LANGUAGES}
        assert batch.decisions_dict() == {language: [] for language in LANGUAGES}
        model = ModelInfo(name="m", backend="compiled", languages=LANGUAGES)
        assert len(batch.result(model)) == 0
        for identifier in identifiers.values():
            assert score_batch(identifier, []) == []
            assert identifier.classify_many([]) == []
            assert len(identifier.predict([])) == 0

    def test_shape_must_match_urls_and_languages(self):
        with pytest.raises(ValueError, match="shape"):
            ScoredBatch(["a"], LANGUAGES, np.zeros((2, len(LANGUAGES))))


class TestTwoLanguageScorers:
    """A k=2 scorer set whose scoring order is not code order."""

    @pytest.fixture(scope="class")
    def pair(self, identifiers):
        compiled = identifiers["NB/words"].compiled
        order = (Language.FRENCH, Language.GERMAN)
        return CompiledIdentifier(
            compiled.extractor,
            compiled.indexer,
            {language: compiled.scorers[language] for language in order},
        )

    def test_compiled_pair_matches_the_walk(self, pair):
        batch = pair.scored(URLS)
        assert batch.languages == (Language.FRENCH, Language.GERMAN)
        assert batch.matrix.shape == (len(URLS), 2)
        assert_matches_reference(batch, URLS, pair.scores_many(URLS))
        assert ("de", "fr") in batch.positives  # code-sorted, not scorer order

    def test_random_pair_with_ties(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(-2, 3, size=(300, 2)).astype(np.float64)
        urls = [f"u{row}" for row in range(300)]
        order = (Language.SPANISH, Language.ENGLISH)
        scores = {
            language: matrix[:, column].tolist()
            for column, language in enumerate(order)
        }
        assert_matches_reference(ScoredBatch(urls, order, matrix), urls, scores)
