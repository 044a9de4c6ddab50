"""One scored batch: the URLs, their languages, and one score matrix.

Every batch answer the library gives is a view of a
:class:`ScoredBatch` — the typed :class:`~repro.api.BatchResult`, the
:class:`ServedUrl` rows of ``classify``, the serving daemon's
``classify`` / ``score`` / ``decisions`` bodies and its drift telemetry.
The ``(n, k)`` float64 matrix stays one numpy array until the edge:

* the best label is a row ``argmax`` (ties go to the first language in
  scorer order, exactly as ``max()`` over the languages would pick);
* the positive set is a row bitmask ``(matrix > 0) @ (1 << arange(k))``
  mapped through a ``2**k``-entry table of code-sorted tuples, built
  once per language tuple;
* the per-language columns are one ``tolist()`` each.

Compiled identifiers hand over their ``scores_matrix`` as is; every
other identifier wraps its ``scores_many`` dict with
:meth:`ScoredBatch.from_scores` (the list → float64 → list round trip
is exact), so there is one scored-batch representation, not one per
backend.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.api.types import BatchResult, ModelInfo
from repro.languages import Language


class ServedUrl(NamedTuple):
    """One scored URL: the single best label (or ``None``) plus every
    language whose binary classifier answered yes."""

    url: str
    best: str | None
    positives: tuple[str, ...]

    def tsv(self) -> str:
        """The CLI's output row: ``best <TAB> binary-yes <TAB> url``,
        with ``-`` placeholders.  ``classify`` and the serve front-ends
        all emit this format, so they stay diff-compatible."""
        return f"{self.best or '-'}\t{','.join(self.positives) or '-'}\t{self.url}"


@functools.lru_cache(maxsize=32)
def _positives_table(codes: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Bitmask → code-sorted tuple of the languages whose bit is set,
    for every one of the ``2**k`` masks of these ``k`` languages."""
    return tuple(
        tuple(sorted(code for bit, code in enumerate(codes) if mask >> bit & 1))
        for mask in range(1 << len(codes))
    )


class ScoredBatch:
    """``urls``, ``languages`` (scorer order) and their ``(n, k)``
    float64 decision-score ``matrix``; every answer is a view of it."""

    def __init__(
        self,
        urls: Sequence[str],
        languages: Sequence[Language],
        matrix: np.ndarray,
    ) -> None:
        self.urls = urls
        self.languages = tuple(languages)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.shape != (len(urls), len(self.languages)):
            raise ValueError(
                f"score matrix has shape {self.matrix.shape}; expected "
                f"({len(urls)}, {len(self.languages)})"
            )

    @classmethod
    def from_scores(
        cls,
        urls: Sequence[str],
        scores: Mapping[Language, Sequence[float]],
    ) -> "ScoredBatch":
        """Wrap a ``scores_many``-shaped dict (language → per-URL
        scores, in the identifier's language order)."""
        languages = tuple(scores)
        matrix = np.empty((len(urls), len(languages)), dtype=np.float64)
        for column, language in enumerate(languages):
            matrix[:, column] = scores[language]
        return cls(urls, languages, matrix)

    @classmethod
    def of(cls, predictor, urls: Sequence[str]) -> "ScoredBatch":
        """Score ``urls`` with any predictor: its own :meth:`scored`
        when it has one (every :class:`~repro.core.pipeline.IdentifierBase`
        does), else its ``scores_many`` dict wrapped by
        :meth:`from_scores`."""
        scored = getattr(predictor, "scored", None)
        if scored is not None:
            return scored(urls)
        return cls.from_scores(urls, predictor.scores_many(urls))

    @functools.cached_property
    def codes(self) -> tuple[str, ...]:
        """ISO codes of :attr:`languages`, in scorer order."""
        return tuple(language.value for language in self.languages)

    @functools.cached_property
    def _best_columns(self) -> list[int]:
        """Per row, the column of the top score, or ``-1`` when no
        score is > 0."""
        n, k = self.matrix.shape
        if k == 0:
            return [-1] * n
        columns = self.matrix.argmax(axis=1)
        top = self.matrix[np.arange(n), columns]
        return np.where(top > 0.0, columns, -1).tolist()

    @property
    def best(self) -> list[Language | None]:
        """Per row, the top-scoring language, or ``None`` when every
        binary classifier said no."""
        labels = self.languages + (None,)
        return [labels[column] for column in self._best_columns]

    @property
    def best_codes(self) -> list[str | None]:
        """:attr:`best` as ISO codes (the wire and TSV form)."""
        labels = self.codes + (None,)
        return [labels[column] for column in self._best_columns]

    @property
    def best_scores(self) -> list[float | None]:
        """Per row, the top score, or ``None`` where :attr:`best` is."""
        columns = self._best_columns
        if not self.languages:
            return [None] * len(columns)
        rows = np.arange(len(columns))
        top = self.matrix[rows, np.asarray(columns, dtype=np.intp)].tolist()
        return [
            None if column < 0 else score
            for column, score in zip(columns, top)
        ]

    @functools.cached_property
    def positives(self) -> list[tuple[str, ...]]:
        """Per row, the codes of every language scoring > 0, sorted."""
        bits = 1 << np.arange(len(self.languages), dtype=np.int64)
        masks = (self.matrix > 0.0).astype(np.int64) @ bits
        return list(map(_positives_table(self.codes).__getitem__, masks.tolist()))

    def columns(self) -> dict[Language, np.ndarray]:
        """Language → that language's score column (a matrix view)."""
        return {
            language: self.matrix[:, column]
            for column, language in enumerate(self.languages)
        }

    def scores_dict(self) -> dict[Language, list[float]]:
        """The ``scores_many`` shape: language → per-URL scores."""
        return {
            language: self.matrix[:, column].tolist()
            for column, language in enumerate(self.languages)
        }

    def decisions_dict(self) -> dict[Language, list[bool]]:
        """The ``decisions`` shape: language → per-URL ``score > 0``."""
        positive = self.matrix > 0.0
        return {
            language: positive[:, column].tolist()
            for column, language in enumerate(self.languages)
        }

    def served(self) -> list[ServedUrl]:
        """One :class:`ServedUrl` per URL, in input order."""
        return list(map(ServedUrl, self.urls, self.best_codes, self.positives))

    def result(self, model: ModelInfo) -> BatchResult:
        """The typed :class:`~repro.api.BatchResult` of this batch."""
        return BatchResult(
            urls=tuple(self.urls),
            scores=self.scores_dict(),
            decisions=self.decisions_dict(),
            best=tuple(self.best),
            model=model,
        )
