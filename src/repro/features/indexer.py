"""Integer feature interning and CSR batch assembly.

The string-keyed sparse vectors of :mod:`repro.features.base` keep every
model inspectable, but walking ``dict[str, float]`` once per URL per
language is the crawler-scale bottleneck.  A :class:`FeatureIndexer`
interns every feature name seen at fit time to a dense integer id, and
:meth:`FeatureIndexer.transform` turns a batch of sparse vectors into a
:class:`CsrBatch` — ``indptr``/``indices``/``data`` numpy arrays in the
classic compressed-sparse-row layout — that the compiled scorers in
:mod:`repro.algorithms.compiled` consume with a single matrix product.

Features unseen at fit time carry no interned id; they are preserved as
per-row *residuals* (``(row, name, value)`` triples) so that scorers
whose reference semantics give out-of-vocabulary features a non-zero
contribution (the Markov chain's smoothed transitions) stay bit-for-bit
faithful to the sparse path.

Only strictly positive values are interned: every classifier in
:mod:`repro.algorithms` skips non-positive counts, and all feature
extractors emit positive counts only.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat

import numpy as np

from repro.features.vectorizer import Vocabulary
from repro.urls.tokenizer import (
    BATCH_SEPARATOR,
    DROPPED_RUNS,
    tokenize_batch_bytes,
)
from repro.urls.trigrams import (
    N_TRIGRAM_CODES,
    decode_trigram_code,
    pack_token_buffer,
    sliding_trigram_codes,
    trigram_code,
)

#: What the fused intern lookups return for a batch-stream item that is
#: not an interned feature: an out-of-vocabulary token, a run that is no
#: token (a special word or a single letter, Section 3.1), or the
#: separator between two URLs.
_OOV, _DROPPED, _SEPARATOR = -1, -2, -3

#: The stream items that are never features, with their markers.
_NOT_TOKENS: dict[bytes, int] = {
    **dict.fromkeys(DROPPED_RUNS, _DROPPED),
    BATCH_SEPARATOR: _SEPARATOR,
}


def _first_occurrences(
    rows: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct ``(row, id)`` pair first occurs, in position
    order, and how often it occurs (float64).

    ``rows`` must be non-decreasing, as in a batch stream.  One value
    sort of ``id * n + position`` lists every id's positions in order,
    so the copies of a pair sit next to each other; each group's size is
    scattered back to the position of its first member, which restores
    first-occurrence order without a second sort.  Ids are interned
    feature ids, below the vocabulary size ``V``, so the key stays
    below ``V * n`` and fits int64 for any batch that fits in memory.
    """
    n = len(ids)
    at = ids * n
    at += np.arange(n)
    at.sort()
    at %= n
    grouped_ids = ids[at]
    grouped_rows = rows[at]
    edges = np.empty(n + 1, dtype=bool)
    edges[0] = edges[n] = True
    np.not_equal(grouped_ids[1:], grouped_ids[:-1], out=edges[1:n])
    edges[1:n] |= grouped_rows[1:] != grouped_rows[:-1]
    bounds = edges.nonzero()[0]
    tally = np.zeros(n, dtype=np.float64)
    tally[at[bounds[:-1]]] = bounds[1:] - bounds[:-1]
    positions = tally.nonzero()[0]
    return positions, tally[positions]


class CsrBatch:
    """A batch of sparse count vectors in CSR form over an interned space.

    Row ``i`` holds ``data[indptr[i]:indptr[i+1]]`` at feature ids
    ``indices[indptr[i]:indptr[i+1]]``.  ``residuals`` lists the
    out-of-vocabulary ``(row, name, value)`` entries that could not be
    interned.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        n_features: int,
        residuals: list[tuple[int, str, float]] | None = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.n_features = n_features
        self.residuals = residuals or []
        self._row_ids: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        """Number of vectors in the batch."""
        return len(self.indptr) - 1

    @property
    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry (``len == nnz``), memoized."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.n_rows, dtype=np.int64),
                self.indptr[1:] - self.indptr[:-1],
            )
        return self._row_ids

    def row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(feature_ids, values)`` of one row (views, do not mutate)."""
        start, stop = self.indptr[row], self.indptr[row + 1]
        return self.indices[start:stop], self.data[start:stop]

    def row_sums(self, per_entry: np.ndarray) -> np.ndarray:
        """Sum ``per_entry`` (one value per stored entry) within each row."""
        return np.bincount(self.row_ids, weights=per_entry, minlength=self.n_rows)

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """CSR × dense product: ``(n_rows, k)`` for ``dense`` of ``(V, k)``.

        This is the one pass the compiled inference backend performs for
        a whole batch: the five binary classifiers stack their weight
        vectors into the columns of ``dense``.
        """
        if dense.ndim == 1:
            return self.row_sums(self.data * dense[self.indices])
        contributions = self.data[:, np.newaxis] * dense[self.indices]
        out = np.empty((self.n_rows, dense.shape[1]), dtype=np.float64)
        for column in range(dense.shape[1]):
            out[:, column] = self.row_sums(contributions[:, column])
        return out


class FeatureIndexer:
    """Interns feature-name strings to dense integer ids at fit time.

    A thin layer over :class:`~repro.features.vectorizer.Vocabulary`
    (the repo's one name<->index map) that adds CSR assembly, residual
    handling and the vectorised ``names_array``.
    """

    def __init__(self) -> None:
        self._vocabulary = Vocabulary()
        self._names_array: np.ndarray | None = None
        self._fitted = False

    def fit(self, vectors: Sequence[Mapping[str, float]]) -> "FeatureIndexer":
        """Intern every feature name occurring in the training vectors."""
        add = self._vocabulary.add
        for vector in vectors:
            for name in vector:
                add(name)
        self._vocabulary.freeze()
        self._names_array = None
        self._fitted = True
        return self

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "FeatureIndexer":
        """Rebuild a fitted indexer from an ordered name list.

        The inverse of :attr:`names`: ``FeatureIndexer.from_names(ix.names)``
        interns the same ids as ``ix``.  This is how a persisted model
        artifact (:mod:`repro.store`) restores its interned vocabulary
        without refitting.
        """
        indexer = cls()
        add = indexer._vocabulary.add
        for name in names:
            add(name)
        indexer._vocabulary.freeze()
        indexer._fitted = True
        return indexer

    def __len__(self) -> int:
        """Size ``V`` of the interned feature space."""
        return len(self._vocabulary)

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` was interned at fit time."""
        return name in self._vocabulary

    def id_of(self, name: str) -> int | None:
        """Interned id of ``name`` or ``None`` if unseen at fit time."""
        return self._vocabulary.index_of(name)

    def name_of(self, feature_id: int) -> str:
        """Feature name interned at ``feature_id`` (inverse of
        :meth:`id_of`)."""
        return self._vocabulary.name_of(feature_id)

    @property
    def names(self) -> tuple[str, ...]:
        """All interned feature names, id order (what artifacts persist
        and :meth:`from_names` consumes)."""
        return self._vocabulary.names

    @property
    def names_array(self) -> np.ndarray:
        """Feature names as a numpy unicode array (id-indexed), memoized.

        Lets per-row scorers (rank order) break value ties alphabetically
        with vectorised string comparisons instead of Python sorts.
        """
        if self._names_array is None:
            self._names_array = np.array(self._vocabulary.names, dtype=np.str_)
        return self._names_array

    def transform(self, vectors: Sequence[Mapping[str, float]]) -> CsrBatch:
        """CSR batch of ``vectors`` over the interned feature space.

        Entries with non-positive values are dropped (they contribute
        nothing under every classifier's count semantics); positive
        entries whose name was never interned become residuals.
        """
        if not self._fitted:
            raise RuntimeError("FeatureIndexer.transform called before fit")
        get = self._vocabulary.index_map.get
        indptr = np.empty(len(vectors) + 1, dtype=np.int64)
        indptr[0] = 0
        indices: list[int] = []
        data: list[float] = []
        residuals: list[tuple[int, str, float]] = []
        for row, vector in enumerate(vectors):
            for name, value in vector.items():
                if value <= 0:
                    continue
                feature_id = get(name)
                if feature_id is None:
                    residuals.append((row, name, value))
                else:
                    indices.append(feature_id)
                    data.append(value)
            indptr[row + 1] = len(indices)
        return CsrBatch(
            indptr=indptr,
            indices=np.asarray(indices, dtype=np.int64),
            data=np.asarray(data, dtype=np.float64),
            n_features=len(self._vocabulary),
            residuals=residuals,
        )

    def rows_fused(self, urls: Sequence[str], plan: "FusedExtractionPlan") -> CsrBatch:
        """CSR batch straight from URLs, skipping feature-name strings.

        Produces *exactly* the batch ``transform(extractor.extract_many
        (urls))`` would — same entry order (first occurrence within each
        row, so float summation order and therefore compiled scores stay
        bit-identical), same residuals — in one pass over the whole
        batch: one byte buffer tokenises every URL
        (:func:`~repro.urls.tokenizer.tokenize_batch_bytes`), words
        intern through one dict lookup per letter run and trigrams
        through one table gather, and repeats within a row merge through
        one sort.  Out-of-vocabulary entries merge through one
        :class:`~collections.Counter`, and feature-name strings are
        materialised only for them.
        """
        if not self._fitted:
            raise RuntimeError("FeatureIndexer.rows_fused called before fit")
        n_features = len(self._vocabulary)
        if plan.n_features != n_features:
            raise ValueError(
                "fused plan was built for a different vocabulary "
                f"({plan.n_features} features, indexer has {n_features})"
            )
        items = tokenize_batch_bytes(urls)
        prefix = plan.prefix
        words = plan.kind == "words"
        lookup = plan.token_ids if words else _NOT_TOKENS
        marks = np.fromiter(
            map(lookup.get, items, repeat(_OOV, len(items))),  # type: ignore[union-attr]
            dtype=np.int64,
            count=len(items),
        )
        tokens_at = (marks >= _OOV).nonzero()[0]
        # A token's row is the number of separators before it.
        rows = (marks == _SEPARATOR).nonzero()[0].searchsorted(tokens_at)
        if words:
            ids = marks[tokens_at]
            oov_at = (ids == _OOV).nonzero()[0]
            oov_keys = map(items.__getitem__, tokens_at[oov_at].tolist())

            def name_of(token: bytes) -> str:
                return prefix + token.decode("ascii")
        else:
            tokens = list(map(items.__getitem__, tokens_at.tolist()))
            # A token of n letters yields exactly n trigrams, in order.
            rows = rows.repeat(
                np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
            )
            codes = sliding_trigram_codes(pack_token_buffer(tokens))
            ids = plan.trigram_table[codes].astype(np.int64)  # type: ignore[index]
            oov_at = (ids < 0).nonzero()[0]
            oov_keys = codes[oov_at].tolist()

            def name_of(code: int) -> str:
                return prefix + decode_trigram_code(code)

        # Out-of-vocabulary entries are residuals.  Counting their
        # (row, token) pairs in stream order merges repeats within a row
        # and keeps rows ascending, each in first-occurrence order.
        oov_counts = Counter(zip(rows[oov_at].tolist(), oov_keys))
        residuals = [
            (row, name_of(key), float(value))
            for (row, key), value in oov_counts.items()
        ]
        interned_at = (ids >= 0).nonzero()[0]
        rows = rows[interned_at]
        ids = ids[interned_at]
        positions, counts = _first_occurrences(rows, ids)
        return CsrBatch(
            indptr=rows[positions].searchsorted(np.arange(len(urls) + 1)),
            indices=ids[positions],
            data=counts,
            n_features=n_features,
            residuals=residuals,
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_names_array"] = None  # rebuilt lazily after unpickling
        return state


class FusedExtractionPlan:
    """Precompiled byte-level intern tables for one words/trigrams space.

    Built once per (extractor, indexer) pair by :func:`build_fused_plan`;
    consumed by :meth:`FeatureIndexer.rows_fused`.  For word features the
    table is a ``bytes token -> id`` dict that also maps the letter runs
    that are no tokens (special words, single letters) and the batch
    separator to negative markers, so one lookup per stream item both
    interns and filters; for trigram features it is a
    dense ``27**3`` int32 array indexed by the base-27 trigram code
    (``-1`` marks out-of-vocabulary codes), which lets the whole batch's
    vocabulary lookup run as a single numpy gather.
    """

    __slots__ = ("kind", "prefix", "n_features", "token_ids", "trigram_table")

    def __init__(
        self,
        kind: str,
        prefix: str,
        n_features: int,
        token_ids: dict[bytes, int] | None = None,
        trigram_table: np.ndarray | None = None,
    ) -> None:
        if kind not in ("words", "trigrams"):
            raise ValueError(f"kind must be 'words' or 'trigrams', got {kind!r}")
        self.kind = kind
        self.prefix = prefix
        self.n_features = n_features
        self.token_ids = token_ids
        self.trigram_table = trigram_table


def build_fused_plan(
    extractor: object, indexer: FeatureIndexer
) -> FusedExtractionPlan | None:
    """Fused extraction plan for ``extractor`` over ``indexer``'s space,
    or ``None`` when the extractor is not fuse-eligible.

    Eligibility is deliberately exact-type: only the stock
    ``WordFeatureExtractor`` and token-mode ``TrigramFeatureExtractor``
    have byte-level equivalents proven token-for-token identical;
    subclasses and custom extractors transparently keep the reference
    (string-based) path.
    """
    from repro.features.ngrams import TrigramFeatureExtractor
    from repro.features.words import WordFeatureExtractor

    if type(extractor) is WordFeatureExtractor:
        prefix = extractor.prefix
        token_ids: dict[bytes, int] = {}
        for feature_id, name in enumerate(indexer.names):
            if not name.startswith(prefix):
                continue
            token = name[len(prefix) :]
            if token.isascii() and token.isalpha() and token.islower():
                token_ids[token.encode("ascii")] = feature_id
        token_ids.update(_NOT_TOKENS)
        return FusedExtractionPlan(
            kind="words",
            prefix=prefix,
            n_features=len(indexer),
            token_ids=token_ids,
        )
    if type(extractor) is TrigramFeatureExtractor and extractor.mode == "token":
        prefix = extractor.prefix
        table = np.full(N_TRIGRAM_CODES, -1, dtype=np.int32)
        for feature_id, name in enumerate(indexer.names):
            if not name.startswith(prefix):
                continue
            code = trigram_code(name[len(prefix) :])
            if code is not None:
                table[code] = feature_id
        return FusedExtractionPlan(
            kind="trigrams",
            prefix=prefix,
            n_features=len(indexer),
            trigram_table=table,
        )
    return None
