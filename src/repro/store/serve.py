"""One-shot multi-process batch scoring from one memory-mapped artifact.

The zero-copy payoff of the artifact format: every worker process opens
the *same* model file with ``mmap``, so the operating system backs all
of them with one set of physical pages.  N workers cost one weight
matrix, not N pickled clones — the shared-read-path design the PVLDB
systems lineage argues for, applied to URL triage.

Two serving shapes build on this module:

* :func:`score_urls` — a **one-shot pool**: spin up a
  ``multiprocessing.Pool``, score one URL list, tear the pool down.
  Right for scripts and scheduled batch jobs; the CLI wraps it as
  ``repro serve batch`` and ``examples/serve_workers.py`` demonstrates
  it end to end.
* the **long-lived daemon** (:mod:`repro.store.daemon`) — pre-forked
  workers behind a Unix socket / HTTP front-end that keep their mapped
  model, tokenizer memo, and interned-row cache warm across requests.
  Right for crawler fleets and anything latency-sensitive; the
  ``serve_pool`` vs ``serve_daemon`` entries of
  ``benchmarks/BENCH_core_throughput.json`` quantify the difference.

:func:`score_batch` is the per-batch kernel of the pool workers: one
scoring pass into a :class:`~repro.core.scored.ScoredBatch` whose served
rows carry both the best label and the per-language binary answers.
(The daemon builds its answers from the same batch's columns.)
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Sequence

from repro.core.pipeline import IdentifierBase
from repro.core.scored import ScoredBatch, ServedUrl

#: Default number of URLs per scoring batch (one matmul each).
DEFAULT_BATCH_SIZE = 512


def score_batch(
    identifier: IdentifierBase, urls: Sequence[str], scores=None
) -> list[ServedUrl]:
    """Score one batch with ``identifier`` (a single matmul when compiled).

    The per-batch kernel of the pool workers here (``repro serve
    batch``): one :meth:`~IdentifierBase.scored` pass yields
    both the best label and the per-language yes/no answers, in input
    order.  A caller that already holds the batch's ``scores_many``
    result passes it as ``scores`` to skip the re-score.
    """
    if scores is None:
        return identifier.scored(urls).served()
    return ScoredBatch.from_scores(urls, scores).served()


#: Per-process identifier, set once by the pool initializer.
_worker_identifier: IdentifierBase | None = None


def _initialize_worker(handle: str) -> None:
    """Pool initializer: re-open the shared model in this process.

    ``handle`` is a :func:`repro.api.portable_handle` string — every
    backend the facade resolves works here, with zero configuration
    beyond the string itself.  For artifact paths (the normal case)
    ``open_model`` memory-maps the file, so N workers still share one
    physical copy of the weight matrix.
    """
    from repro.api import open_model

    global _worker_identifier
    identifier = open_model(handle)
    assert isinstance(identifier, IdentifierBase)
    _worker_identifier = identifier


def _score_batch(urls: Sequence[str]) -> list[ServedUrl]:
    """Score one batch with the worker's re-opened model (one matmul)."""
    identifier = _worker_identifier
    assert identifier is not None, "worker used before initialisation"
    return score_batch(identifier, urls)


def batched(urls: Sequence[str], batch_size: int) -> list[list[str]]:
    """Split ``urls`` into batches of at most ``batch_size``."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [list(urls[i : i + batch_size]) for i in range(0, len(urls), batch_size)]


def score_urls(
    model_path: str | os.PathLike,
    urls: Sequence[str],
    workers: int = 2,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[ServedUrl]:
    """Score ``urls`` with a one-shot pool of ``workers`` processes
    sharing one artifact.

    ``model_path`` is an artifact path or a ``store://<name>`` handle —
    it resolves through :func:`repro.api.resolve_artifact_path`, the
    same facade every other entry point uses (multi-process serving
    needs a mappable *file*, so in-process and daemon handles are
    rejected there with typed errors).

    Results preserve input order.  ``workers <= 1`` scores in-process
    (same code path, no pool) — handy for debugging and as the baseline
    when measuring multi-process speedups.  The pool (and every per-
    worker cache) dies with the call; a stream of calls should talk to
    a :mod:`repro.store.daemon` instead.
    """
    from repro.api import resolve_artifact_path

    if workers < 0:
        raise ValueError("workers must be >= 0")
    model_path = resolve_artifact_path(model_path)
    batches = batched(urls, batch_size)
    if workers <= 1:
        _initialize_worker(str(model_path))
        scored = [_score_batch(batch) for batch in batches]
    else:
        with multiprocessing.Pool(
            processes=workers,
            initializer=_initialize_worker,
            initargs=(str(model_path),),
        ) as pool:
            scored = pool.map(_score_batch, batches)
    return [result for batch in scored for result in batch]
