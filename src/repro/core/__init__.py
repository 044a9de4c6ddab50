"""Core pipeline: identifiers, combination, selection, training helpers."""

from repro.core.combination import (
    BEST_COMBINATIONS,
    PRECISION,
    RECALL,
    CombinationSpec,
    CombinedIdentifier,
    build_best_combination,
    merge_decisions,
    search_best_combination,
)
from repro.core.pipeline import (
    BACKENDS,
    BASELINE_ALGORITHMS,
    FEATURE_SETS,
    CompiledIdentifier,
    LanguageIdentifier,
    make_extractor,
)
from repro.core.scored import ScoredBatch, ServedUrl
from repro.core.selection import (
    SelectionResult,
    SelectionStep,
    forward_select,
)
from repro.core.training import (
    EvaluationRun,
    TrainedPool,
    evaluate_grid,
    language_f_table,
)

__all__ = [
    "BACKENDS",
    "BASELINE_ALGORITHMS",
    "BEST_COMBINATIONS",
    "CombinationSpec",
    "CombinedIdentifier",
    "CompiledIdentifier",
    "EvaluationRun",
    "FEATURE_SETS",
    "LanguageIdentifier",
    "PRECISION",
    "RECALL",
    "ScoredBatch",
    "SelectionResult",
    "SelectionStep",
    "ServedUrl",
    "TrainedPool",
    "build_best_combination",
    "evaluate_grid",
    "forward_select",
    "language_f_table",
    "make_extractor",
    "merge_decisions",
    "search_best_combination",
]
