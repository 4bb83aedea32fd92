"""High-level search APIs over the hashing and probing substrates."""

from repro.search.cache import (
    QueryResultCache,
    cache_token,
    query_fingerprint,
)
from repro.search.compact_index import CompactHashIndex
from repro.search.dynamic_index import DynamicHashIndex
from repro.search.engine import (
    ADCEvaluator,
    CandidatePipeline,
    CodeEvaluator,
    ExactEvaluator,
    ExecutionContext,
    QueryEngine,
    QueryPlan,
    validate_query,
    validate_query_batch,
)
from repro.search.results import SearchResult
from repro.search.searcher import (
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
    evaluate_candidates,
)
from repro.search.stages import (
    FusionSpec,
    IndexFusionPartner,
    RerankSpec,
    linear_fusion,
)
from repro.search.stream_index import StreamSearchIndex

__all__ = [
    "ADCEvaluator",
    "CandidatePipeline",
    "CodeEvaluator",
    "CompactHashIndex",
    "DynamicHashIndex",
    "ExactEvaluator",
    "ExecutionContext",
    "FusionSpec",
    "HashIndex",
    "IMISearchIndex",
    "IndexFusionPartner",
    "MIHSearchIndex",
    "QueryEngine",
    "QueryPlan",
    "QueryResultCache",
    "RerankSpec",
    "SearchResult",
    "StreamSearchIndex",
    "cache_token",
    "evaluate_candidates",
    "linear_fusion",
    "query_fingerprint",
    "validate_query",
    "validate_query_batch",
]
