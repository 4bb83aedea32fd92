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
    CodeEvaluator,
    ExactEvaluator,
    ExecutionContext,
    QueryEngine,
    QueryPlan,
    top_k,
    validate_query,
    validate_query_batch,
)
from repro.search.results import SearchResult
from repro.search.searcher import (
    HashIndex,
    IMISearchIndex,
    MIHSearchIndex,
)
from repro.search.stages import RerankSpec

__all__ = [
    "ADCEvaluator",
    "CodeEvaluator",
    "CompactHashIndex",
    "DynamicHashIndex",
    "ExactEvaluator",
    "ExecutionContext",
    "HashIndex",
    "IMISearchIndex",
    "MIHSearchIndex",
    "QueryEngine",
    "QueryPlan",
    "QueryResultCache",
    "RerankSpec",
    "SearchResult",
    "cache_token",
    "query_fingerprint",
    "top_k",
    "validate_query",
    "validate_query_batch",
]
