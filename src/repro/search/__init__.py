"""High-level search APIs over the hashing and probing substrates."""

from repro.search.cache import (
    QueryResultCache,
    cache_token,
    query_fingerprint,
)
from repro.search.dynamic_index import DynamicHashIndex
from repro.search.engine import (
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

__all__ = [
    "DynamicHashIndex",
    "ExactEvaluator",
    "ExecutionContext",
    "HashIndex",
    "IMISearchIndex",
    "MIHSearchIndex",
    "QueryEngine",
    "QueryPlan",
    "QueryResultCache",
    "SearchResult",
    "cache_token",
    "query_fingerprint",
    "top_k",
    "validate_query",
    "validate_query_batch",
]
