"""Search-result container shared by all index types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.search.engine import ExecutionContext

__all__ = ["SearchResult"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one approximate kNN query.

    Attributes
    ----------
    ids:
        Item ids of the returned neighbours, ascending distance; may be
        shorter than ``k`` if fewer candidates were retrieved.
    distances:
        Exact Euclidean distances aligned with ``ids``.
    n_candidates:
        Number of candidate items retrieved (evaluation cost).
    n_buckets_probed:
        Number of non-empty buckets fetched from the table(s)
        (retrieval cost); empty buckets passed on the way are not
        counted.
    extras:
        Free-form per-result metadata.  Engine-backed searches attach
        ``"stats"`` (see :attr:`stats`).  Results the serving layer
        answered with a downgraded plan also carry:

        * ``"degraded"`` — ``True``;
        * ``"coverage"`` — the downgraded plan's candidate budget as a
          fraction of the requested one, in ``(0, 1]``
          (:meth:`~repro.search.engine.QueryPlan.budget_fraction`);
        * ``"degrade_level"`` — the overload controller's ladder step
          that chose the plan.
    """

    ids: np.ndarray
    distances: np.ndarray
    n_candidates: int = 0
    n_buckets_probed: int = 0
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def stats(self) -> ExecutionContext | None:
        """The engine's per-query ``ExecutionContext``, if one was attached.

        Engine-backed searches always attach one under
        ``extras["stats"]``: per-stage wall times, buckets probed,
        candidates gathered, early-stop trigger.  ``None`` for results
        built outside the query-execution engine.
        """
        return self.extras.get("stats")
