"""Query and traffic workload generators.

The paper samples queries uniformly from the dataset.  Real query
streams are messier, and the *composition* of a workload changes which
querying method wins — in particular, queries whose projections land
close to quantization thresholds are exactly where Hamming ranking's
coarseness hurts and QD's margin information pays off.  These
generators let the harness (and
``benchmarks/bench_boundary_queries.py``) quantify that.

Beyond query *content*, serving behaviour depends on traffic *shape*:
which queries repeat (:func:`zipfian_stream` — the skew the result
cache exploits) and when they arrive (:func:`traffic_trace` — a
non-homogeneous Poisson arrival process with flash-crowd bursts, the
open-loop input of the serving front door's test harness,
:mod:`repro.serving.simulator`).  Every generator is seeded
and deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hashing.base import BinaryHasher

__all__ = [
    "FlashCrowd",
    "TrafficTrace",
    "in_distribution_queries",
    "out_of_distribution_queries",
    "boundary_queries",
    "boundary_margin",
    "zipfian_stream",
    "rate_at",
    "traffic_trace",
]


def in_distribution_queries(
    data: np.ndarray,
    n_queries: int,
    perturbation: float = 0.1,
    seed: int | None = None,
) -> np.ndarray:
    """Queries near dataset points — the paper's workload."""
    from repro.data.synthetic import sample_queries

    return sample_queries(data, n_queries, perturbation, seed)


def out_of_distribution_queries(
    data: np.ndarray,
    n_queries: int,
    shift: float = 2.0,
    seed: int | None = None,
) -> np.ndarray:
    """Queries displaced off the data manifold by ``shift`` global stds.

    Models cold-start / adversarial traffic: the nearest neighbours are
    genuinely far, bucket occupancy near the query is sparse, and many
    buckets must be probed.
    """
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(data), size=n_queries, replace=n_queries > len(data))
    directions = rng.standard_normal((n_queries, data.shape[1]))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return data[picks] + shift * data.std() * directions


def boundary_margin(hasher: BinaryHasher, queries: np.ndarray) -> np.ndarray:
    """Each query's smallest |projection| — its quantization margin.

    A small margin means one bit of the query's code is nearly
    arbitrary: the true neighbours straddle that hyperplane, the worst
    case for Hamming ranking and the best case for QD.
    """
    projections = hasher.project(np.atleast_2d(np.asarray(queries)))
    return np.abs(projections).min(axis=1)


def boundary_queries(
    data: np.ndarray,
    hasher: BinaryHasher,
    n_queries: int,
    pool_multiplier: int = 20,
    seed: int | None = None,
) -> np.ndarray:
    """The in-distribution queries with the *smallest* quantization margin.

    Draws a pool of candidate queries and keeps the ``n_queries`` whose
    minimum |projection| is smallest — traffic concentrated at bucket
    boundaries.
    """
    if n_queries < 1 or pool_multiplier < 1:
        raise ValueError("n_queries and pool_multiplier must be positive")
    pool = in_distribution_queries(
        data, n_queries * pool_multiplier, seed=seed
    )
    margins = boundary_margin(hasher, pool)
    keep = np.argsort(margins, kind="stable")[:n_queries]
    return pool[keep]


# -- traffic shape -----------------------------------------------------

def zipfian_stream(
    n_distinct: int,
    n_requests: int,
    exponent: float = 1.1,
    seed: int | None = None,
) -> np.ndarray:
    """Request indices drawn with a ``1/rank^exponent`` popularity profile.

    The rank-frequency skew of real serving traffic: a small popular
    head accounts for most requests (what the query-result cache
    exploits, and what makes coalescing batches of identical plans
    effective).  Returns ``n_requests`` indices into ``[0, n_distinct)``,
    deterministic per ``seed``.
    """
    if n_distinct < 1 or n_requests < 0:
        raise ValueError(
            "n_distinct must be positive and n_requests non-negative"
        )
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_distinct + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return rng.choice(n_distinct, size=n_requests, p=weights / weights.sum())


@dataclass(frozen=True)
class FlashCrowd:
    """One burst window: offered rate is multiplied inside it.

    Models a sudden hot event (a viral item, a retry storm): between
    ``start`` and ``start + duration`` seconds the base arrival rate is
    scaled by ``multiplier``.
    """

    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        # Negated comparisons so NaN fails them too.
        if not -np.inf < self.start < np.inf:
            raise ValueError(f"start must be finite, got {self.start}")
        if not 0 < self.duration < np.inf:
            raise ValueError(
                f"duration must be positive and finite, got {self.duration}"
            )
        if not 0 <= self.multiplier < np.inf:
            raise ValueError(
                f"multiplier must be finite and non-negative, got "
                f"{self.multiplier}"
            )


@dataclass(frozen=True)
class TrafficTrace:
    """An open-loop request trace: who arrives, when, on which lane.

    Arrays are aligned by request and sorted by ``arrivals``:

    * ``arrivals`` — absolute arrival times in seconds from trace start;
    * ``query_ids`` — index of each request's query in the caller's
      distinct-query pool (Zipfian-skewed);
    * ``lanes`` — each request's priority-lane name.
    """

    arrivals: np.ndarray
    query_ids: np.ndarray
    lanes: tuple[str, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not (
            len(self.arrivals) == len(self.query_ids) == len(self.lanes)
        ):
            raise ValueError("arrivals, query_ids and lanes must align")

    def __len__(self) -> int:
        return len(self.arrivals)

    def offered_rate(self, start: float, end: float) -> float:
        """Mean offered load (requests/second) inside ``[start, end)``."""
        if end <= start:
            raise ValueError("end must exceed start")
        inside = np.count_nonzero(
            (self.arrivals >= start) & (self.arrivals < end)
        )
        return inside / (end - start)


def rate_at(
    t: np.ndarray | float,
    base_rate: float,
    flash_crowds: tuple[FlashCrowd, ...] = (),
) -> np.ndarray:
    """The instantaneous offered rate λ(t) of :func:`traffic_trace`.

    ``base_rate`` scaled by every flash crowd whose window covers ``t``.
    Exposed so tests can state the *declared* offered load alongside
    the realised one.
    """
    times = np.atleast_1d(np.asarray(t, dtype=np.float64))
    rate = np.full(
        times.shape, float(base_rate), dtype=np.float64
    )
    for crowd in flash_crowds:
        inside = (times >= crowd.start) & (
            times < crowd.start + crowd.duration
        )
        rate[inside] *= crowd.multiplier
    return rate


#: Lane names and shares of :func:`traffic_trace`'s arrivals.
_LANES = ("interactive", "batch")
_LANE_SHARES = (0.8, 0.2)


def traffic_trace(
    duration: float,
    base_rate: float,
    n_distinct: int,
    seed: int,
    flash_crowds: tuple[FlashCrowd, ...] = (),
) -> TrafficTrace:
    """Seeded open-loop traffic: non-homogeneous Poisson arrivals.

    Arrival times are drawn by thinning a homogeneous Poisson process at
    the trace's peak rate (Lewis–Shedler): candidate arrivals at
    ``rate_max`` are kept with probability ``λ(t) / rate_max``, which
    realises the exact time-varying intensity
    (:func:`rate_at`) — each flash crowd appears in the realised
    arrival counts.  Query identities follow :func:`zipfian_stream`;
    80% of requests go to the ``interactive`` lane, 20% to ``batch``.
    """
    if duration <= 0 or base_rate < 0:
        raise ValueError("duration must be positive, base_rate >= 0")
    rng = np.random.default_rng(seed)
    peak = float(base_rate)
    for crowd in flash_crowds:
        peak = max(peak, base_rate * crowd.multiplier)
    if peak <= 0:
        empty = np.empty(0, dtype=np.float64)
        return TrafficTrace(empty, np.empty(0, dtype=np.int64), ())
    # Homogeneous candidates at the peak rate, then thin to λ(t).
    n_candidates = rng.poisson(peak * duration)
    times = np.sort(rng.uniform(0.0, duration, size=n_candidates))
    keep_probability = rate_at(times, base_rate, flash_crowds) / peak
    times = times[rng.uniform(size=len(times)) < keep_probability]
    query_ids = zipfian_stream(
        n_distinct, len(times), seed=int(rng.integers(2**31))
    )
    picks = rng.choice(len(_LANES), size=len(times), p=_LANE_SHARES)
    lanes = tuple(_LANES[int(i)] for i in picks)
    return TrafficTrace(times, query_ids, lanes)
