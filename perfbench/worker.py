"""Workload process: builds the index, runs one workload, writes answers.

Run by ``run.py`` as ``python3 perfbench/worker.py SPEC.json`` with the
program's ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.  The
process only builds, warms up, times and records: exact-kNN truth and
every output check happen in ``run.py`` after this process has exited,
so the benchmark's own work never shows in these timings or in this
process's peak memory.  Results go to ``SPEC.npz`` (answers, timings,
spans) and ``SPEC.out.json`` (scalars).
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import time
from collections.abc import Callable
from typing import Any

import numpy as np

from repro import GQR, ITQ, DynamicHashIndex, HashIndex
from repro.search.cache import QueryResultCache
from repro.search.engine import QueryPlan
from repro.serving import AsyncFrontDoor

import inputs
from hostspeed import HostSpeed
from tracing import (
    SEARCHER,
    WRITE,
    Recorder,
    ServingProxy,
    instrument,
    traced_types,
)

Types = tuple[type[ITQ], type[GQR]]


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it says."""
    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_builds(build: Callable[[], Any], speed: HostSpeed) -> tuple[Any, dict]:
    """``BUILDS`` identical builds, each between two runs of the reference
    kernel; returns the last one, every time and the kernel run before it."""
    built, times, before = None, [], []
    speed.sample(inputs.KERNEL_REPEAT_BUILD)
    for _ in range(inputs.BUILDS):
        built = None
        gc.collect()
        before.append(len(speed.seconds) - 1)
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
        speed.sample(inputs.KERNEL_REPEAT_BUILD)
    return built, {"build_s": times, "build_before": before}


def answers(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.full((n, inputs.K), -1, dtype=np.int64), np.full((n, inputs.K), np.nan)


def store(ids: np.ndarray, dists: np.ndarray, row: int, result: Any) -> None:
    n = min(len(result.ids), inputs.K)
    ids[row, :n] = result.ids[:n]
    dists[row, :n] = result.distances[:n]
    if len(result.ids) != inputs.K:  # flag a wrong-length answer to the check
        ids[row, -1] = -2


def classes(rec: Recorder, traced: bool) -> Types:
    """The hasher and prober types: span-recording subclasses when traced."""
    return traced_types(rec) if traced else (ITQ, GQR)


def build_static(data: np.ndarray, types: Types, cache: bool) -> HashIndex:
    hasher_type, prober_type = types
    return HashIndex(
        hasher_type(inputs.static_code_length(), seed=inputs.hasher_seed()),
        data,
        prober=prober_type(),
        cache=QueryResultCache(capacity=inputs.POOL) if cache else None,
    )


# -- bulk-recall -----------------------------------------------------------

def run_bulk(seed: int, seconds: int, rec: Recorder, traced: bool) -> tuple[dict, dict]:
    data = inputs.static_data()
    plan = inputs.bulk_plan(seed, seconds, data)
    types = classes(rec, traced)
    speed = HostSpeed(data)
    index, builds = timed_builds(lambda: build_static(data, types, False), speed)
    if traced:
        instrument(index.engine, index.tables, rec)
    index.search_batch(plan.batch_queries[: inputs.BATCH], inputs.K, inputs.BUDGET)
    for query in plan.exact_queries[:20]:
        index.search_early_stop(query, inputs.K, inputs.EXACT_MAX_CANDIDATES)

    batch_ids, batch_dists = answers(len(plan.batch_queries))
    batch_raised = np.zeros(len(plan.batch_queries), dtype=bool)
    batch_s = np.empty(plan.n_batches)
    batch_before = np.empty(plan.n_batches, dtype=np.int64)
    exact_ids, exact_dists = answers(len(plan.exact_queries))
    exact_raised = np.zeros(len(plan.exact_queries), dtype=bool)
    exact_s = np.empty(len(plan.exact_queries))
    exact_before = np.empty(len(plan.exact_queries), dtype=np.int64)
    stopped = np.zeros(len(plan.exact_queries), dtype=bool)
    rec.active = traced
    # Each batch is followed by its share of the exact queries, so both
    # operations sample the whole run rather than one spell of it.
    # The reference kernel runs before and after every batch and every
    # EXACT_PER_KERNEL exact queries.
    exact_chunks = np.array_split(np.arange(len(plan.exact_queries)), plan.n_batches)
    before = speed.sample()
    for b, chunk in enumerate(exact_chunks):
        rows = slice(b * inputs.BATCH, (b + 1) * inputs.BATCH)
        batch_before[b] = before
        start = time.perf_counter()
        span = rec.begin(SEARCHER)
        try:
            results = index.search_batch(plan.batch_queries[rows], inputs.K, inputs.BUDGET)
        except Exception:  # counted as failed operations
            results = None
        rec.finish(span, inputs.BATCH)
        batch_s[b] = time.perf_counter() - start
        before = speed.sample()
        if results is None:
            batch_raised[rows] = True
        else:
            for offset, result in enumerate(results):
                store(batch_ids, batch_dists, rows.start + offset, result)
        for n, i in enumerate(chunk):
            if n and n % inputs.EXACT_PER_KERNEL == 0:
                before = speed.sample()
            exact_before[i] = before
            start = time.perf_counter()
            span = rec.begin(SEARCHER)
            try:
                result = index.search_early_stop(
                    plan.exact_queries[i], inputs.K, inputs.EXACT_MAX_CANDIDATES
                )
            except Exception:  # counted as a failed operation
                result = None
            rec.finish(span, 1)
            exact_s[i] = time.perf_counter() - start
            if result is None:
                exact_raised[i] = True
                continue
            store(exact_ids, exact_dists, i, result)
            stopped[i] = bool(result.extras["stats"].early_stop_triggered)
        before = speed.sample()
    rec.active = False
    arrays = dict(
        batch_ids=batch_ids, batch_dists=batch_dists, batch_raised=batch_raised,
        batch_s=batch_s, batch_before=batch_before, exact_ids=exact_ids,
        exact_dists=exact_dists, exact_raised=exact_raised, exact_s=exact_s,
        exact_before=exact_before, exact_stopped=stopped, kernel_s=speed.array(),
    )
    return arrays, {**builds, "cache": {}, "generations": 0}


# -- serve-zipf ------------------------------------------------------------

STATUS_CODES = {"served": 0, "served_degraded": 1, "rejected": 2}


async def run_rung(door: AsyncFrontDoor, pool: np.ndarray, rung: inputs.Rung) -> dict:
    """Send one open-loop rung; time each request from its due time."""
    loop = asyncio.get_running_loop()
    plan = QueryPlan(k=inputs.K, n_candidates=inputs.BUDGET)
    n = len(rung.offsets)
    late = np.empty(n)
    done_at = np.empty(n)
    queue_s = np.full(n, np.nan)
    status = np.empty(n, dtype=np.int8)
    ids, dists = answers(n)

    async def one(i: int, due: float) -> None:
        late[i] = loop.time() - due
        response = await door.submit(pool[rung.contents[i]], plan)
        done_at[i] = loop.time() - due
        status[i] = STATUS_CODES[response.status]
        if response.result is not None:
            queue_s[i] = response.queue_seconds
            store(ids, dists, i, response.result)

    start = loop.time() + 0.005
    tasks = []
    for i, offset in enumerate(rung.offsets):
        due = start + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    finished = loop.time()
    return dict(
        latency_s=done_at, late_s=late, queue_s=queue_s, status=status,
        ids=ids, dists=dists,
        wall_s=np.array([finished - start]),
        drain_s=np.array([finished - (start + float(rung.offsets[-1]))]),
    )


async def run_closed(
    door: AsyncFrontDoor, pool: np.ndarray, contents: np.ndarray, think: np.ndarray
) -> dict:
    """CLIENTS clients; after answer ``i`` a client waits ``think[i]``, then sends."""
    loop = asyncio.get_running_loop()
    plan = QueryPlan(k=inputs.K, n_candidates=inputs.BUDGET)
    n = len(contents)
    latency = np.empty(n)
    done_at = np.empty(n)
    queue_s = np.full(n, np.nan)
    status = np.empty(n, dtype=np.int8)
    ids, dists = answers(n)
    sent = 0

    async def client() -> None:
        nonlocal sent
        while sent < n:
            i = sent
            sent += 1
            sent_at = loop.time()
            response = await door.submit(pool[contents[i]], plan)
            done_at[i] = loop.time() - start
            latency[i] = loop.time() - sent_at
            status[i] = STATUS_CODES[response.status]
            if response.result is not None:
                queue_s[i] = response.queue_seconds
                store(ids, dists, i, response.result)
            await asyncio.sleep(think[i])

    start = loop.time()
    await asyncio.gather(*(client() for _ in range(inputs.CLIENTS)))
    wall = loop.time() - start
    return dict(
        latency_s=latency, done_s=done_at, queue_s=queue_s, status=status,
        ids=ids, dists=dists, wall_s=np.array([wall]),
    )


async def serve_all(
    target: Any, plan: inputs.ServePlan, rec: Recorder, traced: bool, cache: QueryResultCache
) -> tuple[dict, dict]:
    door = AsyncFrontDoor(target)
    await door.start()
    phases = {}
    try:
        await run_rung(door, plan.pool, plan.warmup)
        await asyncio.sleep(0.25)
        before = cache.stats
        rec.active = traced
        phases["closed"] = await run_closed(door, plan.pool, plan.closed, plan.think)
        rec.active = False
        after = cache.stats
        for index, rung in enumerate(plan.rungs):
            await asyncio.sleep(0.25)  # let the overload controller settle
            phases[f"rung{index}"] = await run_rung(door, plan.pool, rung)
    finally:
        await door.close()
    return phases, {key: after[key] - before[key] for key in ("hits", "misses")}


def run_serve(seed: int, seconds: int, rec: Recorder, traced: bool) -> tuple[dict, dict]:
    data = inputs.static_data()
    plan = inputs.serve_plan(seed, seconds, data)
    types = classes(rec, traced)
    speed = HostSpeed(data)
    index, builds = timed_builds(lambda: build_static(data, types, True), speed)
    target: Any = index
    if traced:
        instrument(index.engine, index.tables, rec)
        target = ServingProxy(index, rec)
    phases, cache = asyncio.run(serve_all(target, plan, rec, traced, index.cache))
    arrays = {
        f"{phase}_{name}": values
        for phase, recorded in phases.items()
        for name, values in recorded.items()
    }
    arrays["kernel_s"] = speed.array()
    return arrays, {**builds, "cache": cache, "generations": 0}


# -- ingest-churn ----------------------------------------------------------

def run_ingest(seed: int, seconds: int, rec: Recorder, traced: bool) -> tuple[dict, dict]:
    plan = inputs.ingest_plan(seed, seconds)
    hasher_type, prober_type = classes(rec, traced)
    initial = plan.universe[: inputs.DYNAMIC_ITEMS]

    def build() -> tuple[DynamicHashIndex, np.ndarray]:
        hasher = hasher_type(inputs.dynamic_code_length(), seed=inputs.hasher_seed())
        hasher.fit(plan.universe[plan.fit_rows])
        index = DynamicHashIndex(
            hasher, inputs.DIM, prober=prober_type(),
            cache=QueryResultCache(capacity=inputs.POOL),
        )
        return index, index.add(initial)

    speed = HostSpeed(plan.universe[: inputs.DYNAMIC_ITEMS])
    (index, initial_ids), builds = timed_builds(build, speed)
    if traced:
        instrument(index.engine, [index.table], rec)
    cache = index.engine.cache
    n_steps, n_reads = plan.reads.shape
    id_of_row = np.full(len(plan.universe), -1, dtype=np.int64)
    id_of_row[: inputs.DYNAMIC_ITEMS] = initial_ids
    row_of_id = np.full(len(plan.universe), -1, dtype=np.int64)
    row_of_id[initial_ids] = np.arange(inputs.DYNAMIC_ITEMS)

    write_s = np.full(n_steps, np.nan)
    write_raised = np.zeros(n_steps, dtype=bool)
    read_s = np.full((n_steps, n_reads), np.nan)
    step_before = np.zeros(n_steps, dtype=np.int64)
    read_raised = np.zeros((n_steps, n_reads), dtype=bool)
    cached = np.zeros((n_steps, n_reads), dtype=bool)
    ids, dists = answers(n_steps * n_reads)
    cache_start = generation_start = None
    # The reference kernel runs before and after every STEPS_PER_KERNEL steps.
    before = speed.sample()
    for step in range(n_steps):
        if step == inputs.WARMUP_STEPS:
            rec.active = traced
            cache_start = cache.stats
            generation_start = index.engine.generation
        if step and step % inputs.STEPS_PER_KERNEL == 0:
            before = speed.sample()
        step_before[step] = before
        new_rows = slice(inputs.DYNAMIC_ITEMS + step * inputs.CHURN, inputs.DYNAMIC_ITEMS + (step + 1) * inputs.CHURN)
        old_ids = id_of_row[step * inputs.CHURN:(step + 1) * inputs.CHURN]
        items = plan.universe[new_rows]
        start = time.perf_counter()
        span = rec.begin(WRITE)
        try:
            new_ids = index.add(items)
            index.remove(old_ids)
        except Exception:  # counted as a failed operation
            new_ids = None
        rec.finish(span, 2 * inputs.CHURN)
        write_s[step] = time.perf_counter() - start
        if new_ids is None:  # the id bookkeeping is lost: stop here
            write_raised[step:] = True
            read_raised[step:] = True
            break
        row_of_id[old_ids] = -1
        row_of_id[new_ids] = np.arange(new_rows.start, new_rows.stop)
        id_of_row[new_rows] = new_ids
        for r in range(n_reads):
            query = plan.pool[plan.reads[step, r]]
            hits = cache.stats["hits"]
            start = time.perf_counter()
            span = rec.begin(SEARCHER)
            try:
                result = index.search(query, inputs.K, inputs.BUDGET)
            except Exception:  # counted as a failed operation
                result = None
            rec.finish(span, 1)
            read_s[step, r] = time.perf_counter() - start
            if result is None:
                read_raised[step, r] = True
                continue
            cached[step, r] = cache.stats["hits"] > hits
            row = step * n_reads + r
            store(ids, dists, row, result)
            # Answers leave as universe rows; an id that is not live maps to -1.
            valid = (ids[row] >= 0) & (ids[row] < len(row_of_id))
            ids[row, ~valid] = -1
            ids[row, valid] = row_of_id[ids[row, valid]]
    speed.sample()
    rec.active = False
    cache_end = cache.stats
    arrays = dict(
        write_s=write_s, write_raised=write_raised, read_s=read_s,
        read_raised=read_raised, read_cached=cached, read_ids=ids,
        read_dists=dists, step_before=step_before, kernel_s=speed.array(),
    )
    info = {
        **builds,
        "cache": {key: cache_end[key] - cache_start[key] for key in ("hits", "misses")},
        "generations": index.engine.generation - generation_start,
    }
    return arrays, info


RUNNERS = {"bulk-recall": run_bulk, "serve-zipf": run_serve, "ingest-churn": run_ingest}


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    rec = Recorder()
    arrays, info = RUNNERS[spec["workload"]](
        spec["seed"], spec["seconds"], rec, bool(spec["trace"])
    )
    info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info["machine"] = {
        "available_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.machine(),
    }
    arrays.update(rec.arrays())
    base = os.path.splitext(spec_path)[0]
    np.savez(base + ".npz", **arrays)
    with open(base + ".out.json", "w") as handle:
        json.dump(info, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
