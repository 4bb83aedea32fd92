"""The query engine's benchmark: one workload per run, checked end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk-recall --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``bulk-recall`` -- closed loop, one client, static 200k x 64 index:
  ``search_batch`` over distinct queries in batches of 256, each batch
  followed by its share of at least 1000 per-query Theorem 2
  ``search_early_stop`` calls.  ``qps`` is the batched throughput and
  ``latency_p50_ms`` the Theorem 2 loop's per-query median, both scaled
  to nominal host speed (see below); ``exact_p50_ms`` and
  ``exact_p99_ms`` are that loop's unscaled percentiles.
* ``serve-zipf`` -- Zipf(1.1) queries from a pool of 4096 through
  ``AsyncFrontDoor``: four closed-loop clients with seeded think times,
  loaded like the open ladder's reference rung, give the gated figures,
  then an open-loop ladder of seeded Poisson arrivals at fixed rates
  doubling per rung, each request timed from its due send time, gives
  ``max_rate_ok`` and per-rung tails.
* ``ingest-churn`` -- closed loop, one client, ``DynamicHashIndex``:
  each step adds a few new items, removes as many oldest ones and runs
  a few Zipf-drawn ``search`` calls.  ``qps`` and ``latency_p50_ms``
  are scaled to nominal host speed.

The host is shared and its speed moves by up to a factor of two for
seconds or minutes at a time.  So the workload process runs a fixed
reference kernel (``hostspeed.py``) before and after each build and
between closed-loop operations, every 60-100 ms; ``setup_s`` and the
closed-loop time figures are scaled by how much slower than nominal the
kernel ran around them.  The unscaled figures are printed too, not
gated.

End-to-end figures the gate cannot hold -- every tail percentile, whose
spread between runs on a shared host exceeds any usable bound, and the
figures of one workload only (``exact_*``, ``write_*``, ``max_rate_ok``,
``failed_share``) -- are printed by name and unit, marked "not gated".

The run builds and measures in a separate workload process
(``worker.py``, BLAS pinned to one thread), then -- outside that process
and after it has exited -- computes exact kNN (cached on disk under
``perfbench/.cache``) and checks every answer: live ids, distances equal
to a fresh recomputation, ascending order, recall against the exact
neighbours of the query actually sent.  Human-readable lines come first;
the last line of standard output is one JSON object.  With ``--trace 1``
the workload runs twice, untraced then traced; the closed-loop answers
must be bit-identical, the per-layer metrics come from the traced run
and the tracing overhead (traced minus untraced) is printed for every
end-to-end metric.  Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole command, both workload processes included


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3


# serve-zipf's figures are times of requests that partly wait on one
# another, so they are not scaled by the reference kernel.  Each is
# computed per window -- a consecutive span of the run's answers -- and
# the run reports the quartile of its windows on the better side.  A
# stall of the host slows some windows; a slower program slows every
# window and moves the quartile with it.

def calm_rate(rates: list[float]) -> float:
    """Operations per second of the run: the upper quartile of its windows."""
    return float(np.percentile(rates, 75))


def calm_p50_ms(windows: list[np.ndarray]) -> float:
    """Median latency of the run: the lower quartile of its windows' medians."""
    return float(np.percentile([np.median(w) for w in windows], 25)) * 1e3


# -- running the workload process --------------------------------------------

def run_worker(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> tuple[dict, dict]:
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    base = work / f"{workload}-{seed}-{os.getpid()}-{int(trace)}"
    spec = base.with_suffix(".json")
    spec.write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    ))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    outputs = [base.with_suffix(".npz"), Path(f"{base}.out.json")]
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec)],
            env=env, check=True, timeout=max(1.0, deadline - time.monotonic()),
            stdout=sys.stderr,
        )
        with np.load(outputs[0]) as npz:
            arrays = {name: npz[name] for name in npz.files}
        info = json.loads(outputs[1].read_text())
    finally:
        for path in [spec, *outputs]:
            path.unlink(missing_ok=True)
    return arrays, info


# -- truth, cached on disk -------------------------------------------------

def cached_truth(
    queries: np.ndarray, data: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN of each query within its live rows, cached by content."""
    import inputs
    from truth import exact_knn

    digest = hashlib.blake2b(digest_size=12)
    for part in (queries, lo, hi, data[::97], np.array(data.shape + (inputs.K,))):
        digest.update(np.ascontiguousarray(part).tobytes())
    cache = HERE / ".cache"
    cache.mkdir(exist_ok=True)
    path = cache / f"truth-{digest.hexdigest()}.npz"
    if path.exists():
        with np.load(path) as npz:
            return npz["ids"], npz["dists"]
    ids, dists = exact_knn(queries, data, lo, hi, inputs.K)
    scratch = cache / f"{path.stem}-{os.getpid()}.tmp.npz"
    np.savez(scratch, ids=ids, dists=dists)
    os.replace(scratch, path)
    return ids, dists


def whole(n: int, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Live-row bounds covering all of ``data``, for ``n`` queries."""
    return np.zeros(n, dtype=np.int64), np.full(n, len(data), dtype=np.int64)


# -- per-workload checks and end-to-end metrics --------------------------------

class Outcome:
    """Checked answers and the end-to-end metrics of one workload run."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.details: dict[str, object] = {}
        # Figures the benchmark reports that BENCHMARK.json cannot gate: each
        # is printed by name with its unit, as (value, unit).
        self.reported: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # answers that failed the output check
        self.hits = 0  # true neighbours returned by evaluate()-scored answers


def checked(ok: np.ndarray, raised: np.ndarray, outcome: Outcome) -> np.ndarray:
    """Count attempts and failures; returns which rows were answered."""
    answered = ~raised
    outcome.attempted += len(raised)
    outcome.failed += int(raised.sum() + (answered & ~ok).sum())
    outcome.wrong += int((answered & ~ok).sum())
    return answered


def evaluate_bulk(seed: int, seconds: int, arrays: dict, info: dict) -> Outcome:
    import inputs
    from hostspeed import scaled
    from truth import ATOL, RTOL, check

    out = Outcome()
    data = inputs.static_data()
    plan = inputs.bulk_plan(seed, seconds, data)
    # The pool is fixed, so its truth is computed once and cached.
    truth_ids, truth_dists = cached_truth(plan.pool, data, *whole(len(plan.pool), data))
    nb = len(plan.batch_rows)
    ok_b, recall_b = check(
        arrays["batch_ids"], arrays["batch_dists"], plan.batch_queries, data,
        *whole(nb, data), truth_ids[plan.batch_rows],
    )
    ok_e, recall_e = check(
        arrays["exact_ids"], arrays["exact_dists"], plan.exact_queries, data,
        *whole(len(plan.exact_rows), data), truth_ids[plan.exact_rows],
    )
    # Theorem 2: a loop that stopped on the bound returned the exact kNN.
    stopped = arrays["exact_stopped"]
    exact_match = np.isclose(
        arrays["exact_dists"], truth_dists[plan.exact_rows], rtol=RTOL, atol=ATOL
    ).all(axis=1)
    ok_e &= ~stopped | exact_match
    answered_b = checked(ok_b, arrays["batch_raised"], out)
    answered_e = checked(ok_e, arrays["exact_raised"], out)
    exact_s = arrays["exact_s"]
    out.hits = int(round(float((recall_e[answered_e] * inputs.K).sum())))
    # qps is the batched path's throughput; latency_p50_ms is the per-query
    # Theorem 2 loop's, so each of the two operations has a gated figure.
    kernel_s = arrays["kernel_s"]
    batch_scaled = scaled(arrays["batch_s"], arrays["batch_before"], kernel_s)
    exact_scaled = scaled(exact_s, arrays["exact_before"], kernel_s)
    out.metrics = {
        "qps": inputs.BATCH / float(np.median(batch_scaled)),
        "latency_p50_ms": percentile_ms(exact_scaled, 50),
        "recall_at_10": float(recall_b[answered_b].mean()),
        "slo_met_share": float(((exact_s <= inputs.DEADLINE_S) & answered_e & ok_e).mean()),
    }
    out.reported = {
        "qps_unscaled": (inputs.BATCH / float(np.median(arrays["batch_s"])), "1/s"),
        "exact_p50_ms": (percentile_ms(exact_s, 50), "ms"),
        "exact_p99_ms": (percentile_ms(exact_s, 99), "ms"),
    }
    out.details = {
        "batches": plan.n_batches,
        "batch_queries": nb,
        "exact_queries": len(plan.exact_rows),
        "exact_recall_at_10": float(recall_e[answered_e].mean()),
        "exact_stopped_share": float(stopped.mean()),
        "repeated_query_share": 0.0,
    }
    return out


def closed_windows(done_s: np.ndarray, latency_s: np.ndarray) -> tuple[list[float], list[np.ndarray]]:
    """Completions per second and latencies of WINDOWS spans of answers."""
    import inputs

    order = np.argsort(done_s, kind="stable")
    done = done_s[order]
    bounds = np.linspace(0, len(done) - 1, inputs.WINDOWS + 1).round().astype(int)
    rates = list(np.diff(bounds) / np.diff(done[bounds]))
    latencies = [latency_s[order[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]
    return rates, latencies


def evaluate_serve(seed: int, seconds: int, arrays: dict, info: dict) -> Outcome:
    import inputs
    from truth import check

    out = Outcome()
    data = inputs.static_data()
    plan = inputs.serve_plan(seed, seconds, data)
    # The pool is fixed, so its truth is computed once and cached.
    truth_ids, _ = cached_truth(plan.pool, data, *whole(inputs.POOL, data))

    def phase(name: str, contents: np.ndarray) -> tuple[np.ndarray, ...]:
        ok, recall = check(
            arrays[f"{name}_ids"], arrays[f"{name}_dists"], plan.pool[contents],
            data, *whole(len(contents), data), truth_ids[contents],
        )
        served = arrays[f"{name}_status"] != 2
        out.wrong += int((served & ~ok).sum())
        return ok, recall, served, arrays[f"{name}_latency_s"]

    ok, recall, served, latency = phase("closed", plan.closed)
    out.attempted += len(served)
    out.failed += int((~(served & ok)).sum())
    good = served & ok & (latency <= inputs.DEADLINE_S)
    closed_p99 = percentile_ms(latency[served], 99)
    rates, windows = closed_windows(arrays["closed_done_s"], np.where(served, latency, np.nan))
    out.metrics = {
        "qps": calm_rate(rates),
        "latency_p50_ms": calm_p50_ms([w[~np.isnan(w)] for w in windows]),
        "recall_at_10": float(recall[served].mean()),
        "slo_met_share": float(good.mean()),
    }
    rungs = []
    for number, rung in enumerate(plan.rungs):
        ok, recall, served, latency = phase(f"rung{number}", rung.contents)
        rejected = int((~served).sum())
        drain = float(arrays[f"rung{number}_drain_s"][0])
        p99 = percentile_ms(latency[served], 99) if served.any() else float("inf")
        rungs.append({
            "rate": rung.rate,
            "requests": len(served),
            "rejected": rejected,
            "p50_ms": percentile_ms(latency[served], 50) if served.any() else float("inf"),
            "p99_ms": p99,
            "drain_ms": drain * 1e3,
            "served_per_s": float(served.sum()) / float(arrays[f"rung{number}_wall_s"][0]),
            "recall_at_10": float(recall[served].mean()) if served.any() else 0.0,
            "ok": p99 <= inputs.DEADLINE_S * 1e3 and rejected == 0 and drain <= inputs.DEADLINE_S,
        })
        # Every request sent is attempted and a wrong answer always fails.
        # Rungs up to the reference are meant to be sustained, so a
        # rejection there fails too; above it, rejection is the signal.
        out.attempted += len(served)
        out.failed += int((served & ~ok).sum())
        if number <= inputs.REFERENCE_RUNG:
            out.failed += rejected
    max_ok = 0.0
    for rung in rungs:
        if not rung["ok"]:
            break
        max_ok = rung["rate"]
    out.reported = {
        "latency_p99_ms": (closed_p99, "ms"),
        "max_rate_ok": (max_ok, "1/s"),
    }
    out.details = {
        "clients": inputs.CLIENTS,
        "think_mean_ms": inputs.THINK_MEAN_S * 1e3,
        "closed_requests": len(plan.closed),
        "closed_repeated_query_share": inputs.repeated_share(plan.closed),
        "reference_rate": plan.reference.rate,
        "reference_p50_ms": rungs[inputs.REFERENCE_RUNG]["p50_ms"],
        "reference_p99_ms": rungs[inputs.REFERENCE_RUNG]["p99_ms"],
        "reference_repeated_query_share": inputs.repeated_share(plan.reference.contents),
        "rungs": rungs,
    }
    return out


def evaluate_ingest(seed: int, seconds: int, arrays: dict, info: dict) -> Outcome:
    import inputs
    from hostspeed import scaled
    from truth import check

    out = Outcome()
    plan = inputs.ingest_plan(seed, seconds)
    n_steps, n_reads = plan.reads.shape
    steps = np.repeat(np.arange(n_steps), n_reads)
    lo = (steps + 1) * inputs.CHURN
    hi = inputs.DYNAMIC_ITEMS + (steps + 1) * inputs.CHURN
    queries = plan.pool[plan.reads.ravel()]
    truth_ids, _ = cached_truth(queries, plan.universe, lo, hi)
    ok, recall = check(
        arrays["read_ids"], arrays["read_dists"], queries, plan.universe, lo, hi, truth_ids
    )
    raised = arrays["read_raised"].ravel()
    answered = checked(ok, raised, out)
    checked(np.ones(n_steps, dtype=bool), arrays["write_raised"], out)
    cached = arrays["read_cached"].ravel()
    out.hits = int(round(float((recall[answered & ~cached] * inputs.K).sum())))
    measured = steps >= inputs.WARMUP_STEPS
    read_s = arrays["read_s"].ravel()[measured]
    write_s = arrays["write_s"][inputs.WARMUP_STEPS:]
    # qps: reads per second of the client's scaled time in reads and
    # writes, per span of steps between two kernel runs; the median span.
    kernel_s = arrays["kernel_s"]
    before = arrays["step_before"][inputs.WARMUP_STEPS:]
    per_step = arrays["read_s"][inputs.WARMUP_STEPS:]
    step_scaled = scaled(per_step.sum(axis=1) + write_s, before, kernel_s)
    read_scaled = scaled(per_step, before[:, None], kernel_s)
    _, span = np.unique(before, return_inverse=True)
    rates = np.bincount(span) * n_reads / np.bincount(span, weights=step_scaled)
    out.metrics = {
        "qps": float(np.median(rates)),
        "latency_p50_ms": percentile_ms(read_scaled, 50),
        "recall_at_10": float(recall[answered & measured].mean()),
        "slo_met_share": float(((read_s <= inputs.DEADLINE_S) & (answered & ok)[measured]).mean()),
    }
    reads = plan.reads[inputs.WARMUP_STEPS:].ravel()
    out.reported = {
        "qps_unscaled": (read_s.size / float(per_step.sum() + write_s.sum()), "1/s"),
        "latency_p50_ms_unscaled": (percentile_ms(read_s, 50), "ms"),
        "latency_p99_ms": (percentile_ms(read_s, 99), "ms"),
        "write_p50_ms": (percentile_ms(write_s, 50), "ms"),
        "write_p99_ms": (percentile_ms(write_s, 99), "ms"),
    }
    out.details = {
        "steps": len(write_s),
        "reads": int(read_s.size),
        "cache_hits": info["cache"]["hits"],
        "cache_lookups": info["cache"]["hits"] + info["cache"]["misses"],
        "generations": info["generations"],
        "repeated_query_share": inputs.repeated_share(reads),
    }
    return out


EVALUATORS = {
    "bulk-recall": evaluate_bulk,
    "serve-zipf": evaluate_serve,
    "ingest-churn": evaluate_ingest,
}


def evaluate(workload: str, seed: int, seconds: int, arrays: dict, info: dict) -> Outcome:
    from hostspeed import NOMINAL_S, scaled

    out = EVALUATORS[workload](seed, seconds, arrays, info)
    kernel_s = arrays["kernel_s"]
    builds = scaled(np.array(info["build_s"]), np.array(info["build_before"]), kernel_s)
    out.metrics = {
        "setup_s": float(np.median(builds)),
        "peak_rss_mb": float(info["peak_rss_mb"]),
        **out.metrics,
        "ok_share": 1.0 - out.failed / max(out.attempted, 1),
    }
    out.reported["failed_share"] = (out.failed / max(out.attempted, 1), "ratio")
    out.reported["setup_s_unscaled"] = (float(np.median(info["build_s"])), "s")
    out.details["build_s"] = info["build_s"]
    out.details["host_slowdown_p50"] = float(np.median(kernel_s)) / NOMINAL_S
    return out


# -- per-layer metrics of the traced run ---------------------------------------

def per_layer(workload: str, arrays: dict, info: dict, out: Outcome) -> dict[str, float]:
    import inputs
    from tracing import aggregate

    spans = {name: arrays[name] for name in arrays if name.startswith("span_")}
    agg = aggregate(spans)
    generated = agg["probing.generate"]["items"]
    evaluated = agg["engine.evaluate"]["items"]
    lookups = info["cache"].get("hits", 0) + info["cache"].get("misses", 0)
    metrics = {
        "hashing.calls": agg["hashing"]["calls"],
        "hashing.rows": agg["hashing"]["items"],
        "hashing.busy_s": agg["hashing"]["busy_s"],
        "probing.score_calls": agg["probing.score"]["calls"],
        "probing.buckets_scored": agg["probing.score"]["items"],
        "probing.score_busy_s": agg["probing.score"]["busy_s"],
        "probing.buckets_generated": generated,
        "probing.nonempty_share": agg["index.get"]["items"] / generated if generated else 0.0,
        "probing.generate_busy_s": agg["probing.generate"]["busy_s"],
        "index.bucket_fetches": agg["index.get"]["calls"],
        "index.write_busy_s": agg["index.write"]["self_s"],
        "engine.batch_busy_s": agg["engine.batch"]["busy_s"],
        "engine.execute_self_s": agg["engine.execute"]["self_s"],
        "engine.evaluate_busy_s": agg["engine.evaluate"]["busy_s"],
        "engine.candidates_evaluated": evaluated,
        "engine.hits_per_candidate": out.hits / evaluated if evaluated else 0.0,
        "cache.lookups": lookups,
        "cache.hit_share": info["cache"].get("hits", 0) / lookups if lookups else 0.0,
        "cache.invalidations": info["generations"],
        "serving.batches": 0,
        "serving.batch_size_mean": 0.0,
        "serving.service_busy_share": 0.0,
        "serving.queue_wait_p50_ms": 0.0,
        "serving.queue_wait_p99_ms": 0.0,
        "serving.degraded_share": 0.0,
        "serving.rejected_share": 0.0,
        "searcher.self_s": agg["searcher"]["self_s"],
        "loadgen.late_p99_ms": 0.0,
    }
    if workload == "serve-zipf":
        status = arrays["closed_status"]
        queue_s = arrays["closed_queue_s"][status != 2]
        batches = agg["searcher"]["calls"]
        metrics.update({
            "serving.batches": batches,
            "serving.batch_size_mean": agg["searcher"]["items"] / batches if batches else 0.0,
            "serving.service_busy_share": agg["searcher"]["busy_s"] / float(arrays["closed_wall_s"][0]),
            "serving.queue_wait_p50_ms": percentile_ms(queue_s, 50),
            "serving.queue_wait_p99_ms": percentile_ms(queue_s, 99),
            "serving.degraded_share": float((status == 1).mean()),
            "serving.rejected_share": float((status == 2).mean()),
            "loadgen.late_p99_ms": percentile_ms(arrays[f"rung{inputs.REFERENCE_RUNG}_late_s"], 99),
        })
    return metrics


def declared_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def identical(a: dict, b: dict) -> list[str]:
    """Answer arrays that differ between two runs of a closed loop."""
    names = [n for n in a if n.endswith(("_ids", "_dists", "_stopped", "_cached", "_raised"))]
    return [n for n in names if not np.array_equal(a[n], b[n], equal_nan=True)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in EVALUATORS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(EVALUATORS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    units = declared_units()

    runs = [run_worker(args.workload, args.seed, args.seconds, False, deadline)]
    if args.trace:
        runs.append(run_worker(args.workload, args.seed, args.seconds, True, deadline))
    outcomes = [evaluate(args.workload, args.seed, args.seconds, *run) for run in runs]
    correct = all(o.wrong == 0 for o in outcomes)
    final = outcomes[-1]
    arrays, info = runs[-1]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(info["machine"]))
    print("inputs " + json.dumps(outcomes[0].details))
    for name, value in outcomes[0].metrics.items():
        print(f"  {name:<18} {value:14.6f} {units[name]}")
    for name, (value, unit) in outcomes[0].reported.items():
        print(f"  {name:<18} {value:14.6f} {unit}  (reported, not gated)")
    if args.trace:
        if args.workload != "serve-zipf":
            differ = identical(runs[0][0], arrays)
            print(f"traced answers bit-identical to untraced: {not differ}"
                  + (f" (differ: {differ})" if differ else ""))
            correct &= not differ
        print("tracing overhead (traced minus untraced):")
        for name, value in final.metrics.items():
            print(f"  {name:<18} {value - outcomes[0].metrics[name]:+14.6f} {units[name]}")
        for name, (value, unit) in final.reported.items():
            print(f"  {name:<18} {value - outcomes[0].reported[name][0]:+14.6f} {unit}")
        metrics = per_layer(args.workload, arrays, info, final)
        print("per layer:")
        for name, value in metrics.items():
            print(f"  {name:<28} {value:16.6f} {units[name]}")
    else:
        metrics = final.metrics
    if not correct:
        print(f"perfbench: {sum(o.wrong for o in outcomes)} answers failed the output check",
              file=sys.stderr)
    shown = [*metrics.values(), *(v for o in outcomes for v, _ in o.reported.values())]
    if not all(np.isfinite(shown)):
        # A metric with nothing behind it (every operation raised) is NaN,
        # which is no JSON number and no figure a gate can compare.
        print("perfbench: a metric is not finite; no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
