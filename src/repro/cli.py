"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered paper-dataset stand-ins and their statistics.
``compare``
    Run the hasher/prober comparison on one dataset and print recall
    at a candidate budget (a scriptable slice of Figures 7/13/15).
``demo``
    Build an index on synthetic data and answer a few queries,
    narrating each stage — a zero-setup smoke test.
``obs``
    Run a demo workload under the telemetry subsystem and print the
    metrics it recorded — as a summary table, a JSON snapshot, or
    Prometheus exposition text.
``reproduce``
    Regenerate a paper table or figure by experiment id (``--list``
    names them).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.gqr import GQR
from repro.core.qd_ranking import QDRanking
from repro.data import DATASETS, ground_truth_knn, load_dataset
from repro.eval.reporting import format_table
from repro.hashing import ITQ, PCAHashing, SpectralHashing
from repro.probing import GenerateHammingRanking, HammingRanking
from repro.search.searcher import HashIndex

__all__ = ["build_parser", "main"]

_HASHERS = {
    "itq": lambda m: ITQ(code_length=m, seed=0),
    "pcah": lambda m: PCAHashing(code_length=m),
    "sh": lambda m: SpectralHashing(code_length=m),
}

_PROBERS = {
    "hr": HammingRanking,
    "ghr": GenerateHammingRanking,
    "qr": QDRanking,
    "gqr": GQR,
}


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.kind,
            f"{spec.paper_items:,}",
            spec.paper_dims,
            f"{spec.scaled_items:,}",
            spec.scaled_dims,
            spec.code_length,
        ]
        for spec in DATASETS.values()
    ]
    print(format_table(
        ["name", "type", "paper items", "paper dim",
         "our items", "our dim", "m"],
        rows,
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    truth = ground_truth_knn(dataset.queries, dataset.data, args.k)
    hasher = _HASHERS[args.hasher](dataset.code_length).fit(dataset.data)

    rows = []
    for name, factory in _PROBERS.items():
        index = HashIndex(hasher, dataset.data, prober=factory())
        start = time.perf_counter()
        hits = 0
        for query, truth_row in zip(dataset.queries, truth):
            result = index.search(query, k=args.k, n_candidates=args.budget)
            hits += len(np.intersect1d(result.ids, truth_row))
        elapsed = time.perf_counter() - start
        rows.append([
            name.upper(),
            f"{hits / (args.k * len(dataset.queries)):.3f}",
            f"{1000 * elapsed / len(dataset.queries):.2f}ms",
        ])
    print(f"{dataset.name}: {dataset.data.shape}, m={dataset.code_length}, "
          f"{args.hasher.upper()}, k={args.k}, budget={args.budget}")
    print(format_table(["prober", f"recall@{args.k}", "per query"], rows))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments, run_experiment

    if args.list:
        rows = [[name, desc] for name, desc in list_experiments().items()]
        print(format_table(["experiment", "description"], rows))
        return 0
    if args.experiment is None:
        print("give --experiment <id> or --list", file=sys.stderr)
        return 2
    print(run_experiment(args.experiment, scale=args.scale, k=args.k))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.data import gaussian_mixture, sample_queries

    print("generating 10,000 synthetic 32-d points ...")
    data = gaussian_mixture(10_000, 32, n_clusters=40,
                            cluster_spread=1.0, seed=0)
    queries = sample_queries(data, 3, seed=1)
    print("training 10-bit ITQ and building the GQR index ...")
    index = HashIndex(ITQ(code_length=10, seed=0), data, prober=GQR())
    table = index.tables[0]
    print(f"  {table.num_buckets} buckets, "
          f"{table.expected_population():.1f} items/bucket")
    for i, query in enumerate(queries):
        result = index.search(query, k=10, n_candidates=400)
        print(f"query {i}: top ids {result.ids[:5].tolist()} "
              f"(evaluated {result.n_candidates} items in "
              f"{result.n_buckets_probed} buckets)")
        stats = result.stats
        print(f"  engine: retrieval {stats.retrieval_seconds * 1e3:.3f}ms, "
              f"evaluation {stats.evaluation_seconds * 1e3:.3f}ms, "
              f"total {stats.total_seconds * 1e3:.3f}ms"
              + (", early stop" if stats.early_stop_triggered else ""))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.data import gaussian_mixture, sample_queries

    from repro.search.cache import QueryResultCache

    data = gaussian_mixture(10_000, 32, n_clusters=40,
                            cluster_spread=1.0, seed=0)
    queries = sample_queries(data, args.queries, seed=1)
    index = HashIndex(
        ITQ(code_length=10, seed=0), data, prober=GQR(),
        cache=QueryResultCache(capacity=256, name="hash"),
    )

    sampler = obs.TraceSampler(every_n=args.sample_every, seed=0)
    with obs.telemetry_session(sampler=sampler) as telemetry:
        for query in queries:
            index.search(query, k=10, n_candidates=400)
        # Re-issue a slice of the workload so the cache hit/miss series
        # have data (the first pass populated the cache).
        for query in queries[:16]:
            index.search(query, k=10, n_candidates=400)
        # Half the batch repeats cached queries (hits), half is fresh,
        # so the batched execution series have data too.
        mixed = np.vstack([queries[:16], sample_queries(data, 16, seed=2)])
        batch = index.search_batch(mixed, k=10, n_candidates=400)
        assert len(batch) == len(mixed)
        if args.format == "json":
            print(obs.snapshot_json(telemetry.registry))
        elif args.format == "prometheus":
            print(obs.to_prometheus_text(telemetry.registry), end="")
        else:
            print(f"{args.queries} single + {len(batch)} batched "
                  "queries under telemetry:")
            print(format_table(
                ["metric", "labels", "count", "mean", "p50", "p95"],
                obs.summary_rows(telemetry.registry),
            ))
            print("totals (counters and gauges):")
            print(format_table(
                ["metric", "labels", "value"],
                obs.counter_rows(telemetry.registry),
            ))
            traces = sampler.traces()
            print(f"sampled traces: {len(traces)} "
                  f"(every {sampler.every_n}th query)")
            last = sampler.last()
            if last is not None and last.spans is not None:
                stages = ", ".join(
                    f"{child['name']} {child['duration_seconds'] * 1e3:.3f}ms"
                    for child in last.spans["children"]
                )
                print(f"last sampled query #{last.seq}: {stages}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GQR (SIGMOD 2018) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list dataset stand-ins")

    compare = commands.add_parser(
        "compare", help="compare querying methods on one dataset"
    )
    compare.add_argument(
        "--dataset", default="CIFAR60K",
        choices=sorted(DATASETS), help="registered dataset name",
    )
    compare.add_argument("--hasher", default="itq", choices=sorted(_HASHERS))
    compare.add_argument("--k", type=int, default=20)
    compare.add_argument("--budget", type=int, default=300,
                         help="candidate budget per query")
    compare.add_argument("--scale", type=float, default=1.0,
                         help="dataset downscale factor in (0, 1]")

    commands.add_parser("demo", help="end-to-end smoke demo")

    obs_cmd = commands.add_parser(
        "obs", help="demo workload under telemetry; print the metrics"
    )
    obs_cmd.add_argument("--queries", type=int, default=200,
                         help="single-query workload size")
    obs_cmd.add_argument("--sample-every", type=int, default=32,
                         help="trace-sampling period (every Nth query)")
    obs_cmd.add_argument(
        "--format", choices=("table", "json", "prometheus"),
        default="table", help="output format",
    )

    reproduce = commands.add_parser(
        "reproduce", help="regenerate a paper table/figure"
    )
    reproduce.add_argument("--experiment", default=None,
                           help="experiment id (see --list)")
    reproduce.add_argument("--list", action="store_true",
                           help="list available experiments")
    reproduce.add_argument("--scale", type=float, default=1.0)
    reproduce.add_argument("--k", type=int, default=20)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Internal failures (bad parameter combinations, workload errors)
    exit nonzero with a one-line diagnostic instead of a traceback, so
    shell pipelines and CI steps see the failure.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "compare": _cmd_compare,
        "demo": _cmd_demo,
        "obs": _cmd_obs,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except Exception as err:  # reprolint: disable=RL005
        print(f"repro: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
