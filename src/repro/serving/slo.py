"""SLO reporting: declared targets vs. achieved serving behaviour.

Turns a :class:`~repro.serving.simulator.SimulationResult` (or any
equivalent record set) into one JSON-friendly report —
``repro.serving_slo/v1`` — that states, per lane, the *declared*
p50/p99/p999 targets next to the *achieved* quantiles of served
requests, plus goodput against the measured serial capacity and every
shed/degrade/reject count the front door tallied.
:func:`validate_slo_report` checks a report's completeness;
``python -m repro serve-sim`` prints one and ``tests/test_serving_sim.py``
validates it.  Achieved figures follow from the simulator's modelled
service cost, not a measurement of the engine.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.workloads import FlashCrowd
from repro.eval.reporting import format_table
from repro.obs.export import counter_rows
from repro.obs.metrics import MetricsRegistry
from repro.serving.core import REJECT_REASONS
from repro.serving.simulator import SimulationResult

__all__ = [
    "SLO_REPORT_SCHEMA",
    "slo_report",
    "format_slo_report",
    "validate_slo_report",
]

SLO_REPORT_SCHEMA = "repro.serving_slo/v1"

_QUANTILES = (("p50_ms", 50.0), ("p99_ms", 99.0), ("p999_ms", 99.9))

#: Keys every report must carry (validate_slo_report enforces these).
_TOP_LEVEL_KEYS = (
    "schema",
    "duration_seconds",
    "offered",
    "served",
    "served_degraded",
    "rejected",
    "rejected_by_reason",
    "accepted_fraction",
    "goodput_qps",
    "lanes",
    "overload",
    "counters",
)
_LANE_KEYS = (
    "declared",
    "achieved",
    "slo_met",
    "offered",
    "served",
    "degraded",
    "rejected_by_reason",
    "deadline_met_fraction",
)


def _achieved_quantiles(latencies: np.ndarray) -> dict[str, float | None]:
    if not len(latencies):
        return {name: None for name, _ in _QUANTILES}
    return {
        name: float(np.percentile(latencies, q)) * 1e3
        for name, q in _QUANTILES
    }


def slo_report(
    sim: SimulationResult,
    *,
    serial_capacity_qps: float | None = None,
    flash_crowds: tuple[FlashCrowd, ...] = (),
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Build the ``repro.serving_slo/v1`` report for one run.

    Parameters
    ----------
    sim:
        The simulation (or replayed) outcome to grade.
    serial_capacity_qps:
        The measured serial capacity baseline; when given, overall and
        per-flash-crowd goodput are also reported as fractions of it.
    flash_crowds:
        The trace's burst windows; goodput inside each is reported
        separately (the overload windows are where shedding earns its
        keep).
    registry:
        A telemetry registry to export the ``repro_serving_*`` counter
        series from; without one the counters section is built from the
        core's own tallies.
    """
    statuses = sim.by_status()
    reasons = sim.by_reason()
    served = statuses.get("served", 0) + statuses.get("served_degraded", 0)
    lanes: dict[str, Any] = {}
    for lane in sim.config.lanes:
        latencies = sim.served_latencies(lane.name)
        achieved = _achieved_quantiles(latencies)
        declared = lane.slo.as_dict()
        met = all(
            achieved[name] is not None and achieved[name] <= declared[name]
            for name in declared
        ) if len(latencies) else None
        lane_records = [
            record for record in sim.records
            if record.response.lane == lane.name
        ]
        lane_served = [
            record for record in lane_records if record.response.served
        ]
        rejected_by_reason = dict.fromkeys(REJECT_REASONS, 0)
        for record in lane_records:
            if not record.response.served:
                reason = record.response.reason or "unknown"
                rejected_by_reason[reason] = (
                    rejected_by_reason.get(reason, 0) + 1
                )
        lanes[lane.name] = {
            "declared": declared,
            "achieved": achieved,
            "slo_met": met,
            "offered": len(lane_records),
            "served": len(lane_served),
            "degraded": sum(
                1 for record in lane_served
                if record.response.degrade_level > 0
            ),
            "rejected_by_reason": rejected_by_reason,
            "deadline_met_fraction": (
                sum(
                    1 for record in lane_served
                    if record.response.deadline_met
                ) / len(lane_served)
                if lane_served else None
            ),
        }
    overload: dict[str, Any] = {
        "degraded_total": statuses.get("served_degraded", 0),
        "shed_total": reasons.get("shed", 0),
        "windows": [],
    }
    for crowd in flash_crowds:
        window_end = min(crowd.start + crowd.duration, sim.duration)
        if window_end <= crowd.start:
            continue
        window_goodput = sim.goodput(crowd.start, window_end)
        overload["windows"].append({
            "start": crowd.start,
            "duration": window_end - crowd.start,
            "multiplier": crowd.multiplier,
            "goodput_qps": window_goodput,
            "goodput_vs_serial": (
                window_goodput / serial_capacity_qps
                if serial_capacity_qps else None
            ),
        })
    if registry is not None:
        counters = [
            {"metric": str(metric), "labels": str(labels),
             "value": str(value)}
            for metric, labels, value in counter_rows(registry)
            if str(metric).startswith("repro_serving_")
        ]
    else:
        counters = [
            {"metric": "core_stats", "labels": key, "value": str(value)}
            for key, value in sim.core_stats.items()
        ]
    total_goodput = sim.goodput() if sim.duration > 0 else 0.0
    return {
        "schema": SLO_REPORT_SCHEMA,
        "duration_seconds": sim.duration,
        "per_query_cost": sim.per_query_cost,
        "batch_overhead": sim.batch_overhead,
        "offered": len(sim.records),
        "served": statuses.get("served", 0),
        "served_degraded": statuses.get("served_degraded", 0),
        "rejected": statuses.get("rejected", 0),
        "rejected_by_reason": {
            reason: reasons.get(reason, 0) for reason in REJECT_REASONS
        },
        "accepted_fraction": sim.accepted_fraction(),
        "goodput_qps": total_goodput,
        "serial_capacity_qps": serial_capacity_qps,
        "goodput_vs_serial": (
            total_goodput / serial_capacity_qps
            if serial_capacity_qps else None
        ),
        "batches": sim.core_stats.get("batches", 0),
        "mean_batch_size": (
            sim.core_stats.get("batched_tickets", 0)
            / max(1, sim.core_stats.get("batches", 0))
        ),
        "lanes": lanes,
        "overload": overload,
        "counters": counters,
    }


def format_slo_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`slo_report`'s output."""

    def ms(value: float | None) -> str:
        return "-" if value is None else f"{value:.2f}"

    lane_rows = []
    for name, lane in report["lanes"].items():
        declared, achieved = lane["declared"], lane["achieved"]
        lane_rows.append([
            name,
            lane["served"],
            lane["degraded"],
            sum(lane["rejected_by_reason"].values()),
            f"{ms(achieved['p50_ms'])}/{ms(declared['p50_ms'])}",
            f"{ms(achieved['p99_ms'])}/{ms(declared['p99_ms'])}",
            f"{ms(achieved['p999_ms'])}/{ms(declared['p999_ms'])}",
            {True: "yes", False: "NO", None: "-"}[lane["slo_met"]],
        ])
    lines = [
        f"offered {report['offered']}  served {report['served']}  "
        f"degraded {report['served_degraded']}  "
        f"rejected {report['rejected']}  "
        f"goodput {report['goodput_qps']:.1f} q/s"
        + (
            f" ({report['goodput_vs_serial']:.2f}x serial)"
            if report.get("goodput_vs_serial") is not None else ""
        ),
        format_table(
            ["lane", "served", "degraded", "rejected",
             "p50 ach/slo (ms)", "p99 ach/slo (ms)",
             "p999 ach/slo (ms)", "slo met"],
            lane_rows,
        ),
    ]
    reason_rows = [
        [reason, count]
        for reason, count in report["rejected_by_reason"].items()
        if count
    ]
    if reason_rows:
        lines.append(format_table(["reject reason", "count"], reason_rows))
    for window in report["overload"]["windows"]:
        versus = window["goodput_vs_serial"]
        lines.append(
            f"flash crowd @{window['start']:.1f}s "
            f"x{window['multiplier']:.0f} for "
            f"{window['duration']:.1f}s: goodput "
            f"{window['goodput_qps']:.1f} q/s"
            + (f" ({versus:.2f}x serial)" if versus is not None else "")
        )
    return "\n".join(lines)


def validate_slo_report(report: dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``report`` is structurally incomplete.

    The CI ``serving-slo`` job runs this over the uploaded JSON: every
    top-level key, every configured lane's declared/achieved block, and
    every rejection-reason bucket must be present — shed/degrade/reject
    decisions may be zero but never *missing*.
    """
    if report.get("schema") != SLO_REPORT_SCHEMA:
        raise ValueError(
            f"schema mismatch: {report.get('schema')!r} != "
            f"{SLO_REPORT_SCHEMA!r}"
        )
    missing = [key for key in _TOP_LEVEL_KEYS if key not in report]
    if missing:
        raise ValueError(f"report is missing top-level keys: {missing}")
    for reason in REJECT_REASONS:
        if reason not in report["rejected_by_reason"]:
            raise ValueError(f"missing rejection-reason bucket: {reason}")
    if not report["lanes"]:
        raise ValueError("report has no lanes")
    for name, lane in report["lanes"].items():
        lane_missing = [key for key in _LANE_KEYS if key not in lane]
        if lane_missing:
            raise ValueError(
                f"lane {name!r} is missing keys: {lane_missing}"
            )
        for block in ("declared", "achieved"):
            for quantile, _ in _QUANTILES:
                if quantile not in lane[block]:
                    raise ValueError(
                        f"lane {name!r} {block} block is missing {quantile}"
                    )
        for reason in REJECT_REASONS:
            if reason not in lane["rejected_by_reason"]:
                raise ValueError(
                    f"lane {name!r} is missing rejection-reason bucket: "
                    f"{reason}"
                )
    counts = sum(
        report["lanes"][name]["offered"] for name in report["lanes"]
    )
    if counts != report["offered"]:
        raise ValueError(
            f"lane offered counts ({counts}) do not partition the total "
            f"({report['offered']})"
        )
