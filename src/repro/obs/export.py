"""Exporters: Prometheus text exposition and JSON snapshots.

Two machine-readable views of one :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``le``-cumulative histogram
  buckets, ``_sum`` / ``_count`` series), ready to serve from a
  ``/metrics`` endpoint or write to a scrape file;
* :func:`snapshot_json` — ``registry.snapshot()`` serialised, for CI
  artifacts and offline diffing.

:func:`parse_prometheus_text` is the inverse of the exposition renderer
over the subset this module emits — it exists so the round-trip can be
*tested* (render → parse → same numbers) rather than asserted by eye,
and doubles as a scrape-file reader for tooling.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramChild,
    MetricsRegistry,
)

__all__ = [
    "counter_rows",
    "parse_prometheus_text",
    "snapshot_json",
    "summary_rows",
    "to_prometheus_text",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every family in ``registry`` as Prometheus exposition text."""
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, (Counter, Gauge)):
            for labels, child in family.samples():
                lines.append(
                    f"{family.name}{_format_labels(labels)} "
                    f"{_format_value(child.value)}"  # type: ignore[attr-defined]
                )
        elif isinstance(family, Histogram):
            for labels, child in family.samples():
                assert isinstance(child, HistogramChild)
                cumulative = child.cumulative_counts()
                bounds = [_format_value(b) for b in child.upper_bounds]
                for bound, running in zip(bounds + ["+Inf"], cumulative):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = bound
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_format_labels(bucket_labels)} {running}"
                    )
                lines.append(
                    f"{family.name}_sum{_format_labels(labels)} "
                    f"{_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_format_labels(labels)} "
                    f"{child.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _unescape_label_value(text: str) -> str:
    return (
        text.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
    )


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back into ``(name, labels) -> value``.

    Labels are returned as a sorted tuple of ``(name, value)`` pairs so
    the dict key is hashable and order-insensitive.  Comment and blank
    lines are skipped; a malformed sample line raises ``ValueError``.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels_src = match.group("labels") or ""
        labels = tuple(
            sorted(
                (m.group("name"), _unescape_label_value(m.group("value")))
                for m in _LABEL_PAIR_RE.finditer(labels_src)
            )
        )
        out[(match.group("name"), labels)] = float(match.group("value"))
    return out


def snapshot_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def counter_rows(registry: MetricsRegistry) -> list[list[object]]:
    """Totals table rows: one per counter / gauge series.

    Each row is ``[metric, labels, value]``.  Zero-valued counter
    series are dropped (they carry no signal in a summary); gauges are
    always shown because 0 is a meaningful state (e.g. an empty serving
    queue).  Renders the totals table of ``python -m repro obs``.
    """
    rows: list[list[object]] = []
    for family in registry.collect():
        if not isinstance(family, (Counter, Gauge)):
            continue
        for labels, child in family.samples():
            value = child.value  # type: ignore[attr-defined]
            if value == 0 and isinstance(family, Counter):
                continue
            label_text = ",".join(f"{k}={v}" for k, v in labels.items())
            rows.append([family.name, label_text or "-", _format_value(value)])
    return rows


def summary_rows(registry: MetricsRegistry) -> list[list[object]]:
    """Top-line table rows: one per labelled histogram series.

    Each row is ``[metric, labels, count, mean, p50, p95]`` with times
    pre-scaled to milliseconds for the ``*_seconds`` metrics
    — the rendering behind ``python -m repro obs``.
    """
    rows: list[list[object]] = []
    for family in registry.collect():
        if not isinstance(family, Histogram):
            continue
        in_ms = family.name.endswith("_seconds")
        scale = 1e3 if in_ms else 1.0
        unit = "ms" if in_ms else ""
        for labels, child in family.samples():
            assert isinstance(child, HistogramChild)
            if child.count == 0:
                continue
            label_text = ",".join(f"{k}={v}" for k, v in labels.items())
            rows.append(
                [
                    family.name,
                    label_text or "-",
                    child.count,
                    f"{child.mean * scale:.3f}{unit}",
                    f"{child.quantile(0.5) * scale:.3f}{unit}",
                    f"{child.quantile(0.95) * scale:.3f}{unit}",
                ]
            )
    return rows
