"""Self-contained HTML run report: timelines, rollups, health findings.

Renders one :class:`~repro.telemetry.aggregate.FleetRollup` (plus its
:class:`~repro.telemetry.health.HealthReport`) as a single HTML file
with inline CSS and inline SVG — no external assets, so the artifact a
CI job uploads opens anywhere.  Per node, an SVG timeline lays the
simulated clock on the x axis with one lane per rank: checkpoint bars
run from ``produced_at`` to ``persisted_at`` (the flush backlog is the
bar), crashes are red markers, restarts green, tier outages shade the
whole node band, and retries tick in amber.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..utils.units import format_bytes
from .aggregate import FleetRollup
from .events import (
    ATTRIBUTION_SUMMARY,
    CHECKPOINT_COMMITTED,
    CRASH,
    FLUSH_RETRY,
    FLUSH_ROUTE_AROUND,
    RESTART,
    TIER_OUTAGE,
)
from .health import CRITICAL, OK, WARN, HealthReport

_SEVERITY_COLOR = {OK: "#2e7d32", WARN: "#e65100", CRITICAL: "#b71c1c"}

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 72em; color: #1c2733; }
h1 { border-bottom: 2px solid #1c2733; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #c4ccd4; padding: 0.3em 0.8em; text-align: right; }
th { background: #eef1f4; }
td.name, th.name { text-align: left; }
.badge { display: inline-block; padding: 0.15em 0.7em; border-radius: 0.8em;
         color: #fff; font-weight: 600; }
.finding { margin: 0.5em 0; padding: 0.5em 0.8em; border-left: 4px solid;
           background: #f7f8fa; }
.finding pre { overflow-x: auto; font-size: 0.8em; background: #eef1f4;
               padding: 0.5em; }
.lane-label { font-size: 11px; fill: #444; }
.axis { font-size: 10px; fill: #666; }
svg { background: #fcfdfe; border: 1px solid #d7dde3; margin: 0.5em 0; }
"""


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _node_timeline_svg(
    node: str, events: List[Dict[str, Any]], width: int = 900
) -> str:
    """Inline SVG timeline of one node's journal events on the sim clock."""
    timed = [e for e in events if e.get("sim_time") is not None]
    if not timed:
        return "<p>(no simulated-time events for this node)</p>"
    t_lo = min(e["sim_time"] for e in timed)
    t_hi = max(
        max(e.get("persisted_at", e["sim_time"]) or e["sim_time"], e["sim_time"])
        for e in timed
    )
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    ranks = sorted(
        {e.get("rank") for e in timed if e.get("rank") is not None},
        key=lambda r: (r is None, r),
    )
    if not ranks:
        ranks = [None]
    lane_h, pad_l, pad_t = 26, 70, 14
    height = pad_t + lane_h * len(ranks) + 30

    def x(t: float) -> float:
        return pad_l + (t - t_lo) / (t_hi - t_lo) * (width - pad_l - 14)

    def y(rank) -> float:
        idx = ranks.index(rank) if rank in ranks else 0
        return pad_t + idx * lane_h

    parts = [
        f'<svg width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" '
        f'aria-label="timeline of node {html.escape(node)}">'
    ]
    # Outage bands shade the whole node.
    for e in timed:
        if e.get("type") != TIER_OUTAGE:
            continue
        x0 = x(e["sim_time"])
        if e.get("kind") == "permanent":
            x1 = width - 14
        else:
            x1 = x(min(t_hi, e["sim_time"] + float(e.get("duration", 0.0))))
        parts.append(
            f'<rect x="{x0:.1f}" y="{pad_t}" width="{max(x1 - x0, 2):.1f}" '
            f'height="{lane_h * len(ranks)}" fill="#b71c1c" opacity="0.12">'
            f"<title>{html.escape(e.get('kind', '?'))} outage: "
            f"{html.escape(str(e.get('tier', '?')))}</title></rect>"
        )
    # Lanes and labels.
    for rank in ranks:
        ly = y(rank)
        label = f"rank {rank}" if rank is not None else "(node)"
        parts.append(
            f'<line x1="{pad_l}" y1="{ly + lane_h - 6}" x2="{width - 14}" '
            f'y2="{ly + lane_h - 6}" stroke="#e0e5ea"/>'
            f'<text x="4" y="{ly + lane_h - 10}" class="lane-label">'
            f"{html.escape(label)}</text>"
        )
    # Events.
    for e in timed:
        kind = e.get("type")
        ly = y(e.get("rank"))
        ex = x(e["sim_time"])
        if kind == CHECKPOINT_COMMITTED:
            persisted = e.get("persisted_at")
            x1 = x(persisted) if persisted is not None else ex + 2
            parts.append(
                f'<rect x="{ex:.1f}" y="{ly + 4:.1f}" '
                f'width="{max(x1 - ex, 2):.1f}" height="{lane_h - 14}" '
                f'rx="2" fill="#1565c0" opacity="0.75">'
                f"<title>ckpt {e.get('ckpt_id')}: "
                f"{format_bytes(int(e.get('stored_bytes', 0)))} stored, "
                f"persisted t={_fmt(persisted if persisted is not None else 0)}"
                f"</title></rect>"
            )
        elif kind == CRASH:
            parts.append(
                f'<path d="M {ex:.1f} {ly + 2:.1f} l 5 9 l -10 0 z" '
                f'fill="#b71c1c"><title>crash t={_fmt(e["sim_time"])}</title>'
                f"</path>"
            )
        elif kind == RESTART:
            parts.append(
                f'<circle cx="{ex:.1f}" cy="{ly + lane_h / 2 - 3:.1f}" r="4" '
                f'fill="#2e7d32"><title>restart from ckpt '
                f"{e.get('restored_ckpt_id')}, lost "
                f"{_fmt(float(e.get('lost_work_seconds', 0.0)))}s</title>"
                f"</circle>"
            )
        elif kind in (FLUSH_RETRY, FLUSH_ROUTE_AROUND):
            parts.append(
                f'<line x1="{ex:.1f}" y1="{ly + 4:.1f}" x2="{ex:.1f}" '
                f'y2="{ly + lane_h - 8:.1f}" stroke="#e65100" '
                f'stroke-width="2"><title>{html.escape(kind)}: '
                f"{html.escape(str(e.get('tier', e.get('key', '?'))))}"
                f"</title></line>"
            )
    # Time axis.
    axis_y = pad_t + lane_h * len(ranks) + 12
    parts.append(
        f'<line x1="{pad_l}" y1="{axis_y - 8}" x2="{width - 14}" '
        f'y2="{axis_y - 8}" stroke="#888"/>'
        f'<text x="{pad_l}" y="{axis_y + 4}" class="axis">t={_fmt(t_lo)}s</text>'
        f'<text x="{width - 90}" y="{axis_y + 4}" class="axis">'
        f"t={_fmt(t_hi)}s</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _fleet_table(rollup: FleetRollup) -> str:
    summary = rollup.summary()
    rows = [
        ("events", str(summary["events"])),
        ("nodes / ranks", f"{summary['nodes']} / {summary['ranks']}"),
        ("checkpoints committed", str(summary["checkpoints"])),
        ("full bytes", format_bytes(summary["full_bytes"])),
        ("stored bytes", format_bytes(summary["stored_bytes"])),
        ("fleet dedup ratio", f"{_fmt(summary['dedup_ratio'])}x"),
        ("max flush backlog", f"{_fmt(summary['max_backlog_seconds'])} s"),
        ("crashes / lost work", f"{summary['crashes']} / "
                                f"{_fmt(summary['lost_work_seconds'])} s"),
        ("restore amplification", _fmt(summary["restore_amplification"])),
        ("tier outages", str(summary["tier_outages"])),
        ("record faults", str(summary["record_faults"])),
    ]
    cells = "".join(
        f'<tr><td class="name">{html.escape(k)}</td><td>{html.escape(v)}</td></tr>'
        for k, v in rows
    )
    return f"<table>{cells}</table>"


def _nodes_table(rollup: FleetRollup) -> str:
    nodes = rollup.nodes()
    if not nodes:
        return "<p>(no per-node data)</p>"
    head = (
        '<tr><th class="name">node</th><th>ranks</th><th>ckpts</th>'
        "<th>stored</th><th>dedup</th><th>max backlog (s)</th>"
        "<th>retries</th><th>crashes</th><th>lost work (s)</th></tr>"
    )
    body = "".join(
        f'<tr><td class="name">{html.escape(name)}</td>'
        f"<td>{int(n['ranks'])}</td><td>{int(n['checkpoints'])}</td>"
        f"<td>{format_bytes(int(n['stored_bytes']))}</td>"
        f"<td>{_fmt(n['dedup_ratio'])}x</td>"
        f"<td>{_fmt(n['max_backlog_seconds'])}</td>"
        f"<td>{int(n['retries'])}</td><td>{int(n['crashes'])}</td>"
        f"<td>{_fmt(n['lost_work_seconds'])}</td></tr>"
        for name, n in sorted(nodes.items())
    )
    return f"<table>{head}{body}</table>"


#: Byte-class fill colors for the attribution stacked bars.
_CLASS_COLOR = {
    "first": "#1565c0",
    "shift": "#6a1b9a",
    "fixed": "#9e9e9e",
    "zero": "#cfd8dc",
}


def _attribution_bar(row: Dict[str, Any], width: int = 420) -> str:
    """One record's per-class stacked bar as inline SVG."""
    classes = [
        (name, int(row.get(f"{name}_bytes", 0) or 0)) for name in _CLASS_COLOR
    ]
    total = sum(v for _, v in classes)
    if total <= 0:
        return "<p>(no attributed bytes)</p>"
    height = 18
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img" '
        f'aria-label="byte classes of record '
        f'{html.escape(str(row.get("record", "?")))}">'
    ]
    x0 = 0.0
    for name, value in classes:
        if value <= 0:
            continue
        w = value / total * width
        parts.append(
            f'<rect x="{x0:.1f}" y="0" width="{max(w, 1):.1f}" '
            f'height="{height}" fill="{_CLASS_COLOR[name]}">'
            f"<title>{html.escape(name)}: {format_bytes(value)} "
            f"({100 * value / total:.1f}%)</title></rect>"
        )
        x0 += w
    parts.append("</svg>")
    return "".join(parts)


def _attribution_html(rollup: FleetRollup) -> str:
    """Attribution section: one stacked bar + stats per attributed record."""
    rows = [
        e
        for e in rollup.events_of(ATTRIBUTION_SUMMARY)
        if e.get("scope") == "record"
    ]
    census = [
        e
        for e in rollup.events_of(ATTRIBUTION_SUMMARY)
        if e.get("scope") == "census"
    ]
    if not rows and not census:
        return "<p>(no attribution events in this run)</p>"
    latest: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        latest[str(row.get("record", "?"))] = row
    legend = " ".join(
        f'<span class="badge" style="background:{color}">{name}</span>'
        for name, color in _CLASS_COLOR.items()
    )
    head = (
        '<tr><th class="name">record</th><th>bytes by class</th>'
        "<th>ckpts</th><th>logical</th><th>stored</th><th>dedup</th>"
        "<th>cells</th><th>sharing</th><th>depth</th></tr>"
    )
    body = []
    for name, row in sorted(latest.items()):
        logical = int(row.get("logical_bytes", 0) or 0)
        stored = int(row.get("stored_bytes", 0) or 0)
        dedup = f"{logical / stored:.2f}x" if stored else "—"
        body.append(
            f'<tr><td class="name">{html.escape(name)}</td>'
            f"<td>{_attribution_bar(row)}</td>"
            f"<td>{int(row.get('num_checkpoints', 0) or 0)}</td>"
            f"<td>{format_bytes(logical)}</td>"
            f"<td>{format_bytes(stored)}</td>"
            f"<td>{html.escape(dedup)}</td>"
            f"<td>{int(row.get('unique_cells', 0) or 0)}</td>"
            f"<td>{_fmt(float(row.get('sharing_factor', 0) or 0))}x</td>"
            f"<td>{int(row.get('max_lineage_depth', 0) or 0)}</td></tr>"
        )
    table = f"<p>{legend}</p><table>{head}{''.join(body)}</table>" if body else ""
    pool = ""
    if census:
        c = census[-1]
        pool = (
            f"<p>cross-record census over {int(c.get('num_records', 0) or 0)} "
            f"record(s): shared-pool forecast "
            f"<strong>{_fmt(float(c.get('pool_forecast_ratio', 0) or 0))}x"
            f"</strong> vs best single record "
            f"{_fmt(float(c.get('best_intra_ratio', 0) or 0))}x "
            f"(per-record p50 {_fmt(float(c.get('record_pool_ratio_p50', 0) or 0))}x, "
            f"p99 {_fmt(float(c.get('record_pool_ratio_p99', 0) or 0))}x)</p>"
        )
    return table + pool


def _findings_html(health: HealthReport, max_evidence: int = 5) -> str:
    if not health.findings:
        return (
            '<p><span class="badge" style="background:#2e7d32">ok</span> '
            "No findings — every rule passed.</p>"
        )
    parts = []
    for finding in health.findings:
        color = _SEVERITY_COLOR.get(finding.severity, "#555")
        where = finding.node or "fleet"
        if finding.rank is not None:
            where += f" / rank {finding.rank}"
        evidence = ""
        if finding.evidence:
            import json as _json

            shown = finding.evidence[:max_evidence]
            dump = "\n".join(
                _json.dumps(e, sort_keys=True, default=str) for e in shown
            )
            more = len(finding.evidence) - len(shown)
            suffix = f"\n… {more} more event(s)" if more > 0 else ""
            evidence = (
                f"<details><summary>{len(finding.evidence)} evidence "
                f"event(s)</summary><pre>{html.escape(dump + suffix)}</pre>"
                f"</details>"
            )
        parts.append(
            f'<div class="finding" style="border-color:{color}">'
            f'<span class="badge" style="background:{color}">'
            f"{html.escape(finding.severity)}</span> "
            f"<strong>{html.escape(finding.rule)}</strong> "
            f"({html.escape(where)})<br>{html.escape(finding.message)}"
            f"{evidence}</div>"
        )
    return "".join(parts)


def render_report(
    rollup: FleetRollup,
    health: HealthReport,
    title: str = "Checkpoint fleet run report",
) -> str:
    """Render one run as a self-contained HTML document string."""
    status = health.status
    color = _SEVERITY_COLOR.get(status, "#555")
    by_node: Dict[str, List[Dict[str, Any]]] = {}
    for event in rollup.events:
        by_node.setdefault(str(event.get("node", "")), []).append(event)
    timelines = "".join(
        f"<h3>{html.escape(node)}</h3>{_node_timeline_svg(node, events)}"
        for node, events in sorted(by_node.items())
    )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head><body>
<h1>{html.escape(title)}
<span class="badge" style="background:{color}">{html.escape(status)}</span></h1>
<h2>Fleet summary</h2>
{_fleet_table(rollup)}
<h2>Per-node rollup</h2>
{_nodes_table(rollup)}
<h2>Chunk-lineage attribution</h2>
{_attribution_html(rollup)}
<h2>Health findings</h2>
{_findings_html(health)}
<h2>Timelines</h2>
{timelines if timelines else "<p>(no events)</p>"}
</body></html>
"""


def write_report(
    path: Union[str, Path],
    rollup: FleetRollup,
    health: HealthReport,
    title: str = "Checkpoint fleet run report",
) -> Path:
    """Render and write the HTML report; returns the output path."""
    out = Path(path)
    out.write_text(render_report(rollup, health, title=title))
    return out
