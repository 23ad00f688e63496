"""Trace analysis: stitch JSONL shards by run_id, profile the span tree.

Feeds the ``ftds trace summarize|top|export`` commands.  Loading
validates every event against the versioned schema
(:mod:`repro.io.trace_codec`), groups events by ``run_id`` and — because
span ids are only unique per file — qualifies every span by its source
file before linking children to parents.  The result is one causal tree
per run spanning driver and worker processes, plus the merged metrics
picture (last registry snapshot per worker, counters summed across
workers).

The headline numbers ``summarize`` reports:

* **time by span tree** — per span name (aggregated over the tree),
  total seconds, *self* seconds (total minus direct children) and call
  counts, sorted by self time: a wall-clock profile of the run;
* **attribution** — the fraction of every root span's wall time covered
  by its named children, the "≥95% of wall time is attributed"
  acceptance bar of the telemetry layer;
* **queue overhead per shard/job** — worker-side ``job`` span self time
  (lease/decode/ack bookkeeping around the traced payload work);
* **cache / tier effectiveness** — evaluator cache hits vs exact
  pricings, injection per-tier scenario throughput and broker
  lease/ack/nack/dead-letter counts, straight from the merged registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import TraceError
from repro.io.trace_codec import (
    KIND_EVENT,
    KIND_META,
    KIND_METRICS,
    KIND_SPAN,
    expand_trace_paths,
    iter_trace_events,
)
from repro.obs.metrics import merge_snapshots


@dataclass
class SpanNode:
    """One completed span, linked into its per-worker tree."""

    name: str
    worker: str
    ts: float
    dur: float
    status: str
    attrs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_s(self) -> float:
        """Seconds not covered by direct children (cannot go negative)."""
        return max(0.0, self.dur - sum(child.dur for child in self.children))


@dataclass
class TraceRun:
    """Everything one run_id's stitched shards contain."""

    run_id: str
    files: list[str]
    workers: dict[str, dict[str, Any]]  # worker -> meta event
    roots: list[SpanNode]  # parentless spans, all workers, by start time
    spans: list[SpanNode]  # every span, by start time
    events: list[dict[str, Any]]
    metrics: dict[str, Any]  # merged registry snapshot across workers

    @property
    def wall_s(self) -> float:
        """Wall-clock of the run as seen by its longest root span."""
        return max((root.dur for root in self.roots), default=0.0)


def available_runs(paths: Iterable[str]) -> dict[str, list[str]]:
    """run_id -> files that carry events of it (after shard expansion)."""
    runs: dict[str, list[str]] = {}
    for path in expand_trace_paths(paths):
        for event in iter_trace_events(path):
            files = runs.setdefault(event["run"], [])
            if path not in files:
                files.append(path)
    return runs


def load_run(paths: Iterable[str], run_id: str | None = None) -> TraceRun:
    """Stitch every shard of one run into a :class:`TraceRun`.

    With ``run_id=None`` the files must contain exactly one run; multiple
    runs raise with the candidate ids so the caller can pick one.
    """
    files = expand_trace_paths(paths)
    runs = available_runs(files)
    if not runs:
        raise TraceError(f"no trace events in {', '.join(files)}")
    if run_id is None:
        if len(runs) > 1:
            raise TraceError(
                f"trace files contain {len(runs)} runs "
                f"({', '.join(sorted(runs))}); pass --run to pick one"
            )
        run_id = next(iter(runs))
    elif run_id not in runs:
        raise TraceError(
            f"run {run_id} not present; available: {', '.join(sorted(runs))}"
        )

    workers: dict[str, dict[str, Any]] = {}
    events: list[dict[str, Any]] = []
    snapshots_by_worker: dict[str, dict[str, Any]] = {}
    spans: list[SpanNode] = []
    links: list[tuple[SpanNode, tuple[str, int] | None]] = []
    by_key: dict[tuple[str, int], SpanNode] = {}

    for path in runs[run_id]:
        worker = path  # fallback until the file's meta line names it
        for event in iter_trace_events(path):
            if event["run"] != run_id:
                continue
            kind = event["kind"]
            if kind == KIND_META:
                worker = event["worker"]
                workers[worker] = event
            elif kind == KIND_SPAN:
                node = SpanNode(
                    name=event["name"],
                    worker=worker,
                    ts=event["ts"],
                    dur=event["dur"],
                    status=event["status"],
                    attrs=event.get("attrs", {}),
                    error=event.get("error"),
                )
                spans.append(node)
                by_key[(path, event["id"])] = node
                parent = event["parent"]
                links.append(
                    (node, (path, parent) if parent is not None else None)
                )
            elif kind == KIND_EVENT:
                events.append(event)
            elif kind == KIND_METRICS:
                # Snapshots are cumulative: the last one per worker wins.
                snapshots_by_worker[worker] = event["snapshot"]

    roots: list[SpanNode] = []
    for node, parent_key in links:
        parent = by_key.get(parent_key) if parent_key is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in spans:
        node.children.sort(key=lambda child: child.ts)
    spans.sort(key=lambda node: node.ts)
    roots.sort(key=lambda node: node.ts)

    return TraceRun(
        run_id=run_id,
        files=runs[run_id],
        workers=workers,
        roots=roots,
        spans=spans,
        events=events,
        metrics=merge_snapshots(snapshots_by_worker.values()),
    )


# -- profiling ----------------------------------------------------------------


def time_by_name(run: TraceRun) -> list[dict[str, Any]]:
    """Aggregate the span tree by name: count, total and self seconds."""
    rows: dict[str, dict[str, Any]] = {}
    for node in run.spans:
        row = rows.setdefault(
            node.name,
            {"name": node.name, "count": 0, "total_s": 0.0, "self_s": 0.0,
             "errors": 0},
        )
        row["count"] += 1
        row["total_s"] += node.dur
        row["self_s"] += node.self_s
        if node.status == "error":
            row["errors"] += 1
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def attribution(run: TraceRun) -> dict[str, Any]:
    """Fraction of root wall time attributed to named child spans.

    Anchored on the driver's ``cli.*`` root(s) when the trace has them —
    that is the run's wall clock; worker-side ``job`` roots overlap it
    and would double-count.  Traces without a CLI root (library use) fall
    back to all roots.
    """
    anchors = [root for root in run.roots if root.name.startswith("cli.")]
    if not anchors:
        anchors = run.roots
    total = 0.0
    attributed = 0.0
    for root in anchors:
        total += root.dur
        attributed += sum(child.dur for child in root.children)
    return {
        "roots": len(anchors),
        "wall_s": total,
        "attributed_s": attributed,
        "attributed_pct": 100.0 * attributed / total if total > 0 else 0.0,
    }


def queue_overhead(run: TraceRun) -> dict[str, Any]:
    """Worker-side queue bookkeeping around the traced payload work."""
    jobs = [node for node in run.spans if node.name == "job"]
    if not jobs:
        return {"jobs": 0, "total_s": 0.0, "overhead_s": 0.0,
                "overhead_per_job_s": 0.0}
    total = sum(node.dur for node in jobs)
    overhead = sum(node.self_s for node in jobs)
    return {
        "jobs": len(jobs),
        "total_s": total,
        "overhead_s": overhead,
        "overhead_per_job_s": overhead / len(jobs),
    }


def effectiveness(run: TraceRun) -> dict[str, Any]:
    """Cache/tier/broker effectiveness from the merged registry snapshot."""
    counters = run.metrics.get("counters", {})
    gauges = run.metrics.get("gauges", {})

    hits = counters.get("evaluator.cache_hits", 0.0)
    exact = counters.get("evaluator.exact_evaluations", 0.0)
    requests = hits + exact
    tiers = {}
    for name, value in counters.items():
        if name.startswith("inject.tier.") and name.endswith(".scenarios"):
            tier = name[len("inject.tier."):-len(".scenarios")]
            seconds = counters.get(f"inject.tier.{tier}.elapsed_s", 0.0)
            tiers[tier] = {
                "scenarios": value,
                "elapsed_s": seconds,
                "scenarios_per_sec": value / seconds if seconds > 0 else 0.0,
            }
    return {
        "evaluator": {
            "requests": requests,
            "cache_hits": hits,
            "cache_hit_rate": hits / requests if requests else 0.0,
            "exact": exact,
            "record_rebuilds": counters.get("evaluator.record_rebuilds", 0.0),
        },
        "broker": {
            "leases": counters.get("queue.leases", 0.0),
            "acks": counters.get("queue.acks", 0.0),
            "nacks": counters.get("queue.nacks", 0.0),
            "dead_letters": gauges.get("queue.depth.dead", 0.0),
        },
        "inject_tiers": tiers,
    }


def summarize(run: TraceRun) -> dict[str, Any]:
    """The full JSON-safe summary behind ``ftds trace summarize``."""
    return {
        "run": run.run_id,
        "files": run.files,
        "workers": sorted(run.workers),
        "spans": len(run.spans),
        "events": len(run.events),
        "wall_s": run.wall_s,
        "attribution": attribution(run),
        "by_name": time_by_name(run),
        "queue": queue_overhead(run),
        "effectiveness": effectiveness(run),
    }


# -- rendering ----------------------------------------------------------------


def _tree_lines(node: SpanNode, depth: int, limit: int,
                lines: list[str]) -> None:
    flag = "" if node.status == "ok" else f" !{node.error or 'error'}"
    lines.append(
        f"{'  ' * depth}{node.name:<{max(1, 28 - 2 * depth)}} "
        f"{node.dur:9.3f}s  self {node.self_s:8.3f}s{flag}"
    )
    if depth + 1 < limit:
        for child in node.children:
            _tree_lines(child, depth + 1, limit, lines)


def format_summary(run: TraceRun, depth: int = 4) -> str:
    """Human-readable summary (span tree + profile + effectiveness)."""
    summary = summarize(run)
    att = summary["attribution"]
    lines = [
        f"run {run.run_id}: {len(run.files)} shard file(s), "
        f"{len(run.workers)} worker(s), {summary['spans']} span(s)",
        f"wall {run.wall_s:.3f}s; {att['attributed_pct']:.1f}% of root time "
        f"attributed to named spans",
        "",
        "span tree (per worker root):",
    ]
    for root in run.roots:
        lines.append(f"-- {root.worker}")
        _tree_lines(root, 1, depth, lines)
    lines += ["", "time by span name (self-time profile):"]
    lines.append(
        f"  {'name':<24} {'count':>6} {'total_s':>10} {'self_s':>10}"
    )
    for row in summary["by_name"]:
        lines.append(
            f"  {row['name']:<24} {row['count']:>6} "
            f"{row['total_s']:>10.3f} {row['self_s']:>10.3f}"
            + (f"  ({row['errors']} error(s))" if row["errors"] else "")
        )
    queue = summary["queue"]
    if queue["jobs"]:
        lines += [
            "",
            f"queue: {queue['jobs']} job(s), "
            f"{queue['overhead_s']:.3f}s broker overhead "
            f"({queue['overhead_per_job_s'] * 1000.0:.1f}ms/job)",
        ]
    eff = summary["effectiveness"]
    evaluator = eff["evaluator"]
    if evaluator["requests"]:
        lines += [
            "",
            f"evaluator: {evaluator['requests']:.0f} requests, "
            f"{100.0 * evaluator['cache_hit_rate']:.1f}% cache hits, "
            f"{evaluator['exact']:.0f} exact pricings, "
            f"{evaluator['record_rebuilds']:.0f} rebuilds",
        ]
    for tier, data in sorted(eff["inject_tiers"].items()):
        lines.append(
            f"inject[{tier}]: {data['scenarios']:.0f} scenarios in "
            f"{data['elapsed_s']:.3f}s "
            f"({data['scenarios_per_sec']:.0f}/s)"
        )
    broker = eff["broker"]
    if broker["leases"] or broker["acks"]:
        lines.append(
            f"broker: {broker['leases']:.0f} leases, {broker['acks']:.0f} "
            f"acks, {broker['nacks']:.0f} nacks, "
            f"{broker['dead_letters']:.0f} dead-lettered"
        )
    return "\n".join(lines)


def format_top(run: TraceRun, limit: int = 10) -> str:
    """Top spans by self time, flamegraph-style one-liners."""
    rows = time_by_name(run)[:limit]
    wall = run.wall_s or 1.0
    lines = [f"top {len(rows)} span name(s) by self time (wall {run.wall_s:.3f}s):"]
    for row in rows:
        lines.append(
            f"  {row['self_s']:9.3f}s {100.0 * row['self_s'] / wall:5.1f}%  "
            f"{row['name']} (x{row['count']})"
        )
    return "\n".join(lines)
