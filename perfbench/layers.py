"""Per-layer metrics of a traced run, from spans and pass outcomes.

Times are seconds per traced pass (summed over every process of the pass:
the pass itself, its pool workers and, for serve, the server). Counts are
per pass too. A metric that a workload never exercises reads 0.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List

import plan
from benchmath import Span, children_of, self_times

#: Roots the benchmark opens itself; their self time is what no layer
#: span covers (the unattributed share).
BENCH_ROOTS = ("grid", "rerun", "request", "pool.cell")

#: Spans that are the job layer's own work (for ``jobs.overhead_s``).
JOB_SPANS = (
    "jobs.submit",
    "cache.get",
    "cache.put",
    "journal.record",
    "journal.load",
    "results.to_dict",
    "results.from_dict",
)

SPEEDUP_DESIGNS = tuple(d for d in plan.PAPER_DESIGNS if d != "no-cache")
HIT_RATE_DESIGNS = ("sram-tag", "lh-cache", "alloy-map-i", "ideal-lo") + tuple(
    d if m == 1 else f"{d}.m{m}" for d, m in plan.ENVELOPE_DESIGNS
)

#: name -> unit, in print order.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.fetch_s": "s",
    "workloads.built": "count",
    "workloads.share_s": "s",
    "system.init_s": "s",
    "system.warm_s": "s",
    "system.interp_s": "s",
    "system.interp_events": "count",
    "batch.run_s": "s",
    "batch.events": "count",
    "batch.events_per_s": "1/s",
    "batch.cells": "count",
    "batch.declined": "count",
    "engine.batch_share": "ratio",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "pool.sim_s": "s",
    "pool.wait_s": "s",
    "pool.efficiency": "ratio",
    "jobs.submit_s": "s",
    "jobs.overhead_s": "s",
    "journal.record_s": "s",
    "journal.records": "count",
    "journal.load_s": "s",
    "results.to_dict_s": "s",
    "results.from_dict_s": "s",
    "serve.cells_served": "count",
    "serve.hit_ratio": "ratio",
    "serve.sim_s": "s",
    "serve.jobs_rejected": "count",
    "serve.rate_limited": "count",
    "serve.client_decode_s": "s",
    **{f"model.speedup_gmean.{d}": "ratio" for d in SPEEDUP_DESIGNS},
    **{f"model.read_hit_rate.{d}": "ratio" for d in HIT_RATE_DESIGNS},
    "model.heap_events": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
    "ops.fail_ratio": "ratio",
}


def load_spans(directory: Path) -> List[Span]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(Span(**json.loads(line)))
    return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_time_table(spans: List[Span]) -> Dict[str, float]:
    """Span name -> total self time (seconds, all passes)."""
    selfs = self_times(spans)
    table: Dict[str, float] = {}
    for span in spans:
        table[span.name] = table.get(span.name, 0.0) + selfs[span.id]
    return table


def model_metrics(cells: List[Dict]) -> Dict[str, float]:
    """Simulated-side figures of one pass's cold cells (exact, host-free)."""
    out: Dict[str, float] = {}
    by_label: Dict[str, Dict[str, Dict]] = {}
    for c in cells:
        benchmark = c["id"].split("/")[1]
        by_label.setdefault(plan.design_of_id(c["id"]), {})[benchmark] = c
    base = by_label.get("no-cache", {})
    for design in SPEEDUP_DESIGNS:
        rows = by_label.get(design, {})
        ratios = [
            base[b]["cycles"] / rows[b]["cycles"]
            for b in rows
            if b in base and rows[b]["cycles"] > 0
        ]
        out[f"model.speedup_gmean.{design}"] = (
            math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 0.0
        )
    for label in HIT_RATE_DESIGNS:
        rows = by_label.get(label, {})
        out[f"model.read_hit_rate.{label}"] = (
            statistics.fmean(c["read_hit_rate"] for c in rows.values()) if rows else 0.0
        )
    out["model.heap_events"] = float(sum(c["heap_events"] for c in cells))
    return out


def per_layer(
    spans: List[Span],
    passes: int,
    grid_outcomes: List[Dict],
    server_stats: List[Dict],
    overhead: float,
    fail_ratio: float,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS` for one traced run.

    ``server_stats``: the ``stats`` reply of each traced serve pass's
    server, averaged like every other per-pass figure.
    """
    selfs = self_times(spans)
    children = children_of(spans)
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0.0) + value

    for span in spans:
        add(span.name, span.duration)
        count[span.name] = count.get(span.name, 0) + 1

    def selected(name, pred):
        return [s for s in spans if s.name == name and pred(s)]

    interp_runs = selected("system.run", lambda s: s.info.get("engine") == "interp")
    batch_runs = selected("system.run", lambda s: s.info.get("engine") == "batch")
    batch_calls = selected("batch.run", lambda s: not s.info.get("declined"))
    gets = selected("cache.get", lambda s: True)
    hits = sum(1 for s in gets if s.info.get("hit"))

    def job_overhead(span: Span) -> float:
        own = selfs[span.id] if span.name in JOB_SPANS else 0.0
        return own + sum(job_overhead(c) for c in children.get(span.id, ()))

    overhead_s = sum(job_overhead(s) for s in spans if s.name == "jobs.submit")
    batch_s = sum(selfs[s.id] for s in batch_calls)
    batch_events = sum(s.info.get("events", 0) for s in batch_runs)
    roots = [s for s in spans if s.name in BENCH_ROOTS and s.parent is None]

    pool_sim = sum(c["wall_s"] for o in grid_outcomes for c in o["cells"])
    pool_capacity = sum(o["grid_s"] * o["workers"] for o in grid_outcomes)
    n = max(passes, 1)

    def stat(key: str) -> float:
        values = [float(s.get(key, 0)) for s in server_stats]
        return statistics.fmean(values) if values else 0.0

    sim_s = [
        _ratio(s.get("heap_events", 0), s.get("events_per_sec", 0.0))
        for s in server_stats
    ]
    metrics = {
        "workloads.fetch_s": total.get("workloads.fetch", 0.0) / n,
        "workloads.built": sum(
            1 for s in spans
            if s.name == "workloads.fetch" and s.info.get("source") == "built"
        ) / n,
        "workloads.share_s": total.get("workloads.share", 0.0) / n,
        "system.init_s": total.get("system.init", 0.0) / n,
        "system.warm_s": total.get("system.warm", 0.0) / n,
        "system.interp_s": sum(selfs[s.id] for s in interp_runs) / n,
        "system.interp_events": sum(s.info.get("events", 0) for s in interp_runs) / n,
        "batch.run_s": batch_s / n,
        "batch.events": batch_events / n,
        "batch.events_per_s": _ratio(batch_events, batch_s),
        "batch.cells": len(batch_runs) / n,
        "batch.declined": count.get("batch.run", 0) / n - len(batch_calls) / n,
        "engine.batch_share": _ratio(len(batch_runs), len(batch_runs) + len(interp_runs)),
        "cache.get_s": total.get("cache.get", 0.0) / n,
        "cache.put_s": total.get("cache.put", 0.0) / n,
        "cache.hits": hits / n,
        "cache.misses": (len(gets) - hits) / n,
        "cache.hit_ratio": _ratio(hits, len(gets)),
        "pool.sim_s": pool_sim / max(len(grid_outcomes), 1),
        "pool.wait_s": total.get("pool.wait", 0.0) / n,
        "pool.efficiency": _ratio(pool_sim, pool_capacity),
        "jobs.submit_s": total.get("jobs.submit", 0.0) / n,
        "jobs.overhead_s": overhead_s / n,
        "journal.record_s": total.get("journal.record", 0.0) / n,
        "journal.records": count.get("journal.record", 0) / n,
        "journal.load_s": total.get("journal.load", 0.0) / n,
        "results.to_dict_s": total.get("results.to_dict", 0.0) / n,
        "results.from_dict_s": total.get("results.from_dict", 0.0) / n,
        "serve.cells_served": stat("cells_served"),
        "serve.hit_ratio": stat("cache_hit_rate"),
        "serve.sim_s": statistics.fmean(sim_s) if sim_s else 0.0,
        "serve.jobs_rejected": stat("jobs_rejected"),
        "serve.rate_limited": stat("rate_limited"),
        "serve.client_decode_s": total.get("serve.decode", 0.0) / n,
        "trace.overhead": overhead,
        "trace.unattributed_share": _ratio(
            sum(selfs[s.id] for s in roots), sum(s.duration for s in roots)
        ),
        "trace.spans": len(spans) / n,
        "ops.fail_ratio": fail_ratio,
    }
    cells = grid_outcomes[0]["cells"] if grid_outcomes else []
    metrics.update(model_metrics(cells))
    return {name: metrics[name] for name in PER_LAYER_UNITS}
