"""Tests for the benchmark's own arithmetic (no simulation runs).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
from benchmath import (  # noqa: E402
    DigestCheck,
    FailureLog,
    Span,
    covered,
    min_samples_for,
    result_digest,
    self_times,
    spread,
    tail_percentile,
)


# -- percentile rule ----------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert min_samples_for(0.95) == 200
    samples = list(range(1, 201))
    assert tail_percentile(samples, 0.95) == 190
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(samples[:199], 0.95)


def test_p50_of_small_sample_is_accepted_p99_is_not():
    assert tail_percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        tail_percentile(list(range(500)), 0.99)


def test_spread_is_iqr_over_median():
    q1, median, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert rel == pytest.approx((q3 - q1) / 3.0)


# -- span self time -----------------------------------------------------
def test_self_time_nested_children():
    spans = [
        Span("a", "root", 0.0, 10.0),
        Span("b", "child", 1.0, 4.0, parent="a"),
        Span("c", "grandchild", 2.0, 3.0, parent="b"),
    ]
    selfs = self_times(spans)
    assert selfs == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert sum(selfs.values()) == spans[0].duration


def test_self_time_overlapping_children_count_once():
    spans = [
        Span("p", "root", 0.0, 10.0),
        Span("t1", "thread", 1.0, 5.0, parent="p"),
        Span("t2", "thread", 3.0, 8.0, parent="p"),
        Span("t3", "late", 9.0, 12.0, parent="p"),
    ]
    # Union of children inside [0, 10] is [1, 8] + [9, 10] = 8.
    assert self_times(spans)["p"] == pytest.approx(2.0)


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([], 0, 10) == 0


# -- failure accounting ---------------------------------------------------
def test_fail_ratio_counts_every_failed_op():
    log = FailureLog()
    log.attempt(300)
    log.fail("queue-full", "9 jobs waiting")
    log.fail("ConnectionResetError", "peer reset", count=2)
    assert log.failed == 3
    assert log.fail_ratio == pytest.approx(3 / 300)
    assert log.by_code() == {"queue-full": 1, "ConnectionResetError": 2}


def test_replies_refused_short_or_wrong_all_fail():
    good = result_digest({"cycles": 1.0})
    check = DigestCheck(expected={"x": good})
    log = FailureLog()
    outcome = {
        "latency_ms": [1.0, 2.0, 3.0],
        "failures": [["rate-limited", "slow down"]],
        "replies": [
            [1, 1, [["x", good]]],
            [2, 1, [["x", result_digest({"cycles": 2.0})]]],
            [3, 2, [["x", good]]],
        ],
    }
    run.check_replies(outcome, log, check)
    assert log.attempted == 4
    assert sorted(log.by_code()) == ["digest", "rate-limited", "short-reply"]
    assert log.failed == 3


# -- digest check ---------------------------------------------------------
RESULT = {
    "workload": "mcf_r",
    "design": "alloy-map-i",
    "cycles": 123456.5,
    "per_core_cycles": [1.0, 2.5],
    "stage_latency_p95": {"memory": math.inf},
    "heap_events": 42,
}


def test_digest_survives_the_wire():
    wire = json.loads(json.dumps(RESULT))
    assert result_digest(wire) == result_digest(RESULT)


def test_digest_check_fails_on_perturbed_result():
    check = DigestCheck(expected={"c": result_digest(RESULT)})
    assert check.observe("c", result_digest(RESULT))
    perturbed = dict(RESULT, cycles=math.nextafter(RESULT["cycles"], math.inf))
    assert not check.observe("c", result_digest(perturbed))
    assert check.mismatches == [("c", result_digest(perturbed))]


def test_unreferenced_cells_must_agree_and_match_interp():
    check = DigestCheck(expected={})
    ids = ["alloy/mcf", "alloy/gcc", "lh/mcf"]
    for cid in ids:
        assert check.observe(cid, result_digest(RESULT))
    assert not check.observe("lh/mcf", result_digest(dict(RESULT, heap_events=43)))
    wanted = check.unreferenced(lambda cid: cid.split("/")[0])
    assert wanted == ["alloy/gcc", "lh/mcf"]
    assert check.confirm("alloy/gcc", result_digest(RESULT))
    assert not check.confirm("lh/mcf", "0" * 64)


# -- plan and committed reference ----------------------------------------
def test_serve_requests_follow_the_seed():
    first = list(itertools.islice(plan.serve_requests(5), 300))
    again = list(itertools.islice(plan.serve_requests(5), 300))
    other = list(itertools.islice(plan.serve_requests(6), 300))
    assert first == again != other
    fresh = [c for req in first for c in req if c["seed"] > 6]
    assert len(fresh) == len(first) // plan.SERVE_FRESH_EVERY
    assert len({plan.cell_id(c) for c in fresh}) == len(fresh)
    assert all(1 <= len(req) <= 5 for req in first)


def test_committed_digests_cover_the_default_seed():
    payload = json.loads((Path(plan.__file__).parent / "expected_digests.json").read_text())
    assert payload["engine"] == "interp"
    seed = plan.DEFAULT_SEED
    cells = (
        plan.paper_grid_cells(seed)
        + plan.envelope_cells(seed)
        + plan.serve_catalogue(seed)
        + [plan.fresh_cell(seed, 0)]
    )
    assert {plan.cell_id(c) for c in cells} <= set(payload["digests"])


def test_cell_ids_round_trip():
    c = plan.cell("lh-cache", "mix3", 7, 1000, mshrs=4)
    assert run._cells_by_id([plan.cell_id(c)]) == [c]
    assert plan.design_of_id(plan.cell_id(c)) == "lh-cache.m4"


def test_job_overhead_excludes_in_cell_time():
    spans = [
        Span("1", "jobs.submit", 0.0, 10.0),
        Span("2", "cache.get", 0.0, 1.0, parent="1"),
        Span("3", "system.run", 1.0, 9.0, parent="1", info={"engine": "batch", "events": 5}),
        Span("4", "batch.run", 1.5, 8.5, parent="3"),
        Span("5", "cache.put", 9.0, 9.5, parent="1"),
    ]
    metrics = layers.per_layer(spans, 1, [], [], 0.0, 0.0)
    assert metrics["jobs.overhead_s"] == pytest.approx(2.0)
    assert metrics["batch.run_s"] == pytest.approx(7.0)
    assert metrics["batch.events_per_s"] == pytest.approx(5 / 7.0)
    assert metrics["engine.batch_share"] == 1.0
    assert set(metrics) == set(layers.PER_LAYER_UNITS)


def test_times_scale_to_the_reference_host_speed():
    from benchmath import REFERENCE_SPEED

    cells = [{"service_s": 0.05, "instructions": 1_000_000}] * 200
    fast = {"speeds": [2 * REFERENCE_SPEED] * 5, "setup_s": 0.25, "grid_s": 10.0,
            "rerun_s": 0.01, "peak_rss_mb": 60.0, "cells": cells}
    raw = run.grid_metrics([fast], scaled=False)
    scaled = run.grid_metrics([fast], scaled=True)
    assert scaled["setup_s"] == pytest.approx(2 * raw["setup_s"])
    assert scaled["req_p95_ms"] == pytest.approx(2 * raw["req_p95_ms"])
    assert scaled["sim_minstr_per_s"] == pytest.approx(raw["sim_minstr_per_s"] / 2)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 60.0


def test_a_pass_scales_by_the_median_of_its_samples():
    from benchmath import REFERENCE_SPEED

    outcome = {"speeds": [x * REFERENCE_SPEED for x in (1.0, 9.0, 2.0, 3.0, 2.5)]}
    assert run.factor(outcome, True) == pytest.approx(2.5)
    assert run.factor(outcome, False) == 1.0


def test_serve_rates_pool_the_passes():
    from benchmath import REFERENCE_SPEED

    def serve_pass(speed, traffic_s):
        return {"speeds": [speed] * 6, "setup_s": 0.3, "rerun_s": 0.2,
                "peak_rss_mb": 120.0, "traffic_s": traffic_s,
                "latency_ms": [5.0] * 150,
                "simulated": {"instructions": 3_000_000, "seconds": traffic_s / 2}}

    passes = [serve_pass(REFERENCE_SPEED, 2.0), serve_pass(REFERENCE_SPEED / 2, 4.0)]
    metrics = run.serve_metrics(passes, scaled=True)
    # Both passes took 2 s at the reference speed, half of it simulating.
    assert metrics["req_per_s"] == pytest.approx(300 / 4.0)
    assert metrics["sim_minstr_per_s"] == pytest.approx(6.0 / 2.0)
    # Percentiles scale by the median pass factor, (1 + 0.5) / 2.
    assert metrics["req_p50_ms"] == pytest.approx(5.0 * 0.75)
    assert metrics["req_p95_ms"] == pytest.approx(5.0 * 0.75)
    # Set-up is a median over passes, re-serves a mean.
    assert metrics["setup_s"] == pytest.approx(0.3 * 0.75)
    assert metrics["rerun_s"] == pytest.approx(0.2 * 0.75)


def test_benchmark_digests_are_not_traced_as_program_work(tmp_path):
    import passes
    import tracing
    from repro.sim.results import SimResult

    recorder = tracing.Recorder(tmp_path / "spans.jsonl")
    original = tracing._wrap(SimResult, "to_dict", "results.to_dict", recorder)
    try:
        result = SimResult.from_dict(RESULT)
        digest = passes.digest_of(result)
        assert recorder.spans == []
        assert digest == result_digest(original(result))
        result.to_dict()
        assert [span[1] for span in recorder.spans] == ["results.to_dict"]
    finally:
        SimResult.to_dict = original


def test_measured_cells_pin_the_engine(monkeypatch):
    import passes

    monkeypatch.setenv("REPRO_ENGINE", "interp")
    cell = passes._sweep_cell(plan.cell("alloy-map-i", "mcf_r", 1, 100))
    assert cell.config.engine == "auto"


def test_benchmark_json_matches_what_the_benchmark_prints():
    import re

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.fullmatch(metric["name"]) and unit.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
