"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload envelope-j2 --repeat 10

Runs from the root of a checkout and builds nothing. Each measured pass
runs in a fresh process (``passes.py``), so every pass pays what a user's
run pays: interpreter start, imports, cold result store, cold trace arena.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). ``--repeat N`` runs the workload N times on seeds
``seed .. seed+N-1`` and prints each end-to-end metric's median, quartiles
and (q3 - q1) / median next to its bound in ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import passes  # noqa: E402
import plan  # noqa: E402
from benchmath import (  # noqa: E402
    REFERENCE_SPEED,
    DigestCheck,
    FailureLog,
    host_speed,
    min_samples_for,
    spread,
    tail_percentile,
)

#: Upper bound on passes per run, whatever ``--seconds`` asks.
MAX_PASSES = 60
#: A run gives up after this many failed passes.
MAX_FAILED_PASSES = 3
#: Seconds after which no new pass starts and a running one is killed (its
#: ops fail), so a run ends well within three minutes.
RUN_BUDGET = 150.0

#: end-to-end metric -> unit, in print order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "rerun_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def host_facts() -> dict:
    # calibrate() runs in a child process: run.py never imports the
    # program, so nothing of it is alive while the host speed is sampled.
    calibration = subprocess.run(
        [sys.executable, "-c",
         "from repro.perf.bench import calibrate; print(calibrate())"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "calibration_ops_per_s": float(calibration),
    }


def run_pass(spec: dict, work: Path, index, timeout: float) -> dict:
    """Run one pass process; returns its outcome, or ``{"error": ...}``.

    The pass runs in its own session. Each time it stops itself
    (``passes.pause``), every other process of the session is stopped too,
    the host speed is sampled while nothing of the program runs, and all
    are resumed; the samples are the outcome's ``speeds``. A timeout kills
    the session. Returns only when every process of the session has ended.
    """
    spec = dict(spec, out=str(work / f"pass-{index}.json"),
                store=str(work / f"store-{index}"))
    Path(spec["store"]).mkdir(parents=True)
    spec_path = work / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec))
    err_path = work / f"pass-{index}.err"
    with open(err_path, "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passes.py"), str(spec_path), repr(launched)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=ROOT,
            env=dict(os.environ, REPRO_CACHE_DIR=spec["store"]),
            start_new_session=True,
        )
    expired = threading.Event()

    def expire():
        expired.set()
        _signal_group(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, expire)
    timer.start()
    speeds = []
    try:
        while True:
            _, status = os.waitpid(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            _signal_group(proc.pid, signal.SIGSTOP)
            speeds.append(host_speed())
            _signal_group(proc.pid, signal.SIGCONT)
    finally:
        timer.cancel()
        _reap_group(proc.pid)
    if expired.is_set():
        return {"error": ["timeout", f"pass {index} exceeded {timeout:.0f}s"]}
    if proc.returncode != 0:
        tail = err_path.read_text("utf-8", "replace").strip().splitlines()[-3:]
        return {"error": ["pass-crashed", " | ".join(tail)]}
    return dict(json.loads(Path(spec["out"]).read_text()), speeds=speeds)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever a pass left running in its session (nothing, when it
    stopped its own children as it should) and wait until it is gone."""
    _signal_group(pgid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    while _running_in_group(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def _running_in_group(pgid: int) -> bool:
    """Whether a process of group ``pgid`` has not yet exited. A child the
    pass left behind is reparented to init; once killed it stays a zombie
    until init reaps it, but it has ended."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The fields after the parenthesised name: state, ppid, pgrp.
            state, _, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def pass_spec(workload: str, seed: int, work: Path) -> dict:
    """What every pass of ``workload`` gets."""
    spans_dir = work / "spans"
    spans_dir.mkdir()
    base = {"workload": workload, "seed": seed, "spans_dir": str(spans_dir)}
    if workload == "serve-mixed":
        # One store for the run: after the first pass, priming the
        # catalogue reads it back instead of simulating it again.
        return dict(base, catalogue=plan.serve_catalogue(seed),
                    requests=passes.SERVE_REQUESTS,
                    server_store=str(work / "server-store"))
    cells = (
        plan.paper_grid_cells(seed)
        if workload == "paper-grid"
        else plan.envelope_cells(seed)
    )
    workers = plan.ENVELOPE_WORKERS if workload == "envelope-j2" else 1
    return dict(base, cells=cells, workers=workers)


def latency_ms(outcome) -> list:
    """Per-op latencies of a pass as measured: cold cells' service times
    (grids) or requests' submit-to-``done`` times (serve)."""
    if "latency_ms" in outcome:
        return outcome["latency_ms"]
    return [c["service_s"] * 1e3 for c in outcome["cells"]]


def run_passes(workload, seed, seconds, trace, work, failures, check, started) -> dict:
    """Run passes until ``seconds`` have passed and the p95 has its
    samples; every outcome is checked as it arrives.

    The host speed is sampled before the first pass, at each pause of a
    pass and after each pass, once it and all its children have ended: a
    pass's ``speeds`` are the samples before, within and after it.
    """
    base = pass_spec(workload, seed, work)
    serve = workload == "serve-mixed"
    ops = base["requests"] if serve else len(base["cells"]) * (1 + passes.RERUNS)
    min_samples = min_samples_for(0.95)
    plain, traced = [], []
    index = 0

    def more() -> bool:
        elapsed = time.perf_counter() - started
        if index >= MAX_PASSES or elapsed >= RUN_BUDGET:
            return False
        if index - len(plain) - len(traced) >= MAX_FAILED_PASSES:
            return False
        if trace:
            return elapsed < seconds or min(len(plain), len(traced)) < 2
        samples = sum(len(latency_ms(o)) for o in plain)
        return elapsed < seconds or samples < min_samples

    speed = host_speed()
    while more():
        # Traced runs alternate traced and untraced passes, so the two
        # see the same host conditions; their difference is the overhead.
        tracing = bool(trace) and index % 2 == 1
        before = speed
        spec = dict(base, trace=tracing)
        if serve:
            spec["first_request"] = index * ops
        outcome = run_pass(spec, work, index,
                           RUN_BUDGET - (time.perf_counter() - started))
        index += 1
        speed = host_speed()
        if "error" in outcome:
            failures.attempt(ops)
            failures.fail(*outcome["error"], count=ops)
            continue
        outcome["speeds"] = [before, *outcome["speeds"], speed]
        if serve:
            check_replies(outcome, failures, check)
        else:
            failures.attempt(ops)
            for c in outcome["cells"]:
                if not check.observe(c["id"], c["digest"]):
                    failures.fail("digest", c["id"])
            missing = ops - len(outcome["cells"]) - len(outcome["served"])
            if missing:
                failures.fail("missing-cells", f"pass {index - 1}", count=missing)
        for cid, digest in outcome["served"]:
            # Grid re-serves are ops; serve's priming and re-serve are not,
            # but a mismatch there still makes the run incorrect.
            if not check.observe(cid, digest) and not serve:
                failures.fail("digest", cid)
        (traced if tracing else plain).append(outcome)
    return {"plain": plain, "traced": traced}


def check_replies(outcome, failures, check) -> None:
    """Count every request, fail those refused or answered wrongly."""
    failures.attempt(len(latency_ms(outcome)) + len(outcome["failures"]))
    for code, message in outcome["failures"]:
        failures.fail(code, message)
    for request_id, asked, replies in outcome["replies"]:
        bad = [cid for cid, digest in replies if not check.observe(cid, digest)]
        if bad:
            failures.fail("digest", f"request {request_id}: {bad[0]}")
        elif len(replies) != asked:
            failures.fail("short-reply", f"request {request_id}: "
                          f"{len(replies)} of {asked} cells")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def factor(outcome, scaled: bool) -> float:
    """Multiplier taking a duration measured in a pass to
    :data:`REFERENCE_SPEED` (1 when not ``scaled``): the median of the
    host-speed samples before, within and after the pass over the
    reference. A pass lasts a few seconds; the median of its five or six
    samples reads steadier than the two samples next to each phase."""
    if not scaled:
        return 1.0
    return statistics.median(outcome["speeds"]) / REFERENCE_SPEED


def shared_metrics(plain, scaled: bool) -> dict:
    """The metrics grids and serve compute alike.

    Latency percentiles are taken over every pass's latencies as measured
    and scaled by the run's median pass factor: scaling each pass's
    latencies first would widen the tail with the factors' own noise.
    ``rerun_s`` is a mean over passes, not a median: a pass's re-serve
    time is bimodal on a 2-CPU host (it depends on the CPU the pass runs
    on), and a median flips between the two modes.
    """
    latency = [ms for o in plain for ms in latency_ms(o)]
    run_factor = statistics.median(factor(o, scaled) for o in plain)
    return {
        "setup_s": statistics.median(o["setup_s"] * factor(o, scaled) for o in plain),
        "rerun_s": statistics.fmean(o["rerun_s"] * factor(o, scaled) for o in plain),
        "req_p50_ms": statistics.median(latency) * run_factor,
        "req_p95_ms": tail_percentile(latency, 0.95) * run_factor,
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in plain),
    }


def grid_metrics(plain, scaled: bool) -> dict:
    """End-to-end metrics over untraced grid passes."""
    if not plain:
        return {}

    def rate(o, work):
        return work / (o["grid_s"] * factor(o, scaled))

    return dict(
        shared_metrics(plain, scaled),
        sim_minstr_per_s=statistics.median(
            rate(o, sum(c["instructions"] for c in o["cells"])) / 1e6 for o in plain
        ),
        req_per_s=statistics.median(rate(o, len(o["cells"])) for o in plain),
    )


def serve_metrics(plain, scaled: bool) -> dict:
    """End-to-end metrics over untraced serve passes; rates pool the
    passes, since each pass draws a different handful of never-seen
    cells."""
    if not plain:
        return {}
    traffic_s = sum(o["traffic_s"] * factor(o, scaled) for o in plain)
    simulated_s = sum(o["simulated"]["seconds"] * factor(o, scaled) for o in plain)
    return dict(
        shared_metrics(plain, scaled),
        sim_minstr_per_s=sum(o["simulated"]["instructions"] for o in plain)
        / simulated_s / 1e6,
        req_per_s=sum(len(latency_ms(o)) for o in plain) / traffic_s,
    )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def recheck(check: DigestCheck, work: Path, failures: FailureLog) -> list:
    """Re-simulate one unreferenced cell per design under the interpreter
    (outside every timed region, in a pass of its own) and compare."""
    wanted = check.unreferenced(plan.design_of_id)
    if not wanted:
        return []
    outcome = run_pass({"workload": "reference", "cells": _cells_by_id(wanted)},
                       work, "reference", RUN_BUDGET)
    if "error" in outcome:
        failures.fail(*outcome["error"], count=len(wanted))
        return wanted
    for cid in wanted:
        if not check.confirm(cid, outcome["digests"][cid]):
            failures.fail("digest", f"{cid} differs from engine=interp")
    return wanted


def _cells_by_id(ids):
    out = []
    for cid in ids:
        design, benchmark, seed, reads, warmup, mshrs = cid.split("/")
        out.append(
            plan.cell(design, benchmark, int(seed[1:]), int(reads[1:]), int(mshrs[1:]))
            | {"warmup": float(warmup[1:])}
        )
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the result object plus report details."""
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{workload}-{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        facts = host_facts()
        expected = json.loads((HERE / "expected_digests.json").read_text())
        check = DigestCheck(expected=expected["digests"])
        failures = FailureLog()
        outcome = run_passes(workload, seed, seconds, trace, work, failures, check,
                             started)
        metrics = functools.partial(
            serve_metrics if workload == "serve-mixed" else grid_metrics,
            outcome["plain"],
        )
        rechecked = recheck(check, work, failures)
        layer = None
        if trace:
            layer = traced_metrics(workload, outcome, work / "spans", failures)
        return {
            "facts": facts,
            "raw": {} if trace else metrics(scaled=False),
            "metrics": {} if trace else metrics(scaled=True),
            "layer": layer,
            "failures": failures,
            "check": check,
            "rechecked": rechecked,
            "outcome": outcome,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def traced_metrics(workload, outcome, spans_dir, failures):
    import layers

    traced, plain = outcome["traced"], outcome["plain"]
    if not traced or not plain:
        return None
    spans = layers.load_spans(spans_dir)
    if workload == "serve-mixed":
        rates = [serve_metrics(o, scaled=True)["req_per_s"] for o in (plain, traced)]
        overhead = rates[0] / rates[1] - 1.0
        metrics = layers.per_layer(spans, len(traced), [],
                                   [o["server_stats"] for o in traced],
                                   overhead, failures.fail_ratio)
    else:
        busy = [
            statistics.median(o["grid_s"] * factor(o, True) for o in group)
            for group in (traced, plain)
        ]
        overhead = busy[0] / busy[1] - 1.0
        metrics = layers.per_layer(spans, len(traced), traced, [], overhead,
                                   failures.fail_ratio)
    return metrics, layers.self_time_table(spans), len(traced)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def report(workload: str, seed: int, run: dict, trace: int) -> dict:
    facts, failures, check = run["facts"], run["failures"], run["check"]
    print(f"# perfbench {workload} seed={seed} python={facts['python']} "
          f"nproc={facts['nproc']} load={facts['loadavg_1m']:.2f} "
          f"calibration={facts['calibration_ops_per_s']:,.0f} ops/s")
    plain, traced = run["outcome"]["plain"], run["outcome"]["traced"]
    n = sum(len(latency_ms(o)) for o in plain)
    speeds = [x for o in plain + traced for x in o["speeds"]] or [0.0]
    engines = collections.Counter()
    for o in plain + traced:
        engines.update(o["engines"])
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; {n} latency "
          f"samples ({'requests' if workload == 'serve-mixed' else 'cold cells'}), "
          f"p95 has {n - math.ceil(0.95 * n)} beyond it; host speed "
          f"{min(speeds):,.0f}..{max(speeds):,.0f} ops/s")
    print(f"# engines of simulated cells: {dict(sorted(engines.items()))}")
    print(f"# digests: {check.checked} results checked, {len(check.mismatches)} "
          f"mismatches, re-simulated under engine=interp: {run['rechecked'] or 'none'}")
    print(f"# ops: {failures.attempted} attempted, {failures.failed} failed, "
          f"fail_ratio {failures.fail_ratio:.6f} {failures.by_code() or ''}")
    for code, message in failures.failures[:10]:
        print(f"#   failed [{code}] {message}")
    metrics = {}
    if trace:
        if run["layer"] is not None:
            values, table, passes_traced = run["layer"]
            import layers

            for name, unit in layers.PER_LAYER_UNITS.items():
                metrics[name] = {"value": values[name], "unit": unit}
            wall = sum(table.values()) or 1.0
            print(f"# self time by span (per traced pass, {passes_traced} passes):")
            for name, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"#   {name:<20} {seconds / passes_traced:10.4f} s "
                      f"{seconds / wall:7.1%}")
    else:
        print(f"# as measured, before scaling to the reference host speed "
              f"{REFERENCE_SPEED:,.0f} ops/s:")
        for name, unit in END_TO_END_UNITS.items():
            if name in run["raw"]:
                print(f"#   {name} {run['raw'][name]:.6g} {unit}")
            if name in run["metrics"]:
                metrics[name] = {"value": run["metrics"][name], "unit": unit}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not check.mismatches and check.checked > 0,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": metrics,
    }


def steadiness(workload: str, seed: int, seconds: float, repeat: int) -> int:
    """Run ``repeat`` seeds and print each metric's spread next to its bound."""
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    values = {name: [] for name in END_TO_END_UNITS}
    raw = {name: [] for name in END_TO_END_UNITS}
    for i in range(repeat):
        run = run_workload(workload, seed + i, seconds, 0)
        result = report(workload, seed + i, run, 0)
        print(json.dumps(result))
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
            raw[name].append(run["raw"][name])
    print(f"# steadiness {workload}: {repeat} seeds from {seed}")
    print(f"# {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'steady':>6} {'as measured':>11}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3, rel = spread(vals)
        bound = bounds.get(name, float("nan"))
        print(f"# {name:<18} {median:11.5g} {q1:11.5g} {q3:11.5g} {rel:7.3f} "
              f"{bound:6.3f} {'yes' if rel < bound / 3 else 'NO':>6} "
              f"{spread(raw[name])[3]:11.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run N seeds, print spreads")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.repeat:
        return steadiness(args.workload, args.seed, args.seconds, args.repeat)
    run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = report(args.workload, args.seed, run, args.trace)
    expected = END_TO_END_UNITS if not args.trace else None
    if expected is not None and set(result["metrics"]) != set(expected):
        print("perfbench: no complete measurement; see the failures above",
              file=sys.stderr)
        return 1
    if args.trace and not result["metrics"]:
        print("perfbench: traced run produced no spans", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
