"""One measured pass, run in a fresh process by ``run.py``.

    python3 perfbench/passes.py SPEC.json LAUNCH_TIME

``SPEC.json`` names the workload, its cells, a private store directory,
whether to trace, and where to write the outcome. ``LAUNCH_TIME`` is the
parent's ``time.perf_counter()`` just before it started this process (the
same monotonic clock on Linux), so set-up time counts interpreter start
and imports.

A grid pass (``paper-grid``, ``envelope-j2``) runs its cells once on a
cold store and then re-serves them several times. A serve pass launches
``repro serve``, primes it with the catalogue, drives a fixed number of
requests from two closed-loop clients, re-serves the catalogue once and
drains the server. A ``reference`` pass re-simulates cells under the
interpreter for the output check.

A pass times its own phases but never samples the host speed. After
each timed phase it calls :func:`pause`; ``run.py`` then stops every
process of the pass, samples the host speed while none of them runs, and
resumes them. Run by hand, outside ``run.py``, a pass would stay stopped
at its first pause.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import plan  # noqa: E402
from benchmath import result_digest  # noqa: E402

#: Re-serves of the finished work per grid pass (the median is reported).
RERUNS = 10
#: Requests per serve pass: a fixed count, so the server's memory at the
#: end of a pass does not depend on how fast it served them.
SERVE_REQUESTS = 300
#: Re-serves of the catalogue per serve pass (the median is reported).
SERVE_RERUNS = 3
#: Seconds to wait for a server to report its port or drain.
SERVE_TIMEOUT = 60.0


def pause() -> None:
    """Stop this process until ``run.py`` has sampled the host speed."""
    os.kill(os.getpid(), signal.SIGSTOP)


def peak_rss_mb(children=()) -> float:
    """Peak RSS of this process plus each live child's, read from
    ``VmHWM`` just before the children are stopped. Pages a forked child
    shares with its parent count in both."""
    total_kb = 0
    for pid in ("self", *children):
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def digest_of(result) -> str:
    """Digest of a ``SimResult``, through the unwrapped ``to_dict``: in a
    traced pass the benchmark's own digests must not count as program
    work."""
    from repro.sim.results import SimResult

    return result_digest(inspect.unwrap(SimResult.to_dict)(result))


def _sweep_cell(c):
    from repro.sim.config import SystemConfig
    from repro.sim.parallel import SweepCell

    # engine pinned, so a REPRO_ENGINE in the environment cannot swap the
    # engine being measured.
    return SweepCell(
        design=c["design"],
        benchmark=c["benchmark"],
        config=SystemConfig(mshrs_per_core=c["mshrs"], engine="auto"),
        reads_per_core=c["reads"],
        warmup_fraction=c["warmup"],
        seed=c["seed"],
    )


def _outcome(cell_spec, cell_result):
    result = cell_result.result
    return {
        "id": plan.cell_id(cell_spec),
        "digest": digest_of(result),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "read_hit_rate": result.read_hit_rate,
        "heap_events": result.heap_events,
        "service_s": cell_result.wall_seconds + cell_result.trace_build_seconds,
        "wall_s": cell_result.wall_seconds,
    }


def grid_pass(spec, launched: float, recorder) -> dict:
    import repro.jobs as jobs
    from repro.sim import parallel

    store = Path(spec["store"])
    os.environ["REPRO_CACHE_DIR"] = str(store)
    specs = spec["cells"]
    cells = [_sweep_cell(c) for c in specs]
    workers = spec["workers"]
    journaled = spec["workload"] == "paper-grid"

    def make_job():
        if journaled:
            return jobs.create_job(spec["workload"], cells, cache_dir=store)
        return jobs.ephemeral_job(cells)

    job = make_job()
    if workers > 1:
        pool = parallel._get_pool(workers)
        for future in [pool.submit(os.getpid) for _ in range(workers)]:
            future.result()
    ready = time.perf_counter()
    pause()

    def phase(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    started = time.perf_counter()
    with phase("grid"):
        report = jobs.submit_job(
            job, max_workers=workers, cache=parallel.ResultCache(store)
        )
    grid_s = time.perf_counter() - started
    pause()
    reruns = []
    rerun_s = []
    for _ in range(RERUNS):
        started = time.perf_counter()
        with phase("rerun"):
            rerun = jobs.submit_job(
                make_job(), max_workers=workers, cache=parallel.ResultCache(store)
            )
        rerun_s.append(time.perf_counter() - started)
        reruns.append(rerun)
    pause()
    rss = peak_rss_mb(p.pid for p in multiprocessing.active_children())
    parallel.shutdown_worker_pool()

    by_key = {c.key(): s for c, s in zip(cells, specs)}
    cold = [_outcome(by_key[cr.cell.key()], cr) for cr in report.cells]
    served = [
        [plan.cell_id(by_key[cr.cell.key()]), digest_of(cr.result)]
        for rerun in reruns
        for cr in rerun.cells
    ]
    return {
        "setup_s": ready - launched,
        "grid_s": grid_s,
        "rerun_s": statistics.median(rerun_s),
        "cells": cold,
        "served": served,
        "engines": Counter(cr.engine_used for cr in report.cells),
        "workers": workers,
        "peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve -j1`` subprocess with explicit admission flags."""

    def __init__(self, spec, spans_path=None) -> None:
        work = Path(spec["store"])
        store = Path(spec["server_store"])
        self.port_file = work / "port"
        args = [
            "serve", "-j", "1", "--port", "0",
            "--port-file", str(self.port_file),
            "--rate", "0",
            "--job-slots", str(plan.SERVE_CLIENTS),
            "--max-queue", str(plan.SERVE_CLIENTS),
            "--max-client-jobs", str(plan.SERVE_CLIENTS),
            "--cache-dir", str(store),
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   str(spans_path), *args]
        # The trace arena follows REPRO_CACHE_DIR, not --cache-dir: point
        # both at the server's store so nothing outlives the run.
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(store))
        self.log = open(work / "server.log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env
        )

    def port(self) -> int:
        deadline = time.monotonic() + SERVE_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                text = self.port_file.read_text()
            except OSError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise TimeoutError("server did not report its port")

    def stop(self) -> None:
        """Drain with SIGTERM and wait; kill only if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVE_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _connect(port):
    from repro.serve.client import ServeClient

    client = ServeClient(port=port, timeout=SERVE_TIMEOUT)
    client.hello()
    return client


def _spec_of(cell_dict):
    return plan.cell(
        cell_dict["design"],
        cell_dict["benchmark"],
        cell_dict["seed"],
        cell_dict["reads_per_core"],
        cell_dict["config"]["mshrs_per_core"],
    ) | {"warmup": cell_dict["warmup_fraction"]}


def _served(report):
    return [
        [plan.cell_id(_spec_of(d["cell"])), result_digest(d["result"])]
        for d in report["streamed_cells"]
    ]


def _traffic(pending, port, clients, recorder, out) -> None:
    """Two closed-loop clients; each sends its next request only after the
    previous one's ``done`` (or error), until ``pending`` (request id,
    cells) runs out. Fills ``out`` with the seconds this took, the request
    latencies and the work the server simulated."""
    from repro.serve.client import ServeError

    lock = threading.Lock()
    latency_ms = out["latency_ms"] = []
    # Cells the server had to simulate: their instructions and the
    # server-reported seconds of trace build plus simulation.
    simulated = out["simulated"] = {"instructions": 0, "seconds": 0.0}

    def next_request():
        with lock:
            return next(pending, None)

    def client_loop(slot):
        client = clients[slot]
        while True:
            item = next_request()
            if item is None:
                return
            request_id, cells = item
            sweep_cells = [_sweep_cell(c) for c in cells]
            started = time.perf_counter()
            try:
                if recorder is not None:
                    with recorder.span("request", str(request_id)):
                        report = client.submit(sweep_cells)
                else:
                    report = client.submit(sweep_cells)
            except ServeError as exc:
                with lock:
                    out["failures"].append([exc.code, str(exc)])
                continue
            except (OSError, ValueError) as exc:
                with lock:
                    out["failures"].append([type(exc).__name__, str(exc)])
                try:
                    client.close()
                    clients[slot] = client = _connect(port)
                except OSError as again:
                    with lock:
                        out["failures"].append(["reconnect", str(again)])
                    return
                continue
            elapsed = time.perf_counter() - started
            streamed = report["streamed_cells"]
            fresh = [data for data in streamed if not data["from_cache"]]
            with lock:
                latency_ms.append(elapsed * 1e3)
                out["replies"].append([request_id, len(cells), _served(report)])
                out["engines"].update(data["engine_used"] for data in fresh)
                simulated["instructions"] += sum(
                    data["result"]["instructions"] for data in fresh
                )
                simulated["seconds"] += sum(
                    data["wall_seconds"] + data["trace_build_seconds"]
                    for data in fresh
                )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, args=(slot,))
        for slot in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out["traffic_s"] = time.perf_counter() - started


def serve_pass(spec, launched: float, recorder) -> dict:
    """Launch, prime the catalogue, send the requests, re-serve the
    catalogue, drain. Requests ``first_request`` onwards of the seed's
    stream are sent, so consecutive passes continue one stream."""
    catalogue = [_sweep_cell(c) for c in spec["catalogue"]]
    first = spec["first_request"]
    pending = enumerate(
        itertools.islice(plan.serve_requests(spec["seed"]), first,
                         first + spec["requests"]),
        start=first,
    )
    spans_path = None
    if recorder is not None:
        spans_path = Path(spec["spans_dir"]) / f"spans-server-{os.getpid()}.jsonl"
    out = {"failures": [], "replies": [], "engines": Counter()}
    started = time.perf_counter()
    server = Server(spec, spans_path)
    clients = []
    try:
        port = server.port()
        clients = [_connect(port) for _ in range(plan.SERVE_CLIENTS)]
        setup_s = time.perf_counter() - started
        pause()
        served = _served(clients[0].submit(catalogue))
        pause()
        _traffic(pending, port, clients, recorder, out)
        pause()
        rerun_s = []
        for _ in range(SERVE_RERUNS):
            started = time.perf_counter()
            rerun = clients[0].submit(catalogue)
            rerun_s.append(time.perf_counter() - started)
            served += _served(rerun)
        pause()
        stats = clients[0].stats()
        # After a fixed amount of work: the priming, the requests, the
        # re-serves.
        rss = peak_rss_mb([server.proc.pid])
    finally:
        for client in clients:
            try:
                client.bye()
            except OSError:
                pass
        server.stop()
    return dict(
        out,
        setup_s=setup_s,
        rerun_s=statistics.median(rerun_s),
        served=served,
        server_stats=stats,
        peak_rss_mb=rss,
    )


def reference_digests(cell_specs, store: Path, workers: int = 1) -> dict:
    """Cell id -> digest of each cell re-simulated under ``engine=interp``,
    the reference engine, with no result cache."""
    from dataclasses import replace

    from repro.sim.parallel import run_sweep

    os.environ["REPRO_CACHE_DIR"] = str(store)
    cells = [_sweep_cell(c) for c in cell_specs]
    cells = [replace(c, config=replace(c.config, engine="interp")) for c in cells]
    report = run_sweep(cells, max_workers=workers, use_cache=False)
    by_key = {c.key(): s for c, s in zip(cells, cell_specs)}
    return {
        plan.cell_id(by_key[cr.cell.key()]): digest_of(cr.result)
        for cr in report.cells
    }


def main(argv) -> int:
    launched = float(argv[2])
    spec = json.loads(Path(argv[1]).read_text())
    recorder = None
    if spec.get("trace"):
        import tracing

        spans_dir = Path(spec["spans_dir"])
        recorder = tracing.Recorder(spans_dir / f"spans-{os.getpid()}.jsonl")
        tracing.install(recorder, worker_spans_dir=spans_dir)
    if spec["workload"] == "reference":
        outcome = {"digests": reference_digests(spec["cells"], Path(spec["store"]))}
    elif spec["workload"] == "serve-mixed":
        outcome = serve_pass(spec, launched, recorder)
    else:
        outcome = grid_pass(spec, launched, recorder)
    if recorder is not None:
        recorder.flush()
    Path(spec["out"]).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
