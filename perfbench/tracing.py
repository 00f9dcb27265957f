"""Spans around the benchmark's calls into each layer's public entry points.

:func:`install` wraps those entry points in the current process. Spans are
kept in memory and written as JSON lines by :meth:`Recorder.flush`; pool
workers inherit the wrappers through ``fork`` and flush after each cell,
since a pool worker has no exit hook. Nothing under ``src/`` is changed:
the wrappers replace module and class attributes at run time.

Span names, by layer::

    workloads  workloads.fetch, workloads.share
    sim.system system.init, system.run, system.warm
    sim.batch  batch.run
    sim.parallel cache.get, cache.put, pool.wait, pool.cell (worker root)
    jobs       jobs.submit, journal.record, journal.load
    sim.results results.to_dict, results.from_dict
    serve      serve.recv, serve.decode (client side)
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional


class Recorder:
    """In-memory span list with a per-thread stack of open spans."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list:
        if os.getpid() != self.pid:
            # A forked worker: drop the parent's spans and open stack.
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key: str = ""):
        """Time the block; yields a dict the caller may fill with info."""
        stack = self._stack()
        span_id = f"{self.pid}.{next(self._ids)}"
        parent = stack[-1] if stack else None
        info: Dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent, key, info])

    def flush(self, path: Optional[Path] = None) -> None:
        """Append the recorded spans to ``path`` (default: own file)."""
        self._stack()
        target = Path(path) if path else self.path
        with open(target, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, key, info in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "key": key,
                            "info": info,
                        }
                    )
                    + "\n"
                )
        self.spans = []


def _wrap(owner, attr: str, name: str, recorder: Recorder, annotate=None, key=None):
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name, key(*args) if key else "") as info:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(info, args, result)
            return result

    setattr(owner, attr, wrapper)
    return original


def _system_key(system, *rest) -> str:
    design = getattr(system, "design", None)
    design_name = getattr(design, "name", "")
    return f"{design_name}/{system.workload.name}"


def install(recorder: Recorder, worker_spans_dir: Optional[Path] = None) -> None:
    """Wrap every traced entry point in this process.

    ``worker_spans_dir``: where forked pool workers write their spans,
    one file per worker process.
    """
    from repro import jobs as jobs_pkg
    from repro.jobs import engine
    from repro.jobs.journal import JobJournal
    from repro.serve import client as serve_client
    from repro.sim import batch, parallel
    from repro.sim.results import SimResult
    from repro.sim.system import System
    from repro.workloads.arena import WorkloadArena

    def fetch_info(info, args, result):
        info["source"] = result[1].get("trace_source", "")

    _wrap(WorkloadArena, "fetch", "workloads.fetch", recorder,
          annotate=fetch_info, key=lambda self, params: params.benchmark)
    _wrap(engine, "acquire_shared_workload", "workloads.share", recorder)

    def init_key(self, config, design, workload, *rest, **kw):
        return f"{design if isinstance(design, str) else ''}/{workload.name}"

    _wrap(System, "__init__", "system.init", recorder, key=init_key)

    def run_info(info, args, result):
        info["engine"] = args[0].engine_used
        info["events"] = int(result.heap_events)

    _wrap(System, "run", "system.run", recorder, annotate=run_info, key=_system_key)
    _wrap(System, "_warm", "system.warm", recorder, key=_system_key)

    def batch_info(info, args, result):
        info["declined"] = result is None

    _wrap(batch, "run", "batch.run", recorder, annotate=batch_info, key=_system_key)

    def get_info(info, args, result):
        info["hit"] = result is not None

    _wrap(parallel.ResultCache, "get_entry", "cache.get", recorder,
          annotate=get_info, key=lambda self, k: k[:16])
    _wrap(parallel.ResultCache, "put", "cache.put", recorder,
          key=lambda self, k, *rest, **kw: k[:16])
    _wrap(engine, "wait", "pool.wait", recorder)
    _wrap(JobJournal, "record", "journal.record", recorder,
          key=lambda self, k, *rest, **kw: k[:16])
    _wrap(JobJournal, "load", "journal.load", recorder)
    _wrap(SimResult, "to_dict", "results.to_dict", recorder)
    from_dict = SimResult.from_dict.__func__

    @functools.wraps(from_dict)
    def traced_from_dict(cls, data):
        with recorder.span("results.from_dict"):
            return from_dict(cls, data)

    SimResult.from_dict = classmethod(traced_from_dict)

    for owner in (jobs_pkg, engine):
        _wrap(owner, "submit_job", "jobs.submit", recorder)
    from repro.serve import server as serve_server

    serve_server.submit_job = jobs_pkg.submit_job

    _wrap(serve_client.ServeClient, "recv", "serve.recv", recorder)
    _wrap(serve_client, "decode", "serve.decode", recorder)

    if worker_spans_dir is not None:
        original_worker = parallel._worker

        @functools.wraps(original_worker)
        def traced_worker(cell, *args, **kwargs):
            # Pickled by name (repro.sim.parallel._worker), which now
            # resolves to this wrapper in the parent and, via fork, in
            # every pool worker.
            with recorder.span("pool.cell", f"{cell.design}/{cell.benchmark}"):
                result = original_worker(cell, *args, **kwargs)
            recorder.flush(Path(worker_spans_dir) / f"spans-{os.getpid()}.jsonl")
            return result

        parallel._worker = traced_worker
