"""The benchmark's own arithmetic, kept free of the simulator so it can be
tested on its own: percentiles, run-to-run spread, span self time, failure
accounting and the result-digest check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is only reported with at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``samples``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the chosen rank, so a p95 needs 200 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q * n)
    beyond = n - rank
    if n == 0 or beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count for which :func:`tail_percentile` accepts ``q``."""
    n = MIN_TAIL_SAMPLES
    while n - math.ceil(q * n) < MIN_TAIL_SAMPLES:
        n += 1
    return n


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Host speed (ops/s of :func:`host_speed`) that reported times are scaled
#: to: the median this loop read on the 2-vCPU host the bounds were set on.
REFERENCE_SPEED = 6.0e6

def _loop_rate(loops: int) -> float:
    acc = 0.0
    d = {"a": 1.0, "b": 2.0}
    started = time.perf_counter()
    for _ in range(loops):
        acc += d["a"] * 0.5 + d["b"]
        d["a"] = acc % 7.0
    return loops / (time.perf_counter() - started)


def host_speed(loops: int = 250_000) -> float:
    """Throughput (ops/s) of a fixed pure-Python loop, averaged over every
    CPU the process may use: on a shared host each CPU speeds up and slows
    down on its own. Call it only while no process of the program runs;
    the loop is the benchmark's own, so then a change to the program
    cannot move the reference."""
    cpus = sorted(os.sched_getaffinity(0))
    rates = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            rates.append(_loop_rate(loops))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(rates) / len(rates)


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) by ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else math.inf


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    id: str
    name: str
    start: float
    end: float
    parent: Optional[str] = None
    key: str = ""
    info: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    """Span id -> the spans whose parent it is."""
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> its duration minus the part its children cover.

    Children that overlap each other (threads) are counted once; a child
    that runs past its parent counts only inside the parent.
    """
    children = children_of(spans)
    return {
        span.id: span.duration
        - covered(
            ((c.start, c.end) for c in children.get(span.id, ())),
            span.start,
            span.end,
        )
        for span in spans
    }


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
@dataclass
class FailureLog:
    """Every attempted op and every failed one, with its code and message.

    An op is a cell (grids) or a request (serve). Failures are never
    retried away: a failed op stays failed.
    """

    attempted: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, code: str, message: str, count: int = 1) -> None:
        for _ in range(count):
            self.failures.append((code, message))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for code, _ in self.failures:
            counts[code] = counts.get(code, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------
def result_digest(result: Dict) -> str:
    """SHA-256 of a ``SimResult.to_dict()`` payload in canonical JSON.

    A dict that went over the wire digests the same as the in-process one:
    JSON round-trips Python floats (``inf`` included) exactly.
    """
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class DigestCheck:
    """Compares every observed result against a reference.

    ``expected`` holds digests committed for the default seed (computed
    under the interpreter engine). A cell without one must at least agree
    with every other observation of itself; :meth:`unreferenced` then picks
    one such cell per design to re-simulate under the interpreter.
    """

    expected: Dict[str, str]
    seen: Dict[str, str] = field(default_factory=dict)
    checked: int = 0
    mismatches: List[Tuple[str, str]] = field(default_factory=list)

    def observe(self, cell_id: str, digest: str) -> bool:
        self.checked += 1
        reference = self.expected.get(cell_id) or self.seen.get(cell_id)
        self.seen.setdefault(cell_id, digest)
        if reference is not None and reference != digest:
            self.mismatches.append((cell_id, digest))
            return False
        return True

    def unreferenced(self, design_of) -> List[str]:
        """First unreferenced cell id (sorted) of each design."""
        picked: Dict[str, str] = {}
        for cell_id in sorted(self.seen):
            if cell_id not in self.expected:
                picked.setdefault(design_of(cell_id), cell_id)
        return [picked[d] for d in sorted(picked)]

    def confirm(self, cell_id: str, reference_digest: str) -> bool:
        """Record an interpreter re-simulation of an unreferenced cell."""
        self.checked += 1
        if self.seen.get(cell_id) != reference_digest:
            self.mismatches.append((cell_id, self.seen.get(cell_id, "")))
            return False
        return True
