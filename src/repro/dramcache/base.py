"""Design interface and shared plumbing for DRAM-cache organizations.

A design receives every L3 miss (reads block the issuing core; writes are
posted L3 writebacks) and returns an :class:`AccessOutcome` whose ``done``
time is when read data is available to the core. Background work — fills,
replacement updates, dirty writebacks — is posted through a scheduler
callback so device reservations happen in (approximate) time order.

Common accounting lives here so that every design reports hit rate, average
hit latency and traffic identically (Figures 4/6/8/10, Tables 1/5/6).

Request lifecycle
-----------------
The system loop wraps each L3 miss in a
:class:`~repro.lifecycle.MemoryRequest` and calls :meth:`handle`, which
dispatches to the design's :meth:`access` and audits the returned
:class:`~repro.lifecycle.LatencyBreakdown`: every demand read's stage
cycles are accumulated per stage (mean + histogram for p95) and any gap
between the breakdown total and the end-to-end latency is recorded as
``unattributed_cycles`` — which the test suite pins at zero, so no cycle
ever goes missing from the decomposition.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

from repro.dram.device import AccessResult, DramDevice
from repro.dram.mapping import RowLocation
from repro.lifecycle import STAGES, LatencyBreakdown, MemoryRequest
from repro.sim.config import SystemConfig
from repro.stats import Histogram, StatGroup

#: Bucket edges (cycles) for hit/read latency distributions.
LATENCY_BUCKETS = (25, 50, 75, 100, 150, 200, 300, 500)

#: Frozenset mirror of the canonical stages for O(1) membership tests on
#: the per-read custom-stage check.
_STAGE_SET = frozenset(STAGES)

#: Attribution gaps below this are floating-point association noise (trace
#: gaps are fractional, and the breakdown sums stages in a different order
#: than the device chained them), not missing cycles.
ATTRIBUTION_EPSILON = 1e-6

#: Scheduler signature: ``schedule(when, fn)`` runs ``fn(when)`` at ``when``.
Scheduler = Callable[[float, Callable[[float], None]], None]


class AccessOutcome:
    """Result of one L3 miss handled by a DRAM-cache design.

    Attributes:
        done: Cycle at which read data is available (== issue time for
            posted writes).
        cache_hit: Whether the DRAM cache held the line.
        served_by_memory: Whether off-chip memory supplied the data.
        predicted_memory: The access predictor's decision (None if the
            design does not predict, e.g. SRAM-Tag).
        breakdown: Per-stage attribution of a demand read's latency; its
            stages sum to ``done - issue``. None for writes (posted, zero
            observed latency).

    A ``__slots__`` class rather than a frozen dataclass: one is allocated
    per simulated access, which made dataclass ``__init__`` overhead show
    up in profiles. Treat instances as immutable.
    """

    __slots__ = (
        "done", "cache_hit", "served_by_memory", "predicted_memory", "breakdown"
    )

    def __init__(
        self,
        done: float,
        cache_hit: bool,
        served_by_memory: bool,
        predicted_memory: Optional[bool] = None,
        breakdown: Optional[LatencyBreakdown] = None,
    ) -> None:
        self.done = done
        self.cache_hit = cache_hit
        self.served_by_memory = served_by_memory
        self.predicted_memory = predicted_memory
        self.breakdown = breakdown

    def _astuple(self) -> Tuple:
        return (
            self.done,
            self.cache_hit,
            self.served_by_memory,
            self.predicted_memory,
            self.breakdown,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessOutcome):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            "AccessOutcome(done={}, cache_hit={}, served_by_memory={}, "
            "predicted_memory={}, breakdown={})".format(*self._astuple())
        )


class DramCacheDesign(ABC):
    """Base class for all DRAM-cache organizations."""

    name: str = "base"

    def __init__(
        self,
        config: SystemConfig,
        stacked: DramDevice,
        memory: DramDevice,
        schedule: Scheduler,
    ) -> None:
        self.config = config
        self.stacked = stacked
        self.memory = memory
        self.schedule = schedule
        self.stats = StatGroup(self.name)
        self.hit_latency_hist = Histogram("hit_latency", LATENCY_BUCKETS)
        self.read_latency_hist = Histogram("read_latency", LATENCY_BUCKETS)
        #: Per-stage latency accumulators (one per lifecycle stage); every
        #: demand read samples every canonical stage (0.0 when absent) so
        #: stage means decompose the average read latency exactly.
        self.stage_stats = StatGroup(f"{self.name}.stages")
        self._stage_hists: Dict[str, Histogram] = {}
        # Percentile (histogram) sampling can be disabled per-run; the
        # means/counters are unaffected, only p95-style outputs go empty.
        self._track_hists = getattr(config, "track_percentiles", True)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abstractmethod
    def access(
        self,
        now: float,
        line_address: int,
        is_write: bool,
        pc: int,
        core_id: int,
    ) -> AccessOutcome:
        """Handle one L3 miss arriving at the DRAM-cache controller."""

    def handle(self, request: MemoryRequest) -> AccessOutcome:
        """Full request lifecycle: dispatch to :meth:`access`, then audit
        and accumulate the returned per-stage latency breakdown.

        This is the entry point the system loop (and the measured-breakdown
        replay in :mod:`repro.analysis.latency`) uses; calling
        :meth:`access` directly skips only the stage accounting.
        """
        issue = request.issue_cycle
        outcome = self.access(
            issue,
            request.line_address,
            request.is_write,
            request.pc,
            request.core_id,
        )
        breakdown = outcome.breakdown
        if breakdown is not None and not request.is_write:
            self._record_stages(breakdown, outcome.done - issue)
        return outcome

    def data_location(self, line_address: int) -> Optional[RowLocation]:
        """Stacked-DRAM coordinate holding ``line_address``'s data, or None
        for designs without a stacked array (baselines). Used by the
        isolated-access replay to prime row-buffer state deterministically.
        """
        return None

    def warm(self, line_address: int, is_write: bool, pc: int, core_id: int) -> None:
        """Replay one record functionally (no timing): fill tag state and
        train predictors so the timed phase starts from steady state.

        Designs without functional state (the baselines) inherit this no-op.
        """

    # ------------------------------------------------------------------
    # Shared accounting helpers
    # ------------------------------------------------------------------
    def _record_stages(self, breakdown: LatencyBreakdown, latency: float) -> None:
        """Accumulate one read's stage attribution into the per-stage stats.

        The audit: ``unattributed_cycles`` sums the absolute gap between the
        breakdown total and the observed end-to-end latency. Tests pin it at
        zero, so every design's arithmetic stays honest under load.
        """
        stages = breakdown._stages
        gap = abs(latency - sum(stages.values()))
        self.stats.accumulator("unattributed_cycles").sample(
            gap if gap > ATTRIBUTION_EPSILON else 0.0
        )
        for stage in STAGES:
            cycles = stages.get(stage, 0.0)
            self.stage_stats.accumulator(stage).sample(cycles)
            if self._track_hists:
                self._stage_histogram(stage).sample(cycles)
        for stage, cycles in stages.items():
            if stage not in _STAGE_SET:  # forward-compat: custom stages
                self.stage_stats.accumulator(stage).sample(cycles)

    def _stage_histogram(self, stage: str) -> Histogram:
        """The p95 histogram of one canonical stage, created on first use."""
        hist = self._stage_hists.get(stage)
        if hist is None:
            hist = self._stage_hists[stage] = Histogram(stage, LATENCY_BUCKETS)
        return hist

    def _attribute(
        self, breakdown: LatencyBreakdown, result: AccessResult, stage: str
    ) -> LatencyBreakdown:
        """Fold one device access into ``breakdown``: queueing (bank + bus)
        to the shared ``queue`` stage, service cycles to ``stage``."""
        return breakdown.attribute_device(result, stage)

    def stage_means(self) -> Dict[str, float]:
        """Average cycles per demand read spent in each lifecycle stage;
        the values sum to the average read latency."""
        return {
            stage: acc.mean for stage, acc in self.stage_stats.accumulators.items()
        }

    def stage_p95s(self) -> Dict[str, float]:
        """Per-stage p95 cycles (bucket-edge approximation, like the
        hit/read latency percentiles)."""
        return {
            stage: hist.percentile(0.95)
            for stage, hist in self._stage_hists.items()
        }

    @property
    def unattributed_cycles(self) -> float:
        """Total absolute cycles the stage breakdowns failed to account for
        (the lifecycle audit; 0.0 when every design attributed exactly)."""
        acc = self.stats.accumulators.get("unattributed_cycles")
        return acc.total if acc else 0.0

    def _record_read(self, hit: bool, latency: float) -> None:
        stats = self.stats
        if hit:
            stats.counter("read_hits").add()
            stats.accumulator("hit_latency").sample(latency)
            if self._track_hists:
                self.hit_latency_hist.sample(latency)
        else:
            stats.counter("read_misses").add()
            stats.accumulator("miss_latency").sample(latency)
        stats.accumulator("read_latency").sample(latency)
        if self._track_hists:
            self.read_latency_hist.sample(latency)

    def _record_write(self, hit: bool) -> None:
        self.stats.counter("write_hits" if hit else "write_misses").add()

    def _memory_read(self, now: float, line_address: int):
        self.stats.counter("memory_reads").add()
        return self.memory.access_line(now, line_address)

    def _memory_write(self, now: float, line_address: int) -> None:
        self.stats.counter("memory_writes").add()
        self.memory.access_line(now, line_address, is_write=True, background=True)

    def _schedule_memory_write(self, when: float, line_address: int) -> None:
        self.schedule(when, lambda t: self._memory_write(t, line_address))

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def read_hit_rate(self) -> float:
        hits = self.stats.counter("read_hits").value
        misses = self.stats.counter("read_misses").value
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def overall_hit_rate(self) -> float:
        hits = (
            self.stats.counter("read_hits").value
            + self.stats.counter("write_hits").value
        )
        total = hits + (
            self.stats.counter("read_misses").value
            + self.stats.counter("write_misses").value
        )
        return hits / total if total else 0.0

    @property
    def avg_hit_latency(self) -> float:
        return self.stats.accumulator("hit_latency").mean

    @property
    def avg_read_latency(self) -> float:
        return self.stats.accumulator("read_latency").mean

    def describe(self) -> str:
        """One-line description used by reports."""
        return self.name


class RowMapper:
    """Maps a design's stacked-DRAM rows onto device coordinates.

    Designs address the stacked device by *cache row id*; this helper spreads
    consecutive rows across channels and banks (row-interleaved) so adjacent
    sets exploit bank-level parallelism the way the paper's designs do.
    """

    def __init__(self, device: DramDevice) -> None:
        self._channels = device.timings.channels
        self._banks = device.timings.banks_per_channel

    def locate(self, cache_row: int) -> RowLocation:
        channel = cache_row % self._channels
        per_channel = cache_row // self._channels
        bank = per_channel % self._banks
        row = per_channel // self._banks
        return RowLocation(channel=channel, bank=bank, row=row)
