"""Synthetic access-pattern generators standing in for SPEC2006 traces.

We do not have SPEC binaries or a Pin front-end, so each benchmark is modeled
as a weighted mixture of canonical memory behaviours (DESIGN.md, substitution
1). The DRAM-cache trade-offs the paper measures depend on four properties of
the post-L3 stream, and each is a first-class parameter here:

* miss arrival rate      -> ``mpki`` (gap cycles between demand misses),
* spatial locality       -> ``sequential`` components with long run lengths
                            (row-buffer friendly "type X" accesses),
* temporal reuse         -> ``hot``/``zipf`` components sized relative to the
                            cache (DRAM-cache hit rate, associativity
                            sensitivity),
* streaming/cold traffic -> ``pointer`` and large ``sequential`` components
                            ("type Y" accesses, compulsory misses).

Hit/miss outcomes correlate with the generating component, and each component
draws from its own small pool of instruction addresses — which is precisely
the correlation MAP-I exploits (Section 5.3.2).

Draw-order contract. A trace is a function of the sequence of draws made on
each of its generators: one main generator (phase choice, phase length, the
PC slots of slot-free components, gaps, writebacks) and one private
generator per component (cursor, burst lengths, addresses). So:

* the order of draws *on one generator* is the stream, and must not change;
* the order *across* generators is free: a phase runs its component's
  bursts first and makes the main generator's slot draw for the whole phase
  afterwards;
* consecutive draws of the same distribution and bound on one generator may
  be merged or split (``integers(n, size=a)`` then ``size=b`` is
  ``integers(n, size=a+b)``; a scalar ``integers(n)`` then ``size=k`` is
  ``size=k+1``; ``k`` scalar ``random()`` calls are ``random(size=k)``), and
  a component's private generator may be replayed from its raw 64-bit words
  (:class:`_Replay`) — the pattern tests pin each of these identities
  against numpy.

Changes that keep every stream bit-identical (pinned by the digest table in
``tests/test_workloads_patterns.py``) are speedups and do not bump
:data:`GENERATOR_VERSION`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.units import LINE_SIZE
from repro.workloads.trace import CoreTrace

#: Version of the generated trace *streams*. Part of every workload-arena
#: cache key (:mod:`repro.workloads.arena`): bump whenever a change to this
#: module alters the emitted addresses/pcs/gaps for any (config, seed), so
#: persisted ``.npz`` arenas from older generators are invalidated, and
#: regenerate the pinned digest table. Pure speedups that keep streams
#: bit-identical (guarded by that table and the golden scorecard) must NOT
#: bump it.
GENERATOR_VERSION = 1

#: Compute CPI between misses for a 4-wide core (gap cycles per instruction).
COMPUTE_CPI = 0.25

#: Geometric mean burst length for non-sequential components.
DEFAULT_BURST = 3

#: Geometric mean number of bursts a component stays active once selected.
PHASE_BURSTS = 10

#: Zipf bursts at or above this many records raise their draws to the
#: zipf power as one numpy array; shorter ones with Python's float power.
#: Both consume the same draws, but numpy's vectorized ``pow`` can differ
#: from the C library's in the last bit (it does on AVX-512 hosts), so the
#: split is part of the stream: moving it could change a rank.
VECTOR_BURST_MIN = 16


@dataclass(frozen=True)
class Component:
    """One access-pattern component of a benchmark mixture.

    Attributes:
        kind: ``sequential`` (streaming runs), ``strided`` (fixed-stride
            walks, ``run_length`` lines apart), ``hot`` (uniform reuse
            within a small region), ``zipf`` (skewed reuse), or ``pointer``
            (dependent chasing over a large region, negligible reuse).
        weight: Mixture weight (relative).
        region_bytes: *Nominal* region size; divided by the capacity scale
            when a trace is generated.
        run_length: Mean consecutive-line run length (sequential locality).
        zipf_alpha: Skew for ``zipf`` components.
        pc_pool: Distinct instruction addresses this component issues from.
    """

    kind: str
    weight: float
    region_bytes: int
    run_length: int = 1
    zipf_alpha: float = 1.4
    pc_pool: int = 4


@dataclass(frozen=True)
class PatternConfig:
    """Full generative description of one benchmark's memory behaviour."""

    name: str
    mpki: float
    components: Tuple[Component, ...]
    write_fraction: float = 0.2
    footprint_bytes: int = 0  # nominal; defaults to the sum of regions
    #: Mean compute cycles between demand misses. Calibrated per benchmark
    #: so the no-DRAM-cache baseline reproduces Table 3's perfect-L3
    #: speedup; falls back to ``1000/mpki * COMPUTE_CPI`` when unset.
    gap_mean_cycles: float = 0.0

    def total_region_bytes(self) -> int:
        return self.footprint_bytes or sum(c.region_bytes for c in self.components)


def _search_cdf(p: float) -> List[float]:
    """The running sums numpy's geometric "search" sampler compares against.

    ``Generator.geometric(p)`` for ``p >= 1/3`` draws one double ``U`` and
    returns the first ``k`` whose running sum ``p + p*q + ... + p*q**(k-1)``
    (accumulated in this order, in doubles) reaches ``U``. The sums reach
    1.0 for ``p = 1/3``, above every double ``U`` can take.
    """
    q = 1.0 - p
    total = prod = p
    sums = [total]
    while total + prod * q != total:
        prod *= q
        total += prod
        sums.append(total)
    return sums


#: Burst lengths of non-sequential components: geometric(1 / DEFAULT_BURST).
_BURST_CDF = _search_cdf(1.0 / DEFAULT_BURST)
_DOUBLE_UNIT = 1.0 / (1 << 53)
_RAW_BLOCK = 64


class _Replay:
    """A component's private generator, replayed in Python from raw output.

    A non-sequential component draws only doubles (``random``), burst
    lengths (``geometric(1/3)``: one double each) and bounded integers
    (``integers(n)``) from its own PCG64 stream. Numpy pays microseconds of
    call overhead per scalar draw; this class pulls the stream's raw 64-bit
    words in blocks and applies numpy's own conversions to them, so each
    value equals the one the corresponding ``np.random.default_rng(seed)``
    call would return (pinned in the pattern tests). Reading ahead is safe
    because nothing else draws from a component's generator.
    """

    __slots__ = ("_words", "_word", "_half")

    def __init__(self, seed: int) -> None:
        bitgen = np.random.PCG64(seed)
        self._words: Iterator[int] = chain.from_iterable(
            iter(lambda: bitgen.random_raw(_RAW_BLOCK).tolist(), None)
        )
        self._word = self._words.__next__
        #: PCG64 hands out 32-bit draws a 64-bit word at a time, low half
        #: first; the high half waits here for the next 32-bit draw.
        self._half: Optional[int] = None

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def doubles(self, count: int) -> List[float]:
        """``random(size=count)``: the top 53 bits of each word."""
        return [(word >> 11) * _DOUBLE_UNIT for word in islice(self._words, count)]

    def burst(self) -> int:
        """``geometric(1 / DEFAULT_BURST)``."""
        return bisect_left(_BURST_CDF, (self._word() >> 11) * _DOUBLE_UNIT) + 1

    def below(self, n: int) -> int:
        """``integers(n)``: Lemire's multiply-and-reject, as numpy does it."""
        if n == 1:
            return 0  # numpy returns without drawing
        if n < 1 << 32:
            m = self._uint32() * n
            if m & 0xFFFFFFFF < n:
                threshold = ((1 << 32) - n) % n
                while m & 0xFFFFFFFF < threshold:
                    m = self._uint32() * n
            return m >> 32
        if n == 1 << 32:
            return self._uint32()
        m = self._word() * n
        if m & 0xFFFFFFFFFFFFFFFF < n:
            threshold = ((1 << 64) - n) % n
            while m & 0xFFFFFFFFFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 64


class _ComponentState:
    """Mutable per-trace generation state for one component.

    Each component draws from its own generator, seeded from the trace
    seed and its index, so its draws are independent of the main
    generator's and of every other component's (the draw-order contract in
    the module docstring).
    """

    def __init__(
        self, comp: Component, region_lines: int, base_line: int, pc_base: int, seed: int
    ) -> None:
        try:
            self.emit_phase = _PHASES[comp.kind]
        except KeyError:
            raise ValueError(f"unknown component kind {comp.kind!r}") from None
        self.comp = comp
        self.region_lines = max(region_lines, 1)
        self.base_line = base_line
        self.pc_base = pc_base
        #: PCs of sequential/strided/pointer accesses come from
        #: interchangeable instructions, drawn on the main generator.
        self.slot_free = comp.kind in ("sequential", "strided", "pointer")
        if comp.kind == "sequential":
            # geometric(1/run_length) samples by inversion below p = 1/3,
            # which _Replay does not model; a sequential phase makes one
            # sized numpy draw anyway.
            self.rng = np.random.default_rng(seed)
            self.cursor = int(self.rng.integers(self.region_lines))
        else:
            self.rng = _Replay(seed)
            self.cursor = self.rng.below(self.region_lines)


# Phase emitters. Each runs one phase of ``bursts`` bursts of its component,
# stopping once ``budget`` records are out (the last burst is clipped), and
# appends the line addresses to ``lines``. Hot and zipf components bind the
# PC slot to the address/rank, reproducing the real-program property that
# hot and cold data are touched by different code paths — the correlation
# MAP-I exploits (Section 5.3.2) — and append their PCs to ``pcs`` too;
# slot-free components leave the PCs to the caller. Each returns the number
# of records emitted. Burst lengths a clipped phase draws but never uses
# are harmless: a clipped phase ends the trace.


def _sequential_phase(state, bursts, budget, lines, pcs) -> int:
    # Consecutive bursts continue from the cursor, so a phase is one run of
    # the summed burst lengths and only the lengths need drawing.
    drawn = state.rng.geometric(1.0 / state.comp.run_length, size=bursts)
    length = min(int(drawn.sum()), budget)
    base, region, cursor = state.base_line, state.region_lines, state.cursor
    state.cursor = (cursor + length) % region
    left = length
    while left:
        take = min(region - cursor, left)
        lines.extend(range(base + cursor, base + cursor + take))
        left -= take
        cursor = 0
    return length


def _strided_phase(state, bursts, budget, lines, pcs) -> int:
    # Fixed-stride walk (column sweeps, HPC grids): run_length is the stride
    # in lines. Strides >= a row's 32 lines defeat the row buffer entirely
    # (pure "type Y" traffic). Like sequential, a phase is one walk.
    stride = max(state.comp.run_length, 1)
    burst = state.rng.burst
    length = min(sum([burst() for _ in range(bursts)]), budget)
    base, region, cursor = state.base_line, state.region_lines, state.cursor
    state.cursor = (cursor + stride * length) % region
    if cursor + stride * (length - 1) < region:
        lines.extend(range(base + cursor, base + cursor + stride * length, stride))
    else:
        lines.extend([base + (cursor + stride * i) % region for i in range(length)])
    return length


def _hot_phase(state, bursts, budget, lines, pcs) -> int:
    # PC binds to the address chunk: distinct loads walk distinct
    # structures, so a chunk that loses its cache slots to conflicts keeps
    # missing under the same PC — the per-PC outcome bias MAP-I learns.
    burst, below = state.rng.burst, state.rng.below
    region, base = state.region_lines, state.base_line
    pool, pc_base = state.comp.pc_pool, state.pc_base
    left = budget
    for _ in range(bursts):
        length = min(burst(), left)
        start = below(region)
        if start + length <= region:
            rel = range(start, start + length)
        else:
            rel = [(start + i) % region for i in range(length)]
        lines.extend([base + line for line in rel])
        pcs.extend([pc_base + line * pool // region * 4 for line in rel])
        left -= length
        if not left:
            break
    return budget - left


def _zipf_phase(state, bursts, budget, lines, pcs) -> int:
    # Inverse-CDF power-law sample over ranks, clipped to region. Rank maps
    # to a contiguous line: hot data is clustered, as in real heaps, which
    # keeps direct-mapped conflicts between the hot head and cold tail
    # realistic rather than maximal.
    burst, doubles = state.rng.burst, state.rng.doubles
    top, base = state.region_lines - 1, state.base_line
    power = -1.0 / (state.comp.zipf_alpha - 1.0)
    pool_top, pc_base = state.comp.pc_pool - 1, state.pc_base
    left = budget
    for _ in range(bursts):
        length = min(burst(), left)
        u = doubles(length)
        if length < VECTOR_BURST_MIN:
            ranks = [int(x**power) - 1 for x in u]
            ranks = [rank if rank < top else top for rank in ranks]
        else:
            with np.errstate(over="ignore"):
                raw = np.array(u) ** power
            # Clip before the int cast (huge floats, inf); anything past
            # 2**62 is far beyond every region and clips to top anyway.
            ranks = np.minimum(raw, float(1 << 62)).astype(np.int64) - 1
            ranks = np.minimum(ranks, top).tolist()
        lines.extend([base + rank for rank in ranks])
        bits = map(int.bit_length, ranks)
        pcs.extend([pc_base + (b if b < pool_top else pool_top) * 4 for b in bits])
        left -= length
        if not left:
            break
    return budget - left


def _pointer_phase(state, bursts, budget, lines, pcs) -> int:
    # Dependent chasing over a large region: uniform lines, negligible
    # reuse. Each burst also draws a start line that pointer addresses
    # never use; it stays for the stream's sake.
    burst, below = state.rng.burst, state.rng.below
    region, base = state.region_lines, state.base_line
    left = budget
    for _ in range(bursts):
        length = min(burst(), left)
        below(region)
        lines.extend([base + below(region) for _ in range(length)])
        left -= length
        if not left:
            break
    return budget - left


_PHASES = {
    "sequential": _sequential_phase,
    "strided": _strided_phase,
    "hot": _hot_phase,
    "zipf": _zipf_phase,
    "pointer": _pointer_phase,
}


def generate_core_trace(
    config: PatternConfig,
    num_reads: int,
    seed: int,
    capacity_scale: int = 256,
    base_line: int = 0,
) -> CoreTrace:
    """Generate one core's trace from a :class:`PatternConfig`.

    ``base_line`` offsets every address so rate-mode copies occupy disjoint
    physical ranges. Region sizes are divided by ``capacity_scale`` to match
    the scaled cache capacity (DESIGN.md, substitution 2).
    """
    rng = np.random.default_rng(seed)
    comps = config.components
    # Component weights are *per access*, but generation draws bursts: a
    # sequential component with run_length 64 emits ~64 accesses per draw.
    # Draw probabilities are therefore weight / expected-burst-length.
    burst_means = np.array(
        [
            c.run_length if c.kind == "sequential" else DEFAULT_BURST
            for c in comps
        ],
        dtype=float,
    )  # strided/hot/zipf/pointer bursts all average DEFAULT_BURST accesses
    weights = np.array([c.weight for c in comps], dtype=float) / burst_means
    weights /= weights.sum()
    # Phase draws replicate ``rng.choice(len(comps), p=weights)`` with the
    # CDF hoisted out of the loop: Generator.choice is exactly
    # ``cdf.searchsorted(self.random(), side="right")`` after normalizing,
    # and bisect_right over the same doubles is that search.
    comp_cdf = weights.cumsum()
    comp_cdf /= comp_cdf[-1]
    comp_cdf = comp_cdf.tolist()

    # Lay components out back-to-back inside the core's region.
    pc_base = 0x400000 + (seed & 0xFFFF) * 0x10000
    states: List[_ComponentState] = []
    offset = 0
    for i, comp in enumerate(comps):
        region_lines = max(comp.region_bytes // capacity_scale // LINE_SIZE, 1)
        states.append(
            _ComponentState(
                comp, region_lines, base_line + offset, pc_base + i * 0x1000,
                seed * 1000003 + i,
            )
        )
        offset += region_lines

    # Programs execute in phases: once a component becomes active it stays
    # active for several bursts (geometric, mean PHASE_BURSTS). This temporal
    # clustering of hits and misses is what history-based predictors exploit
    # (Section 5.3's MMMMHHHH example). A whole phase is generated at once;
    # the PC slots of slot-free components are one main-generator draw of
    # the phase's length.
    read_lines: List[int] = []
    read_pcs: List[int] = []
    pointer_spans: List[Tuple[int, int]] = []
    total = 0
    while total < num_reads:
        state = states[bisect_right(comp_cdf, rng.random())]
        bursts = max(1, int(rng.geometric(1.0 / PHASE_BURSTS)))
        length = state.emit_phase(state, bursts, num_reads - total, read_lines, read_pcs)
        if state.slot_free:
            comp_pc_base, pool = state.pc_base, state.comp.pc_pool
            if pool > 1:
                slots = rng.integers(pool, size=length).tolist()
                read_pcs.extend([comp_pc_base + slot * 4 for slot in slots])
            else:
                read_pcs.extend([comp_pc_base] * length)
            if state.comp.kind == "pointer":
                pointer_spans.append((total, total + length))
        total += length
    read_addrs_arr = np.array(read_lines, dtype=np.int64)
    read_pcs_arr = np.array(read_pcs, dtype=np.int64)
    read_dep_arr = np.zeros(num_reads, dtype=bool)
    for start, end in pointer_spans:
        read_dep_arr[start:end] = True

    # Gap cycles: calibrated mean compute time between misses (see
    # PatternConfig.gap_mean_cycles) with exponential jitter for burstiness.
    mean_gap = config.gap_mean_cycles or (1000.0 / config.mpki) * COMPUTE_CPI
    gaps = rng.exponential(mean_gap, size=num_reads)

    # Writebacks: dirty L3 victims. Each is an address read a while ago
    # (L3-residency lag), posted alongside a demand miss (gap 0).
    num_writes = int(num_reads * config.write_fraction / (1.0 - config.write_fraction))
    if num_writes:
        src = rng.integers(0, num_reads, size=num_writes)
        lag = rng.integers(1, 512, size=num_writes)
        wb_idx = np.maximum(src - lag, 0)
        # The writebacks land at sorted random slots between the reads (each
        # slot shifted past the writebacks before it); the reads fill the rest.
        write_positions = np.sort(rng.integers(0, num_reads + 1, size=num_writes))
        write_positions += np.arange(num_writes)
        is_write = np.zeros(num_reads + num_writes, dtype=bool)
        is_write[write_positions] = True
        read_positions = np.flatnonzero(~is_write)
        addresses = np.empty(num_reads + num_writes, dtype=np.int64)
        addresses[read_positions] = read_addrs_arr
        addresses[write_positions] = read_addrs_arr[wb_idx]
        pcs = np.zeros(num_reads + num_writes, dtype=np.int64)
        pcs[read_positions] = read_pcs_arr
        gaps_all = np.zeros(num_reads + num_writes)
        gaps_all[read_positions] = gaps
        dependent = np.zeros(num_reads + num_writes, dtype=bool)
        dependent[read_positions] = read_dep_arr
    else:
        addresses = read_addrs_arr
        pcs = read_pcs_arr
        gaps_all = gaps
        dependent = read_dep_arr
        is_write = np.zeros(num_reads, dtype=bool)

    instructions = int(num_reads * 1000.0 / config.mpki)
    return CoreTrace(
        gaps=gaps_all,
        addresses=addresses,
        is_write=is_write,
        pcs=pcs,
        instructions=instructions,
        is_dependent=dependent,
    )
