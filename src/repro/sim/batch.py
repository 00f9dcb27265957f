"""Batch simulation engine: vectorized precompute + generated scalar kernels.

The interpreter in :mod:`repro.sim.system` walks one heap event at a time
through layers of design/device method calls. This engine restructures that
loop for throughput while producing **bit-identical** :class:`SimResult`s:

* **Vectorized precompute** (numpy): everything independent of the event
  timeline is computed for the whole trace up front — address decode for
  off-chip memory, set-index/stacked-row decode per design, TAD burst
  lengths, and MAP-I predictor table indices.
* **Generated kernels**: the serial part (bank/bus timeline reservations,
  replacement state, predictor training) runs in one flat event loop over
  integer-coded heap tuples. The loop is written once, as the source
  template :data:`_KERNEL`; each design family contributes only its read,
  write, fill and warmup fragments (:data:`_FAMILIES`), and every DRAM
  access splices in the one reservation fragment
  (:data:`repro.sim.kernelgen.RESERVE`). One copy is compiled per variant
  key (:class:`Variant`: family, predictor kind, associativity, page
  policies, MLP, percentile tracking), lazily on first use and memoized
  per process, so branches on those constants vanish while numeric
  timings stay runtime locals.
* **Generated warmup**: the functional warmup replays the leading records
  through the same variant's lookup/fill/train fragments (no time), as
  :meth:`System._warm`'s replay hook.
* **Deferred statistics**: latency samples are appended to plain lists in
  event order and folded into the accumulators/histograms once at the end,
  as numpy arrays: ``np.add.accumulate`` is a strict left fold, so float
  sums match the interpreter's per-sample ``total += v`` bit for bit.

Bit-exactness is defined over the :class:`SimResult` surface (what
``repro golden`` hashes and the differential fuzzer compares). Device
*accumulators* (queue-delay samples etc.) are not observable there — only
the device counters feed energy/utilization — so the spliced reservations
skip accumulator sampling; everything observable is reproduced exactly.

Engine selection lives in :meth:`repro.sim.system.System.run`; this module's
:func:`run` returns ``None`` when a configuration is outside the supported
envelope (verify runs, unknown design or policy types), and the caller
falls back to the interpreter.
"""

from __future__ import annotations

import functools
from array import array
from heapq import heappop, heappush
from typing import NamedTuple, Optional

import numpy as np

from repro.cache.missmap import LINES_PER_SEGMENT as _MM_LINES_PER_SEGMENT
from repro.cache.replacement import DIPPolicy, LRUPolicy, RandomPolicy
from repro.core.predictors import (
    MapGPredictor,
    MapIPredictor,
    PamPredictor,
    SamPredictor,
)
from repro.dramcache.alloy import AlloyCacheDesign
from repro.dramcache.alloy_victim import VICTIM_HIT_CYCLES, AlloyVictimDesign
from repro.dramcache.base import ATTRIBUTION_EPSILON
from repro.dramcache.ideal_lo import IdealLODesign
from repro.dramcache.lh_cache import LHCacheDesign, TAG_CHECK_CYCLES
from repro.dramcache.no_cache import NoCacheDesign, PerfectL3Design
from repro.dramcache.sram_tag import SramTagDesign
from repro.lifecycle import STAGES
from repro.sim import kernelgen
from repro.units import LINE_SIZE

#: Replacement policies whose lookup-path side effects the kernels inline,
#: by the ``repl`` code the fragments branch on.
_REPL_KINDS = {RandomPolicy: 0, LRUPolicy: 1, DIPPolicy: 2}

#: MAP-family predictor types with an inlined predict/train path, by the
#: ``pk`` code (0 = none, 1 = MissMap and 2 = perfect come from the design).
_MAP_KINDS = {MapIPredictor: 3, MapGPredictor: 4, SamPredictor: 5,
              PamPredictor: 6}

#: Heap event kinds (tuple layout: (when, seq, kind, a, b)), substituted
#: into the templates as ``$CORE``, ``$MEMWRITE``, ...
_EVENTS = dict(
    CORE=0,  # a = core index
    MEMWRITE=1,  # a = line address (posted off-chip writeback)
    FILL=2,  # a = flat record index
    STACKWRITE=3,  # a = flat record index (background stacked line write)
    WTRAFFIC=4,  # a = flat record index, b = hit (Alloy write traffic)
    WHT=5,  # a = flat record index (LH write-hit traffic)
)


class Variant(NamedTuple):
    """Everything the generated source branches on. Fields a family does
    not use hold their defaults, so they never split its variants."""

    family: str  # nocache | perfect | idealo | sram | lh | alloy
    mlp: bool = False  # mshrs_per_core > 1
    mopen: bool = True  # off-chip open-page policy
    sopen: bool = True  # stacked open-page policy
    track: bool = True  # percentile histograms
    repl: int = 1  # sram/lh replacement policy (see _REPL_KINDS)
    pk: int = 0  # alloy predictor kind (see _MAP_KINDS)
    assoc: str = "dm"  # alloy: dm | mw | victim


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(system) -> Optional["object"]:
    """Run ``system`` under the batch engine, or return ``None`` if the
    configuration is outside the supported envelope (caller falls back to
    the interpreter). All eligibility checks happen before any mutation."""
    if system.checker is not None:
        return None
    key = variant_key(system)
    if key is None:
        return None
    compiled = compile_variant(key)
    # Warmup overflow writebacks (victim buffer) seed the timed heap.
    pending = []
    starts = system._warm(
        lambda starts: compiled["warm"](system, starts, pending)
    )
    finish = compiled["kernel"](system, starts, pending)
    system.engine_used = "batch"
    return system._collect(finish)


def variant_key(system) -> Optional[Variant]:
    """The variant that runs ``system``, or ``None`` to decline."""
    design = system.design
    common = dict(
        mlp=system._mshrs > 1,
        mopen=system.memory.page_policy == "open",
        sopen=system.stacked.page_policy == "open",
        track=bool(design._track_hists),
    )
    kind = type(design)
    if kind is PerfectL3Design:
        return Variant("perfect", mlp=common["mlp"], track=common["track"])
    if kind is NoCacheDesign:
        common["sopen"] = True
        return Variant("nocache", **common)
    if kind is IdealLODesign:
        return Variant("idealo", **common)
    if kind is SramTagDesign or kind is LHCacheDesign:
        repl = _REPL_KINDS.get(type(design.tags.policy))
        if repl is None:
            return None
        family = "sram" if kind is SramTagDesign else "lh"
        return Variant(family, repl=repl, **common)
    if kind is AlloyCacheDesign or kind is AlloyVictimDesign:
        mw = design.cache.ways != 1
        if mw and type(design.cache._store.policy) is not LRUPolicy:
            return None
        if kind is AlloyVictimDesign:
            if type(design.victims.policy) is not LRUPolicy:
                return None
            assoc = "victim"
        else:
            assoc = "mw" if mw else "dm"
        pk = design._pred_kind
        if pk == 3:
            pk = _MAP_KINDS.get(type(design.predictor))
            if pk is None:
                return None
        return Variant("alloy", pk=pk, assoc=assoc, **common)
    return None


# ----------------------------------------------------------------------
# Precompute and flush helpers (called from the generated source)
# ----------------------------------------------------------------------
def _flatten(system, starts, need_pcs, warm=False):
    """Concatenate per-core trace slices into flat arrays.

    The timed slices (``starts[c]:``), or with ``warm`` the warmup
    prefixes (``:starts[c]``). Returns ``(A, G, W, P, D, base, A_np)``:
    ``A``/``G``/``W`` are plain lists (list indexing beats numpy scalar
    extraction on the hot path), ``P`` the PC array when ``need_pcs``,
    ``D`` the per-record dependence flags (timed MLP runs only), ``base``
    per-core start offsets (len = cores + 1) and ``A_np`` the address
    array for the vectorized decodes. Single-core slices are views into
    the (possibly arena-shared) trace arrays; kernels never write
    through them.
    """
    need_dep = system._mshrs > 1 and not warm
    parts_a, parts_g, parts_w, parts_p, parts_d = [], [], [], [], []
    base = [0]
    for core_id, trace in enumerate(system.workload.cores):
        cut = slice(None, starts[core_id]) if warm else slice(starts[core_id], None)
        a = trace.addresses[cut]
        parts_a.append(a)
        parts_w.append(trace.is_write[cut])
        if not warm:
            parts_g.append(trace.gaps[cut])
        if need_pcs:
            parts_p.append(trace.pcs[cut])
        if need_dep:
            parts_d.append(trace.dependent_flags()[cut])
        base.append(base[-1] + len(a))

    def cat(parts):
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    a_np = cat(parts_a)
    return (
        a_np.tolist(),
        cat(parts_g).tolist() if parts_g else None,
        cat(parts_w).tolist(),
        cat(parts_p) if need_pcs else None,
        cat(parts_d).tolist() if need_dep else None,
        base,
        a_np,
    )


def _mem_decode(addr_np, mapping):
    """Vectorized :meth:`AddressMapping.locate` over line addresses.

    Returns ``(bank_index, channel, row)`` lists, with ``bank_index``
    already flattened to ``channel * banks + bank`` (the device's internal
    bank timeline index).
    """
    chunk = addr_np // mapping.lines_per_row
    channel = chunk % mapping.channels
    per_channel = chunk // mapping.channels
    bank = per_channel % mapping.banks
    row = per_channel // mapping.banks
    bank_index = channel * mapping.banks + bank
    return bank_index.tolist(), channel.tolist(), row.tolist()


def _row_decode(row_np, device):
    """Vectorized :meth:`RowMapper.locate` over stacked cache-row ids."""
    channels = device.timings.channels
    banks = device.timings.banks_per_channel
    channel = row_np % channels
    per_channel = row_np // channels
    bank = per_channel % banks
    row = per_channel // banks
    bank_index = channel * banks + bank
    return bank_index.tolist(), channel.tolist(), row.tolist()


def _mact_indices(pcs_np, index_bits):
    """Vectorized :func:`repro.core.predictors.folded_xor` over a PC array."""
    value = pcs_np.astype(np.uint64)
    mask = np.uint64((1 << index_bits) - 1)
    shift = np.uint64(index_bits)
    folded = np.zeros_like(value)
    while value.any():
        folded ^= value & mask
        value >>= shift
    return folded.astype(np.int64).tolist()


def _device_state(dev):
    """The locals :data:`kernelgen.DEVICE_LOCALS` binds: bank/bus horizon
    lists (copied out of the timelines; written back by
    :func:`_device_writeback`), the live open-row list, the ACT + CAS
    latency of a row hit / closed bank / row conflict in int form and as
    the float service cycles the reference attributes
    (``float(act) + float(t_cas)``), and the block caps and watermarks."""
    t = dev.timings
    act_conflict = t.t_rp + t.t_act
    cas_f = float(t.t_cas)
    return (
        [b.demand_free for b in dev._banks],
        [b.all_free for b in dev._banks],
        [b.demand_free for b in dev._buses],
        [b.all_free for b in dev._buses],
        dev._open_row,
        0 + t.t_cas,
        t.t_act + t.t_cas,
        act_conflict + t.t_cas,
        0.0 + cas_f,
        float(t.t_act) + cas_f,
        float(act_conflict) + cas_f,
        dev.block_cap,
        dev.watermark,
        dev.bus_block_cap,
        dev.bus_watermark,
        t.line_burst,
        float(t.line_burst),
    )


def _line_bytes(burst, line_burst):
    """Bytes one access of ``burst`` bus cycles moves (the device's rule)."""
    return int(burst * LINE_SIZE / line_burst)


def _device_writeback(dev, bank_df, bank_af, bus_df, bus_af, accesses,
                      row_hits, reads, writes, background, bus_cycles,
                      bytes_on_bus):
    """Write the horizons back into the device's timelines and add the
    access tallies to its (lazily created) counters."""
    for timeline, demand_free, all_free in zip(dev._banks, bank_df, bank_af):
        timeline.demand_free = demand_free
        timeline.all_free = all_free
    for timeline, demand_free, all_free in zip(dev._buses, bus_df, bus_af):
        timeline.demand_free = demand_free
        timeline.all_free = all_free
    stats = dev.stats
    _flush(stats, "accesses", accesses)
    _flush(stats, "row_hits", row_hits)
    _flush(stats, "activations", accesses - row_hits)
    _flush(stats, "read_accesses", reads)
    _flush(stats, "write_accesses", writes)
    _flush(stats, "background_accesses", background)
    _flush(stats, "bus_cycles", bus_cycles)
    _flush(stats, "bytes_on_bus", bytes_on_bus)


def _flush(group, name, count):
    """Zero-guarded counter flush (preserves lazy counter creation)."""
    if count:
        group.counter(name).value += count


def _fold(acc, samples, hist):
    """Fold ``samples`` (a float64 array in event order) into an
    accumulator, and into ``hist`` when given.

    ``np.add.accumulate`` is a strict left fold, so starting it from the
    accumulator's total reproduces per-sample ``total += v`` bit for bit
    (``sum``, ``np.sum`` and ``math.fsum`` round differently).
    """
    run = np.empty(len(samples) + 1)
    run[0] = acc.total
    run[1:] = samples
    acc.total = float(np.add.accumulate(run)[-1])
    acc.count += len(samples)
    lo = float(samples.min())
    hi = float(samples.max())
    if acc.min is None or lo < acc.min:
        acc.min = lo
    if acc.max is None or hi > acc.max:
        acc.max = hi
    if hist is not None:
        # searchsorted(side='left') is the per-sample bisect_left bucket.
        idx = np.searchsorted(np.asarray(hist.edges, dtype=np.float64),
                              samples, side="left")
        binned = np.bincount(idx, minlength=len(hist.edges) + 1).tolist()
        counts = hist.counts
        for i, n in enumerate(binned):
            if n:
                counts[i] += n


def _writeback_reads(design, records, stages, track):
    """Flush the deferred demand-read statistics into the design's stat
    groups, reproducing the interpreter's lazy-creation key sets (nothing
    is created when no demand read occurred).

    ``records`` is the flat per-read record list, ``(latency, hit, ...)``
    per read; ``stages`` names, per canonical stage, either a record
    column (an int) or a constant every read takes (a float).
    """
    if not records:
        return
    width = 2 + sum(isinstance(stage, int) for stage in stages)
    table = np.frombuffer(array("d", records)).reshape(-1, width)
    latency = table[:, 0]
    hit = table[:, 1] != 0.0
    stats = design.stats
    if hit.any():
        stats.counter("read_hits").value += int(hit.sum())
        _fold(stats.accumulator("hit_latency"), latency[hit],
              design.hit_latency_hist if track else None)
    if not hit.all():
        stats.counter("read_misses").value += int((~hit).sum())
        _fold(stats.accumulator("miss_latency"), latency[~hit], None)
    _fold(stats.accumulator("read_latency"), latency,
          design.read_latency_hist if track else None)
    attributed = None
    for name, stage in zip(STAGES, stages):
        samples = (
            np.full(len(latency), stage) if isinstance(stage, float)
            else table[:, stage]
        )
        _fold(design.stage_stats.accumulator(name), samples,
              design._stage_histogram(name) if track else None)
        attributed = samples if attributed is None else attributed + samples
    # The lifecycle audit, vectorized: |latency - the stages' sum|, summed
    # in canonical stage order. Every read path attributes its stages in
    # an order this matches (absent stages add an exact 0.0).
    gap = np.abs(latency - attributed)
    _fold(stats.accumulator("unattributed_cycles"),
          np.where(gap > ATTRIBUTION_EPSILON, gap, 0.0), None)


# ----------------------------------------------------------------------
# The skeleton: one event loop for every family
# ----------------------------------------------------------------------
#: The timed kernel. Family fragments: ``state`` (functional state and
#: set indices), ``timing`` (stacked-device locals and decodes),
#: ``counters``, ``write``/``read`` (core events; ``read`` sets ``done``
#: and records the read), ``events`` (extra heap event kinds) and
#: ``epilogue`` (counter flushes; sets ``stages``, the record layout).
_KERNEL = """\
def kernel(system, starts, pending):
    design = system.design
    A, G, W, P, D, base, a_np = _flatten(system, starts, $need_pcs)
#if family != "perfect"
    memory = system.memory
    @device_locals(D="m_", dev="memory")
    mb, mc, mr = _mem_decode(a_np, memory.mapping)
    m_lpr = memory.mapping.lines_per_row
    m_ch = memory.mapping.channels
    m_banks = memory.mapping.banks
#endif
    @state
    @timing
    l3 = system._l3_latency
    wic = system._write_issue_cycles
    num_cores = len(base) - 1
    ends = base[1:]
    cur = list(base[:-1])
    finish = [0.0] * num_cores
#if mlp
    mshrs = system._mshrs
    outst = [[] for _ in range(num_cores)]
    last_read = [0.0] * num_cores
#endif
    # One record per demand read: (latency, hit, variable stages...).
    records = []
    rec = records.extend
    n_r = n_w = n_mw = 0
    @counters
    @sites_init
    heap = []
    push = heappush
    pop = heappop
    seq = 0
    for addr in pending:
        push(heap, (0.0, seq, $MEMWRITE, addr, 0))
        seq += 1
    for ci in range(num_cores):
        if cur[ci] < ends[ci]:
            gap = G[cur[ci]]
            push(heap, (gap if gap >= 0.0 else 0.0, seq, $CORE, ci, 0))
            seq += 1
    events = 0
    now = 0.0
    while heap:
        now, _, kind, a, b = pop(heap)
        events += 1
        if kind == $CORE:
            ci = a
#if mlp
            # MLP prologue (interpreter's _handle_core): retire finished
            # reads, stall on a full MSHR file or a dependent read whose
            # producer is still in flight. Each stall is a reschedule —
            # a separate heap pop, like the interpreter's.
            out = outst[ci]
            if out:
                out = [t for t in out if t > now]
                outst[ci] = out
                if len(out) >= mshrs:
                    push(heap, (min(out), seq, $CORE, ci, 0))
                    seq += 1
                    continue
            if D[cur[ci]] and last_read[ci] > now:
                push(heap, (last_read[ci], seq, $CORE, ci, 0))
                seq += 1
                continue
#endif
            g = cur[ci]
            addr = A[g]
            if W[g]:
#if family in ("nocache", "perfect")
                n_w += 1
#endif
                @write
#if mlp
                anchor = completed = now + wic
#else
                completed = now + wic
#endif
            else:
                arrival = now + l3
#if family in ("nocache", "perfect")
                n_r += 1
#endif
                @read
                completed = done if done >= arrival else arrival
#if mlp
                # Compute overlaps the outstanding miss: the next record
                # issues relative to now, not the read's completion.
                outst[ci].append(completed)
                anchor = now
                if completed > last_read[ci]:
                    last_read[ci] = completed
#endif
            if completed > finish[ci]:
                finish[ci] = completed
            g += 1
            cur[ci] = g
            if g < ends[ci]:
#if mlp
                nxt = anchor + G[g]
#else
                nxt = completed + G[g]
#endif
                push(heap, (nxt if nxt >= now else now, seq, $CORE, ci, 0))
                seq += 1
#if family != "perfect"
        elif kind == $MEMWRITE:
            n_mw += 1
            chunk = a // m_lpr
            ch = chunk % m_ch
            per = chunk // m_ch
            bk = ch * m_banks + per % m_banks
            row = per // m_banks
            @reserve(D="m_", now="now", burst="m_lb", write=True)
#endif
        @events
    @epilogue
#if family != "perfect"
    @device_flush(D="m_", dev="memory")
#endif
    _writeback_reads(design, records, stages, $track)
    system.events_processed += events
    system.now = now
    return finish
"""

#: The functional warmup over the records before each core's split
#: (no time, no devices): the family's ``warm_write``/``warm_read``
#: fragments, then ``warm_flush``. Untimed (``timed=False``), a victim
#: overflow is collected in ``pending``; the kernel seeds those writebacks
#: at time zero ahead of the core events, as the interpreter pops them.
_WARM = """\
def warm(system, starts, pending):
#if family not in ("nocache", "perfect")
    design = system.design
    A, _, W, P, _, base, a_np = _flatten(system, starts, $need_pcs, True)
    @state
    @counters
    for ci in range(len(base) - 1):
        for g in range(base[ci], base[ci + 1]):
            addr = A[g]
            if W[g]:
                @warm_write(timed=False)
            else:
                @warm_read(timed=False)
    @warm_flush
#else
    pass
#endif
"""

# ----------------------------------------------------------------------
# Fragments shared by several families
# ----------------------------------------------------------------------
_SHARED = {
    # Direct-mapped lookup of ``addr`` in set ``i`` (tags/dirty lists).
    "dm_lookup": """\
        if tags[i] == addr:
        #if write
            dirty[i] = True
        #endif
            t_hit += 1
            hit = True
        else:
            t_miss += 1
            hit = False
    """,
    # DirectMappedCache.fill($addr, dirty=$dirty) into set ``i``: sets
    # ev_valid / ev_dirty / ev_addr.
    "dm_fill": """\
        ev_addr = tags[i]
        if ev_addr == $addr:
        #if dirty != "False"
            if $dirty:
                dirty[i] = True
        #endif
            ev_valid = ev_dirty = False
        else:
            if ev_addr != -1:
                ev_valid = True
                ev_dirty = dirty[i]
                t_evict += 1
                if ev_dirty:
                    t_devict += 1
            else:
                ev_valid = ev_dirty = False
            tags[i] = $addr
            dirty[i] = $dirty
            t_fill += 1
    """,
    # SetAssocCache.lookup of ``addr`` in set ``i`` (policy code $repl).
    "sa_lookup": """\
        cset = sets[i]
        way = cset.index_map.get(addr)
        if way is None:
            t_miss += 1
        #if repl == 2
            r = i % dp
            if r == 0:
                if pol.psel < pmax:
                    pol.psel += 1
            elif r == 1:
                if pol.psel > 0:
                    pol.psel -= 1
        #endif
            hit = False
        else:
        #if repl
            state = cset.policy_state
            state.remove(way)
            state.insert(0, way)
        #endif
        #if write
            cset.dirty[way] = True
        #endif
            t_hit += 1
            hit = True
    """,
    # SetAssocCache.fill($addr) into set ``i`` plus the policy's
    # on_insert: sets ev_valid / ev_dirty / ev_addr.
    "sa_fill": """\
        cset = sets[i]
        ctags = cset.tags
        imap = cset.index_map
        way = imap.get($addr)
        ev_valid = ev_dirty = False
        if way is None:
            if -1 in ctags:
                way = ctags.index(-1)
            else:
        #if repl
                way = cset.policy_state[-1]
        #else
                way = rng_below(cset.policy_state)
        #endif
                ev_valid = True
                ev_addr = ctags[way]
                ev_dirty = cset.dirty[way]
                del imap[ev_addr]
                t_evict += 1
                if ev_dirty:
                    t_devict += 1
            ctags[way] = $addr
            imap[$addr] = way
            cset.dirty[way] = False
            t_fill += 1
        #if repl == 1
        state = cset.policy_state
        state.remove(way)
        state.insert(0, way)
        #elif repl == 2
        state = cset.policy_state
        state.remove(way)
        r = i % dp
        if r == 0:
            lru_ins = True
        elif r == 1:
            lru_ins = False
        else:
            lru_ins = pol.psel < half
        if lru_ins or rng_below(bip_inv) == 0:
            state.insert(0, way)
        else:
            state.append(way)
        #endif
    """,
    # The tag store ``store`` (bound by the family's ``state``): its
    # locals for the lookup/fill fragments and the set index of every
    # record.
    "store_state": """\
        #if setassoc
        sets = store._sets
        pol = store.policy
        #if repl == 2
        dp = pol.dueling_period
        pmax = pol.psel_max
        half = (pol.psel_max + 1) // 2
        bip_inv = pol.bip_epsilon_inverse
        #endif
        #if repl != 1
        # randrange(n) is _randbelow(n) for n > 0: the same draws, one
        # Python frame fewer per BIP insertion or random victim.
        rng_below = pol._rng._randbelow
        #endif
        #else
        tags = store._tags
        dirty = store._dirty
        #endif
        si_np = a_np % store.num_sets
        SI = si_np.tolist()
    """,
    # Lookup of record ``g``'s line (``addr``) in the tag store.
    "lookup": """\
        i = SI[g]
        #if setassoc
        @sa_lookup(write=$write)
        #else
        @dm_lookup(write=$write)
        #endif
    """,
    "fill": """\
        #if setassoc
        @sa_fill(addr="$addr")
        #else
        @dm_fill(addr="$addr", dirty="False")
        #endif
    """,
    "store_counters": """\
        t_hit = t_miss = t_fill = t_evict = t_devict = 0
    """,
    "store_flush": """\
        _flush(store.stats, "hits", t_hit)
        _flush(store.stats, "misses", t_miss)
        _flush(store.stats, "fills", t_fill)
        _flush(store.stats, "evictions", t_evict)
        _flush(store.stats, "dirty_evictions", t_devict)
    """,
    # Warmup defaults: the tag store's functional lookup and fill.
    "warm_write": """\
        @lookup(write=True)
    """,
    "warm_read": """\
        @lookup(write=False)
        if not hit:
            @fill(addr="addr")
    """,
    "warm_flush": """\
        @store_flush
    """,
    # MissMap.insert / MissMap.remove, segment accounting included.
    "mm_state": """\
        mm_present = $missmap._present
        mm_pop = $missmap._segment_population
        mm_pop_get = mm_pop.get
    """,
    "mm_insert": """\
        if $addr not in mm_present:
            mm_present.add($addr)
            seg = $addr // MM_LINES_PER_SEGMENT
            mm_pop[seg] = mm_pop_get(seg, 0) + 1
    """,
    "mm_remove": """\
        if $addr in mm_present:
            mm_present.discard($addr)
            seg = $addr // MM_LINES_PER_SEGMENT
            remaining = mm_pop[seg] - 1
            if remaining:
                mm_pop[seg] = remaining
            else:
                del mm_pop[seg]
    """,
    # Stacked-row coordinates of record $g.
    "stacked_loc": """\
        bk = sb[$g]
        ch = sc[$g]
        row = sr[$g]
    """,
    "memory_loc": """\
        bk = mb[$g]
        ch = mc[$g]
        row = mr[$g]
    """,
}

# ----------------------------------------------------------------------
# Family fragments
# ----------------------------------------------------------------------
_NOCACHE = {
    # Every read misses to memory; every write is posted off-chip.
    "state": "",
    "timing": "",
    "counters": "",
    "write": """\
        push(heap, (now, seq, $MEMWRITE, addr, 0))
        seq += 1
    """,
    "read": """\
        @memory_loc(g="g")
        @reserve(D="m_", demand=True, now="arrival", burst="m_lb", burst_f="m_lbf",
                 done="done", q="q", serv="serv")
        rec((done - arrival, False, q, serv))
    """,
    "events": "",
    "epilogue": """\
        _flush(design.stats, "write_misses", n_w)
        _flush(design.stats, "memory_reads", n_r)
        _flush(design.stats, "memory_writes", n_mw)
        stages = (2, 0.0, 0.0, 0.0, 3)
    """,
}

_PERFECT = {
    # A read completes at its L3 arrival (a zero-latency hit, every stage
    # zero); a write is a write hit with no memory traffic.
    "state": "",
    "timing": "",
    "counters": "",
    "write": "",
    "read": """\
        done = arrival
    """,
    "events": "",
    "epilogue": """\
        _flush(design.stats, "write_hits", n_w)
        records = [0.0, True] * n_r
        stages = (0.0,) * len(STAGES)
    """,
}

_IDEALO = {
    "state": """\
        store = design.cache
        @store_state
    """,
    "timing": """\
        stacked = system.stacked
        @device_locals(D="s_", dev="stacked")
        sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
    """,
    "counters": """\
        @store_counters
        n_mr = n_wh = n_wm = n_drh = n_fills = 0
    """,
    "write": """\
        @lookup(write=True)
        if hit:
            n_wh += 1
            push(heap, (now, seq, $STACKWRITE, g, 0))
        else:
            n_wm += 1
            push(heap, (now, seq, $MEMWRITE, addr, 0))
        seq += 1
    """,
    "read": """\
        @lookup(write=False)
        if hit:
            @stacked_loc(g="g")
            @reserve(D="s_", demand=True, now="arrival", burst="s_lb", burst_f="s_lbf",
                     done="done", q="q", serv="serv", rh_count="n_drh")
            rec((done - arrival, True, q, serv, 0.0))
        else:
            n_mr += 1
            @memory_loc(g="g")
            @reserve(D="m_", demand=True, now="arrival", burst="m_lb", burst_f="m_lbf",
                     done="done", q="q", serv="serv")
            push(heap, (done if done >= now else now, seq, $FILL, g, 0))
            seq += 1
            rec((done - arrival, False, q, 0.0, serv))
    """,
    "events": """\
        elif kind == $FILL:
            addr = A[a]
            i = SI[a]
            @stacked_loc(g="a")
            @fill(addr="addr")
            t = now
            if ev_dirty:
                @reserve(D="s_", now="now", burst="s_lb", done="t")
                push(heap, (t if t >= now else now, seq, $MEMWRITE, ev_addr, 0))
                seq += 1
            @reserve(D="s_", now="t", burst="s_lb", write=True)
            n_fills += 1
        else:  # $STACKWRITE
            @stacked_loc(g="a")
            @reserve(D="s_", now="now", burst="s_lb", write=True)
    """,
    "epilogue": """\
        @device_flush(D="s_", dev="stacked")
        stats = design.stats
        _flush(stats, "row_hits", n_drh)
        _flush(stats, "write_hits", n_wh)
        _flush(stats, "write_misses", n_wm)
        _flush(stats, "memory_reads", n_mr)
        _flush(stats, "memory_writes", n_mw)
        _flush(stats, "fills", n_fills)
        @store_flush
        stages = (2, 0.0, 0.0, 3, 4)
    """,
}

_SRAM = {
    "state": """\
        store = design.tags
        @store_state
    """,
    "timing": """\
        stacked = system.stacked
        @device_locals(D="s_", dev="stacked")
        sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
        tsl = design.config.sram_tag_latency
        tslf = float(tsl)
    """,
    "counters": """\
        @store_counters
        n_mr = n_wh = n_wm = n_vr = n_fills = 0
    """,
    # The SRAM tags resolve hit/miss at TSL, before any data access.
    "write": """\
        @lookup(write=True)
        if hit:
            n_wh += 1
            push(heap, (now + tsl, seq, $STACKWRITE, g, 0))
        else:
            n_wm += 1
            push(heap, (now + tsl, seq, $MEMWRITE, addr, 0))
        seq += 1
    """,
    "read": """\
        t_tag = arrival + tsl
        @lookup(write=False)
        if hit:
            @stacked_loc(g="g")
            @reserve(D="s_", demand=True, now="t_tag", burst="s_lb", burst_f="s_lbf",
                     done="done", q="q", serv="serv")
            rec((done - arrival, True, q, serv, 0.0))
        else:
            n_mr += 1
            @memory_loc(g="g")
            @reserve(D="m_", demand=True, now="t_tag", burst="m_lb", burst_f="m_lbf",
                     done="done", q="q", serv="serv")
            push(heap, (done, seq, $FILL, g, 0))
            seq += 1
            rec((done - arrival, False, q, 0.0, serv))
    """,
    # A fill reads a dirty victim out first, then writes the line.
    "events": """\
        elif kind == $FILL:
            addr = A[a]
            i = SI[a]
            @fill(addr="addr")
            @stacked_loc(g="a")
            if ev_dirty:
                @reserve(D="s_", now="now", burst="s_lb", done="vdone")
                n_vr += 1
                push(heap, (vdone, seq, $MEMWRITE, ev_addr, 0))
                seq += 1
                @reserve(D="s_", now="vdone", burst="s_lb", write=True, chained=True)
            else:
                @reserve(D="s_", now="now", burst="s_lb", write=True)
            n_fills += 1
        else:  # $STACKWRITE
            @stacked_loc(g="a")
            @reserve(D="s_", now="now", burst="s_lb", write=True)
    """,
    "epilogue": """\
        @device_flush(D="s_", dev="stacked")
        stats = design.stats
        _flush(stats, "write_hits", n_wh)
        _flush(stats, "write_misses", n_wm)
        _flush(stats, "memory_reads", n_mr)
        _flush(stats, "memory_writes", n_mw)
        _flush(stats, "victim_reads", n_vr)
        _flush(stats, "fills", n_fills)
        @store_flush
        stages = (2, 0.0, tslf, 3, 4)
    """,
}

_LH = {
    "state": """\
        store = design.tags
        @store_state
        missmap = design.missmap
        @mm_state(missmap="missmap")
    """,
    "timing": """\
        stacked = system.stacked
        @device_locals(D="s_", dev="stacked")
        sb, sc, sr = _row_decode(si_np // design.sets_per_row, stacked)
        mml = design._missmap_latency
        mmlf = design._missmap_latency_f
        tag_b = design._tag_burst_v
        tag_bf = float(tag_b)
        lb = design._line_burst_v
        lb_f = float(lb)
        ub = design._update_burst_v
        tcc = TAG_CHECK_CYCLES
    """,
    "counters": """\
        @store_counters
        n_mmh = n_mmm = n_mr = n_wh = n_wm = n_vr = n_fills = 0
    """,
    # The MissMap gates both paths (PSL); the tag array must agree.
    "write": """\
        t0 = now + mml
        present = addr in mm_present
        @lookup(write=True)
        assert present == hit, "MissMap diverged from the tag array"
        if hit:
            n_mmh += 1
            n_wh += 1
            push(heap, (t0, seq, $WHT, g, 0))
        else:
            n_mmm += 1
            n_wm += 1
            push(heap, (t0, seq, $MEMWRITE, addr, 0))
        seq += 1
    """,
    # A hit is the compound access: tag read, data read and (DIP/LRU) the
    # replacement-metadata write, all on one bank and row.
    "read": """\
        t0 = arrival + mml
        present = addr in mm_present
        @lookup(write=False)
        assert present == hit, "MissMap diverged from the tag array"
        if hit:
            n_mmh += 1
            @stacked_loc(g="g")
            @reserve(D="s_", demand=True, now="t0", burst="tag_b", burst_f="tag_bf",
                     done="done_t", q="q_t", serv="serv_t")
            now2 = done_t + tcc
            @reserve(D="s_", demand=True, now="now2", burst="lb", burst_f="lb_f",
                     done="done", q="q_d", serv="serv_d", chained=True)
        #if repl
            # LRU/DIP state lives in the tag lines: the update write.
            @reserve(D="s_", demand=True, now="done", burst="ub", write=True,
                     chained=True)
        #endif
            rec((done - arrival, True, q_t + q_d, serv_t + tcc, serv_d, 0.0))
        else:
            n_mmm += 1
            n_mr += 1
            @memory_loc(g="g")
            @reserve(D="m_", demand=True, now="t0", burst="m_lb", burst_f="m_lbf",
                     done="done", q="q", serv="serv")
            push(heap, (done, seq, $FILL, g, 0))
            seq += 1
            rec((done - arrival, False, q, 0.0, 0.0, serv))
    """,
    # A fill: tag read, (dirty victim read,) data write, tag-line update.
    "events": """\
        elif kind == $FILL:
            addr = A[a]
            @stacked_loc(g="a")
            @reserve(D="s_", now="now", burst="tag_b", done="td")
            i = SI[a]
            @fill(addr="addr")
            @mm_insert(addr="addr")
            t = td + tcc
            if ev_valid:
                @mm_remove(addr="ev_addr")
                if ev_dirty:
                    @reserve(D="s_", now="t", burst="lb", done="t", chained=True)
                    n_vr += 1
                    push(heap, (t, seq, $MEMWRITE, ev_addr, 0))
                    seq += 1
            @reserve(D="s_", now="t", burst="lb", done="dw", write=True, chained=True)
            @reserve(D="s_", now="dw", burst="lb", write=True, chained=True)
            n_fills += 1
        else:  # $WHT: write-hit traffic, tag read then data write
            @stacked_loc(g="a")
            @reserve(D="s_", now="now", burst="tag_b", done="td")
            t = td + tcc
            @reserve(D="s_", now="t", burst="lb", write=True, chained=True)
    """,
    "epilogue": """\
        @device_flush(D="s_", dev="stacked")
        stats = design.stats
        n_hits = n_mmh - n_wh
        # A compound data read re-activates its row under the closed
        # policy; with open pages it always hits the row the tags opened.
        #if not sopen
        _flush(stats, "compound_row_reopens", n_hits)
        #endif
        #if repl
        _flush(stats, "replacement_updates", n_hits)
        #endif
        _flush(stats, "write_hits", n_wh)
        _flush(stats, "write_misses", n_wm)
        _flush(stats, "memory_reads", n_mr)
        _flush(stats, "memory_writes", n_mw)
        _flush(stats, "victim_reads", n_vr)
        _flush(stats, "fills", n_fills)
        @store_flush
        _flush(missmap.stats, "lookups", n_mmh + n_mmm)
        _flush(missmap.stats, "predicted_hits", n_mmh)
        _flush(missmap.stats, "predicted_misses", n_mmm)
        stages = (2, mmlf, 3, 4, 5)
    """,
    "warm_read": """\
        @lookup(write=False)
        if not hit:
            @fill(addr="addr")
            @mm_insert(addr="addr")
            if ev_valid:
                @mm_remove(addr="ev_addr")
    """,
}

_ALLOY = {
    "state": """\
        store = design.cache._store
        @store_state
        #if assoc == "victim"
        vset = design.victims._sets[0]
        vtags = vset.tags
        vdirty = vset.dirty
        vstate = vset.policy_state
        vimap = vset.index_map
        #endif
        #if pk == 1
        missmap = design._missmap
        @mm_state(missmap="missmap")
        #endif
        predictor = design.predictor
        #if pk == 3
        mact = predictor._mact
        IDX = _mact_indices(P, predictor._index_bits)
        #elif pk == 4
        mac_g = predictor._mac
        #endif
    """,
    "timing": """\
        stacked = system.stacked
        @device_locals(D="s_", dev="stacked")
        sb, sc, sr = _row_decode(si_np // design._sets_per_row, stacked)
        slot_np = si_np % design._sets_per_row
        bursts = np.asarray(design._burst_by_slot, dtype=np.int64)
        BU = bursts[slot_np].tolist()
        BUF = bursts.astype(np.float64)[slot_np].tolist()
        BY = np.asarray([_line_bytes(b, s_lb) for b in design._burst_by_slot],
                        dtype=np.int64)[slot_np].tolist()
        #if pk >= 3
        plat = design._pred_latency
        #elif pk == 1
        mml = design._missmap_latency
        #endif
        vhc = VICTIM_HIT_CYCLES
        vhcf = float(VICTIM_HIT_CYCLES)
    """,
    "counters": """\
        @store_counters
        pm = pc_ = 0  # predictor _note tallies
        s_mm = s_mc = s_cm = s_cc = 0  # Table 5 scenarios
        n_mr = n_wh = n_wm = n_trh = n_wasted = n_fills = 0
        v_h = v_m = v_f = v_evict = v_devict = 0
    """,
    # Predictor training toward ``up`` (memory) or down (cache).
    "train": """\
        #if pk == 3
        row_m = mact[ci]
        i2 = IDX[g]
        m2 = row_m[i2]
        #if up
        row_m[i2] = m2 + 1 if m2 < 7 else 7
        #else
        row_m[i2] = m2 - 1 if m2 > 0 else 0
        #endif
        #elif pk == 4
        m2 = mac_g[ci]
        #if up
        mac_g[ci] = m2 + 1 if m2 < 7 else 7
        #else
        mac_g[ci] = m2 - 1 if m2 > 0 else 0
        #endif
        #endif
    """,
    # victims.fill($addr, dirty=$dirty) on the single LRU set; a dirty
    # overflow goes to memory (at $now when timed, else after warmup).
    "stash": """\
        w = vimap.get($addr)
        if w is None:
            if -1 in vtags:
                w = vtags.index(-1)
            else:
                w = vstate[-1]
                ov_addr = vtags[w]
                del vimap[ov_addr]
                v_evict += 1
                if vdirty[w]:
                    v_devict += 1
        #if timed
                    push(heap, ($now, seq, $MEMWRITE, ov_addr, 0))
                    seq += 1
        #else
                    pending.append(ov_addr)
        #endif
            vtags[w] = $addr
            vimap[$addr] = w
            vdirty[w] = $dirty
            v_f += 1
        elif $dirty:
            vdirty[w] = True
        vstate.remove(w)
        vstate.insert(0, w)
    """,
    # A victim-buffer hit swaps the line back into the TAD array; the
    # displaced occupant takes its place in the buffer.
    "swap_back": """\
        vstate.remove(vway)
        vstate.insert(0, vway)
        v_h += 1
        was_d = vdirty[vway]
        del vimap[addr]
        vtags[vway] = -1
        vdirty[vway] = False
        i = SI[g]
        @dm_fill(addr="addr", dirty="was_d")
        if ev_valid:
            @stash(addr="ev_addr", dirty="ev_dirty", now="now")
    """,
    "write": """\
        @lookup(write=True)
        if hit:
            n_wh += 1
        else:
            n_wm += 1
        push(heap, (now, seq, $WTRAFFIC, g, hit))
        seq += 1
    """,
    "read": """\
        #if assoc == "victim"
        vway = vimap.get(addr)
        if vway is None:
            v_m += 1
            @probe
        else:
            # SRAM victim-buffer hit: fixed-latency service, no DRAM or
            # predictor probe.
            s_cc += 1
            done = arrival + vhc
            rec((done - arrival, True, 0.0, 0.0, 0.0, vhcf, 0.0))
            @train(up=False)
            @swap_back
            push(heap, (arrival, seq, $STACKWRITE, g, 0))
            seq += 1
        #else
        @probe
        #endif
    """,
    # Predict, probe the TAD, then (miss) go to memory in parallel (PAM)
    # or after the probe (SAM).
    "probe": """\
        @lookup(write=False)
        #if pk == 3
        p = mact[ci][IDX[g]] >= 4
        #elif pk == 4
        p = mac_g[ci] >= 4
        #elif pk == 1 or pk == 2
        p = not hit
        #else
        p = $pam
        #endif
        #if pk >= 2
        if p:
            pm += 1
        else:
            pc_ += 1
        #endif
        #if pk >= 3
        pready = arrival + plat
        #elif pk == 1
        pready = arrival + mml
        #else
        pready = arrival
        #endif
        if p:
            if hit:
                s_mc += 1
            else:
                s_mm += 1
        elif hit:
            s_cc += 1
        else:
            s_cm += 1
        pd = pready - arrival
        @stacked_loc(g="g")
        bu = BU[g]
        @reserve(D="s_", demand=True, now="pready", burst="bu", burst_f="BUF[g]",
                 bytes="BY[g]", done="done_t", q="q_t", serv="serv_t", rh_count="n_trh")
        if hit:
            if p:
                n_mr += 1
                n_wasted += 1
                @memory_loc(g="g")
                @reserve(D="m_", demand=True, now="pready", burst="m_lb")
            done = done_t
            rec((done - arrival, True, q_t, pd, 0.0, serv_t, 0.0))
            @train(up=False)
        else:
            n_mr += 1
            @memory_loc(g="g")
            if p:  # PAM: parallel memory access
                @reserve(D="m_", demand=True, now="pready", burst="m_lb",
                         burst_f="m_lbf", done="done_m", q="q_m", serv="serv_m")
                # The critical leg is attributed; the other overlaps it.
                if done_t > done_m:
                    done = done_t
                    rec((done - arrival, False, q_t, pd, serv_t, 0.0, 0.0))
                else:
                    done = done_m
                    rec((done - arrival, False, q_m, pd, 0.0, 0.0, serv_m))
            else:  # SAM: serialized after the probe
                @reserve(D="m_", demand=True, now="done_t", burst="m_lb",
                         burst_f="m_lbf", done="done", q="q_m", serv="serv_m")
                rec((done - arrival, False, q_t + q_m, pd, serv_t, 0.0, serv_m))
            @train(up=True)
            push(heap, (done, seq, $FILL, g, 0))
            seq += 1
    """,
    "events": """\
        elif kind == $FILL:
            addr = A[a]
            i = SI[a]
            @fill(addr="addr")
        #if pk == 1
            @mm_insert(addr="addr")
            if ev_valid:
                @mm_remove(addr="ev_addr")
        #endif
        #if assoc == "victim"
            # Displaced lines (clean or dirty) go to the victim buffer.
            if ev_valid:
                @stash(addr="ev_addr", dirty="ev_dirty", now="now")
        #else
            if ev_dirty:
                push(heap, (now, seq, $MEMWRITE, ev_addr, 0))
                seq += 1
        #endif
            @stacked_loc(g="a")
            bu = BU[a]
            @reserve(D="s_", now="now", burst="bu", bytes="BY[a]", write=True)
            n_fills += 1
        #if assoc == "victim"
        elif kind == $STACKWRITE:  # victim swap-back TAD refill
            @stacked_loc(g="a")
            bu = BU[a]
            @reserve(D="s_", now="now", burst="bu", bytes="BY[a]", write=True)
        #endif
        else:  # $WTRAFFIC: probe the TAD, then write it or go to memory
            @stacked_loc(g="a")
            bu = BU[a]
            @reserve(D="s_", now="now", burst="bu", bytes="BY[a]", done="probe_done")
            if b:
                @reserve(D="s_", now="probe_done", burst="bu", bytes="BY[a]",
                         write=True, chained=True)
            else:
                n_mw += 1
                @memory_loc(g="a")
                @reserve(D="m_", now="probe_done", burst="m_lb", write=True)
    """,
    "epilogue": """\
        @device_flush(D="s_", dev="stacked")
        stats = design.stats
        _flush(stats, "pred_mem_actual_mem", s_mm)
        _flush(stats, "pred_mem_actual_cache", s_mc)
        _flush(stats, "pred_cache_actual_mem", s_cm)
        _flush(stats, "pred_cache_actual_cache", s_cc)
        _flush(stats, "tad_row_hits", n_trh)
        _flush(stats, "wasted_memory_reads", n_wasted)
        _flush(stats, "write_hits", n_wh)
        _flush(stats, "write_misses", n_wm)
        _flush(stats, "memory_reads", n_mr)
        _flush(stats, "memory_writes", n_mw)
        _flush(stats, "fills", n_fills)
        @warm_flush
        #if assoc == "victim"
        _flush(stats, "victim_hits", v_h)
        _flush(design.victims.stats, "misses", v_m)
        #endif
        #if pk >= 2
        predictor.predicted_memory += pm
        predictor.predicted_cache += pc_
        #endif
        stages = (2, 3, 4, 5, 6)
    """,
    "warm_read": """\
        #if assoc == "victim"
        vway = vimap.get(addr)
        if vway is not None:
            @swap_back
            @train(up=False)
            continue
        #endif
        @lookup(write=False)
        if hit:
            @train(up=False)
        else:
            @fill(addr="addr")
        #if pk == 1
            @mm_insert(addr="addr")
            if ev_valid:
                @mm_remove(addr="ev_addr")
        #endif
        #if assoc == "victim"
            if ev_valid:
                @stash(addr="ev_addr", dirty="ev_dirty", now="0.0")
        #endif
            @train(up=True)
    """,
    "warm_flush": """\
        @store_flush
        #if assoc == "victim"
        vstats = design.victims.stats
        _flush(vstats, "hits", v_h)
        _flush(vstats, "fills", v_f)
        _flush(vstats, "evictions", v_evict)
        _flush(vstats, "dirty_evictions", v_devict)
        #endif
    """,
}

_FAMILIES = {
    "nocache": _NOCACHE,
    "perfect": _PERFECT,
    "idealo": _IDEALO,
    "sram": _SRAM,
    "lh": _LH,
    "alloy": _ALLOY,
}

#: Names the generated source resolves as globals.
_NAMESPACE = dict(
    np=np,
    heappush=heappush,
    heappop=heappop,
    MM_LINES_PER_SEGMENT=_MM_LINES_PER_SEGMENT,
    STAGES=STAGES,
    TAG_CHECK_CYCLES=TAG_CHECK_CYCLES,
    VICTIM_HIT_CYCLES=VICTIM_HIT_CYCLES,
    _device_state=_device_state,
    _device_writeback=_device_writeback,
    _flatten=_flatten,
    _flush=_flush,
    _line_bytes=_line_bytes,
    _mact_indices=_mact_indices,
    _mem_decode=_mem_decode,
    _row_decode=_row_decode,
    _writeback_reads=_writeback_reads,
)


@functools.lru_cache(maxsize=None)
def compile_variant(key: Variant) -> kernelgen.Compiled:
    """Generate and compile ``key``'s kernel and warmup (once per process;
    ``compile_variant.cache_info()`` counts the compiles). The cache is
    unbounded: the key space is a few hundred variants at most."""
    flags = dict(key._asdict(), **_EVENTS)
    flags.update(
        need_pcs=key.pk == 3,
        pam=key.pk == 6,
        setassoc=key.family in ("sram", "lh") or key.assoc == "mw",
        timed=True,
    )
    return kernelgen.build(
        "-".join(str(v) for v in key), flags,
        {**_SHARED, **_FAMILIES[key.family]}, [_WARM, _KERNEL], _NAMESPACE,
    )


# ----------------------------------------------------------------------
# The fast device access, for the differential fuzzer
# ----------------------------------------------------------------------
_DEVICE_FNS = """\
def device_fns(dev):
    @device_locals(D="d_", dev="dev")
    n_dem = n_bg = n_wr = 0

    def demand(now, bk, ch, row, burst, is_write):
        nonlocal d_rh, d_vbus, d_vbyt, n_dem, n_wr
        @reserve(D="d_", demand=True, now="now", burst="burst", burst_f="float(burst)",
                 bytes="_line_bytes(burst, d_lb)", done="done", q="q", serv="serv",
                 rh="row_hit", site="n_dem")
        if is_write:
            n_wr += 1
        return done, row_hit, q, serv

    def background(now, bk, ch, row, burst, is_write):
        nonlocal d_rh, d_vbus, d_vbyt, n_bg, n_wr
        @reserve(D="d_", now="now", burst="burst", bytes="_line_bytes(burst, d_lb)",
                 done="done", site="n_bg")
        if is_write:
            n_wr += 1
        return done

    def flush():
        accesses = n_dem + n_bg
        _device_writeback(
            dev, d_bdf, d_baf, d_udf, d_uaf, accesses, d_rh,
            accesses - n_wr, n_wr, n_bg, d_vbus, d_vbyt,
        )

    return demand, background, flush, (d_bdf, d_baf, d_udf, d_uaf)
"""


@functools.lru_cache(maxsize=None)
def _compile_device_fns(open_page: bool) -> kernelgen.Compiled:
    return kernelgen.build(
        f"device-fns-{'open' if open_page else 'closed'}",
        {"dopen": open_page}, {}, [_DEVICE_FNS], _NAMESPACE,
    )


def _device_fns(dev):
    """Build ``(demand, background, flush, horizons)`` over one device.

    The two closures splice the same reservation fragment the kernels do
    (:data:`repro.sim.kernelgen.RESERVE`), with the burst and write flag
    as runtime arguments: ``demand`` returns ``(done, row_hit,
    queue_cycles, service_cycles)`` pre-combined the way
    :meth:`LatencyBreakdown.attribute_device` folds them; ``background``
    returns ``done``. ``flush`` writes the horizons back and adds the
    counter tallies to ``dev.stats``, so the device then holds the
    reference's state. Open rows are the device's own list; under the
    closed policy the fragment assumes it starts all-closed, as a fresh
    device does.
    """
    return _compile_device_fns(dev.page_policy == "open")["device_fns"](dev)
