"""Tests for the resource-timeline DRAM device, anchored to Figure 3."""

import pytest

from repro.dram.device import BACKGROUND_BACKLOG_OPS, DramDevice, PriorityTimeline
from repro.dram.mapping import RowLocation
from repro.dram.timings import OFFCHIP_DDR3, STACKED_DRAM


@pytest.fixture
def memory():
    return DramDevice(OFFCHIP_DDR3)


@pytest.fixture
def stacked():
    return DramDevice(STACKED_DRAM)


LOC = RowLocation(channel=0, bank=0, row=0)
OTHER_ROW = RowLocation(channel=0, bank=0, row=7)
OTHER_BANK = RowLocation(channel=0, bank=1, row=0)
OTHER_CHANNEL = RowLocation(channel=1, bank=0, row=0)


class TestIsolatedLatencies:
    """Isolated accesses must reproduce the paper's Figure 3 numbers."""

    def test_memory_row_miss_is_88_cycles(self, memory):
        result = memory.access(0.0, LOC)
        assert result.done == 88  # ACT 36 + CAS 36 + bus 16 (type Y)

    def test_memory_row_hit_is_52_cycles(self, memory):
        memory.access(0.0, LOC)
        result = memory.access(1000.0, LOC)
        assert result.done - 1000.0 == 52  # CAS 36 + bus 16 (type X)

    def test_stacked_row_miss_is_40_cycles(self, stacked):
        assert stacked.access(0.0, LOC).done == 40  # 18 + 18 + 4

    def test_stacked_row_hit_is_22_cycles(self, stacked):
        stacked.access(0.0, LOC)
        result = stacked.access(500.0, LOC)
        assert result.done - 500.0 == 22

    def test_tad_burst_adds_one_cycle(self, stacked):
        # An 80 B TAD costs one extra bus beat over a 64 B line.
        line = stacked.access(0.0, LOC, burst_cycles=4).done
        stacked.reset()
        tad = stacked.access(0.0, LOC, burst_cycles=5).done
        assert tad - line == 1


class TestRowBuffer:
    def test_row_hit_flag(self, stacked):
        assert not stacked.access(0.0, LOC).row_hit
        assert stacked.access(100.0, LOC).row_hit

    def test_row_conflict_closes_row(self, stacked):
        stacked.access(0.0, LOC)
        assert not stacked.access(100.0, OTHER_ROW).row_hit
        assert not stacked.access(200.0, LOC).row_hit

    def test_open_row_tracking(self, stacked):
        stacked.access(0.0, LOC)
        assert stacked.open_row_at(LOC) == 0
        assert stacked.would_row_hit(LOC)
        assert not stacked.would_row_hit(OTHER_ROW)

    def test_row_hit_rate_stat(self, stacked):
        stacked.access(0.0, LOC)
        stacked.access(100.0, LOC)
        assert stacked.row_hit_rate == pytest.approx(0.5)


class TestContention:
    def test_same_bank_queues(self, stacked):
        first = stacked.access(0.0, LOC)
        second = stacked.access(0.0, LOC)
        assert second.start >= first.done
        assert second.queue_delay > 0

    def test_other_bank_does_not_queue(self, stacked):
        stacked.access(0.0, LOC)
        result = stacked.access(0.0, OTHER_BANK)
        assert result.queue_delay == 0

    def test_other_channel_independent(self, stacked):
        stacked.access(0.0, LOC)
        result = stacked.access(0.0, OTHER_CHANNEL)
        assert result.done == 40

    def test_bus_shared_within_channel(self, stacked):
        # Two banks on one channel contend for the data bus.
        a = stacked.access(0.0, LOC)
        b = stacked.access(0.0, OTHER_BANK)
        assert b.done >= a.done  # second burst serialized on the bus

    def test_timeline_monotone(self, stacked):
        last = 0.0
        for i in range(20):
            result = stacked.access(float(i), LOC)
            assert result.done >= last
            last = result.done


class TestPriority:
    def test_demand_barely_blocked_by_one_background_op(self, stacked):
        stacked.access(0.0, LOC, background=True)
        demand = stacked.access(0.0, LOC)
        # Blocked by at most one burst tail (t_cas + line_burst = 22).
        assert demand.queue_delay <= 22

    def test_demand_blocked_fully_by_demand(self, stacked):
        first = stacked.access(0.0, LOC)
        second = stacked.access(0.0, LOC)
        assert second.start >= first.done

    def test_background_queues_behind_background(self, stacked):
        a = stacked.access(0.0, LOC, background=True)
        b = stacked.access(0.0, LOC, background=True)
        assert b.start >= a.done - 5  # service ordering preserved

    def test_heavy_backlog_throttles_demand(self, stacked):
        # Pile up far more background work than the write-buffer watermark:
        # demand must eventually wait for the drain.
        for _ in range(40):
            stacked.access(0.0, LOC, background=True)
        demand = stacked.access(0.0, LOC)
        assert demand.queue_delay > 100

    def test_background_counted(self, stacked):
        stacked.access(0.0, LOC, background=True)
        stacked.access(0.0, LOC)
        assert stacked.stats.counter("background_accesses").value == 1
        assert stacked.stats.counter("accesses").value == 2


class TestPriorityTimeline:
    def test_background_serial(self):
        t = PriorityTimeline()
        assert t.reserve(0.0, 10, True, 5, 100) == 0.0
        assert t.reserve(0.0, 10, True, 5, 100) == 10.0

    def test_demand_skips_small_backlog(self):
        t = PriorityTimeline()
        t.reserve(0.0, 10, True, 5, 100)
        start = t.reserve(0.0, 10, False, 5, 100)
        assert start == 5.0  # one block_cap, not the full 10

    def test_demand_service_pushes_background_back(self):
        t = PriorityTimeline()
        t.reserve(0.0, 10, True, 5, 100)
        t.reserve(0.0, 10, False, 5, 100)
        # Total occupancy conserved: 10 background + 10 demand.
        assert t.all_free >= 20.0

    def test_backlog_accessor(self):
        t = PriorityTimeline()
        t.reserve(0.0, 30, True, 5, 100)
        assert t.backlog_at(10.0) == pytest.approx(20.0)
        assert t.backlog_at(50.0) == 0.0


class TestPriorityTimelineBoundaries:
    """Pin the reference ``reserve`` on the exact boundaries the
    differential fuzzer hugs — so the reference itself is locked, not
    just the inlined mirror."""

    def test_backlog_exactly_block_cap(self):
        t = PriorityTimeline()
        t.reserve(0.0, 5.0, True, 5.0, 100.0)
        # Backlog == block_cap: blocked by the whole backlog, nothing
        # capped away, no drain.
        assert t.reserve(0.0, 10.0, False, 5.0, 100.0) == 5.0

    def test_backlog_one_past_block_cap(self):
        t = PriorityTimeline()
        t.reserve(0.0, 6.0, True, 5.0, 100.0)
        # One cycle past the cap: blocking saturates at block_cap.
        assert t.reserve(0.0, 10.0, False, 5.0, 100.0) == 5.0

    def test_backlog_exactly_watermark(self):
        t = PriorityTimeline()
        t.reserve(0.0, 100.0, True, 5.0, 100.0)
        # At the watermark the drain term is still zero.
        assert t.reserve(0.0, 10.0, False, 5.0, 100.0) == 5.0

    def test_backlog_one_past_watermark(self):
        t = PriorityTimeline()
        t.reserve(0.0, 101.0, True, 5.0, 100.0)
        # block_cap blocking plus exactly the 1-cycle excess drain.
        assert t.reserve(0.0, 10.0, False, 5.0, 100.0) == 6.0

    def test_demand_conserves_total_occupancy_at_boundaries(self):
        for backlog in (5.0, 6.0, 100.0, 101.0):
            t = PriorityTimeline()
            t.reserve(0.0, backlog, True, 5.0, 100.0)
            start = t.reserve(0.0, 10.0, False, 5.0, 100.0)
            assert t.demand_free == start + 10.0
            assert t.all_free == backlog + 10.0


class TestAccessLine:
    def test_uses_mapping(self, memory):
        r1 = memory.access_line(0.0, 0)
        r2 = memory.access_line(r1.done, 1)
        assert r2.row_hit  # adjacent lines share a row

    def test_write_counted(self, memory):
        memory.access_line(0.0, 0, is_write=True)
        assert memory.stats.counter("write_accesses").value == 1


def _assert_exact_decomposition(result, issued_at):
    """The five stage fields must account for every cycle of the access."""
    total = (
        result.queue_delay
        + result.act_cycles
        + result.cas_cycles
        + result.bus_queue_delay
        + result.burst_cycles
    )
    assert total == pytest.approx(result.done - issued_at)


class TestDecomposition:
    """AccessResult's stage fields decompose ``done - now`` exactly."""

    def test_isolated_row_miss(self, memory):
        result = memory.access(0.0, LOC)
        assert result.act_cycles == OFFCHIP_DDR3.t_act
        assert result.cas_cycles == OFFCHIP_DDR3.t_cas
        assert result.burst_cycles == OFFCHIP_DDR3.line_burst
        assert result.queue_delay == 0
        assert result.bus_queue_delay == 0
        _assert_exact_decomposition(result, 0.0)

    def test_row_hit_has_no_act(self, memory):
        memory.access(0.0, LOC)
        result = memory.access(1000.0, LOC)
        assert result.act_cycles == 0
        _assert_exact_decomposition(result, 1000.0)

    def test_row_conflict_includes_precharge(self, stacked):
        stacked.access(0.0, LOC)
        result = stacked.access(1000.0, OTHER_ROW)
        assert result.act_cycles == STACKED_DRAM.t_rp + STACKED_DRAM.t_act
        _assert_exact_decomposition(result, 1000.0)

    def test_bus_wait_attributed_not_dropped(self, stacked):
        # Two banks on one channel: the second access's data is ready while
        # the first still owns the bus, so it waits — and the wait must show
        # up in bus_queue_delay rather than vanish.
        stacked.access(0.0, LOC)
        second = stacked.access(0.0, OTHER_BANK)
        assert second.bus_queue_delay > 0
        _assert_exact_decomposition(second, 0.0)

    def test_bus_queue_stats_recorded(self, stacked):
        stacked.access(0.0, LOC)
        second = stacked.access(0.0, OTHER_BANK)
        acc = stacked.stats.accumulator("bus_queue_delay")
        assert acc.total == pytest.approx(second.bus_queue_delay)
        demand = stacked.stats.accumulator("demand_bus_queue_delay")
        assert demand.total == pytest.approx(second.bus_queue_delay)

    def test_decomposes_under_sustained_contention(self, stacked):
        for i in range(25):
            issued = float(i)
            result = stacked.access(issued, LOC)
            _assert_exact_decomposition(result, issued)

    def test_breakdown_device_stages(self, stacked):
        result = stacked.access(0.0, LOC)
        breakdown = result.breakdown()
        assert breakdown.total == pytest.approx(result.done)
        assert breakdown.get("act") == result.act_cycles
        assert breakdown.get("cas") == result.cas_cycles
        assert breakdown.get("burst") == result.burst_cycles


class TestClosedPagePolicy:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            DramDevice(STACKED_DRAM, page_policy="adaptive")

    def test_row_closed_after_access(self):
        device = DramDevice(STACKED_DRAM, page_policy="closed")
        device.access(0.0, LOC)
        assert device.open_row_at(LOC) is None

    def test_every_access_pays_activation(self):
        device = DramDevice(STACKED_DRAM, page_policy="closed")
        device.access(0.0, LOC)
        second = device.access(1000.0, LOC)
        assert not second.row_hit
        assert second.act_cycles == STACKED_DRAM.t_act
        assert second.done - 1000.0 == 40  # ACT + CAS + burst, never 22

    def test_no_conflict_precharge_penalty(self):
        # The auto-precharge already closed the row: switching rows costs
        # t_act, not the open-policy conflict price t_rp + t_act.
        device = DramDevice(STACKED_DRAM, page_policy="closed")
        device.access(0.0, LOC)
        result = device.access(1000.0, OTHER_ROW)
        assert result.act_cycles == STACKED_DRAM.t_act


class TestWriteDrainWatermark:
    def test_backlog_below_watermark_blocks_one_burst_only(self, stacked):
        block_cap = STACKED_DRAM.t_cas + STACKED_DRAM.line_burst
        watermark = BACKGROUND_BACKLOG_OPS * block_cap
        for _ in range(BACKGROUND_BACKLOG_OPS - 1):
            stacked.access(0.0, LOC, background=True)
        backlog = stacked.bank_backlog(LOC, 0.0)
        assert backlog <= watermark
        demand = stacked.access(0.0, LOC)
        assert demand.queue_delay == pytest.approx(block_cap)

    def test_backlog_beyond_watermark_forces_drain(self, stacked):
        block_cap = STACKED_DRAM.t_cas + STACKED_DRAM.line_burst
        watermark = BACKGROUND_BACKLOG_OPS * block_cap
        for _ in range(5 * BACKGROUND_BACKLOG_OPS):
            stacked.access(0.0, LOC, background=True)
        backlog = stacked.bank_backlog(LOC, 0.0)
        assert backlog > watermark
        demand = stacked.access(0.0, LOC)
        # One unpreemptable burst plus the excess beyond the write buffer.
        assert demand.queue_delay == pytest.approx(
            block_cap + (backlog - watermark)
        )
        _assert_exact_decomposition(demand, 0.0)


class TestBusWatermark:
    """Locks the adjudicated bus drain threshold: ``BACKGROUND_BACKLOG_OPS``
    ops sized in *bus* service units (``line_burst`` cycles each), not the
    bank-sized watermark the bus path historically inherited."""

    def test_bus_watermark_is_sized_in_bus_service_units(self, stacked):
        assert stacked.bus_watermark == (
            BACKGROUND_BACKLOG_OPS * STACKED_DRAM.line_burst
        )
        assert stacked.bus_block_cap == STACKED_DRAM.line_burst
        # And it is genuinely distinct from the bank watermark.
        assert stacked.bus_watermark != stacked.watermark

    def test_bus_backlog_at_watermark_blocks_one_burst_only(self, stacked):
        bus_watermark = BACKGROUND_BACKLOG_OPS * STACKED_DRAM.line_burst
        # Park exactly watermark-many bus cycles on channel 0 via an
        # oversized background burst on the other bank.
        stacked.access(0.0, OTHER_BANK, bus_watermark, background=True)
        demand = stacked.access(0.0, LOC)
        # data_ready lands while bus backlog == watermark: no drain, just
        # the one unpreemptable burst (the bus block cap).
        assert demand.bus_queue_delay == pytest.approx(
            STACKED_DRAM.line_burst
        )

    def test_bus_backlog_past_watermark_forces_drain(self, stacked):
        bus_watermark = BACKGROUND_BACKLOG_OPS * STACKED_DRAM.line_burst
        excess = 8.0
        stacked.access(
            0.0, OTHER_BANK, bus_watermark + excess, background=True
        )
        demand = stacked.access(0.0, LOC)
        assert demand.bus_queue_delay == pytest.approx(
            STACKED_DRAM.line_burst + excess
        )
        _assert_exact_decomposition(demand, 0.0)

    def test_old_bank_sized_threshold_would_never_drain_here(self, stacked):
        # Regression guard for the adjudicated bug: a backlog well past the
        # bus watermark but far below the bank-sized one (176 cycles for
        # stacked) must already be draining.
        bank_watermark = BACKGROUND_BACKLOG_OPS * (
            STACKED_DRAM.t_cas + STACKED_DRAM.line_burst
        )
        backlog = 48.0
        assert backlog < bank_watermark
        stacked.access(0.0, OTHER_BANK, backlog, background=True)
        demand = stacked.access(0.0, LOC)
        assert demand.bus_queue_delay > STACKED_DRAM.line_burst


class TestUtilities:
    def test_bus_utilization(self, stacked):
        stacked.access(0.0, LOC)  # 4 bus cycles over 4 channels
        assert stacked.bus_utilization(100.0) == pytest.approx(0.01)

    def test_bus_utilization_zero_elapsed(self, stacked):
        assert stacked.bus_utilization(0.0) == 0.0

    def test_reset(self, stacked):
        stacked.access(0.0, LOC)
        stacked.reset()
        assert stacked.stats.counter("accesses").value == 0
        assert stacked.open_row_at(LOC) is None
        assert stacked.access(0.0, LOC).done == 40


class TestResetStaleness:
    """``reset()`` must not resurrect pre-reset activity: after a reset
    the device's stats count only post-reset accesses."""

    def test_pending_counter_deltas_cleared(self, stacked):
        # Accumulate activity without reading .stats first.
        for _ in range(4):
            stacked.access(0.0, LOC)
        stacked.reset()
        stacked.access(0.0, LOC)
        # Exactly the one post-reset access — not 5.
        assert stacked.stats.counter("accesses").value == 1
        assert stacked.stats.counter("read_accesses").value == 1

    def test_pending_deltas_cleared_even_without_new_accesses(self, stacked):
        stacked.access(0.0, LOC, is_write=True, background=True)
        stacked.reset()
        stats = stacked.stats
        assert stats.counter("accesses").value == 0
        assert stats.counter("write_accesses").value == 0
        assert stats.counter("background_accesses").value == 0
        assert stats.counter("bus_cycles").value == 0

    def test_accumulators_cleared(self, stacked):
        for _ in range(3):
            stacked.access(0.0, LOC)  # same bank: queue_wait samples
        stacked.reset()
        acc = stacked.stats.accumulators.get("queue_wait")
        assert acc is None or acc.count == 0

    def test_post_reset_sequence_matches_fresh_device(self, stacked):
        for _ in range(4):
            stacked.access(0.0, LOC)
        stacked.reset()
        fresh = DramDevice(STACKED_DRAM)
        for device in (stacked, fresh):
            device.access(0.0, LOC)
            device.access(0.0, OTHER_ROW)
        assert stacked.stats.as_dict() == fresh.stats.as_dict()

    def test_registered_histograms_reset_with_group(self, stacked):
        # StatGroup-registered histograms follow the group's reset: a
        # histogram that kept its buckets across reset would double-count
        # the warmup phase after System.run() resets the devices.
        hist = stacked.stats.histogram("probe_latency", [10, 100])
        hist.sample(50.0)
        assert sum(hist.counts) == 1
        stacked.reset()
        assert sum(hist.counts) == 0
        # Re-registering under the same name returns the same (reset) object.
        assert stacked.stats.histogram("probe_latency", [10, 100]) is hist
