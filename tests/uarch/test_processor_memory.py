"""Pipeline-level memory-system behaviour: ports, MSHRs, disambiguation."""

import pytest

from repro.isa.instruction import TraceRecord
from repro.isa.opcodes import OpClass
from repro.isa.registers import RegClass, make_reg
from repro.memory.cache import CacheConfig
from repro.uarch.config import conventional_config

from tests.conftest import TraceBuilder, f, r, run_trace


class TestCachePortContention:
    def test_many_simultaneous_hits_are_port_limited(self, tb):
        # 9 independent hitting loads, 3 EA units, 3 cache ports: the
        # accesses spread over >= 3 cycles.
        addrs = [0x100 + 64 * i for i in range(9)]
        for i, addr in enumerate(addrs):
            tb.load(r(1 + i % 8), r(1 + i % 8), addr=addr)
        _, result = run_trace(tb.build(), warm_addresses=addrs)
        # Baseline single load: 7 cycles; batches of 3 add >= 2 cycles.
        assert result.stats.cycles >= 9

    def test_single_port_serializes(self, tb):
        addrs = [0x100 + 64 * i for i in range(6)]
        for i, addr in enumerate(addrs):
            tb.load(r(1 + i), r(1 + i), addr=addr)
        wide = run_trace(tb.build(), conventional_config(),
                         warm_addresses=addrs)[1]
        narrow = run_trace(tb.build(), conventional_config(cache_ports=1),
                           warm_addresses=addrs)[1]
        assert narrow.stats.cycles > wide.stats.cycles


class TestMSHRLimits:
    def test_accepted_loads_leave_the_mshr_wake_list(self):
        """A load that slept on a full MSHR file leaves the wake list
        once its cache access is accepted, so a store-free stream of
        missing loads (no commit ever empties the list) holds no
        committed load there at the end."""
        records = [TraceRecord(0x1000 + 4 * i, OpClass.LOAD_INT,
                               dest=make_reg(RegClass.INT, 1 + i % 8),
                               src1=make_reg(RegClass.INT, 20),
                               addr=0x10000 + 64 * i)
                   for i in range(3_000)]
        cfg = conventional_config(rob_size=16, iq_size=16,
                                  fetch_buffer_size=8,
                                  cache=CacheConfig(mshr_entries=1))
        processor, result = run_trace(records, cfg)
        assert result.stats.committed == 3_000
        assert processor.mem.cache.mshrs.rejections > 0
        assert [load for load in processor._mshr_gated
                if load.commit_at is not None] == []

    def test_more_misses_than_mshrs_still_complete(self, tb):
        # 12 independent misses to distinct lines with only 2 MSHRs.
        for i in range(12):
            tb.load(r(1 + i % 8), r(1 + i % 8), addr=0x40 * i)
        cfg = conventional_config(cache=CacheConfig(mshr_entries=2))
        _, result = run_trace(tb.build(), cfg)
        assert result.stats.committed == 12

    def test_mshr_count_bounds_overlap(self, tb):
        for i in range(8):
            tb.load(r(1 + i % 8), r(1 + i % 8), addr=0x40 * i)
        many = run_trace(tb.build(), conventional_config())[1]
        one = run_trace(tb.build(), conventional_config(
            cache=CacheConfig(mshr_entries=1)))[1]
        # One MSHR serializes the 8 misses: ~8x50 cycles vs ~50+bus.
        assert one.stats.cycles > many.stats.cycles * 3


class TestDisambiguationInPipeline:
    def test_load_waits_for_older_store_address(self, tb):
        # The store's base register comes off a multiply, so its address
        # is unknown for ~11 cycles; the independent load must wait.
        tb.alu(r(1), r(2), op=OpClass.INT_MUL)
        tb.store(r(1), r(3), addr=0x200)
        tb.load(r(4), r(5), addr=0x300)
        _, result = run_trace(tb.build(), warm_addresses=[0x200, 0x300])
        # Load alone would finish by cycle 7; here the whole run takes
        # at least the multiply latency plus the store EA.
        assert result.stats.cycles >= 13

    def test_forwarding_beats_cache_miss(self, tb):
        tb.store(r(1), r(2), addr=0x500)
        tb.load(r(3), r(4), addr=0x500)
        tb.alu(r(5), r(3))
        _, result = run_trace(tb.build())
        assert result.stats.store_forwards == 1
        assert result.stats.cycles < 20

    def test_different_words_do_not_forward(self, tb):
        tb.store(r(1), r(2), addr=0x500)
        tb.load(r(3), r(4), addr=0x508)
        _, result = run_trace(tb.build(), warm_addresses=[0x500])
        assert result.stats.store_forwards == 0


class TestStoreCommitTraffic:
    def test_store_misses_counted(self, tb):
        tb.store(r(1), r(2), addr=0x700)
        _, result = run_trace(tb.build())
        assert result.stats.stores == 1

    def test_commit_blocked_by_port_retries(self, tb):
        # 6 stores committing 8-wide with 3 ports: commit spreads over
        # two cycles but everything retires.
        for i in range(6):
            tb.store(r(1), r(2), addr=0x100 + 8 * i)
        _, result = run_trace(tb.build(), warm_addresses=[0x100])
        assert result.stats.committed == 6

    def test_committed_store_visible_to_later_loads(self, tb):
        # After the store commits and fills the line, a much later load
        # to the same line hits.
        tb.store(r(1), r(2), addr=0x900)
        for i in range(8):
            tb.alu(r(3), r(3), op=OpClass.INT_MUL)  # delay
        tb.load(r(4), r(5), addr=0x908)
        processor, result = run_trace(tb.build())
        assert result.stats.committed == 10
        assert processor.mem.cache.contains(0x900)


class TestBusBehaviourInPipeline:
    def test_bus_cycles_accounted(self, tb):
        for i in range(4):
            tb.load(r(1 + i), r(5), addr=0x40 * i)
        processor, _ = run_trace(tb.build())
        assert processor.mem.cache.bus.transfers == 4
        assert processor.mem.cache.bus.busy_cycles == 16

    def test_wider_bus_helps_parallel_misses(self, tb):
        for i in range(8):
            tb.load(r(1 + i % 8), r(1 + i % 8), addr=0x40 * i)
        slow_cfg = conventional_config(
            cache=CacheConfig(bus_cycles_per_line=16))
        fast_cfg = conventional_config(
            cache=CacheConfig(bus_cycles_per_line=1))
        slow = run_trace(tb.build(), slow_cfg)[1]
        fast = run_trace(tb.build(), fast_cfg)[1]
        assert fast.stats.cycles < slow.stats.cycles
