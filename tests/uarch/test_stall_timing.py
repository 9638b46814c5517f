"""Stalls with nothing else to do, on every cycle-engine tier.

A cache miss or a divide with no independent work leaves the machine
idle for tens to hundreds of cycles.  Neither tier jumps over them: the
interpreter steps its clock through every dead cycle, and the native
loop does the same until its event wheel hands back the completion.
These pin the hand-derived cycle count of each stall on both tiers and
every other counter of the native run against the interpreter's.

The VP schemes commit one cycle later than the conventional one (the
PMT lookup at commit, paper §3), so each VP stall ends one cycle after
its conventional twin.  The slow memory is the differential harness's
(400-cycle miss, 16 bus cycles per line): its fills land hundreds of
cycles out, inside the native wheel's span.
"""

import pytest

from repro.core.virtual_physical import AllocationStage
from repro.isa.opcodes import OpClass
from repro.memory.cache import CacheConfig
from repro.uarch import native
from repro.uarch.config import conventional_config, virtual_physical_config
from repro.uarch.processor import Processor

from tests.conftest import TraceBuilder, r

TIERS = ("interp", pytest.param("native", marks=pytest.mark.skipif(
    native.toolchain() is None,
    reason="native tier needs a C toolchain (cc/gcc/clang or $REPRO_CC)")))

SLOW_MEMORY = CacheConfig(miss_penalty=400, bus_cycles_per_line=16,
                          mshr_entries=16)


def _miss():
    # Cold cache: the load misses and the dependent ALU pins the
    # machine until the fill returns.
    tb = TraceBuilder()
    tb.load(r(1), r(2), addr=0x8000)
    tb.alu(r(3), r(1))
    return tb.build()


def _miss_burst():
    # Four cold lines: their fills queue back to back on the bus, and
    # the ALU waits on the last one.
    tb = TraceBuilder()
    for i in range(4):
        tb.load(r(1 + i), r(10), addr=0x8000 + 0x1000 * i)
    tb.alu(r(5), r(4))
    return tb.build()


def _divide():
    tb = TraceBuilder()
    tb.alu(r(1), r(2), op=OpClass.INT_DIV)
    return tb.build()


#: name -> (trace, config, cycles, load misses).
STALLS = {
    # Load: fetch 0, rename 1, issue 2, EA+access 3; miss fill
    # completes at 3 + 50 = 53.  Dependent ALU issues at 53,
    # completes 54, commits 55; run ends the cycle after -> 56.
    "miss/conventional": (_miss, conventional_config, 56, 1),
    "miss/vp-writeback": (
        _miss, lambda: virtual_physical_config(nrr=8), 57, 1),
    "miss/vp-issue": (
        _miss, lambda: virtual_physical_config(
            nrr=8, allocation=AllocationStage.ISSUE), 57, 1),
    # Fills at 53, 57, 61, 65 (4 bus cycles apart); the ALU issues at
    # 65, completes 66, commits 67 -> 68.
    "burst/conventional": (_miss_burst, conventional_config, 68, 4),
    # 67-cycle divide: issue 2, complete 69, commit 70 -> 71 cycles.
    "divide/conventional": (_divide, conventional_config, 71, 0),
    "divide/vp-writeback": (
        _divide, lambda: virtual_physical_config(nrr=8), 72, 0),
    # The fill completes at 3 + 400 = 403 -> 406.
    "slow-miss/conventional": (
        _miss, lambda: conventional_config(cache=SLOW_MEMORY), 406, 1),
    # Fills at 403, 419, 435, 451 -> 454.
    "slow-burst/conventional": (
        _miss_burst, lambda: conventional_config(cache=SLOW_MEMORY), 454, 4),
}


def _run(name, engine):
    trace, config, _, _ = STALLS[name]
    records = trace()
    processor = Processor(config(), engine=engine)
    result = processor.run(iter(records), max_instructions=len(records))
    assert processor.engine_used == engine, (
        f"expected the run on {engine}: "
        f"{native.cache_info()['build_failures']}")
    return result.stats.to_dict()


@pytest.mark.parametrize("name", sorted(STALLS))
@pytest.mark.parametrize("engine", TIERS)
def test_hand_derived_cycles(engine, name):
    _, _, cycles, misses = STALLS[name]
    stats = _run(name, engine)
    assert stats["cycles"] == cycles
    assert stats["load_misses"] == misses
    assert stats["committed"] == len(STALLS[name][0]())


@pytest.mark.parametrize("name", sorted(STALLS))
@pytest.mark.parametrize("engine", TIERS[1:])
def test_every_counter_matches_the_interpreter(engine, name):
    assert _run(name, engine) == _run(name, "interp")
