"""The out-of-order cycle engine.

Stage order inside one simulated cycle (see DESIGN.md §5 for the timing
contract each stage implements; all stages are inlined into
:meth:`Processor._step`, the interpreter-level hot loop):

1. **write-back/wakeup** — completion events for this cycle: write-port
   arbitration, the renamer's completion hook (late allocation /
   squash-and-re-execute under the VP write-back policy), branch
   resolution, publication of result tags.  Tag wakeup is fused into
   publication: a value and its register exist exactly when the
   producer completes, so waiters are released in the same pass and no
   separate wakeup queue exists.
2. **commit** — in-order retirement; stores write the cache here.  Commit
   runs before the memory stage so committing stores (the oldest
   instructions in the machine) win cache-port arbitration over younger
   loads.
3. **memory** — loads that have finished address generation attempt the
   cache (disambiguation, ports, MSHRs); failures retry next cycle.
4. **issue** — oldest-first selection over ready instructions subject to
   issue width, register-file read ports, functional units, and the
   renamer's issue hook (issue-stage allocation).
5. **rename/dispatch** — decode-stage renaming and insertion into
   ROB/IQ/store-queue.
6. **fetch** — up to 8 consecutive instructions; stalls at a mispredicted
   branch until it resolves (trace-driven wrong-path model).

Timing contract of the event machinery
--------------------------------------

Execution completions are driven by one
:class:`~repro.uarch.events.EventWheel` — ``complete_at`` — so a cycle
costs time proportional to the work in it, not to the window size.
Loads between EA computation and their cache access wait in
``pending_mem``, a min-heap ordered by sequence number (program order
decides cache-port priority).  The clock advances one cycle per step: an
idle cycle costs only the stage guards, so nothing jumps over it.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import defaultdict, deque
from heapq import heapify, heappush, heappop
from operator import attrgetter

from repro.branch.bht import BranchHistoryTable
from repro.core.tags import TAG_CLASS_SHIFT
from repro.isa.opcodes import OpClass
from repro.isa.registers import RegClass
from repro.memory.memory_system import MemorySystem
from repro.trace.generator import TraceColumns
from repro.uarch.config import ProcessorConfig, resolve_engine
from repro.uarch.dynamic import DynInstr
from repro.uarch.events import EventWheel
from repro.uarch.functional_units import FunctionalUnitPool
from repro.uarch.regfile import RegisterFilePorts
from repro.uarch.stats import SimResult, SimStats

_FAR_FUTURE = 1 << 60

_BY_SEQ = attrgetter("seq")


class SimulationDeadlock(RuntimeError):
    """No instruction committed for ``deadlock_horizon`` cycles."""


class Processor:
    """One simulated machine; create a fresh instance per run.

    The run takes one of two bit-identical tiers (``engine``, else
    ``config.engine``): the interpreter below, or the native C loop
    (:mod:`repro.uarch.native`), which ``engine="auto"`` — the default —
    takes wherever its artifact is ready.  After a native run the
    statistics, clock, cache tags and predictor are synced back, but the
    renamer's map-table and free-list *contents* are not: code that
    inspects rename state after a run must request ``engine="interp"``.
    """

    def __init__(self, config=None, engine=None):
        self.config = config or ProcessorConfig()
        cfg = self.config
        # Engine tier: the explicit argument wins, else the config field
        # ("auto" defers to REPRO_ENGINE, then settles per run — see
        # _tier).  engine_used records the tier that actually ran.
        self._engine = engine if engine is not None else cfg.engine
        self._tier_chosen = None
        self.engine_used = None
        self.renamer = cfg.build_renamer()
        self.bht = BranchHistoryTable(cfg.bht_entries)
        self.mem = MemorySystem(cfg.cache, cfg.cache_ports, cfg.store_queue_size)
        self.fus = FunctionalUnitPool(cfg.fu_counts)
        self.stats = SimStats()
        # The policy's declared capabilities drive every engine fast
        # path: no-op hooks are never bound, so the hot loop stays
        # branch-free for policies that don't use them, with zero
        # knowledge of concrete renamer classes.
        renamer = self.renamer
        self._vp_writeback = renamer.holds_writers_in_iq
        self._retry_gating = renamer.supports_retry_gating and cfg.retry_gating
        self._commit_extra = renamer.commit_extra_latency
        self._on_dispatch = (renamer.on_dispatch
                             if renamer.has_dispatch_hook else None)
        self._issue_hook = renamer.on_issue if renamer.has_issue_hook else None
        self._complete_hook = (renamer.on_complete
                               if renamer.has_complete_hook else None)
        # The free pools backing the per-cycle occupancy integrals; the
        # attribute-chain walk through allocated_physical() would cost a
        # measurable slice of every cycle.
        pools = renamer.phys_pools()
        if pools is not None:
            # The underlying deques, counted with a plain len() per cycle.
            self._int_free = pools[RegClass.INT]._free
            self._fp_free = pools[RegClass.FP]._free
            self._npr_int = renamer.npr[RegClass.INT]
            self._npr_fp = renamer.npr[RegClass.FP]
        else:  # custom policy without the standard pool layout
            self._int_free = self._fp_free = None
            self._npr_int = self._npr_fp = 0
        # Register-file port/bank contention model; None = the legacy
        # fixed per-class port checks (bit-identical golden stats).
        self.regfile = RegisterFilePorts(cfg) if cfg.rf_model else None
        # Machine state.
        self.now = 0
        self.rob = deque()
        self.iq_count = 0
        self.fetch_buffer = deque()
        self.ready_heap = []  # (seq, instr), oldest first
        self.waiters = defaultdict(list)  # tag -> instrs waiting to become ready
        self.data_waiters = defaultdict(list)  # tag -> stores waiting for data
        self.ready_at = {}  # tag -> cycle its value is available
        self.complete_at = EventWheel()  # cycle -> completion events
        self.pending_mem = []  # heap of (seq, load) awaiting cache access
        # Loads rejected for lack of an MSHR sleep until the first cycle
        # their rejection could be reconsidered (earliest fill completion);
        # a committing store can install lines earlier, so it wakes them.
        self._mshr_gated = []
        self.fetch_resume_at = 0
        self._next_seq = 0
        self._last_commit_cycle = 0
        self._wb_ports = [0, 0]  # reused write-port scratch (INT, FP)
        # Precise-exception injection: the K-th committing instruction
        # faults, flushing and replaying everything younger (§3.2.2).
        self._fault_at_commits = set()
        self._replay = deque()
        for tag in self.renamer.initial_ready_tags():
            self.ready_at[tag] = 0

    def inject_faults(self, commit_indices):
        """Arrange for the K-th committing instruction(s) to raise a
        precise exception.  Recovery pops the reorder buffer youngest
        first, rolls the rename tables back (the paper's §3.2.2 walk),
        and re-fetches the flushed instructions."""
        self._fault_at_commits.update(int(k) for k in commit_indices)

    # -- public API ----------------------------------------------------------

    def _tier(self, max_instructions):
        """The tier :meth:`run` tries first, decided once per processor.

        An explicit request is honored (a native one that cannot run
        becomes a counted fallback); ``auto`` takes native only where
        it can run without one — :func:`repro.uarch.native.ready`, a
        bounded run, no injected faults — and the interpreter otherwise.
        Per-instance ``_step`` instrumentation (tests and tracers
        monkeypatch it) forces the interpreter silently: a replaced
        ``_step`` would never be called by the C loop."""
        if self._tier_chosen is None:
            tier = resolve_engine(self._engine)
            if "_step" in self.__dict__:
                tier = "interp"
            elif tier == "auto":
                from repro.uarch import native

                tier = ("native" if max_instructions is not None
                        and not self._fault_at_commits
                        and native.ready(self) else "interp")
            self._tier_chosen = tier
        return self._tier_chosen

    def run(self, trace, max_instructions=None, skip=0):
        """Simulate ``max_instructions`` records of ``trace`` after ``skip``.

        The skipped prefix warms the cache and the branch predictor
        functionally (no timing), mirroring the paper's fast-forward of
        the first 100M instructions.  ``trace`` is any iterable of
        records; :class:`~repro.trace.generator.TraceColumns` also
        serve the native tier as they are.
        """
        if getattr(self, "_ran", False):
            raise RuntimeError(
                "a Processor instance runs once; create a fresh one "
                "(its caches, predictor, and rename state are warm)"
            )
        if skip < 0:
            raise ValueError(f"skip must be non-negative, got {skip}")
        self._ran = True
        self._exhausted = False
        self.engine_used = "interp"
        stream = None
        # The native tier runs the whole window in C (_run_native); on
        # any failure it hands the interpreter below the rest of the
        # trace, counting the fallback.
        if self._tier(max_instructions) == "native":
            from repro.uarch import native as _native

            if max_instructions is None:
                # An unbounded stream cannot be safely materialized.
                _native._note_failure("unbounded-trace")
            else:
                stream = self._run_native(_native, trace, max_instructions,
                                          skip)
                if stream is None:
                    self.stats.cycles = self.now
                    self._harvest_stats()
                    return SimResult(stats=self.stats, config=self.config,
                                     engine_used=self.engine_used)
            self.stats.engine_fallbacks += 1
        if stream is None:
            stream = iter(trace)
            if skip:
                self._warm_up(stream, skip)
            if max_instructions is not None:
                stream = itertools.islice(stream, max_instructions)
        self._trace = stream
        step = self._step  # honors per-instance test instrumentation
        horizon = self.config.deadlock_horizon
        while not (self._exhausted and not self.fetch_buffer
                   and not self.rob and not self._replay):
            step()
            if self.now - self._last_commit_cycle > horizon:
                raise SimulationDeadlock(
                    f"no commit for {horizon} cycles at "
                    f"cycle {self.now}; ROB head: "
                    f"{self.rob[0] if self.rob else None}"
                )
        self.stats.cycles = self.now
        self._harvest_stats()
        return SimResult(stats=self.stats, config=self.config,
                         engine_used=self.engine_used)

    def _run_native(self, native, trace, max_instructions, skip):
        """Run records ``[skip, skip + max_instructions)`` on the native
        tier, reading ``trace`` as columns (any other trace is converted
        into uncached ones); the C loop does the warm-up.  Returns
        ``None`` when the run finished natively, else the record stream
        the interpreter goes on with, warm-up done."""
        columns = trace
        if not isinstance(trace, TraceColumns):
            records = list(itertools.islice(iter(trace),
                                            skip + max_instructions))
            try:
                columns = TraceColumns.of(records)
            except OverflowError:
                native._note_failure("column-overflow")
                columns = None
        if columns is not None:
            n = max(0, min(max_instructions, len(columns) - skip))
            self.engine_used = "native"
            if native.execute(self, columns, skip, n):
                return None
            self.engine_used = "interp"
            records = columns.records(skip + n)
        stream = iter(records)
        self._warm_up(stream, skip)
        return stream

    # -- warm-up ------------------------------------------------------------

    def _warm_up(self, stream, skip):
        warm = self.mem.cache.warm_address
        bht_update = self.bht.update
        branch = OpClass.BRANCH
        for rec in itertools.islice(stream, skip):
            if rec.addr:
                warm(rec.addr)
            if rec.op is branch:
                bht_update(rec.pc, rec.taken)

    # -- the per-cycle hot loop ----------------------------------------------

    def _step(self):
        """Simulate one cycle: every pipeline stage, inlined.

        The stage bodies live in one function on purpose — the engine's
        throughput is bounded by interpreter overhead, and the inlining
        saves both the per-stage call and the re-hoisting of shared
        locals.  Section banners mark the stage boundaries; the stage
        semantics are documented in the module docstring and DESIGN.md §5.
        """
        now = self.now
        cfg = self.config
        stats = self.stats
        renamer = self.renamer

        # ---- write-back: completion events ------------------------------
        # (Tag wakeup is folded into publication below: a completing
        # producer publishes its tag and releases waiters in the same
        # cycle, so no separate wakeup queue exists.)
        events = self.complete_at.pop(now)
        if events:
            events.sort(key=_BY_SEQ)
            regfile = self.regfile
            if regfile is not None:
                regfile.start_write_cycle()
            ports_left = self._wb_ports
            ports_left[0] = ports_left[1] = cfg.write_ports
            on_complete = self._complete_hook
            ready_at = self.ready_at
            ready_heap = self.ready_heap
            waiters_pop = self.waiters.pop
            data_waiters = self.data_waiters
            defer_push = self.complete_at.push
            for instr in events:
                if instr.squashed:
                    continue  # flushed by precise-exception recovery
                if instr.is_store:
                    # EA computation done: hand the address to the store
                    # queue; the store completes once its data is ready.
                    self.mem.store_queue.set_address(instr.seq, instr.rec.addr)
                    instr.mem_ready_at = now
                    if instr.data_ready_at >= 0:
                        instr.completed = True
                        instr.completed_at = now
                    continue
                if instr.is_br:
                    rec = instr.rec
                    stats.branches += 1
                    self.bht.update(rec.pc, rec.taken)
                    if instr.mispredicted:
                        stats.mispredicts += 1
                        self.fetch_resume_at = now + 1
                    instr.completed = True
                    instr.completed_at = now
                    continue
                cls = instr.dest_cls
                if cls is not None and (
                        ports_left[cls] == 0 if regfile is None
                        else not regfile.can_write(instr)):
                    stats.wb_port_defers += 1
                    defer_push(now + 1, instr)
                    continue
                if on_complete is not None and not on_complete(instr, now):
                    # VP write-back allocation failed: squash to the IQ.
                    stats.squashes += 1
                    instr.not_before = now + 1
                    heappush(ready_heap, instr.heap_item)
                    continue
                if cls is not None:
                    if regfile is None:
                        ports_left[cls] -= 1
                    else:
                        regfile.claim_write(instr)
                instr.completed = True
                instr.completed_at = now
                if instr.in_iq:
                    instr.in_iq = False
                    self.iq_count -= 1
                tag = instr.dest_tag
                if tag != -1:
                    # Publish the result tag and wake its waiters (a
                    # completion's value is always ready this cycle).
                    ready_at[tag] = now
                    waiting = waiters_pop(tag, None)
                    if waiting:
                        for waiter in waiting:
                            waiter.wait_count -= 1
                            if waiter.wait_count == 0 and not waiter.squashed:
                                heappush(ready_heap, waiter.heap_item)
                    if data_waiters:
                        stores = data_waiters.pop(tag, None)
                        if stores:
                            self._fire_stores(stores, now)

        # ---- commit: in-order retirement --------------------------------
        rob = self.rob
        if rob:
            budget = cfg.commit_width
            extra = self._commit_extra
            on_commit = renamer.on_commit
            faults = self._fault_at_commits
            committed = stats.committed
            while budget and rob:
                instr = rob[0]
                if not instr.completed or instr.completed_at + 1 + extra > now:
                    break
                if faults and committed in faults:
                    faults.discard(committed)
                    self._recover_from_fault(instr, now)
                    # The offending instruction itself commits below (its
                    # fault is now "handled"); everything younger replays.
                if instr.is_store:
                    if not self.mem.try_store_commit(instr.rec.addr, now):
                        break  # no cache port this cycle; retry in order
                    self.mem.store_queue.remove(instr.seq)
                    if self._mshr_gated:
                        # The store may have installed a line a sleeping
                        # load needs; let them all re-check this cycle
                        # (the memory stage runs after commit).
                        for gated in self._mshr_gated:
                            gated.mem_ready_at = now
                            gated.mshr_gated = False
                        self._mshr_gated.clear()
                on_commit(instr)
                rob.popleft()
                instr.commit_at = now
                committed += 1
                budget -= 1
            if committed != stats.committed:
                stats.committed = committed
                self._last_commit_cycle = now

        # ---- memory: loads attempt the cache ----------------------------
        pending = self.pending_mem
        if pending:
            mem = self.mem
            try_load = mem.try_load
            push_complete = self.complete_at.push
            still_pending = []
            append = still_pending.append
            # A load younger than the oldest store with an unknown
            # address cannot disambiguate this cycle; since the heap
            # drains in ascending sequence order, the first such load
            # ends the scan for everyone behind it.  (Store state cannot
            # change during this stage, so one snapshot is valid.)
            blocking_store = self.mem.store_queue.oldest_unknown_seq()
            # Draining a heap yields ascending sequence numbers: program
            # order decides who gets the cache ports.
            while pending:
                item = heappop(pending)
                instr = item[1]
                if instr.squashed:
                    continue
                if blocking_store is not None and item[0] > blocking_store:
                    # Keep the store queue's waits diagnostic faithful:
                    # every cut-short load that would have attempted the
                    # cache this cycle would have been told to WAIT.
                    waits = 0 if instr.mem_ready_at > now else 1
                    waits += sum(1 for _, cut in pending
                                 if not cut.squashed
                                 and cut.mem_ready_at <= now)
                    self.mem.store_queue.waits += waits
                    append(item)
                    # The remaining heap items all have higher seqs, so
                    # sorting them keeps the rebuilt list a valid heap.
                    pending.sort()
                    still_pending.extend(pending)
                    pending.clear()
                    break
                if instr.mem_ready_at > now:
                    append(item)
                    continue
                done = try_load(item[0], instr.rec.addr, now)
                if done is None:
                    if mem.last_refusal == "mshr":
                        # MSHRs full: nothing changes for this load until
                        # a fill completes (or a store commit wakes it);
                        # sleep instead of re-probing every cycle.
                        gate = mem.cache.mshrs.next_fill_time(now)
                        if gate is not None and gate > now:
                            instr.mem_ready_at = gate
                            if not instr.mshr_gated:
                                # One wake-list entry per load, however
                                # many times its sleep is re-gated.
                                instr.mshr_gated = True
                                self._mshr_gated.append(instr)
                    append(item)
                    continue
                if instr.mshr_gated:
                    # Accepted: a committing store has nothing left to
                    # wake, so the load leaves the wake list.
                    instr.mshr_gated = False
                    self._mshr_gated.remove(instr)
                push_complete(done, instr)
            # Built in ascending order, so the list is already a valid heap.
            self.pending_mem = still_pending

        # ---- issue: oldest-first over the ready set ---------------------
        heap = self.ready_heap
        if heap:
            budget = cfg.issue_width
            int_reads = fp_reads = cfg.read_ports
            regfile = self.regfile
            if regfile is not None:
                regfile.start_read_cycle()
            retry = []
            fus = self.fus
            retry_gating = self._retry_gating
            vp_writeback = self._vp_writeback
            on_issue = self._issue_hook
            # A unit kind found fully busy stays busy for the rest of the
            # cycle (claims only consume); memoize the verdict so a deep
            # ready queue doesn't re-scan the pool per blocked instruction.
            fu_blocked = 0
            launched = 0
            complete_push = self.complete_at.push
            pending_mem = self.pending_mem
            while budget and heap:
                item = heappop(heap)
                instr = item[1]
                if instr.squashed:
                    continue
                if instr.not_before > now:
                    retry.append(item)
                    continue
                # Optional engineering improvement (retry_gating): a
                # squashed instruction re-executes only when the
                # allocation rule could currently admit it; spinning
                # pointlessly would burn functional units and cache ports
                # that first-time issues (branch resolution in particular)
                # need.  The paper's machine spins, so gating defaults off.
                if (
                    retry_gating
                    and instr.exec_count > 0
                    and instr.dest_cls is not None
                    and instr.dest_phys < 0
                    and not renamer.may_allocate_now(instr)
                ):
                    retry.append(item)
                    continue
                # Register-file read ports (pre-counted at dispatch;
                # checked here, charged after the FU and issue-hook
                # checks pass so a refused issue consumes nothing).
                if regfile is None:
                    need_int = instr.need_int
                    need_fp = instr.need_fp
                    if need_int > int_reads or need_fp > fp_reads:
                        retry.append(item)
                        continue
                elif not regfile.can_read(instr):
                    retry.append(item)
                    continue
                # Functional unit (checked before allocation so a failed
                # issue-stage allocation does not waste a unit).
                kind = instr.fu_kind
                kind_bit = 1 << kind
                if fu_blocked & kind_bit:
                    # Memoized verdict; keep the per-blocked-instruction
                    # structural-stall diagnostic faithful to a re-scan.
                    fus.structural_stalls[kind] += 1
                    retry.append(item)
                    continue
                unit = fus.find_free(kind, now)
                if unit < 0:
                    fu_blocked |= kind_bit
                    retry.append(item)
                    continue
                if on_issue is not None and not on_issue(instr, now):
                    stats.issue_alloc_blocks += 1
                    retry.append(item)
                    continue
                fus.claim_unit(kind, unit, now, instr.latency, instr.pipelined)
                if regfile is None:
                    int_reads -= need_int
                    fp_reads -= need_fp
                else:
                    regfile.claim_read(instr)
                budget -= 1
                # Launch (inlined): schedule completion / memory access.
                instr.issued = True
                instr.exec_count += 1
                launched += 1
                if instr.first_issue_at < 0:
                    instr.first_issue_at = now
                instr.last_issue_at = now
                if instr.is_load:
                    instr.mem_ready_at = now + 1  # EA ready next cycle
                    heappush(pending_mem, item)
                elif instr.is_store or instr.is_br:
                    complete_push(now + 1, instr)
                else:
                    complete_push(now + instr.latency, instr)
                # Under VP write-back allocation, destination writers stay
                # in the IQ until their completion succeeds (they may be
                # squashed and re-executed); everything else frees its IQ
                # entry at issue.
                if instr.in_iq and not (vp_writeback
                                        and instr.dest_cls is not None):
                    instr.in_iq = False
                    self.iq_count -= 1
            if not heap:
                # Nothing left un-popped: the retries were collected in
                # ascending order, so the sorted list IS a valid heap —
                # the common stall cycle restores without any pushes.
                heap.extend(retry)
            else:
                for item in retry:
                    heappush(heap, item)
            if launched:
                stats.executions += launched

        # ---- rename/dispatch --------------------------------------------
        buffer = self.fetch_buffer
        if buffer:
            budget = cfg.rename_width
            rename = renamer.rename
            can_rename = renamer.can_rename
            on_dispatch = self._on_dispatch
            rob_size = cfg.rob_size
            iq_size = cfg.iq_size
            store_queue = self.mem.store_queue
            ready_at = self.ready_at
            waiters = self.waiters
            ready_heap = self.ready_heap
            while budget and buffer:
                instr = buffer[0]
                if len(rob) >= rob_size:
                    stats.stall_rob_full += 1
                    break
                if self.iq_count >= iq_size:
                    stats.stall_iq_full += 1
                    break
                if instr.is_store and store_queue.full:
                    stats.stall_sq_full += 1
                    break
                if instr.dest_cls is not None and not can_rename(instr.rec):
                    # (Dest-less instructions always pass can_rename; the
                    # call is skipped for them.)
                    stats.stall_no_reg += 1
                    break
                buffer.popleft()
                instr.rename_at = now
                rename(instr)
                if instr.dest_tag != -1:
                    # A fresh name starts a new lifetime: clear readiness.
                    ready_at.pop(instr.dest_tag, None)
                if on_dispatch is not None:
                    on_dispatch(instr)
                rob.append(instr)
                if len(rob) > stats.peak_rob:
                    stats.peak_rob = len(rob)
                instr.in_iq = True
                self.iq_count += 1
                instr.not_before = now + 1
                budget -= 1
                # Wire dependences (inlined).  ``wait_tags`` is exactly
                # the set of register-file reads at issue (a store reads
                # only its base; the value moves at completion), so the
                # per-class read-port needs are counted here once.
                tags = instr.src_tags
                if instr.is_store:
                    store_queue.insert(instr.seq)
                    wait_tags = tags[:1]
                    value_tag = tags[1]
                    if ready_at.get(value_tag, _FAR_FUTURE) <= now:
                        instr.data_ready_at = now
                        store_queue.set_data_ready(instr.seq, now)
                    else:
                        self.data_waiters[value_tag].append(instr)
                else:
                    wait_tags = tags
                need_int = need_fp = 0
                waiting = 0
                for tag in wait_tags:
                    if tag >> TAG_CLASS_SHIFT:
                        need_fp += 1
                    else:
                        need_int += 1
                    if ready_at.get(tag, _FAR_FUTURE) > now:
                        waiters[tag].append(instr)
                        waiting += 1
                instr.need_int = need_int
                instr.need_fp = need_fp
                instr.wait_count = waiting
                if waiting == 0:
                    heappush(ready_heap, instr.heap_item)

        # ---- fetch -------------------------------------------------------
        if not self._exhausted or self._replay:
            if now < self.fetch_resume_at:
                stats.fetch_stall_cycles += 1
            else:
                budget = cfg.fetch_width
                room = cfg.fetch_buffer_size - len(buffer)
                if room < budget:
                    budget = room  # the buffer only grows inside this loop
                replay = self._replay
                perfect = cfg.perfect_branch_prediction
                # Inlined BHT predict: counter top bit decides direction.
                bht_counters = self.bht._counters
                bht_mask = self.bht._mask
                trace = self._trace
                seq = self._next_seq
                first_seq = seq
                while budget:
                    if replay:
                        rec = replay.popleft()
                    else:
                        rec = next(trace, None)
                        if rec is None:
                            self._exhausted = True
                            break
                    instr = DynInstr(rec, seq)
                    seq += 1
                    instr.fetch_at = now
                    buffer.append(instr)
                    budget -= 1
                    if instr.is_br:
                        predicted_taken = (
                            rec.taken if perfect
                            else bht_counters[(rec.pc >> 2) & bht_mask] >= 2)
                        if predicted_taken != rec.taken:
                            # Trace-driven wrong-path model: stop fetching
                            # until the branch resolves (resolution sets
                            # the resume cycle).
                            instr.mispredicted = True
                            self.fetch_resume_at = _FAR_FUTURE
                            break
                        if predicted_taken:
                            break  # predicted-taken ends the fetch group
                self._next_seq = seq
                stats.fetched += seq - first_seq

        # ---- occupancy integrals + cycle advance ------------------------
        int_free = self._int_free
        if int_free is not None:
            stats.int_reg_occupancy_sum += self._npr_int - len(int_free)
            stats.fp_reg_occupancy_sum += self._npr_fp - len(self._fp_free)
        else:
            stats.int_reg_occupancy_sum += renamer.allocated_physical(
                RegClass.INT)
            stats.fp_reg_occupancy_sum += renamer.allocated_physical(
                RegClass.FP)
        self.now = now + 1

    # -- event helpers --------------------------------------------------------

    def _fire_stores(self, stores, now):
        """Deliver a fired tag's value to stores waiting on their data."""
        for store in stores:
            if store.squashed:
                continue
            store.data_ready_at = now
            self.mem.store_queue.set_data_ready(store.seq, now)
            if store.mem_ready_at >= 0 and not store.completed:
                store.completed = True
                store.completed_at = now

    # -- precise-exception recovery ---------------------------------------------

    def _recover_from_fault(self, offender, now):
        """Flush everything younger than ``offender`` and replay it.

        Implements the paper's §3.2.2 recovery: the reorder buffer is
        popped from the newest entry down to the offending one, each
        pop undoing the rename mapping (the renamer's ``rollback``);
        the flushed dynamic instructions re-enter through fetch.
        """
        rob = self.rob
        assert rob and rob[0] is offender, "faults are detected at the head"
        younger = list(rob)[1:]
        while len(rob) > 1:
            rob.pop()
        # Rename-state rollback wants youngest first.
        self.renamer.rollback(list(reversed(younger)))
        freed_iq = 0
        for instr in younger:
            instr.squashed = True
            if instr.in_iq:
                instr.in_iq = False
                freed_iq += 1
        self.iq_count -= freed_iq
        # Store-queue entries of flushed stores disappear.
        self.mem.store_queue.remove_younger_than(offender.seq)
        # Loads waiting on the memory system are dropped (their MSHRs, if
        # any, simply fill unused — as in real lockup-free caches).
        alive = [e for e in self.pending_mem if not e[1].squashed]
        heapify(alive)
        self.pending_mem = alive
        self._mshr_gated = [g for g in self._mshr_gated if not g.squashed]
        # Replay in program order: the flushed window, then the
        # un-renamed fetch buffer, then anything an *earlier* fault left
        # queued (everything flushed now is older than those records).
        flushed = [instr.rec for instr in younger]
        flushed.extend(instr.rec for instr in self.fetch_buffer)
        self.fetch_buffer.clear()
        self._replay.extendleft(reversed(flushed))
        # Fetch restarts after the exception is handled.
        self.fetch_resume_at = now + 1
        self.stats.faults += 1

    # -- final bookkeeping -----------------------------------------------------

    def _harvest_stats(self):
        cache = self.mem.cache
        self.stats.loads = cache.loads
        self.stats.load_misses = cache.load_misses
        self.stats.stores = cache.stores
        self.stats.store_forwards = self.mem.store_queue.forwards
        if self.regfile is not None:
            self.stats.rf_read_stalls = self.regfile.read_stalls
            self.stats.rf_bank_conflicts = self.regfile.bank_conflicts


def simulate(config=None, trace=None, workload=None,
             max_instructions=30_000, skip=2_000, seed=1234):
    """One-call simulation entry point.

    Provide either a ``trace`` (any iterable of
    :class:`~repro.isa.instruction.TraceRecord`) or a ``workload`` (a
    benchmark name from :data:`repro.trace.WORKLOADS` or a
    :class:`~repro.trace.Workload` instance).
    """
    from repro.trace.generator import (SyntheticTrace, materialized_trace,
                                       trace_columns)
    from repro.trace.program import Workload
    from repro.trace.workloads import load_workload

    if (trace is None) == (workload is None):
        raise ValueError("provide exactly one of trace= or workload=")
    config = config or ProcessorConfig()
    processor = Processor(config)
    name = ""
    if workload is not None:
        if isinstance(workload, str):
            name = workload
            workload = load_workload(workload)
            if max_instructions is not None:
                # Registry workloads are uniquely named, so repeated
                # runs of the same (workload, seed) point share one
                # materialization (see trace.generator): typed columns
                # for the native tier, a record list for the
                # interpreter, by the tier the run takes first.  On a
                # column overflow the native tier gets the records, and
                # Processor.run counts the fallback.
                count = skip + max_instructions
                trace = None
                if processor._tier(max_instructions) == "native":
                    with contextlib.suppress(OverflowError):
                        trace = trace_columns(workload, seed, count)
                if trace is None:
                    trace = materialized_trace(workload, seed, count)
            else:
                trace = SyntheticTrace(workload, seed)
        elif isinstance(workload, Workload):
            name = workload.name
            trace = SyntheticTrace(workload, seed)
        else:
            raise TypeError("workload must be a name or a Workload")
    result = processor.run(trace, max_instructions=max_instructions, skip=skip)
    result.workload = name
    result.seed = seed
    return result
