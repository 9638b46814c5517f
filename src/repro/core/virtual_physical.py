"""Virtual-physical register renaming (the paper's contribution, §3).

At decode the destination is mapped to a **virtual-physical (VP)
register** — a pure tag with no storage.  The physical register is
allocated late:

* ``AllocationStage.WRITEBACK`` — when execution completes (paper
  §3.2.2): an instruction that finds no allocatable register is
  *squashed* and re-executed from the issue queue;
* ``AllocationStage.ISSUE`` — at issue (paper §3.4): allocation failure
  simply blocks the issue, so nothing is ever re-executed, at the cost
  of a smaller register-pressure reduction.

Structures (paper Figure 1):

* **GMT** (general map table), indexed by logical register: the current
  VP mapping, the physical register if already allocated (``P``), and a
  valid bit ``V``.
* **PMT** (physical map table), indexed by VP register: the physical
  register the VP register is bound to, or -1.
* free pools of physical registers and of VP registers.  The number of
  VP registers is ``NLR + window size``, which the paper proves is
  enough for the processor never to stall for lack of a VP tag.

Dependence tags are VP register numbers.  Readiness of a tag is
published by the pipeline exactly when the producer both *has its value*
and *has a physical register for it* (identical instants under
write-back allocation; issue allocation publishes at issue + latency,
like the conventional scheme).
"""

from __future__ import annotations

from repro.isa.opcodes import dest_class_for
from repro.isa.registers import (
    CLASS_SHIFT,
    NUM_LOGICAL_FP,
    NUM_LOGICAL_INT,
    RegClass,
    reg_index,
)
from repro.core.freelist import FreeList
from repro.core.policy import AllocationStage, RenamingPolicy
from repro.core.reserve import ReservePolicy
from repro.core.tags import TAG_CLASS_SHIFT, make_tag

_INDEX_MASK = (1 << CLASS_SHIFT) - 1


class _GMT:
    """General map table for one register class."""

    __slots__ = ("vp", "p", "v")

    def __init__(self, nlr, initial_vp):
        self.vp = list(initial_vp)  # current VP mapping per logical register
        self.p = list(range(nlr))  # physical mapping (valid iff v)
        self.v = [True] * nlr  # V bit: physical register already allocated?


class VirtualPhysicalRenamer(RenamingPolicy):
    """Late-allocation renaming with NRR deadlock avoidance.

    One class backs the registry's two VP policies: ``vp-writeback``
    (allocation at completion, squash-and-re-execute on failure) and
    ``vp-issue`` (allocation at issue, failure blocks the issue).  The
    capability flags are set per instance from the allocation stage, so
    the engine binds exactly the hooks the variant needs.
    """

    #: the paper: commit "may be delayed by one cycle due to the
    #: requirement to look up the PMT".
    commit_extra_latency = 1
    #: both variants dispatch destination writers into the NRR reserve.
    has_dispatch_hook = True

    def __init__(self, int_phys, fp_phys, window_size,
                 nrr_int, nrr_fp,
                 allocation=AllocationStage.WRITEBACK,
                 nlr_int=NUM_LOGICAL_INT, nlr_fp=NUM_LOGICAL_FP):
        self.allocation = AllocationStage(allocation)
        self.nlr = {RegClass.INT: nlr_int, RegClass.FP: nlr_fp}
        self.npr = {RegClass.INT: int_phys, RegClass.FP: fp_phys}
        for cls in (RegClass.INT, RegClass.FP):
            nrr = nrr_int if cls is RegClass.INT else nrr_fp
            max_nrr = self.npr[cls] - self.nlr[cls]
            if max_nrr < 1:
                raise ValueError(
                    f"{cls.name}: need more physical ({self.npr[cls]}) than "
                    f"logical ({self.nlr[cls]}) registers"
                )
            if not 1 <= nrr <= max_nrr:
                raise ValueError(
                    f"{cls.name}: NRR={nrr} outside the legal range "
                    f"1..{max_nrr} (= physical - logical registers)"
                )
        # NVR = NLR + window guarantees no stall for lack of a VP tag.
        self.nvr = {cls: self.nlr[cls] + window_size for cls in self.nlr}
        # Reset state: logical register i is held by VP register i, bound
        # to physical register i.
        self.gmt = {
            cls: _GMT(self.nlr[cls], range(self.nlr[cls])) for cls in self.nlr
        }
        self.pmt = {
            cls: list(range(self.nlr[cls]))
            + [-1] * (self.nvr[cls] - self.nlr[cls])
            for cls in self.nlr
        }
        self.free_phys = {
            cls: FreeList(range(self.nlr[cls], self.npr[cls])) for cls in self.nlr
        }
        self.free_vp = {
            cls: FreeList(range(self.nlr[cls], self.nvr[cls])) for cls in self.nlr
        }
        self.reserve = ReservePolicy(nrr_int, nrr_fp)
        # Direct per-class reserve handles: dispatch/commit/allocate are
        # per-instruction hot paths, so skip the policy-level re-dispatch.
        # (The base class's on_dispatch consumes this table.)
        self._reserve_by_cls = self.reserve._cls
        # Dependence tags are VP register numbers: the GMT's VP columns
        # are the source-tag tables of the shared _rename_sources path.
        self._tag_tables = {cls: self.gmt[cls].vp for cls in self.gmt}
        # Per-variant capabilities: write-back allocation needs the
        # completion veto (and keeps writers in the IQ for possible
        # re-execution); issue allocation needs the issue veto.  The
        # unused hook of each variant is unconditionally True, so
        # leaving it unbound keeps the engine's fast path exact.
        writeback = self.allocation is AllocationStage.WRITEBACK
        self.has_issue_hook = not writeback
        self.has_complete_hook = writeback
        self.holds_writers_in_iq = writeback
        self.supports_retry_gating = writeback
        self.squashes = 0  # failed write-back allocations
        self.issue_blocks = 0  # failed issue-stage allocations
        self.vp_stalls = 0

    # -- Renamer interface ---------------------------------------------------

    def can_rename(self, rec):
        """Whether a *virtual* register is free for ``rec``'s destination
        (the VP scheme never stalls decode on physical registers)."""
        cls = dest_class_for(rec.op)
        if cls is None:
            return True
        if self.free_vp[cls].free_count == 0:
            # Unreachable when NVR = NLR + window (the sizing theorem of
            # §3.2.1); kept for configurations that shrink NVR.
            self.vp_stalls += 1
            return False
        return True

    def rename(self, instr):
        """Bind the destination to a fresh virtual-physical register.

        Physical allocation is deferred to :meth:`on_issue` /
        :meth:`on_complete` (per the configured allocation stage); the
        GMT tracks the logical→VP mapping so consumers wake on VP tags.
        """
        self._rename_sources(instr)
        cls = instr.dest_cls
        if cls is None:
            instr.dest_tag = -1
            return
        rec = instr.rec
        idx = rec.dest & _INDEX_MASK
        gmt = self.gmt[cls]
        new_vp = self.free_vp[cls].allocate()
        instr.vp_reg = new_vp
        instr.prev_vp = gmt.vp[idx]  # kept in the ROB for recovery/commit
        gmt.vp[idx] = new_vp
        gmt.v[idx] = False  # no physical register yet
        instr.dest_tag = (cls << TAG_CLASS_SHIFT) | new_vp

    # on_dispatch: inherited — the base class dispatches destination
    # writers into the per-class NRR reserve (``_reserve_by_cls``).

    def on_issue(self, instr, now):
        """Issue-stage allocation attempt (ISSUE configs only); a
        ``False`` return blocks issue and counts an issue-alloc block."""
        if self.allocation is not AllocationStage.ISSUE or instr.dest_cls is None:
            return True
        if instr.dest_phys >= 0:
            return True  # already allocated (a load retrying its access)
        if not self._try_allocate(instr):
            self.issue_blocks += 1
            return False
        return True

    def on_complete(self, instr, now):
        """Write-back allocation attempt: a ``False`` return squashes
        the instruction for re-execution (paper §4.2.1)."""
        if instr.dest_cls is None:
            return True
        if instr.dest_phys >= 0:
            # Issue-stage allocation already bound the register.
            return True
        if not self._try_allocate(instr):
            self.squashes += 1
            return False
        return True

    def may_allocate_now(self, instr):
        """Would the NRR rule admit an allocation for ``instr`` right now?

        The issue logic uses this to hold back *re-executions*: a squashed
        instruction re-arbitrates for its functional unit only once the
        allocation precondition holds, rather than spinning every cycle
        and starving branches and first-time issues of resources.  (The
        check is advisory — by the time the re-execution completes a
        competitor may have taken the register, in which case it is
        simply squashed again.)
        """
        return self.reserve.may_allocate(
            instr, self.free_phys[instr.dest_cls].free_count
        )

    def _try_allocate(self, instr):
        cls = instr.dest_cls
        free = self.free_phys[cls]
        if not (instr.reserved
                or self._reserve_by_cls[cls].may_allocate(instr,
                                                          free.free_count)):
            return False
        if free.free_count == 0:
            raise RuntimeError(
                "reserved instruction found no free register: the NRR "
                "invariant is broken"
            )
        phys = free.allocate()
        instr.dest_phys = phys
        vp = instr.vp_reg
        self.pmt[cls][vp] = phys
        gmt = self.gmt[cls]
        idx = reg_index(instr.rec.dest)
        # Broadcast to the GMT: only if this VP register is still the
        # current mapping of the logical register.
        if gmt.vp[idx] == vp:
            gmt.p[idx] = phys
            gmt.v[idx] = True
        if instr.reserved:
            self._reserve_by_cls[cls].used += 1
        return True

    def on_commit(self, instr):
        """Free the superseded previous mapping — both its VP name and,
        through the PMT, the physical register bound to it."""
        cls = instr.dest_cls
        if cls is None:
            return
        self._reserve_by_cls[cls].on_commit(instr)
        # Free the VP register of the previous instruction with the same
        # logical destination, and the physical register bound to it
        # (found through the PMT, hence the extra commit cycle).
        prev_vp = instr.prev_vp
        prev_phys = self.pmt[cls][prev_vp]
        if prev_phys < 0:
            raise RuntimeError(
                "previous VP mapping committed without a physical register"
            )
        self.pmt[cls][prev_vp] = -1
        self.free_phys[cls].release(prev_phys)
        self.free_vp[cls].release(prev_vp)

    def rollback(self, instrs):
        """Undo mappings, youngest first (paper §3.2.2 recovery).

        For each squashed instruction the GMT entry is restored to the
        previous VP mapping recorded at rename; the physical binding, if
        any, is recovered through the PMT, exactly as the paper describes.
        """
        for instr in instrs:
            instr.squashed = True
            cls = instr.dest_cls
            if cls is None:
                continue
            idx = reg_index(instr.rec.dest)
            gmt = self.gmt[cls]
            if gmt.vp[idx] != instr.vp_reg:
                raise RuntimeError("rollback out of order: GMT mismatch")
            # Return the squashed instruction's VP (and physical, if
            # allocated) registers to their pools.
            had_phys = instr.dest_phys >= 0
            if had_phys:
                self.pmt[cls][instr.vp_reg] = -1
                self.free_phys[cls].release(instr.dest_phys)
                instr.dest_phys = -1
            self.free_vp[cls].release(instr.vp_reg)
            # Restore the previous mapping; its physical binding comes
            # from the PMT.
            prev_vp = instr.prev_vp
            gmt.vp[idx] = prev_vp
            prev_phys = self.pmt[cls][prev_vp]
            gmt.p[idx] = prev_phys if prev_phys >= 0 else 0
            gmt.v[idx] = prev_phys >= 0
            # Reserve bookkeeping: squashed reserved instructions leave
            # the reserved set.
            if instr.reserved:
                state = self.reserve._cls[cls]
                state.reg -= 1
                if had_phys:
                    state.used -= 1
                instr.reserved = False
        if instrs:
            # Drop every rolled-back instruction still queued for the PRR
            # pointer; instrs is ordered youngest -> oldest.
            self.reserve.drop_younger_than(instrs[-1].seq - 1)

    def initial_ready_tags(self):
        """VP tags holding architectural values at reset (all ready)."""
        tags = []
        for cls in (RegClass.INT, RegClass.FP):
            tags.extend(make_tag(cls, vp) for vp in range(self.nlr[cls]))
        return tags

    # -- checkpointing ---------------------------------------------------
    #
    # R10000-style checkpoints (paper §3.2.2's closing remark): a copy of
    # the GMT is enough to restore the logical->VP view in one cycle; the
    # PMT needs no checkpoint because VP->physical bindings are never
    # mutated in place, only created at allocation and destroyed at
    # commit/rollback of the binding instruction itself.

    def snapshot(self):
        """O(NLR) checkpoint of the GMT."""
        return {
            cls: (list(g.vp), list(g.p), list(g.v))
            for cls, g in self.gmt.items()
        }

    def state_fingerprint(self):
        """Canonical view of GMT + PMT + pools (for equivalence tests)."""
        gmt = tuple(
            (tuple(g.vp), tuple(p if valid else -1
                                for p, valid in zip(g.p, g.v)))
            for g in (self.gmt[RegClass.INT], self.gmt[RegClass.FP])
        )
        pmt = tuple(tuple(self.pmt[cls])
                    for cls in (RegClass.INT, RegClass.FP))
        pools = tuple(
            (tuple(sorted(p for p in range(self.npr[cls])
                          if p in self.free_phys[cls])),
             tuple(sorted(v for v in range(self.nvr[cls])
                          if v in self.free_vp[cls])))
            for cls in (RegClass.INT, RegClass.FP)
        )
        return gmt, pmt, pools

    def free_physical(self, cls):
        """Number of free physical registers of ``cls``."""
        return self.free_phys[cls].free_count

    def allocated_physical(self, cls):
        """Number of allocated physical registers of ``cls``."""
        return self.npr[cls] - self.free_phys[cls].free_count

    def phys_pools(self):
        """Per-class physical pools (the engine's occupancy fast path)."""
        return self.free_phys
