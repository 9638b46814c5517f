"""Conventional register renaming (the paper's baseline).

This is the R10000/21264-style organization the paper's §2 describes:

* a map table per class translates logical to physical registers,
* the destination is mapped to a *free* physical register at **decode**,
* the physical register previously mapped to the same logical register
  is freed when the renaming instruction **commits**,
* decode stalls when the free pool of the required class is empty.

Dependence tags are the physical register numbers themselves.
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
from repro.core.policy import RenamingPolicy
from repro.core.tags import TAG_CLASS_SHIFT, make_tag

_INDEX_MASK = (1 << CLASS_SHIFT) - 1


class ConventionalRenamer(RenamingPolicy):
    """Physical-register-file renaming with decode-stage allocation.

    Registered in the policy registry as ``conventional``; uses none of
    the optional lifecycle hooks (the capability flags keep the base
    class defaults), so the cycle engine's issue and completion paths
    never call into it.
    """

    def __init__(self, int_phys, fp_phys,
                 nlr_int=NUM_LOGICAL_INT, nlr_fp=NUM_LOGICAL_FP):
        for npr, nlr, label in ((int_phys, nlr_int, "int"), (fp_phys, nlr_fp, "fp")):
            if npr < nlr + 1:
                raise ValueError(
                    f"{label}: need more physical ({npr}) than logical ({nlr}) "
                    "registers, plus at least one for renaming"
                )
        self.nlr = {RegClass.INT: nlr_int, RegClass.FP: nlr_fp}
        self.npr = {RegClass.INT: int_phys, RegClass.FP: fp_phys}
        # At reset each logical register is mapped to a physical register
        # holding the architectural value; the rest are free.
        self.map_table = {
            cls: list(range(self.nlr[cls])) for cls in (RegClass.INT, RegClass.FP)
        }
        self.free = {
            cls: FreeList(range(self.nlr[cls], self.npr[cls]))
            for cls in (RegClass.INT, RegClass.FP)
        }
        # Dependence tags ARE the mapped physical registers, so the map
        # table doubles as the source-tag table of the shared
        # RenamingPolicy._rename_sources fast path.
        self._tag_tables = self.map_table
        self.decode_stalls = 0

    # -- Renamer interface ---------------------------------------------------

    def can_rename(self, rec):
        """Whether a physical register is free for ``rec``'s destination
        (a miss counts one decode stall)."""
        cls = dest_class_for(rec.op)
        if cls is None:
            return True
        if self.free[cls].free_count == 0:
            self.decode_stalls += 1
            return False
        return True

    def rename(self, instr):
        """Map sources to tags and allocate the destination register.

        Conventional renaming allocates at decode: the instruction
        leaves with ``dest_phys`` bound and the previous mapping saved
        in ``prev_phys`` for commit-time release or rollback.
        """
        self._rename_sources(instr)
        cls = instr.dest_cls
        if cls is None:
            instr.dest_tag = -1
            return
        rec = instr.rec
        idx = rec.dest & _INDEX_MASK
        table = self.map_table[cls]
        new_phys = self.free[cls].allocate()
        instr.prev_phys = table[idx]
        instr.dest_phys = new_phys
        table[idx] = new_phys
        instr.dest_tag = (cls << TAG_CLASS_SHIFT) | new_phys

    def on_commit(self, instr):
        """Release the previous mapping of the committed destination —
        the conventional scheme's (late) register-free point."""
        if instr.dest_cls is not None:
            self.free[instr.dest_cls].release(instr.prev_phys)

    def rollback(self, instrs):
        """Undo mappings; ``instrs`` must be ordered youngest first."""
        for instr in instrs:
            cls = instr.dest_cls
            if cls is None:
                continue
            idx = reg_index(instr.rec.dest)
            if self.map_table[cls][idx] != instr.dest_phys:
                raise RuntimeError("rollback out of order: map table mismatch")
            self.map_table[cls][idx] = instr.prev_phys
            self.free[cls].release(instr.dest_phys)

    def initial_ready_tags(self):
        """Tags holding architectural values at reset (all ready)."""
        tags = []
        for cls in (RegClass.INT, RegClass.FP):
            tags.extend(make_tag(cls, p) for p in range(self.nlr[cls]))
        return tags

    # -- checkpointing ---------------------------------------------------
    #
    # The paper notes that "a mechanism based on checkpointing similar to
    # the one used by the R10000 could be used to recover from branches
    # in just one cycle".  A checkpoint is a copy of the map table; the
    # free lists are reconstructed at restore (everything mapped by no
    # checkpointed name and not in flight is free).

    def snapshot(self):
        """O(NLR) checkpoint of the rename state."""
        return {cls: list(table) for cls, table in self.map_table.items()}

    def state_fingerprint(self):
        """Canonical view of the rename state (for equivalence tests)."""
        return (
            tuple(tuple(t) for t in
                  (self.map_table[RegClass.INT], self.map_table[RegClass.FP])),
            tuple(
                tuple(sorted(
                    p for p in range(self.npr[cls]) if p in self.free[cls]
                ))
                for cls in (RegClass.INT, RegClass.FP)
            ),
        )

    def free_physical(self, cls):
        """Number of free physical registers of ``cls``."""
        return self.free[cls].free_count

    def allocated_physical(self, cls):
        """Number of allocated physical registers of ``cls``."""
        return self.npr[cls] - self.free[cls].free_count

    def phys_pools(self):
        """Per-class physical pools (the engine's occupancy fast path)."""
        return self.free
