"""Processor configuration tests (defaults = the paper's Table 1 machine)."""

import pytest

from repro.core.conventional import ConventionalRenamer
from repro.core.early_release import EarlyReleaseRenamer
from repro.core.virtual_physical import AllocationStage, VirtualPhysicalRenamer
from repro.isa.opcodes import FUKind
from repro.uarch.config import (
    ProcessorConfig,
    RenamingScheme,
    conventional_config,
    virtual_physical_config,
)


class TestPaperDefaults:
    def test_widths(self):
        cfg = ProcessorConfig()
        assert cfg.fetch_width == 8
        assert cfg.commit_width == 8

    def test_window(self):
        assert ProcessorConfig().rob_size == 128

    def test_register_files(self):
        cfg = ProcessorConfig()
        assert cfg.int_phys == 64 and cfg.fp_phys == 64
        assert cfg.nlr_int == 32 and cfg.nlr_fp == 32
        assert cfg.read_ports == 16 and cfg.write_ports == 8

    def test_functional_units_table1(self):
        cfg = ProcessorConfig()
        assert cfg.fu_counts[FUKind.SIMPLE_INT] == 3
        assert cfg.fu_counts[FUKind.COMPLEX_INT] == 2
        assert cfg.fu_counts[FUKind.EFF_ADDR] == 3
        assert cfg.fu_counts[FUKind.SIMPLE_FP] == 3
        assert cfg.fu_counts[FUKind.FP_MULT] == 2
        assert cfg.fu_counts[FUKind.FP_DIV_SQRT] == 2

    def test_memory_system(self):
        cfg = ProcessorConfig()
        assert cfg.cache.size_bytes == 16 * 1024
        assert cfg.cache.miss_penalty == 50
        assert cfg.cache_ports == 3

    def test_branch_predictor(self):
        assert ProcessorConfig().bht_entries == 2048

    def test_paper_faithful_spin_default(self):
        assert ProcessorConfig().retry_gating is False


class TestValidation:
    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(fetch_width=0)

    def test_zero_rob_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(rob_size=0)

    def test_empty_store_queue_rejected(self):
        # A store queue with no entry can never take a store; None is the
        # one spelling of "unbounded", on both engine tiers.
        for size in (0, -1):
            with pytest.raises(ValueError, match="store_queue_size"):
                ProcessorConfig(store_queue_size=size)
        assert ProcessorConfig(store_queue_size=1).store_queue_size == 1
        assert ProcessorConfig().store_queue_size is None  # unbounded

    def test_vp_nrr_range_checked(self):
        with pytest.raises(ValueError):
            virtual_physical_config(nrr=40)  # max 32 at 64 regs
        with pytest.raises(ValueError):
            virtual_physical_config(nrr=0)

    def test_conventional_ignores_nrr(self):
        conventional_config(nrr_int=99, nrr_fp=99)  # no validation error


class TestBuilders:
    def test_conventional_builds_conventional(self):
        renamer = conventional_config().build_renamer()
        assert type(renamer) is ConventionalRenamer

    def test_vp_builds_vp(self):
        renamer = virtual_physical_config(nrr=8).build_renamer()
        assert isinstance(renamer, VirtualPhysicalRenamer)
        assert renamer.allocation is AllocationStage.WRITEBACK

    def test_issue_allocation_propagated(self):
        cfg = virtual_physical_config(nrr=8, allocation=AllocationStage.ISSUE)
        assert cfg.build_renamer().allocation is AllocationStage.ISSUE

    def test_early_release_builds(self):
        cfg = ProcessorConfig(scheme=RenamingScheme.EARLY_RELEASE)
        assert type(cfg.build_renamer()) is EarlyReleaseRenamer

    def test_with_override(self):
        cfg = conventional_config().with_(int_phys=48, fp_phys=48)
        assert cfg.int_phys == 48
        assert cfg.scheme is RenamingScheme.CONVENTIONAL

    def test_vp_nvr_follows_window(self):
        cfg = virtual_physical_config(nrr=8, rob_size=64)
        renamer = cfg.build_renamer()
        from repro.isa.registers import RegClass

        assert renamer.nvr[RegClass.INT] == 32 + 64
