"""Policy registry tests: resolution, capability flags, config identity."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.policy import (
    AllocationStage,
    PolicyInfo,
    RenamingPolicy,
    policy_name_for,
    policy_names,
    register_policy,
    resolve_policy,
    _REGISTRY,
)
from repro.uarch.config import (
    ProcessorConfig,
    RenamingScheme,
    policy_config,
    virtual_physical_config,
)


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert policy_names() == (
            "conventional", "early-release", "vp-issue", "vp-writeback",
        )

    def test_unknown_policy_error_lists_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_policy("r10000")
        message = str(excinfo.value)
        assert "unknown renaming policy 'r10000'" in message
        for name in policy_names():
            assert name in message

    def test_policy_name_for_scheme_allocation(self):
        assert policy_name_for("conventional") == "conventional"
        assert policy_name_for("early-release") == "early-release"
        assert policy_name_for(
            "virtual-physical", AllocationStage.ISSUE) == "vp-issue"
        assert policy_name_for(
            "virtual-physical", AllocationStage.WRITEBACK) == "vp-writeback"
        with pytest.raises(KeyError):
            policy_name_for("no-such-scheme")

    def test_register_custom_policy(self):
        info = PolicyInfo(name="test-custom", scheme="conventional",
                          allocation=None, uses_nrr=False,
                          description="registry round-trip test",
                          build=lambda config: None)
        register_policy(info)
        try:
            assert resolve_policy("test-custom") is info
            assert "test-custom" in policy_names()
        finally:
            _REGISTRY.pop("test-custom")

    def test_descriptions_nonempty(self):
        for name in policy_names():
            assert resolve_policy(name).description


class TestCapabilityFlags:
    def build(self, name, **kwargs):
        return policy_config(name, **kwargs).build_renamer()

    def test_conventional_needs_no_hooks(self):
        renamer = self.build("conventional")
        assert not renamer.has_dispatch_hook
        assert not renamer.has_issue_hook
        assert not renamer.has_complete_hook
        assert not renamer.holds_writers_in_iq
        assert not renamer.supports_retry_gating
        assert renamer.commit_extra_latency == 0

    def test_early_release_needs_no_hooks(self):
        renamer = self.build("early-release")
        assert not renamer.has_issue_hook
        assert not renamer.has_complete_hook

    def test_vp_writeback_capabilities(self):
        renamer = self.build("vp-writeback", nrr=8)
        assert renamer.has_dispatch_hook
        assert not renamer.has_issue_hook
        assert renamer.has_complete_hook
        assert renamer.holds_writers_in_iq
        assert renamer.supports_retry_gating
        assert renamer.commit_extra_latency == 1

    def test_vp_issue_capabilities(self):
        renamer = self.build("vp-issue", nrr=8)
        assert renamer.has_dispatch_hook
        assert renamer.has_issue_hook
        assert not renamer.has_complete_hook
        assert not renamer.holds_writers_in_iq
        assert not renamer.supports_retry_gating

    def test_pool_introspection(self):
        from repro.isa.registers import RegClass

        conventional = self.build("conventional")
        assert conventional.phys_pools() is conventional.free
        vp = self.build("vp-writeback", nrr=8)
        assert vp.phys_pools() is vp.free_phys
        assert RenamingPolicy.phys_pools(vp) is None  # base default
        assert conventional.npr[RegClass.INT] == 64


class TestPolicyConfig:
    def test_each_name_builds_its_policy(self):
        from repro.core.conventional import ConventionalRenamer
        from repro.core.early_release import EarlyReleaseRenamer
        from repro.core.virtual_physical import VirtualPhysicalRenamer

        assert type(policy_config("conventional")
                    .build_renamer()) is ConventionalRenamer
        assert type(policy_config("early-release")
                    .build_renamer()) is EarlyReleaseRenamer
        wb = policy_config("vp-writeback", nrr=8).build_renamer()
        assert (type(wb) is VirtualPhysicalRenamer
                and wb.allocation is AllocationStage.WRITEBACK)
        issue = policy_config("vp-issue", nrr=8).build_renamer()
        assert issue.allocation is AllocationStage.ISSUE

    def test_policy_property_round_trips(self):
        for name in policy_names():
            assert policy_config(name).policy == name

    def test_nrr_rejected_for_non_nrr_policies(self):
        with pytest.raises(ValueError, match="does not take an NRR"):
            policy_config("conventional", nrr=8)

    def test_changes_applied_in_same_construction(self):
        cfg = policy_config("vp-writeback", nrr=48, int_phys=96, fp_phys=96)
        assert cfg.nrr_int == 48 and cfg.int_phys == 96

    def test_unknown_policy_raises_registry_error(self):
        with pytest.raises(KeyError, match="unknown renaming policy"):
            policy_config("magic")

    def test_top_level_exports(self):
        assert repro.policy_config is policy_config
        assert repro.policy_names is policy_names


class TestConfigSerialization:
    def test_to_dict_carries_policy_name(self):
        assert policy_config("vp-issue", nrr=8).to_dict()["policy"] == "vp-issue"
        assert ProcessorConfig().to_dict()["policy"] == "conventional"

    def test_round_trip_with_policy_and_port_fields(self):
        cfg = policy_config("vp-writeback", nrr=16, rf_model=True,
                            rf_read_ports=4, rf_banks=4,
                            rf_bank_read_ports=2, rf_bank_write_ports=2)
        clone = ProcessorConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.key() == cfg.key()
        assert clone.policy == "vp-writeback"
        assert clone.rf_model and clone.rf_read_ports == 4
        assert clone.rf_banks == 4

    def test_from_dict_accepts_bare_policy_name(self):
        cfg = ProcessorConfig.from_dict({"policy": "vp-issue", "nrr_int": 8,
                                         "nrr_fp": 8})
        assert cfg.scheme is RenamingScheme.VIRTUAL_PHYSICAL
        assert cfg.allocation is AllocationStage.ISSUE
        assert cfg.nrr_int == 8

    def test_explicit_scheme_wins_over_policy(self):
        cfg = ProcessorConfig.from_dict({"policy": "vp-issue",
                                         "scheme": "conventional"})
        assert cfg.scheme is RenamingScheme.CONVENTIONAL

    def test_key_differs_on_port_fields(self):
        base = ProcessorConfig()
        assert base.key() != ProcessorConfig(rf_model=True).key()
        assert (ProcessorConfig(rf_model=True, rf_read_ports=4).key()
                != ProcessorConfig(rf_model=True, rf_read_ports=8).key())
        assert (ProcessorConfig(rf_model=True, rf_banks=4,
                                rf_bank_read_ports=2).key()
                != ProcessorConfig(rf_model=True).key())

    def test_key_stable_across_processes_with_new_fields(self):
        """The policy + port fields must hash identically in a fresh
        interpreter — they key the persistent result store."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.uarch.config import policy_config;"
            "print(policy_config('vp-issue', nrr=8, rf_model=True,"
            " rf_read_ports=4, rf_banks=2, rf_bank_read_ports=2).key())"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, check=True,
                           env=env)
            for _ in range(2)
        ]
        keys = {proc.stdout.strip() for proc in runs}
        here = policy_config("vp-issue", nrr=8, rf_model=True,
                             rf_read_ports=4, rf_banks=2,
                             rf_bank_read_ports=2).key()
        assert keys == {here}


class TestSharedBaseHelpers:
    def test_src_tags_construction_shared_by_policies(self):
        """Both renamer families build src_tags through the base-class
        _rename_sources fast path (the dedup the refactor enabled)."""
        from repro.isa.instruction import TraceRecord
        from repro.isa.opcodes import OpClass
        from repro.isa.registers import RegClass, make_reg
        from repro.uarch.dynamic import DynInstr

        rec = TraceRecord(0x0, OpClass.INT_ALU,
                          dest=make_reg(RegClass.INT, 3),
                          src1=make_reg(RegClass.INT, 1),
                          src2=make_reg(RegClass.INT, 1))
        for name in policy_names():
            renamer = policy_config(name).build_renamer()
            assert renamer._tag_tables is not None
            instr = DynInstr(rec, 0)
            renamer.rename(instr)
            assert len(instr.src_tags) == 2
            # Both sources name the same register -> identical tags.
            assert instr.src_tags[0] == instr.src_tags[1]

    def test_reserve_dispatch_lives_in_base_class(self):
        """The NRR reserve dispatch is the base-class on_dispatch; the
        VP variants inherit it rather than redefining it."""
        from repro.core.virtual_physical import VirtualPhysicalRenamer

        assert "on_dispatch" not in vars(VirtualPhysicalRenamer)
        assert VirtualPhysicalRenamer.on_dispatch is RenamingPolicy.on_dispatch


class TestCapabilityDeclarations:
    """The static registry capability declarations are the truth the
    engine (and the native tier's feature gate) builds on —
    they must match the flags of an actually-built renamer, and resolve
    through a cache rather than per processor construction."""

    def test_declared_capabilities_match_built_instances(self):
        from repro.core.policy import PolicyCapabilities, policy_capabilities

        for name in policy_names():
            declared = policy_capabilities(name)
            assert declared is not None, (
                f"built-in policy {name!r} registered without a "
                f"capability declaration")
            built = PolicyCapabilities.of(
                policy_config(name).build_renamer())
            assert declared == built, (
                f"{name}: registry declares {declared}, instance has "
                f"{built}")

    def test_capability_lookup_cached_across_constructions(self):
        """A sweep constructing many processors (and deriving their
        native feature vectors) resolves each policy's flags and name
        once — not once per construction (the hoisted per-config
        lookup regression pin)."""
        from repro.core.policy import _policy_name_cache, policy_capabilities
        from repro.uarch import native
        from repro.uarch.processor import Processor

        policy_capabilities.cache_clear()
        _policy_name_cache.cache_clear()
        configs = (ProcessorConfig(), virtual_physical_config(nrr=8))
        for config in configs:  # warm both cached lookups
            native.native_features(Processor(config))
        caps_misses = policy_capabilities.cache_info().misses
        name_misses = _policy_name_cache.cache_info().misses
        for _ in range(25):
            for config in configs:
                assert native.native_features(
                    Processor(config))[0] is not None
        caps_info = policy_capabilities.cache_info()
        assert caps_info.misses == caps_misses
        assert caps_info.hits >= 50
        assert _policy_name_cache.cache_info().misses == name_misses

    def test_reregistration_invalidates_capability_cache(self):
        from repro.core.policy import PolicyCapabilities, policy_capabilities

        name = "conventional"
        original = resolve_policy(name)
        assert policy_capabilities(name) == original.capabilities
        try:
            changed = PolicyCapabilities(has_dispatch_hook=True)
            register_policy(PolicyInfo(
                name=original.name, scheme=original.scheme,
                allocation=original.allocation, uses_nrr=original.uses_nrr,
                description=original.description, build=original.build,
                capabilities=changed))
            assert policy_capabilities(name) == changed
        finally:
            register_policy(original)
        assert policy_capabilities(name) == original.capabilities
