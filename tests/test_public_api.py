"""Public-API surface tests: imports, exports, and version."""

import os
import pathlib
import subprocess
import sys

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.8.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_service_layer_loads_on_first_use(self):
        """``import repro`` leaves the service layer (and its asyncio
        and http.client imports) unloaded; ``repro.Gateway`` and a star
        import still reach it.  A fresh interpreter, because this one
        has long imported everything."""
        probe = (
            "import sys, repro\n"
            "assert 'repro.service' not in sys.modules\n"
            "assert 'asyncio' not in sys.modules\n"
            "assert 'http.client' not in sys.modules\n"
            "from repro.service import Gateway\n"
            "assert repro.Gateway is Gateway\n"
            "ns = {}\n"
            "exec('from repro import *', ns)\n"
            "assert ns['GatewayClient'] is repro.GatewayClient\n"
            "try:\n"
            "    repro.no_such_export\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('missing export did not raise')\n")
        src = pathlib.Path(repro.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_key_entry_points_present(self):
        for name in ("simulate", "Processor", "ProcessorConfig",
                     "conventional_config", "virtual_physical_config",
                     "WORKLOADS", "SyntheticTrace", "TraceRecord"):
            assert name in repro.__all__

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.isa
        import repro.memory
        import repro.trace
        import repro.uarch

        for module in (repro.analysis, repro.core, repro.experiments,
                       repro.isa, repro.memory, repro.trace, repro.uarch):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_docstrings_everywhere(self):
        """Every public module carries a docstring (documentation gate)."""
        import importlib
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} is missing a docstring"

    def test_every_export_is_documented(self):
        """Docstring coverage of ``repro.__all__``: every exported class
        and function (and their public methods) carries a docstring."""
        import inspect

        missing = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            if not (inspect.isclass(obj) or inspect.isroutine(obj)):
                continue  # data exports (WORKLOADS, ...) can't carry one
            if not inspect.getdoc(obj):
                missing.append(name)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if (inspect.isfunction(member)
                            or isinstance(member, (classmethod,
                                                   staticmethod,
                                                   property))):
                        if not inspect.getdoc(getattr(obj, attr)):
                            missing.append(f"{name}.{attr}")
        assert not missing, f"undocumented public API: {missing}"

    def test_engine_exports_are_documented(self):
        """The engine package is the scaling seam — same gate there."""
        import inspect

        import repro.engine as engine

        missing = []
        for name in engine.__all__:
            obj = getattr(engine, name)
            if not (inspect.isclass(obj) or inspect.isroutine(obj)):
                continue
            if not inspect.getdoc(obj):
                missing.append(name)
        assert not missing, f"undocumented engine API: {missing}"


class TestTakeHelper:
    def test_take_limits(self):
        from repro.trace import SyntheticTrace, load_workload, take

        trace = SyntheticTrace(load_workload("go"), 3)
        assert len(take(trace, 25)) == 25

    def test_take_on_plain_iterable(self):
        from repro.trace import take

        assert take(iter(range(100)), 5) == [0, 1, 2, 3, 4]


class TestRenamerEdgeExports:
    def test_vp_stall_counter_with_shrunken_nvr(self):
        """Directly-built renamers may violate the NVR sizing theorem;
        can_rename then reports a VP-tag stall instead of crashing."""
        from repro.core.virtual_physical import VirtualPhysicalRenamer
        from repro.isa.instruction import TraceRecord
        from repro.isa.opcodes import OpClass
        from repro.isa.registers import RegClass, make_reg
        from repro.uarch.dynamic import DynInstr

        renamer = VirtualPhysicalRenamer(64, 64, window_size=2,
                                         nrr_int=2, nrr_fp=2)
        rec = TraceRecord(0x0, OpClass.INT_ALU,
                          dest=make_reg(RegClass.INT, 1),
                          src1=make_reg(RegClass.INT, 2))
        for seq in range(2):
            instr = DynInstr(rec, seq)
            assert renamer.can_rename(rec)
            renamer.rename(instr)
        assert not renamer.can_rename(rec)
        assert renamer.vp_stalls == 1

    def test_store_queue_capacity_plumbed(self):
        from repro.memory import MemorySystem

        ms = MemorySystem(store_queue_capacity=3)
        assert ms.store_queue.capacity == 3
