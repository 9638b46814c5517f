"""Microarchitecture substrate: the out-of-order cycle engine."""

from repro.uarch.config import (
    ProcessorConfig,
    RenamingScheme,
    conventional_config,
    policy_config,
    resolve_engine,
    virtual_physical_config,
)
from repro.uarch.dynamic import DynInstr
from repro.uarch.functional_units import FunctionalUnitPool
from repro.uarch.processor import Processor, SimulationDeadlock, simulate
from repro.uarch.regfile import RegisterFilePorts
from repro.uarch.stats import SimResult, SimStats
from repro.uarch.tracer import TimelineTracer

__all__ = [
    "ProcessorConfig",
    "RenamingScheme",
    "conventional_config",
    "policy_config",
    "virtual_physical_config",
    "RegisterFilePorts",
    "resolve_engine",
    "DynInstr",
    "FunctionalUnitPool",
    "Processor",
    "SimulationDeadlock",
    "simulate",
    "SimResult",
    "SimStats",
    "TimelineTracer",
]
