"""Discrete-time co-simulation of machine, workload and controllers."""

from .machine import SimulatedMachine, yeti_machine
from .result import RunResult, TraceColumns, TraceSample, PhaseSpan, SocketResult
from .engine import SimulationEngine
from .faults import FaultEvent, FaultInjector, FaultPlan, parse_fault_plan
from .run import run_application
from .trace import (
    TraceSink,
    InMemoryTraceSink,
    RingBufferTraceSink,
    StreamingTraceSink,
    CompositeTraceSink,
)
from .export import (
    run_summary,
    trace_csv_string,
    write_summary_json,
    write_trace_csv,
    write_trace_jsonl,
)
from .hetero import HeteroEngine, HeteroResult

__all__ = [
    "SimulatedMachine",
    "yeti_machine",
    "RunResult",
    "TraceSample",
    "TraceColumns",
    "PhaseSpan",
    "SocketResult",
    "SimulationEngine",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "parse_fault_plan",
    "run_application",
    "TraceSink",
    "InMemoryTraceSink",
    "RingBufferTraceSink",
    "StreamingTraceSink",
    "CompositeTraceSink",
    "run_summary",
    "trace_csv_string",
    "write_summary_json",
    "write_trace_csv",
    "write_trace_jsonl",
    "HeteroEngine",
    "HeteroResult",
]
