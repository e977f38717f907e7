"""Multi-tier job scheduling testbed.

A discrete-event simulator of tiered queued resources, an SLA violation
penalty model with two waiting-allowance formulations, a permutation genetic
scheduler (virtualized and segmented queue variants), WRR/WLC/FCFS baselines,
and a brute-force oracle for desk-scale ground truth.
"""

from .baselines import PolicyKind, make_policy
from .ga import EvolveResult, GAConfig, QueueVariant, evolve
from .model import (
    EnvironmentConfig,
    InvalidScheduleError,
    Job,
    JobProgress,
    JobSet,
    Schedule,
    SchedulingError,
    Snapshot,
    ValidationReport,
    validate_schedule,
)
from .oracle import InstanceTooLargeError, OracleResult, exhaustive_best
from .penalty import (
    AllowanceMode,
    ScheduleEvaluator,
    ViolationBreakdown,
    differentiated_allowance,
    total_penalty,
)
from .sim import Simulator, simulate_to_snapshot
from .workload import WorkloadFormatError, WorkloadSpec, generate, load, save

__version__ = "0.1.0"

__all__ = [
    "AllowanceMode",
    "EnvironmentConfig",
    "EvolveResult",
    "GAConfig",
    "InstanceTooLargeError",
    "InvalidScheduleError",
    "Job",
    "JobProgress",
    "JobSet",
    "OracleResult",
    "PolicyKind",
    "QueueVariant",
    "Schedule",
    "ScheduleEvaluator",
    "SchedulingError",
    "Simulator",
    "Snapshot",
    "ValidationReport",
    "ViolationBreakdown",
    "WorkloadFormatError",
    "WorkloadSpec",
    "differentiated_allowance",
    "evolve",
    "exhaustive_best",
    "generate",
    "load",
    "make_policy",
    "save",
    "simulate_to_snapshot",
    "total_penalty",
    "validate_schedule",
]
