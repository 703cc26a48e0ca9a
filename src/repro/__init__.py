"""repro — mixed isolation-level robustness and allocation for MVCC.

A faithful, executable reproduction of *Allocating Isolation Levels to
Transactions in a Multiversion Setting* (Vandevoort, Ketsman, Neven;
PODS 2023): the formal multiversion schedule model, the RC/SI/SSI
allowed-under semantics, the polynomial-time robustness checker
(Algorithm 1), the optimal-allocation solver (Algorithm 2) and the
{RC, SI} results of Section 5 — plus the substrates a user needs to
validate and apply them: a brute-force enumeration baseline, an MVCC
engine simulator, and TPC-C / SmallBank / random workloads.

Quickstart::

    from repro import workload, optimal_allocation, is_robust, Allocation

    w = workload("R1[x] W1[y]", "R2[y] W2[x]")   # write skew
    assert not is_robust(w, Allocation.si(w))
    print(optimal_allocation(w))                  # T1:SSI, T2:SSI
"""

from .core import (
    OP0,
    ORACLE_LEVELS,
    POSTGRES_LEVELS,
    Allocation,
    AllocationManager,
    AllowedReport,
    AnalysisContext,
    ConflictQuadruple,
    Counterexample,
    DangerousStructure,
    IsolationLevel,
    MVSchedule,
    Operation,
    OperationKind,
    RobustnessResult,
    ScheduleError,
    SerializationGraph,
    SplitScheduleSpec,
    Transaction,
    TransactionError,
    Violation,
    Workload,
    WorkloadError,
    allocation,
    allowed_under,
    canonical_schedule,
    check_robustness,
    dangerous_structures,
    is_allowed,
    is_conflict_serializable,
    is_robust,
    is_robustly_allocatable,
    optimal_allocation,
    parse_transaction,
    parse_workload,
    schedule_from_text,
    serial_schedule,
    serialization_graph,
    transaction,
    upgrade_to_robust,
    workload,
)

__version__ = "1.0.0"

__all__ = [
    "OP0",
    "ORACLE_LEVELS",
    "POSTGRES_LEVELS",
    "Allocation",
    "AllocationManager",
    "AllowedReport",
    "AnalysisContext",
    "ConflictQuadruple",
    "Counterexample",
    "DangerousStructure",
    "IsolationLevel",
    "MVSchedule",
    "Operation",
    "OperationKind",
    "RobustnessResult",
    "ScheduleError",
    "SerializationGraph",
    "SplitScheduleSpec",
    "Transaction",
    "TransactionError",
    "Violation",
    "Workload",
    "WorkloadError",
    "allocation",
    "allowed_under",
    "canonical_schedule",
    "check_robustness",
    "dangerous_structures",
    "is_allowed",
    "is_conflict_serializable",
    "is_robust",
    "is_robustly_allocatable",
    "optimal_allocation",
    "parse_transaction",
    "parse_workload",
    "schedule_from_text",
    "serial_schedule",
    "serialization_graph",
    "transaction",
    "upgrade_to_robust",
    "workload",
    "__version__",
]
