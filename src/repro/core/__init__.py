"""Core formal model and algorithms of the paper.

Everything in Sections 2–5: transactions and multiversion schedules,
conflict serializability, isolation-level semantics, multiversion split
schedules, the robustness decision procedure (Algorithm 1) and the
allocation algorithms (Algorithm 2 and the {RC, SI} variant).
"""

from .allocation import (
    is_robustly_allocatable,
    optimal_allocation,
    refine_allocation,
    upgrade_to_robust,
)
from .context import AnalysisContext, ContextStats
from .incremental import AllocationManager
from .allowed import (
    AllowedReport,
    DangerousStructure,
    Violation,
    allowed_under,
    dangerous_structures,
    has_dangerous_structure,
    is_allowed,
    is_read_last_committed,
    respects_commit_order,
    transaction_allowed,
    transaction_violations,
)
from .conflicts import (
    ConflictQuadruple,
    conflict_equivalent,
    conflict_kind,
    conflicting,
    conflicting_pairs,
    dependencies,
    dependency_kind,
    depends,
    rw_antidependencies,
    rw_conflicting,
    transactions_conflict,
    ww_conflicting,
    wr_conflicting,
)
from .isolation import (
    Allocation,
    IsolationLevel,
    ORACLE_LEVELS,
    POSTGRES_LEVELS,
    allocation,
)
from .operations import OP0, Operation, OperationKind, commit, read, write
from .robustness import (
    Counterexample,
    RobustnessResult,
    check_robustness,
    enumerate_counterexamples,
    is_robust,
)
from .schedules import (
    MVSchedule,
    ScheduleError,
    canonical_schedule,
    commit_order_version_order,
    schedule_from_text,
    serial_schedule,
)
from .serialization import (
    SerializationGraph,
    equivalent_serial_schedule,
    is_conflict_serializable,
    serialization_graph,
)
from .sharding import conflict_components
from .split_schedule import (
    SplitScheduleSpec,
    condition_failures,
    is_valid_split_schedule,
    materialize,
    operation_order,
)
from .transactions import (
    Transaction,
    TransactionError,
    parse_operations,
    parse_schedule_operations,
    parse_transaction,
    transaction,
)
from .workload import Workload, WorkloadError, parse_workload, workload

__all__ = [
    "AllocationManager",
    "AllowedReport",
    "Allocation",
    "AnalysisContext",
    "ContextStats",
    "ConflictQuadruple",
    "Counterexample",
    "DangerousStructure",
    "IsolationLevel",
    "MVSchedule",
    "OP0",
    "ORACLE_LEVELS",
    "Operation",
    "OperationKind",
    "POSTGRES_LEVELS",
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
    "commit",
    "commit_order_version_order",
    "condition_failures",
    "conflict_components",
    "conflict_equivalent",
    "conflict_kind",
    "conflicting",
    "conflicting_pairs",
    "dangerous_structures",
    "dependencies",
    "dependency_kind",
    "depends",
    "enumerate_counterexamples",
    "equivalent_serial_schedule",
    "has_dangerous_structure",
    "is_allowed",
    "is_conflict_serializable",
    "is_read_last_committed",
    "is_robust",
    "is_robustly_allocatable",
    "is_valid_split_schedule",
    "materialize",
    "operation_order",
    "optimal_allocation",
    "parse_operations",
    "parse_schedule_operations",
    "parse_transaction",
    "parse_workload",
    "read",
    "refine_allocation",
    "respects_commit_order",
    "rw_antidependencies",
    "rw_conflicting",
    "schedule_from_text",
    "serial_schedule",
    "serialization_graph",
    "transaction",
    "transaction_allowed",
    "transaction_violations",
    "transactions_conflict",
    "upgrade_to_robust",
    "workload",
    "write",
    "ww_conflicting",
    "wr_conflicting",
]
