"""Fault-tolerant solver runtime: budgets, supervision, checkpoints, faults.

The paper's anytime story ("the user can have precise control over the
total runtime") made operational:

* :mod:`repro.runtime.budget` - wall-clock deadlines, iteration caps,
  cooperative cancellation, and the shared ``stop_reason`` vocabulary,
* :mod:`repro.runtime.supervisor` - :class:`RungTry`, one observed try
  of one rung of a plain-loop fallback ladder,
* :mod:`repro.runtime.checkpoint` - atomic JSON snapshots so killed
  runs resume mid-circuit with bit-exact results,
* :mod:`repro.runtime.faults` - deterministic fault injection used by
  ``tests/runtime`` and the chaos suite to prove every degradation path
  stays feasible,
* :mod:`repro.runtime.signals` - SIGINT/SIGTERM drained into a
  cooperative cancel so killed sweeps salvage their completed rows.
"""

from repro.runtime.budget import (
    STOP_CANCELLED,
    STOP_COMPLETED,
    STOP_DEADLINE,
    STOP_REASONS,
    STOP_STALLED,
    Budget,
    BudgetExceededError,
    budget_stop,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    QbpCheckpoint,
    QbpCheckpointer,
    atomic_write_json,
    checkpoint_backup_path,
    load_json_checkpoint,
    load_qbp_checkpoint,
    save_qbp_checkpoint,
    try_load_json_checkpoint,
    try_load_qbp_checkpoint,
)
from repro.runtime.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    InjectedFault,
    corrupt_json_file,
    inject_faults,
    maybe_fault,
    maybe_fault_task,
    parse_fault_plan,
    plan_from_env,
)
from repro.runtime.signals import drain_on_signals
from repro.runtime.supervisor import RungTry

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CheckpointError",
    "FaultPlan",
    "InjectedFault",
    "QbpCheckpoint",
    "QbpCheckpointer",
    "RungTry",
    "STOP_CANCELLED",
    "STOP_COMPLETED",
    "STOP_DEADLINE",
    "STOP_REASONS",
    "STOP_STALLED",
    "FAULT_PLAN_ENV",
    "atomic_write_json",
    "budget_stop",
    "checkpoint_backup_path",
    "corrupt_json_file",
    "drain_on_signals",
    "inject_faults",
    "load_json_checkpoint",
    "load_qbp_checkpoint",
    "maybe_fault",
    "maybe_fault_task",
    "parse_fault_plan",
    "plan_from_env",
    "save_qbp_checkpoint",
    "try_load_json_checkpoint",
    "try_load_qbp_checkpoint",
]
