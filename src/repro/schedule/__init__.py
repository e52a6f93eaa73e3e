"""The execution spine: one emitted Schedule IR, many interpreters.

``repro.schedule`` owns the static schedule of the paper's algorithm:

* :mod:`repro.schedule.ir` — the :class:`ComparatorDAG` datatype (phases →
  rounds of index arrays), its canonical SHA-256 hash, the reference
  :func:`replay` semantics and the ASAP layering :func:`pack_rounds`;
* :mod:`repro.schedule.emit` — keyless emitters producing the IR from the
  §3.1/§3.3 recursion for both backends;
* :mod:`repro.schedule.program` — span programs: the one interpreter traced
  runs of both backends walk the DAG with, phase by phase;
* :mod:`repro.schedule.compiled` — the layer-packed compiled batch kernel
  that single lattices, batches and the sort service all run, cached by
  schedule hash.

The lattice and machine backends interpret this artifact; the static checker
lints it; :mod:`repro.staticcheck.extract` merely certifies that live runs
reproduce it.  See ``docs/schedule-ir.md`` for the architecture.
"""

from typing import Any

from .activity import (
    ActivityTracker,
    ZeroOneActivity,
    analyze_zero_one_activity,
    apply_zero_one_round,
    exhaustive_zero_one_states,
)
from .compiled import (
    CompiledSchedule,
    KeyDomainError,
    ScheduleLayer,
    check_keys,
    clear_kernel_cache,
    compile_schedule,
)
from .emit import clear_emission_caches, emit_lattice_schedule, emit_machine_schedule
from .ir import (
    ComparatorDAG,
    SchedulePhase,
    ScheduleRound,
    apply_round,
    phase_detail,
    replay,
    snake_order_nodes,
)
from .optimize import (
    PASS_NAMES,
    OptimizationCertificate,
    OptimizationResult,
    agglomerate_chains,
    clear_optimizer_cache,
    eliminate_dead_ops,
    lemma1_windows,
    optimize_schedule,
    repack_rounds,
)
from .program import (
    SpanInstr,
    charge_phase,
    interpret,
    lattice_program,
    machine_program,
    step4_point,
)

__all__ = [
    "ActivityTracker",
    "ComparatorDAG",
    "CompiledSchedule",
    "KeyDomainError",
    "OptimizationCertificate",
    "OptimizationResult",
    "PASS_NAMES",
    "ScheduleLayer",
    "SchedulePhase",
    "ScheduleRound",
    "SpanInstr",
    "ZeroOneActivity",
    "agglomerate_chains",
    "analyze_zero_one_activity",
    "apply_round",
    "apply_zero_one_round",
    "cache_stats",
    "charge_phase",
    "check_keys",
    "clear_caches",
    "clear_optimizer_cache",
    "compile_schedule",
    "eliminate_dead_ops",
    "exhaustive_zero_one_states",
    "interpret",
    "lattice_program",
    "lemma1_windows",
    "machine_program",
    "optimize_schedule",
    "repack_rounds",
    "emit_lattice_schedule",
    "emit_machine_schedule",
    "phase_detail",
    "replay",
    "snake_order_nodes",
    "step4_point",
]


def clear_caches() -> None:
    """Drop every memoised schedule artifact and reset all cache statistics.

    Covers the compiled-kernel cache, both emission caches and the
    optimizer's result cache — the test-isolation hook the
    ``schedule_caches`` fixture uses, and the knob for long-lived processes
    that want to bound memory.
    """
    clear_kernel_cache()
    clear_emission_caches()
    clear_optimizer_cache()


def cache_stats() -> dict[str, dict[str, Any]]:
    """Hit/miss/build-time/size snapshot of every schedule cache, by name."""
    from ..observability.cachestats import all_cache_stats

    return all_cache_stats()
