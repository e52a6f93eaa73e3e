"""Static schedule verification for the product-network sorter.

The algorithm of §3.1/§4 is data-oblivious: its compare-exchange schedule is
a function of the geometry ``(G, N, r)`` alone.  The core **emits** that
schedule as a first-class static artifact — a
:class:`~repro.schedule.ComparatorDAG`, see :mod:`repro.schedule` — and this
package certifies it without re-running the sorter: backend/replay
equivalence under adversarial key assignments (obliviousness), zero-one
sortedness (Lemma 2, with Lemma-1 dirty-area early exit),
synchronous-round race freedom, §4 link legality, exact
``S_r(N)``/``M_k(N)`` depth conformance, and dead-comparator detection.
A seeded mutant harness proves each lint has teeth.  The ``repro check``
CLI drives everything over the canonical benchreg workload matrix.
"""

from .extract import (
    ExtractionResult,
    ObliviousnessCertificate,
    adversarial_key_sets,
    certify_oblivious,
    emit_schedule,
    extract_schedule,
)
from .lints import (
    LINT_NAMES,
    LintFinding,
    LintResult,
    VerificationReport,
    lint_depth,
    lint_links,
    lint_races,
    lint_zero_one,
    verify_dag,
)
from .mutants import (
    MUTANTS,
    OPTIMIZER_FAULTS,
    Mutant,
    MutantOutcome,
    OptimizerFault,
    OptimizerFaultOutcome,
    apply_mutant,
    run_mutant_harness,
    run_optimizer_fault_harness,
)
from .validate import (
    TranslationValidation,
    validate_translation,
)
from .checker import (
    MUTANT_CELLS,
    CellCheck,
    CheckRun,
    render_check,
    render_mutants,
    render_optimizer,
    render_optimizer_faults,
    run_check,
    run_mutants,
    run_optimizer_faults,
)

__all__ = [
    "ExtractionResult",
    "ObliviousnessCertificate",
    "adversarial_key_sets",
    "certify_oblivious",
    "emit_schedule",
    "extract_schedule",
    "LINT_NAMES",
    "LintFinding",
    "LintResult",
    "VerificationReport",
    "lint_depth",
    "lint_links",
    "lint_races",
    "lint_zero_one",
    "verify_dag",
    "MUTANTS",
    "OPTIMIZER_FAULTS",
    "Mutant",
    "MutantOutcome",
    "OptimizerFault",
    "OptimizerFaultOutcome",
    "apply_mutant",
    "run_mutant_harness",
    "run_optimizer_fault_harness",
    "TranslationValidation",
    "validate_translation",
    "MUTANT_CELLS",
    "CellCheck",
    "CheckRun",
    "render_check",
    "render_mutants",
    "render_optimizer",
    "render_optimizer_faults",
    "run_check",
    "run_mutants",
    "run_optimizer_faults",
]
