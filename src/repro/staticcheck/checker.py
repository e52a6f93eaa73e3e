"""Drive the static verifier over the canonical benchreg workload matrix.

:func:`run_check` is what ``repro check`` executes: for every matrix cell it
emits the schedule once and cross-checks the real backend against it under
adversarial key assignments (obliviousness certificate), then runs the
requested lints and the certified optimizer over the certified DAG;
``compiled=True`` additionally requires the served batch kernel to agree
with the reference replay.  Lattice
cells additionally pin the depth lint to the analytic per-call round models,
so conformance is checked against the exact published ``S_r(N)`` — the same
verdict the benchmark harness records for every cell.

:func:`run_mutants` drives the seeded-fault harness over the canonical
mutant cells — ``path-n3-r3`` on both backends, the smallest geometry where
all four fault classes are semantically live (on ``n = 2`` cells parts of
the clean-up are provably redundant, as the dead-comparator detection shows,
so a dropped block sort is invisible to any sound semantic lint there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from ..observability.benchreg import DEFAULT_MATRIX, WorkloadCell
from ..graphs.product import ProductGraph
from ..schedule import CompiledSchedule, compile_schedule, replay
from ..schedule.optimize import OptimizationResult, optimize_schedule
from .extract import (
    ObliviousnessCertificate,
    adversarial_key_sets,
    certify_oblivious,
    emit_schedule,
)
from .lints import LINT_NAMES, VerificationReport, verify_dag
from .mutants import (
    MutantOutcome,
    OptimizerFaultOutcome,
    run_mutant_harness,
    run_optimizer_fault_harness,
)

__all__ = [
    "CellCheck",
    "CheckRun",
    "MUTANT_CELLS",
    "run_check",
    "run_mutants",
    "run_optimizer_faults",
    "render_check",
    "render_mutants",
    "render_optimizer",
    "render_optimizer_faults",
]

#: canonical cells for the seeded-fault harness (see module docstring)
MUTANT_CELLS: tuple[WorkloadCell, ...] = (
    WorkloadCell(family="path", n=3, r=3, backend="lattice"),
    WorkloadCell(family="path", n=3, r=3, backend="machine"),
)


def _analytic_models(cell: WorkloadCell) -> tuple[int | None, int | None]:
    """Per-call round models for the depth lint (lattice cells only).

    The machine backend's unit costs are measured, not modelled; its depth
    lint checks uniformity and the closed form at measured units.
    """
    if cell.backend != "lattice":
        return None, None
    from ..core.lattice_sort import ProductNetworkSorter

    factor = cell.build_factor()
    sorter = ProductNetworkSorter.for_factor(factor, cell.r)
    return sorter.sorter2d.rounds(factor.n), sorter.routing.rounds(factor.n)


@dataclass
class CellCheck:
    """Everything the verifier established about one workload cell."""

    cell: WorkloadCell
    certificate: ObliviousnessCertificate
    report: VerificationReport | None
    #: the certified optimizer pipeline's outcome
    optimize: OptimizationResult
    #: compiled-kernel equivalence verdict (None when not requested)
    compiled_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def failed(self) -> list[str]:
        out = [] if self.certificate.ok else ["oblivious"]
        if self.compiled_ok is False:
            out.append("compiled")
        if not self.optimize.ok:
            out.append("optimize")
        if self.report is not None:
            out.extend(self.report.failed_lints)
        return out

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "cell": self.cell.key,
            "ok": self.ok,
            "failed": self.failed,
            "oblivious": {
                "ok": self.certificate.ok,
                "hashes": dict(self.certificate.hashes),
            },
            "dag": {
                "phases": len(self.certificate.dag.phases),
                "rounds": len(self.certificate.dag.rounds),
                "comparators": self.certificate.dag.comparator_count,
                "block_sorts": self.certificate.dag.block_sort_count,
                "depth": self.certificate.dag.depth,
                "hash": self.certificate.dag.schedule_hash(),
            },
        }
        if self.compiled_ok is not None:
            payload["compiled"] = {"ok": self.compiled_ok}
        payload["optimize"] = self.optimize.to_json()
        if self.report is not None:
            payload["lints"] = {
                name: {
                    "ok": res.ok,
                    "stats": res.stats,
                    "findings": [
                        {"message": f.message, "advisory": f.advisory}
                        for f in res.findings
                    ],
                }
                for name, res in self.report.results.items()
            }
        return payload


@dataclass
class CheckRun:
    """One full ``repro check`` invocation over the matrix."""

    cells: list[CellCheck] = field(default_factory=list)
    mutants: dict[str, list[MutantOutcome]] = field(default_factory=dict)
    optimizer_faults: dict[str, list[OptimizerFaultOutcome]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        cells_ok = all(c.ok for c in self.cells)
        mutants_ok = all(
            oc.caught for outcomes in self.mutants.values() for oc in outcomes
        )
        faults_ok = all(
            oc.caught for outcomes in self.optimizer_faults.values() for oc in outcomes
        )
        return cells_ok and mutants_ok and faults_ok

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "cells": [c.to_json() for c in self.cells],
            "mutants": {
                key: [
                    {
                        "mutant": oc.mutant,
                        "expected_lint": oc.expected_lint,
                        "failed_lints": oc.failed_lints,
                        "caught": oc.caught,
                        "verify_exit_code": oc.report.exit_code,
                    }
                    for oc in outcomes
                ]
                for key, outcomes in self.mutants.items()
            },
            "optimizer_faults": {
                key: [
                    {
                        "fault": oc.fault,
                        "expected_check": oc.expected_check,
                        "failed_checks": oc.failed_checks,
                        "caught": oc.caught,
                        "validator_exit_code": oc.validation.exit_code,
                    }
                    for oc in outcomes
                ]
                for key, outcomes in self.optimizer_faults.items()
            },
        }


def _select_cells(
    cells: Sequence[WorkloadCell], only: Iterable[str] | None
) -> list[WorkloadCell]:
    if not only:
        return list(cells)
    wanted = set(only)
    chosen = [c for c in cells if c.key in wanted]
    missing = wanted - {c.key for c in chosen}
    if missing:
        known = ", ".join(c.key for c in cells)
        raise ValueError(f"unknown cell(s) {sorted(missing)}; known cells: {known}")
    return chosen


def _check_compiled(certificate: ObliviousnessCertificate, seed: int) -> bool:
    """The served batch kernel must agree with the reference replay.

    Runs the whole adversarial key battery as one ``(batch, N^r)`` array
    through the certified kernel (:func:`~repro.schedule.compile_schedule`)
    and compares it row for row against :func:`~repro.schedule.replay` of
    the emitted DAG.
    """
    dag = certificate.dag
    batch = np.stack(list(adversarial_key_sets(dag.num_nodes, seed).values()))
    return bool(np.array_equal(compile_schedule(dag).run(batch), replay(dag, batch)))


def run_check(
    lints: tuple[str, ...] = LINT_NAMES,
    cells: Sequence[WorkloadCell] = DEFAULT_MATRIX,
    only: Iterable[str] | None = None,
    seed: int = 0,
    compiled: bool = False,
) -> CheckRun:
    """Certify obliviousness, run the requested lints and optimize each cell.

    The certified optimizer pipeline runs on every cell (per-pass
    certificates + translation validation, see :mod:`repro.schedule.optimize`)
    and the seeded optimizer-fault harness over the canonical mutant cells —
    every fault must be rejected by the translation validator for the run to
    pass.
    """
    run = CheckRun()
    for cell in _select_cells(cells, only):
        factor = cell.build_factor()
        s2_model, routing_model = _analytic_models(cell)
        # first, so the lattice backend's kernel (optimized without a network)
        # reuses this result instead of optimizing the cell a second time
        optimization = optimize_schedule(
            emit_schedule(factor, cell.r, backend=cell.backend),
            network=ProductGraph(factor, cell.r),
            s2_model_rounds=s2_model,
            routing_model_rounds=routing_model,
            seed=seed,
        )
        certificate = certify_oblivious(factor, cell.r, backend=cell.backend, seed=seed)
        report = None
        if lints:
            report = verify_dag(
                certificate.dag,
                network=ProductGraph(factor, cell.r),
                lints=lints,
                s2_model_rounds=s2_model,
                routing_model_rounds=routing_model,
            )
        run.cells.append(
            CellCheck(cell=cell, certificate=certificate, report=report, optimize=optimization,
                      compiled_ok=_check_compiled(certificate, seed) if compiled else None)
        )
    run.optimizer_faults = run_optimizer_faults(seed=seed)
    return run


def run_mutants(
    cells: Sequence[WorkloadCell] = MUTANT_CELLS,
    seed: int = 0,
) -> dict[str, list[MutantOutcome]]:
    """Run the seeded-fault harness over the canonical mutant cells."""
    outcomes: dict[str, list[MutantOutcome]] = {}
    for cell in cells:
        outcomes[cell.key] = run_mutant_harness(
            cell.build_factor(), cell.r, backend=cell.backend, seed=seed
        )
    return outcomes


def run_optimizer_faults(
    cells: Sequence[WorkloadCell] = MUTANT_CELLS,
    seed: int = 0,
) -> dict[str, list[OptimizerFaultOutcome]]:
    """Run the seeded optimizer-fault harness over the canonical mutant cells."""
    outcomes: dict[str, list[OptimizerFaultOutcome]] = {}
    for cell in cells:
        outcomes[cell.key] = run_optimizer_fault_harness(
            cell.build_factor(), cell.r, backend=cell.backend, seed=seed
        )
    return outcomes


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_check(run: CheckRun, verbose: bool = False) -> str:
    """Human-readable summary table plus any findings."""
    lines = []
    header = (
        f"{'cell':<22} {'verdict':<8} {'oblivious':<10} {'phases':>6} "
        f"{'rounds':>6} {'depth':>6} {'dirty/N^2':>10} {'dead':>5}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for check in run.cells:
        dag = check.certificate.dag
        zo = check.report.results.get("zero-one") if check.report else None
        dirty = (
            f"{zo.stats.get('lemma1_max_dirty', '?')}/{zo.stats.get('lemma1_bound', '?')}"
            if zo
            else "-"
        )
        dead = str(zo.stats.get("dead_comparators", "-")) if zo else "-"
        verdict = "ok" if check.ok else "FAIL"
        oblivious = "ok" if check.certificate.ok else "FAIL"
        lines.append(
            f"{check.cell.key:<22} {verdict:<8} {oblivious:<10} "
            f"{len(dag.phases):>6} {len(dag.rounds):>6} {dag.depth:>6} "
            f"{dirty:>10} {dead:>5}"
        )
    for check in run.cells:
        if check.report is None:
            continue
        for res in check.report.results.values():
            for f in res.findings:
                if f.advisory and not verbose:
                    continue
                tag = "note" if f.advisory else "FAIL"
                lines.append(f"[{tag}] {check.cell.key} {res.lint}: {f.message}")
        if not check.certificate.ok:
            lines.append(f"[FAIL] {check.cell.key} oblivious: backend diverges from "
                         f"the emitted schedule — {check.certificate.hashes}")
        if check.compiled_ok is False:
            lines.append(f"[FAIL] {check.cell.key} compiled: batch kernel output "
                         f"differs from reference replay")
    lines += ["", render_optimizer(run)]
    if run.mutants:
        lines.append("")
        lines.append(render_mutants(run.mutants))
    if run.optimizer_faults:
        lines.append("")
        lines.append(render_optimizer_faults(run.optimizer_faults))
    return "\n".join(lines)


def render_optimizer(run: CheckRun) -> str:
    """Per-cell pass deltas and certificate/validator verdicts."""
    lines = []
    header = (
        f"{'cell':<22} {'optimize':<9} {'-cmp':>5} {'-blk':>5} {'+super':>6} "
        f"{'rounds':>9} {'layers':>9} {'certs':>6} {'validated':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for check in run.cells:
        opt = check.optimize
        kernel_before = CompiledSchedule(opt.original)
        kernel_after = compile_schedule(opt.original)
        certs = f"{sum(c.ok for c in opt.certificates)}/{len(opt.certificates)}"
        validated = (
            "-" if opt.validation is None else ("ok" if opt.validation.ok else "FAIL")
        )
        verdict = "fellback" if opt.fell_back else "ok"
        super_ops = sum(c.super_ops_added for c in opt.certificates)
        lines.append(
            f"{check.cell.key:<22} {verdict:<9} "
            f"{opt.comparators_removed:>5} "
            f"{opt.block_sorts_removed + super_ops:>5} "
            f"{super_ops:>6} "
            f"{len(opt.original.rounds):>4}->{len(opt.optimized.rounds):<4} "
            f"{kernel_before.num_layers:>4}->{kernel_after.num_layers:<4} "
            f"{certs:>6} {validated:>9}"
        )
        for cert in opt.certificates:
            if not cert.ok:
                lines.append(f"[FAIL] {check.cell.key} {cert.describe()}")
        if opt.validation is not None and not opt.validation.ok:
            lines.append(
                f"[FAIL] {check.cell.key} {opt.validation.describe()}"
            )
    return "\n".join(lines)


def render_optimizer_faults(outcomes: dict[str, list[OptimizerFaultOutcome]]) -> str:
    lines = [
        "optimizer fault harness (each unsound optimization must be rejected "
        "by the translation validator):"
    ]
    caught = total = 0
    for key, cell_outcomes in outcomes.items():
        for oc in cell_outcomes:
            total += 1
            caught += oc.caught
            lines.append(f"  {key}: {oc.describe()}")
    lines.append(f"caught {caught}/{total}")
    return "\n".join(lines)


def render_mutants(outcomes: dict[str, list[MutantOutcome]]) -> str:
    lines = ["mutant harness (each seeded fault must be caught by its lint):"]
    caught = total = 0
    for key, cell_outcomes in outcomes.items():
        for oc in cell_outcomes:
            total += 1
            caught += oc.caught
            lines.append(f"  {key}: {oc.describe()}")
    lines.append(f"caught {caught}/{total}")
    return "\n".join(lines)
