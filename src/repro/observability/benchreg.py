"""Benchmark-regression harness: the paper's structural results, pinned.

Runs a canonical **workload matrix** of (factor graph, r, backend) cells —
every cell is one full traced sort — and snapshots, per cell, only what
:func:`compare_documents` gates:

* ``sorted_ok`` and the canonical emitted ``schedule_hash``;
* the cost ledger's counts (total/S₂/routing rounds, call counts,
  comparisons) and the traced ``span_count``;
* the conformance verdict of the cell's emitted schedule (Lemma 3 /
  Theorem 1, :func:`~repro.staticcheck.lints.lint_depth`) and its
  structural round counts;
* machine-backend cells: the
  :class:`~repro.observability.topology.LinkObservatory` totals of the
  schedule's traffic (steps, edges, traversals, peak load and buffer
  depth);
* an ``optimize`` block: the certified optimizer
  (:func:`repro.schedule.optimize.optimize_schedule`) run over the cell's
  emitted schedule — the optimized hash, per-pass certificates, fallback
  and translation-validation verdicts, the remaining op/round/layer counts,
  and whether the raw and optimized compiled kernels both sort a
  :data:`KERNEL_CHECK_BATCH`-row batch to the snake-order ground truth.

A top-level ``serving`` list holds the canonical :mod:`repro.serve`
load-generation suite: per scenario its five request counts, the worst SLO
severity seen and the page-alert count.

Nothing here is timed.  Wall-clock performance — medians, spreads, the
floor — is ``perfbench/``'s job.  Every number is a structural count held at
zero tolerance, every hash must match its baseline exactly, and
:func:`candidate_errors` lists the invariants a candidate must meet with or
without a baseline.  ``repro bench run`` and ``repro bench compare`` both
exit non-zero on any of them, which is what CI's ``bench-quick`` job gates.

Blessing a new baseline is deliberate: run ``repro bench run --label
<name>``, read the diff ``repro bench compare`` prints, and commit the new
file (see ``docs/benchmarking.md``).
"""

from __future__ import annotations

import glob
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadCell",
    "DEFAULT_MATRIX",
    "KERNEL_CHECK_BATCH",
    "TOPOLOGY_TOTALS",
    "run_cell",
    "run_matrix",
    "scenario_record",
    "write_document",
    "load_document",
    "find_baseline",
    "STRUCTURAL_METRICS",
    "SERVING_STRUCTURAL_COUNTS",
    "MetricDelta",
    "ComparisonResult",
    "candidate_errors",
    "compare_documents",
    "bench_path",
]

#: bump when the BENCH JSON layout changes incompatibly; ``compare`` refuses
#: to diff documents of different versions
SCHEMA_VERSION = 8

#: rows in the batch every cell's raw and optimized kernels must sort
KERNEL_CHECK_BATCH = 256


# ----------------------------------------------------------------------
# workload matrix
# ----------------------------------------------------------------------

def _factor_builders() -> dict[str, Callable[[int], Any]]:
    from .. import graphs

    return {
        "path": graphs.path_graph,
        "cycle": lambda n: graphs.cycle_graph(max(3, n)),
        "k2": lambda n: graphs.k2(),
        "complete": graphs.complete_graph,
        "tree": lambda n: graphs.complete_binary_tree(max(1, n)),
        "petersen": lambda n: graphs.petersen_graph().canonically_labelled(),
        "debruijn": lambda n: graphs.de_bruijn_graph(max(2, n)),
    }


@dataclass(frozen=True)
class WorkloadCell:
    """One benchmark cell: a factor family at size ``n``, dimensions ``r``,
    on one backend (``lattice`` = modelled costs, ``machine`` = measured)."""

    family: str
    n: int
    r: int
    backend: str

    @property
    def key(self) -> str:
        """Stable identifier used to match cells across snapshots."""
        return f"{self.family}-n{self.n}-r{self.r}-{self.backend}"

    def build_factor(self):
        builders = _factor_builders()
        if self.family not in builders:
            raise ValueError(f"unknown factor family {self.family!r}")
        return builders[self.family](self.n)


#: the canonical matrix: §5 families at small sizes, r in {2, 3, 4}, both
#: backends — wide enough to regress on, small enough for every CI run
DEFAULT_MATRIX: tuple[WorkloadCell, ...] = (
    WorkloadCell("path", 3, 2, "lattice"),
    WorkloadCell("path", 3, 3, "lattice"),
    WorkloadCell("path", 4, 3, "lattice"),
    WorkloadCell("cycle", 4, 3, "lattice"),
    WorkloadCell("k2", 2, 4, "lattice"),
    WorkloadCell("k2", 2, 2, "machine"),
    WorkloadCell("k2", 2, 3, "machine"),
    WorkloadCell("k2", 2, 4, "machine"),
    WorkloadCell("path", 3, 3, "machine"),
)

#: the :class:`~repro.observability.topology.LinkObservatory` totals a
#: machine cell records; the schedule is oblivious, so they are structural
TOPOLOGY_TOTALS = (
    "steps",
    "routed_steps",
    "directed_edges",
    "used_edges",
    "total_traversals",
    "max_load",
    "peak_buffer_depth",
)


# ----------------------------------------------------------------------
# running cells
# ----------------------------------------------------------------------

def run_cell(cell: WorkloadCell, seed: int = 0) -> dict[str, Any]:
    """Execute one cell under full telemetry and flatten it to a record."""
    from ..core.lattice_sort import ProductNetworkSorter
    from ..core.machine_sort import MachineSorter
    from ..orders import lattice_to_sequence
    from .topology import LinkObservatory
    from .tracer import Tracer

    factor = cell.build_factor()
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    topology = None

    if cell.backend == "machine":
        sorter: Any = MachineSorter.for_factor(factor, cell.r)
        keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
        machine, ledger = sorter.sort(keys, tracer=tracer)
        seq = lattice_to_sequence(machine.lattice())
        s2_model = routing_model = None
        comparisons = int(machine.comparisons)
        snapshot = LinkObservatory(sorter.network, sorter.schedule()).snapshot()
        topology = {name: snapshot[name] for name in TOPOLOGY_TOTALS}
    elif cell.backend == "lattice":
        sorter = ProductNetworkSorter.for_factor(factor, cell.r)
        keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
        lattice, ledger = sorter.sort_sequence(keys, tracer=tracer)
        seq = lattice_to_sequence(lattice)
        s2_model = sorter.sorter2d.rounds(factor.n)
        routing_model = sorter.routing.rounds(factor.n)
        # the lattice backend models costs, it does not count comparisons
        comparisons = int(ledger.comparisons)
    else:
        raise ValueError(f"unknown backend {cell.backend!r}")

    record: dict[str, Any] = {
        "cell": cell.key,
        "sorted_ok": bool(np.all(np.asarray(seq)[:-1] <= np.asarray(seq)[1:])),
        # canonical emitted-schedule hash: a pure function of (G, N, r,
        # backend); any drift is an accidental schedule change
        "schedule_hash": sorter.schedule().schedule_hash(),
        "metrics": {
            "total_rounds": ledger.total_rounds,
            "s2_rounds": ledger.s2_rounds,
            "routing_rounds": ledger.routing_rounds,
            "s2_calls": ledger.s2_calls,
            "routing_calls": ledger.routing_calls,
            "comparisons": comparisons,
            "span_count": sum(1 for _ in tracer.iter_spans()),
        },
        "conformance": _conformance(sorter.schedule(), s2_model, routing_model),
    }
    if topology is not None:
        record["topology"] = topology
    record["optimize"] = _optimize_record(sorter, factor, cell, s2_model, routing_model, seed, rng)
    return record


def _conformance(dag, s2_model: int | None, routing_model: int | None) -> dict[str, Any]:
    """The emitted schedule's conformance verdict from
    :func:`~repro.staticcheck.lints.lint_depth`: Theorem 1's call counts,
    its closed form at the schedule's own unit costs (vacuous
    transpositions charge nothing) and, for a lattice cell, at the analytic
    models; Lemma 3 on every merge.  ``deviations`` are the lint's findings."""
    from ..analysis.complexity import sort_routing_calls, sort_rounds, sort_s2_calls
    from ..staticcheck.lints import lint_depth

    result = lint_depth(dag, s2_model, routing_model)
    stats = result.stats
    live = stats["routing_phases"] - stats["vacuous_routing_phases"]
    predicted = stats["s2_phases"] * (stats["s2_unit"] or 0) + live * (stats["routing_unit"] or 0)
    model = (
        None
        if s2_model is None or routing_model is None
        else sort_rounds(dag.r, s2_model, routing_model)
    )
    return {
        "ok": result.ok,
        "theorem1_calls_ok": stats["s2_phases"] == sort_s2_calls(dag.r)
        and stats["routing_phases"] == sort_routing_calls(dag.r),
        "theorem1_rounds_ok": stats["depth"] == predicted,
        "matches_model": None if model is None else stats["depth"] == model,
        "predicted_total_rounds": predicted,
        "model_total_rounds": model,
        "vacuous_routing_spans": stats["vacuous_routing_phases"],
        "deviations": [finding.message for finding in result.findings],
    }


def _optimize_record(
    sorter,
    factor,
    cell: WorkloadCell,
    s2_model: int | None,
    routing_model: int | None,
    seed: int,
    rng,
) -> dict[str, Any]:
    """Run the certified optimizer over the cell's emitted schedule.

    Every pass must produce a passing :class:`OptimizationCertificate` and
    the translation validator must prove optimized ≡ original, so the
    recorded counts always describe a schedule that provably still sorts.
    ``matches`` says whether the raw and the optimized compiled kernels both
    sort :data:`KERNEL_CHECK_BATCH` random rows to the snake-order ground
    truth.
    """
    from ..graphs.product import ProductGraph
    from ..schedule import CompiledSchedule, compile_schedule, optimize_schedule, snake_order_nodes

    dag = sorter.schedule()
    result = optimize_schedule(
        dag,
        validate=True,
        network=ProductGraph(factor, cell.r),
        s2_model_rounds=s2_model,
        routing_model_rounds=routing_model,
        seed=seed,
    )
    opt = result.optimized
    baseline_kernel = CompiledSchedule(dag)
    optimized_kernel = compile_schedule(dag)
    keys = rng.integers(0, 2**31, size=(KERNEL_CHECK_BATCH, dag.num_nodes))
    expected = np.empty_like(keys)
    expected[:, snake_order_nodes(dag.n, dag.r)] = np.sort(keys, axis=1)
    return {
        "optimized_schedule_hash": result.optimized_hash,
        "fell_back": bool(result.fell_back),
        "validated": bool(result.validation.ok) if result.validation else False,
        "certificates": {c.pass_name: bool(c.ok) for c in result.certificates},
        "comparators": opt.comparator_count,
        "block_sorts": opt.block_sort_count,
        "rounds": len(opt.rounds),
        "layers": optimized_kernel.num_layers,
        "baseline_layers": baseline_kernel.num_layers,
        "matches": bool(
            np.array_equal(baseline_kernel.run(keys), expected)
            and np.array_equal(optimized_kernel.run(keys), expected)
        ),
    }


def scenario_record(run: dict[str, Any]) -> dict[str, Any]:
    """Project one :func:`~repro.serve.run_loadgen` result (run with
    ``slo=True``) onto the fields the serving gate reads."""
    slo = run["slo"]
    return {
        "key": run["scenario"]["key"],
        "counts": {name: int(run["counts"][name]) for name in SERVING_STRUCTURAL_COUNTS},
        "max_severity_seen": slo["max_severity_seen"],
        "page_alerts": int(slo["page_alerts"]),
    }


def _serving_record(seed: int = 0) -> list[dict[str, Any]]:
    """Run the canonical :mod:`repro.serve` load-generation suite.

    Every scenario drives an in-process :class:`~repro.serve.SortService`
    with open-loop arrivals well below the compiled kernels' capacity, under
    the SLO evaluator, so a healthy build completes every request with
    zero rejections, zero ground-truth mismatches and no page-severity
    alert — which is exactly what :func:`candidate_errors` checks.
    """
    from ..serve import ServiceConfig, default_scenarios, run_loadgen

    config = ServiceConfig(max_batch=32, max_queue_depth=1024)
    return [
        scenario_record(run_loadgen(s, config=config, slo=True)) for s in default_scenarios(seed)
    ]


def run_matrix(
    cells: tuple[WorkloadCell, ...] = DEFAULT_MATRIX,
    seed: int = 0,
    label: str = "local",
) -> dict[str, Any]:
    """Run every cell and the serving suite into one schema-versioned
    snapshot document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "created": time.time(),
        "seed": seed,
        "cells": [run_cell(cell, seed=seed) for cell in cells],
        "serving": _serving_record(seed),
    }


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def bench_path(label: str, root: str = ".") -> str:
    """The canonical file name for a labelled snapshot."""
    safe = "".join(c if (c.isalnum() or c in "-_") else "-" for c in label)
    return os.path.join(root, f"BENCH_{safe}.json")


def write_document(doc: dict[str, Any], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_document(path: str) -> dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ValueError(f"{path} is not a BENCH snapshot (no schema_version)")
    return doc


def find_baseline(root: str = ".", exclude: str | None = None) -> str | None:
    """The most recent ``BENCH_*.json`` under ``root`` (by the ``created``
    stamp inside the file), skipping ``exclude``."""
    best_path, best_created = None, -1.0
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        if exclude is not None and os.path.abspath(path) == os.path.abspath(exclude):
            continue
        try:
            doc = load_document(path)
        except (ValueError, json.JSONDecodeError):
            continue
        created = float(doc.get("created", 0.0))
        if created > best_created:
            best_path, best_created = path, created
    return best_path


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

#: every per-cell count, gated at zero tolerance: any increase over the
#: baseline is a regression.  Bare names live in a cell's ``metrics``;
#: ``block.name`` lives in that block (``topology`` on machine cells only)
STRUCTURAL_METRICS: tuple[str, ...] = (
    "total_rounds",
    "s2_rounds",
    "routing_rounds",
    "s2_calls",
    "routing_calls",
    "comparisons",
    "span_count",
    "conformance.predicted_total_rounds",
    "conformance.model_total_rounds",
    "conformance.vacuous_routing_spans",
    *(f"topology.{name}" for name in TOPOLOGY_TOTALS),
    "optimize.comparators",
    "optimize.block_sorts",
    "optimize.rounds",
    "optimize.layers",
    "optimize.baseline_layers",
)

#: per-scenario request counts, gated at exact equality between snapshots
SERVING_STRUCTURAL_COUNTS = ("offered", "completed", "rejected", "mismatches", "errors")


def _metric(cell: dict[str, Any], name: str) -> Any:
    block, _, key = name.rpartition(".")
    return (cell.get(block or "metrics") or {}).get(key)


@dataclass(frozen=True)
class MetricDelta:
    """One structural count of one cell, baseline vs candidate."""

    cell: str
    metric: str
    baseline: int
    candidate: int

    @property
    def regressed(self) -> bool:
        return self.candidate > self.baseline

    @property
    def improved(self) -> bool:
        return self.candidate < self.baseline

    def describe(self) -> str:
        arrow = "REGRESSED" if self.regressed else ("improved" if self.improved else "=")
        return f"{self.cell}: {self.metric} {self.baseline:g} -> {self.candidate:g} [{arrow}]"


@dataclass
class ComparisonResult:
    """Everything ``repro bench compare`` reports."""

    baseline_label: str
    candidate_label: str
    deltas: list[MetricDelta]
    #: hard failures that are not metric deltas (invariants, drift, missing)
    errors: list[str]
    #: cells and scenarios present only in the candidate (informational)
    new_cells: list[str]

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.errors

    def render(self) -> str:
        lines = [
            f"benchmark comparison: baseline '{self.baseline_label}' -> "
            f"candidate '{self.candidate_label}'"
        ]
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        changed = [d for d in self.deltas if d.regressed or d.improved]
        for delta in changed:
            lines.append("  " + delta.describe())
        if not changed and not self.errors:
            lines.append("  all compared metrics unchanged")
        for cell in self.new_cells:
            lines.append(f"  note: new cell {cell} (no baseline)")
        lines.append(
            f"verdict: {'OK' if self.ok else 'REGRESSION'} "
            f"({len(self.regressions)} regressed metrics, {len(self.errors)} errors)"
        )
        return "\n".join(lines)


def candidate_errors(doc: dict[str, Any]) -> list[str]:
    """The invariants one snapshot must meet whatever its baseline.

    Per cell: the output is sorted; every conformance verdict holds; the
    optimizer neither fell back nor failed translation validation, every
    pass certificate holds, and both compiled kernels match the snake-order
    ground truth.  Per serving scenario (the canonical suite runs far below
    capacity): no ground-truth mismatch, no errored or shed request, and no
    page-severity SLO alert.
    """
    errors: list[str] = []
    for cell in doc.get("cells", []):
        key = cell["cell"]
        if not cell.get("sorted_ok"):
            errors.append(f"cell {key}: candidate output UNSORTED")
        conf = cell.get("conformance", {})
        failed = [
            name for name in ("ok", "theorem1_calls_ok", "theorem1_rounds_ok") if not conf.get(name)
        ]
        if conf.get("matches_model") is False:
            failed.append("matches_model")
        if failed:
            detail = "; ".join(conf.get("deviations", [])) or ", ".join(failed)
            errors.append(f"cell {key}: conformance failed ({detail})")
        optimize = cell.get("optimize", {})
        failed_passes = [name for name, ok in optimize.get("certificates", {}).items() if not ok]
        if optimize.get("fell_back") or failed_passes:
            errors.append(
                f"cell {key}: optimizer fell back to the unoptimized schedule "
                f"(failed: {', '.join(failed_passes) or 'translation validation'})"
            )
        if not optimize.get("validated"):
            errors.append(f"cell {key}: optimizer translation validation failed")
        if not optimize.get("matches"):
            errors.append(
                f"cell {key}: compiled kernel output (raw or optimized) diverges "
                "from the snake-order ground truth"
            )
    for scenario in doc.get("serving", []):
        label = f"serving:{scenario['key']}"
        counts = scenario["counts"]
        if counts["mismatches"]:
            errors.append(
                f"{label}: {counts['mismatches']} responses diverged from "
                "the snake-order ground truth"
            )
        if counts["errors"]:
            errors.append(f"{label}: {counts['errors']} requests errored")
        if counts["rejected"]:
            errors.append(
                f"{label}: {counts['rejected']} requests shed — the canonical "
                "suite runs below capacity, rejections mean lost throughput"
            )
        if scenario["page_alerts"] or scenario["max_severity_seen"] == "page":
            errors.append(
                f"{label}: {scenario['page_alerts']} page-severity SLO alert(s) "
                f"fired during a clean run (worst seen: "
                f"{scenario['max_severity_seen']}) — the canonical suite must "
                "never burn error budget at page rate"
            )
    return errors


def compare_documents(baseline: dict[str, Any], candidate: dict[str, Any]) -> ComparisonResult:
    """Diff two snapshots: the candidate's own invariants, exact hashes and
    serving counts, and zero-tolerance :data:`STRUCTURAL_METRICS`."""
    result = ComparisonResult(
        baseline_label=str(baseline.get("label", "?")),
        candidate_label=str(candidate.get("label", "?")),
        deltas=[],
        errors=[],
        new_cells=[],
    )
    if baseline.get("schema_version") != candidate.get("schema_version"):
        result.errors.append(
            f"schema mismatch: baseline v{baseline.get('schema_version')} vs "
            f"candidate v{candidate.get('schema_version')} — re-bless the baseline"
        )
        return result
    result.errors.extend(candidate_errors(candidate))

    base_cells = {c["cell"]: c for c in baseline.get("cells", [])}
    cand_cells = {c["cell"]: c for c in candidate.get("cells", [])}
    for key in base_cells:
        if key not in cand_cells:
            result.errors.append(f"cell {key} missing from candidate")
    result.new_cells = [key for key in cand_cells if key not in base_cells]

    for key, cand in cand_cells.items():
        base = base_cells.get(key)
        if base is None:
            continue
        if base.get("schedule_hash") != cand.get("schedule_hash"):
            result.errors.append(
                f"cell {key}: schedule hash drift {base.get('schedule_hash')} -> "
                f"{cand.get('schedule_hash')} — the emitted schedule changed"
            )
        base_opt = base.get("optimize", {}).get("optimized_schedule_hash")
        cand_opt = cand.get("optimize", {}).get("optimized_schedule_hash")
        if base_opt != cand_opt:
            result.errors.append(
                f"cell {key}: optimized schedule hash drift {base_opt} -> "
                f"{cand_opt} — the optimizer's output changed"
            )
        for metric in STRUCTURAL_METRICS:
            base_value, cand_value = _metric(base, metric), _metric(cand, metric)
            if base_value is None and cand_value is None:
                continue
            if base_value is None or cand_value is None:
                result.errors.append(f"cell {key}: '{metric}' {base_value} -> {cand_value}")
                continue
            result.deltas.append(MetricDelta(key, metric, base_value, cand_value))

    base_scenarios = {s["key"]: s for s in baseline.get("serving", [])}
    cand_scenarios = {s["key"]: s for s in candidate.get("serving", [])}
    for key in base_scenarios:
        if key not in cand_scenarios:
            result.errors.append(f"serving scenario {key} missing from candidate")
    for key, scenario in cand_scenarios.items():
        base_scenario = base_scenarios.get(key)
        if base_scenario is None:
            result.new_cells.append(f"serving:{key}")
            continue
        for name in SERVING_STRUCTURAL_COUNTS:
            was, now = base_scenario["counts"][name], scenario["counts"][name]
            if was != now:
                result.errors.append(
                    f"serving:{key}: structural count '{name}' changed "
                    f"{was} -> {now} (zero tolerance)"
                )
    return result
