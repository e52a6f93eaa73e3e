"""Programmatic regeneration of the paper-vs-measured report.

``python -m repro report`` (or :func:`generate_report`) re-runs the key
measurements behind EXPERIMENTS.md and emits a fresh markdown document —
the reproducibility loop closed: the committed EXPERIMENTS.md was produced
by exactly this code path, and any reader can diff a regenerated copy
against it.

Kept intentionally lighter than the full benchmark suite (seconds, not
minutes): each section runs one representative sweep.  For the
full-strength assertions run ``pytest benchmarks/``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.complexity import hypercube_sort_rounds, sort_rounds
from ..analysis.tables import format_markdown_table, section5_rows
from ..baselines.batcher import batcher_hypercube_rounds, bitonic_sort_on_hypercube
from ..core.machine_sort import MachineSorter
from ..core.multiway_merge import multiway_merge
from ..core.verification import measure_dirty_area, zero_one_merge_inputs
from ..graphs import (
    complete_binary_tree,
    cycle_graph,
    de_bruijn_graph,
    k2,
    path_graph,
    petersen_graph,
    random_connected_graph,
)
from ..observability import CallbackSubscriber, EventBus
from ..orders import lattice_to_sequence
from ..staticcheck import CheckRun, run_check, run_mutants

__all__ = ["generate_report"]


def _section_lemma1(max_n: int) -> str:
    rows = []
    for n in range(2, max_n + 1):
        worst = 0
        for seqs in zero_one_merge_inputs(n, n * n):
            captured: dict = {}
            bus = EventBus()
            bus.subscribe(CallbackSubscriber(lambda e, p: captured.update({e: p})))
            multiway_merge(seqs, tracer=bus)
            worst = max(worst, measure_dirty_area(captured["step3_D"]))
        rows.append([n, n * n, worst, "tight" if worst == n * n else "slack"])
    table = format_markdown_table(["N", "bound N^2", "worst dirty seen", "status"], rows)
    return (
        "## Lemma 1 — dirty area after Step 3 (exhaustive 0-1 sweep)\n\n"
        + table
        + "\n\nBound holds and is attained: Step 4's clean-up is necessary.\n"
    )


def _section_theorem1(seed: int) -> str:
    instances = [
        (path_graph(4), 3),
        (cycle_graph(4), 3),
        (k2(), 5),
        (petersen_graph().canonically_labelled(), 2),
        (complete_binary_tree(2), 3),
        (de_bruijn_graph(3), 3),
        (random_connected_graph(5, seed=seed), 3),
    ]
    rows = []
    all_ok = True
    for row in section5_rows(instances, seed=seed):
        p = row.prediction
        ok = row.sorted_ok and row.matches_theorem1
        all_ok &= ok
        rows.append(
            [p.factor_name, p.n, p.r, p.s2_model, p.s2_rounds, p.routing_rounds,
             p.total_rounds, row.measured_rounds, "exact" if ok else "MISMATCH"]
        )
    table = format_markdown_table(
        ["network", "N", "r", "S2 model", "S2", "R", "predicted", "measured", "match"], rows
    )
    verdict = "Every row matches Theorem 1 exactly." if all_ok else "MISMATCHES FOUND."
    return "## Theorem 1 / §5 — predicted vs measured rounds\n\n" + table + f"\n\n{verdict}\n"


def _section_hypercube(max_r: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(2, max_r + 1):
        keys = rng.integers(0, 2**28, size=2**r)
        machine, ledger = MachineSorter.for_factor(k2(), r).sort(keys)
        assert np.all(np.diff(lattice_to_sequence(machine.lattice())) >= 0)
        _, batcher_rounds = bitonic_sort_on_hypercube(keys)
        rows.append(
            [r, 2**r, hypercube_sort_rounds(r), ledger.total_rounds,
             batcher_rounds, f"{ledger.total_rounds / batcher_rounds:.2f}"]
        )
        assert batcher_rounds == batcher_hypercube_rounds(r)
    table = format_markdown_table(
        ["r", "keys", "paper 3(r-1)^2+(r-1)(r-2)", "ours measured", "batcher", "ratio"], rows
    )
    return (
        "## §5.3 — hypercube vs Batcher (measured on the same machine)\n\n"
        + table
        + "\n\nMeasured = paper - (r-2): with N = 2 the second Step-4 "
        "transposition is vacuous.  Both curves are Theta(r^2).\n"
    )


def _section_grid(seed: int) -> str:
    from ..core.lattice_sort import ProductNetworkSorter

    rng = np.random.default_rng(seed)
    rows = []
    for n in (4, 8, 16):
        sorter = ProductNetworkSorter.for_factor(path_graph(n), 3, keep_log=False)
        keys = rng.integers(0, 2**28, size=n**3)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.all(np.diff(lattice_to_sequence(lattice)) >= 0)
        s2 = sorter.sorter2d.rounds(n)
        routing = sorter.routing.rounds(n)
        assert ledger.total_rounds == sort_rounds(3, s2, routing)
        rows.append([n, n**3, ledger.total_rounds, f"{ledger.total_rounds / n:.1f}"])
    table = format_markdown_table(["N", "keys", "rounds", "rounds/N"], rows)
    return (
        "## §5.1 — grids at fixed r = 3: linear in N\n\n"
        + table
        + "\n\nrounds/N converges to the leading constant 14 (+o(1)): O(N), optimal.\n"
    )


def _section_telemetry(seed: int) -> str:
    from ..observability import Tracer

    rng = np.random.default_rng(seed)
    rows = []
    all_ok = True
    for factor, r in [(k2(), 3), (k2(), 4), (path_graph(3), 3)]:
        sorter = MachineSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**28, size=sorter.network.num_nodes)
        tracer = Tracer()
        machine, ledger = sorter.sort(keys, tracer=tracer)
        assert np.all(np.diff(lattice_to_sequence(machine.lattice())) >= 0)
        s2, routing = tracer.count(kind="s2"), tracer.count(kind="routing")
        ok = (
            s2 == (r - 1) ** 2
            and routing == (r - 1) * (r - 2)
            and tracer.total_rounds() == ledger.total_rounds
        )
        all_ok &= ok
        rows.append(
            [factor.name, r, s2, (r - 1) ** 2, routing, (r - 1) * (r - 2),
             "exact" if ok else "MISMATCH"]
        )
    table = format_markdown_table(
        ["network", "r", "S2 spans", "(r-1)^2", "routing spans", "(r-1)(r-2)", "match"], rows
    )
    verdict = (
        "Span counts reproduce Theorem 1 structurally, and the span tree's "
        "round total equals the ledger's."
        if all_ok
        else "TELEMETRY MISMATCHES FOUND."
    )
    return (
        "## Telemetry — Theorem 1 read off the span tree\n\n"
        "Each sort ran under the tracing layer (`repro trace`); the counts "
        "below are spans observed in the phase hierarchy, not model "
        "predictions.\n\n" + table + f"\n\n{verdict}\n"
    )


def _section_topology() -> str:
    from ..observability import LinkObservatory

    rows = []
    all_ok = True
    cells = [
        ("k2", k2(), 3),
        ("path(3)", path_graph(3), 3),
        ("cbt(2) canonical", complete_binary_tree(2).canonically_labelled(), 3),
    ]
    for name, factor, r in cells:
        sorter = MachineSorter.for_factor(factor, r)
        obs = LinkObservatory(sorter.network, sorter.schedule())
        idx = obs.congestion()
        ok = idx.peak_buffer_depth <= 3
        all_ok &= ok
        rows.append(
            [name, r, idx.directed_edges, idx.total_traversals, idx.max_load,
             f"{idx.mean_load:.1f}", f"{idx.gini:.3f}", idx.peak_buffer_depth,
             "<= 3" if ok else "VIOLATED"]
        )
    table = format_markdown_table(
        ["network", "r", "wires", "traversals", "max", "mean", "gini", "peak buf", "claim"],
        rows,
    )
    verdict = (
        "Store-and-forward buffers never exceed depth 3 — the dilation-3 "
        "claim in `routing.py` holds on every measured wire."
        if all_ok
        else "BUFFER-DEPTH CLAIM VIOLATED."
    )
    return (
        "## Topology observatory — per-link congestion and buffer depth\n\n"
        "The schedule is oblivious, so the `LinkObservatory` (`repro topo`) "
        "reads each machine schedule's traffic off its DAG and charges every "
        "directed-link traversal — two per adjacent exchange, the routed "
        "packets' actual path hops otherwise — to the wire that carries it.  "
        "Load indices cover all physical wires, idle ones included.\n\n"
        + table
        + f"\n\n{verdict}\n"
    )


def _section_bench(seed: int) -> str:
    from ..observability.benchreg import DEFAULT_MATRIX, candidate_errors, run_matrix

    doc = run_matrix(DEFAULT_MATRIX, seed=seed, label="report")
    rows = []
    for cell in doc["cells"]:
        m, conf = cell["metrics"], cell["conformance"]
        predicted = conf["model_total_rounds"]
        rows.append(
            [
                cell["cell"],
                m["total_rounds"],
                predicted if predicted is not None else conf["predicted_total_rounds"],
                m["s2_calls"],
                m["routing_calls"],
                conf["vacuous_routing_spans"],
                "ok" if cell["sorted_ok"] and conf["ok"] else "FAILED",
            ]
        )
    table = format_markdown_table(
        ["cell", "rounds", "closed form", "S2 calls", "R calls", "vacuous R", "conformance"],
        rows,
    )
    errors = candidate_errors(doc)
    verdict = (
        "Every cell's emitted schedule matches the Lemma 3 / Theorem 1 closed forms, "
        "both compiled kernels sort, and the serving suite answers every request "
        "correctly."
        if not errors
        else "FAILURES FOUND:\n\n" + "\n".join(f"- {err}" for err in errors)
    )
    return (
        "## Performance observatory — workload matrix conformance\n\n"
        "Each cell is one traced sort from the benchmark-regression matrix "
        "(`repro bench run`); the depth lint (`lint_depth`) checks its emitted "
        "schedule against the paper's closed forms.  Machine-backend cells show "
        "the closed form at *measured* unit costs (vacuous transpositions — "
        "zero pairs — charge nothing).\n\n" + table + f"\n\n{verdict}\n"
    )


def _section_staticcheck(run: CheckRun, seed: int) -> str:
    run.mutants = run_mutants(seed=seed)
    rows = []
    all_ok = run.ok
    for check in run.cells:
        dag = check.certificate.dag
        zo = check.report.results["zero-one"] if check.report else None
        rows.append(
            [
                check.cell.key,
                "ok" if check.certificate.ok else "FAILED",
                len(dag.phases),
                dag.depth,
                f"{zo.stats['lemma1_max_dirty']}/{zo.stats['lemma1_bound']}" if zo else "-",
                zo.stats["dead_comparators"] if zo else "-",
                "ok" if check.ok else "FAILED",
            ]
        )
    table = format_markdown_table(
        ["cell", "oblivious", "phases", "depth", "dirty/N^2", "dead ops", "verdict"], rows
    )
    caught = sum(oc.caught for ocs in run.mutants.values() for oc in ocs)
    total = sum(len(ocs) for ocs in run.mutants.values())
    verdict = (
        f"Every schedule certifies statically, and the mutant harness caught "
        f"{caught}/{total} seeded faults."
        if all_ok
        else "STATIC CHECK FAILURES FOUND."
    )
    return (
        "## Static schedule verifier — comparator-DAG certification\n\n"
        "Each cell's compare-exchange schedule was extracted into a "
        "`ComparatorDAG` (`repro check`) under five adversarial key "
        "assignments — identical hashes certify data-obliviousness — then "
        "verified without re-running the sorter: zero-one sortedness "
        "(Lemma 2), race freedom, §4 link legality, and exact "
        "`S_r(N)`/`M_k(N)` depth conformance.  The dirty column shows the "
        "worst 0-1 dirty area observed at the final clean-up entry against "
        "Lemma 1's `N^2` bound.\n\n" + table + f"\n\n{verdict}\n"
    )


def _section_optimizer(run: CheckRun) -> str:
    from ..schedule import CompiledSchedule, compile_schedule

    rows = []
    all_ok = all(check.ok for check in run.cells)
    for check in run.cells:
        opt = check.optimize
        before = CompiledSchedule(opt.original)
        after = compile_schedule(opt.original)
        certs = sum(1 for c in opt.certificates if c.ok)
        rows.append(
            [
                check.cell.key,
                opt.comparators_removed,
                f"{len(opt.original.rounds)} -> {len(opt.optimized.rounds)}",
                f"{before.num_layers} -> {after.num_layers}",
                f"{certs}/{len(opt.certificates)}",
                "ok" if (opt.validation and opt.validation.ok) else "FAILED",
                "fallback" if opt.fell_back else "optimized",
            ]
        )
    table = format_markdown_table(
        ["cell", "ops removed", "rounds", "layers", "certs", "validated", "verdict"],
        rows,
    )
    outcomes = [oc for ocs in run.optimizer_faults.values() for oc in ocs]
    caught = sum(oc.caught for oc in outcomes)
    verdict = (
        f"Every cell optimizes under passing certificates with a proven "
        f"translation, and the validator rejected {caught}/{len(outcomes)} "
        f"seeded optimizer faults."
        if all_ok and caught == len(outcomes)
        else "OPTIMIZER FAILURES FOUND."
    )
    return (
        "## Certified optimizer — static IR passes with translation "
        "validation\n\n"
        "Each cell's emitted schedule ran through the optimization pipeline "
        "(`repro check`): dead-op elimination backed by the "
        "0-1 activity analysis, comparator-chain agglomeration into "
        "block-sort super-ops, and ASAP depth re-packing.  Every pass "
        "emits a certificate, and the translation validator re-proves the "
        "optimized schedule equivalent to the original (0-1 certification, "
        "race/link/depth lints, oblivious replay against the snake ground "
        "truth); any failure falls back to the unoptimized schedule.  "
        "`rounds` counts physical IR rounds, `layers` the compiled packed "
        "layers actually executed.\n\n" + table + f"\n\n{verdict}\n"
    )


def _section_kernelprof(seed: int) -> str:
    from ..observability.cachestats import all_cache_stats
    from ..observability.kernelprof import KernelProfiler, profile_cell

    profiler = KernelProfiler()
    rows = []
    for key in ("path-n3-r3", "path-n4-r3", "k2-n2-r4"):
        doc = profile_cell(key, batches=(256,), runs=5, seed=seed, profiler=profiler)
        point = doc["batches"][-1]
        rows.append(
            [
                doc["cell"],
                doc["layers"],
                doc["ops"],
                f"{doc['mean_occupancy'] * 100:.1f}%",
                f"{point['wall_s']['p50'] * 1e6:.0f}",
                f"{point['keys_per_s']:,.0f}",
            ]
        )
    table = format_markdown_table(
        ["cell", "layers", "ops", "mean occ", "p50 µs @256", "keys/s"], rows
    )
    cache_rows = [
        [
            snap["name"],
            snap["hits"],
            snap["misses"],
            f"{snap['hit_rate'] * 100:.0f}%",
            snap["size"],
            f"{snap['build_seconds'] * 1e3:.1f}",
        ]
        for snap in all_cache_stats().values()
    ]
    cache_table = format_markdown_table(
        ["cache", "hits", "misses", "hit rate", "entries", "build ms"], cache_rows
    )
    return (
        "## Compiled kernels — per-layer profile and cache health\n\n"
        "Each row profiles one cell's compiled batch kernel (`repro "
        "profile`) at batch 256: layer count after ASAP packing, total "
        "operations, mean comparator-slot occupancy, and median run "
        "latency with the derived throughput.  The caches below memoise "
        "emitted schedules and compiled kernels process-wide.\n\n"
        + table
        + "\n\nSchedule-cache state after the profiling pass:\n\n"
        + cache_table
        + "\n"
    )


def _section_serving(seed: int) -> str:
    from ..serve import ServiceConfig, default_scenarios, run_loadgen

    config = ServiceConfig(max_batch=32, max_queue_depth=1024)
    rows = []
    all_ok = True
    for scenario in default_scenarios(seed):
        doc = run_loadgen(scenario, config=config, slo=True)
        counts = doc["counts"]
        lat = doc["latency_ms"] or {}
        queue = next(iter((doc["service"] or {}).values()), {})
        srv = doc.get("server_latency_ms") or {}
        slo = doc.get("slo") or {}
        pages = int(slo.get("page_alerts", 0))
        consistent = srv.get("consistent")
        server_p99 = (srv.get("request") or {}).get("p99")
        ok = (
            counts["completed"] == counts["offered"]
            and not counts["rejected"]
            and not counts["mismatches"]
            and not counts["errors"]
            and not pages
            and consistent is not False
        )
        all_ok &= ok
        rows.append(
            [
                scenario.key,
                f"{counts['completed']}/{counts['offered']}",
                counts["rejected"],
                counts["mismatches"],
                queue.get("batches", 0),
                f"{queue.get('mean_batch_occupancy', 0.0):.2f}",
                queue.get("peak_depth", 0),
                f"{lat.get('p50', float('nan')):.2f}",
                f"{lat.get('p99', float('nan')):.2f}",
                "n/a" if server_p99 is None else f"{server_p99:.2f}",
                f"{slo.get('max_severity_seen', 'n/a')}/{pages}p",
                "ok" if ok else "FAILED",
            ]
        )
    table = format_markdown_table(
        ["scenario", "completed", "shed", "mismatch", "batches", "mean occ",
         "peak depth", "p50 ms", "p99 ms", "server p99", "slo", "verdict"],
        rows,
    )
    verdict = (
        "Every response matched the snake-order ground truth bit for bit, "
        "with zero requests shed — the suite runs below the compiled "
        "kernels' capacity, so any rejection would mean a service regression. "
        "The SLO evaluator agreed: no SLO burned error budget at page rate, "
        "and the service's own latency histograms stayed at or below the "
        "client view (bucketed into the same boundaries)."
        if all_ok
        else "SERVING FAILURES FOUND."
    )
    return (
        "## Serving observatory — micro-batched sort service under load\n\n"
        "Each scenario drives the sort service (`repro serve` / `repro "
        "loadgen`) with open-loop arrivals: requests fire at pre-drawn "
        "Poisson or burst offsets regardless of completions, the service "
        "coalesces them into compiled-kernel batches under a 1 ms latency "
        "budget, and admission control bounds every queue.  The health "
        "columns come from the service's own `/queues.json` telemetry; the "
        "`server p99` and `slo` columns come from the service's histograms "
        "and the SLO evaluator (`docs/slo.md`) sampling the run — `slo` is "
        "worst severity seen over the default serving SLOs plus pages fired.\n\n"
        + table
        + f"\n\n{verdict}\n"
    )


def generate_report(seed: int = 0, max_n_lemma1: int = 3, max_r_hypercube: int = 7) -> str:
    """Build the full markdown report; every number is measured on the spot."""
    header = (
        "# Reproduction report (regenerated)\n\n"
        "Produced by `python -m repro report` — every number below was "
        "measured by the current build.  Compare with the committed "
        "EXPERIMENTS.md.\n"
    )
    sections = [
        header,
        _section_lemma1(max_n_lemma1),
        _section_theorem1(seed),
        _section_grid(seed),
        _section_hypercube(max_r_hypercube, seed),
        _section_telemetry(seed),
        _section_topology(),
        _section_bench(seed),
        _section_kernelprof(seed),
        _section_serving(seed),
    ]
    check = run_check(seed=seed)
    sections += [_section_staticcheck(check, seed), _section_optimizer(check)]
    return "\n".join(sections)
