"""Command-line experiment runner: ``python -m repro`` / ``repro-experiments``.

Reproduces the paper's evaluation from the shell:

* ``section5`` — the predicted-vs-measured table across all §5 network
  families (grids, tori, hypercubes, Petersen cubes, de Bruijn products,
  mesh-connected trees, random connected factors);
* ``hypercube`` — §5.3 sweep with the Batcher yardstick;
* ``dirty-area`` — Lemma 1's ``<= N**2`` bound, measured;
* ``trace`` — run one sort under the telemetry layer and export the phase
  span tree (Chrome trace-event JSON / JSONL / text summary);
* ``topo`` — read one machine schedule's per-link traffic off its DAG and
  render congestion heatmaps and load-imbalance indices (terminal shading,
  standalone SVG, or JSON);
* ``check`` — static schedule verifier: extract the comparator DAG of every
  benchreg matrix cell, certify obliviousness, and lint it (zero-one, races,
  link legality, depth conformance); ``--mutants`` proves the lints catch
  each seeded fault class;
* ``profile`` — per-layer wall time / occupancy / throughput of one cell's
  compiled batch kernel across a batch sweep, as tables, JSON or a
  Chrome trace (``--chrome``);
* ``metrics`` — serve the live Prometheus endpoint (``/metrics``,
  ``/healthz``, ``/snapshot.json``) warmed with profiled kernel runs;
* ``serve`` — the micro-batched sort service: ``POST /sort`` +
  ``GET /queues.json`` + live ``/metrics`` (plus ``/readyz`` readiness) on
  one port, graceful shutdown on SIGINT/SIGTERM; ``--slo`` adds a tsdb
  sampler and burn-rate alerts, served as ``/alerts.json``;
* ``loadgen`` — open-loop load generation (Poisson/burst arrivals, four
  key mixes) against an in-process service or a live ``--target`` URL,
  every response verified against snake-order ground truth; ``--slo``
  evaluates burn-rate alerts over the run (with ``--flush-penalty`` and
  a small ``--max-queue-depth``, the overload drill that pages);
* ``worked-example`` — the Figs. 12-15 walkthrough (delegates to the
  example script's logic);
* ``gray`` — print Gray/snake orders for small products (Figs. 3-5).

``section5`` and ``dirty-area`` take ``--json`` for machine-readable rows,
so benchmark trajectories can be diffed across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_section5(args: argparse.Namespace) -> int:
    from .analysis.complexity import sort_routing_calls, sort_s2_calls
    from .analysis.tables import render_table, section5_rows
    from .graphs import (
        complete_binary_tree,
        cycle_graph,
        de_bruijn_graph,
        k2,
        path_graph,
        petersen_graph,
        random_connected_graph,
    )

    instances = [
        (path_graph(args.n), 2),
        (path_graph(args.n), 3),
        (cycle_graph(max(3, args.n)), 3),
        (k2(), 4),
        (k2(), 6),
        (petersen_graph().canonically_labelled(), 2),
        (complete_binary_tree(2), 3),
        (de_bruijn_graph(3), 3),
        (random_connected_graph(args.n, seed=args.seed), 3),
    ]
    rows = section5_rows(instances, seed=args.seed)
    if args.json:
        records = [
            {
                "factor": row.prediction.factor_name,
                "n": row.prediction.n,
                "r": row.prediction.r,
                "s2_model": row.prediction.s2_model,
                "s2_rounds": row.prediction.s2_rounds,
                "routing_rounds": row.prediction.routing_rounds,
                "predicted_rounds": row.prediction.total_rounds,
                "measured_rounds": row.measured_rounds,
                "predicted_s2_calls": sort_s2_calls(row.prediction.r),
                "measured_s2_calls": row.measured_s2_calls,
                "predicted_routing_calls": sort_routing_calls(row.prediction.r),
                "measured_routing_calls": row.measured_routing_calls,
                "sorted_ok": row.sorted_ok,
                "matches_theorem1": row.matches_theorem1,
            }
            for row in rows
        ]
        print(json.dumps(records, indent=2))
    else:
        print(render_table(rows))
    return 0 if all(r.sorted_ok and r.matches_theorem1 for r in rows) else 1


def _cmd_hypercube(args: argparse.Namespace) -> int:
    from .analysis.complexity import hypercube_sort_rounds
    from .baselines.batcher import batcher_hypercube_rounds
    from .core.machine_sort import MachineSorter
    from .graphs import k2
    from .orders import lattice_to_sequence

    rng = np.random.default_rng(args.seed)
    print(f"{'r':>3} {'keys':>8} {'paper 3(r-1)^2+(r-1)(r-2)':>26} {'measured':>9} {'batcher r(r+1)/2':>17}")
    ok = True
    for r in range(2, args.max_r + 1):
        ms = MachineSorter.for_factor(k2(), r)
        keys = rng.integers(0, 2**31, size=2**r)
        machine, ledger = ms.sort(keys)
        sorted_ok = bool(
            np.array_equal(lattice_to_sequence(machine.lattice()), np.sort(keys))
        )
        ok &= sorted_ok
        print(
            f"{r:>3} {2**r:>8} {hypercube_sort_rounds(r):>26} {ledger.total_rounds:>9} "
            f"{batcher_hypercube_rounds(r):>17}{'' if sorted_ok else '  UNSORTED!'}"
        )
    return 0 if ok else 1


def _cmd_dirty_area(args: argparse.Namespace) -> int:
    from .core.multiway_merge import multiway_merge
    from .core.verification import DirtyAreaProbe, zero_one_merge_inputs
    from .observability import CallbackSubscriber, EventBus

    records = []
    for n in range(2, args.max_n + 1):
        m = n * n
        probe = DirtyAreaProbe()
        bus = EventBus()
        bus.subscribe(CallbackSubscriber(probe))
        for seqs in zero_one_merge_inputs(n, m):
            multiway_merge(seqs, tracer=bus)
        records.append(
            {"n": n, "m": m, "bound": n * n, "max_dirty": probe.max_dirty,
             "ok": probe.max_dirty <= n * n}
        )
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(f"{'N':>3} {'m':>5} {'bound N^2':>9} {'max dirty seen':>14}")
        for rec in records:
            print(f"{rec['n']:>3} {rec['m']:>5} {rec['bound']:>9} {rec['max_dirty']:>14}")
    return 0 if all(rec["ok"] for rec in records) else 1


def _trace_factor(name: str, n: int):
    """Build the requested factor graph for the ``trace`` subcommand."""
    from . import graphs

    if name == "path":
        return graphs.path_graph(n)
    if name == "cycle":
        return graphs.cycle_graph(max(3, n))
    if name == "k2":
        return graphs.k2()
    if name == "complete":
        return graphs.complete_graph(n)
    if name == "tree":
        return graphs.complete_binary_tree(max(1, n))
    if name == "petersen":
        return graphs.petersen_graph().canonically_labelled()
    if name == "debruijn":
        return graphs.de_bruijn_graph(max(2, n))
    raise ValueError(f"unknown factor {name!r}")


def _sorter(args: argparse.Namespace, backend: str = "machine"):
    """The ``backend`` sorter for ``--factor``/``--n``/``--r``, or ``None``
    after printing why the geometry is refused (a usage error: exit 2)."""
    from .core.lattice_sort import ProductNetworkSorter
    from .core.machine_sort import MachineSorter

    cls = MachineSorter if backend == "machine" else ProductNetworkSorter
    try:
        return cls.for_factor(_trace_factor(args.factor, args.n), args.r)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from .machine.machine import machine_traffic
    from .observability import (
        Tracer,
        chrome_trace_json,
        machine_steps,
        phase_summary,
        spans_to_jsonl,
        steps_to_jsonl,
    )
    from .orders import lattice_to_sequence

    sorter = _sorter(args, args.backend)
    if sorter is None:
        return 2
    tracer = Tracer()
    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
    traffic = None
    if args.backend == "machine":
        machine, ledger = sorter.sort(keys, tracer=tracer)
        seq = lattice_to_sequence(machine.lattice())
        traffic = machine_traffic(sorter.schedule(), sorter.network)
    else:
        lattice, ledger = sorter.sort_sequence(keys, tracer=tracer)
        seq = lattice_to_sequence(lattice)
    if not bool(np.all(np.asarray(seq)[:-1] <= np.asarray(seq)[1:])):
        print("UNSORTED OUTPUT — trace not exported", file=sys.stderr)
        return 1

    if args.export == "chrome":
        text = chrome_trace_json(tracer, traffic=traffic)
    else:
        steps = None if traffic is None else machine_steps(traffic, sorter.network)
        if args.export == "jsonl":
            text = spans_to_jsonl(tracer) + ("" if steps is None else steps_to_jsonl(steps))
        else:
            text = phase_summary(tracer, steps=steps)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    from .observability import LinkObservatory
    from .observability.heatmap import (
        render_imbalance_table,
        render_topology_heatmap,
        topology_json,
        topology_svg,
    )

    sorter = _sorter(args)
    if sorter is None:
        return 2
    # the schedule is oblivious: its wires are read off the DAG, no keys needed
    observatory = LinkObservatory(sorter.network, sorter.schedule())

    title = f"topology observatory — {args.factor} n={sorter.n} r={args.r}"
    if args.export == "svg":
        text = topology_svg(observatory, title=title)
    elif args.export == "json":
        text = topology_json(observatory)
    else:
        sections = []
        # no flag = show everything; flags narrow the view
        if args.heatmap or not args.imbalance:
            sections.append(render_topology_heatmap(observatory, title=title))
        if args.imbalance or not args.heatmap:
            sections.append(render_imbalance_table(observatory))
        text = "\n\n".join(sections)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_gray(args: argparse.Namespace) -> int:
    from .orders import gray_sequence, group_sequence

    seq = gray_sequence(args.n, args.r)
    print(f"Q_{args.r} over radix {args.n} ({len(seq)} labels):")
    print("  " + " ".join("".join(map(str, lab)) for lab in seq))
    if args.r >= 2:
        groups = group_sequence(args.n, args.r, erased=1)
        print("group sequence [*]Q^1 (G subgraphs in snake order):")
        print("  " + " ".join("".join(map(str, g)) + "*" for g in groups))
    return 0


def _cmd_worked_example(args: argparse.Namespace) -> int:
    from .core.lattice_sort import ProductNetworkSorter
    from .graphs import path_graph
    from .observability import CallbackSubscriber, EventBus
    from .orders import lattice_to_sequence, sequence_to_lattice

    a0 = [0, 4, 4, 5, 5, 7, 8, 8, 9]
    a1 = [1, 4, 5, 5, 5, 6, 7, 7, 8]
    a2 = [0, 0, 1, 1, 1, 2, 3, 4, 9]
    lattice = np.stack(
        [sequence_to_lattice(np.array(a), 3, 2) for a in (a0, a1, a2)]
    )
    sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)

    def show(event: str, lat: np.ndarray) -> None:
        print(f"--- {event} ---")
        for u in range(3):
            print(f"  [{u}]PG_2:")
            for row in lat[u]:
                print("    " + " ".join(str(x) for x in row))

    print("input: the paper's three sorted sequences on [u]PG^3_2 (Fig. 12)")
    show("initial", lattice)
    bus = EventBus()
    bus.subscribe(CallbackSubscriber(show))
    out, ledger = sorter.merge_sorted_subgraphs(lattice, tracer=bus)
    print("snake sequence:", list(lattice_to_sequence(out)))
    print(ledger)
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .observability.benchreg import (
        DEFAULT_MATRIX,
        bench_path,
        candidate_errors,
        run_matrix,
        write_document,
    )

    doc = run_matrix(DEFAULT_MATRIX, seed=args.seed, label=args.label)
    path = args.out if args.out else bench_path(args.label)
    write_document(doc, path)
    print(f"wrote {path}: {len(doc['cells'])} cells, schema v{doc['schema_version']}")
    for cell in doc["cells"]:
        m, opt = cell["metrics"], cell["optimize"]
        print(
            f"  {cell['cell']:<24} rounds={m['total_rounds']:>5}  "
            f"comparisons={m['comparisons']:>7}  spans={m['span_count']:>3}  "
            f"conformance={'ok' if cell['conformance']['ok'] else 'FAILED'}  "
            f"layers={opt['baseline_layers']}->{opt['layers']}  "
            f"kernels={'ok' if opt['matches'] else 'WRONG'}"
        )
    for scenario in doc["serving"]:
        c = scenario["counts"]
        print(
            f"  serving {scenario['key']:<32} completed={c['completed']}/{c['offered']}  "
            f"rejected={c['rejected']}  mismatches={c['mismatches']}  "
            f"slo={scenario['max_severity_seen']}({scenario['page_alerts']} pages)"
        )
    errors = candidate_errors(doc)
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .observability.benchreg import (
        DEFAULT_MATRIX,
        compare_documents,
        find_baseline,
        load_document,
        run_matrix,
    )

    if args.candidate:
        candidate = load_document(args.candidate)
    else:
        candidate = run_matrix(DEFAULT_MATRIX, seed=args.seed, label="candidate")
    baseline_path = args.baseline or find_baseline(".", exclude=args.candidate)
    if baseline_path is None:
        print(
            "no baseline BENCH_*.json found — bless one with 'repro bench run --label <name>'",
            file=sys.stderr,
        )
        return 2
    baseline = load_document(baseline_path)
    result = compare_documents(baseline, candidate)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": result.ok,
                    "baseline": baseline_path,
                    "regressions": [d.describe() for d in result.regressions],
                    "errors": result.errors,
                    "deltas": [
                        {
                            "cell": d.cell,
                            "metric": d.metric,
                            "baseline": d.baseline,
                            "candidate": d.candidate,
                            "regressed": d.regressed,
                        }
                        for d in result.deltas
                    ],
                },
                indent=2,
            )
        )
    else:
        print(f"baseline file: {baseline_path}")
        print(result.render())
    return 0 if result.ok else 1


def _cmd_bench_metrics(args: argparse.Namespace) -> int:
    from .machine.machine import machine_traffic
    from .observability import MetricsRegistry, MetricsSubscriber, Tracer, traffic_metrics
    from .orders import lattice_to_sequence

    sorter = _sorter(args)
    if sorter is None:
        return 2
    tracer = Tracer()
    registry = MetricsRegistry()
    tracer.bus.subscribe(MetricsSubscriber(registry))
    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
    machine, _ = sorter.sort(keys, tracer=tracer)
    seq = lattice_to_sequence(machine.lattice())
    if not bool(np.all(np.asarray(seq)[:-1] <= np.asarray(seq)[1:])):
        print("UNSORTED OUTPUT — metrics not exported", file=sys.stderr)
        return 1
    traffic_metrics(registry, machine_traffic(sorter.schedule(), sorter.network), sorter.network)
    text = (
        json.dumps(registry.snapshot(), indent=2)
        if args.format == "json"
        else registry.expose_text()
    )
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .staticcheck import LINT_NAMES, render_check, run_check, run_mutants

    selected = [
        name
        for name, flag in (
            ("races", args.races),
            ("links", args.links),
            ("zero-one", args.zero_one),
            ("depth", args.depth),
        )
        if flag
    ]
    lints = tuple(selected) if selected else LINT_NAMES
    try:
        run = run_check(lints=lints, only=args.cell, seed=args.seed, compiled=args.compiled)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.mutants:
        run.mutants = run_mutants(seed=args.seed)
    if args.json:
        print(json.dumps(run.to_json(), indent=2))
    else:
        print(render_check(run, verbose=args.verbose))
        print(f"\nstatic check: {'ok' if run.ok else 'FAILED'} "
              f"({len(run.cells)} cells, lints: {', '.join(lints)}, optimizer"
              f"{', mutant harness' if run.mutants else ''})")
    return run.exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    from .observability.kernelprof import KernelProfiler, profile_cell, render_profile
    from .observability.tracer import Tracer

    batches = tuple(args.batch) if args.batch else (1, 16, 256)
    tracer = Tracer() if args.chrome else None
    try:
        doc = profile_cell(
            args.cell,
            batches=batches,
            runs=args.runs,
            seed=args.seed,
            profiler=KernelProfiler(tracer=tracer),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if tracer is not None:
        from .observability.export import chrome_trace_json

        with open(args.chrome, "w") as fh:
            fh.write(chrome_trace_json(tracer))
        print(f"wrote {args.chrome}", file=sys.stderr)
    text = json.dumps(doc, indent=2) if args.json else render_profile(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .observability.httpexpo import build_metrics_server

    try:
        server = build_metrics_server(
            cell=args.cell,
            batch=args.batch,
            runs=args.runs,
            seed=args.seed,
            host=args.host,
            port=args.serve,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.serve}: {exc}", file=sys.stderr)
        return 1
    print(
        f"serving metrics on {server.url('/metrics')} "
        "(also /healthz, /snapshot.json) — Ctrl-C to stop",
        file=sys.stderr,
    )
    # graceful shutdown: SIGINT/SIGTERM stops accepting, closes the
    # listening socket and joins the serving thread
    server.run_blocking()
    print("metrics server stopped", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ServiceConfig, SortService, build_sort_server

    try:
        config = ServiceConfig(
            max_batch=args.max_batch,
            max_queue_depth=args.max_queue_depth,
            deadline_ms=args.deadline_ms,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    async def amain() -> int:
        loop = asyncio.get_running_loop()
        async with SortService(config) as service:
            try:
                for cell in args.cell or ["path-n3-r3"]:
                    service.prewarm(cell)
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            await asyncio.sleep(0)  # the prewarmed cells tier up before connections
            store = None
            evaluator = None
            if args.slo:
                from .observability.slo import SLOEvaluator, default_serve_slos
                from .observability.tsdb import TimeSeriesStore

                store = TimeSeriesStore(service.registry, interval_s=args.sample_interval)
                evaluator = SLOEvaluator(
                    store, list(default_serve_slos(window_scale=args.slo_scale))
                )
                store.on_tick.append(evaluator.evaluate)
            try:
                server = build_sort_server(
                    service, loop, host=args.host, port=args.port, evaluator=evaluator
                )
            except OSError as exc:
                print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
                return 1
            server.start()
            if store is not None:
                store.start()
            alerts = f", alerts {server.url('/alerts.json')}" if args.slo else ""
            print(
                f"sort service on {server.url('/sort')} (POST) — queues "
                f"{', '.join(service.cells)}; health {server.url('/queues.json')}, "
                f"metrics {server.url('/metrics')}{alerts} — Ctrl-C to stop",
                file=sys.stderr,
            )
            stop = asyncio.Event()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            try:
                await stop.wait()
            finally:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    loop.remove_signal_handler(signum)
                print(
                    "shutting down: draining queues, closing listening socket",
                    file=sys.stderr,
                )
                if store is not None:
                    store.stop()
                server.stop()
        return 0

    return asyncio.run(amain())


def _render_loadgen(doc: dict) -> str:
    s, c = doc["scenario"], doc["counts"]
    lines = [
        f"loadgen {s['key']}: {s['requests']} requests @ {s['rate']:g}/s "
        f"({s['arrivals']} arrivals, seed {s['seed']})",
        f"  offered={c['offered']} completed={c['completed']} rejected={c['rejected']} "
        f"mismatches={c['mismatches']} errors={c['errors']}",
    ]
    lat = doc.get("latency_ms")
    if lat is not None:
        lines.append(
            f"  latency p50={lat['p50']:.2f}ms p90={lat['p90']:.2f}ms "
            f"p99={lat['p99']:.2f}ms max={lat['max']:.2f}ms"
        )
    lines.append(
        f"  duration={doc['duration_s']:.2f}s offered_rps={doc['offered_rps']:.0f} "
        f"completed_rps={doc['completed_rps']:.0f}"
    )
    def ms(value: object) -> str:
        return "n/a" if not isinstance(value, (int, float)) else f"{value:.2f}ms"

    srv = doc.get("server_latency_ms")
    if srv is not None:
        req, wait = srv.get("request", {}), srv.get("queue_wait", {})
        client = srv.get("client_bucketed", {})
        verdict = {True: "yes", False: "VIOLATED", None: "n/a"}[srv.get("consistent")]
        lines.append(
            f"  server[{srv.get('cell')}] request p50={ms(req.get('p50'))} "
            f"p99={ms(req.get('p99'))} queue-wait p50={ms(wait.get('p50'))} "
            f"p99={ms(wait.get('p99'))}"
        )
        lines.append(
            f"  client(bucketed) p50={ms(client.get('p50'))} p99={ms(client.get('p99'))} "
            f"— server p99 <= client p99: {verdict}"
        )
    slo = doc.get("slo")
    if slo is not None:
        lines.append(
            f"  slo: severity={slo.get('current_severity', '?')} "
            f"pages_fired={slo.get('page_alerts', 0)} "
            f"worst_seen={slo.get('max_severity_seen', '?')}"
        )
        for alert in slo.get("alerts", ()):
            if alert.get("severity", "ok") != "ok" or alert.get("events"):
                name = alert.get("spec", {}).get("name", "?")
                lines.append(
                    f"    {name}: {alert.get('severity')} "
                    f"({len(alert.get('events', ()))} transitions)"
                )
    for key, q in (doc.get("service") or {}).items():
        p99 = q.get("p99_ms")
        lines.append(
            f"  queue {key}: batches={q['batches']} "
            f"mean_occupancy={q['mean_batch_occupancy']:.2f} "
            f"peak_depth={q['peak_depth']} deadline_misses={q['deadline_misses']} "
            f"p99={'n/a' if p99 is None else f'{p99:.2f}ms'}"
        )
    return "\n".join(lines)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve import LoadScenario, ServiceConfig, run_loadgen

    try:
        scenario = LoadScenario(
            cell=args.cell,
            mix=args.mix,
            arrivals=args.arrivals,
            rate=args.rate,
            requests=args.requests,
            seed=args.seed,
            burst_factor=args.burst_factor,
            burst_len=args.burst_len,
        )
        config = ServiceConfig(
            max_batch=args.max_batch,
            max_queue_depth=args.max_queue_depth,
            deadline_ms=args.deadline_ms,
            flush_penalty_s=args.flush_penalty,
        )
        doc = run_loadgen(scenario, config=config, target=args.target, slo=args.slo)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=2) if args.json else _render_loadgen(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    counts = doc["counts"]
    if counts["mismatches"] or counts["errors"]:
        print(
            f"LOADGEN FAILURES: {counts['mismatches']} ground-truth mismatches, "
            f"{counts['errors']} errors",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text = generate_report(seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation of 'Generalized Algorithm for "
        "Parallel Sorting on Product Networks' (Fernandez & Efe).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("section5", help="predicted-vs-measured table across §5 networks")
    p.add_argument("--n", type=int, default=4, help="factor size for size-parametric factors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable rows (for cross-PR diffs)")
    p.set_defaults(func=_cmd_section5)

    p = sub.add_parser("hypercube", help="§5.3 sweep with the Batcher yardstick")
    p.add_argument("--max-r", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hypercube)

    p = sub.add_parser("dirty-area", help="Lemma 1: measured dirty areas vs the N^2 bound")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--json", action="store_true", help="machine-readable rows (for cross-PR diffs)")
    p.set_defaults(func=_cmd_dirty_area)

    p = sub.add_parser(
        "trace",
        help="run one sort under the telemetry layer and export the span tree",
    )
    p.add_argument(
        "--factor",
        choices=("path", "cycle", "k2", "complete", "tree", "petersen", "debruijn"),
        default="path",
        help="factor graph family",
    )
    p.add_argument("--n", type=int, default=3, help="factor size (where parametric)")
    p.add_argument("--r", type=int, default=3, help="product dimensions")
    p.add_argument(
        "--backend",
        choices=("lattice", "machine"),
        default="machine",
        help="lattice = modelled costs; machine = measured rounds + per-super-step traffic",
    )
    p.add_argument(
        "--export",
        choices=("summary", "chrome", "jsonl"),
        default="summary",
        help="summary = text table; chrome = Perfetto/chrome://tracing JSON; jsonl = event log",
    )
    p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "topo",
        help="topology observatory: per-link congestion maps and imbalance indices",
    )
    p.add_argument(
        "--factor",
        choices=("path", "cycle", "k2", "complete", "tree", "petersen", "debruijn"),
        default="k2",
        help="factor graph family",
    )
    p.add_argument("--n", type=int, default=3, help="factor size (where parametric)")
    p.add_argument("--r", type=int, default=3, help="product dimensions")
    p.add_argument("--heatmap", action="store_true", help="phase x dimension traversal heatmap")
    p.add_argument("--imbalance", action="store_true", help="congestion/imbalance index table")
    p.add_argument(
        "--export",
        choices=("svg", "json"),
        default=None,
        help="write a standalone report instead of terminal output",
    )
    p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_topo)

    p = sub.add_parser(
        "bench",
        help="performance observatory: snapshot, regression-compare and scrape metrics",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser(
        "run", help="run the workload matrix and write BENCH_<label>.json"
    )
    b.add_argument("--label", type=str, default="local", help="snapshot label (file name suffix)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", type=str, default=None, help="explicit output path (default BENCH_<label>.json in cwd)")
    b.set_defaults(func=_cmd_bench_run)

    b = bench_sub.add_parser(
        "compare",
        help="compare a candidate snapshot against a baseline; non-zero exit on regression",
    )
    b.add_argument("--baseline", type=str, default=None, help="baseline file (default: most recent BENCH_*.json)")
    b.add_argument("--candidate", type=str, default=None, help="candidate file (default: run the matrix now)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--json", action="store_true", help="machine-readable comparison")
    b.set_defaults(func=_cmd_bench_compare)

    b = bench_sub.add_parser(
        "metrics", help="run one instrumented sort and print the metrics registry"
    )
    b.add_argument(
        "--factor",
        choices=("path", "cycle", "k2", "complete", "tree", "petersen", "debruijn"),
        default="k2",
    )
    b.add_argument("--n", type=int, default=3, help="factor size (where parametric)")
    b.add_argument("--r", type=int, default=3, help="product dimensions")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--format", choices=("prom", "json"), default="prom")
    b.set_defaults(func=_cmd_bench_metrics)

    p = sub.add_parser(
        "check",
        help="static schedule verifier: comparator-DAG extraction + lints + "
        "certified optimizer (with its fault harness) over the benchreg workload matrix",
    )
    p.add_argument("--zero-one", action="store_true", help="zero-one certification (Lemmas 1-2)")
    p.add_argument("--races", action="store_true", help="synchronous-round race detector")
    p.add_argument("--links", action="store_true", help="single-G-subgraph link-legality lint (§4)")
    p.add_argument("--depth", action="store_true", help="S_r(N)/M_k(N) depth conformance (Lemma 3, Theorem 1)")
    p.add_argument(
        "--mutants",
        action="store_true",
        help="also run the seeded-fault harness (each mutant must be caught by its lint)",
    )
    p.add_argument(
        "--compiled",
        action="store_true",
        help="also require the compiled batch kernel to match the reference replay",
    )
    p.add_argument(
        "--cell",
        action="append",
        default=None,
        metavar="KEY",
        help="restrict to one benchreg cell (repeatable), e.g. path-n3-r3-machine",
    )
    p.add_argument("--verbose", action="store_true", help="also print advisory findings (dead comparators etc.)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "profile",
        help="per-layer certified-kernel profile of one benchreg cell (batch sweep)",
    )
    p.add_argument(
        "--cell",
        type=str,
        default="path-n3-r3",
        help="benchreg cell, e.g. path-n3-r3 or k2-n2-r4 (lattice assumed)",
    )
    p.add_argument(
        "--batch",
        action="append",
        type=int,
        default=None,
        metavar="SIZE",
        help="batch size to sweep (repeatable; default 1 16 256)",
    )
    p.add_argument("--runs", type=int, default=11, help="profiled runs per batch size")
    p.add_argument("--json", action="store_true", help="machine-readable profile document")
    p.add_argument(
        "--chrome",
        type=str,
        default=None,
        metavar="FILE",
        help="also export the reported runs' kernel-layer spans as Chrome trace-event JSON",
    )
    p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "metrics",
        help="serve the live Prometheus exposition endpoint (/metrics /healthz /snapshot.json)",
    )
    p.add_argument(
        "--serve",
        type=int,
        required=True,
        metavar="PORT",
        help="port to listen on (0 = ephemeral, printed on startup)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument(
        "--cell",
        type=str,
        default="path-n3-r3",
        help="cell whose kernel warms the histograms before serving",
    )
    p.add_argument("--batch", type=int, default=64, help="warm-up batch size")
    p.add_argument("--runs", type=int, default=3, help="warm-up profiled kernel runs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="micro-batched sort service: POST /sort + /queues.json + /metrics on one port",
    )
    p.add_argument("--port", type=int, default=0, metavar="PORT",
                   help="port to listen on (0 = ephemeral, printed on startup)")
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument(
        "--cell",
        action="append",
        default=None,
        metavar="KEY",
        help="cell queue to prewarm (repeatable; default path-n3-r3); other "
        "cells are built lazily on first request",
    )
    p.add_argument("--max-batch", type=int, default=64,
                   help="most requests one flush takes off a queue")
    p.add_argument("--max-queue-depth", type=int, default=512,
                   help="admission bound per queue; excess load is shed with 503")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="latency SLO; completions past it count deadline misses")
    p.add_argument("--slo", action="store_true",
                   help="background tsdb sampler + default serving SLOs with "
                   "burn-rate alerting, mounting /alerts.json on the same port")
    p.add_argument("--slo-scale", type=float, default=1.0, metavar="FACTOR",
                   help="scale the burn-rate alert windows (1.0 = the SRE-book "
                   "5m/1h defaults; smaller reacts faster, for drills)")
    p.add_argument("--sample-interval", type=float, default=0.25, metavar="SECONDS",
                   help="tsdb sampling interval")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="open-loop load generation against the sort service, "
        "verified against snake-order ground truth",
    )
    p.add_argument("--cell", type=str, default="path-n3-r3", help="cell to load")
    p.add_argument("--mix", choices=("uniform", "duplicates", "presorted", "adversarial"),
                   default="uniform", help="key mix")
    p.add_argument("--arrivals", choices=("poisson", "burst"), default="poisson",
                   help="arrival schedule")
    p.add_argument("--rate", type=float, default=2000.0, help="mean offered rate (req/s)")
    p.add_argument("--requests", type=int, default=200, help="total requests to offer")
    p.add_argument("--burst-factor", type=float, default=8.0,
                   help="burst arrivals: rate multiplier inside a burst window")
    p.add_argument("--burst-len", type=int, default=16,
                   help="burst arrivals: requests per quiet/burst window")
    p.add_argument("--target", type=str, default=None, metavar="URL",
                   help="drive a live service (http://host:port) instead of in-process")
    p.add_argument("--max-batch", type=int, default=64,
                   help="in-process service: most requests per flush")
    p.add_argument("--max-queue-depth", type=int, default=512,
                   help="in-process service: admission bound")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="in-process service: latency SLO")
    p.add_argument("--flush-penalty", type=float, default=0.0, metavar="SECONDS",
                   help="in-process service: artificial per-flush service time "
                   "(overload/backpressure drills)")
    p.add_argument("--slo", action="store_true",
                   help="evaluate SLO burn rates during the run (in-process: a "
                   "tsdb sampler + the default serving SLOs with windows scaled "
                   "to the run; --target: fetch the server's /alerts.json); the "
                   "alert snapshot lands in the document's 'slo' section")
    p.add_argument("--json", action="store_true", help="machine-readable result document")
    p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("gray", help="print Gray/snake orders (Figs. 3-5)")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r", type=int, default=3)
    p.set_defaults(func=_cmd_gray)

    p = sub.add_parser("worked-example", help="the Figs. 12-15 walkthrough")
    p.set_defaults(func=_cmd_worked_example)

    p = sub.add_parser(
        "report", help="regenerate the paper-vs-measured markdown report"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
