"""The repository benchmark: one workload, measured end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel-b256 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` measures the per-layer metrics: the workload runs untraced
for half the time, then traced for the other half (their keys/s ratio is
``bench.tracing_overhead``), and each per-layer metric that lives on
another workload is taken from a short traced slice of that workload, so
every traced run reports the same metric set.  README.md has the map.

Human-readable lines go first; the last line of standard output is the
JSON result.  A wrong output aborts with exit code 1 and no result; a
checkout without the program's sources exits with code 2.  Details
(per-window values, environment, spans) go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import oracle
from spans import Tracer
from workloads import CELLS, WORKLOADS, Run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: (name, unit); every workload reports every one of them
END_TO_END = (
    ("setup_s", "s"),
    ("sort_keys_per_s", "keys/s"),
    ("latency_p50_ms", "ms"),
    ("floor_ratio", "x"),
    ("peak_rss_mb", "MB"),
)


def _per_cell(name: str, unit: str, home: str) -> list[tuple[str, str, str | None]]:
    return [(f"{name}.{cell}", unit, home) for cell in CELLS]


#: (name, unit, workload it is measured on; None: the traced workload itself)
PER_LAYER: tuple[tuple[str, str, str | None], ...] = (
    ("schedule.emit.s", "s", None),
    *_per_cell("schedule.emit.ops", "count", "kernel-b256"),
    ("schedule.optimize.s", "s", "kernel-b256"),
    ("staticcheck.validate.s", "s", "kernel-b256"),
    *_per_cell("schedule.optimize.ops", "count", "kernel-b256"),
    ("schedule.compiled.compile_s", "s", "kernel-b256"),
    *_per_cell("schedule.compiled.layers", "count", "kernel-b256"),
    *_per_cell("schedule.compiled.ops", "count", "kernel-b256"),
    *_per_cell("schedule.compiled.run_us_p50", "us", "kernel-b256"),
    *_per_cell("floor.run_us_p50", "us", "kernel-b256"),
    *_per_cell("schedule.compiled.bytes_per_call", "bytes-computed", "kernel-b256"),
    ("serve.service.rows_per_flush", "rows", "serve-saturate"),
    ("serve.service.flushes", "count", "serve-saturate"),
    ("schedule.compiled.busy_share", "fraction", "serve-saturate"),
    ("serve.service.submit_ms_p50", "ms", "serve-steady"),
    ("serve.service.submit_ms_p99", "ms", "serve-steady"),
    ("serve.service.self_ms_p50", "ms", "serve-steady"),
    ("serve.service.loop_lag_ms_p99", "ms", "serve-steady"),
    ("serve.frontend.overhead_ms_p50", "ms", "http-sort"),
    ("serve.frontend.bytes_per_request", "bytes", "http-sort"),
    ("observability.metrics.calls_per_request", "count", "serve-saturate"),
    ("observability.metrics.us_per_request", "us", "serve-saturate"),
    ("bench.tracing_overhead", "x", None),
)

#: set-ups per run; set-up time is their median
SETUPS = {"kernel-b256": 3, "serve-steady": 25, "serve-saturate": 25, "http-sort": 25}
#: end-to-end metrics are medians over windows of the run, each holding at
#: least this many operations (so p99 has ten samples beyond it)
WINDOW_OPS = 1000
MAX_WINDOWS = 30
#: seconds of a traced slice of another workload
SLICE_S = 1.0


def windows(run: Run) -> list[dict[str, float]]:
    """Split the measured run into equal windows and summarize each."""
    count = int(np.clip(run.t_end.size // WINDOW_OPS, 1, MAX_WINDOWS))
    edges = np.linspace(run.start, run.stop, count + 1)
    which = np.clip(np.searchsorted(edges, run.t_end, side="right") - 1, 0, count - 1)
    out = []
    for w in range(count):
        sel = which == w
        if not sel.any():
            continue
        lat = run.latency[sel]
        seconds = lat.sum() if run.busy else edges[w + 1] - edges[w]
        p50, p90, p99 = 1e3 * np.quantile(lat, [0.5, 0.9, 0.99])
        out.append(
            {
                "ops": int(sel.sum()),
                "sort_keys_per_s": float(run.keys[sel].sum() / seconds),
                "latency_p50_ms": float(p50),
                "latency_p90_ms": float(p90),
                "latency_p99_ms": float(p99),
            }
        )
    return out


def summarize(run: Run) -> dict[str, float]:
    """End-to-end metrics of one run (without ``peak_rss_mb``).

    Rates and latencies are medians over :func:`windows`; ``floor_ratio``
    is the median kernel time over the median floor time of the run's
    interleaved kernel/floor calls.
    """
    per = windows(run)
    if not per:
        raise RuntimeError("no operation completed; nothing to measure")
    out = {"setup_s": float(np.median(run.setup_s))}
    for key in per[0]:
        if key != "ops":
            out[key] = float(np.median([w[key] for w in per]))
    if run.kernel_floor.size:
        kernel_s, floor_s = np.median(run.kernel_floor, axis=0)
        out["floor_ratio"] = float(kernel_s / floor_s)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict[str, Any]:
    """Host record, with how late an idle ``sleep(1 ms)`` wakes up."""
    late = []
    for _ in range(1000):
        t0 = time.perf_counter()
        time.sleep(0.001)
        late.append(time.perf_counter() - t0 - 0.001)
    q = np.quantile(late, [0.5, 0.99, 0.999]) * 1e3
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "sleep_1ms_late_ms": {"p50": q[0], "p99": q[1], "p99.9": q[2]},
    }


def check_snake_oracle() -> None:
    """The oracle's snake order must equal the program's, cell by cell."""
    from repro.observability.kernelprof import resolve_profile_cell
    from repro.schedule import snake_order_nodes

    for cell in CELLS:
        spec = resolve_profile_cell(cell)
        if not np.array_equal(oracle.snake_nodes(spec.n, spec.r), snake_order_nodes(spec.n, spec.r)):
            raise oracle.OracleMismatch(f"{cell}: snake order differs from Definition 3")


def traced(workload: str, seed: int, seconds: float) -> tuple[dict[str, float], list[Run], Tracer]:
    """Per-layer metrics of ``workload`` and every run made to get them."""
    setups = SETUPS[workload]
    base = WORKLOADS[workload](seed, seconds / 2, None, setups)
    tracer = Tracer()
    with tracer.installed():
        run = WORKLOADS[workload](seed, seconds / 2, tracer, setups)
    runs = [base, run]
    layer = dict(run.layer)
    layer["schedule.emit.s"] = float(np.median(tracer.seconds("schedule.emit")))
    layer["bench.tracing_overhead"] = (
        summarize(base)["sort_keys_per_s"] / summarize(run)["sort_keys_per_s"]
    )
    for other in WORKLOADS:
        wanted = [name for name, _, home in PER_LAYER if home == other and name not in layer]
        if wanted:
            slice_tracer = Tracer()
            with slice_tracer.installed():
                runs.append(WORKLOADS[other](seed, SLICE_S, slice_tracer, 1))
            layer.update({name: runs[-1].layer[name] for name in wanted})
    return layer, runs, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import repro.observability.kernelprof  # noqa: F401  (imports out of set-up time)
    import repro.serve  # noqa: F401
    import repro.staticcheck.validate  # noqa: F401

    try:
        check_snake_oracle()
        if args.trace:
            values, runs, tracer = traced(args.workload, args.seed, args.seconds)
            spec = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            runs = [WORKLOADS[args.workload](args.seed, args.seconds, None, SETUPS[args.workload])]
            values = summarize(runs[0])
            spec = list(END_TO_END)
    except oracle.OracleMismatch as exc:
        print(f"perfbench: WRONG OUTPUT: {exc}", file=sys.stderr)
        return 1
    values["peak_rss_mb"] = peak_rss_mb()
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    env = environment()

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "args": vars(args),
        "environment": env,
        "setup_s": [r.setup_s for r in runs],
        "windows": [windows(r) for r in runs],
        "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl.gz"))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for name in sorted(set(values) - set(result["metrics"])):
        print(f"  {name:<48} {values[name]:>16.6g} (informational)")
    print(f"  attempted {attempted}, failed {failed} (failed_share {failed / max(attempted, 1):.3g})")
    late = env["sleep_1ms_late_ms"]
    print(
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"{env['platform']}; sleep(1 ms) late p50/p99/p99.9 "
        f"{late['p50']:.3f}/{late['p99']:.3f}/{late['p99.9']:.3f} ms"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
