"""Self-check of the benchmark itself.

Run from the root of a checkout (takes about two minutes)::

    python3 perfbench/selfcheck.py

It asserts that

* ``BENCHMARK.json`` names exactly the metrics (with units) that ``run.py``
  defines, and the two declared workloads;
* the oracle's snake order is a Gray sequence (unit distance, every label
  once), equals the program's, and the oracle rejects corrupted outputs;
* a short run of every workload, untraced and traced, prints every metric
  of its kind with its unit as a finite number, and reports a correct run;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # serve-saturate and http-sort run by hand and in traced slices only
    # (README.md: too unsteady on a shared host to bound)
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == ["kernel-b256", "serve-steady"], declared
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END), e2e
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layers == [(name, unit) for name, unit, _ in run.PER_LAYER], layers
    return spec


def check_oracle() -> None:
    from repro.observability.kernelprof import resolve_profile_cell
    from repro.schedule import compile_schedule
    from repro.staticcheck import emit_schedule

    for n, r in ((2, 4), (3, 3), (4, 3), (5, 2)):
        seq = oracle.gray_sequence(n, r)
        assert len(set(seq)) == n**r
        assert all(sum(abs(a - b) for a, b in zip(s, t)) == 1 for s, t in zip(seq, seq[1:]))
    run.check_snake_oracle()

    spec = resolve_profile_cell("path-n3-r3")
    kernel = compile_schedule(emit_schedule(spec.build_factor(), spec.r, backend="lattice"))
    keys = np.random.default_rng(0).integers(-(2**63), 2**63 - 1, size=(8, 27), dtype=np.int64)
    expected = oracle.floor_sort(keys, oracle.snake_nodes(3, 3))
    out = kernel.run(keys)
    oracle.check(out, expected, "clean kernel output")
    swapped = out.copy()
    swapped[3, [5, 6]] = swapped[3, [6, 5]]
    bumped = out.copy()
    bumped[0, 0] += 1
    for corrupt in (swapped, bumped, out[:, :-1], out.astype(np.float64)):
        try:
            oracle.check(corrupt, expected, "corrupted kernel output")
        except oracle.OracleMismatch:
            continue
        raise AssertionError("the oracle accepted a corrupted output")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            got = {name: (m["unit"], m["value"]) for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            assert set(got) == set(want), set(got) ^ set(want)
            for name, (unit, value) in got.items():
                assert unit == want[name], (name, unit)
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_bare_directory() -> None:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "kernel-b256", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = check_spec()
    print("ok  BENCHMARK.json matches run.py")
    check_oracle()
    print("ok  oracle: Gray sequence, equals the program's snake order, rejects corruption")
    check_bare_directory()
    print("ok  exits non-zero without the program's sources")
    check_runs(spec)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
