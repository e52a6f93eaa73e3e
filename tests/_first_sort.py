"""The first untraced sort of a large cell, stage by stage, in its own process.

Run as ``PYTHONPATH=src python -m tests._first_sort [r]`` (default: the
16-cube, ``k2`` with ``r = 16``, 65,536 keys).  It times the stages a cold
``sort_sequence`` pays — emission, the schedule hash, lowering (the
optimizer's refusal plus the raw kernel) and the kernel run — and prints
one JSON object with those seconds, the process's peak RSS and the facts
the accounting test checks.  A fresh process is the point: the peak RSS is
this sort's alone.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import numpy as np

from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import k2
from repro.orders import lattice_to_sequence
from repro.schedule import compile_schedule


def first_sort(r: int) -> dict[str, object]:
    sorter = ProductNetworkSorter.for_factor(k2(), r, keep_log=False)
    keys = np.random.default_rng(12345).integers(0, 2**31, size=2**r)
    t0 = perf_counter()
    dag = sorter.schedule()
    t1 = perf_counter()
    schedule_hash = dag.schedule_hash()
    t2 = perf_counter()
    kernel = compile_schedule(dag)
    t3 = perf_counter()
    lattice, ledger = sorter.sort_sequence(keys)
    t4 = perf_counter()
    # ru_maxrss is KiB on Linux, bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_bytes = peak if sys.platform == "darwin" else peak * 1024
    return {
        "r": r,
        "emit_s": round(t1 - t0, 3),
        "hash_s": round(t2 - t1, 3),
        "lowering_s": round(t3 - t2, 3),
        "run_s": round(t4 - t3, 3),
        "peak_rss_mb": round(peak_bytes / 2**20, 1),
        "schedule_hash": schedule_hash,
        "layers": kernel.num_layers,
        "sorted": bool(np.array_equal(lattice_to_sequence(lattice), np.sort(keys))),
        "total_rounds": ledger.total_rounds,
        "s2_calls": ledger.s2_calls,
    }


if __name__ == "__main__":
    print(json.dumps(first_sort(int(sys.argv[1]) if len(sys.argv) > 1 else 16)))
