"""Pinned traced event streams, ledgers and adaptive skip counts.

The traced lattice sort, ``merge_sorted_subgraphs`` and the adaptive variant
publish a span tree and intermediate lattice states (``point`` events) that
the exporters, the conformance checker and the worked example read.  This
test hashes, per case, the time-stripped event stream (kind, name, span and
parent ids, attributes in order, and each point payload's dtype, shape and
bytes), the ledger's records, the output lattice and, for the adaptive
variant, its Step-4 skip counts.  The hashes were recorded from the
recursive drivers the DAG interpreter replaced; any change to what a traced
run publishes or charges shows up here.

The machine backend's cases hash the same stream, and separately its
schedule's static traffic pass (:func:`~repro.machine.machine.machine_traffic`:
every super-step's label pairs in order, its charge and its routes); its
emitted schedules' hashes on the small factors are pinned too.  The schedule
hashes were recorded from the machine planner that ran the recursion a
second time before the machine schedule became a lowering of the lattice
schedule; both machine digests were recorded from the run-time step events
the traffic pass replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveProductNetworkSorter
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.graphs import complete_binary_tree, cycle_graph, k2, path_graph
from repro.machine import machine_traffic
from repro.observability import EventBus, Tracer
from repro.sorters2d import OddEvenSnakeSorter
from tests.conftest import SMALL_FACTORS
from repro.orders import sequence_to_lattice

#: the seven geometries of the default workload matrix, plus two deeper ones
GEOMETRIES = {
    "path-n3-r2": (path_graph, 3, 2),
    "path-n3-r3": (path_graph, 3, 3),
    "path-n4-r3": (path_graph, 4, 3),
    "cycle-n4-r3": (cycle_graph, 4, 3),
    "k2-n2-r2": (lambda n: k2(), 2, 2),
    "k2-n2-r3": (lambda n: k2(), 2, 3),
    "k2-n2-r4": (lambda n: k2(), 2, 4),
    "path-n3-r4": (path_graph, 3, 4),
    "k2-n2-r5": (lambda n: k2(), 2, 5),
}


def _keys(kind: str, n: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(n * 100 + r)
    if kind == "random":
        return rng.integers(0, 1000, size=n**r)
    if kind == "zero-one":
        return rng.integers(0, 2, size=n**r)
    return np.zeros(n**r, dtype=np.int64)  # "constant"


def _merge_input(keys: np.ndarray, n: int, r: int) -> np.ndarray:
    """``n`` snake-sorted ``PG_{r-1}`` slices (a plain sorted row at r = 2)."""
    runs = np.sort(keys.reshape(n, n ** (r - 1)), axis=1)
    if r == 2:
        return runs
    return np.stack([sequence_to_lattice(run, n, r - 1) for run in runs])


def _value(value) -> str:
    if isinstance(value, np.ndarray):
        return f"ndarray({value.dtype.str},{value.shape},{value.tobytes().hex()})"
    return repr(value)


def _hash_run(events: list, ledger, lattice) -> "hashlib._Hash":
    digest = hashlib.sha256()
    for event in events:
        attrs = ",".join(f"{k}={_value(v)}" for k, v in event.attrs.items())
        digest.update(
            f"{event.kind}|{event.name}|{event.span_id}|{event.parent_id}|{attrs}\n".encode()
        )
    for record in ledger.records:
        digest.update(f"{record!r}\n".encode())
    digest.update(_value(np.asarray(lattice)).encode())
    return digest


def _digest(geometry: str, variant: str, method: str, kind: str) -> str:
    make, n, r = GEOMETRIES[geometry]
    cls = AdaptiveProductNetworkSorter if variant == "adaptive" else ProductNetworkSorter
    sorter = cls.for_factor(make(n), r)
    bus = EventBus()
    events: list = []
    bus.subscribe(events.append)
    keys = _keys(kind, n, r)
    if method == "sort":
        lattice, ledger = sorter.sort_sequence(keys, tracer=Tracer(bus))
    else:
        lattice = _merge_input(keys, n, r)
        lattice, ledger = sorter.merge_sorted_subgraphs(lattice, tracer=Tracer(bus))
    digest = _hash_run(events, ledger, lattice)
    if variant == "adaptive":
        digest.update(f"skipped={sorter.steps4_skipped},executed={sorter.steps4_executed}".encode())
    return digest.hexdigest()[:16]


CASES = [
    (geometry, variant, method, "random")
    for geometry in GEOMETRIES
    for variant in ("plain", "adaptive")
    for method in ("sort", "merge")
] + [
    (geometry, "adaptive", method, kind)
    for geometry in GEOMETRIES
    for method in ("sort", "merge")
    for kind in ("constant", "zero-one")
]

PINNED: dict[tuple[str, str, str, str], str] = {
    ("path-n3-r2", "plain", "sort", "random"): "2e707eceabbd5296",
    ("path-n3-r2", "plain", "merge", "random"): "8d6113b8640435af",
    ("path-n3-r2", "adaptive", "sort", "random"): "bea7ca0deada1087",
    ("path-n3-r2", "adaptive", "merge", "random"): "8dbb7efca0c72bc0",
    ("path-n3-r3", "plain", "sort", "random"): "d3bb10e424c96c68",
    ("path-n3-r3", "plain", "merge", "random"): "144dca8f9871cdc4",
    ("path-n3-r3", "adaptive", "sort", "random"): "ac2382ddb066cc24",
    ("path-n3-r3", "adaptive", "merge", "random"): "8f25b671f2816e80",
    ("path-n4-r3", "plain", "sort", "random"): "9c2793d5ce980159",
    ("path-n4-r3", "plain", "merge", "random"): "b72308a09f9b5f03",
    ("path-n4-r3", "adaptive", "sort", "random"): "e420fb32b122b910",
    ("path-n4-r3", "adaptive", "merge", "random"): "10622f20b83db9be",
    ("cycle-n4-r3", "plain", "sort", "random"): "68580e0ba75178fc",
    ("cycle-n4-r3", "plain", "merge", "random"): "d4ab064ff71591ce",
    ("cycle-n4-r3", "adaptive", "sort", "random"): "a7c9e20cd43cee0d",
    ("cycle-n4-r3", "adaptive", "merge", "random"): "2c118853df57aba3",
    ("k2-n2-r2", "plain", "sort", "random"): "caf39ab6c53e057d",
    ("k2-n2-r2", "plain", "merge", "random"): "7683951925ad7f42",
    ("k2-n2-r2", "adaptive", "sort", "random"): "87b2ab5a4cbc404c",
    ("k2-n2-r2", "adaptive", "merge", "random"): "7980e55fca4a9e9a",
    ("k2-n2-r3", "plain", "sort", "random"): "fac6a16ced779139",
    ("k2-n2-r3", "plain", "merge", "random"): "94e20de2a3e0dd16",
    ("k2-n2-r3", "adaptive", "sort", "random"): "36c0e2c027110fb1",
    ("k2-n2-r3", "adaptive", "merge", "random"): "e7d08487009aee1e",
    ("k2-n2-r4", "plain", "sort", "random"): "f07811b351090dfe",
    ("k2-n2-r4", "plain", "merge", "random"): "e8e9239e615f4700",
    ("k2-n2-r4", "adaptive", "sort", "random"): "67a12883c84e90da",
    ("k2-n2-r4", "adaptive", "merge", "random"): "df6ed490e699a097",
    ("path-n3-r4", "plain", "sort", "random"): "452ba40dcae88a17",
    ("path-n3-r4", "plain", "merge", "random"): "ae81ad5960fdbb85",
    ("path-n3-r4", "adaptive", "sort", "random"): "b31dce095ff26ad6",
    ("path-n3-r4", "adaptive", "merge", "random"): "30b1e103e7a1cbc4",
    ("k2-n2-r5", "plain", "sort", "random"): "9508f502754d1a4d",
    ("k2-n2-r5", "plain", "merge", "random"): "db93fbf6e1a2b0e9",
    ("k2-n2-r5", "adaptive", "sort", "random"): "1340989a11060b64",
    ("k2-n2-r5", "adaptive", "merge", "random"): "383d4037e1d0a198",
    ("path-n3-r2", "adaptive", "sort", "constant"): "631cce8460909d27",
    ("path-n3-r2", "adaptive", "sort", "zero-one"): "3cd5c2c173a9b524",
    ("path-n3-r2", "adaptive", "merge", "constant"): "3021e257b9cf8eb6",
    ("path-n3-r2", "adaptive", "merge", "zero-one"): "7d992f031d622ac9",
    ("path-n3-r3", "adaptive", "sort", "constant"): "7e3d3d8c88258339",
    ("path-n3-r3", "adaptive", "sort", "zero-one"): "101831f632a5a3e3",
    ("path-n3-r3", "adaptive", "merge", "constant"): "edd78e6ce46eb9a6",
    ("path-n3-r3", "adaptive", "merge", "zero-one"): "cd7a01ee4ad13007",
    ("path-n4-r3", "adaptive", "sort", "constant"): "c7773b158722cdb5",
    ("path-n4-r3", "adaptive", "sort", "zero-one"): "12263581ebf0a627",
    ("path-n4-r3", "adaptive", "merge", "constant"): "4336e08c3e866e92",
    ("path-n4-r3", "adaptive", "merge", "zero-one"): "43fe06ad1f1f6dcd",
    ("cycle-n4-r3", "adaptive", "sort", "constant"): "d8b5c9207ed4c383",
    ("cycle-n4-r3", "adaptive", "sort", "zero-one"): "4063d757f3134d67",
    ("cycle-n4-r3", "adaptive", "merge", "constant"): "ce4521f619254328",
    ("cycle-n4-r3", "adaptive", "merge", "zero-one"): "cc93df5d92df352d",
    ("k2-n2-r2", "adaptive", "sort", "constant"): "6dd3df975a433d9a",
    ("k2-n2-r2", "adaptive", "sort", "zero-one"): "6dd3df975a433d9a",
    ("k2-n2-r2", "adaptive", "merge", "constant"): "07b8c3d2bc3058e9",
    ("k2-n2-r2", "adaptive", "merge", "zero-one"): "07b8c3d2bc3058e9",
    ("k2-n2-r3", "adaptive", "sort", "constant"): "d981a5de0f8c1348",
    ("k2-n2-r3", "adaptive", "sort", "zero-one"): "1ec40e44388a7a64",
    ("k2-n2-r3", "adaptive", "merge", "constant"): "11e21b43466a8c3b",
    ("k2-n2-r3", "adaptive", "merge", "zero-one"): "6ec73bb92ed4aff6",
    ("k2-n2-r4", "adaptive", "sort", "constant"): "5410b43ee7eb3487",
    ("k2-n2-r4", "adaptive", "sort", "zero-one"): "40f51aae47f6927b",
    ("k2-n2-r4", "adaptive", "merge", "constant"): "b22ff580f0d61672",
    ("k2-n2-r4", "adaptive", "merge", "zero-one"): "099cf9fc0064ff10",
    ("path-n3-r4", "adaptive", "sort", "constant"): "bd69d44a8ab5eaf2",
    ("path-n3-r4", "adaptive", "sort", "zero-one"): "31e3a23f8e89122e",
    ("path-n3-r4", "adaptive", "merge", "constant"): "6cb79072b8917d13",
    ("path-n3-r4", "adaptive", "merge", "zero-one"): "2a4a6ee799ec1f9c",
    ("k2-n2-r5", "adaptive", "sort", "constant"): "f860ea48f9c07bed",
    ("k2-n2-r5", "adaptive", "sort", "zero-one"): "35355ad14e065794",
    ("k2-n2-r5", "adaptive", "merge", "constant"): "21aaad2874b64dc3",
    ("k2-n2-r5", "adaptive", "merge", "zero-one"): "4defaf996db9498b",
}


@pytest.mark.parametrize("case", CASES, ids=["-".join(case) for case in CASES])
def test_traced_stream_is_pinned(case):
    assert _digest(*case) == PINNED[case]


#: machine geometries: the default sorters on the all-adjacent factors, two
#: routed labellings (a tree, and the relabelled path of
#: ``tests/test_schedule.py``), and the generic odd-even snake sorter
MACHINE_GEOMETRIES = {
    "path-n3-r3": (lambda: path_graph(3), 3, None),
    "path-n3-r4": (lambda: path_graph(3), 4, None),
    "path-n4-r3": (lambda: path_graph(4), 3, None),
    "cycle-n4-r3": (lambda: cycle_graph(4), 3, None),
    "k2-n2-r4": (lambda: k2(), 4, None),
    "cbt1-r3": (lambda: complete_binary_tree(1), 3, None),
    "path-n4-r3-relabelled": (lambda: path_graph(4).relabel([2, 0, 3, 1]), 3, None),
    "path-n3-r3-odd-even-snake": (lambda: path_graph(3), 3, OddEvenSnakeSorter),
}


def _machine_digests(geometry: str) -> tuple[str, str]:
    """The traced run's stream digest and its schedule's traffic digest."""
    make, r, sorter2d = MACHINE_GEOMETRIES[geometry]
    sorter = MachineSorter.for_factor(make(), r, None if sorter2d is None else sorter2d())
    bus = EventBus()
    events: list = []
    bus.subscribe(events.append)
    keys = _keys("random", sorter.n, r)
    machine, ledger = sorter.sort(keys, tracer=Tracer(bus))
    stream = _hash_run(events, ledger, machine.lattice()).hexdigest()[:16]
    traffic = hashlib.sha256()
    label = sorter.network.label_of
    for step in machine_traffic(sorter.schedule(), sorter.network):
        pairs = tuple((label(a), label(b)) for a, b in step.pairs)
        traffic.update(f"{pairs!r}|{step.charge}|{step.routes!r}\n".encode())
    return stream, traffic.hexdigest()[:16]


#: geometry -> (traced stream digest, traffic digest)
MACHINE_PINNED: dict[str, tuple[str, str]] = {
    "path-n3-r3": ("7326fd7280d8b9eb", "d36b9e2491f2c758"),
    "path-n3-r4": ("fc3c05fd51a1ef5c", "e2c9a1f489da671f"),
    "path-n4-r3": ("424c21f6c1f26c10", "d182a1e9c79080ff"),
    "cycle-n4-r3": ("782b9cff1194148e", "d182a1e9c79080ff"),
    "k2-n2-r4": ("937dce8d43340e48", "4485a38e5543a201"),
    "cbt1-r3": ("f4e5236f8a5bd0ac", "771f55cdd9878263"),
    "path-n4-r3-relabelled": ("dfe0a43600b12003", "561d07fa4274d35a"),
    "path-n3-r3-odd-even-snake": ("5a288e9b4d27855d", "e263138991844263"),
}


@pytest.mark.parametrize("geometry", list(MACHINE_GEOMETRIES))
def test_machine_traced_stream_is_pinned(geometry):
    assert _machine_digests(geometry) == MACHINE_PINNED[geometry]


#: ``schedule_hash()`` of every small factor's machine schedule at r = 3
#: (default sorter), cheapest first
SMALL_FACTOR_MACHINE_HASHES: dict[str, str] = {
    "path3": "eba39db0f9c19efcfadcfe336934dd2e0d65ec91a73b01ba7fc5f25e1f9e5304",
    "path4": "55104dd2bc9d8dee0311dec0b312707d7f17843abd4e8b8fb6654f7dad8233c2",
    "cycle4": "a90d73853f2754d4b2e029a532512bdc64d9c74b3ac572ca197fdf588739d61c",
    "k2": "c9c4e2a004fd3fea97d41c0f13548d3b1c9fa71fb0d62776bd04ee27a314bba0",
    "cbt1": "05b6259dcdd809fe6da228ba3e57292d01f24fd261baf3f6d2038280df443a5f",
    "debruijn2": "72ddea1e1442e305b0f71d4dfaa75f65f14e867b1d9efa05a3a5e61ebbc89e04",
    "complete4": "c68ea9a0a77af4f214428617bd68e1ec788082882b0a5aed7e84e79c5b661ea1",
    "cycle5": "9331fe9bb515d0ce0d77adbf12cb8a89830fedf7c5fdd1e076a28d2661c5270f",
    "star4": "237350464337e48aca65281440e21216677dcccbc416da384b92084111219664",
    "wheel5": "8c5abc2f735f3d362a0972ad895e722aa79d57c7f0184b386c97517a02c637b1",
    "random5": "99d5bc0029bbf12fb0545193988ab122b8c650b8cd133070d88f4c5be391244b",
    "random7": "b50ce46f2f0e5479ca431694f349c328c2d9bafdc66c8b43d0be432e44ed18c1",
    "se3": "8d4853fa6d6cc7623a6c7f55a3ad4df502b4d0a2d5e240a84eb24c47bdaf1ec0",
    "cbt2": "869bbe780d724e802aea616d5af557cbff6948781d5a085f5d8a69cccc62db63",
    "debruijn3": "59b8857f9fb00fea9ba6ede0a75c7ce7f6bea94e6a6d743993f57353a1e4dae8",
    "petersen": "721d8f1c9adad3ec7cec23802ad8dd695d46243c8436e3daf86c9721ec62987f",
}


@pytest.mark.parametrize("name", list(SMALL_FACTOR_MACHINE_HASHES))
def test_small_factor_machine_schedule_is_pinned(name):
    dag = MachineSorter.for_factor(SMALL_FACTORS[name], 3).schedule()
    assert dag.schedule_hash() == SMALL_FACTOR_MACHINE_HASHES[name]


if __name__ == "__main__":  # python -m tests.test_traced_streams: the tables above
    import time

    for case in CASES:
        print(f"    {case!r}: {_digest(*case)!r},")
    for geometry in MACHINE_GEOMETRIES:
        print(f"    {geometry!r}: {_machine_digests(geometry)!r},")
    for name, factor in SMALL_FACTORS.items():
        t0 = time.perf_counter()
        dag = MachineSorter.for_factor(factor, 3).schedule()
        print(f"    {name!r}: {dag.schedule_hash()!r},  # {time.perf_counter() - t0:.2f} s")
