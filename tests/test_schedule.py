"""Tests for the Schedule IR spine: one emitted artifact, many interpreters.

Pins the tentpole contract of the schedule refactor:

* the reference :func:`repro.schedule.replay` and the layer-packed
  compiled batch kernel (which the lattice backend also runs) agree with
  the snake-order ground truth on random lattices, for every canonical
  benchreg cell (Hypothesis property);
* the compiled kernel sorts a whole ``(batch, N**r)`` array in one pass;
* emission is keyless and cached, the compiled cache is keyed by the
  canonical schedule hash, and emitted hashes reproduce the hashes pinned
  in the blessed ``BENCH_seed.json`` byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.observability import Tracer
from repro.observability.benchreg import DEFAULT_MATRIX
from repro.schedule import (
    ComparatorDAG,
    CompiledSchedule,
    cache_stats,
    compile_schedule,
    replay,
    snake_order_nodes,
)
from repro.schedule.compiled import NETWORK_MIN_LANES
from repro.staticcheck import emit_schedule
from tests._strategies import ORDERED_DTYPES, dtype_keys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CELL_IDS = [c.key for c in DEFAULT_MATRIX]


def _emit(cell) -> ComparatorDAG:
    return emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)


def _kernel(dag: ComparatorDAG, certified: bool) -> CompiledSchedule:
    """The served (certified) kernel of ``dag``, or its raw kernel."""
    return compile_schedule(dag) if certified else CompiledSchedule(dag)


def _snake_sorted(dag: ComparatorDAG, keys: np.ndarray) -> np.ndarray:
    """Ground truth: the keys placed in perfect snake order, flat node order."""
    expected = np.empty_like(keys)
    expected[..., snake_order_nodes(dag.n, dag.r)] = np.sort(keys, axis=-1)
    return expected


class TestInterpretersAgree:
    """The Hypothesis property of the issue: every interpreter of the one
    emitted artifact produces ``sorted_reference`` on random lattices."""

    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_replay_roundplan_compiled_match_reference(self, cell, data):
        dag = _emit(cell)
        keys = np.asarray(
            data.draw(
                st.lists(
                    st.integers(-(2**31), 2**31 - 1),
                    min_size=dag.num_nodes,
                    max_size=dag.num_nodes,
                )
            )
        )
        expected = _snake_sorted(dag, keys)
        assert np.array_equal(replay(dag, keys), expected)
        assert np.array_equal(compile_schedule(dag).run(keys), expected)

    @pytest.mark.parametrize(
        "cell", [c for c in DEFAULT_MATRIX if c.backend == "lattice"],
        ids=[c.key for c in DEFAULT_MATRIX if c.backend == "lattice"],
    )
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_lattice_backend_interprets_the_same_artifact(self, cell, data):
        sorter = ProductNetworkSorter.for_factor(cell.build_factor(), cell.r)
        dag = sorter.schedule()
        keys = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 10**6),
                    min_size=dag.num_nodes,
                    max_size=dag.num_nodes,
                )
            )
        )
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(np.ravel(lattice), _snake_sorted(dag, keys))
        # the interpreted ledger equals the phase list's charges
        assert ledger.total_rounds == dag.depth

    @pytest.mark.parametrize(
        "cell", [c for c in DEFAULT_MATRIX if c.backend == "machine"],
        ids=[c.key for c in DEFAULT_MATRIX if c.backend == "machine"],
    )
    def test_machine_backend_interprets_the_same_artifact(self, cell, rng):
        sorter = MachineSorter.for_factor(cell.build_factor(), cell.r)
        dag = sorter.schedule()
        keys = rng.integers(0, 2**31, size=dag.num_nodes)
        machine, ledger = sorter.sort(keys)
        assert np.array_equal(machine.keys, replay(dag, keys))
        assert machine.rounds == ledger.total_rounds == dag.depth


class TestCompiledBatch:
    def test_batch_axis_thousand_rows_one_pass(self, rng):
        """>= 1000 independent lattices sorted in one compiled call."""
        cell = next(c for c in DEFAULT_MATRIX if c.key == "path-n3-r3-lattice")
        dag = _emit(cell)
        batch = rng.integers(0, 2**31, size=(1024, dag.num_nodes))
        out = compile_schedule(dag).run(batch)
        assert out.shape == batch.shape
        assert np.array_equal(out, _snake_sorted(dag, batch))
        # and the reference replay agrees row for row
        assert np.array_equal(out, replay(dag, batch))

    def test_packing_never_worse_and_semantics_identical(self, rng):
        dag = _emit(next(c for c in DEFAULT_MATRIX if c.key == "k2-n2-r4-lattice"))
        packed = CompiledSchedule(dag)
        # ASAP packing may only fold rounds into layers, never split them
        assert packed.num_layers <= len(dag.rounds)
        batch = rng.integers(0, 100, size=(64, dag.num_nodes))
        assert np.array_equal(packed.run(batch), replay(dag, batch))

    def test_asap_packing_folds_independent_rounds(self):
        """Comparators from different rounds touching disjoint nodes land in
        one packed layer."""
        from repro.schedule import SchedulePhase, ScheduleRound

        phases = tuple(
            SchedulePhase(index=i, path=("sort", f"p{i}"), kind="routing",
                          dim=None, charged_rounds=1)
            for i in range(2)
        )
        rounds = (
            ScheduleRound(index=0, phase=0, charge=1, lo=[0], hi=[1]),
            ScheduleRound(index=1, phase=1, charge=1, lo=[2], hi=[3]),
        )
        dag = ComparatorDAG(backend="lattice", factor="synthetic", n=2, r=2,
                            num_nodes=4, phases=phases, rounds=rounds)
        assert CompiledSchedule(dag).num_layers == 1
        out = CompiledSchedule(dag).run(np.array([3, 1, 9, 4]))
        assert np.array_equal(out, [1, 3, 4, 9])

    def test_kernel_cache_is_keyed_by_schedule_hash(self):
        dag = _emit(DEFAULT_MATRIX[0])
        assert compile_schedule(dag) is compile_schedule(dag)
        assert compile_schedule(dag).source_hash == dag.schedule_hash()
        # the raw kernel is built, never cached
        assert CompiledSchedule(dag) is not CompiledSchedule(dag)
        assert CompiledSchedule(dag) is not compile_schedule(dag)

    def test_compile_schedule_only_optimizes(self):
        dag = _emit(DEFAULT_MATRIX[0])
        assert compile_schedule(dag, optimize=True) is compile_schedule(dag)
        for value in (False, None, 1):
            with pytest.raises(TypeError, match=r"CompiledSchedule\(dag\)"):
                compile_schedule(dag, optimize=value)
        with pytest.raises(TypeError):
            compile_schedule(dag, True)  # keyword-only

    def test_untraced_lattice_sort_shares_the_batch_kernel(self, schedule_caches, rng):
        """A single-lattice sort compiles the same cached kernel that batch
        callers fetch: one miss, then a hit."""
        sorter = ProductNetworkSorter.for_factor(DEFAULT_MATRIX[0].build_factor(), 3)
        sorter.sort_sequence(rng.integers(0, 100, size=sorter.network.num_nodes))
        compile_schedule(sorter.schedule())
        stats = cache_stats()["compiled-kernels"]
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_rejects_wrong_width(self):
        dag = _emit(DEFAULT_MATRIX[0])
        with pytest.raises(ValueError, match="keys per row"):
            compile_schedule(dag).run(np.zeros(dag.num_nodes + 1))

    @pytest.mark.parametrize("certified", [False, True], ids=["emitted", "optimized"])
    def test_nan_keys_raise_and_signed_specials_sort_like_replay(self, certified, rng):
        """NaN is unordered: min/max would spread it and drop a real key, so
        the kernel refuses it; ±inf and -0.0 are ordered and sort as replay."""
        from repro.observability.kernelprof import KernelProfiler

        dag = _emit(next(c for c in DEFAULT_MATRIX if c.key == "path-n3-r3-lattice"))
        kernel = _kernel(dag, certified)
        row = rng.random(dag.num_nodes)
        row[4] = np.nan
        batch = rng.random((8, dag.num_nodes))
        batch[3, 7] = np.nan
        for state in (row, batch):
            with pytest.raises(ValueError, match="NaN"):
                kernel.run(state)
            with pytest.raises(ValueError, match="NaN"):
                KernelProfiler().run(kernel, state)
        specials = np.concatenate(
            [[np.inf, -np.inf, -0.0, 0.0, -0.0], rng.normal(size=dag.num_nodes - 5)]
        )
        batch = np.stack([rng.permutation(specials) for _ in range(16)])
        out = kernel.run(batch)
        assert np.array_equal(out, replay(dag, batch))
        assert np.array_equal(out, _snake_sorted(dag, batch))
        assert np.array_equal(kernel.run(batch[0]), replay(dag, batch[0]))


class TestEmission:
    def test_emission_is_keyless_and_cached(self):
        cell = DEFAULT_MATRIX[0]
        assert _emit(cell) is _emit(cell)

    def test_machine_emission_cached_per_cell(self):
        cell = next(c for c in DEFAULT_MATRIX if c.backend == "machine")
        sorter = MachineSorter.for_factor(cell.build_factor(), cell.r)
        assert sorter.schedule() is sorter.schedule()
        assert MachineSorter.for_factor(cell.build_factor(), cell.r).schedule() is sorter.schedule()
        assert sorter.schedule().meta.get("emitted") is True

    def test_two_labellings_of_one_factor_keep_their_own_machine_schedules(self, rng):
        """Relabelled copies share a name but route differently: the machine
        emission cache keys on the factor graph itself, not on its name."""
        from repro.graphs import path_graph
        from repro.orders import lattice_to_sequence

        first = path_graph(4).relabel([2, 0, 3, 1])
        second = path_graph(4).relabel([0, 1, 2, 3])
        assert first.name == second.name
        keys = rng.integers(0, 1000, size=64)
        for factor in (first, second):
            sorter = MachineSorter.for_factor(factor, 3)
            machine, ledger = sorter.sort(keys)
            assert np.array_equal(lattice_to_sequence(machine.lattice()), np.sort(keys))
            assert ledger.total_rounds == sorter.schedule().depth
        assert (
            MachineSorter.for_factor(first, 3).schedule().schedule_hash()
            != MachineSorter.for_factor(second, 3).schedule().schedule_hash()
        )

    def test_unnamed_sorters_keep_their_own_machine_schedules(self, schedule_caches, rng):
        """Two executable sorters without a ``name`` of their own both read
        ``"executable"``: the machine emission cache must tell them apart by
        what they do, or one reports the other's rounds."""
        from repro.graphs import path_graph
        from repro.sorters2d import ExecutableTwoDimSorter, OddEvenSnakeSorter, ShearSorter

        def unnamed(inner):
            class Wrapper(ExecutableTwoDimSorter):
                def sort_batch(self, machine, views, descending):
                    return inner.sort_batch(machine, views, descending)

            return Wrapper()

        keys = rng.integers(0, 1000, size=64)
        for inner in (OddEvenSnakeSorter(), ShearSorter()):
            expected = MachineSorter.for_factor(path_graph(4), 3, inner).schedule()
            sorter = MachineSorter.for_factor(path_graph(4), 3, unnamed(inner))
            assert sorter.sorter.name == "executable"
            assert sorter.schedule().schedule_hash() == expected.schedule_hash()
            _, ledger = sorter.sort(keys)
            assert ledger.total_rounds == expected.depth

    def test_emitted_hashes_reproduce_the_blessed_seed(self):
        """The byte-identity acceptance criterion: fresh emissions equal the
        hashes pinned in BENCH_seed.json on every canonical cell."""
        with open(os.path.join(REPO_ROOT, "BENCH_seed.json")) as fh:
            pinned = {c["cell"]: c["schedule_hash"] for c in json.load(fh)["cells"]}
        for cell in DEFAULT_MATRIX:
            assert _emit(cell).schedule_hash() == pinned[cell.key], cell.key

    @pytest.mark.parametrize(
        "family,n,r,backend,pinned",
        [
            ("k2", 2, 12, "lattice",
             "0b49ccf9dc14b9ed895ea0b4d951c4f7bc1e96032b5aa46d57d9e56c4e96dd85"),
            ("path", 3, 4, "lattice",
             "3bd5fe48c871497c2a60aad5059759158a058112bea009dc900181edb594e822"),
            ("path", 3, 4, "machine",
             "2a15e77a5f1d9f7d49390382b9a2a76e93e918274a3f1486d4dfbe5bafdb1865"),
        ],
        ids=["k2-n2-r12-lattice", "path-n3-r4-lattice", "path-n3-r4-machine"],
    )
    def test_emitted_hashes_beyond_the_matrix(self, family, n, r, backend, pinned):
        """Cells outside the seed matrix keep their hashes too (the
        16-cube's is pinned in ``test_integration_large``)."""
        from repro.observability.benchreg import WorkloadCell

        assert _emit(WorkloadCell(family, n, r, backend)).schedule_hash() == pinned

    def test_traced_sort_equals_untraced(self, rng):
        """The traced interpreter and the compiled kernel give one output
        and one ledger."""
        sorter = ProductNetworkSorter.for_factor(DEFAULT_MATRIX[0].build_factor(), 3)
        keys = rng.integers(0, 100, size=sorter.network.num_nodes)
        traced = sorter.sort_sequence(keys, tracer=Tracer())
        untraced = sorter.sort_sequence(keys)
        assert np.array_equal(traced.lattice, untraced.lattice)
        assert traced.ledger.records == untraced.ledger.records


class TestRoundFormat:
    """A round is index arrays: int32, read-only, one block group per width."""

    @staticmethod
    def _round():
        from repro.schedule import ScheduleRound

        # width-4, width-2 and width-4 groups: the two width-4 groups merge
        blocks = (([[4, 5, 7, 6]], [False]), ([[8, 9]], True), ([[10, 11, 13, 12]], [True]))
        return ScheduleRound(0, 0, 1, lo=[0, 2], hi=[1, 3], blocks=blocks)

    def test_arrays_are_int32_read_only_and_grouped_by_width(self):
        rd = self._round()
        assert rd.lo.dtype == rd.hi.dtype == np.int32 and not rd.lo.flags.writeable
        assert [(nodes.shape, desc.tolist()) for nodes, desc in rd.blocks] == [
            ((2, 4), [False, True]),
            ((1, 2), [True]),
        ]
        # block sorts are numbered across the groups in order
        assert [rd.block_sort(i)[0].tolist() for i in range(3)] == [
            [4, 5, 7, 6], [10, 11, 13, 12], [8, 9]
        ]
        assert rd.disjoint and rd.op_count == 5

    def test_without_drops_the_numbered_ops(self):
        rd = self._round().without(comparators=[0], block_sorts=[1])
        assert rd.lo.tolist() == [2] and rd.hi.tolist() == [3]
        assert [nodes.tolist() for nodes, _ in rd.blocks] == [[[4, 5, 7, 6]], [[8, 9]]]

    def test_malformed_rounds_are_refused_and_races_are_seen(self):
        import dataclasses

        from repro.schedule import ScheduleRound

        with pytest.raises(ValueError):
            ScheduleRound(0, 0, 1, lo=[0], hi=[])
        with pytest.raises(ValueError):
            ScheduleRound(0, 0, 1, blocks=(([[0, 1]], [True, False]),))
        raced = ScheduleRound(0, 0, 1, lo=[0, 1], hi=[1, 2], blocks=(([[4, 5, 7, 6]], [False]),))
        assert not raced.disjoint
        # a renumbered or thinned round derives ``disjoint`` from its arrays
        assert not dataclasses.replace(raced, index=3).disjoint
        assert not raced.without(block_sorts=[0]).disjoint
        assert raced.without(comparators=[1]).disjoint

    def test_a_dag_numbers_its_rounds_by_position(self):
        """A round's index is not hashed, so a misnumbered DAG is refused when
        it is built rather than hashing like the right one."""
        import dataclasses

        dag = _mixed_dag([(((0, 1),), ()), (((2, 3),), ())])
        first, second = dag.rounds
        for rounds in (
            (first, dataclasses.replace(second, index=0)),
            (dataclasses.replace(first, index=1), dataclasses.replace(second, index=0)),
            (first, dataclasses.replace(second, phase=2)),
            (first, dataclasses.replace(second, phase=-1)),
        ):
            with pytest.raises(ValueError, match="round 1|round 0"):
                dataclasses.replace(dag, rounds=rounds)
        assert dataclasses.replace(dag, rounds=dag.rounds).schedule_hash() == dag.schedule_hash()


def _mixed_dag(rounds_ops) -> ComparatorDAG:
    """A hand-built 16-node DAG, one round (and phase) per entry."""
    from repro.schedule import SchedulePhase, ScheduleRound

    phases = tuple(
        SchedulePhase(index=i, path=("sort", f"p{i}"), kind="s2", dim=None, charged_rounds=1)
        for i in range(len(rounds_ops))
    )
    rounds = tuple(
        ScheduleRound(
            i, i, 1, [lo for lo, _ in comps], [hi for _, hi in comps],
            tuple(([nodes], [descending]) for nodes, descending in blocks),
        )
        for i, (comps, blocks) in enumerate(rounds_ops)
    )
    return ComparatorDAG(backend="lattice", factor="synthetic", n=4, r=2,
                         num_nodes=16, phases=phases, rounds=rounds)


#: batch sizes for the lowering property: the smallest batches, both sides
#: of the network threshold for a 4-block slab, and the benchmark's 256
LOWERING_BATCHES = (1, 2, NETWORK_MIN_LANES // 4 - 1, NETWORK_MIN_LANES // 4, 256)


class TestLowering:
    """The node-major/row-major lowering of :class:`CompiledSchedule` against
    the reference replay: on layers mixing every kind of operation, and on
    every canonical kernel, raw and optimized, in both slab forms."""

    @staticmethod
    def _dag() -> ComparatorDAG:
        first = (
            # comparators, one with lo > hi
            ((10, 11), (13, 12)),
            # width-4 rows (one descending) and a width-2 descending row;
            # nodes 14 and 15 stay untouched
            (((3, 0, 2, 1), False), ((7, 5, 4, 6), True), ((9, 8), True)),
        )
        # a second layer reads the first layer's layout
        second = (((14, 3),), (((15, 0, 8, 12), True),))
        return _mixed_dag([first, second])

    def test_one_layer_mixes_every_operation(self):
        kernel = CompiledSchedule(self._dag())
        assert kernel.num_layers == 2
        first = kernel.layers[0]
        assert first.lo.size == 2
        assert sorted(mat.shape[1] for mat, _ in first.block_groups) == [2, 4]
        assert len(kernel.steps) == kernel.num_layers

    @pytest.mark.parametrize("certified", [False, True])
    def test_every_permutation_is_a_bijection(self, certified):
        """Every gather and the final restore permute the nodes: on the mixed
        layers above and on an emitted cell, raw or optimized."""
        cell = next(c for c in DEFAULT_MATRIX if c.key == "path-n3-r3-machine")
        for kernel in (CompiledSchedule(self._dag()), _kernel(_emit(cell), certified)):
            for perm in [step.perm for step in kernel.steps] + [kernel.final_perm]:
                assert np.array_equal(np.sort(perm), np.arange(kernel.num_nodes))

    @pytest.mark.parametrize(
        "keys",
        [
            np.arange(16)[::-1].copy(),
            np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1] * 4),
            np.array([np.iinfo(np.uint64).max, 0, 2**63, 2**63 - 1] * 4, dtype=np.uint64),
            np.array([-np.inf, np.inf, -0.0, 0.5, 1e308, -1e-308, 3.0, 2.0] * 2),
        ],
        ids=["1d", "int64-extremes", "uint64", "float64"],
    )
    def test_matches_replay_and_preserves_the_input(self, keys, rng):
        """Three rows sort every slab; 256 rows run the width-2 and width-4
        slabs as networks (see ``test_mixed_layers_take_both_forms``).  The
        emitted path-n3-r3 kernels, whose first gather is a copy, run on the
        same values; read-only, strided and Fortran-ordered inputs are
        neither written nor aliased."""
        emitted = _emit(next(c for c in DEFAULT_MATRIX if c.key == "path-n3-r3-lattice"))
        kernels = (CompiledSchedule(self._dag()), _kernel(emitted, False), _kernel(emitted, True))
        for kernel in kernels:
            row = np.resize(keys, kernel.num_nodes)
            batch = np.stack([row, row[::-1], row[rng.permutation(row.size)]])
            wide = np.stack([row[rng.permutation(row.size)] for _ in range(256)])
            read_only = wide.view()
            read_only.flags.writeable = False
            strided = np.repeat(batch, 2, axis=1)[:, ::2]
            for state in (row, batch, wide, read_only, strided, np.asfortranarray(wide)):
                before = state.copy()
                out = kernel.run(state)
                assert out.dtype == state.dtype and out.shape == state.shape
                assert np.array_equal(out, replay(kernel.dag, state))
                assert np.array_equal(state, before)
                assert out.flags.c_contiguous and out.flags.writeable
                assert not np.shares_memory(out, state)

    @pytest.mark.parametrize("certified", [False, True], ids=["raw", "optimized"])
    @pytest.mark.parametrize(
        "cell",
        [c for c in DEFAULT_MATRIX if c.backend == "lattice"],
        ids=[c.key for c in DEFAULT_MATRIX if c.backend == "lattice"],
    )
    def test_first_lattice_gather_is_a_copy(self, cell, certified):
        """The initial PG_2 blocks are contiguous node ranges, so a row-major
        first layer read in source order gathers the identity and runs as a
        copy.  k2-n2-r4's width-4 blocks are node-major: its first gather
        also transposes the input, so it cannot be a copy."""
        first = _kernel(_emit(cell), certified).steps[0]
        assert first.node_major == (cell.family == "k2")
        assert first.copies == (not first.node_major)
        if first.copies:
            assert np.array_equal(first.perm, np.arange(first.perm.size))

    @pytest.mark.parametrize("certified", [False, True], ids=["raw", "optimized"])
    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    def test_row_major_slabs_gather_in_source_order(self, cell, certified):
        """Each block of a row-major sort slab reads its keys in the order
        they sit in the previous layout: a sort ignores the order its keys
        arrive in.  The layout after the sort is still the blocks' output
        order, which ``test_kernel_matches_replay`` checks."""
        kernel = _kernel(_emit(cell), certified)
        for step in kernel.steps:
            if not step.node_major:
                for start, stop, width in step.slabs:
                    rows = step.perm[start:stop].reshape(-1, width)
                    assert (np.diff(rows, axis=1) > 0).all()

    def test_a_layer_engaging_a_node_twice_is_refused(self):
        """The row-major gathers skip NumPy's per-element bounds check, so
        the lowering checks once that every layout permutes the nodes: a
        block naming a node twice is refused, in a layer that leaves nodes
        untouched and in one that engages them all."""
        whole = (0, *range(15))  # 16 keys, node 0 twice, node 15 missing
        for block in ((0, 1, 1, 2), whole):
            with pytest.raises(ValueError, match="layer 0 engages a node twice"):
                CompiledSchedule(_mixed_dag([((), ((block, False),))]))

    def test_mixed_layers_take_both_forms(self):
        kernel = CompiledSchedule(self._dag())
        assert [step.layout for step in kernel.steps] == ["node-major", "node-major"]
        assert [step.forms(3) for step in kernel.steps] == [("sort", "sort"), ("sort",)]
        assert [step.forms(256) for step in kernel.steps] == [
            ("network", "network"),
            ("network",),
        ]

    def test_empty_batch(self):
        kernel = CompiledSchedule(self._dag())
        out = kernel.run(np.empty((0, 16), dtype=np.int64))
        assert out.shape == (0, 16) and out.dtype == np.int64

    def test_zero_layer_kernel_returns_a_copy(self):
        kernel = CompiledSchedule(_mixed_dag([((), ())]))
        assert kernel.num_layers == 0
        keys = np.arange(16)
        out = kernel.run(keys)
        assert np.array_equal(out, keys) and not np.shares_memory(out, keys)

    @pytest.mark.parametrize("certified", [False, True], ids=["raw", "optimized"])
    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    @given(
        batch=st.sampled_from(LOWERING_BATCHES),
        dtype=st.sampled_from(ORDERED_DTYPES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_kernel_matches_replay(self, cell, certified, batch, dtype, seed):
        dag = _emit(cell)
        kernel = _kernel(dag, certified)
        keys = dtype_keys(dtype, (batch, dag.num_nodes), np.random.default_rng(seed))
        out = kernel.run(keys)
        assert out.dtype == keys.dtype and out.shape == keys.shape
        # == on floats: the sign of a zero is not preserved
        assert np.array_equal(out, replay(dag, keys))
        assert np.array_equal(out, _snake_sorted(dag, keys))

    @pytest.mark.parametrize(
        "key, layouts, forms_1, forms_256",
        [
            (
                "k2-n2-r4-lattice",
                ["node-major"] * 6,
                [("sort",)] * 6,
                [("network",)] * 6,
            ),
            (
                "path-n4-r3-lattice",
                ["row-major"] * 4,
                [("sort",)] * 4,
                [("sort",)] * 4,
            ),
        ],
        ids=["k2-n2-r4", "path-n4-r3"],
    )
    def test_forms_are_pinned(self, key, layouts, forms_1, forms_256, monkeypatch):
        """The optimized kernels' layouts and slab forms at batch 1 and 256,
        and that ``compute`` really runs the networks it reports."""
        import repro.schedule.compiled as compiled

        dag = _emit(next(c for c in DEFAULT_MATRIX if c.key == key))
        kernel = compile_schedule(dag)
        assert [step.layout for step in kernel.steps] == layouts
        assert [step.forms(1) for step in kernel.steps] == forms_1
        assert [step.forms(256) for step in kernel.steps] == forms_256
        stages = []
        real = compiled._exchange

        def spy(lo, hi):
            stages.append(lo.shape[0])
            real(lo, hi)

        monkeypatch.setattr(compiled, "_exchange", spy)
        for batch, forms in ((1, forms_1), (256, forms_256)):
            stages.clear()
            keys = np.random.default_rng(batch).integers(0, 99, size=(batch, dag.num_nodes))
            assert np.array_equal(kernel.run(keys), _snake_sorted(dag, keys))
            networks = sum(form == "network" for step in forms for form in step)
            comparator_layers = sum(
                step.comparators[1] > step.comparators[0] for step in kernel.steps
            )
            # a width-4 network runs in three stages, each one exchange
            assert len(stages) == 3 * networks + comparator_layers


class TestKeyDomain:
    """Only totally ordered keys reach the kernel: NaN, NaT, complex,
    object, string and masked keys raise :class:`KeyDomainError` on every
    kernel, in both slab forms."""

    @staticmethod
    def _unordered(num_nodes: int, batch: int, rng: np.random.Generator):
        times = rng.integers(0, 10**9, size=(batch, num_nodes)).astype("datetime64[s]")
        times[-1, 3] = np.datetime64("NaT")
        spans = times - np.datetime64(0, "s")
        complex_keys = rng.normal(size=(batch, num_nodes)) + 0j
        complex_keys[-1, 5] = complex(np.nan, 0.0)
        floats = rng.normal(size=(batch, num_nodes))
        floats[-1, 2] = np.nan
        objects = rng.integers(0, 9, size=(batch, num_nodes)).astype(object)
        strings = rng.integers(0, 9, size=(batch, num_nodes)).astype(str)
        ints = rng.integers(0, 9, size=(batch, num_nodes))
        masked = np.ma.masked_array(ints, mask=np.arange(ints.size).reshape(ints.shape) % 5 == 1)
        return {
            "NaT": (times, "datetime64"),
            "timedelta": (spans, "timedelta64"),
            "complex NaN": (complex_keys, "complex128"),
            "NaN": (floats, "NaN"),
            "object": (objects, "object"),
            "str": (strings, "<U"),
            "masked": (masked, "masked"),
        }

    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("certified", [False, True], ids=["raw", "optimized"])
    @pytest.mark.parametrize("key", ["path-n3-r3-lattice", "k2-n2-r4-lattice"])
    def test_unordered_keys_raise_a_typed_error(self, key, certified, batch, rng):
        from repro.observability.kernelprof import KernelProfiler
        from repro.schedule import KeyDomainError

        dag = _emit(next(c for c in DEFAULT_MATRIX if c.key == key))
        kernel = _kernel(dag, certified)
        for name, (keys, words) in self._unordered(dag.num_nodes, batch, rng).items():
            for state in (keys, keys[-1]):
                with pytest.raises(KeyDomainError, match=words) as excinfo:
                    kernel.run(state)
                assert excinfo.value.cell == kernel.cell, name
                with pytest.raises(KeyDomainError, match=words):
                    KernelProfiler().run(kernel, state)

    def test_a_masked_array_without_masked_keys_sorts_like_its_data(self, rng):
        dag = _emit(next(c for c in DEFAULT_MATRIX if c.key == "path-n3-r3-lattice"))
        kernel = _kernel(dag, True)
        keys = rng.integers(0, 9, size=(4, dag.num_nodes))
        out = kernel.run(np.ma.masked_array(keys, mask=False))
        assert type(out) is np.ndarray and np.array_equal(out, _snake_sorted(dag, keys))

    def test_the_allowlist(self):
        from repro.schedule import KeyDomainError, check_keys

        for dtype in ("bool", "int8", "int64", "uint8", "uint64", "float16", "float64"):
            check_keys(np.array([0, 1, 1], dtype=dtype), "c")
        check_keys(np.array([-np.inf, np.inf, -0.0]), "c")
        for bad in (
            np.array(["a"]),
            np.array([b"a"]),
            np.array([1 + 0j]),
            np.array([1], dtype="datetime64[s]"),
            np.array([1], dtype="timedelta64[s]"),
            np.array([1], dtype=object),
            np.zeros(1, dtype=[("a", "i8")]),
        ):
            with pytest.raises(KeyDomainError, match="only bool, integer and NaN-free float"):
                check_keys(bad, "c")
        assert issubclass(KeyDomainError, ValueError)
