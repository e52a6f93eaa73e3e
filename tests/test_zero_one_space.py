"""Packed node-major 0-1 simulation: the applier, the shared space builder,
and the optimizer output that rests on them.

``apply_zero_one_round`` is checked round by round against the reference
``replay`` semantics on random packed 0-1 states (comparators, ascending
and descending block sorts, rounds with a race, and the block-local
``offset`` plus filter path), with every activity flag checked against its
definition: an op is live iff it changed some state.  The block-sort
network is checked exhaustively at every width it can meet, padding bits
are checked to stay 0, the zero-one lint's reported counterexamples are
replayed to confirm they really leave the snake unsorted, and the
optimizer's per-cell certificates and hashes are pinned.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import k2, path_graph
from repro.graphs.product import ProductGraph
from repro.observability.benchreg import DEFAULT_MATRIX
from repro.schedule import (
    ActivityTracker,
    ScheduleRound,
    analyze_zero_one_activity,
    apply_zero_one_round,
    cache_stats,
    clear_caches,
    eliminate_dead_ops,
    exhaustive_zero_one_states,
    optimize_schedule,
    replay,
    snake_order_nodes,
)
from repro.schedule.activity import (
    MAX_EXHAUSTIVE_NODES,
    MAX_STATES,
    _sort_blocks,
    pack,
    unpack,
    unsorted_columns,
    zero_one_space,
)
from repro.staticcheck import apply_mutant, emit_schedule, verify_dag
from repro.staticcheck.checker import run_check
from repro.staticcheck.lints import _checkpoint, lint_zero_one
from repro.staticcheck.mutants import OPTIMIZER_FAULTS
from repro.staticcheck.validate import validate_translation

CELL_IDS = [c.key for c in DEFAULT_MATRIX]


def _emit(cell):
    return emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)


def _dags():
    """Every canonical cell, emitted and optimized (the optimized DAGs carry
    the agglomerated, possibly descending, super-ops)."""
    out = []
    for cell in DEFAULT_MATRIX:
        dag = _emit(cell)
        out.append((f"{cell.key}/emitted", dag))
        out.append((f"{cell.key}/optimized", optimize_schedule(dag).optimized))
    return out


DAGS = _dags()


def _race(dag, rd: ScheduleRound) -> ScheduleRound:
    """The round with its first block sort booked twice (a race)."""
    nodes, descending = rd.blocks[0]
    return dataclasses.replace(rd, blocks=rd.blocks + ((nodes[:1], descending[:1]),))


#: DAGs whose rounds book a node twice: ``double_book`` duplicates a
#: comparator; a duplicated block sort overlaps its own nodes
RACY = [
    (f"{name}/double_book", apply_mutant(dag, "double_book"))
    for name, dag in DAGS
    if any(rd.comparator_count for rd in dag.rounds)
] + [
    (f"{name}/double_block", dataclasses.replace(
        dag, rounds=tuple(_race(dag, rd) if rd.blocks else rd for rd in dag.rounds)
    ))
    for name, dag in DAGS
    if any(rd.blocks for rd in dag.rounds)
]


def _replay_round(dag, rd: ScheduleRound, states: np.ndarray) -> np.ndarray:
    """Reference semantics for one round over node-major 0-1 states."""
    one_round = dataclasses.replace(dag, rounds=(dataclasses.replace(rd, index=0),))
    return replay(one_round, states.T).T


def _changed(before: np.ndarray, after: np.ndarray, nodes) -> bool:
    idx = np.asarray(nodes, dtype=np.intp)
    return bool((before[idx] != after[idx]).any())


def _pairs(rd: ScheduleRound) -> list[tuple[int, int]]:
    return list(zip(rd.lo.tolist(), rd.hi.tolist()))


def _block_rows(rd: ScheduleRound) -> list[tuple[np.ndarray, bool]]:
    return [rd.block_sort(i) for i in range(rd.block_sort_count)]


def _op_by_op(dag, rd: ScheduleRound, states: np.ndarray) -> tuple[list[bool], list[bool]]:
    """Reference activity: each op replayed alone, in op order, is live iff
    it changed the state it met."""
    live: tuple[list[bool], list[bool]] = ([], [])
    singles = [(0, ScheduleRound(rd.index, rd.phase, rd.charge, [lo], [hi]))
               for lo, hi in _pairs(rd)]
    singles += [(1, ScheduleRound(rd.index, rd.phase, rd.charge, blocks=(([nodes], [d]),)))
                for nodes, d in _block_rows(rd)]
    for kind, single in singles:
        after = _replay_round(dag, single, states)
        live[kind].append(bool((after != states).any()))
        states = after
    return live


class TestApplyZeroOneRound:
    def test_the_cells_cover_both_block_sort_directions(self):
        blocks = [blk for _, dag in DAGS for rd in dag.rounds for blk in _block_rows(rd)]
        assert any(descending for _, descending in blocks)
        assert any(not descending for _, descending in blocks)
        assert any(rd.comparator_count for _, dag in DAGS for rd in dag.rounds)

    def test_the_racy_dags_race(self):
        for name, dag in RACY:
            assert any(
                rd.touched_nodes().size > len(set(rd.touched_nodes().tolist()))
                for rd in dag.rounds
            ), name

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_replay_round_by_round(self, data):
        _, dag = data.draw(st.sampled_from(DAGS + RACY))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        columns = data.draw(st.integers(1, 200))
        bits = rng.integers(0, 2, size=(dag.num_nodes, columns), dtype=np.uint8)
        states = pack(bits)
        tracker = ActivityTracker(dag.rounds)
        for rd in dag.rounds:
            live_cmp, live_blk = _op_by_op(dag, rd, bits)
            bits = _replay_round(dag, rd, bits)
            apply_zero_one_round(states, rd, tracker)
            assert states.dtype == np.uint64
            assert np.array_equal(unpack(states, columns), bits)
            assert not unpack(states)[:, columns:].any()  # padding stays 0
            for i, live in enumerate(live_cmp):
                assert tracker.comparators[(rd.index, i)] == live
            for i, live in enumerate(live_blk):
                assert tracker.block_sorts[(rd.index, i)] == live

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_offset_and_filters_apply_one_block_locally(self, data):
        name, dag = data.draw(st.sampled_from([d for d in DAGS if d[1].r >= 3]))
        bs = dag.n * dag.n
        rd = data.draw(st.sampled_from(dag.rounds))
        block = data.draw(st.integers(0, dag.num_nodes // bs - 1))
        local = range(block * bs, (block + 1) * bs)
        cmp_all = {i for i, (lo, hi) in enumerate(_pairs(rd)) if lo in local and hi in local}
        blk_all = {
            i for i, (nodes, _) in enumerate(_block_rows(rd)) if set(nodes.tolist()) <= set(local)
        }
        cmp_filter = {i for i in sorted(cmp_all) if data.draw(st.booleans())}
        blk_filter = {i for i in sorted(blk_all) if data.draw(st.booleans())}
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        full = rng.integers(0, 2, size=(dag.num_nodes, 16), dtype=np.uint8)
        states = pack(full[block * bs : (block + 1) * bs])

        sub_round = rd.without(
            comparators=[i for i in range(rd.comparator_count) if i not in cmp_filter],
            block_sorts=[i for i in range(rd.block_sort_count) if i not in blk_filter],
        )
        after = _replay_round(dag, sub_round, full)
        tracker = ActivityTracker(dag.rounds)
        apply_zero_one_round(
            states, rd, tracker, offset=block * bs, cmp_filter=cmp_filter, blk_filter=blk_filter
        )
        assert np.array_equal(unpack(states, 16), after[block * bs : (block + 1) * bs]), name
        for i, pair in enumerate(_pairs(rd)):
            live = i in cmp_filter and _changed(full, after, pair)
            assert tracker.comparators[(rd.index, i)] == live
        for i, (nodes, _) in enumerate(_block_rows(rd)):
            live = i in blk_filter and _changed(full, after, nodes)
            assert tracker.block_sorts[(rd.index, i)] == live

    def test_exhaustive_states_are_node_major_bits(self):
        five_nodes = dataclasses.replace(DAGS[0][1], num_nodes=5, rounds=())
        space = zero_one_space(five_nodes, ActivityTracker(()))
        assert space.mode == "exhaustive" and space.columns == 32
        states = space.states
        assert states.shape == (5, 1) and states.dtype == np.uint64
        bits = unpack(states)
        assert bits.shape == (5, 64) and not bits[:, space.columns :].any()
        for col in range(space.columns):
            assert bits[:, col].tolist() == [(col >> k) & 1 for k in range(5)]

    @pytest.mark.parametrize("num_nodes", range(0, 11))
    def test_exhaustive_states_of_every_size(self, num_nodes):
        columns = 1 << num_nodes
        bits = unpack(exhaustive_zero_one_states(num_nodes))
        assert bits.shape == (num_nodes, max(64, columns)) and not bits[:, columns:].any()
        index = np.arange(columns)
        for k in range(num_nodes):
            assert np.array_equal(bits[k, :columns], (index >> k) & 1)


class TestPackedEngine:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_round_trips(self, data):
        rows = data.draw(st.integers(0, 5))
        columns = data.draw(st.integers(0, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = rng.integers(0, 2, size=(rows, columns), dtype=np.uint8)
        states = pack(bits)
        assert states.dtype == np.uint64 and states.shape == (rows, -(-columns // 64))
        assert np.array_equal(unpack(states, columns), bits)
        assert not unpack(states)[:, columns:].any()
        assert np.array_equal(pack(unpack(states)), states)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_the_block_network_sorts_every_0_1_input(self, width):
        """All ``2**width`` inputs of a block of each width 1-16 (the nine
        canonical cells sort blocks of 4, 9 and 16), in both directions and
        stacked with a second block."""
        states = exhaustive_zero_one_states(width)
        before = unpack(states, 1 << width)
        ones = before.sum(axis=0)
        expected = (np.arange(width)[::-1, None] < ones).astype(np.uint8)
        changed = _sort_blocks(states, np.arange(width)[None, :])
        assert changed.tolist() == [width > 1]
        assert np.array_equal(unpack(states, 1 << width), expected)
        assert not unpack(states)[:, 1 << width :].any()
        # descending (the reversed order) next to a second, ascending copy
        stacked = np.concatenate([exhaustive_zero_one_states(width)] * 2)
        positions = np.stack([np.arange(width)[::-1], width + np.arange(width)])
        assert _sort_blocks(stacked, positions).tolist() == [width > 1] * 2
        assert np.array_equal(unpack(stacked[:width], 1 << width), expected[::-1])
        assert np.array_equal(unpack(stacked[width:], 1 << width), expected)
        assert not _sort_blocks(stacked, positions).any()

    @pytest.mark.parametrize(
        "cell, columns", [("path-n3-r3-lattice", 1000), ("k2-n2-r2-machine", 16)]
    )
    def test_padding_columns_are_never_reported(self, cell, columns):
        """``S`` is not a multiple of 64: the padding bits stay 0 through
        every op, and no padding column is live, unsorted or a
        counterexample."""
        (spec,) = [c for c in DEFAULT_MATRIX if c.key == cell]
        dag = _emit(spec)
        space = zero_one_space(dag, ActivityTracker(dag.rounds))
        assert space.columns == columns and space.columns % 64
        snake = snake_order_nodes(dag.n, dag.r)
        states = space.states
        assert not unpack(states)[:, columns:].any()
        for rd in space.rounds:
            apply_zero_one_round(states, rd, None)
            assert not unpack(states)[:, columns:].any()
            dirty, doomed, _ = _checkpoint(states, snake, 0)
            assert doomed < columns and (doomed >= 0) == (dirty > 0)
        assert not unpack(unsorted_columns(states, snake))[columns:].any()
        # a space whose real columns are all sorted reports nothing at all
        tracker = ActivityTracker(dag.rounds)
        sorted_space = np.zeros_like(states)
        for rd in dag.rounds:
            apply_zero_one_round(sorted_space, rd, tracker)
        assert not tracker.comparators and not tracker.block_sorts
        assert _checkpoint(sorted_space, snake, 0) == (0, -1, 0)
        assert not unsorted_columns(sorted_space, snake).any()


class TestZeroOneSpace:
    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    def test_lint_and_analysis_share_one_space(self, cell):
        dag = _emit(cell)
        lint = lint_zero_one(dag)
        activity = analyze_zero_one_activity(dag)
        assert lint.stats["mode"] == activity.mode
        assert lint.stats["states"] == activity.states
        assert lint.stats.get("prefix_block_states") == activity.stats.get("prefix_block_states")

    def test_factored_columns_start_from_unravelled_zero_counts(self):
        dag = emit_schedule(path_graph(3), 3, backend="lattice")
        space = zero_one_space(dag, ActivityTracker(dag.rounds))
        assert space.mode == "factored" and space.states is not None
        assert space.columns == 10**3 and space.states.shape == (27, 16)
        bits = unpack(space.states)
        assert not bits[:, space.columns :].any()
        snake2 = snake_order_nodes(3, 2)
        for col in (0, 1, 357, 999):
            state = np.asarray(space.input_of(col))
            assert np.array_equal(state, bits[:, col])
            zeros = np.unravel_index(col, space.count_shape)
            for b, z in enumerate(zeros):
                block = state[b * 9 : (b + 1) * 9][snake2]
                assert block.tolist() == [0] * z + [1] * (9 - z)

    def test_refusals_keep_both_wordings(self):
        dag = emit_schedule(path_graph(4), 3, backend="lattice")
        lint = lint_zero_one(dag, max_states=1000)
        activity = analyze_zero_one_activity(dag, max_states=1000)
        reason = "suffix state space (N^2+1)^blocks = 83521 exceeds the certification budget 1000"
        assert activity.mode == "unverifiable" and activity.reason == reason
        assert [f.message for f in lint.findings] == [f"{reason} — unverifiable"]
        # the prefix passed before the budget refused the suffix
        assert lint.stats["mode"] == "factored"
        assert lint.stats["prefix_block_states"] == 4 * 2**16
        assert "states" not in lint.stats

    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    def test_a_lattice_prefix_is_live_without_block_simulation(self, cell, monkeypatch):
        """A prefix that is one ascending snake-order sort per block is
        recorded live outright; any other prefix is still simulated."""
        import repro.schedule.activity as activity

        widths = []
        real = activity.exhaustive_zero_one_states

        def spy(num_nodes):
            widths.append(num_nodes)
            return real(num_nodes)

        monkeypatch.setattr(activity, "exhaustive_zero_one_states", spy)
        dag = _emit(cell)
        tracker = ActivityTracker(dag.rounds)
        space = zero_one_space(dag, tracker)
        if space.mode != "factored":
            return
        bs = dag.n * dag.n
        assert space.prefix_block_states == 2**bs * (dag.num_nodes // bs)
        prefix = [
            (rd.index, i)
            for rd in dag.rounds
            if dag.phases[rd.phase].leaf == "initial-block-sorts"
            for i in range(rd.block_sort_count)
        ]
        assert all(tracker.block_sorts[key] for key in prefix)
        assert (bs in widths) == (cell.backend != "lattice")

    def test_an_over_budget_lattice_cell_refuses_without_states(self, monkeypatch):
        """path-n5-r3 used to simulate all 2**25 inputs of each 25-node block
        (about 5 GB) before the budget refused it."""
        import repro.schedule.activity as activity

        def refuse(num_nodes):
            raise AssertionError(f"allocated the 2**{num_nodes} block space")

        monkeypatch.setattr(activity, "exhaustive_zero_one_states", refuse)
        dag = emit_schedule(path_graph(5), 3, backend="lattice")
        lint = lint_zero_one(dag)
        activity_result = analyze_zero_one_activity(dag)
        reason = (
            "suffix state space (N^2+1)^blocks = 11881376 exceeds the certification "
            "budget 700000"
        )
        assert activity_result.mode == "unverifiable" and activity_result.reason == reason
        assert [f.message for f in lint.findings] == [f"{reason} — unverifiable"]
        assert lint.stats["prefix_block_states"] == 5 * 2**25
        result = optimize_schedule(dag)
        assert result.fell_back and result.optimized is dag

    def test_both_budgets_refuse_before_any_state_is_allocated(self, monkeypatch):
        """A path-n5-r3 machine DAG has 25-node comparator-network prefix
        blocks: simulating one would allocate 2**25 states per copy.  The
        suffix budget refuses it first; a budget that admits the suffix
        still refuses the prefix — neither allocates a state."""
        import repro.schedule.activity as activity

        def refuse(num_nodes):
            raise AssertionError(f"allocated the 2**{num_nodes} block space")

        monkeypatch.setattr(activity, "exhaustive_zero_one_states", refuse)
        dag = emit_schedule(path_graph(5), 3, backend="machine")
        suffix = analyze_zero_one_activity(dag)
        assert suffix.reason == (
            "suffix state space (N^2+1)^blocks = 11881376 exceeds the certification "
            "budget 700000"
        )
        prefix = analyze_zero_one_activity(dag, max_states=26**5)
        assert prefix.reason == (
            "prefix state space 2^(N^2) = 33554432 per PG_2 block exceeds the "
            f"certification budget {26**5}"
        )
        lint = lint_zero_one(dag, max_states=26**5)
        assert [f.message for f in lint.findings] == [f"{prefix.reason} — unverifiable"]
        assert lint.stats["prefix_block_states"] == 5 * 2**25

    def test_an_over_budget_machine_cell_refuses_fast_and_small(self):
        """The same refusal through the real allocator and the optimizer:
        under 0.1 s and a few MB, where it once allocated about 0.84 GB per
        copy of the prefix space."""
        import time
        import tracemalloc

        dag = emit_schedule(path_graph(5), 3, backend="machine")
        dag.schedule_hash()
        t0 = time.perf_counter()
        activity_result = analyze_zero_one_activity(dag)
        elapsed = time.perf_counter() - t0
        assert not activity_result.certified and elapsed < 0.1
        tracemalloc.start()
        try:
            analyze_zero_one_activity(dag)
            result = optimize_schedule(dag)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.fell_back and result.optimized is dag
        assert peak < 8 * 2**20


class TestBudgetsAndReach:
    def test_the_budgets_are_defined_once(self):
        for fn in (
            zero_one_space,
            analyze_zero_one_activity,
            lint_zero_one,
            verify_dag,
            validate_translation,
            eliminate_dead_ops,
        ):
            params = inspect.signature(fn).parameters
            assert params["max_exhaustive_nodes"].default is MAX_EXHAUSTIVE_NODES, fn
            assert params["max_states"].default is MAX_STATES, fn
        assert (MAX_EXHAUSTIVE_NODES, MAX_STATES) == (16, 700_000)

    def test_k2_r5_certifies_in_a_few_megabytes(self):
        """The 5-cube: 390,625 factored states, packed 64 to a word."""
        dag = emit_schedule(k2(), 5, backend="lattice")
        dag.schedule_hash()
        tracemalloc.start()
        try:
            activity = analyze_zero_one_activity(dag)
            _, analysis_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            lint = lint_zero_one(dag)
            _, lint_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (activity.mode, activity.states, activity.certified) == ("factored", 390_625, True)
        assert (len(activity.dead_comparators), len(activity.dead_block_sorts)) == (124, 48)
        assert lint.ok and lint.stats["states"] == 390_625
        assert lint.stats["dead_comparators"] == 124
        assert lint.stats["redundant_block_sorts"] == 48
        assert lint.stats["lemma1_max_dirty"] == 3
        assert analysis_peak <= 10 * 2**20 and lint_peak <= 20 * 2**20



class TestOptimizerReuse:
    def test_check_optimizes_each_cell_once(self, schedule_caches):
        """``run_check(compiled=True)`` optimizes each cell once with the
        network (the network-legal result) and once without (the served
        kernel); the lattice backend's kernel and the fault harness reuse
        them, and neither result depends on which was built first."""
        first = run_check(compiled=True)
        assert cache_stats()["optimized-schedules"]["misses"] == 2 * len(DEFAULT_MATRIX) == 18
        assert all(check.compiled_certified for check in first.cells)
        clear_caches()
        optimize_schedule(_emit(DEFAULT_MATRIX[0]))  # reused by the compiled check
        second = run_check(compiled=True)
        assert cache_stats()["optimized-schedules"]["misses"] == 18
        assert json.dumps(first.to_json()) == json.dumps(second.to_json())

    def test_an_unsound_result_with_a_network_is_not_reused(
        self, schedule_caches, monkeypatch
    ):
        import repro.staticcheck.validate as validate

        real = validate.validate_translation

        def links_fail(original, optimized, network=None, **kwargs):
            result = real(original, optimized, network=network, **kwargs)
            if network is not None:
                result.checks["links"] = False
            return result

        monkeypatch.setattr(validate, "validate_translation", links_fail)
        cell = DEFAULT_MATRIX[0]
        dag = _emit(cell)
        wide = optimize_schedule(dag, network=ProductGraph(cell.build_factor(), cell.r))
        assert wide.fell_back
        narrow = optimize_schedule(dag)
        assert narrow is not wide and narrow.ok


_INPUT = re.compile(r"0-1 input (\[[01, ]*\])")


def _failing_schedules():
    out = []
    for cell in DEFAULT_MATRIX:
        dag = _emit(cell)
        for name in ("drop_cleanup_sort", "swap_direction"):
            try:
                out.append((f"{cell.key}/{name}", apply_mutant(dag, name)))
            except ValueError:
                pass
        optimized = optimize_schedule(dag).optimized
        fault = next(f for f in OPTIMIZER_FAULTS if f.name == "delete_live_comparator")
        out.append((f"{cell.key}/{fault.name}", fault.apply(optimized)))
        # only the initial block sorts and the final clean-up: doomed at the
        # clean-up's Lemma-1 checkpoint
        cleanups = [p for p in dag.phases if p.leaf == "block-sorts" and p.merge_depth == 1]
        if cleanups:
            keep = [
                rd
                for rd in dag.rounds
                if rd.phase == cleanups[-1].index
                or dag.phases[rd.phase].leaf == "initial-block-sorts"
            ]
            rounds = tuple(dataclasses.replace(rd, index=i) for i, rd in enumerate(keep))
            out.append((f"{cell.key}/only-final-cleanup", dataclasses.replace(dag, rounds=rounds)))
    return out


FAILING = _failing_schedules()


class TestReportedCounterexamples:
    @pytest.mark.parametrize("dag", [pytest.param(dag, id=name) for name, dag in FAILING])
    def test_reported_input_really_stays_unsorted(self, dag):
        result = lint_zero_one(dag)
        reported = [f.message for f in result.findings if _INPUT.search(f.message)]
        # a mutant the zero-one lint passes (others catch it) reports nothing
        assert bool(reported) == (not result.ok)
        for message in reported:
            keys = np.asarray(json.loads(_INPUT.search(message).group(1)), dtype=np.int8)
            assert keys.shape == (dag.num_nodes,)
            out = replay(dag, keys)[snake_order_nodes(dag.n, dag.r)]
            assert (out[:-1] > out[1:]).any(), message

    def test_every_counterexample_kind_is_exercised(self):
        modes, messages = set(), []
        for _, dag in FAILING:
            result = lint_zero_one(dag)
            if not result.ok:
                modes.add(result.stats["mode"])
                messages += [f.message for f in result.findings]
        assert modes == {"exhaustive", "factored"}
        assert any("leaves the snake sequence unsorted" in m for m in messages)
        assert any("is unsortable at round" in m for m in messages)


#: per cell: every certificate's (pass, mode, states, comparators removed,
#: block sorts removed), agglomeration's (locally proved, deferred) chains,
#: and the optimized schedule hash
PINNED = {
    "path-n3-r2-lattice": (
        (
            ("lemma1-windows", None, None, 0, 0),
            ("dead-op-elimination", "exhaustive", 512, 0, 0),
            ("agglomeration", None, None, 0, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (0, 0),
        "6394cee95cf0b905077a69d22dcc59c42d94038d31fa2dea1d1cca7aca842084",
    ),
    "path-n3-r3-lattice": (
        (
            ("lemma1-windows", None, None, 18, 6),
            ("dead-op-elimination", "factored", 1000, 0, 0),
            ("agglomeration", None, None, 0, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (0, 0),
        "e9112815b0f25f62fad4d047fb6ad10086af74e787f2cb4411a0d369cc9ccc8d",
    ),
    "path-n4-r3-lattice": (
        (
            ("lemma1-windows", None, None, 48, 8),
            ("dead-op-elimination", "factored", 83521, 0, 0),
            ("agglomeration", None, None, 0, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (0, 0),
        "69a6b0e5658a839a2844cbc4bf402e8c713400893c29f9e674965fb7f5a52d52",
    ),
    "cycle-n4-r3-lattice": (
        (
            ("lemma1-windows", None, None, 48, 8),
            ("dead-op-elimination", "factored", 83521, 0, 0),
            ("agglomeration", None, None, 0, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (0, 0),
        "4e75ca82ba856988c60dc34370a5b6ddca00210ca618ae186dd1b03bcbb32bc5",
    ),
    "k2-n2-r4-lattice": (
        (
            ("lemma1-windows", None, None, 0, 0),
            ("dead-op-elimination", "exhaustive", 65536, 28, 12),
            ("agglomeration", None, None, 0, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (0, 0),
        "ac40df18d66924ce41770ff2ae3243203a0348039f18fd2912fabf8ee437ed03",
    ),
    "k2-n2-r2-machine": (
        (
            ("lemma1-windows", None, None, 0, 0),
            ("dead-op-elimination", "exhaustive", 16, 0, 0),
            ("agglomeration", None, None, 6, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (1, 0),
        "962e07f9ed558de90c9de9af7d8c9c993937a545aaa7a9f0274eb79bc84819a0",
    ),
    "k2-n2-r3-machine": (
        (
            ("lemma1-windows", None, None, 0, 0),
            ("dead-op-elimination", "exhaustive", 256, 26, 0),
            ("agglomeration", None, None, 22, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (2, 2),
        "8df3331e7b5c7843cd37c657a7932873ba095e4857eba4f7d422293833b5e46f",
    ),
    "k2-n2-r4-machine": (
        (
            ("lemma1-windows", None, None, 0, 0),
            ("dead-op-elimination", "exhaustive", 65536, 154, 0),
            ("agglomeration", None, None, 70, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (4, 10),
        "46246146ae4b51957463a5ee011a822b98a19a11314fe8db3796105ed9be7838",
    ),
    "path-n3-r3-machine": (
        (
            ("lemma1-windows", None, None, 0, 0),
            ("dead-op-elimination", "factored", 1000, 318, 0),
            ("agglomeration", None, None, 198, 0),
            ("depth-repacking", None, None, 0, 0),
        ),
        (3, 4),
        "3e1f2d2a86fe592f1131f153f27ee1341b5dfc7050e142eddc1aa73cbb9fcefb",
    ),
}


#: the network-legal results ``repro check`` reports, where they differ from
#: PINNED: the cells the windows pass rewrites keep the three-pass hashes
NETWORK_LEGAL = {
    "path-n3-r3-lattice": "6109df1adff723295277166bd7b3df95731ece0b48d302e00dc55651ed331855",
    "path-n4-r3-lattice": "74446d96de641019aa03a7f6db2c8ea27f69b4ad060c98165418bf7059e842de",
    "cycle-n4-r3-lattice": "8d336185262288735c1fbca65eb8f280fdb59539f09defb91b59c51d8134d7d1",
}


class TestPinnedOptimizerOutput:
    def test_every_canonical_cell_is_pinned(self):
        assert sorted(PINNED) == sorted(CELL_IDS)

    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    def test_certificates_chains_and_hash(self, cell):
        result = optimize_schedule(_emit(cell))
        certificates = tuple(
            (
                c.pass_name,
                c.stats.get("mode"),
                c.stats.get("states"),
                c.comparators_removed,
                c.block_sorts_removed,
            )
            for c in result.certificates
        )
        agglomeration = next(c for c in result.certificates if c.pass_name == "agglomeration")
        chains = (agglomeration.stats["locally_proved"], agglomeration.stats["deferred"])
        assert (certificates, chains, result.optimized_hash) == PINNED[cell.key]

    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    def test_network_legal_hash(self, cell):
        network = ProductGraph(cell.build_factor(), cell.r)
        result = optimize_schedule(_emit(cell), network=network)
        assert result.ok and result.validation.checks["links"]
        assert result.optimized_hash == NETWORK_LEGAL.get(cell.key, PINNED[cell.key][2])
