"""Certified optimizer: passes, certificates, translation validation.

The headline Hypothesis property (the issue's satellite): for every
canonical benchreg cell, replaying the *optimized* schedule equals the
snake-order ground truth — and the original's replay — on random,
duplicate-heavy and adversarial batches.  The rest pins the certificate
contents, the fault harness, the fallback semantics and the
:func:`compile_schedule` integration.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schedule.optimize as optimize
from repro.graphs import ProductGraph, path_graph
from repro.observability.benchreg import DEFAULT_MATRIX
from repro.schedule import (
    PASS_NAMES,
    ComparatorDAG,
    CompiledSchedule,
    analyze_zero_one_activity,
    compile_schedule,
    eliminate_dead_ops,
    lemma1_windows,
    optimize_schedule,
    repack_rounds,
    replay,
    snake_order_nodes,
)
from repro.staticcheck import (
    OPTIMIZER_FAULTS,
    TranslationValidation,
    adversarial_key_sets,
    emit_schedule,
    run_optimizer_fault_harness,
    validate_translation,
    verify_dag,
)

CELL_IDS = [c.key for c in DEFAULT_MATRIX]


def _emit(cell):
    return emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)


def _snake_sorted(dag, keys: np.ndarray) -> np.ndarray:
    expected = np.empty_like(keys)
    expected[..., snake_order_nodes(dag.n, dag.r)] = np.sort(keys, axis=-1)
    return expected


class TestOptimizedReplayProperty:
    """optimize(dag) is observationally equal to dag on every batch kind."""

    @pytest.mark.parametrize("cell", DEFAULT_MATRIX, ids=CELL_IDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_optimized_replay_matches_ground_truth(self, cell, data):
        dag = _emit(cell)
        result = optimize_schedule(dag)  # memoised across examples
        assert result.ok and not result.fell_back
        kind = data.draw(
            st.sampled_from(["random", "duplicate-heavy", "adversarial"])
        )
        if kind == "random":
            keys = np.asarray(
                data.draw(
                    st.lists(
                        st.integers(-(2**31), 2**31 - 1),
                        min_size=dag.num_nodes,
                        max_size=dag.num_nodes,
                    )
                )
            )
        elif kind == "duplicate-heavy":
            keys = np.asarray(
                data.draw(
                    st.lists(
                        st.integers(0, max(1, dag.num_nodes // 4)),
                        min_size=dag.num_nodes,
                        max_size=dag.num_nodes,
                    )
                )
            )
        else:
            sets = dict(adversarial_key_sets(dag.num_nodes, seed=0))
            keys = np.asarray(sets[data.draw(st.sampled_from(sorted(sets)))])
        out = replay(result.optimized, keys)
        assert np.array_equal(out, _snake_sorted(dag, keys))
        assert np.array_equal(out, replay(dag, keys))


class TestCertificates:
    def test_every_cell_optimizes_with_passing_certificates(self):
        for cell in DEFAULT_MATRIX:
            result = optimize_schedule(_emit(cell))
            assert not result.fell_back, cell.key
            assert tuple(c.pass_name for c in result.certificates) == PASS_NAMES
            assert all(c.ok for c in result.certificates), cell.key
            assert result.validation is not None and result.validation.ok, cell.key

    def test_acceptance_cell_removes_ops_and_layers(self):
        # k2-n2-r3-machine: the merge stages are re-sorts of already-sorted
        # 4-node blocks — 48 of its 54 comparators are dead or agglomerated
        dag = emit_schedule(path_graph(2), 3, backend="machine")
        result = optimize_schedule(dag)
        assert result.comparators_removed > 0
        assert len(result.optimized.rounds) < len(result.original.rounds)
        before = CompiledSchedule(dag)
        after = compile_schedule(dag)
        assert after.num_layers < before.num_layers
        # paper-accounted depth (charged rounds) is deliberately preserved
        assert result.optimized.depth == result.original.depth

    def test_dead_op_pass_requires_certified_analysis(self):
        dag = emit_schedule(path_graph(3), 3, backend="machine")
        activity = analyze_zero_one_activity(dag)
        assert activity.certified and activity.mode == "factored"
        optimized, cert = eliminate_dead_ops(dag)
        assert cert.ok
        assert cert.comparators_removed == len(activity.dead_comparators)

    def test_repack_preserves_per_node_sequences_and_charges(self):
        dag = emit_schedule(path_graph(2), 4, backend="machine")
        packed, cert = repack_rounds(dag)
        assert cert.ok
        assert packed.depth == dag.depth
        assert len(packed.rounds) <= len(dag.rounds)
        report = verify_dag(packed, lints=("races", "zero-one", "depth"))
        assert report.ok


class TestLemma1Windows:
    """The windows pass on its own: where it fires, that each chain runs
    lo-block -> hi-block, and that the kernels it feeds sort every key kind."""

    WINDOWED = [c for c in DEFAULT_MATRIX if c.backend == "lattice" and c.n > 2 and c.r == 3]

    @staticmethod
    def _unsorted_rows(dag, original, keys):
        out = replay(dag, keys)[:, snake_order_nodes(original.n, original.r)]
        return (out[:, 1:] < out[:, :-1]).any(axis=1)

    @staticmethod
    def _rows(num_nodes):
        rng = np.random.default_rng(7)
        return np.concatenate(
            [
                rng.integers(-(2**31), 2**31, size=(1000, num_nodes)),
                rng.integers(0, 2, size=(1000, num_nodes)),
            ]
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_r4_cells_sort_along_the_transposition_chains(self, n):
        """Beyond the certified cells: every clean-up is rewritten and 1,000
        random and 1,000 0-1 rows come out sorted."""
        dag = emit_schedule(path_graph(n), 4, backend="lattice")
        windowed, cert = lemma1_windows(dag)
        cleanups = [p for p in dag.phases if p.leaf == "block-sorts"]
        assert cert.ok and cert.stats["cleanups"] == len(cleanups) == 3
        assert windowed.comparator_count == 0 and windowed.depth == dag.depth
        assert not self._unsorted_rows(windowed, dag, self._rows(dag.num_nodes)).any()

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_row_order_pairing_does_not_sort(self, n, monkeypatch):
        """At r = 4 a clean-up lists its blocks in label order: pairing the
        rows as listed, not along the chains, leaves random rows unsorted."""
        real = optimize._block_chains

        def row_order(sorts, transpositions, num_nodes):
            chains = real(sorts, transpositions, num_nodes)
            return np.arange(chains.size).reshape(chains.shape)

        monkeypatch.setattr(optimize, "_block_chains", row_order)
        dag = emit_schedule(path_graph(n), 4, backend="lattice")
        windowed, _ = lemma1_windows(dag)
        assert self._unsorted_rows(windowed, dag, self._rows(dag.num_nodes)).any()

    @pytest.mark.parametrize(
        "cell",
        [c for c in DEFAULT_MATRIX if c.n == 2 or c.backend == "machine"],
        ids=[c.key for c in DEFAULT_MATRIX if c.n == 2 or c.backend == "machine"],
    )
    def test_network_widths_and_machine_dags_are_left_alone(self, cell):
        dag = _emit(cell)
        out, cert = lemma1_windows(dag)
        assert out is dag and cert.ok and cert.stats == {"cleanups": 0}
        assert (cert.comparators_removed, cert.block_sorts_removed, cert.super_ops_added) == (0,) * 3

    @pytest.mark.parametrize("cell", WINDOWED, ids=[c.key for c in WINDOWED])
    def test_the_served_kernel_runs_the_windows(self, cell):
        """Only the networkless result holds windows; the network-legal one
        and its links verdict are those of the three-pass pipeline."""
        dag = _emit(cell)
        kernel = compile_schedule(dag)
        width = 2 * dag.n * dag.n
        assert kernel.certified
        assert any(nodes.shape[1] == width for nodes, _ in kernel.layers[-1].block_groups)
        network = ProductGraph(cell.build_factor(), cell.r)
        legal = optimize_schedule(dag, network=network)
        assert legal.ok and [c.pass_name for c in legal.certificates] == list(PASS_NAMES[1:])
        assert all(
            nodes.shape[1] < width for rd in legal.optimized.rounds for nodes, _ in rd.blocks
        )
        assert kernel.num_layers == CompiledSchedule(legal.optimized).num_layers - 1

    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("cell", WINDOWED, ids=[c.key for c in WINDOWED])
    def test_windowed_kernels_match_replay_on_every_key_kind(self, cell, batch):
        dag = _emit(cell)
        kernel = compile_schedule(dag)
        rng = np.random.default_rng(batch)
        shape = (batch, dag.num_nodes)
        floats = rng.choice(np.array([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf]), size=shape)
        kinds = {
            "duplicate-heavy": rng.integers(0, 3, size=shape),
            "presorted": np.sort(rng.integers(-99, 99, size=shape), axis=1),
            "reversed": np.sort(rng.integers(-99, 99, size=shape), axis=1)[:, ::-1],
            "inf and signed zeros": floats,
        }
        for kind, keys in kinds.items():
            out = kernel.run(keys)
            # == on floats: the sign of a zero is not preserved
            assert np.array_equal(out, replay(dag, keys)), kind
            assert np.array_equal(out, _snake_sorted(dag, keys)), kind


class TestTranslationValidator:
    def test_fault_harness_catches_every_seeded_fault(self):
        outcomes = run_optimizer_fault_harness(path_graph(3), 3, backend="machine")
        # no window to split in a machine schedule
        assert [(oc.target, oc.fault) for oc in outcomes] == [
            (target, fault.name)
            for target in ("network", "kernel")
            for fault in OPTIMIZER_FAULTS
            if fault.name != "split_window"
        ]
        for outcome in outcomes:
            assert outcome.caught, outcome.describe()
            assert outcome.validation.exit_code == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_split_window_is_caught_in_the_served_kernel(self, n):
        outcomes = run_optimizer_fault_harness(path_graph(n), 3, backend="lattice")
        assert [(oc.target, oc.fault) for oc in outcomes] == [
            (target, fault.name)
            for target in ("network", "kernel")
            for fault in OPTIMIZER_FAULTS
            if (target, fault.name) != ("network", "split_window")
        ]
        for outcome in outcomes:
            assert outcome.caught, outcome.describe()
        split = outcomes[-1]
        assert split.fault == "split_window" and "oblivious-replay" in split.failed_checks

    def test_validator_accepts_the_identity_translation(self):
        dag = emit_schedule(path_graph(3), 2, backend="lattice")
        validation = validate_translation(dag, dag)
        assert validation.ok and validation.exit_code == 0
        assert validation.original_hash == validation.optimized_hash

    def test_the_battery_replays_once_per_dag(self, monkeypatch):
        """Two replay calls per validation, and each key set's verdict is what
        replaying that set alone gives — on the sound rewrite and on two
        truncations of it that sort only some key sets."""
        import repro.staticcheck.validate as validate

        dag = emit_schedule(path_graph(3), 3, backend="machine")
        optimized = optimize_schedule(dag).optimized
        snake = snake_order_nodes(dag.n, dag.r)
        real = validate.replay
        calls = []

        def counting(schedule, keys):
            calls.append(schedule)
            return real(schedule, keys)

        monkeypatch.setattr(validate, "replay", counting)
        verdicts = []
        truncated = (optimized.rounds[:-1], ())
        for candidate in [optimized] + [
            dataclasses.replace(optimized, rounds=rounds) for rounds in truncated
        ]:
            calls.clear()
            validation = validate_translation(dag, candidate)
            assert len(calls) == 2 and calls[0] is candidate and calls[1] is dag
            for name, keys in validate._replay_battery(dag.num_nodes, 0).items():
                keys = keys.astype(np.int64)
                expected = np.empty_like(keys)
                expected[snake] = np.sort(keys)
                out = real(candidate, keys)
                alone = np.array_equal(out, expected) and np.array_equal(out, real(dag, keys))
                assert validation.replay_matches[name] is alone, name
            verdicts.append(set(validation.replay_matches.values()))
        assert verdicts[0] == {True} and {True, False} in verdicts

    def test_failed_validation_falls_back(self, schedule_caches, monkeypatch):
        dag = emit_schedule(path_graph(2), 2, backend="machine")

        def broken_validator(original, optimized, **kwargs):
            return TranslationValidation(
                original_hash=original.schedule_hash(),
                optimized_hash=optimized.schedule_hash(),
                checks={"zero-one": False},
                report=None,
                replay_matches={},
            )

        monkeypatch.setattr(
            "repro.staticcheck.validate.validate_translation", broken_validator
        )
        result = optimize_schedule(dag)
        assert result.fell_back
        assert result.optimized is result.original
        assert result.validation is not None and result.validation.exit_code == 1
        # the compiled path serves the (correct) unoptimized kernel
        kernel = compile_schedule(dag)
        assert not kernel.certified and kernel.dag is dag
        assert kernel.schedule_hash == kernel.source_hash == dag.schedule_hash()


class TestCompiledIntegration:
    def test_optimized_kernel_carries_both_hashes(self, schedule_caches):
        dag = emit_schedule(path_graph(2), 3, backend="machine")
        kernel = compile_schedule(dag)
        assert kernel.certified and kernel.source is dag
        assert kernel.source_hash == dag.schedule_hash()
        assert kernel.schedule_hash == optimize_schedule(dag).optimized_hash
        assert kernel.schedule_hash != kernel.source_hash

    def test_kernel_cache_keys_on_the_source_hash(self, schedule_caches):
        dag = emit_schedule(path_graph(3), 2, backend="lattice")
        kernel = compile_schedule(dag)
        # a byte-identical schedule, however it was built, shares the kernel
        twin = dataclasses.replace(dag, meta={})
        assert twin is not dag and compile_schedule(twin) is kernel
        assert CompiledSchedule(dag) is not kernel

    def test_each_dag_is_hashed_once(self, schedule_caches, monkeypatch):
        """compile_schedule -> optimize -> validate builds the canonical form
        of the emitted and of the optimized DAG once each, and the memoised
        hashes are the canonical ones."""
        counts: Counter[int] = Counter()
        canonical = ComparatorDAG.canonical

        def spy(self):
            counts[id(self)] += 1
            return canonical(self)

        monkeypatch.setattr(ComparatorDAG, "canonical", spy)
        dag = emit_schedule(path_graph(3), 3, backend="machine")
        kernel = compile_schedule(dag)
        assert kernel.certified and kernel.dag is not dag
        assert counts[id(dag)] == 1 and counts[id(kernel.dag)] == 1
        assert set(counts.values()) == {1}
        result = optimize_schedule(dag)
        assert result.validation is not None
        assert result.validation.original_hash == kernel.source_hash
        assert result.validation.optimized_hash == kernel.schedule_hash
        monkeypatch.undo()
        for memoised in (dag, kernel.dag):
            fresh = dataclasses.replace(memoised)
            assert memoised.schedule_hash() == fresh.schedule_hash()

    def test_optimizer_results_are_memoised(self, schedule_caches):
        dag = emit_schedule(path_graph(3), 2, backend="lattice")
        assert optimize_schedule(dag) is optimize_schedule(dag)


class TestActivityAnalysis:
    def test_exhaustive_mode_on_small_dags(self):
        dag = emit_schedule(path_graph(2), 3, backend="machine")
        activity = analyze_zero_one_activity(dag)
        assert activity.certified and activity.mode == "exhaustive"
        assert activity.states == 2**dag.num_nodes

    def test_uncertified_analysis_reports_no_dead_ops(self):
        # r=2 rules out the factored prefix/suffix scheme, so an artificially
        # tiny exhaustive budget leaves the analysis unverifiable
        dag = emit_schedule(path_graph(3), 2, backend="lattice")
        activity = analyze_zero_one_activity(dag, max_exhaustive_nodes=4)
        assert not activity.certified and activity.mode == "unverifiable"
        assert not activity.dead_comparators and not activity.dead_block_sorts
        _, cert = eliminate_dead_ops(dag, max_exhaustive_nodes=4)
        assert not cert.ok  # refusing to optimize without a proof

    def test_dead_advisories_name_the_node_pair(self):
        dag = emit_schedule(path_graph(2), 3, backend="machine")
        report = verify_dag(dag, lints=("zero-one",))
        advisories = [
            f.message
            for f in report.results["zero-one"].findings
            if f.advisory and f.message.startswith("dead comparator:")
        ]
        assert advisories
        # each advisory names the comparator's node pair, e.g. "(0, 2)"
        assert all("(" in msg and "," in msg for msg in advisories)
