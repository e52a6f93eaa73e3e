"""Tests for the serving layer: micro-batched service, front-end, loadgen.

Covers group-commit batching (the flusher takes whatever is queued, up
to ``max_batch``, and flushes with no timer), admission control and explicit backpressure under
overload (arrival rate > service rate, no deadlock), snake-order
correctness of every response, the ``repro_serve_*`` telemetry and
``kind="serve"`` span discipline, the HTTP front-end mounted on the
metrics server, the open-loop load generator, and the ``repro serve`` /
``repro loadgen`` CLI surface.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.observability.benchreg import DEFAULT_MATRIX
from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import default_serve_slos
from repro.observability.tracer import Tracer
from repro.schedule import (
    CompiledSchedule,
    KeyDomainError,
    compile_schedule,
    replay,
    snake_order_nodes,
)
from repro.serve import (
    ARRIVALS,
    MIXES,
    LoadScenario,
    Rejected,
    ServiceConfig,
    SortService,
    arrival_offsets,
    build_sort_server,
    default_scenarios,
    make_keys,
    run_loadgen,
)
from repro.staticcheck import emit_schedule
from tests._strategies import (
    ORDERED_DTYPES,
    UNORDERED_KINDS,
    dtype_keys,
    unordered_keys,
)

CELL = "path-n3-r3"
WIDTH = 27  # 3**3 nodes


def _expected(row: np.ndarray) -> np.ndarray:
    out = np.empty_like(row)
    out[snake_order_nodes(3, 3)] = np.sort(row)
    return out


def _run(coro):
    return asyncio.run(coro)


def _lattice_dag(cell: str):
    """The emitted lattice schedule a service cell such as ``path-n3-r3`` runs."""
    (spec,) = [c for c in DEFAULT_MATRIX if c.key == f"{cell}-lattice"]
    return emit_schedule(spec.build_factor(), spec.r, backend="lattice")


async def _served_kernel(service: SortService, cell: str = CELL):
    """Prewarm ``cell`` and let its tier-up run: the kernel its flushes call."""
    service.prewarm(cell)
    await asyncio.sleep(0)
    return service._get_queue(cell).kernel


class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_batch >= 1 and config.max_queue_depth >= 1
        assert config.to_json()["max_batch"] == config.max_batch

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_queue_depth": 0},
            {"deadline_ms": 0.0},
            {"flush_penalty_s": -0.1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestSortService:
    def test_single_request_sorts_to_snake_order(self, rng):
        async def scenario():
            async with SortService(ServiceConfig()) as service:
                keys = rng.integers(0, 1000, WIDTH)
                out = await service.submit(CELL, keys)
                assert np.array_equal(out, _expected(keys))

        _run(scenario())

    def test_optimized_service_serves_the_same_snake_order(self, rng):
        # the tier-up swaps in the certified kernel: fewer layers, same answers
        async def scenario():
            async with SortService(ServiceConfig()) as service:
                kernel = await _served_kernel(service)
                assert kernel.certified
                assert kernel.num_layers < CompiledSchedule(_lattice_dag(CELL)).num_layers
                keys = rng.integers(0, 1000, WIDTH)
                out = await service.submit(CELL, keys)
                assert np.array_equal(out, _expected(keys))

        _run(scenario())

    def test_full_batch_flushes_as_one_kernel_call(self, rng):
        """max_batch concurrent requests coalesce into exactly one flush."""
        registry = MetricsRegistry()
        config = ServiceConfig(max_batch=8)

        async def scenario():
            async with SortService(config, registry=registry) as service:
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(8)]
                outs = await asyncio.wait_for(
                    asyncio.gather(*(service.submit(CELL, row) for row in rows)),
                    timeout=5.0,
                )
                for row, out in zip(rows, outs):
                    assert np.array_equal(out, _expected(row))
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["batches"] == 1
        assert queue["completed"] == 8
        assert queue["mean_batch_occupancy"] == pytest.approx(1.0)

    def test_lone_request_flushes_without_a_timer(self, rng):
        """Group commit: a lone request is flushed as soon as the flusher
        runs, within a few event-loop turns and no clock."""

        async def scenario():
            async with SortService(ServiceConfig(max_batch=64)) as service:
                service.prewarm(CELL)
                task = asyncio.ensure_future(service.submit(CELL, rng.integers(0, 1000, WIDTH)))
                for _ in range(5):
                    if task.done():
                        break
                    await asyncio.sleep(0)
                assert task.done(), "a lone request waited for something other than the flusher"
                assert task.result().shape == (WIDTH,)
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["batches"] == 1
        assert queue["mean_batch_occupancy"] < 1.0

    def test_concurrent_submits_flush_in_max_batch_chunks(self, rng, monkeypatch):
        """20 requests queued at once flush as 8 + 8 + 4 with max_batch=8."""
        sizes = []
        rows = [rng.integers(0, 1000, WIDTH) for _ in range(20)]

        async def scenario():
            async with SortService(ServiceConfig(max_batch=8)) as service:
                kernel = await _served_kernel(service)
                run = kernel.run

                def counting_run(keys):
                    sizes.append(len(keys))
                    return run(keys)

                monkeypatch.setattr(kernel, "run", counting_run)
                return await asyncio.gather(*(service.submit(CELL, row) for row in rows))

        outs = _run(scenario())
        assert sizes == [8, 8, 4]
        for row, out in zip(rows, outs):
            assert np.array_equal(out, _expected(row))

    def test_requests_submitted_during_a_flush_join_the_next_one(self, rng, monkeypatch):
        """Whatever arrives while a flush runs is queued by the time the
        flusher wakes again, and goes out together as the next batch."""
        sizes = []
        late = [rng.integers(0, 1000, WIDTH) for _ in range(5)]
        pending = []

        async def scenario():
            async with SortService(ServiceConfig(max_batch=64)) as service:
                kernel = await _served_kernel(service)
                run = kernel.run

                def run_and_submit(keys):
                    if not sizes:  # first flush: requests arrive mid-flush
                        pending.extend(
                            asyncio.ensure_future(service.submit(CELL, row)) for row in late
                        )
                    sizes.append(len(keys))
                    return run(keys)

                monkeypatch.setattr(kernel, "run", run_and_submit)
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
                return await asyncio.gather(*pending)

        outs = _run(scenario())
        assert sizes == [1, 5]
        for row, out in zip(late, outs):
            assert np.array_equal(out, _expected(row))

    def test_backlog_from_a_blocked_loop_flushes_as_one_batch(self, rng):
        """Requests that queued up while the loop was blocked join one
        flush instead of each costing a one-row kernel call."""
        config = ServiceConfig(max_batch=64)

        async def scenario():
            async with SortService(config) as service:
                service.prewarm(CELL)
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(40)]
                pending = [asyncio.ensure_future(service.submit(CELL, row)) for row in rows]
                await asyncio.sleep(0)  # every submit enqueues, none flushes yet
                time.sleep(0.02)  # block the loop with the backlog queued
                outs = await asyncio.wait_for(asyncio.gather(*pending), timeout=5.0)
                for row, out in zip(rows, outs):
                    assert np.array_equal(out, _expected(row))
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["completed"] == 40
        assert queue["batches"] == 1

    def test_wrong_width_raises_value_error(self):
        async def scenario():
            async with SortService() as service:
                with pytest.raises(ValueError, match="27-key vectors"):
                    await service.submit(CELL, np.arange(5))

        _run(scenario())

    def test_unknown_cell_raises_value_error(self):
        async def scenario():
            async with SortService() as service:
                with pytest.raises(ValueError, match="unknown profile cell"):
                    await service.submit("moebius-n9-r9", np.arange(WIDTH))

        _run(scenario())

    def test_mixed_dtype_batch_mates_stay_exact(self, rng):
        """An int64 request beyond float64's exact range shares a flush with
        a float64 request: each comes back in its own dtype, exact."""
        big = 2**60 + rng.permutation(WIDTH)  # one float64 value for all 27
        floats = rng.random(WIDTH)

        async def scenario():
            async with SortService(ServiceConfig(max_batch=2)) as service:
                outs = await asyncio.gather(service.submit(CELL, big), service.submit(CELL, floats))
                return outs, service.queues_snapshot()

        (int_out, float_out), snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["batches"] == 1
        assert int_out.dtype == np.int64 and np.array_equal(int_out, _expected(big))
        assert float_out.dtype == np.float64 and np.array_equal(float_out, _expected(floats))

    def test_kernel_error_fails_only_its_dtype_group(self, rng, monkeypatch):
        """One kernel call per dtype group; a failing group does not take
        its batch-mates down with it."""
        ints = [rng.integers(0, 1000, WIDTH) for _ in range(2)]
        calls = []

        async def scenario():
            async with SortService(ServiceConfig(max_batch=3)) as service:
                kernel = await _served_kernel(service)
                run = kernel.run

                def run_ints_only(keys):
                    calls.append((keys.dtype, len(keys)))
                    if keys.dtype.kind == "f":
                        raise RuntimeError("float kernel failed")
                    return run(keys)

                monkeypatch.setattr(kernel, "run", run_ints_only)
                outs = await asyncio.gather(
                    service.submit(CELL, ints[0]),
                    service.submit(CELL, rng.random(WIDTH)),
                    service.submit(CELL, ints[1]),
                    return_exceptions=True,
                )
                return outs, service.queues_snapshot()

        (first, failed, second), snapshot = _run(scenario())
        assert calls == [(np.dtype(np.int64), 2), (np.dtype(np.float64), 1)]
        assert isinstance(failed, RuntimeError)
        assert np.array_equal(first, _expected(ints[0]))
        assert np.array_equal(second, _expected(ints[1]))
        (queue,) = snapshot.values()
        assert (queue["completed"], queue["errors"], queue["batches"]) == (2, 1, 1)

    def test_nan_keys_raise_value_error(self, rng):
        keys = rng.random(WIDTH)
        keys[5] = np.nan

        async def scenario():
            async with SortService() as service:
                with pytest.raises(ValueError, match="NaN"):
                    await service.submit(CELL, keys)
                return service.queues_snapshot()

        (queue,) = _run(scenario()).values()
        assert queue["depth"] == 0 and queue["completed"] == 0

    def test_keys_outside_the_key_domain_raise_a_typed_error(self, rng):
        """NaT, complex NaN, object, string and masked keys never reach a batch."""
        from repro.schedule import KeyDomainError

        times = rng.integers(0, 10**9, WIDTH).astype("datetime64[s]")
        times[4] = np.datetime64("NaT")
        complex_keys = rng.normal(size=WIDTH) + 0j
        complex_keys[2] = complex(np.nan, 0.0)
        unordered = [
            times,
            complex_keys,
            rng.integers(0, 9, WIDTH).astype(object),
            rng.integers(0, 9, WIDTH).astype(str),
        ]

        async def scenario():
            async with SortService() as service:
                for keys in unordered:
                    with pytest.raises(KeyDomainError, match="only bool, integer") as excinfo:
                        await service.submit(CELL, keys)
                    assert excinfo.value.cell == "path(3)-n3-r3"
                masked = np.ma.masked_array(np.arange(WIDTH), mask=np.arange(WIDTH) % 5 == 1)
                with pytest.raises(KeyDomainError, match="masked") as excinfo:
                    await service.submit(CELL, masked)
                assert excinfo.value.cell == "path(3)-n3-r3"
                out = await service.submit(CELL, rng.integers(0, 9, WIDTH).astype(bool))
                assert out.dtype == bool
                return service.queues_snapshot()

        (queue,) = _run(scenario()).values()
        assert queue["depth"] == 0 and queue["completed"] == 1

    def test_overload_sheds_explicitly_without_deadlock(self, rng):
        """Arrival rate >> service rate: excess requests get Rejected with a
        counted reason; admitted requests still complete; nothing hangs."""
        registry = MetricsRegistry()
        config = ServiceConfig(
            max_batch=4, max_queue_depth=6, flush_penalty_s=0.05
        )

        async def scenario():
            async with SortService(config, registry=registry) as service:
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(40)]
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.submit(CELL, row) for row in rows),
                        return_exceptions=True,
                    ),
                    timeout=10.0,
                )
                completed = [
                    (row, out)
                    for row, out in zip(rows, results)
                    if not isinstance(out, BaseException)
                ]
                rejected = [r for r in results if isinstance(r, Rejected)]
                unexpected = [
                    r
                    for r in results
                    if isinstance(r, BaseException) and not isinstance(r, Rejected)
                ]
                assert not unexpected
                assert rejected, "overload must shed"
                assert completed, "admitted requests must still complete"
                assert all(r.reason == "queue_full" for r in rejected)
                for row, out in completed:
                    assert np.array_equal(out, _expected(row))
                return len(rejected), service.queues_snapshot()

        shed, snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["rejected"] == shed
        assert queue["completed"] + queue["rejected"] == 40
        # rejections are visible on the exposition surface too
        text = registry.expose_text()
        assert 'repro_serve_rejections_total{cell="path(3)-n3-r3",reason="queue_full"}' in text

    def test_closed_service_rejects_with_shutting_down(self, rng):
        async def scenario():
            service = SortService()
            async with service:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
            with pytest.raises(Rejected) as excinfo:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
            assert excinfo.value.reason == "shutting_down"

        _run(scenario())

    def test_cell_name_aliases_share_one_queue(self, rng):
        async def scenario():
            async with SortService(ServiceConfig()) as service:
                await service.submit("path-n3-r3", rng.integers(0, 1000, WIDTH))
                await service.submit("path-n3-r3-lattice", rng.integers(0, 1000, WIDTH))
                assert service.cells == ("path(3)-n3-r3",)
                return service.queues_snapshot()

        snapshot = _run(scenario())
        assert snapshot["path(3)-n3-r3"]["completed"] == 2

    def test_deadline_misses_are_counted(self, rng):
        config = ServiceConfig(deadline_ms=0.001)

        async def scenario():
            async with SortService(config) as service:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))
                return service.queues_snapshot()

        snapshot = _run(scenario())
        assert snapshot["path(3)-n3-r3"]["deadline_misses"] == 1

    def test_serve_metrics_reach_the_exposition_surface(self, rng):
        registry = MetricsRegistry()

        async def scenario():
            async with SortService(ServiceConfig(), registry=registry) as service:
                await service.submit(CELL, rng.integers(0, 1000, WIDTH))

        _run(scenario())
        text = registry.expose_text()
        for name in (
            "repro_serve_queue_depth",
            "repro_serve_batch_occupancy",
            "repro_serve_request_seconds",
            "repro_serve_requests_total",
            "repro_serve_batches_total",
        ):
            assert name in text, name
        # latency quantiles derive from the histogram buckets
        hist = registry.histogram("repro_serve_request_seconds", "")
        assert hist.quantile(0.99, cell="path(3)-n3-r3") > 0

    def test_serve_spans_nest_and_carry_kind_serve(self, rng):
        tracer = Tracer()

        async def scenario():
            async with SortService(
                ServiceConfig(max_batch=4), tracer=tracer
            ) as service:
                rows = [rng.integers(0, 1000, WIDTH) for _ in range(6)]
                await asyncio.gather(*(service.submit(CELL, row) for row in rows))

        _run(scenario())  # out-of-order span closes would have raised
        flushes = [s for s in tracer.iter_spans() if s.name == "serve-flush"]
        kernels = [s for s in tracer.iter_spans() if s.name == "serve-kernel"]
        assert flushes and kernels
        assert all(s.kind == "serve" for s in flushes + kernels)
        # every kernel span is a child of a flush span (arrival -> flush ->
        # kernel is reconstructable from the tree + point events)
        flush_ids = {s.span_id for s in flushes}
        assert all(k.parent_id in flush_ids for k in kernels)
        assert sum(s.attrs["batch"] for s in flushes) == 6

    def test_queues_snapshot_is_json_safe_before_any_traffic(self):
        async def scenario():
            async with SortService() as service:
                service.prewarm(CELL)
                return service.queues_snapshot()

        snapshot = _run(scenario())
        (queue,) = snapshot.values()
        assert queue["p50_ms"] is None and queue["p99_ms"] is None
        json.dumps(snapshot)  # no NaN leaks


class TestTierUp:
    """Tier 0 answers at once from the raw kernel; one loop callback swaps
    in the certified kernel between flushes."""

    def test_prewarm_serves_raw_then_the_certified_kernel(self, schedule_caches):
        dag = _lattice_dag(CELL)

        async def scenario():
            async with SortService() as service:
                service.prewarm(CELL)
                queue = service._get_queue(CELL)
                raw = queue.kernel
                assert not raw.certified and raw.dag is dag
                assert service.queues_snapshot()[queue.key]["certified"] is False
                await asyncio.sleep(0)
                assert queue.kernel is compile_schedule(dag) and queue.kernel.certified
                assert queue.tier_up is None
                return service.queues_snapshot()[queue.key], raw

        snapshot, raw = _run(scenario())
        assert snapshot["certified"] is True
        assert snapshot["schedule_hash"] == compile_schedule(dag).schedule_hash
        assert snapshot["schedule_hash"] != raw.schedule_hash

    def test_responses_before_and_after_the_swap_equal_replay(self, rng):
        dag = _lattice_dag(CELL)
        rows = rng.integers(-(2**40), 2**40, size=(12, WIDTH))

        async def scenario():
            async with SortService(ServiceConfig(max_batch=4)) as service:
                service.prewarm(CELL)
                queue = service._get_queue(CELL)
                queue.tier_up.cancel()  # hold tier 0 while the first half is served
                before = await asyncio.gather(*(service.submit(CELL, r) for r in rows[:6]))
                assert not queue.kernel.certified
                service._tier_up(queue, dag)
                assert queue.kernel.certified
                after = await asyncio.gather(*(service.submit(CELL, r) for r in rows[6:]))
                return before + after

        outs = _run(scenario())
        assert np.array_equal(np.stack(outs), replay(dag, rows))

    def test_aclose_cancels_a_pending_tier_up(self, monkeypatch):
        import repro.schedule

        def never(dag):
            raise AssertionError("a closed service must not tier up")

        monkeypatch.setattr(repro.schedule, "compile_schedule", never)

        async def scenario():
            service = SortService()
            service.prewarm(CELL)
            queue = service._get_queue(CELL)
            handle = queue.tier_up
            await service.aclose()
            assert handle.cancelled()
            await asyncio.sleep(0)
            service._tier_up(queue, _lattice_dag(CELL))  # a late callback does nothing
            return queue.kernel

        assert not _run(scenario()).certified

    def test_failed_validation_keeps_the_raw_kernel(self, schedule_caches, monkeypatch, rng):
        from repro.staticcheck.validate import TranslationValidation

        def broken_validator(original, optimized, **kwargs):
            return TranslationValidation(
                original_hash=original.schedule_hash(),
                optimized_hash=optimized.schedule_hash(),
                checks={"zero-one": False},
                report=None,
                replay_matches={},
            )

        monkeypatch.setattr("repro.staticcheck.validate.validate_translation", broken_validator)
        tracer = Tracer()
        keys = rng.integers(0, 1000, WIDTH)

        async def scenario():
            async with SortService(tracer=tracer) as service:
                service.prewarm(CELL)
                raw = service._get_queue(CELL).kernel
                out = await service.submit(CELL, keys)
                return raw, service._get_queue(CELL).kernel, out, service.queues_snapshot()

        raw, served, out, snapshot = _run(scenario())
        assert served is raw and not served.certified
        assert np.array_equal(out, _expected(keys))
        (queue,) = snapshot.values()
        assert (queue["completed"], queue["errors"], queue["certified"]) == (1, 0, False)
        (span,) = tracer.find("serve-tier-up")
        assert span.attrs["fell_back"] is True
        assert span.attrs["schedule_hash"] == raw.schedule_hash

    def test_tier_up_span_reports_the_swap(self, schedule_caches):
        tracer = Tracer()

        async def scenario():
            async with SortService(tracer=tracer) as service:
                return await _served_kernel(service)

        kernel = _run(scenario())
        (span,) = tracer.find("serve-tier-up", kind="serve", cell="path(3)-n3-r3")
        assert span.attrs["fell_back"] is False
        assert span.attrs["schedule_hash"] == kernel.schedule_hash
        assert 0 < span.attrs["hash_s"] <= span.attrs["seconds"] <= span.duration


class TestLoadgenPrimitives:
    def test_poisson_offsets_are_increasing_at_the_requested_rate(self, rng):
        scenario = LoadScenario(rate=1000.0, requests=4000, arrivals="poisson")
        offsets = arrival_offsets(scenario, rng)
        assert offsets.shape == (4000,)
        assert np.all(np.diff(offsets) >= 0)
        # mean gap ~ 1/rate (law of large numbers, generous tolerance)
        assert np.mean(np.diff(offsets)) == pytest.approx(1e-3, rel=0.25)

    def test_burst_offsets_alternate_fast_and_slow_windows(self, rng):
        scenario = LoadScenario(
            rate=1000.0, requests=640, arrivals="burst", burst_factor=16.0, burst_len=32
        )
        offsets = arrival_offsets(scenario, rng)
        gaps = np.diff(np.concatenate([[0.0], offsets]))
        window = (np.arange(640) // 32) % 2
        quiet_mean = float(np.mean(gaps[window == 0]))
        burst_mean = float(np.mean(gaps[window == 1]))
        assert quiet_mean > 4 * burst_mean

    def test_every_mix_has_the_right_shape_and_character(self, rng):
        for mix in MIXES:
            keys = make_keys(mix, rng, 16, WIDTH)
            assert keys.shape == (16, WIDTH) and keys.dtype == np.int64
        presorted = make_keys("presorted", rng, 8, WIDTH)
        assert np.all(np.diff(presorted, axis=1) >= 0)
        adversarial = make_keys("adversarial", rng, 8, WIDTH)
        assert np.all(np.diff(adversarial, axis=1) <= 0)
        duplicates = make_keys("duplicates", rng, 8, WIDTH)
        assert len(np.unique(duplicates)) <= 4

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError, match="unknown key mix"):
            LoadScenario(mix="sorted-ish")
        with pytest.raises(ValueError, match="unknown arrival schedule"):
            LoadScenario(arrivals="thundering-herd")
        with pytest.raises(ValueError, match="rate"):
            LoadScenario(rate=0.0)

    def test_default_scenarios_cover_cells_mixes_and_arrivals(self):
        scenarios = default_scenarios()
        assert len(scenarios) >= 3
        assert len({s.cell for s in scenarios}) >= 2
        assert len({s.mix for s in scenarios}) >= 3
        assert {s.arrivals for s in scenarios} == set(ARRIVALS)
        assert len({s.key for s in scenarios}) == len(scenarios)


class TestRunLoadgen:
    def test_clean_run_completes_everything_verified(self):
        doc = run_loadgen(
            LoadScenario(requests=40, rate=4000.0, mix="duplicates"),
            config=ServiceConfig(max_batch=16),
        )
        counts = doc["counts"]
        assert counts == {
            "offered": 40, "completed": 40, "rejected": 0,
            "mismatches": 0, "errors": 0,
        }
        assert doc["latency_ms"]["p50"] > 0
        assert doc["completed_rps"] > 0
        assert doc["service"]["path(3)-n3-r3"]["completed"] == 40
        assert doc["config"]["max_batch"] == 16
        json.dumps(doc)

    def test_overload_run_records_shedding(self):
        doc = run_loadgen(
            LoadScenario(requests=60, rate=50_000.0, seed=3),
            config=ServiceConfig(
                max_batch=4, max_queue_depth=8, flush_penalty_s=0.02
            ),
        )
        counts = doc["counts"]
        assert counts["rejected"] > 0
        assert counts["completed"] + counts["rejected"] == 60
        assert counts["mismatches"] == 0 and counts["errors"] == 0

    def test_loadgen_feeds_a_shared_registry(self):
        registry = MetricsRegistry()
        run_loadgen(
            LoadScenario(requests=20, rate=4000.0),
            config=ServiceConfig(),
            registry=registry,
        )
        assert "repro_serve_batches_total" in registry.expose_text()


def _serve_in_thread(registry: MetricsRegistry, evaluator=None):
    """Start a SortService + HTTP front-end on an ephemeral port.

    Serves from a dedicated event-loop thread (like ``repro serve``) so the
    test body can speak plain blocking HTTP.  Returns ``(box, close)``.
    """
    import threading

    service_box: dict = {}
    started = threading.Event()
    stop: asyncio.Event | None = None

    async def amain():
        nonlocal stop
        stop = asyncio.Event()
        async with SortService(
            ServiceConfig(max_batch=8), registry=registry
        ) as service:
            loop = asyncio.get_running_loop()
            service.prewarm(CELL)
            server = build_sort_server(service, loop, evaluator=evaluator)
            server.start()
            service_box["service"] = service
            service_box["url"] = server.url("")
            service_box["loop"] = loop
            started.set()
            await stop.wait()
            server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(amain()), daemon=True)
    thread.start()
    assert started.wait(timeout=30.0), "server failed to start"

    def close() -> None:
        service_box["loop"].call_soon_threadsafe(stop.set)
        thread.join(timeout=10.0)

    return service_box, close


@pytest.fixture()
def live_server(rng):
    """A running SortService + HTTP front-end without SLOs."""
    box, close = _serve_in_thread(MetricsRegistry())
    yield box
    close()


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


class TestAlertsRoute:
    """``GET /alerts.json`` is mounted only with an SLO evaluator."""

    @pytest.fixture()
    def slo_server(self):
        from repro.observability.slo import SLOEvaluator, default_serve_slos
        from repro.observability.tsdb import TimeSeriesStore

        registry = MetricsRegistry()
        store = TimeSeriesStore(registry, interval_s=1.0, clock=lambda: 0.0)
        evaluator = SLOEvaluator(store, list(default_serve_slos(window_scale=0.05)))
        box, close = _serve_in_thread(registry, evaluator=evaluator)
        box["registry"], box["store"] = registry, store
        yield box
        close()

    def test_alerts_json_reevaluates_per_request(self, slo_server):
        status, body = _get(slo_server["url"] + "/alerts.json")
        assert status == 200
        doc = json.loads(body)
        assert [a["spec"]["name"] for a in doc["alerts"]] == [
            s.name for s in default_serve_slos()
        ]
        assert doc["current_severity"] == "ok" and doc["page_alerts"] == 0
        # every request sheds between two samples; nobody calls evaluate()
        # but the route itself, so the page proves it re-evaluates
        registry, store = slo_server["registry"], slo_server["store"]
        requests = registry.counter("repro_serve_requests_total")
        sheds = registry.counter("repro_serve_rejections_total")
        requests.inc(0, cell="c")
        sheds.inc(0, cell="c", reason="queue_full")
        store.tick(now=0.0)
        requests.inc(100, cell="c")
        sheds.inc(100, cell="c", reason="queue_full")
        store.tick(now=1.0)
        doc = json.loads(_get(slo_server["url"] + "/alerts.json")[1])
        avail = doc["alerts"][0]
        assert avail["spec"]["name"] == "serve-availability"
        assert avail["severity"] == "page" and doc["page_alerts"] == 1

    def test_alerts_404_without_an_evaluator(self, live_server):
        assert _get(live_server["url"] + "/alerts.json")[0] == 404

    @pytest.mark.parametrize("path", ["/dashboard", "/tsdb.json"])
    def test_retired_flight_recorder_routes_are_404(self, slo_server, path):
        assert _get(slo_server["url"] + path)[0] == 404


class TestHttpFrontend:
    def _post(self, url, doc, timeout=10.0):
        request = urllib.request.Request(
            url + "/sort",
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())

    def test_post_sort_round_trip(self, live_server, rng):
        keys = rng.integers(0, 1000, WIDTH)
        status, doc = self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        assert status == 200
        assert np.array_equal(np.asarray(doc["keys"]), _expected(keys))

    def test_bad_body_is_400(self, live_server):
        for payload in (b"not json", b'{"cell": "path-n3-r3"}'):
            request = urllib.request.Request(
                live_server["url"] + "/sort",
                data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400

    def _post_error(self, url, body):
        request = urllib.request.Request(url + "/sort", data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        return excinfo.value.code, json.loads(excinfo.value.read())["error"]

    def test_float_keys_are_400_not_truncated(self, live_server):
        keys = [1.7, 2.2] + list(range(WIDTH - 2))
        body = json.dumps({"cell": CELL, "keys": keys}).encode()
        code, error = self._post_error(live_server["url"], body)
        assert code == 400
        assert "integers" in error and "1.7" in error
        body = json.dumps({"cell": CELL, "keys": [True] + list(range(WIDTH - 1))}).encode()
        assert self._post_error(live_server["url"], body)[0] == 400

    def test_keys_outside_the_key_domain_are_a_typed_400(self, live_server):
        for bad in ('"7"', "NaN", "1.5", "true", str(2**63)):
            body = f'{{"cell": "{CELL}", "keys": [{bad}' + ", 0" * (WIDTH - 1) + "]}"
            request = urllib.request.Request(
                live_server["url"] + "/sort", data=body.encode(), method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
            doc = json.loads(excinfo.value.read())
            assert doc["reason"] == "key_domain" and doc["cell"] == CELL, bad
        status, _ = self._post(live_server["url"], {"cell": CELL, "keys": list(range(WIDTH))})
        assert status == 200

    def test_key_outside_int64_is_400_not_500(self, live_server):
        keys = [2**63] + list(range(WIDTH - 1))
        body = json.dumps({"cell": CELL, "keys": keys}).encode()
        code, error = self._post_error(live_server["url"], body)
        assert code == 400
        assert "outside int64" in error and str(2**63) in error

    def test_wrong_width_is_400_with_the_service_message(self, live_server):
        request = urllib.request.Request(
            live_server["url"] + "/sort",
            data=json.dumps({"cell": CELL, "keys": [1, 2, 3]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert "27-key vectors" in json.loads(excinfo.value.read())["error"]

    def test_queues_json_reports_health(self, live_server, rng):
        keys = rng.integers(0, 1000, WIDTH)
        self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        with urllib.request.urlopen(live_server["url"] + "/queues.json", timeout=10.0) as resp:
            queues = json.loads(resp.read())
        queue = queues["path(3)-n3-r3"]
        assert queue["completed"] >= 1
        assert queue["depth"] == 0

    def test_metrics_exposes_serve_instruments(self, live_server, rng):
        keys = rng.integers(0, 1000, WIDTH)
        self._post(live_server["url"], {"cell": CELL, "keys": keys.tolist()})
        with urllib.request.urlopen(live_server["url"] + "/metrics", timeout=10.0) as resp:
            text = resp.read().decode()
        assert "repro_serve_batch_occupancy_bucket" in text
        assert "repro_serve_queue_depth" in text

    def test_shed_request_maps_to_503_with_reason(self, live_server, rng):
        """A closed service rejects deterministically; the front-end turns
        the Rejected into a 503 whose body names the reason."""
        service = live_server["service"]
        loop = live_server["loop"]
        # close admission from the service's own loop thread
        fut = asyncio.run_coroutine_threadsafe(service.aclose(), loop)
        fut.result(timeout=10.0)
        request = urllib.request.Request(
            live_server["url"] + "/sort",
            data=json.dumps(
                {"cell": CELL, "keys": rng.integers(0, 1000, WIDTH).tolist()}
            ).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 503
        body = json.loads(excinfo.value.read())
        assert body["reason"] == "shutting_down"

    def test_loadgen_target_mode_drives_the_live_server(self, live_server):
        doc = run_loadgen(
            LoadScenario(requests=30, rate=3000.0, mix="adversarial"),
            target=live_server["url"],
        )
        counts = doc["counts"]
        assert counts["completed"] == 30
        assert counts["mismatches"] == 0 and counts["errors"] == 0
        # service health fetched from the live /queues.json
        assert doc["service"]["path(3)-n3-r3"]["completed"] >= 30
        assert doc["config"] is None


def _json_keys(keys: np.ndarray) -> list:
    """How a client would put ``keys`` into a JSON body: datetimes as
    strings, complex numbers as ``[re, im]`` pairs, the rest as they are
    (float NaN and ±inf become the ``NaN``/``Infinity`` tokens)."""
    if keys.dtype.kind == "M":
        return [str(k) for k in keys]
    if keys.dtype.kind == "c":
        return [[k.real, k.imag] for k in keys.tolist()]
    return keys.tolist()


class TestKeyDomainProperties:
    """Hypothesis over key dtypes at the service and HTTP boundaries: keys
    in the domain sort exactly like :func:`~repro.schedule.replay` (floats
    compared with ``==``: the sign of a zero is not preserved), everything
    else is a typed :class:`~repro.schedule.KeyDomainError` — over HTTP a
    400 with ``"reason": "key_domain"``."""

    @given(
        cell=st.sampled_from(("path-n3-r3", "k2-n2-r4")),
        tiered=st.booleans(),
        dtype=st.sampled_from(ORDERED_DTYPES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_submit_sorts_like_replay(self, cell, tiered, dtype, seed):
        """Through the certified kernel, or the raw one when the tier-up
        does not run."""
        dag = _lattice_dag(cell)
        keys = dtype_keys(dtype, (dag.num_nodes,), np.random.default_rng(seed))

        async def scenario():
            async with SortService() as service:
                service.prewarm(cell)
                queue = service._get_queue(cell)
                if not tiered:
                    queue.tier_up.cancel()
                out = await service.submit(cell, keys)
                assert queue.kernel.certified is tiered
                return out

        out = _run(scenario())
        assert out.dtype == keys.dtype
        assert np.array_equal(out, replay(dag, keys))

    @given(kind=st.sampled_from(UNORDERED_KINDS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_submit_refuses_unordered_keys(self, kind, seed):
        keys = unordered_keys(kind, WIDTH, np.random.default_rng(seed))

        async def scenario():
            async with SortService() as service:
                with pytest.raises(KeyDomainError):
                    await service.submit(CELL, keys)
                return service.queues_snapshot()

        # refused at submit: the keys never reach a batch
        (queue,) = _run(scenario()).values()
        assert (queue["depth"], queue["completed"], queue["errors"]) == (0, 0, 0)

    @given(
        kind=st.sampled_from(ORDERED_DTYPES + UNORDERED_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_post_sort_sorts_like_replay_or_is_a_typed_400(self, live_server, kind, seed):
        """The front-end admits JSON integers within int64 only; a body with
        anything else — bools, floats (even ±inf), uint64 keys above int64,
        NaN, datetimes, complex pairs, mixed objects — is a typed 400."""
        rng = np.random.default_rng(seed)
        if kind in ORDERED_DTYPES:
            keys = dtype_keys(kind, (WIDTH,), rng)
        else:
            keys = unordered_keys(kind, WIDTH, rng)
        payload = _json_keys(keys)
        request = urllib.request.Request(
            live_server["url"] + "/sort",
            data=json.dumps({"cell": CELL, "keys": payload}).encode(),
            method="POST",
        )
        int64 = np.iinfo(np.int64)
        if all(type(k) is int and int64.min <= k <= int64.max for k in payload):
            with urllib.request.urlopen(request, timeout=10.0) as resp:
                out = np.asarray(json.loads(resp.read())["keys"])
            assert np.array_equal(
                out, replay(_lattice_dag(CELL), np.asarray(payload, dtype=np.int64))
            )
        else:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
            doc = json.loads(excinfo.value.read())
            assert doc["reason"] == "key_domain" and doc["cell"] == CELL


class TestServeCli:
    def test_loadgen_cli_text_and_exit_zero(self, capsys):
        assert main(["loadgen", "--requests", "20", "--rate", "4000"]) == 0
        out = capsys.readouterr().out
        assert "offered=20 completed=20 rejected=0" in out
        assert "queue path(3)-n3-r3" in out

    def test_loadgen_cli_json_document(self, capsys, tmp_path):
        out_path = tmp_path / "loadgen.json"
        assert main(
            ["loadgen", "--requests", "15", "--rate", "4000", "--mix", "presorted",
             "--json", "--out", str(out_path)]
        ) == 0
        doc = json.loads(out_path.read_text())
        assert doc["counts"]["completed"] == 15
        assert doc["scenario"]["mix"] == "presorted"

    def test_loadgen_cli_overload_still_exits_zero(self, capsys):
        """Shedding is the designed overload response, not a failure."""
        assert main(
            ["loadgen", "--requests", "40", "--rate", "50000",
             "--max-queue-depth", "6", "--max-batch", "4",
             "--flush-penalty", "0.02", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["rejected"] > 0

    def test_loadgen_cli_rejects_bad_scenario(self, capsys):
        assert main(["loadgen", "--rate", "-5"]) == 2
        assert "rate" in capsys.readouterr().err

    def test_serve_parser_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cell", "path-n3-r3", "--max-batch", "16"]
        )
        assert args.max_batch == 16 and args.port == 0
        args = build_parser().parse_args(["loadgen", "--arrivals", "burst"])
        assert args.arrivals == "burst"


class TestHealthEndpoints:
    """Satellite: liveness (`/healthz`) vs readiness (`/readyz`) split."""

    def test_live_server_is_healthy_and_ready(self, live_server):
        for path, expect in (("/healthz", b"ok"), ("/readyz", b"ok")):
            with urllib.request.urlopen(live_server["url"] + path, timeout=5.0) as resp:
                assert resp.status == 200
                assert resp.read().strip() == expect

    def test_shutdown_flips_readyz_but_not_healthz(self):
        """During drain the process is alive (liveness 200) but must be
        pulled from rotation (readiness 503 with the reason)."""
        import threading

        box: dict = {}
        started = threading.Event()
        drained = threading.Event()
        done = threading.Event()

        async def amain():
            service = SortService(ServiceConfig())
            await service.__aenter__()
            loop = asyncio.get_running_loop()
            server = build_sort_server(service, loop)
            server.start()
            box["url"] = server.url("")
            started.set()
            await asyncio.get_running_loop().run_in_executor(None, drained.wait)
            await service.__aexit__(None, None, None)
            box["closed"] = True
            done.set()
            await asyncio.get_running_loop().run_in_executor(None, box["stop"].wait)
            server.stop()

        box["stop"] = threading.Event()
        thread = threading.Thread(target=lambda: asyncio.run(amain()), daemon=True)
        thread.start()
        assert started.wait(timeout=30.0)

        def get(path):
            try:
                with urllib.request.urlopen(box["url"] + path, timeout=5.0) as resp:
                    return resp.status, resp.read()
            except urllib.error.HTTPError as err:
                return err.code, err.read()

        assert get("/readyz")[0] == 200
        drained.set()
        assert done.wait(timeout=30.0)
        status, body = get("/readyz")
        assert status == 503 and b"shutting down" in body
        # liveness is about the process, not the service: still 200
        assert get("/healthz")[0] == 200
        box["stop"].set()
        thread.join(timeout=10.0)


class TestServerSideLatency:
    """Satellite: loadgen surfaces the server's own latency histograms."""

    def test_clean_run_reports_consistent_server_percentiles(self):
        doc = run_loadgen(
            LoadScenario(requests=40, rate=2000.0),
            config=ServiceConfig(max_batch=16),
        )
        srv = doc["server_latency_ms"]
        assert set(srv["request"]) == {"p50", "p99"}
        assert set(srv["queue_wait"]) == {"p50", "p99"}
        assert 0 < srv["request"]["p50"] <= srv["request"]["p99"]
        # fresh registry + zero errors: the server-vs-client invariant holds
        assert srv["consistent"] is True
        # the invariant compares like with like: both sides bucketed
        assert srv["request"]["p99"] <= srv["client_bucketed"]["p99"] + 1e-9

    def test_queues_snapshot_carries_queue_wait_percentiles(self, rng):
        async def scenario():
            async with SortService(ServiceConfig()) as service:
                keys = rng.integers(0, 1000, WIDTH)
                await service.submit(CELL, keys.astype(np.int64))
                return service.queues_snapshot()

        snap = _run(scenario())
        q = snap["path(3)-n3-r3"]
        assert q["queue_wait_p50_ms"] is not None
        assert q["queue_wait_p99_ms"] >= q["queue_wait_p50_ms"]

    def test_shared_registry_disables_the_invariant(self):
        """A reused registry carries older samples, so the server-vs-client
        comparison is reported but not asserted (consistent is None)."""
        registry = MetricsRegistry()
        run_loadgen(LoadScenario(requests=10, rate=2000.0), registry=registry)
        doc = run_loadgen(LoadScenario(requests=10, rate=2000.0), registry=registry)
        assert doc["server_latency_ms"]["consistent"] is None


class TestServeSloCli:
    """CLI wiring for the SLO evaluator (`--slo` on serve and loadgen)."""

    def test_loadgen_slo_flag_prints_the_slo_line(self, capsys):
        assert main(["loadgen", "--requests", "20", "--rate", "4000", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "slo: severity=ok" in out
        assert "server[path(3)-n3-r3]" in out
        assert "server p99 <= client p99: yes" in out

    def test_loadgen_slo_json_carries_the_snapshot(self, capsys):
        assert main(
            ["loadgen", "--requests", "20", "--rate", "4000", "--slo", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slo"]["page_alerts"] == 0
        assert [a["spec"]["name"] for a in doc["slo"]["alerts"]] == [
            "serve-availability", "serve-request-p99",
            "serve-deadline-misses", "serve-queue-wait-p99",
        ]

    def test_serve_parser_accepts_slo_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--slo", "--slo-scale", "0.5"])
        assert args.slo is True and args.slo_scale == 0.5
        assert build_parser().parse_args(["serve"]).slo is False
        args = build_parser().parse_args(["loadgen", "--slo", "--flush-penalty", "0.05"])
        assert args.slo is True and args.flush_penalty == 0.05
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dash"])

    def test_overload_drill_pages(self, capsys):
        """The documented overload drill (README, docs/slo.md), verbatim."""
        drill = (
            "loadgen --slo --arrivals burst --rate 4000 --requests 400 "
            "--flush-penalty 0.05 --max-queue-depth 4"
        )
        assert main(drill.split()) == 0
        out = capsys.readouterr().out
        pages = int(out.split("pages_fired=")[1].split()[0])
        assert pages >= 1, out
        assert "    serve-availability: " in out, out  # it transitioned
