"""Tests for compiled-path observability: profiler, caches, /metrics.

Pins the tentpole contracts of the kernel-profiler PR:

* profiling never changes results (profiled output == bare output == snake
  ground truth), costs little next to an untimed run, and its stages
  (rows, layers, restore, residual) sum to its wall time;
* percentiles derived from histogram buckets are the Prometheus
  interpolation, verified on known samples;
* the schedule caches account hits/misses/build time correctly and are
  resettable for test isolation (``clear_caches`` + the fixture);
* the live HTTP endpoint serves valid exposition text carrying
  ``repro_compiled_run_seconds`` and the cache counters after one profiled
  run.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.observability.cachestats import CacheStats, all_cache_stats, publish_cache_metrics
from repro.observability.httpexpo import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    build_metrics_server,
)
from repro.observability.kernelprof import (
    KernelProfiler,
    RunProfile,
    profile_cell,
    render_profile,
    resolve_profile_cell,
)
from repro.observability.metrics import Histogram, MetricsRegistry, quantile_from_buckets
from repro.schedule import (
    CompiledSchedule,
    cache_stats,
    clear_caches,
    compile_schedule,
    snake_order_nodes,
)
from repro.staticcheck import emit_schedule


def _kernel(key: str = "path-n3-r3", certified: bool = False):
    """The cell's raw kernel (built, uncached) or its served certified one."""
    cell = resolve_profile_cell(key)
    dag = emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
    return (compile_schedule(dag) if certified else CompiledSchedule(dag)), dag


class TestKernelProfiler:
    def test_profiled_output_matches_bare_and_ground_truth(self, rng):
        kernel, dag = _kernel()
        keys = rng.integers(0, 2**31, size=(32, dag.num_nodes))
        expected = np.empty_like(keys)
        expected[:, snake_order_nodes(dag.n, dag.r)] = np.sort(keys, axis=1)
        profiler = KernelProfiler()
        out, profile = profiler.run(kernel, keys)
        assert np.array_equal(out, expected)
        assert np.array_equal(out, kernel.run(keys))
        assert profile.batch == 32 and profile.num_nodes == dag.num_nodes
        assert profile.keys == 32 * dag.num_nodes
        # a single key vector comes back 1-D, profiled as a batch of one
        row, profile = profiler.run(kernel, keys[5])
        assert np.array_equal(row, expected[5]) and profile.batch == 1

    def test_per_layer_accounting(self, rng):
        kernel, dag = _kernel()
        keys = rng.integers(0, 2**31, size=(8, dag.num_nodes))
        _, profile = KernelProfiler().run(kernel, keys)
        assert len(profile.layers) == kernel.num_layers
        assert all(layer.wall_ns > 0 for layer in profile.layers)
        assert profile.op_count == sum(layer.op_count for layer in kernel.layers)
        # occupancy: comparator-slot utilisation against floor(N/2) slots
        slots = dag.num_nodes // 2
        for layer in profile.layers:
            assert layer.occupancy == pytest.approx(layer.nodes_touched / 2 / slots)
            assert 0 < layer.occupancy <= dag.num_nodes / 2 / slots
        # keys moved per batch row: the 27-key gather (twice when it also
        # transposes back to row-major), 8 per compare-exchange and 2 per
        # sorted key; layer 3 is the node-major comparator layer
        moves = [54 + 54, 54 + 54, 54 + 54, 54 + 8 * 9, 108 + 2 * 9 + 8 * 9, 54 + 2 * 18]
        assert [layer.bytes_touched for layer in profile.layers] == [
            m * 8 * keys.itemsize for m in moves
        ]
        assert profile.wall_ns >= sum(layer.wall_ns for layer in profile.layers)
        assert 0 < profile.keys_per_s < float("inf")

    @pytest.mark.parametrize("certified", [True, False])
    def test_permute_compute_split_fits_inside_each_layer(self, rng, certified):
        kernel, dag = _kernel(certified=certified)
        keys = rng.integers(0, 2**31, size=(16, dag.num_nodes))
        _, profile = KernelProfiler().run(kernel, keys)
        assert len(profile.layers) == kernel.num_layers
        for layer in profile.layers:
            assert layer.permute_ns > 0 and layer.compute_ns > 0
            assert layer.permute_ns + layer.compute_ns <= layer.wall_ns
        assert 0 < profile.restore_ns
        assert profile.restore_ns + sum(layer.wall_ns for layer in profile.layers) <= (
            profile.wall_ns
        )

    def test_registry_instruments_populated(self, rng):
        kernel, dag = _kernel()
        registry = MetricsRegistry()
        profiler = KernelProfiler(registry=registry)
        keys = rng.integers(0, 2**31, size=(4, dag.num_nodes))
        profiler.run(kernel, keys)
        profiler.run(kernel, keys)
        assert registry.counter("repro_compiled_keys_total").value(cell=kernel.cell) == (
            2 * 4 * dag.num_nodes
        )
        series = registry.histogram("repro_compiled_run_seconds").snapshot_series(
            cell=kernel.cell
        )
        assert series["count"] == 2
        text = registry.expose_text()
        assert "repro_compiled_run_seconds_bucket" in text

    @pytest.mark.parametrize("key", ["k2-n2-r4", "path-n3-r3"])
    def test_profiled_run_costs_about_an_untimed_run(self, rng, key):
        """Nothing but the kernel runs between the stamps: over 60 pairs at
        batch 1, interleaved, the profiled wall time's p50 stays within 2x
        the untimed ``run`` p50 plus 20 µs (bookkeeping inside the window
        cost about 5x)."""
        kernel, dag = _kernel(key, certified=True)
        keys = rng.integers(0, 2**31, size=(1, dag.num_nodes))
        profiler = KernelProfiler()
        kernel.run(keys)
        profiler.run(kernel, keys)  # warm both paths
        bare, profiled = [], []
        for _ in range(60):
            t0 = time.perf_counter_ns()
            kernel.run(keys)
            bare.append(time.perf_counter_ns() - t0)
            profiled.append(profiler.run(kernel, keys)[1].wall_ns)
        assert np.median(profiled) <= 2 * np.median(bare) + 20_000, (bare, profiled)

    @pytest.mark.parametrize("key", ["k2-n2-r4", "path-n3-r3", "path-n4-r3"])
    @pytest.mark.parametrize("batch", [1, 16, 256])
    def test_stages_sum_to_the_wall_time(self, rng, key, batch):
        kernel, dag = _kernel(key, certified=True)
        keys = rng.integers(0, 2**31, size=(batch, dag.num_nodes))
        profiler = KernelProfiler()
        for _ in range(5):
            _, profile = profiler.run(kernel, keys)
            stages = profile.rows_ns + sum(layer.wall_ns for layer in profile.layers)
            assert stages + profile.restore_ns + profile.residual_ns == profile.wall_ns
            assert profile.residual_ns >= 0 and profile.rows_ns > 0
            for layer in profile.layers:
                assert layer.wall_ns == layer.permute_ns + layer.compute_ns
            doc = profile.to_json()
            assert doc["rows_ns"] == profile.rows_ns
            assert doc["residual_ns"] == profile.residual_ns
        assert profiler.last_profile is profile

    def test_tracer_spans_and_chrome_export(self, rng):
        from repro.observability import Tracer, chrome_trace_json

        kernel, dag = _kernel()
        tracer = Tracer()
        profiler = KernelProfiler(tracer=tracer)
        _, profile = profiler.run(kernel, rng.integers(0, 100, size=(2, dag.num_nodes)))
        assert tracer.count("compiled-run", kind="kernel") == 1
        assert tracer.count("kernel-layer", kind="kernel") == kernel.num_layers
        # the spans carry the stamped times: one per layer, inside the run
        (run_span,) = tracer.roots
        assert run_span.duration == pytest.approx(profile.wall_s)
        for span, layer in zip(run_span.children, profile.layers):
            assert span.attrs["layer"] == layer.index
            assert span.duration == pytest.approx(layer.wall_ns / 1e9, abs=1e-9)
            assert run_span.start <= span.start < span.end <= run_span.end
        events = json.loads(chrome_trace_json(tracer))["traceEvents"]
        assert any(e.get("name") == "kernel-layer" and e["ph"] == "X" for e in events)

    def test_quantiles_from_profiler_histogram(self, rng):
        kernel, dag = _kernel()
        profiler = KernelProfiler()
        keys = rng.integers(0, 2**31, size=(4, dag.num_nodes))
        for _ in range(5):
            profiler.run(kernel, keys)
        runs = profiler.registry.histogram("repro_compiled_run_seconds")
        assert 0 < runs.quantile(0.5, cell=kernel.cell) <= runs.quantile(0.99, cell=kernel.cell)
        layers = profiler.registry.histogram("repro_compiled_layer_seconds")
        assert layers.snapshot_series(cell=kernel.cell)["count"] == 5 * kernel.num_layers
        # unprofiled cell: NaN, not a crash
        assert np.isnan(runs.quantile(0.5, cell="no-such-cell"))


class TestHistogramQuantiles:
    def test_known_samples_interpolate_exactly(self):
        h = Histogram("t_seconds", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 3.0, 7.0):
            h.observe(v)
        # target rank 2 of 4 lands at the top of the (1, 2] bucket
        assert h.quantile(0.5) == pytest.approx(2.0)
        assert h.quantile(0.25) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(8.0)
        assert h.quantile(0.0) == pytest.approx(0.0)

    def test_uniform_samples_match_numpy_percentile_roughly(self):
        h = Histogram("u_seconds", buckets=tuple(float(b) for b in range(1, 101)))
        values = list(range(1, 101))
        for v in values:
            h.observe(v)
        # exact on bucket edges: every value is its own bucket upper bound
        assert h.quantile(0.5) == pytest.approx(50.0)
        assert h.quantile(0.99) == pytest.approx(99.0)

    def test_overflow_and_empty_series(self):
        h = Histogram("o_seconds", buckets=(1.0, 2.0))
        assert np.isnan(h.quantile(0.5))
        h.observe(100.0)  # lands in +Inf
        assert h.quantile(0.99) == pytest.approx(2.0)  # largest finite bound
        with pytest.raises(ValueError, match="quantile"):
            quantile_from_buckets((1.0,), [1], 1.5)

    def test_labelled_series_are_independent(self):
        h = Histogram("l_seconds", buckets=(1.0, 2.0, 4.0))
        h.observe(0.5, cell="a")
        h.observe(3.5, cell="b")
        assert h.quantile(0.5, cell="a") <= 1.0
        assert h.quantile(0.5, cell="b") > 2.0
        assert np.isnan(h.quantile(0.5, cell="c"))


class TestCacheStats:
    def test_hit_miss_accounting_across_compiles(self, schedule_caches):
        _, dag = _kernel()  # the raw kernel is built, never cached
        before = cache_stats()["compiled-kernels"]
        assert before["lookups"] == 0
        k1 = compile_schedule(dag)
        k2 = compile_schedule(dag)
        k3 = compile_schedule(dag, optimize=True)
        assert k1 is k2 is k3 and k1.certified
        after = cache_stats()["compiled-kernels"]
        assert after["misses"] == before["misses"] + 1  # the certified kernel
        assert after["hits"] == before["hits"] + 2
        assert after["size"] == 1
        assert after["build_seconds"] > 0
        assert 0 < after["hit_rate"] < 1

    def test_emission_caches_account_hits(self, schedule_caches):
        cell = resolve_profile_cell("path-n3-r3")
        emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
        emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
        snap = cache_stats()["lattice-emission"]
        assert snap["misses"] == 1 and snap["hits"] == 1 and snap["size"] == 1

    def test_clear_caches_resets_everything(self, schedule_caches):
        _, dag = _kernel()
        compile_schedule(dag)
        clear_caches()
        for snap in cache_stats().values():
            assert snap["lookups"] == 0 and snap["size"] == 0
            assert snap["build_seconds"] == 0.0

    def test_publish_cache_metrics_is_idempotent(self, schedule_caches):
        _, dag = _kernel(certified=True)  # 1 miss
        compile_schedule(dag)
        compile_schedule(dag)  # 2 hits
        registry = MetricsRegistry()
        publish_cache_metrics(registry)
        publish_cache_metrics(registry)  # second publish must not double-count
        hits = registry.counter("repro_schedule_cache_hits_total")
        misses = registry.counter("repro_schedule_cache_misses_total")
        assert hits.value(cache="compiled-kernels") == 2
        assert misses.value(cache="compiled-kernels") == 1
        assert registry.gauge("repro_schedule_cache_size").value(cache="compiled-kernels") == 1
        # a reset between publishes clamps deltas at zero (counters stay put)
        clear_caches()
        publish_cache_metrics(registry)
        assert hits.value(cache="compiled-kernels") == 2

    def test_standalone_cachestats_registry(self):
        stats = CacheStats("test-standalone", size_fn=lambda: 7)
        stats.record_miss(0.25)
        stats.record_hit()
        stats.record_hit()
        snap = all_cache_stats()["test-standalone"]
        assert snap["hits"] == 2 and snap["misses"] == 1 and snap["size"] == 7
        assert snap["hit_rate"] == pytest.approx(2 / 3)
        assert snap["build_seconds"] == pytest.approx(0.25)


class TestProfileCell:
    def test_sweep_covers_every_batch(self):
        doc = profile_cell("path-n3-r3", batches=(1, 8), runs=2, seed=0)
        assert doc["cell"] == "path-n3-r3-lattice"
        assert [b["batch"] for b in doc["batches"]] == [1, 8]
        assert doc["layers"] == len(doc["batches"][0]["per_layer"])
        assert doc["ops"] == sum(layer["ops"] for layer in doc["batches"][0]["per_layer"])
        assert 0 < doc["mean_occupancy"] <= doc["max_occupancy"]
        for point in doc["batches"]:
            assert point["keys_per_s"] > 0
            assert point["wall_s"]["min"] <= point["wall_s"]["p50"]
            assert 0 < point["floor_s"]["min"] <= point["floor_s"]["p50"]
            assert point["floor_ratio"] > 0
            assert point["permute_ns"] > 0 and point["compute_ns"] > 0

    def test_every_layer_reports_its_form(self):
        """k2-n2-r4's width-4 slabs sort at batch 1 and run as networks at
        256; path-n4-r3's width-16 blocks and 32-wide Lemma-1 windows stay
        row-major sorts, and no comparator layer is left."""
        doc = profile_cell("k2-n2-r4", batches=(1, 256), runs=1, seed=0)
        for point, form in zip(doc["batches"], ("sort", "network")):
            for layer in point["per_layer"]:
                assert layer["layout"] == "node-major"
                assert layer["slabs"] == [{"width": 4, "blocks": 4, "form": form}]
                assert layer["form"] == f"node 4x4:{form}"
                # 16-key gather, then 2 moves per sorted key or 8 per exchange
                moves = 32 + (32 if form == "sort" else 8 * 5 * 4)
                assert layer["bytes_touched"] == moves * point["batch"] * 8
        assert "node 4x4:network" in render_profile(doc)
        text = render_profile(profile_cell("path-n4-r3", batches=(256,), runs=1, seed=0))
        assert "row 4x16:sort" in text and "row 2x32:sort" in text and "row 1x32:sort" in text
        assert "node compare" not in text

    def test_full_benchreg_key_and_unknown_cell(self):
        assert resolve_profile_cell("path-n3-r3-lattice").key == "path-n3-r3-lattice"
        assert resolve_profile_cell("k2-n2-r4-machine").backend == "machine"
        with pytest.raises(ValueError, match="unknown profile cell"):
            profile_cell("torus-n9-r9")

    def test_bare_names_resolve_to_their_cell(self):
        """A bare geometry prefers its lattice cell and otherwise resolves to
        its one cell; every name the error lists as known resolves."""
        assert resolve_profile_cell("k2-n2-r2").key == "k2-n2-r2-machine"
        assert resolve_profile_cell("k2-n2-r3").key == "k2-n2-r3-machine"
        for key in ("path-n3-r3", "k2-n2-r4", "path-n4-r3"):  # perfbench's cells
            assert resolve_profile_cell(key).key == f"{key}-lattice"
        with pytest.raises(ValueError, match="unknown profile cell 'k2-n2-r9'") as err:
            resolve_profile_cell("k2-n2-r9")
        known = str(err.value).split("known cells: ")[1].split(", ")
        assert all(resolve_profile_cell(name) for name in known)

    def test_render_profile_has_sweep_and_layer_tables(self):
        doc = profile_cell("path-n3-r3", batches=(4,), runs=2, seed=0)
        text = render_profile(doc)
        assert f"{doc['layers']} layers, {doc['ops']} ops" in text
        assert "per-layer detail (batch 4)" in text and "occ%" in text
        assert "keys/s" in text
        assert "permute µs" in text and "compute µs" in text and "×floor" in text

    def test_chrome_trace_export(self, tmp_path, capsys):
        """``--chrome`` traces the runs the report describes: every profiled
        run of every batch, no second sweep."""
        trace = tmp_path / "profile.json"
        argv = ["profile", "--cell", "path-n3-r3", "--batch", "1", "--batch", "4",
                "--runs", "3", "--json", "--chrome", str(trace)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        events = json.loads(trace.read_text())["traceEvents"]
        runs = [e for e in events if e.get("name") == "compiled-run"]
        assert [e["args"]["batch"] for e in runs] == [1, 1, 1, 4, 4, 4]
        layers = [e for e in events if e.get("name") == "kernel-layer"]
        assert len(layers) == 6 * doc["layers"]

    def test_every_profiled_output_is_checked(self):
        """A wrong answer from any run fails the sweep, not only the last."""

        class WrongFirst(KernelProfiler):
            calls = 0

            def run(self, kernel, state) -> tuple[np.ndarray, RunProfile]:
                out, profile = super().run(kernel, state)
                WrongFirst.calls += 1
                if WrongFirst.calls == 1:
                    out = out[:, ::-1].copy()
                return out, profile

        with pytest.raises(AssertionError, match="diverged from snake ground truth"):
            profile_cell("path-n3-r3", batches=(4,), runs=3, seed=0, profiler=WrongFirst())

    def test_self_check_fields_and_verdict(self):
        doc = profile_cell("k2-n2-r4", batches=(1, 256), runs=3, seed=0)
        for point in doc["batches"]:
            layer_walls = sum(layer["wall_ns"] for layer in point["per_layer"])
            assert (
                point["rows_ns"] + layer_walls + point["restore_ns"] + point["residual_ns"]
                == point["wall_ns"]
            )
            assert point["wall_ns"] == round(point["wall_s"]["min"] * 1e9)
            assert 0 < point["bare_s"]["min"] <= point["bare_s"]["p50"]
            assert point["overhead"] == pytest.approx(
                point["wall_s"]["p50"] / point["bare_s"]["p50"]
            )
            assert point["consistent"] == (
                point["residual_ns"] <= 0.10 * point["wall_ns"] and point["overhead"] <= 1.15
            )
        text = render_profile(doc)
        assert "resid%" in text and "×bare" in text and "rows µs" in text
        assert "consistent" in text

    def test_cli_profile_json(self, capsys):
        assert main(["profile", "--cell", "path-n3-r3", "--batch", "8", "--runs",
                     "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["layers"] > 0 and doc["ops"] > 0
        point = doc["batches"][0]
        assert point["per_layer"] and point["keys_per_s"] > 0

    def test_cli_profile_unknown_cell_exits_2(self, capsys):
        assert main(["profile", "--cell", "moebius-n9-r9", "--json"]) == 2
        assert "unknown profile cell" in capsys.readouterr().err

    @pytest.mark.parametrize("batches", [(), (0,), (-4,), (8, 0)])
    def test_empty_or_non_positive_batch_sweep_is_refused(self, batches, capsys):
        with pytest.raises(ValueError, match="batches must be one or more sizes >= 1"):
            profile_cell("path-n3-r3", batches=batches, runs=1)
        if batches:
            argv = ["profile", "--cell", "path-n3-r3", "--runs", "1"]
            for batch in batches:
                argv += ["--batch", str(batch)]
            assert main(argv) == 2
            assert "batches must be one or more sizes >= 1" in capsys.readouterr().err


class TestMetricsEndpoint:
    def test_metrics_healthz_snapshot_and_404(self, schedule_caches):
        server = build_metrics_server(cell="path-n3-r3", batch=8, runs=2)
        with server:
            with urllib.request.urlopen(server.url("/metrics"), timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                text = resp.read().decode()
            # valid exposition shape: TYPE lines and samples for our metrics
            assert "# TYPE repro_compiled_run_seconds histogram" in text
            assert "repro_compiled_run_seconds_bucket" in text
            assert 'le="+Inf"' in text
            assert "repro_compiled_keys_total" in text
            assert "repro_schedule_cache_hits_total" in text
            assert "repro_schedule_cache_misses_total" in text
            with urllib.request.urlopen(server.url("/healthz"), timeout=10) as resp:
                assert resp.read() == b"ok\n"
            with urllib.request.urlopen(server.url("/snapshot.json"), timeout=10) as resp:
                snap = json.loads(resp.read())
            assert "repro_compiled_run_seconds" in snap["metrics"]
            assert "compiled-kernels" in snap["caches"]
            assert snap["last_profile"]["batch"] == 8
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/nope"), timeout=10)
            assert err.value.code == 404

    def test_exposition_parses_line_by_line(self, schedule_caches):
        server = build_metrics_server(cell="path-n3-r3", batch=4, runs=1)
        with server:
            text = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()
        for line in text.splitlines():
            assert line, "no blank lines in exposition"
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name_part, value = line.rsplit(" ", 1)
                float(value)  # every sample value is a number
                assert name_part[0].isalpha()

    def test_scrape_refreshes_cache_counters(self, schedule_caches):
        server = build_metrics_server(cell="path-n3-r3", batch=4, runs=1)
        with server:
            first = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()
            _kernel("k2-n2-r4", certified=True)  # new compile between scrapes
            second = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()

        def misses(text: str) -> float:
            for line in text.splitlines():
                if line.startswith("repro_schedule_cache_misses_total") and "compiled" in line:
                    return float(line.rsplit(" ", 1)[1])
            raise AssertionError("cache miss sample not exposed")

        assert misses(second) == misses(first) + 1

    def test_ephemeral_port_and_plain_server(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "test").inc(3)
        with MetricsServer(registry) as server:
            assert server.port > 0
            text = urllib.request.urlopen(server.url("/metrics"), timeout=10).read().decode()
        assert "x_total 3" in text


class TestHttpRoutesAndShutdown:
    """Satellite: proper 404/405, extra handlers, graceful shutdown."""

    def test_404_names_the_known_endpoints(self):
        registry = MetricsRegistry()
        with MetricsServer(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/definitely-not-here"), timeout=10)
            assert err.value.code == 404
            assert err.value.headers["Content-Type"].startswith("text/plain")
            body = err.value.read().decode()
            for path in ("/metrics", "/healthz", "/snapshot.json"):
                assert path in body

    def test_wrong_method_is_405_with_allow_header(self):
        registry = MetricsRegistry()
        with MetricsServer(registry) as server:
            request = urllib.request.Request(
                server.url("/metrics"), data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 405
            assert err.value.headers["Allow"] == "GET"

    def test_custom_handlers_mount_and_appear_in_404(self):
        registry = MetricsRegistry()

        def echo(payload: bytes):
            return 200, "application/json", json.dumps({"len": len(payload)}).encode()

        with MetricsServer(registry, handlers={("POST", "/echo"): echo}) as server:
            request = urllib.request.Request(server.url("/echo"), data=b"12345", method="POST")
            with urllib.request.urlopen(request, timeout=10) as resp:
                assert json.loads(resp.read()) == {"len": 5}
            # GET on a POST-only route: 405 advertising POST
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/echo"), timeout=10)
            assert err.value.code == 405
            assert err.value.headers["Allow"] == "POST"
            # the 404 body advertises the mounted route
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/nope"), timeout=10)
            assert "/echo" in err.value.read().decode()

    def test_handler_exception_is_a_500_not_a_dead_thread(self):
        registry = MetricsRegistry()

        def broken(payload: bytes):
            raise RuntimeError("handler bug")

        with MetricsServer(registry, handlers={("GET", "/broken"): broken}) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url("/broken"), timeout=10)
            assert err.value.code == 500
            # the serving thread survived: /healthz still answers
            with urllib.request.urlopen(server.url("/healthz"), timeout=10) as resp:
                assert resp.read() == b"ok\n"

    def test_run_blocking_exits_on_request_shutdown(self):
        """The graceful-shutdown path: serve, request shutdown from another
        thread, and come back with the socket closed and thread joined."""
        import socket
        import threading

        registry = MetricsRegistry()
        registry.counter("x_total", "test").inc(1)
        server = MetricsServer(registry)
        port = server.port
        scraped: list[str] = []

        def shut_down_after_scrape():
            scraped.append(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10
                ).read().decode()
            )
            server.request_shutdown()

        trigger = threading.Timer(0.05, shut_down_after_scrape)
        trigger.start()
        try:
            # off-main-thread signal installation is skipped automatically,
            # so this is safe to exercise directly in-process
            server.run_blocking(install_signal_handlers=False)
        finally:
            trigger.cancel()
        assert scraped and "x_total 1" in scraped[0]
        # listening socket is really closed: a fresh connect is refused
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
