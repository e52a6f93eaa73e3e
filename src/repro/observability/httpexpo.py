"""Live metrics exposition over stdlib HTTP: ``/metrics`` for Prometheus.

:class:`MetricsServer` wraps a :class:`~repro.observability.metrics.MetricsRegistry`
in a ``ThreadingHTTPServer`` (no dependencies beyond the standard library)
serving three endpoints:

``/metrics``
    Prometheus text exposition (``registry.expose_text()``), scrape-ready;
``/healthz``
    liveness probe, always ``ok``;
``/readyz``
    readiness probe: ``200 ok`` when the optional ``readiness`` callable
    says traffic is welcome, ``503`` with the reason otherwise (the sort
    service reports "shutting down" while draining and "queue saturated"
    at the admission bound) — liveness and readiness are deliberately
    split so a draining process is still *alive* but takes no new traffic;
``/snapshot.json``
    the registry's JSON snapshot plus schedule-cache stats — the same
    numbers, machine-readable.

Registered *collectors* run before every scrape (except ``/healthz``), the
hook :func:`build_metrics_server` uses to refresh schedule-cache counters so
``repro_schedule_cache_{hits,misses}_total`` are current at scrape time.
Start via ``repro metrics --serve PORT`` (see ``docs/profiling.md``) or
embed with ``with MetricsServer(registry) as server: ...``.

Two growth points serve the serving layer (:mod:`repro.serve`):

* ``handlers`` — extra routes keyed by ``(METHOD, path)``; the sort
  service mounts ``POST /sort`` and ``GET /queues.json`` this way, and
  unknown paths still get a proper plain-text ``404`` (wrong method on a
  known path gets ``405`` with an ``Allow`` header);
* :meth:`MetricsServer.run_blocking` — the graceful-shutdown path
  ``repro serve`` / ``repro metrics --serve`` use: serve until SIGINT /
  SIGTERM (or :meth:`MetricsServer.request_shutdown`), then stop accepting,
  close the listening socket and join the serving thread.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from .metrics import MetricsRegistry

__all__ = ["MetricsServer", "PROMETHEUS_CONTENT_TYPE", "RouteHandler", "build_metrics_server"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: extra-route signature: request body -> (status, content type, body)
RouteHandler = Callable[[bytes], tuple[int, str, bytes]]


class MetricsServer:
    """A threaded HTTP server exposing one registry; see the module docstring.

    ``port=0`` (the default) binds an ephemeral port — read it back from
    :attr:`port`; that is what the endpoint tests do to avoid collisions.
    ``collectors`` are zero-argument callables invoked before each scrape;
    ``snapshot_extra`` (optional) returns a dict merged into
    ``/snapshot.json`` next to the ``metrics`` key.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        collectors: tuple[Callable[[], None], ...] = (),
        snapshot_extra: Callable[[], dict[str, Any]] | None = None,
        handlers: dict[tuple[str, str], RouteHandler] | None = None,
        readiness: Callable[[], tuple[bool, str]] | None = None,
    ) -> None:
        self.registry = registry
        self.collectors = list(collectors)
        self.snapshot_extra = snapshot_extra
        self.handlers = dict(handlers or {})
        self.readiness = readiness
        self._shutdown_event = threading.Event()
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: Any) -> None:  # silence stderr
                pass

            def _serve(self, method: str) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                payload = self.rfile.read(length) if length else b""
                try:
                    status, ctype, body = outer._respond(method, self.path, payload)
                except Exception as exc:  # never kill a serving thread
                    status = 500
                    ctype = "text/plain; charset=utf-8"
                    body = f"internal error: {exc}\n".encode()
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                if status == 405:
                    self.send_header("Allow", outer._allowed(self.path))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:
                self._serve("GET")

            def do_POST(self) -> None:
                self._serve("POST")

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # -- request handling ------------------------------------------------

    _BUILTIN_PATHS = ("/metrics", "/healthz", "/readyz", "/snapshot.json")

    def _allowed(self, path: str) -> str:
        """The ``Allow`` header value for a known path hit with a bad method."""
        path = path.split("?", 1)[0]
        methods = {m for m, p in self.handlers if p == path}
        if path in self._BUILTIN_PATHS:
            methods.add("GET")
        return ", ".join(sorted(methods)) or "GET"

    def _known_paths(self) -> str:
        extra = sorted({p for _, p in self.handlers})
        return " ".join(list(self._BUILTIN_PATHS) + extra)

    def _respond(self, method: str, path: str, payload: bytes = b"") -> tuple[int, str, bytes]:
        path = path.split("?", 1)[0]
        handler = self.handlers.get((method, path))
        if handler is not None:
            return handler(payload)
        if path == "/healthz":
            if method != "GET":
                return 405, "text/plain; charset=utf-8", b"method not allowed\n"
            return 200, "text/plain; charset=utf-8", b"ok\n"
        if path == "/readyz":
            # readiness is distinct from liveness: /healthz says "the process
            # is up", /readyz says "send me traffic" — 503 while draining or
            # saturated so load balancers stop routing before requests shed
            if method != "GET":
                return 405, "text/plain; charset=utf-8", b"method not allowed\n"
            if self.readiness is None:
                return 200, "text/plain; charset=utf-8", b"ok\n"
            ready, reason = self.readiness()
            if ready:
                return 200, "text/plain; charset=utf-8", b"ok\n"
            return 503, "text/plain; charset=utf-8", f"not ready: {reason}\n".encode()
        if path in self._BUILTIN_PATHS or any(p == path for _, p in self.handlers):
            if method != "GET" or path not in self._BUILTIN_PATHS:
                return 405, "text/plain; charset=utf-8", b"method not allowed\n"
        for collect in self.collectors:
            collect()
        if path == "/metrics":
            return 200, PROMETHEUS_CONTENT_TYPE, self.registry.expose_text().encode()
        if path == "/snapshot.json":
            doc: dict[str, Any] = {"metrics": self.registry.snapshot()}
            if self.snapshot_extra is not None:
                doc.update(self.snapshot_extra())
            body = json.dumps(doc, indent=1, sort_keys=True) + "\n"
            return 200, "application/json", body.encode()
        return (
            404,
            "text/plain; charset=utf-8",
            f"not found; endpoints: {self._known_paths()}\n".encode(),
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "MetricsServer":
        """Serve from a daemon thread; returns self for chaining."""
        thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def serve_forever(self) -> None:
        """Serve from the calling thread (the ``repro metrics`` CLI mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut down the background thread (if any) and close the socket."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def close(self) -> None:
        """Close the listening socket without a threaded shutdown handshake."""
        self._httpd.server_close()

    def request_shutdown(self) -> None:
        """Ask a :meth:`run_blocking` loop to exit (thread-safe, idempotent)."""
        self._shutdown_event.set()

    def run_blocking(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGINT/SIGTERM, then shut down gracefully.

        The CLI path (``repro serve``, ``repro metrics --serve``): serving
        happens on the background thread, the calling thread parks on an
        event that a signal (or :meth:`request_shutdown`) sets, and teardown
        is the full handshake — stop accepting, close the listening socket,
        join the thread — instead of the process dying mid-response.
        Previous signal dispositions are restored on exit; handler
        installation is skipped automatically off the main thread.
        """
        self._shutdown_event.clear()
        previous: dict[int, Any] = {}
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous[signum] = signal.signal(
                        signum, lambda *_args: self._shutdown_event.set()
                    )
                except ValueError:  # pragma: no cover - not the main thread
                    pass
        self.start()
        try:
            self._shutdown_event.wait()
        except KeyboardInterrupt:  # pragma: no cover - manual interrupt race
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def build_metrics_server(
    cell: str = "path-n3-r3",
    batch: int = 64,
    runs: int = 3,
    seed: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
) -> MetricsServer:
    """A ready-to-serve endpoint, warmed with profiled runs of one cell.

    Profiles ``runs`` executions of ``cell``'s compiled kernel into
    a fresh registry — so ``repro_compiled_run_seconds`` has populated
    buckets from the very first scrape — and attaches a collector that
    refreshes the schedule-cache counters on every request.  The returned
    server is not yet started.
    """
    from .cachestats import all_cache_stats, publish_cache_metrics
    from .kernelprof import KernelProfiler, profile_cell

    registry = MetricsRegistry()
    profiler = KernelProfiler(registry=registry)
    profile_cell(cell, batches=(batch,), runs=runs, seed=seed, profiler=profiler)
    publish_cache_metrics(registry)

    def snapshot_extra() -> dict[str, Any]:
        last = profiler.last_profile
        return {
            "caches": all_cache_stats(),
            "last_profile": last.to_json() if last is not None else None,
        }

    return MetricsServer(
        registry,
        host=host,
        port=port,
        collectors=(lambda: publish_cache_metrics(registry),),
        snapshot_extra=snapshot_extra,
    )
