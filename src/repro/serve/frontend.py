"""HTTP front-end for the sort service, mounted on the metrics server.

:func:`build_sort_server` attaches the serving routes to a
:class:`~repro.observability.httpexpo.MetricsServer`, so one port exposes
both the service API and its telemetry:

``POST /sort``
    body ``{"cell": "path-n3-r3", "keys": [...]}`` → ``200`` with
    ``{"cell": ..., "keys": [...sorted, snake order...]}``; ``400`` on a
    malformed body or a wrong key width, and a typed ``400`` with
    ``"reason": "key_domain"`` on a key that is not a JSON integer or lies
    outside int64 (:class:`~repro.schedule.compiled.KeyDomainError`);
    ``503`` with a machine-readable
    ``reason`` when admission control sheds the request (backpressure is
    explicit, never a hang);
``GET /queues.json``
    the per-queue health document (:meth:`SortService.queues_snapshot`);
``GET /readyz``
    readiness (distinct from ``/healthz`` liveness): ``503`` while the
    service drains or any queue sits at the admission bound
    (:meth:`SortService.readiness`);
``GET /alerts.json``
    only with an ``evaluator`` (the ``repro serve --slo`` path): the
    alerts as of the evaluator's last tick, as
    :meth:`~repro.observability.slo.SLOEvaluator.snapshot`;
``GET /metrics`` / ``GET /snapshot.json`` / ``GET /healthz``
    the usual exposition, now including the ``repro_serve_*`` instruments.

HTTP requests arrive on server threads while the service lives on an
asyncio loop; the bridge is ``asyncio.run_coroutine_threadsafe`` onto the
loop passed by the caller (``repro serve`` hands over its running loop).
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any

import numpy as np

from ..observability.httpexpo import MetricsServer
from ..schedule.compiled import KeyDomainError, check_keys
from .service import Rejected, SortService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.slo import SLOEvaluator

__all__ = ["build_sort_server"]

_JSON = "application/json"
_INT64 = np.iinfo(np.int64)


def _parse_keys(raw: Any, cell: str) -> np.ndarray:
    """A request's JSON ``keys`` as int64 keys of ``cell``.

    A non-array is a malformed body (``ValueError``).  Anything that would
    not round-trip — floats (``np.asarray`` would truncate them), booleans,
    integers outside int64 — is outside the key domain and raises
    :class:`KeyDomainError`, as :func:`check_keys` does for the kernel.
    """
    if not isinstance(raw, list):
        raise ValueError("keys must be a JSON array of integers")
    for key in raw:
        if type(key) is not int:  # excludes bool, an int subclass
            raise KeyDomainError(cell, f"keys must be JSON integers, got {json.dumps(key)}")
        if not _INT64.min <= key <= _INT64.max:
            raise KeyDomainError(cell, f"key {key} is outside int64")
    keys = np.asarray(raw, dtype=np.int64)
    check_keys(keys, cell)
    return keys


def _json_body(status: int, doc: dict[str, Any]) -> tuple[int, str, bytes]:
    return status, _JSON, (json.dumps(doc, sort_keys=True) + "\n").encode()


def build_sort_server(
    service: SortService,
    loop: asyncio.AbstractEventLoop,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = 30.0,
    evaluator: "SLOEvaluator | None" = None,
) -> MetricsServer:
    """A not-yet-started :class:`MetricsServer` wired to ``service``.

    ``loop`` must be the event loop the service runs on; handler threads
    submit through it and block (up to ``request_timeout``) for the batched
    result.  The server scrapes the service's own registry and refreshes
    schedule-cache counters on every scrape.  With ``evaluator`` the
    server also mounts ``GET /alerts.json``.
    """
    from ..observability.cachestats import publish_cache_metrics

    def sort_handler(payload: bytes) -> tuple[int, str, bytes]:
        try:
            doc = json.loads(payload)
            cell = str(doc["cell"])
            keys = _parse_keys(doc["keys"], cell)
        except KeyDomainError as exc:
            return _json_body(
                400, {"error": f"bad request: {exc}", "cell": exc.cell, "reason": "key_domain"}
            )
        except (ValueError, KeyError, TypeError) as exc:
            return _json_body(400, {"error": f"bad request: {exc}"})
        future = asyncio.run_coroutine_threadsafe(service.submit(cell, keys), loop)
        try:
            out = future.result(timeout=request_timeout)
        except Rejected as exc:
            return _json_body(503, {"error": str(exc), "cell": exc.cell, "reason": exc.reason})
        except ValueError as exc:  # wrong width / unknown cell
            return _json_body(400, {"error": str(exc)})
        except TimeoutError:
            future.cancel()
            return _json_body(504, {"error": "sort request timed out", "cell": cell})
        return _json_body(200, {"cell": cell, "keys": out.tolist()})

    def queues_handler(_payload: bytes) -> tuple[int, str, bytes]:
        return _json_body(200, service.queues_snapshot())

    handlers: dict[tuple[str, str], Any] = {
        ("POST", "/sort"): sort_handler,
        ("GET", "/queues.json"): queues_handler,
    }
    if evaluator is not None:

        def alerts_handler(_payload: bytes) -> tuple[int, str, bytes]:
            return _json_body(200, evaluator.snapshot())

        handlers[("GET", "/alerts.json")] = alerts_handler
    return MetricsServer(
        service.registry,
        host=host,
        port=port,
        collectors=(lambda: publish_cache_metrics(service.registry),),
        snapshot_extra=lambda: {"queues": service.queues_snapshot()},
        handlers=handlers,
        readiness=service.readiness,
    )
