"""Serving layer: micro-batched sort service, HTTP front-end, load generator.

The arc: :mod:`repro.schedule.compiled` made single-cell sorting a batched
kernel; this package turns that kernel into a *service* — concurrent callers
submit single requests, :class:`SortService` coalesces them into batches
under a latency budget, admission control sheds overload explicitly, and the
whole pipeline is observable (``repro_serve_*`` metrics, ``kind="serve"``
trace spans, ``GET /queues.json`` health).  :mod:`repro.serve.loadgen`
closes the loop with open-loop arrival load generation verified against
snake-order ground truth and gated through benchreg's ``serving`` section.

The package surface is lazy: each public name is imported from its
submodule on first use, so an in-process caller of :class:`SortService`
loads neither the HTTP front-end nor the load generator.

See ``docs/serving.md`` for the guided tour; ``repro serve`` and
``repro loadgen`` are the CLI entry points.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .frontend import build_sort_server
    from .loadgen import (
        ARRIVALS,
        MIXES,
        LoadScenario,
        arrival_offsets,
        default_scenarios,
        make_keys,
        run_loadgen,
        run_suite,
    )
    from .service import (
        OCCUPANCY_BUCKETS,
        REQUEST_TIME_BUCKETS,
        Rejected,
        ServiceConfig,
        SortService,
    )

__all__ = [
    "ARRIVALS",
    "MIXES",
    "OCCUPANCY_BUCKETS",
    "REQUEST_TIME_BUCKETS",
    "LoadScenario",
    "Rejected",
    "ServiceConfig",
    "SortService",
    "arrival_offsets",
    "build_sort_server",
    "default_scenarios",
    "make_keys",
    "run_loadgen",
    "run_suite",
]

# public name -> the submodule that defines it; a new export is one entry here,
# plus its line in __all__ and its import under TYPE_CHECKING
_EXPORTS: dict[str, str] = {
    "ARRIVALS": "loadgen",
    "MIXES": "loadgen",
    "OCCUPANCY_BUCKETS": "service",
    "REQUEST_TIME_BUCKETS": "service",
    "LoadScenario": "loadgen",
    "Rejected": "service",
    "ServiceConfig": "service",
    "SortService": "service",
    "arrival_offsets": "loadgen",
    "build_sort_server": "frontend",
    "default_scenarios": "loadgen",
    "make_keys": "loadgen",
    "run_loadgen": "loadgen",
    "run_suite": "loadgen",
}

if not TYPE_CHECKING:

    def __getattr__(name: str) -> Any:
        module = _EXPORTS.get(name)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups bypass this hook
        return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
