"""Table generation: the §5 evaluation as predicted-vs-measured reports.

The paper's evaluation is a set of closed-form running times per network
family.  These helpers run the actual sorter, collect the ledger, and render
plain-text tables putting the paper's formula next to the measurement —
consumed by the CLI (``python -m repro``), the benchmarks and
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.lattice_sort import ProductNetworkSorter
from ..graphs.base import FactorGraph
from ..machine.metrics import CostLedger
from ..orders.snake import lattice_to_sequence
from .complexity import (
    NetworkPrediction,
    network_prediction,
    sort_routing_calls,
    sort_s2_calls,
)

__all__ = ["MeasuredRow", "measure_sort", "section5_rows", "render_table", "format_markdown_table"]


@dataclass(frozen=True)
class MeasuredRow:
    """Prediction and measurement for one (factor, r) instance."""

    prediction: NetworkPrediction
    measured_rounds: int
    measured_s2_calls: int
    measured_routing_calls: int
    sorted_ok: bool

    @property
    def matches_theorem1(self) -> bool:
        """Exact structural match with Theorem 1's invoice."""
        return (
            self.measured_rounds == self.prediction.total_rounds
            and self.measured_s2_calls == sort_s2_calls(self.prediction.r)
            and self.measured_routing_calls == sort_routing_calls(self.prediction.r)
        )


def measure_sort(
    factor: FactorGraph,
    r: int,
    seed: int = 0,
    sorter: ProductNetworkSorter | None = None,
) -> MeasuredRow:
    """Sort random keys on the factor's r-dimensional product and compare the
    ledger with the Theorem 1 prediction."""
    if sorter is None:
        sorter = ProductNetworkSorter.for_factor(factor, r)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**31, size=sorter.network.num_nodes)
    lattice, ledger = sorter.sort_sequence(keys)
    ok = bool(np.array_equal(lattice_to_sequence(lattice), np.sort(keys)))
    pred = network_prediction(factor, r, sorter.sorter2d, sorter.routing)
    return MeasuredRow(
        prediction=pred,
        measured_rounds=ledger.total_rounds,
        measured_s2_calls=ledger.s2_calls,
        measured_routing_calls=ledger.routing_calls,
        sorted_ok=ok,
    )


def section5_rows(
    instances: Sequence[tuple[FactorGraph, int]], seed: int = 0
) -> list[MeasuredRow]:
    """Measure every (factor, r) instance — one §5-style table."""
    return [measure_sort(factor, r, seed=seed) for factor, r in instances]


def render_table(rows: Sequence[MeasuredRow]) -> str:
    """Fixed-width text table of predicted vs measured costs."""
    headers = [
        "network",
        "N",
        "r",
        "S2 model",
        "S2",
        "R",
        "predicted",
        "measured",
        "match",
        "sorted",
        "asymptotic",
    ]
    body = [
        [
            row.prediction.factor_name,
            str(row.prediction.n),
            str(row.prediction.r),
            row.prediction.s2_model,
            str(row.prediction.s2_rounds),
            str(row.prediction.routing_rounds),
            str(row.prediction.total_rounds),
            str(row.measured_rounds),
            "yes" if row.matches_theorem1 else "NO",
            "yes" if row.sorted_ok else "NO",
            row.prediction.asymptotic,
        ]
        for row in rows
    ]
    widths = [max(len(headers[c]), max((len(b[c]) for b in body), default=0)) for c in range(len(headers))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(b, widths)) for b in body]
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], body: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    cells = [[str(x) for x in row] for row in body]
    out = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in cells]
    return "\n".join(out)


def ledger_breakdown(ledger: CostLedger) -> str:
    """Human-readable per-phase charge log."""
    lines = [str(ledger)]
    for rec in ledger.records:
        lines.append(f"  [{rec.phase:>2}] {rec.rounds:>6} rounds  {rec.detail}")
    return "\n".join(lines)
