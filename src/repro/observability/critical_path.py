"""Critical-path analysis: does the measured run satisfy Lemma 3 / Theorem 1?

The span tree records exactly the *charged* parallel-time path, so walking
it recovers the paper's cost decomposition from telemetry alone.  This
module condenses a :class:`~repro.observability.tracer.Tracer` recording
into a :class:`ConformanceReport` that checks, phase by phase:

* **Theorem 1's call structure** — the tree must contain exactly
  ``(r-1)**2`` spans of kind ``s2`` and ``(r-1)(r-2)`` of kind ``routing``;
* **Lemma 3 per merge level** — every ``merge`` span of dimension ``k``
  must hold ``2(k-2)+1`` S₂ spans and ``2(k-2)`` routing spans in its
  subtree, costing ``M_k = 2(k-2)(S_2+R) + S_2`` rounds;
* **Theorem 1's closed form** — total measured rounds must equal
  ``(r-1)^2 S_2 + (r-1)(r-2) R``.

The unit costs ``S_2``/``R`` come from two places, and the report tracks
both:

* *measured units* — the per-call costs observed in the spans themselves.
  Both backends run oblivious 2-D sorters, so all S₂ spans of one run must
  share a single cost; likewise all non-vacuous routing spans.  (On the
  machine backend a transposition can be *vacuous* — zero pairs, zero
  rounds — e.g. the parity-1 step when a merge level has only two blocks,
  which is where the hypercube's measured total sits ``r-2`` rounds under
  the model.  Vacuous spans still count toward the call structure but
  contribute zero rounds to the closed form.)
* *model units* — the analytic ``S_2(N)``/``R(N)`` models, when supplied
  (the lattice backend charges exactly these, so for lattice runs
  measured == model must hold; for machine runs the model total is
  reported as ``model_total_rounds`` without failing conformance).

``conformance_report(tracer)`` infers ``n``/``r``/backend from the root
span's attributes; the benchmark harness calls it on every workload cell
and refuses to bless a baseline whose cells don't conform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis import complexity
from .tracer import Span, Tracer

__all__ = [
    "PhaseBreakdown",
    "MergeLevelCheck",
    "ConformanceReport",
    "conformance_report",
]


@dataclass(frozen=True)
class PhaseBreakdown:
    """Aggregate of all spans sharing one (name, kind) pair."""

    name: str
    kind: str
    count: int
    rounds: int
    comparisons: int
    wall_s: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "count": self.count,
            "rounds": self.rounds,
            "comparisons": self.comparisons,
            "wall_s": self.wall_s,
        }


@dataclass(frozen=True)
class MergeLevelCheck:
    """Lemma 3 verified on one ``merge`` span's subtree."""

    dim: int
    s2_spans: int
    routing_spans: int
    vacuous_routing_spans: int
    measured_rounds: int
    expected_rounds: int

    @property
    def calls_ok(self) -> bool:
        """Call structure matches Lemma 3: ``2(k-2)+1`` S₂, ``2(k-2)`` R."""
        return (
            self.s2_spans == complexity.merge_s2_calls(self.dim)
            and self.routing_spans == complexity.merge_routing_calls(self.dim)
        )

    @property
    def rounds_ok(self) -> bool:
        return self.measured_rounds == self.expected_rounds

    @property
    def ok(self) -> bool:
        return self.calls_ok and self.rounds_ok

    def as_dict(self) -> dict[str, Any]:
        return {
            "dim": self.dim,
            "s2_spans": self.s2_spans,
            "routing_spans": self.routing_spans,
            "vacuous_routing_spans": self.vacuous_routing_spans,
            "measured_rounds": self.measured_rounds,
            "expected_rounds": self.expected_rounds,
            "ok": self.ok,
        }


@dataclass
class ConformanceReport:
    """The full verdict for one traced sort run."""

    backend: str
    factor: str
    n: int
    r: int
    #: charged spans found in the tree
    s2_spans: int = 0
    routing_spans: int = 0
    vacuous_routing_spans: int = 0
    #: per-call unit costs observed (one element each when conformant)
    s2_unit_rounds: tuple[int, ...] = ()
    routing_unit_rounds: tuple[int, ...] = ()
    #: totals
    measured_total_rounds: int = 0
    predicted_total_rounds: int = 0
    #: Theorem 1 instantiated with the supplied analytic models (None when
    #: no models were given)
    model_total_rounds: int | None = None
    #: per (name, kind) aggregates over the whole tree
    phases: list[PhaseBreakdown] = field(default_factory=list)
    #: Lemma 3 checked on every merge span, outermost first
    merge_levels: list[MergeLevelCheck] = field(default_factory=list)
    #: human-readable descriptions of every violation found
    deviations: list[str] = field(default_factory=list)

    @property
    def theorem1_calls_ok(self) -> bool:
        """``(r-1)**2`` S₂ spans and ``(r-1)(r-2)`` routing spans."""
        return (
            self.s2_spans == complexity.sort_s2_calls(self.r)
            and self.routing_spans == complexity.sort_routing_calls(self.r)
        )

    @property
    def theorem1_rounds_ok(self) -> bool:
        """Measured total equals the closed form at measured unit costs."""
        return self.measured_total_rounds == self.predicted_total_rounds

    @property
    def matches_model(self) -> bool | None:
        """Measured total equals the closed form at *model* unit costs."""
        if self.model_total_rounds is None:
            return None
        return self.measured_total_rounds == self.model_total_rounds

    @property
    def ok(self) -> bool:
        return not self.deviations

    def as_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "factor": self.factor,
            "n": self.n,
            "r": self.r,
            "s2_spans": self.s2_spans,
            "routing_spans": self.routing_spans,
            "vacuous_routing_spans": self.vacuous_routing_spans,
            "s2_unit_rounds": list(self.s2_unit_rounds),
            "routing_unit_rounds": list(self.routing_unit_rounds),
            "measured_total_rounds": self.measured_total_rounds,
            "predicted_total_rounds": self.predicted_total_rounds,
            "model_total_rounds": self.model_total_rounds,
            "theorem1_calls_ok": self.theorem1_calls_ok,
            "theorem1_rounds_ok": self.theorem1_rounds_ok,
            "matches_model": self.matches_model,
            "ok": self.ok,
            "phases": [p.as_dict() for p in self.phases],
            "merge_levels": [m.as_dict() for m in self.merge_levels],
            "deviations": list(self.deviations),
        }


def _is_vacuous(span: Span) -> bool:
    """A routing span that moved nothing: zero rounds and (when the machine
    recorded it) zero pairs."""
    return span.rounds == 0 and int(span.attrs.get("pairs", 0)) == 0


def _charged_spans(root: Span) -> tuple[list[Span], list[Span]]:
    s2, routing = [], []
    for span in root.walk():
        if span.kind == "s2":
            s2.append(span)
        elif span.kind == "routing":
            routing.append(span)
    return s2, routing


def _phase_breakdown(root: Span) -> list[PhaseBreakdown]:
    agg: dict[tuple[str, str], list[float]] = {}
    order: list[tuple[str, str]] = []
    for span in root.walk():
        key = (span.name, span.kind)
        if key not in agg:
            agg[key] = [0, 0, 0, 0.0]
            order.append(key)
        a = agg[key]
        a[0] += 1
        a[1] += span.rounds
        a[2] += int(span.attrs.get("comparisons", 0))
        a[3] += span.duration
    return [
        PhaseBreakdown(name, kind, int(a[0]), int(a[1]), int(a[2]), float(a[3]))
        for (name, kind), a in ((k, agg[k]) for k in order)
    ]


def _closed_form(s2_calls: int, s2_unit: int, live_routing: int, routing_unit: int) -> int:
    return s2_calls * s2_unit + live_routing * routing_unit


def conformance_report(
    tracer: Tracer,
    s2_model_rounds: int | None = None,
    routing_model_rounds: int | None = None,
) -> ConformanceReport:
    """Analyse one traced sort and return the conformance verdict.

    Parameters
    ----------
    tracer:
        a tracer holding exactly one finished ``sort`` root span.
    s2_model_rounds / routing_model_rounds:
        the analytic per-call costs, when known; for ``backend="lattice"``
        runs measured costs must equal these exactly (deviation otherwise),
        for machine runs they only feed ``model_total_rounds``.
    """
    roots = [root for root in tracer.roots if root.name == "sort"]
    if len(roots) != 1:
        raise ValueError(
            f"expected exactly one 'sort' root span, found {len(roots)} "
            f"(roots: {[r.name for r in tracer.roots]})"
        )
    root = roots[0]
    backend = str(root.attrs.get("backend", "unknown"))
    report = ConformanceReport(
        backend=backend,
        factor=str(root.attrs.get("factor", "?")),
        n=int(root.attrs.get("n", 0)),
        r=int(root.attrs.get("r", 0)),
    )
    r = report.r
    if r < 2:
        report.deviations.append(f"root span carries no usable r attribute (r={r})")
        return report

    s2_spans, routing_spans = _charged_spans(root)
    vacuous = [s for s in routing_spans if _is_vacuous(s)]
    live_routing = [s for s in routing_spans if not _is_vacuous(s)]
    report.s2_spans = len(s2_spans)
    report.routing_spans = len(routing_spans)
    report.vacuous_routing_spans = len(vacuous)
    report.phases = _phase_breakdown(root)
    report.measured_total_rounds = root.total_rounds()

    # -- unit costs -----------------------------------------------------
    s2_units = tuple(sorted({s.rounds for s in s2_spans}))
    routing_units = tuple(sorted({s.rounds for s in live_routing}))
    report.s2_unit_rounds = s2_units
    report.routing_unit_rounds = routing_units
    if len(s2_units) > 1:
        report.deviations.append(
            f"S2 spans are not uniform: per-call rounds {list(s2_units)} "
            "(an oblivious 2-D sorter must cost the same every call)"
        )
    if len(routing_units) > 1:
        report.deviations.append(
            f"routing spans are not uniform: per-call rounds {list(routing_units)}"
        )
    s2_unit = s2_units[0] if s2_units else 0
    routing_unit = routing_units[0] if routing_units else 0

    # -- Theorem 1: call structure --------------------------------------
    if report.s2_spans != complexity.sort_s2_calls(r):
        report.deviations.append(
            f"Theorem 1 violated: {report.s2_spans} S2 spans, "
            f"expected (r-1)^2 = {complexity.sort_s2_calls(r)}"
        )
    if report.routing_spans != complexity.sort_routing_calls(r):
        report.deviations.append(
            f"Theorem 1 violated: {report.routing_spans} routing spans, "
            f"expected (r-1)(r-2) = {complexity.sort_routing_calls(r)}"
        )

    # -- Theorem 1: closed form at measured units ------------------------
    report.predicted_total_rounds = _closed_form(
        report.s2_spans, s2_unit, len(live_routing), routing_unit
    )
    if report.measured_total_rounds != report.predicted_total_rounds:
        report.deviations.append(
            f"closed form violated: measured {report.measured_total_rounds} rounds != "
            f"{report.s2_spans}*S2({s2_unit}) + {len(live_routing)}*R({routing_unit}) "
            f"= {report.predicted_total_rounds}"
        )

    # -- model cross-check ----------------------------------------------
    if s2_model_rounds is not None and routing_model_rounds is not None:
        report.model_total_rounds = _closed_form(
            complexity.sort_s2_calls(r),
            s2_model_rounds,
            complexity.sort_routing_calls(r),
            routing_model_rounds,
        )
        if backend == "lattice":
            if s2_units and s2_units != (s2_model_rounds,):
                report.deviations.append(
                    f"lattice backend charged S2 {list(s2_units)} rounds/call, "
                    f"model says {s2_model_rounds}"
                )
            if routing_units and routing_units != (routing_model_rounds,):
                report.deviations.append(
                    f"lattice backend charged routing {list(routing_units)} rounds/call, "
                    f"model says {routing_model_rounds}"
                )
            if report.measured_total_rounds != report.model_total_rounds:
                report.deviations.append(
                    f"lattice total {report.measured_total_rounds} != Theorem 1 model "
                    f"total {report.model_total_rounds}"
                )

    # -- Lemma 3 per merge level ----------------------------------------
    for merge in (s for s in root.walk() if s.name == "merge"):
        dim = int(merge.attrs.get("dim", 0))
        m_s2, m_routing = _charged_spans(merge)
        m_vacuous = sum(1 for s in m_routing if _is_vacuous(s))
        check = MergeLevelCheck(
            dim=dim,
            s2_spans=len(m_s2),
            routing_spans=len(m_routing),
            vacuous_routing_spans=m_vacuous,
            measured_rounds=merge.total_rounds(),
            expected_rounds=_closed_form(
                len(m_s2), s2_unit, len(m_routing) - m_vacuous, routing_unit
            ),
        )
        report.merge_levels.append(check)
        if not check.calls_ok:
            report.deviations.append(
                f"Lemma 3 violated at dim {dim}: {check.s2_spans} S2 / "
                f"{check.routing_spans} routing spans, expected "
                f"{complexity.merge_s2_calls(dim)} / {complexity.merge_routing_calls(dim)}"
            )
        if not check.rounds_ok:
            report.deviations.append(
                f"Lemma 3 rounds violated at dim {dim}: measured "
                f"{check.measured_rounds} != expected {check.expected_rounds}"
            )

    return report
