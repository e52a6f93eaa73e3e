"""Cost accounting for the paper's synchronous time model (§4.1).

The paper measures running time in synchronous *rounds*: one round lets every
node perform one compare-exchange with (or forward one value to) a neighbour.
The analysis of §4.1 decomposes a sort's cost into

* ``S_2(N)`` rounds per two-dimensional sort, and
* ``R(N)`` rounds per permutation routing inside a factor subgraph
  (the odd-even transpositions between consecutive ``PG_2`` blocks),

arriving at Lemma 3 (``M_k = 2(k-2)(S_2 + R) + S_2``) and Theorem 1
(``S_r = (r-1)^2 S_2 + (r-1)(r-2) R``).

:class:`CostLedger` records exactly these two charge categories (plus
comparison counts and a per-phase log), so a measured run can be checked
*structurally* against the formulas: the algorithm driver never hard-codes
the closed forms — it just pays for what it does — and the tests assert the
invoice matches the theory, call count by call count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseRecord", "CostLedger"]


@dataclass(frozen=True)
class PhaseRecord:
    """One logged charge: which phase of the algorithm paid how much."""

    phase: str
    detail: str
    rounds: int
    comparisons: int = 0


@dataclass
class CostLedger:
    """Accumulates rounds/comparisons split by charge category.

    Attributes
    ----------
    s2_calls / s2_rounds:
        number of two-dimensional sorts performed and their total rounds.
        Theorem 1 predicts ``s2_calls == (r-1)**2`` for a full sort.
    routing_calls / routing_rounds:
        number of factor-graph permutation routings (one per odd-even block
        transposition step) and their total rounds.  Theorem 1 predicts
        ``routing_calls == (r-1)*(r-2)``.
    comparisons:
        total key comparisons (a sequential-work measure, used when
        comparing against comparator-network baselines).
    """

    s2_calls: int = 0
    s2_rounds: int = 0
    routing_calls: int = 0
    routing_rounds: int = 0
    comparisons: int = 0
    records: list[PhaseRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """All communication rounds charged so far."""
        return self.s2_rounds + self.routing_rounds

    def charge_s2(self, rounds: int, detail: str = "", comparisons: int = 0) -> None:
        """Charge one two-dimensional sort of the given cost."""
        if rounds < 0:
            raise ValueError("rounds must be nonnegative")
        self.s2_calls += 1
        self.s2_rounds += rounds
        self.comparisons += comparisons
        self.records.append(PhaseRecord("S2", detail, rounds, comparisons))

    def charge_routing(self, rounds: int, detail: str = "", comparisons: int = 0) -> None:
        """Charge one factor-graph permutation routing of the given cost."""
        if rounds < 0:
            raise ValueError("rounds must be nonnegative")
        self.routing_calls += 1
        self.routing_rounds += rounds
        self.comparisons += comparisons
        self.records.append(PhaseRecord("R", detail, rounds, comparisons))

    def summary(self) -> dict[str, int]:
        """Compact dict view for reports and benchmark tables."""
        return {
            "total_rounds": self.total_rounds,
            "s2_calls": self.s2_calls,
            "s2_rounds": self.s2_rounds,
            "routing_calls": self.routing_calls,
            "routing_rounds": self.routing_rounds,
            "comparisons": self.comparisons,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return (
            f"CostLedger(total={s['total_rounds']} rounds: "
            f"{s['s2_calls']} S2 sorts = {s['s2_rounds']}, "
            f"{s['routing_calls']} routings = {s['routing_rounds']}, "
            f"{s['comparisons']} comparisons)"
        )
