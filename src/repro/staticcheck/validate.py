"""Translation validation: prove an optimized schedule equals its original.

:func:`validate_translation` is the optimizer's external auditor
(:mod:`repro.schedule.optimize` calls it after its passes, and the seeded
optimizer-fault harness throws deliberately broken "optimizations" at it).
It never trusts the per-pass certificates; it re-proves the result from
scratch:

* **geometry** — backend, factor, sizes and the phase structure must be
  untouched (the optimizer may only rewrite rounds/ops);
* **equivalence by the 0-1 principle** — the optimized DAG is re-certified
  over the complete 0-1 space (exhaustively for ≤ 16 nodes, otherwise the
  factored prefix/suffix scheme).  Two sorting networks over the same
  geometry compute the *same function* — the snake-order sort of their
  input — so 0-1 certification of the optimized DAG, given a certified
  original, is a proof of ``optimized == original`` on every input;
* **legality lints** — races, depth and (when the network is given) link
  legality re-run on the optimized DAG, so an "optimization" that packs
  dependent ops into one round or breaks the §4 routing claims is rejected
  even if it happens to sort;
* **obliviousness replay** — the optimized DAG is replayed on the
  adversarial key battery (plus a duplicate-heavy random set) and must
  reproduce both the snake-order ground truth and the original's replay,
  key for key.

A failed validation carries ``exit_code == 1``; the optimizer responds by
falling back to the unoptimized schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..graphs.product import ProductGraph
from ..schedule.activity import MAX_EXHAUSTIVE_NODES, MAX_STATES
from ..schedule.ir import ComparatorDAG, replay, snake_order_nodes
from .extract import adversarial_key_sets
from .lints import VerificationReport, verify_dag

__all__ = ["TranslationValidation", "validate_translation"]


@dataclass
class TranslationValidation:
    """Everything the validator established about one original/optimized pair."""

    original_hash: str
    optimized_hash: str
    #: named check -> verdict; the validator passes only when all hold
    checks: dict[str, bool]
    #: the lint report over the optimized DAG
    report: VerificationReport | None
    #: per key-set replay agreement (ground truth and original replay)
    replay_matches: dict[str, bool]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "original_hash": self.original_hash,
            "optimized_hash": self.optimized_hash,
            "checks": dict(self.checks),
            "failed_checks": self.failed_checks,
            "replay_matches": dict(self.replay_matches),
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        if self.ok:
            return (
                f"translation validation: ok ({len(self.checks)} checks, "
                f"optimized {self.optimized_hash[:12]})"
            )
        return "translation validation: FAIL — " + ", ".join(self.failed_checks)


def _replay_battery(num_nodes: int, seed: int) -> dict[str, np.ndarray]:
    """The adversarial key sets plus a duplicate-heavy random assignment."""
    sets = dict(adversarial_key_sets(num_nodes, seed))
    rng = np.random.default_rng(seed + 0x5EED)
    sets["duplicate-heavy"] = rng.integers(0, max(2, num_nodes // 2), size=num_nodes)
    return sets


def validate_translation(
    original: ComparatorDAG,
    optimized: ComparatorDAG,
    network: ProductGraph | None = None,
    s2_model_rounds: int | None = None,
    routing_model_rounds: int | None = None,
    seed: int = 0,
    max_exhaustive_nodes: int = MAX_EXHAUSTIVE_NODES,
    max_states: int = MAX_STATES,
) -> TranslationValidation:
    """Prove ``optimized == original`` and that the rewrite stayed legal."""
    checks: dict[str, bool] = {}
    notes: list[str] = []

    checks["geometry"] = (
        original.backend == optimized.backend
        and original.factor == optimized.factor
        and original.n == optimized.n
        and original.r == optimized.r
        and original.num_nodes == optimized.num_nodes
        and original.phases == optimized.phases
    )
    if not checks["geometry"]:
        notes.append("the optimizer may only rewrite rounds, never the geometry")

    lints = ("races", "zero-one", "depth") + (("links",) if network is not None else ())
    report = verify_dag(
        optimized,
        network=network,
        lints=lints,
        s2_model_rounds=s2_model_rounds,
        routing_model_rounds=routing_model_rounds,
        max_exhaustive_nodes=max_exhaustive_nodes,
        max_states=max_states,
    )
    for name in lints:
        checks[name] = report.results[name].ok
    if network is None:
        notes.append("no network given — links legality not re-checked")

    # the whole battery in one replay per DAG, one row per key set
    battery = _replay_battery(original.num_nodes, seed)
    keys = np.stack(list(battery.values())).astype(np.int64)
    expected = np.empty_like(keys)
    expected[:, snake_order_nodes(original.n, original.r)] = np.sort(keys, axis=1)
    out_opt = replay(optimized, keys)
    agree = (out_opt == expected).all(axis=1) & (out_opt == replay(original, keys)).all(axis=1)
    replay_matches = {name: bool(ok) for name, ok in zip(battery, agree)}
    equivalent = bool(agree.all())
    checks["oblivious-replay"] = equivalent

    return TranslationValidation(
        original_hash=original.schedule_hash(),
        optimized_hash=optimized.schedule_hash(),
        checks=checks,
        report=report,
        replay_matches=replay_matches,
        notes=notes,
    )
